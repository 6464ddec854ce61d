"""Small shared helpers."""

from __future__ import annotations

import os

import numpy as np


def min_image(d, periods):
    """Shortest representative of the displacement `d` on a torus with the
    given period per trailing axis; `periods=None` leaves `d` as it is."""
    if periods is None:
        return d
    p = np.asarray(periods, dtype=float)
    return (d + 0.5 * p) % p - 0.5 * p


def resolve_threads(threads: int | None) -> int:
    """Config knob semantics: 0/None means one worker per logical core."""
    if threads is None or int(threads) <= 0:
        return os.cpu_count() or 1
    return int(threads)


def parallel_map(fn, items, threads: int | None = 1):
    """Order-preserving map, optionally spread over a thread pool.

    Work items must be independent and the function pure (or writing to
    disjoint slots); results are collected by index so the output is
    identical for any worker count.
    """
    items = list(items)
    n = resolve_threads(threads)
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # imported here: importing dynkit should not pull in the thread machinery
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(n, len(items))) as pool:
        return list(pool.map(fn, items))
