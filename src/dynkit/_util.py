"""Small shared helpers."""

from __future__ import annotations

import numpy as np


def wrap_unit(x):
    """`x` reduced mod 1 onto the unit torus.

    Bitwise equal to `np.mod(x, 1.0)` for every double at a tenth of its
    cost: both round the same exact real once, so a tiny negative rounds
    up to 1.0 in both; signed zeros, infinities and nan agree too.
    """
    return x - np.floor(x)


def on_torus_axes(x, periods):
    """`x` as floats, shaped as an elementwise operation with `periods` is."""
    x = np.asarray(x, dtype=float)
    n = len(periods)
    return x if x.shape[-1:] == (n,) else \
        np.broadcast_to(x, np.broadcast_shapes(x.shape, (n,)))


def min_image(d, periods):
    """Shortest representative of the displacement `d` on the unit torus
    (bitwise `(d + 0.5) % 1.0 - 0.5`); `periods=None` leaves `d` as it is."""
    if periods is None:
        return d
    return wrap_unit(on_torus_axes(d, periods) + 0.5) - 0.5


def row_norms(d):
    """Euclidean norm of each row of the (n, k) array `d`.

    Each row goes through the dot kernel of a one-vector `np.linalg.norm`,
    so entry i equals `np.linalg.norm(d[i])` bit for bit; the array form
    `np.linalg.norm(d, axis=1)` sums the squares differently.
    """
    d = np.asarray(d, dtype=float)
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])


def write_csv(path, header: list, rows):
    """Write `rows` under `header`; floats in full precision (%.17g)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" if isinstance(x, float) else str(x)
                              for x in row) + "\n")
    return path
