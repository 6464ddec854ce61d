"""Small shared helpers."""

from __future__ import annotations

import numpy as np


def min_image(d, periods):
    """Shortest representative of the displacement `d` on a torus with the
    given period per trailing axis; `periods=None` leaves `d` as it is."""
    if periods is None:
        return d
    p = np.asarray(periods, dtype=float)
    return (d + 0.5 * p) % p - 0.5 * p


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
