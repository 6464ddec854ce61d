"""Small shared helpers."""

from __future__ import annotations

import numpy as np


def wrap_unit(x, out=None):
    """`x` reduced mod 1 onto the unit torus, written to `out` if given
    (`out` may be `x` itself).

    Bitwise equal to `np.mod(x, 1.0)` for every double at a tenth of its
    cost: both round the same exact real once, so a tiny negative rounds
    up to 1.0 in both; signed zeros, infinities and nan agree too.
    """
    return np.subtract(x, np.floor(x), out=out)


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


def vector_norms(d):
    """Euclidean norm along the last axis of `d`, bit for bit the array
    form `np.linalg.norm(d, axis=-1)` in any shape and layout: numpy sums
    fewer than 8 squares left to right, as this sum does without the
    reduce's overhead, and more pairwise (then its norm is taken)."""
    d = np.asarray(d, dtype=float)
    if d.shape[-1] >= 8:
        return np.linalg.norm(d, axis=-1)
    s = np.square(d[..., 0])
    for k in range(1, d.shape[-1]):
        s += np.square(d[..., k])
    return np.sqrt(s)


def row_norms(d):
    """Euclidean norm of each row of the (n, k) array `d`.

    Each row goes through the dot kernel of a one-vector `np.linalg.norm`,
    so entry i equals `np.linalg.norm(d[i])` bit for bit; the array form
    `np.linalg.norm(d, axis=1)`, which `vector_norms` matches, sums the
    squares differently.
    """
    d = np.asarray(d, dtype=float)
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])


def fill_rows(template: str, rows: np.ndarray, sep: str) -> str:
    """`template` filled with each row of `rows`, the copies joined by `sep`.

    One %-format over the flat list of all rows: %.3f and %.17g round
    exactly as the f-string forms `:.3f` and `:.17g` do, and %d prints an
    integral value as `str` prints the int.
    """
    return sep.join([template] * rows.shape[0]) % tuple(rows.ravel().tolist())


def write_csv(path, header: list, values):
    """Write the rows of the (n, k) float array `values` under `header`,
    each led by its row index; floats in full precision (%.17g)."""
    values = np.asarray(values, dtype=float).reshape(-1, len(header) - 1)
    rows = np.column_stack((np.arange(values.shape[0]), values))
    template = ",".join(["%d"] + ["%.17g"] * values.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(fill_rows(template, rows, ""))
    return path
