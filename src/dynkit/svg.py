"""Deterministic SVG rendering of 2D box sets, polylines and point clouds.

Fixed 1000x1000 canvas, fixed 8-color palette indexed by series, fixed
coordinate formatting; no timestamps or library metadata, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

from ._util import fill_rows, vector_norms

__all__ = ["emit_plot", "PALETTE", "CANVAS"]

CANVAS = 1000
PALETTE = (
    "#1f6fb4", "#d95f02", "#1b9e77", "#7570b3",
    "#e7298a", "#66a61e", "#e6ab02", "#666666",
)


def _project(pts: np.ndarray, lower, upper) -> np.ndarray:
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    scaled = (pts - lo) / (hi - lo) * CANVAS
    out = scaled.copy()
    out[..., 1] = CANVAS - scaled[..., 1]  # y axis up
    return out


def emit_plot(layers, path, lower, upper):
    """Write an SVG composed of layers over the window [lower, upper].

    Each layer is a dict with "kind" in {"boxset", "polyline", "cloud"}
    and "data": a BoxSet, an (n, 2) vertex array, or an (n, 2) point
    array.  Only 2D data is accepted.
    """
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if lo.shape != (2,) or hi.shape != (2,):
        raise ValueError("emit_plot renders 2D windows only")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" '
        f'height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">',
        f'<rect x="0" y="0" width="{CANVAS}" height="{CANVAS}" fill="#ffffff"/>',
    ]
    for i, layer in enumerate(layers):
        kind = layer["kind"]
        color = PALETTE[layer.get("color", i) % len(PALETTE)]
        if kind == "boxset":
            boxset = layer["data"]
            grid = boxset.grid
            if grid.dim != 2:
                raise ValueError("emit_plot renders 2D data only")
            w = grid.h / (hi - lo) * CANVAS
            # one rect per maximal run of set boxes (ix, a..b-1) along axis
            # 1, the fast axis of the flat index; +1/-1 edges of the padded
            # columns pair up in row-major order
            edges = np.diff(np.pad(boxset.bits.reshape(grid.shape)
                                   .astype(np.int8), ((0, 0), (1, 1))), axis=1)
            ix, a = np.nonzero(edges == 1)
            b = np.nonzero(edges == -1)[1]
            # the run's top box (ix, b-1) placed as Grid.box_lower places it
            top = np.stack((ix, b - 1), axis=-1).astype(float)
            corners = _project(np.asarray(grid.domain.lower) + top * grid.h,
                               lo, hi)
            corners[:, 1] -= w[1]
            rows = np.column_stack((corners, (b - a) * w[1]))
            if ix.size:
                parts.append(fill_rows(
                    f'<rect x="%.3f" y="%.3f" width="{w[0]:.3f}" '
                    f'height="%.3f" fill="{color}" fill-opacity="0.6"/>',
                    rows, "\n"))
        elif kind == "polyline":
            pts = np.asarray(layer["data"], dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValueError("emit_plot renders 2D data only")
            if pts.shape[0] >= 2:
                proj = _project(pts, lo, hi)
                # break strokes at window wraps
                jumps = vector_norms(np.diff(proj, axis=0))
                cuts = np.nonzero(jumps > CANVAS / 2)[0]
                start = 0
                pieces = []
                for c in list(cuts) + [proj.shape[0] - 1]:
                    if c + 1 > start + 1:
                        pieces.append(proj[start:c + 1])
                    start = c + 1
                for piece in pieces:
                    d = "M " + fill_rows("%.3f %.3f", piece, " L ")
                    parts.append(f'<path d="{d}" stroke="{color}" '
                                 f'stroke-width="1.5" fill="none"/>')
        elif kind == "cloud":
            pts = np.asarray(layer["data"], dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValueError("emit_plot renders 2D data only")
            if pts.shape[0]:
                parts.append(fill_rows(f'<circle cx="%.3f" cy="%.3f" r="3" '
                                       f'fill="{color}"/>',
                                       _project(pts, lo, hi), "\n"))
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
