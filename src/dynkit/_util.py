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

