"""Discretized phase space: rectangular (optionally toroidal) windows,
uniform dyadic grids and dense box-set algebra.

Boxes are half-open, [lo, hi) along every axis, so box membership is a
partition of the window.  On a periodic axis the upper face wraps onto
the lower one.  Dimension is capped at 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Domain", "Grid", "BoxSet", "GridMismatchError"]

MAX_DIM = 3
MAX_DEPTH = 12


class GridMismatchError(ValueError):
    """Raised when combining box sets that live on different grids."""


@dataclass(frozen=True)
class Domain:
    """Rectangular window in R^n with per-axis periodicity flags."""

    lower: tuple
    upper: tuple
    periodic: tuple

    def __post_init__(self):
        lo = tuple(float(x) for x in self.lower)
        hi = tuple(float(x) for x in self.upper)
        per = tuple(bool(x) for x in self.periodic)
        if not (len(lo) == len(hi) == len(per)):
            raise ValueError("lower, upper, periodic must have equal length")
        if not 1 <= len(lo) <= MAX_DIM:
            raise ValueError(f"dimension must be in [1, {MAX_DIM}]")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("need lower[i] < upper[i] on every axis")
        if not all(math.isfinite(b - a) for a, b in zip(lo, hi)):
            raise ValueError("need a finite width on every axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "periodic", per)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def widths(self) -> np.ndarray:
        return np.asarray(self.upper) - np.asarray(self.lower)

    def wrap(self, points):
        """Wrap points into the window along periodic axes."""
        p = np.atleast_2d(np.asarray(points, dtype=float)).copy()
        lo = np.asarray(self.lower)
        w = self.widths
        for i in range(self.dim):
            if self.periodic[i]:
                p[..., i] = lo[i] + np.mod(p[..., i] - lo[i], w[i])
        return p if np.asarray(points).ndim > 1 else p[0]

    def contains(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        ok = np.ones(p.shape[0], dtype=bool)
        for i in range(self.dim):
            if self.periodic[i]:
                continue
            ok &= (p[:, i] >= lo[i]) & (p[:, i] < hi[i])
        return ok if np.asarray(points).ndim > 1 else bool(ok[0])


@dataclass(frozen=True)
class Grid:
    """Uniform dyadic subdivision of a Domain: 2**depth[i] boxes per axis."""

    domain: Domain
    depth: tuple
    shape: tuple = field(init=False)
    h: np.ndarray = field(init=False, repr=False)
    _nboxes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        depth = tuple(int(d) for d in self.depth)
        if len(depth) != self.domain.dim:
            raise ValueError("depth must have one entry per axis")
        if any(d < 0 or d > MAX_DEPTH for d in depth):
            raise ValueError(f"depth must be in [0, {MAX_DEPTH}]")
        object.__setattr__(self, "depth", depth)
        shape = tuple(1 << d for d in depth)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "h", self.domain.widths / np.asarray(shape))
        object.__setattr__(self, "_nboxes", int(np.prod(shape)))

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def nboxes(self) -> int:
        return self._nboxes

    @property
    def radius(self) -> np.ndarray:
        """Per-axis half-widths of a box."""
        return self.h / 2.0

    @property
    def box_norm_radius(self) -> float:
        """Euclidean radius of a box (half the diameter)."""
        return float(np.linalg.norm(self.radius))

    @property
    def box_diameter(self) -> float:
        return 2.0 * self.box_norm_radius

    # -- index arithmetic ------------------------------------------------

    def box_id(self, multi) -> int:
        return int(np.ravel_multi_index(tuple(int(m) for m in multi), self.shape))

    def multi_index(self, b) -> tuple:
        return tuple(int(i) for i in np.unravel_index(int(b), self.shape))

    def boxes_of_points(self, points) -> np.ndarray:
        """Vectorized point location; -1 marks points outside the window."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.asarray(self.domain.lower)
        idx = np.empty((p.shape[0], self.dim), dtype=np.int64)
        outside = np.zeros(p.shape[0], dtype=bool)
        for i in range(self.dim):
            k = np.floor((p[:, i] - lo[i]) / self.h[i]).astype(np.int64)
            if self.domain.periodic[i]:
                k = np.mod(k, self.shape[i])
            else:
                outside |= (k < 0) | (k >= self.shape[i])
                k = np.clip(k, 0, self.shape[i] - 1)
            idx[:, i] = k
        out = np.ravel_multi_index(tuple(idx[:, i] for i in range(self.dim)), self.shape)
        out = out.astype(np.int64)
        out[outside] = -1
        return out

    def box_of_point(self, p):
        """BoxId containing p after periodic wrapping, or None if outside."""
        b = self.boxes_of_points(np.asarray(p, dtype=float)[None, :])[0]
        return None if b < 0 else int(b)

    def box_geometry(self, b):
        """(center, per-axis radius) of box b."""
        if not 0 <= int(b) < self.nboxes:
            raise IndexError(f"invalid box id {b}")
        m = np.asarray(self.multi_index(b), dtype=float)
        center = np.asarray(self.domain.lower) + (m + 0.5) * self.h
        return center, self.radius.copy()

    def centers(self) -> np.ndarray:
        """Centers of all boxes, shape (nboxes, dim), in BoxId order."""
        axes = [np.asarray(self.domain.lower[i]) + (np.arange(self.shape[i]) + 0.5) * self.h[i]
                for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def box_lower(self, b) -> np.ndarray:
        m = np.asarray(self.multi_index(b), dtype=float)
        return np.asarray(self.domain.lower) + m * self.h


def _morph(a: np.ndarray, periodic: tuple, layers: int, op) -> np.ndarray:
    """Combine each box with its face neighbours by `op`, `layers` times.

    `a` is any array whose leading axes are the grid, one per entry of
    `periodic`: a bool mask, or uint64 words that hold one box set per bit.
    `op` is `np.bitwise_or` (dilate) or `np.bitwise_and` (erode), which on
    bool are the logical ops.  The input is copied once; each layer reads a
    copy of the previous one and writes the shifted slices into the result.
    A periodic axis wraps (np.roll); on a non-periodic one the neighbour
    past the window edge is empty, so an erosion clears the edge slices.
    """
    a = a.copy()
    prev = np.empty_like(a)
    erode = op is np.bitwise_and
    for _ in range(layers):
        prev[...] = a
        for ax, wraps in enumerate(periodic):
            if wraps:
                op(a, np.roll(prev, 1, axis=ax), out=a)
                op(a, np.roll(prev, -1, axis=ax), out=a)
                continue
            lo = (slice(None),) * ax + (slice(None, -1),)
            hi = (slice(None),) * ax + (slice(1, None),)
            op(a[hi], prev[lo], out=a[hi])
            op(a[lo], prev[hi], out=a[lo])
            if erode:
                a[(slice(None),) * ax + (0,)] = 0
                a[(slice(None),) * ax + (-1,)] = 0
    return a


class BoxSet:
    """Dense bit vector over the boxes of one grid.

    Mutating methods write in place (single-writer contract); the
    algebra operators return fresh sets.
    """

    __slots__ = ("grid", "bits")

    def __init__(self, grid: Grid, bits: np.ndarray | None = None):
        self.grid = grid
        if bits is None:
            bits = np.zeros(grid.nboxes, dtype=bool)
        else:
            bits = np.asarray(bits, dtype=bool)
            if bits.shape != (grid.nboxes,):
                raise ValueError("bit vector length must equal the box count")
        self.bits = bits

    # -- constructors ----------------------------------------------------

    @classmethod
    def empty(cls, grid: Grid) -> "BoxSet":
        return cls(grid)

    @classmethod
    def full(cls, grid: Grid) -> "BoxSet":
        return cls(grid, np.ones(grid.nboxes, dtype=bool))

    @classmethod
    def from_indices(cls, grid: Grid, indices) -> "BoxSet":
        bits = np.zeros(grid.nboxes, dtype=bool)
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= grid.nboxes:
                raise IndexError("box index out of range")
            bits[idx] = True
        return cls(grid, bits)

    @classmethod
    def from_rle(cls, grid: Grid, runs) -> "BoxSet":
        """Inverse of `rle`.  Every run must be an integer pair
        [start, length] with start >= 0, length >= 1 and
        start + length <= nboxes; anything else raises ValueError."""
        sequence = (list, tuple, np.ndarray)
        if not isinstance(runs, sequence):
            raise ValueError(f"runs must be a list of [start, length] pairs, got {runs!r}")
        bits = np.zeros(grid.nboxes, dtype=bool)
        for run in runs:
            if not (isinstance(run, sequence) and len(run) == 2
                    and all(isinstance(v, (int, np.integer))
                            and not isinstance(v, bool) for v in run)):
                raise ValueError(f"run {run!r} is not a [start, length] integer pair")
            start, length = int(run[0]), int(run[1])
            if start < 0 or length < 1 or start + length > grid.nboxes:
                raise ValueError(f"run {run!r} does not lie within the "
                                 f"{grid.nboxes} boxes")
            bits[start:start + length] = True
        return cls(grid, bits)

    # -- set algebra -----------------------------------------------------

    def _check(self, other: "BoxSet"):
        if other.grid is not self.grid and (
                other.grid.shape != self.grid.shape or other.grid.domain != self.grid.domain):
            raise GridMismatchError("box sets live on different grids")

    def __or__(self, other):
        self._check(other)
        return BoxSet(self.grid, self.bits | other.bits)

    def __and__(self, other):
        self._check(other)
        return BoxSet(self.grid, self.bits & other.bits)

    def __sub__(self, other):
        self._check(other)
        return BoxSet(self.grid, self.bits & ~other.bits)

    def complement(self):
        return BoxSet(self.grid, ~self.bits)

    def __eq__(self, other):
        if not isinstance(other, BoxSet):
            return NotImplemented
        self._check(other)
        return bool(np.array_equal(self.bits, other.bits))

    def __len__(self):
        return int(np.count_nonzero(self.bits))

    def __contains__(self, b):
        return bool(self.bits[int(b)])

    def __bool__(self):
        return bool(self.bits.any())

    def indices(self) -> np.ndarray:
        return np.nonzero(self.bits)[0]

    def copy(self) -> "BoxSet":
        return BoxSet(self.grid, self.bits.copy())

    def add(self, b):
        self.bits[int(b)] = True

    def __repr__(self):
        return f"BoxSet({len(self)}/{self.grid.nboxes} boxes)"

    # -- grid-topology morphology ----------------------------------------

    def dilate(self, layers: int = 1) -> "BoxSet":
        """Grow by face-adjacent boxes, `layers` times."""
        return self._morphed(layers, np.bitwise_or)

    def erode(self, layers: int = 1) -> "BoxSet":
        """Drop members face-adjacent to the complement, `layers` times.

        On a non-periodic axis the window edge counts as complement.
        """
        return self._morphed(layers, np.bitwise_and)

    def _morphed(self, layers: int, op) -> "BoxSet":
        a = _morph(self.bits.reshape(self.grid.shape),
                   self.grid.domain.periodic, layers, op)
        return BoxSet(self.grid, a.ravel())

    def boundary(self) -> "BoxSet":
        """Member boxes adjacent to non-member boxes."""
        return self - self.erode(1)

    def coarsen(self, coarse: Grid) -> "BoxSet":
        """Project onto a coarser grid: a coarse box is set iff any of its
        fine children is set.  Depths must dominate axis-wise."""
        if any(cd > fd for cd, fd in zip(coarse.depth, self.grid.depth)):
            raise ValueError("target grid must be coarser on every axis")
        a = self.bits.reshape(self.grid.shape)
        for ax in range(self.grid.dim):
            factor = self.grid.shape[ax] // coarse.shape[ax]
            if factor > 1:
                newshape = a.shape[:ax] + (coarse.shape[ax], factor) + a.shape[ax + 1:]
                a = a.reshape(newshape).any(axis=ax + 1)
        return BoxSet(coarse, a.ravel())

    # -- sampling and serialization ---------------------------------------

    def sample_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n points uniform over the region covered by the member boxes."""
        idx = self.indices()
        if idx.size == 0:
            raise ValueError("cannot sample from an empty box set")
        pick = idx[rng.integers(0, idx.size, size=n)]
        multi = np.stack(np.unravel_index(pick, self.grid.shape), axis=-1).astype(float)
        u = rng.random((n, self.grid.dim))
        return np.asarray(self.grid.domain.lower) + (multi + u) * self.grid.h

    def rle(self) -> list:
        """Run-length encoding [[start, length], ...] of the sorted indices."""
        idx = self.indices()
        if idx.size == 0:
            return []
        breaks = np.nonzero(np.diff(idx) > 1)[0]
        starts = np.concatenate([[0], breaks + 1])
        ends = np.concatenate([breaks, [idx.size - 1]])
        return [[int(idx[s]), int(idx[e] - idx[s] + 1)] for s, e in zip(starts, ends)]
