"""Epsilon-fattened transition graphs over box grids and everything
chain-recurrent that lives on them: recurrent boxes, chain components,
chain transitivity, nonwandering probes and variable-threshold
(Hurley-style) chain searches.

Construction is an outer approximation: the image of each box center is
fattened per axis by the entrywise Jacobian bound applied to the box
radii plus eps, and all boxes meeting that half-open rectangle become
out-neighbors.  A box whose rectangle leaves a non-periodic window is
flagged as escaping: its lost mass feeds a virtual absorbing sink that is
no node of the graph, so no recurrence statement can see it.

The graph keeps each box's rectangle, a range of box indices per axis,
and no edge list: the set-oriented recurrence computation of Kalies,
Mischaikow & VanderVorst (FoCM 2005) on rectangles.  The image of a box
set is a difference array over the grid and a preimage test a lookup in
a summed-area table of the set (Crow, SIGGRAPH 1984), so the SCC pass's
forward-backward step, the degrees and the self-loops never read an
edge.  The CSR is a cache written from the ranges on first use, and its
transpose one written from the CSR; no other module reads them.

Every reachability search runs through one layer loop, `_search`, with
a bool or a uint64 word (one box set per bit) per box as its marks and a
layer step on the cover ranges (`_cover_search`) or on the edges
(`_edge_expand`, the CSR or its transpose).  The chain search's BFS
(`_bfs_path`) keeps its own loop, with parents in queue order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from ._util import vector_norms
from .phase_space import MAX_DEPTH, BoxSet, Grid
from .system import MapSpec, evaluate

__all__ = [
    "TransitionGraph", "ChainComponent", "EpsChain",
    "ConstantEps", "RadialEps",
    "build_graph", "chain_recurrent_boxes", "chain_components",
    "is_chain_transitive", "nonwandering_probe", "strong_chain_search",
    "fixed_point_chain",
    "NonwanderingResult", "MAX_NBOXES",
]

# caps the grid: at ~42 edges per box (cat, eps one box diameter) 2^26
# boxes already mean 2.8 G edges once the CSR is written.  Targets, the
# corner indices of the cover queries and their counts are int32, and the
# transpose packs `target << 32 | source` into one int64 key above 2^16
# boxes, which needs nboxes < 2**31
MAX_NBOXES = 1 << 26
# the cover is int16: a range's start + length stays below twice its axis
if 2 << MAX_DEPTH > np.iinfo(np.int16).max + 1:
    raise RuntimeError(f"phase_space.MAX_DEPTH {MAX_DEPTH} overflows the "
                       f"int16 cover ranges; widen TransitionGraph.cover")
# up to this many nodes the transpose packs `target << 16 | source` into
# uint32 keys
_NARROW_NODES = 1 << 16
# edges per chunk: of the rows the CSR build writes and the dump and the
# transpose read, and of the frontier slices that the edge searches expand
_CHUNK_EDGES = 1 << 18
# boxes per block: of the graph build (centers, spreads, images and
# ranges) and of the cover queries' pieces and corners
_CHUNK_BOXES = 1 << 13
# a row (a slab along axis 0) of at least this many boxes is prefix-summed
# by a loop of row adds: `np.add.accumulate` along axis 0 walks it with a
# stride, about 20x slower on a 4096^2 grid, and faster below this size
_ROW_LOOP_BOXES = 1 << 10
# pieces per slice of a backward cover layer's table lookups: a slice's
# sums stay in cache, which halved the layer's time on 1 M boxes
_CHUNK_PIECES = 1 << 16


@dataclass
class TransitionGraph:
    """Digraph on BoxIds: one cover rectangle and one escape flag per box.

    `cover` is (start, length), int16 arrays of shape (dim, nboxes): box
    b steps to every box whose index on each axis a lies in the
    `length[a, b]` indices from `start[a, b]` on, mod the axis on a
    periodic one; length 0 on every axis means no box.  `escapes[b]` says
    that b's image rectangle leaves the window: b also steps to a virtual
    absorbing sink, which is no node.  A box with no out-edge escapes.
    So the graph holds 4 dim + 1 bytes per box, 9 on a 2-D grid.  int16
    is exact, as an axis has at most 2^MAX_DEPTH boxes and start + length
    stays below twice that; a product or a stride of the ranges widens
    them first (`_box_degrees`, `_piece_corners`, `_materialize_edges`).

    Degrees, self-loops and the SCC pass's forward-backward step read the
    cover.  `offsets` and `targets`, the CSR (rows ascending, offsets
    int64, targets int32), are written from it on first access, by
    Tarjan's pass outside the pivot's component, `image_boxes`, the
    set closures (`closure`, `closure_rows`), `_bfs_path`, `edge_chunks`
    and `reverse()`; the backward closures and `entered_planes` read the
    transpose.  The `graph` report's counts and its edge dump list the
    sink as node nboxes: one edge per escaping box, then the sink's
    self-loop.  The SCC labels, the self-loop mask, the CSR and its
    transpose are cached, so all recurrence queries share one SCC pass.
    """

    grid: Grid
    map_spec: MapSpec
    eps: float
    escapes: np.ndarray
    lipschitz_used: float
    cover: tuple = field(repr=False)
    _csr: Optional[tuple] = field(default=None, repr=False)
    _reverse: Optional[tuple] = field(default=None, repr=False)
    _self_loops: Optional[np.ndarray] = field(default=None, repr=False)
    _labels: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def nboxes(self) -> int:
        return self.grid.nboxes

    def _edges(self) -> tuple:
        """(offsets, targets) of the CSR, written from the cover once."""
        if self._csr is None:
            self._csr = _materialize_edges(self.grid, *self.cover)
        return self._csr

    @property
    def offsets(self) -> np.ndarray:
        return self._edges()[0]

    @property
    def targets(self) -> np.ndarray:
        return self._edges()[1]

    def _box_degrees(self) -> np.ndarray:
        """Out-degree of every box in the box graph, int64."""
        return self.cover[1].prod(axis=0, dtype=np.int64)

    @property
    def n_edges(self) -> int:
        """Edges as the `graph` report counts them: the box edges, one
        edge to the sink per escaping box and the sink's self-loop."""
        return int(self._box_degrees().sum()) + self.escaping_boxes() + 1

    def out(self, node: int) -> np.ndarray:
        return self.targets[self.offsets[node]:self.offsets[node + 1]]

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every box, its sink edge included."""
        return self._box_degrees() + self.escapes

    def escaping_boxes(self) -> int:
        return int(np.count_nonzero(self.escapes))

    def edge_chunks(self):
        """(sources, targets) of every edge, the sink's included, a chunk
        of rows of about `_CHUNK_EDGES` box edges at a time: each box's
        row, then its edge to the sink, node nboxes, if it escapes, and
        last the sink's self-loop."""
        sink = self.nboxes
        offsets, targets = self._edges()
        for b0, b1 in _row_chunks(offsets, sink):
            src = np.repeat(np.arange(b0, b1), np.diff(offsets[b0:b1 + 1]))
            tgt = targets[offsets[b0]:offsets[b1]]
            esc = np.flatnonzero(self.escapes[b0:b1])
            at = offsets[b0 + 1 + esc] - offsets[b0]
            yield np.insert(src, at, b0 + esc), np.insert(tgt, at, sink)
        yield np.array([sink]), np.array([sink])

    def self_loop_mask(self) -> np.ndarray:
        """Boolean per box: the box is its own out-neighbor."""
        if self._self_loops is None:
            self._self_loops = _cover_self_loops(self.grid, *self.cover)
        return self._self_loops

    def scc_labels(self) -> np.ndarray:
        """SCC label of every box, cached: `_scc` with the pivot's
        forward-backward step searching the cover ranges."""
        if self._labels is None:
            degrees = self._box_degrees()
            n_edges = int(degrees.sum())
            # score out-degree x in-degree; the searches run with the
            # per-box scores freed
            degrees *= _cover_counts(self)
            pivot = int(np.argmax(degrees))
            del degrees
            self._labels = _scc(self.nboxes, n_edges, pivot,
                                partial(_cover_search, self), self._edges)
        return self._labels

    def image_boxes(self, boxset: BoxSet) -> BoxSet:
        """One application of the multivalued box map (escapes dropped)."""
        bits = np.zeros(self.nboxes, dtype=bool)
        _edge_expand(*self._edges())(boxset.indices(), bits, None)
        return BoxSet(self.grid, bits)

    def set_escapes(self, boxset: BoxSet) -> bool:
        """True iff some member escapes the window."""
        return bool(np.any(self.escapes[boxset.bits]))

    def reverse(self) -> tuple:
        """(offsets, targets) of the transposed graph, cached."""
        if self._reverse is None:
            self._reverse = _transpose(self.offsets, self.targets, self.nboxes)
        return self._reverse

    def closure(self, marks: np.ndarray, seen: np.ndarray | None = None,
                backward: bool = False) -> np.ndarray:
        """The boxes reachable from the marked ones, marks included, or
        with `backward` the boxes that reach them: `_search` along the
        edges or on the transpose, with its bool or uint64 word marks and
        its `seen` (grown in place and returned)."""
        edges = self.reverse() if backward else self._edges()
        return _search(_edge_expand(*edges), marks, seen)

    def closure_rows(self, rows: np.ndarray,
                     backward: bool = False) -> np.ndarray:
        """`closure` of every row of the (k, nboxes) bool array `rows`, as
        a (k, nboxes) bool array: 64 rows per search, as the bits of one
        word per box.  With no row no edge is read."""
        closed = np.empty(rows.shape, dtype=bool)
        for a in range(0, rows.shape[0], 64):
            part = slice(a, a + 64)
            words = self.closure(_pack_planes(rows[part]), backward=backward)
            closed[part] = _unpack_planes(words, closed[part].shape[0])
        return closed

    def entered_planes(self, boxes: np.ndarray, sets: np.ndarray) -> int:
        """Bit f is set iff an edge runs from a box of set f of `sets` into
        a box of set f of `boxes`, both uint64 words per box (bit f: set
        f).  A gather over the in-edges of the boxes with a nonzero word,
        a slice of the transpose at a time."""
        at = np.flatnonzero(boxes)
        if not at.size:
            return 0
        entered = np.uint64(0)
        for rows, counts, sources in _frontier_slices(*self.reverse(), at):
            pulled = np.repeat(boxes[at[rows]], counts)
            pulled &= sets[sources]
            entered |= np.bitwise_or.reduce(pulled)
        return int(entered)


@dataclass
class ChainComponent:
    """One chain component at fixed resolution: a nontrivial SCC."""

    id: int
    boxes: BoxSet


@dataclass
class EpsChain:
    """Finite chain x_0..x_n with per-step jump bounds, revalidated on build."""

    points: np.ndarray
    eps: float
    thresholds: np.ndarray
    defects: np.ndarray

    def __len__(self):
        return self.points.shape[0] - 1


class ConstantEps:
    """Constant threshold function eps(x) = c."""

    def __init__(self, c: float):
        if c <= 0:
            raise ValueError("threshold must be positive")
        self.c = float(c)

    def __call__(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.full(p.shape[0], self.c)
        return out if np.asarray(points).ndim > 1 else float(out[0])

    def min_over_rects(self, lo, hi):
        lo = np.atleast_2d(lo)
        return np.full(lo.shape[0], self.c)


class RadialEps:
    """Threshold eps(x) = c / (1 + |x|), decaying away from the origin."""

    def __init__(self, c: float):
        if c <= 0:
            raise ValueError("threshold must be positive")
        self.c = float(c)

    def __call__(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        out = self.c / (1.0 + vector_norms(p))
        return out if np.asarray(points).ndim > 1 else float(out[0])

    def min_over_rects(self, lo, hi):
        # smallest value sits at the rectangle corner farthest from 0
        lo = np.atleast_2d(np.asarray(lo, dtype=float))
        hi = np.atleast_2d(np.asarray(hi, dtype=float))
        far = np.maximum(np.abs(lo), np.abs(hi))
        return self.c / (1.0 + vector_norms(far))


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

def _box_spreads(grid: Grid, map_spec: MapSpec, centers: np.ndarray):
    """(spread, lipschitz): per-box per-axis image half-widths from entrywise
    Jacobian bounds, plus a scalar Lipschitz bound for slack formulas: the
    largest spectral norm of the per-box bounds, rounded up, the map's
    only Lipschitz number.  `centers` are the grid's box centers.

    Sound: |f(x)_a - f(c)_a| <= sum_b |J_ab|_max r_b over the box, and
    ||J(x)||_2 <= ||(|J_ab|_max)||_2 for every x in it.  The SVD is backward
    stable: its largest singular value of a k x k bound is within a small
    multiple of k units of roundoff of the exact one, on either side (a
    bound whose largest entry is 1.0 gave 1 - 2**-53).  So it is raised by
    2k machine epsilons, then one ulp for the rounding of that product.
    """
    B = np.asarray(map_spec.jac_abs_bound(centers - grid.radius,
                                          centers + grid.radius))
    spread = np.einsum("nab,b->na", B, grid.radius)
    # one SVD per distinct bound: a single one for a constant bound (the
    # affine and standard maps); else the rows are deduplicated by a sort
    # (np.unique(axis=0) imports numpy.ma)
    flat = B.reshape(B.shape[0], -1)
    if (flat == flat[0]).all():
        flat = flat[:1]
    else:
        flat = flat[np.lexsort(flat.T)]
        flat = flat[np.append(True, np.any(flat[1:] != flat[:-1], axis=1))]
    norm = np.max(np.linalg.norm(flat.reshape(-1, *B.shape[1:]),
                                 ord=2, axis=(1, 2)))
    pad = 1.0 + 2 * grid.dim * np.finfo(float).eps
    return spread, float(np.nextafter(norm * pad, np.inf))


def _cover_ranges(grid: Grid, lo_f: np.ndarray, hi_f: np.ndarray):
    """Index ranges of the boxes meeting the half-open rects [lo_f, hi_f).

    Returns (start, length, escapes): per axis and row, int16 arrays of
    shape (dim, n), the range's first box index taken mod the axis and
    the number of boxes it spans, then a bool per row: 4 dim + 1 bytes
    per row, the bytes per box a `TransitionGraph` holds.  The top index
    excludes rectangles whose upper face only touches a box boundary.  A
    periodic range that spans its axis becomes the whole axis, from 0.
    On non-periodic axes the ranges are clamped, `escapes` marks rows
    whose rectangle leaves the window, and a row with nothing inside it
    gets length 0 on every axis.  Indices stay floats until they are
    clamped or reduced, so a finite rectangle past the int64 range keeps
    its edges.
    """
    n = lo_f.shape[0]
    start = np.empty((grid.dim, n), dtype=np.int16)
    length = np.empty_like(start)
    escapes = np.zeros(n, dtype=bool)
    empty = np.zeros(n, dtype=bool)
    # per axis: numpy broadcasts a row of per-axis constants slowly
    for ax, (lower, size) in enumerate(zip(grid.domain.lower, grid.shape)):
        lo = np.floor((lo_f[:, ax] - lower) / grid.h[ax])
        hi = np.ceil((hi_f[:, ax] - lower) / grid.h[ax]) - 1
        hi = np.maximum(hi, lo)  # the top face is open
        if grid.domain.periodic[ax]:
            full = hi - lo >= size - 1
            lo, hi = np.where(full, 0, lo), np.where(full, size - 1, hi)
            start[ax] = lo % size
        else:
            escapes |= (lo < 0) | (hi >= size)
            empty |= (hi < 0) | (lo >= size)
            lo, hi = np.clip(lo, 0, size - 1), np.clip(hi, 0, size - 1)
            start[ax] = lo
        length[ax] = hi - lo + 1
    length[:, empty] = 0
    return start, length, escapes


def _row_chunks(offsets: np.ndarray, rows: int):
    """(b0, b1) ranges of at least one row and about `_CHUNK_EDGES` edges
    each; they cover rows [0, rows), even when those hold no edge."""
    marks = np.arange(0, max(offsets[rows], 1), _CHUNK_EDGES)
    cuts = np.append(np.searchsorted(offsets[:rows + 1], marks), rows)
    bounds = cuts[np.append(True, cuts[1:] != cuts[:-1])].tolist()
    return zip(bounds[:-1], bounds[1:])


def _transpose(offsets: np.ndarray, targets: np.ndarray, n: int):
    """(offsets, targets) of the transposed CSR of an n-node graph with
    ascending distinct rows: each node's in-edges by ascending source,
    targets int32.

    One in-place sort of `target << b | source` keys.  The keys are
    distinct, so they sort into the (target, source) order that a stable
    argsort of the targets gives, in less than half its time.

    Up to `_NARROW_NODES` nodes the keys are uint32 with b = 16, masked
    to their sources in place after the sort, so the key buffer becomes
    the transposed targets: 4 bytes per edge.  Larger graphs use int64
    keys with b = 32; the int32 sources are written over the front of the
    key buffer, which is cut to that half, so they peak at 8 bytes per
    edge.
    """
    narrow = n <= _NARROW_NODES
    b, dtype = (16, np.uint32) if narrow else (32, np.int64)
    keys = np.empty(targets.size, dtype=dtype)
    for b0, b1 in _row_chunks(offsets, n):
        a, z = offsets[b0], offsets[b1]
        np.left_shift(targets[a:z], b, out=keys[a:z], dtype=dtype,
                      casting="unsafe")
        np.bitwise_or(keys[a:z], np.repeat(np.arange(b0, b1, dtype=dtype),
                                           np.diff(offsets[b0:b1 + 1])),
                      out=keys[a:z])
    if narrow:
        keys.sort()
        roff = np.append(np.searchsorted(
            keys, np.arange(n, dtype=np.uint32) << 16), keys.size)
        keys &= 0xFFFF
        return roff, keys.view(np.int32)
    keys.sort()
    roff = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) << 32)
    # int32 slot i lies in int64 slot i // 2, so a chunk only overwrites
    # keys it has already read; no view of `keys` outlives the loop, so
    # the buffer may be cut
    for a in range(0, keys.size, _CHUNK_EDGES):
        z = min(a + _CHUNK_EDGES, keys.size)
        keys.view(np.int32)[a:z] = keys[a:z] & 0xFFFFFFFF
    keys.resize((keys.size + 1) // 2, refcheck=False)
    return roff, keys.view(np.int32)[:targets.size]


def _materialize_edges(grid: Grid, start: np.ndarray, length: np.ndarray):
    """CSR (offsets, targets) of the cover (start, length) of a
    `TransitionGraph`, sorted per source; offsets int64, targets int32.

    On each axis a box's range is the ascending runs [0, w) and [lo, lo +
    c - w) (lo: its start, c: its length, w: the part past the top), and
    a row-major product of ascending lists ascends.  So rows are written
    in order, `_CHUNK_EDGES` edges at a time: one base per (box,
    outer-axis prefix), then runs of consecutive last-axis targets.
    Edges are distinct as a periodic range is shorter than its axis or all
    of it, and a strict-increase check within each row guards that
    argument.
    """
    shape = np.asarray(grid.shape, dtype=np.int64)
    strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)
    lo, counts = start.T, length.T
    wrap = np.maximum(lo + counts - shape, 0)
    offsets = np.zeros(grid.nboxes + 1, dtype=np.int64)
    np.cumsum(counts.prod(axis=1), out=offsets[1:])
    targets = np.empty(int(offsets[-1]), dtype=np.int32)
    for b0, b1 in _row_chunks(offsets, grid.nboxes):
        own, base = np.arange(b0, b1), np.zeros(b1 - b0, dtype=np.int64)
        for ax in range(grid.dim - 1):
            c = counts[own, ax]
            own, base = np.repeat(own, c), np.repeat(base, c)
            k = np.arange(own.size) - np.repeat(np.cumsum(c) - c, c)
            w = wrap[own, ax]
            base += (k + (k >= w) * (lo[own, ax] - w)) * strides[ax]
        # per prefix the last axis's runs [0, w) and [lo, lo + c - w)
        w = wrap[own, -1]
        starts = np.column_stack((base, base + lo[own, -1])).ravel()
        lens = np.column_stack((w, counts[own, -1] - w)).ravel()
        seg = targets[offsets[b0]:offsets[b1]]
        np.add(np.repeat(starts - np.cumsum(lens) + lens, lens),
               np.arange(seg.size), out=seg)
        rising = np.append(seg[1:] > seg[:-1], True)
        rising[offsets[b0 + 1:b1 + 1] - offsets[b0] - 1] = True  # row ends
        if not rising.all():
            raise RuntimeError("transition graph edges are not distinct")
    return offsets, targets


def build_graph(grid: Grid, map_spec: MapSpec, eps: float,
                eps_fn=None) -> TransitionGraph:
    """Outer approximation of the eps-fattened map on the grid's boxes.

    With `eps_fn` set, the per-box fattening uses the minimum of the
    threshold function over the (Lipschitz-fattened) image rectangle
    instead of the constant eps, a sound under-approximation of Hurley
    eps(x)-jumps.  The map must carry `jac_abs_bound`, as every map of
    `make_map` and `polynomial_map` does; a map without one raises
    ValueError.

    The boxes go through the centers, spreads, images and ranges in
    blocks of `_CHUNK_BOXES`, each written into the preallocated cover,
    so the build holds the graph plus one block's temporaries.  The
    blocks' Lipschitz bounds are each `nextafter(norm * pad)` of their
    largest norm, a monotone map, so their maximum is the whole grid's.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if map_spec.dim != grid.dim:
        raise ValueError("map dimension does not match the grid")
    if grid.nboxes > MAX_NBOXES:
        raise ValueError(f"grid has {grid.nboxes} boxes; the transition "
                         f"graph holds at most {MAX_NBOXES}")
    if map_spec.jac_abs_bound is None:
        raise ValueError(f"map {map_spec.name!r} has no entrywise Jacobian "
                         f"bound (jac_abs_bound)")
    n = grid.nboxes
    start = np.empty((grid.dim, n), dtype=np.int16)
    length = np.empty_like(start)
    escapes = np.empty(n, dtype=bool)
    lip_used = 0.0
    for b0 in range(0, n, _CHUNK_BOXES):
        b1 = min(b0 + _CHUNK_BOXES, n)
        centers = grid.centers(b0, b1)
        spread, lip = _box_spreads(grid, map_spec, centers)
        lip_used = max(lip_used, lip)
        images = evaluate(map_spec, centers)
        if map_spec.periods is not None:
            # keep images in the grid window's coordinates
            images = grid.domain.wrap(images)
        if eps_fn is not None:
            spread += np.asarray(eps_fn.min_over_rects(
                images - spread, images + spread))[:, None]
        else:
            spread += eps
        lo_f = images - spread
        hi_f = np.add(images, spread, out=images)
        if not (np.isfinite(lo_f).all() and np.isfinite(hi_f).all()):
            raise ValueError(f"map {map_spec.name!r} has a non-finite image "
                             f"rectangle on this grid")
        start[:, b0:b1], length[:, b0:b1], escapes[b0:b1] = \
            _cover_ranges(grid, lo_f, hi_f)
    return TransitionGraph(grid, map_spec, float(eps), escapes, lip_used,
                           cover=(start, length))


# ---------------------------------------------------------------------------
# queries on the cover ranges
# ---------------------------------------------------------------------------

def _cover_self_loops(grid: Grid, start: np.ndarray,
                      length: np.ndarray) -> np.ndarray:
    """Boolean per box: its own index lies in its range on every axis.

    On a periodic axis the range is [start, start + length) mod the axis;
    on another it does not pass the top, so there the same test holds.
    The offsets own - start lie in (-size, size), so they stay in the
    cover's dtype."""
    shape = grid.shape
    mask = np.ones(shape, dtype=bool)
    for ax, size in enumerate(shape):
        own = np.arange(size, dtype=start.dtype).reshape(
            (-1,) + (1,) * (grid.dim - 1 - ax))
        off = own - start[ax].reshape(shape)
        off %= size
        mask &= off < length[ax].reshape(shape)
    return mask.ravel()


def _piece_corners(g: TransitionGraph, boxes: np.ndarray, shift: int):
    """(owner, corners) of the cover ranges of `boxes` cut into pieces.

    A range that runs past the top of its periodic axis is cut there into
    [start, size) and [0, start + length - size), so a box has up to 2^dim
    pieces, each a product of per-axis runs [lo, hi); owner[i] is the box
    of piece i.  `corners` lists (even, index) per corner of the pieces:
    corner c takes on axis a the piece's hi if bit a of c is set, else its
    lo, each minus `shift`, and `even` says that it takes the hi on an
    even number of axes.  `index` is the corner's BoxId, or nboxes when it
    lies off the grid on some axis.  `owner` and every `index` are int32.
    A run's hi stays below twice its axis, so the int16 ranges sum
    exactly; they widen before their strides multiply in.
    """
    start, length = g.cover
    shape = g.grid.shape
    owner = boxes.astype(np.int32)
    runs = []
    for ax, size in enumerate(shape):
        lo = start[ax, owner]
        hi = lo + length[ax, owner]
        wrap = np.flatnonzero(hi > size)
        if wrap.size:
            owner = np.concatenate((owner, owner[wrap]))
            runs = [[np.concatenate((r, r[wrap])) for r in pair]
                    for pair in runs]
            lo = np.concatenate((lo, np.zeros(wrap.size, dtype=lo.dtype)))
            hi = np.concatenate((np.minimum(hi, size), hi[wrap] - size))
        runs.append([lo, hi])
    # per axis: (term, off-grid flag) of the lo side and of the hi side
    stride, sides = g.nboxes, []
    for (lo, hi), size in zip(runs, shape):
        stride //= size
        sides.append([((c - shift).astype(np.int32) * stride,
                       (c < shift) | (c >= size + shift)) for c in (lo, hi)])
    corners = []
    for bits in itertools.product((0, 1), repeat=len(shape)):
        index = sum(side[bit][0] for side, bit in zip(sides, bits))
        off = np.logical_or.reduce([side[bit][1]
                                    for side, bit in zip(sides, bits)])
        index[off] = g.nboxes
        corners.append((sum(bits) % 2 == 0, index))
    return owner, corners


def _cover_counts(g: TransitionGraph,
                  boxes: np.ndarray | None = None) -> np.ndarray:
    """How many rectangles of `boxes` (BoxIds; None: every box) hold each
    box, int32 per box.

    A difference array over the grid: each piece adds 1 at its lo corner
    and +-1 at its other corners, then a prefix sum along every axis.
    The corners are added one block of `_CHUNK_BOXES` boxes at a time,
    by `np.add.at` and `np.subtract.at` into one int32 array (with an
    int32 array of ones: a scalar takes a path about 25x slower), so no
    temporary grows with `boxes`.  Corners at the top of an axis fall past
    the grid, into a last slot that is dropped.  int32 sums wrap mod
    2^32, which leaves the counts, all in [0, nboxes], exact."""
    n = g.nboxes
    total = n if boxes is None else boxes.size
    diff = np.zeros(n + 1, dtype=np.int32)
    ones = np.ones(min(total, _CHUNK_BOXES) << g.grid.dim, dtype=np.int32)
    for b0 in range(0, total, _CHUNK_BOXES):
        b1 = min(b0 + _CHUNK_BOXES, total)
        block = np.arange(b0, b1) if boxes is None else boxes[b0:b1]
        for even, index in _piece_corners(g, block, 0)[1]:
            (np.add if even else np.subtract).at(diff, index,
                                                 ones[:index.size])
    return _sum_axes(diff[:n], g.grid.shape)


def _sum_axes(values: np.ndarray, shape: tuple) -> np.ndarray:
    """Prefix sums of an int32 per box along every axis of the grid, in
    place; returns `values`.  Axis 0 is a loop of row adds once a row
    holds `_ROW_LOOP_BOXES` boxes, the other axes `np.add.accumulate`."""
    cube = values.reshape(shape)
    for ax in range(len(shape)):
        if ax == 0 and values.size >= _ROW_LOOP_BOXES * shape[0]:
            for i in range(1, shape[0]):
                np.add(cube[i], cube[i - 1], out=cube[i])
        else:
            np.add.accumulate(cube, axis=ax, out=cube)
    return values


def _unseen_pieces(g: TransitionGraph, seen: np.ndarray):
    """`_piece_corners` (shift 1) of the boxes not in `seen`, built one
    block of `_CHUNK_BOXES` boxes at a time and joined one array at a
    time, so the build holds the int32 pieces plus one array's copy."""
    columns = [[] for _ in range(1 + (1 << g.grid.dim))]
    for b0 in range(0, g.nboxes, _CHUNK_BOXES):
        block = b0 + np.flatnonzero(~seen[b0:b0 + _CHUNK_BOXES])
        owner, corners = _piece_corners(g, block, 1)
        for column, part in zip(columns, [owner] + [i for _, i in corners]):
            column.append(part)
    joined = []
    for column in columns:
        joined.append(np.concatenate(column))
        column.clear()
    return joined[0], [(even, index)
                       for (even, _), index in zip(corners, joined[1:])]


def _cover_search(g: TransitionGraph, seeds: np.ndarray,
                  seen: np.ndarray | None = None,
                  max_layers: int | None = None,
                  backward: bool = False) -> np.ndarray | None:
    """`_search` on the cover of g, bool marks only: the boxes reachable
    from `seeds`, or with `backward` the boxes that reach them, with
    `_search`'s `seen` and `max_layers`, and no edge read.

    A forward layer marks the boxes that the frontier's rectangles hold
    (`_cover_counts`).  A backward layer tests the rectangle of every box
    not in `seen` against a summed-area table of the frontier, 2^dim
    lookups per piece (the preimage test of a rectangle), gathered with
    `np.take` (about 2x faster than an int32 fancy index).  So a backward
    search restricted by `seen` to a set F costs O(|F|) per layer and
    holds 4 (1 + 2^dim) bytes per piece of F.
    """
    if backward:
        owner = corners = None
        stale = 0

        def expand(frontier, mark, seen):
            # the pieces of the boxes not seen before the first layer; a
            # seen box's hit is dropped by `_search`, so the pieces of the
            # boxes found since are cut out once they are half of them,
            # one array at a time, and all cuts cost O(|F|) in total
            nonlocal owner, corners, stale
            if owner is None:
                owner, corners = _unseen_pieces(g, seen)
            stale += frontier.size
            if 2 * stale > owner.size:
                keep = ~np.take(seen, owner)
                owner = owner[keep]
                for i, (even, index) in enumerate(corners):
                    corners[i] = (even, index[keep])
                stale = 0
            # summed-area table of the frontier, `mark`: entry b counts
            # its boxes at or below b on every axis; entry nboxes is 0
            table = np.zeros(g.nboxes + 1, dtype=np.int32)
            table[:-1] = mark
            _sum_axes(table[:-1], g.grid.shape)
            for a in range(0, owner.size, _CHUNK_PIECES):
                part = slice(a, a + _CHUNK_PIECES)
                total = np.zeros(owner[part].size, dtype=np.int32)
                for even, index in corners:
                    # a rectangle's sum takes its corners with the sign
                    # (-1)^(number of los); up to the sign (-1)^dim it is
                    # this
                    (np.add if even else np.subtract)(
                        total, np.take(table, index[part]), out=total)
                mark[owner[part][total != 0]] = True
    else:
        def expand(frontier, mark, seen):
            mark |= _cover_counts(g, frontier) > 0
    return _search(expand, seeds, seen, max_layers)


# ---------------------------------------------------------------------------
# strongly connected components (forward-backward step, then Tarjan)
# ---------------------------------------------------------------------------

def _fb_max_layers(n_edges: int, n_nodes: int) -> int:
    """Layers a forward-backward search from the pivot may take.

    The price is that of a search along the CSR edges, which only the
    tests run, driving `_scc` on a CSR: a layer costs about 10 us plus
    0.25 ns per node (its passes over the n-node masks) on top of its
    edges; the Tarjan loop below costs about 0.1 us per edge plus 0.5 us
    per node (2-core x86-64 VM).  So (n_edges + 5 n_nodes) // (100 +
    n_nodes // 400) layers cost about one Tarjan run.  A search that
    needs more is dropped and Tarjan takes the whole graph: a
    long-diameter graph (a circle rotation, a near-integrable standard
    map) then pays at most about one Tarjan run on top of Tarjan alone,
    and the step stays O(V + E).  Every `TransitionGraph` searches its
    cover ranges, and there a layer costs every box of the grid: about
    7-11 ns per box forward and 14-28 ns backward (standard K = 0.97 at
    depths 9 and 10, cat at depth 11; the backward figure includes its
    one piece build).  A Tarjan run of such a graph costs about 4.5 us
    per box (some 40 edges each), so a search that runs to the cap there
    can cost tens of Tarjan runs.
    """
    return max(32, (n_edges + 5 * n_nodes) // (100 + n_nodes // 400))


def _scc(n: int, n_edges: int, pivot: int, search, csr) -> np.ndarray:
    """SCC label of every node of an n-node digraph: one forward-backward
    step, then Tarjan.  Labels follow reverse topological order of the
    condensation (sources get the largest labels), from 0 on.

    No graph is attached: `TransitionGraph.scc_labels` passes the search
    on its cover, and the tests pass `_search` along a CSR and its
    transpose.  `pivot` is a node: `scc_labels` takes the first of
    largest out-degree x in-degree.  Its component S = F & B (F: reachable
    from the pivot, B: reaching it) is found by `search(seeds, seen,
    max_layers, backward)`, a `_search` on the graph: F, then B
    restricted to F by `seen`, as a path from a node of F stays in F.  On
    a chain-transitive torus graph S is every node, and the labels are
    returned at once.  Else `csr()` gives the CSR that Tarjan walks:
    F \\ B is forward-closed and cannot reach S, so Tarjan labels it first
    (roots in node order), S takes the next label, and Tarjan then runs
    from the roots outside F in node order; the completed nodes of F are
    skipped as edge targets.  When F or B needs more than
    `_fb_max_layers` layers, F and S are taken as empty: the two Tarjan
    calls then run every root in node order.
    """
    seeds = np.zeros(n, dtype=bool)
    seeds[pivot] = True
    cap = _fb_max_layers(n_edges, n)
    fwd = search(seeds, max_layers=cap)
    back = None if fwd is None else \
        search(seeds, seen=~fwd, max_layers=cap, backward=True)
    if back is None:
        fwd = core = np.zeros(n, dtype=bool)
    else:
        core = back & fwd
    if core.all():
        return np.zeros(n, dtype=np.int64)
    off, tgt = csr()
    labels = np.full(n, -1, dtype=np.int64)
    index = np.where(core, 0, -1).tolist()
    k = _tarjan(off, tgt, np.flatnonzero(fwd & ~core).tolist(), index, labels, 0)
    _tarjan(off, tgt, np.flatnonzero(~fwd).tolist(), index, labels,
            k + int(core.any()))
    labels[core] = k
    return labels


def _tarjan(off: np.ndarray, tgt: np.ndarray, roots, index: list,
            labels: np.ndarray, n_comp: int) -> int:
    """Iterative Tarjan from each root in `roots` not yet visited.

    Nodes with index >= 0 are completed and their edges skipped; new
    components take labels n_comp, n_comp + 1, ...  Returns the next free
    label.  Edges are walked in CSR order.  The CSR is read and the
    int64 `labels` written through memoryviews, and the per-node state is
    kept in lists, so the inner loop touches Python ints only.
    """
    off = memoryview(off)
    tgt = memoryview(tgt)
    labels = memoryview(labels)
    n = len(index)
    lowlink = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    counter = 0

    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        # work stack entries: (node, next edge position)
        work = [(root, off[root])]
        while work:
            v, ptr = work[-1]
            end = off[v + 1]
            while ptr < end:
                w = tgt[ptr]
                ptr += 1
                if index[w] < 0:
                    work[-1] = (v, ptr)
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, off[w]))
                    break
                if on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if lowlink[v] < lowlink[u]:
                        lowlink[u] = lowlink[v]
                if lowlink[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        labels[w] = n_comp
                        if w == v:
                            break
                    n_comp += 1
    return n_comp


def _recurrent_bits(g: TransitionGraph) -> np.ndarray:
    """Boxes in a nontrivial SCC: size > 1, or a self-looped box."""
    labels = g.scc_labels()
    return (np.bincount(labels) > 1)[labels] | g.self_loop_mask()


def nontrivial_scc_sets(g: TransitionGraph) -> list[BoxSet]:
    """Box sets of the nontrivial SCCs (size > 1, or a self-looped box),
    ordered by smallest member BoxId."""
    members = np.flatnonzero(_recurrent_bits(g))
    if members.size == 0:
        return []
    labels = g.scc_labels()[members]
    # a stable sort keeps each component's members ascending
    order = np.argsort(labels, kind="stable")
    members, labels = members[order], labels[order]
    groups = np.split(members, np.flatnonzero(np.diff(labels)) + 1)
    groups.sort(key=lambda m: int(m[0]))
    sets = []
    for m in groups:
        bits = np.zeros(g.nboxes, dtype=bool)
        bits[m] = True
        sets.append(BoxSet(g.grid, bits))
    return sets


def chain_recurrent_boxes(g: TransitionGraph) -> BoxSet:
    """Boxes on a directed cycle at this resolution."""
    return BoxSet(g.grid, _recurrent_bits(g))


def chain_components(g: TransitionGraph) -> list[ChainComponent]:
    """SCC partition of the chain recurrent boxes, ordered by smallest member."""
    return [ChainComponent(i, boxes)
            for i, boxes in enumerate(nontrivial_scc_sets(g))]


def is_chain_transitive(g: TransitionGraph) -> bool:
    """True iff the box graph is strongly connected."""
    labels = g.scc_labels()
    return bool(np.all(labels == labels[0]))


# ---------------------------------------------------------------------------
# graph searches
# ---------------------------------------------------------------------------

def _search(expand, seeds: np.ndarray, seen: np.ndarray | None = None,
            max_layers: int | None = None) -> np.ndarray | None:
    """The marks reachable from `seeds` under the layer step `expand`,
    seeds included; the one layer loop of every reachability search.

    `seeds` holds one mark per node: a bool, or a uint64 word whose bit f
    marks node set f (a plane).  All planes advance in lockstep (the
    multi-source traversal of Then et al., VLDB 2014), and a node joins
    the next frontier when it gains a mark.  `expand(frontier, mark,
    seen)` adds to `mark`, which holds the frontier nodes' marks, the
    marks of their successors; `seen` holds the marks explored so far,
    the frontier's included.  A layer costs its step plus a few O(n)
    passes over the marks.  Returns None when the search needs more than
    `max_layers` layers.

    A given `seen` is grown in place and returned: its marks count as
    explored and are not expanded again, so for a forward-closed `seen`
    the result is the closure of `seen` and `seeds` together.
    """
    mark = seeds.copy()
    if seen is None:
        seen = np.zeros_like(mark)
    layers = 0
    while True:
        # mark & ~seen: the frontier's own marks are already in `seen`, so
        # only the marks reached for the first time stay
        if mark.dtype == bool:
            np.greater(mark, seen, out=mark)
        else:
            mark &= ~seen
        frontier = np.flatnonzero(mark)
        if not frontier.size:
            return seen
        if layers == max_layers:
            return None
        layers += 1
        seen |= mark
        expand(frontier, mark, seen)


def _frontier_slices(offsets: np.ndarray, targets: np.ndarray,
                     frontier: np.ndarray):
    """Yield (rows, counts, targets) for slices of the frontier of about
    `_CHUNK_EDGES` out-edges each: the slice of `frontier`, the out-degrees
    of its nodes, and the targets of their out-edges, concatenated.

    Edge slot s of the frontier, counted from its first node on, sits at
    CSR position `first[i] + s` for its node i.  The targets come back as
    intp: numpy casts an int32 index array on every fancy index, so they
    are cast here once.  An empty frontier yields no slice.
    """
    if not frontier.size:
        return
    starts = offsets[frontier]
    counts = offsets[frontier + 1] - starts
    ends = np.cumsum(counts)
    first = starts - ends + counts
    bounds = [(0, frontier.size)] if ends[-1] <= _CHUNK_EDGES else \
        _row_chunks(np.append(0, ends), frontier.size)
    for a, b in bounds:
        at = np.repeat(first[a:b], counts[a:b])
        at += np.arange(ends[a] - counts[a], ends[b - 1])
        tgt = targets[at].astype(np.intp, copy=False)
        # freed for the caller's per-edge arrays: held, it made the margin
        # pull of the 2-D cubic at depth 7 30 % slower
        del at
        yield slice(a, b), counts[a:b], tgt


def _edge_expand(offsets: np.ndarray, targets: np.ndarray):
    """The layer step of a `_search` along the edges of a CSR: the
    frontier's marks are scattered over its out-neighbors, a slice of
    about `_CHUNK_EDGES` out-edges at a time, so no index array grows with
    the graph.  A bool mark is a plain scatter of True; a word is OR-ed
    into each of its node's targets (`np.bitwise_or.at`)."""
    def expand(frontier, mark, seen):
        words = None if mark.dtype == bool else mark[frontier]
        for rows, counts, tgt in _frontier_slices(offsets, targets, frontier):
            if words is None:
                mark[tgt] = True
            else:
                np.bitwise_or.at(mark, tgt, np.repeat(words[rows], counts))
    return expand


def _pack_planes(planes: np.ndarray) -> np.ndarray:
    """uint64 words whose bit f is row f of a (k <= 64, n) bool array."""
    octets = np.zeros((planes.shape[1], 8), dtype=np.uint8)
    packed = np.packbits(planes, axis=0, bitorder="little")
    octets[:, :packed.shape[0]] = packed.T
    return octets.view("<u8").ravel()


def _unpack_planes(words: np.ndarray, k: int) -> np.ndarray:
    """(k, n) bool array whose row f is bit f of the n uint64 words."""
    octets = words.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=k,
                         bitorder="little").T.astype(bool)


# ---------------------------------------------------------------------------
# chains between points
# ---------------------------------------------------------------------------

def _bfs_path(g: TransitionGraph, sources, target: int,
              max_len: int | None = None):
    """Deterministic BFS (BoxId order); returns node path source..target.

    Expands one layer at a time over the CSR (not a `_search`: a layer
    costs its edges, with no pass over every node).  A node's parent is
    its first discoverer in queue order and each layer keeps discovery
    order, so paths are those of a one-node-at-a-time queue.  Sources sit
    at depth 1, and nodes at depth `max_len` are not expanded.
    """
    prev = np.full(g.nboxes, -2, dtype=np.int64)
    layer = np.sort(np.asarray(sources, dtype=np.intp))
    prev[layer] = -1
    slot = np.empty(g.nboxes, dtype=np.int64)
    depth = 1
    while layer.size:
        if prev[target] != -2:
            path = [int(target)]
            while prev[path[-1]] != -1:
                path.append(int(prev[path[-1]]))
            return path[::-1]
        if max_len is not None and depth >= max_len:
            return None
        found = []
        for rows, counts, nxt in _frontier_slices(g.offsets, g.targets, layer):
            parent = np.repeat(layer[rows], counts)
            new = prev[nxt] == -2
            nxt, parent = nxt[new], parent[new]
            # keep the first discovery of each node
            pos = np.arange(nxt.size)
            slot[nxt] = nxt.size
            np.minimum.at(slot, nxt, pos)
            first = slot[nxt] == pos
            prev[nxt[first]] = parent[first]
            found.append(nxt[first])
        layer = np.concatenate(found)
        depth += 1
    return None


def chain_slack(g: TransitionGraph) -> float:
    """Sound per-step slack for chains realized through box centers.

    Bounds d(f(x_i), x_{i+1}) when consecutive points sit anywhere in
    adjacent graph boxes: Lipschitz spread around the center image plus
    the rectangle-cover geometry.
    """
    r = g.grid.box_norm_radius
    L = g.lipschitz_used
    d = np.sqrt(g.grid.dim)
    return L * r + d * (L * r + g.eps) + 2.0 * r


def _realize_chain(map_spec: MapSpec, pts, threshold) -> EpsChain | None:
    """The chain pts[0], ..., pts[-1], revalidated by evaluating the map.

    `threshold` gives a step's jump bound from the image f(pts[k]).  None
    if a jump reaches its bound; an overflowed jump is inf, so it does.
    """
    pts = np.asarray(pts, dtype=float)
    imgs = np.asarray([evaluate(map_spec, x) for x in pts[:-1]])
    thresholds = np.asarray([threshold(img) for img in imgs], dtype=float)
    with np.errstate(over="ignore"):
        defects = np.asarray([map_spec.distance(img, nxt)
                              for img, nxt in zip(imgs, pts[1:])])
    if np.any(defects >= thresholds):
        return None
    return EpsChain(pts, float(np.max(thresholds)), thresholds, defects)


@dataclass
class NonwanderingResult:
    returned: bool
    steps: Optional[int]


def nonwandering_probe(map_spec: MapSpec, grid: Grid, b: int, n_max: int,
                       graph: TransitionGraph | None = None) -> NonwanderingResult:
    """Iterate the box's outer image; report the first N <= n_max with
    image^N({b}) meeting {b} again.

    A prebuilt eps=0 graph may be passed to amortize across many probes.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    g = graph if graph is not None else build_graph(grid, map_spec, 0.0)
    frontier = BoxSet.from_indices(grid, [int(b)])
    for n in range(1, n_max + 1):
        frontier = g.image_boxes(frontier)
        if int(b) in frontier:
            return NonwanderingResult(True, n)
        if not frontier:
            break
    return NonwanderingResult(False, None)


def fixed_point_chain(map_spec: MapSpec, p, eps_fn) -> EpsChain | None:
    """The length-1 eps(x)-chain p -> p if f(p) lies within eps(f(p)) of p."""
    return _realize_chain(map_spec, [p, p], lambda img: float(eps_fn(img)))


def strong_chain_search(map_spec: MapSpec, p, eps_fn, grid: Grid,
                        max_len: int | None = None,
                        tg: TransitionGraph | None = None) -> EpsChain | None:
    """Search for an eps(x)-chain of length >= 1 from p back to p.

    Searches a variable-threshold graph whose per-box jump budget is the
    minimum of eps_fn over the fattened image rectangle for a cycle
    through box(p).  `tg` is that graph, `build_graph(grid, map_spec, 0.0,
    eps_fn=eps_fn)`, built once by callers that search from many points;
    without it the graph is built here when p is not a fixed point within
    its threshold.  Returned chains satisfy the Hurley jump rule with the
    grid's resolution slack added; None is a resolution-stamped no-cycle
    certificate, not a proof.
    """
    p = np.asarray(p, dtype=float)
    fixed = fixed_point_chain(map_spec, p, eps_fn)
    if fixed is not None:
        return fixed
    g = tg if tg is not None else build_graph(grid, map_spec, 0.0, eps_fn=eps_fn)
    bp = g.grid.box_of_point(p)
    if bp is None:
        return None
    starts = g.out(bp)
    if not starts.size:
        return None
    path = _bfs_path(g, starts, bp, max_len=max_len)
    if path is None:
        return None
    # p, the centers of the boxes the path passes before box(p), then p
    centers = [g.grid.box_geometry(int(b))[0] for b in path[:-1]]
    slack = chain_slack(g)
    return _realize_chain(map_spec, [p, *centers, p],
                          lambda img: float(eps_fn(img)) + slack)
