"""Epsilon-fattened transition graphs over box grids and everything
chain-recurrent that lives on them: recurrent boxes, chain components,
chain transitivity, nonwandering probes and variable-threshold
(Hurley-style) chain searches.

Construction is an outer approximation: the image of each box center is
fattened per axis by the entrywise Jacobian bound applied to the box
radii plus eps, and all boxes meeting that half-open rectangle become
out-neighbors.  Points leaving a non-periodic window feed a single
absorbing sink node, which is excluded from every recurrence statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._util import vector_norms
from .phase_space import BoxSet, Grid
from .system import MapSpec, evaluate

__all__ = [
    "TransitionGraph", "ChainComponent", "EpsChain",
    "ConstantEps", "RadialEps",
    "build_graph", "strongly_connected_components", "reachable",
    "close_planes", "reachable_sets",
    "chain_recurrent_boxes", "chain_components",
    "is_chain_transitive", "nonwandering_probe", "strong_chain_search",
    "fixed_point_chain",
    "NonwanderingResult", "MAX_NBOXES",
]

# caps the grid: at ~42 edges per box (cat, eps one box diameter) 2^26
# boxes already mean 2.8 G edges, far past memory.  Targets are stored as
# int32 and the transpose packs `target << 32 | source` into one int64 key
# above 2^16 boxes, which needs nboxes + 1 < 2**31 (the sink is node nboxes)
MAX_NBOXES = 1 << 26
# up to this many nodes the transpose packs `target << 16 | source` into
# uint32 keys; the last node's in-edges are placed without a key
_NARROW_NODES = (1 << 16) + 1
# edges per chunk: of the rows the build writes, the self-loop scan, the
# dump and the transpose read, and of the frontier slices that `reachable`
# and `close_planes` expand
_CHUNK_EDGES = 1 << 18


@dataclass
class TransitionGraph:
    """CSR digraph on BoxIds plus a virtual sink at index grid.nboxes.

    Out-edges are sorted ascending per source; the sink carries a self
    loop, so every node has at least one out-edge.  The sink is the
    largest node, so a box's sink edge is the last edge of its row.
    Offsets are int64, targets int32.  The SCC labels, the self-loop mask
    and the transposed CSR are computed on first use and cached on the
    graph, so every recurrence query on one graph shares one SCC pass (a
    forward-backward step, then Tarjan), and that pass and the backward
    closures share one transpose.  The transpose sorts the box rows'
    edges by 32-bit keys up to 2**16 boxes, then appends the sink's
    in-row: the escaping boxes, then the sink itself.
    """

    grid: Grid
    map_spec: MapSpec
    eps: float
    offsets: np.ndarray
    targets: np.ndarray
    lipschitz_used: float
    _reverse: Optional[tuple] = field(default=None, repr=False)
    _self_loops: Optional[np.ndarray] = field(default=None, repr=False)
    _labels: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def nboxes(self) -> int:
        return self.grid.nboxes

    @property
    def sink(self) -> int:
        return self.grid.nboxes

    @property
    def n_nodes(self) -> int:
        return self.grid.nboxes + 1

    @property
    def n_edges(self) -> int:
        return int(self.targets.size)

    def out(self, node: int) -> np.ndarray:
        return self.targets[self.offsets[node]:self.offsets[node + 1]]

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def escaping_boxes(self) -> int:
        """Boxes with an edge to the sink.  The sink is the largest node,
        so that edge is the last of its row: O(nboxes), not O(edges)."""
        return int(np.count_nonzero(_rows_ending_in(
            self.offsets, self.targets, self.nboxes, self.sink)))

    def has_sink_edges(self) -> bool:
        return self.escaping_boxes() > 0

    def edge_chunks(self):
        """(sources, targets) of the edges in CSR order, sink included,
        a chunk of rows of about `_CHUNK_EDGES` edges at a time."""
        for b0, b1 in _row_chunks(self.offsets, self.n_nodes):
            yield (np.repeat(np.arange(b0, b1), np.diff(self.offsets[b0:b1 + 1])),
                   self.targets[self.offsets[b0]:self.offsets[b1]])

    def self_loop_mask(self) -> np.ndarray:
        """Boolean per box: the box is its own out-neighbor."""
        if self._self_loops is None:
            mask = np.zeros(self.n_nodes, dtype=bool)
            for src, tgt in self.edge_chunks():
                mask[src[src == tgt]] = True
            self._self_loops = mask[:self.nboxes]
        return self._self_loops

    def scc_labels(self) -> np.ndarray:
        """SCC label of every node, the sink included, cached."""
        if self._labels is None:
            _, self._labels = strongly_connected_components(
                self.offsets, self.targets, self.n_nodes, self.reverse())
        return self._labels

    def image_boxes(self, boxset: BoxSet) -> BoxSet:
        """One application of the multivalued box map (sink dropped)."""
        tgt = _out_neighbors(self.offsets, self.targets, boxset.indices())
        bits = np.zeros(self.nboxes, dtype=bool)
        bits[tgt[tgt < self.nboxes]] = True
        return BoxSet(self.grid, bits)

    def set_escapes(self, boxset: BoxSet) -> bool:
        """True iff some member has an edge to the sink."""
        tgt = _out_neighbors(self.offsets, self.targets, boxset.indices())
        return bool(np.any(tgt == self.sink))

    def reverse(self) -> tuple:
        """(offsets, targets) of the transposed graph, cached."""
        if self._reverse is None:
            self._reverse = _transpose(self.offsets, self.targets,
                                       self.n_nodes)
        return self._reverse


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

def _box_spreads(grid: Grid, map_spec: MapSpec):
    """(spread, lipschitz): per-box per-axis image half-widths from entrywise
    Jacobian bounds, plus a scalar Lipschitz bound for slack formulas: the
    largest spectral norm of the per-box bounds, rounded up, the map's
    only Lipschitz number.

    Sound: |f(x)_a - f(c)_a| <= sum_b |J_ab|_max r_b over the box, and
    ||J(x)||_2 <= ||(|J_ab|_max)||_2 for every x in it.  The SVD is backward
    stable: its largest singular value of a k x k bound is within a small
    multiple of k units of roundoff of the exact one, on either side (a
    bound whose largest entry is 1.0 gave 1 - 2**-53).  So it is raised by
    2k machine epsilons, then one ulp for the rounding of that product.
    """
    centers = grid.centers()
    B = np.asarray(map_spec.jac_abs_bound(centers - grid.radius,
                                          centers + grid.radius))
    spread = np.einsum("nab,b->na", B, grid.radius)
    # one SVD per distinct bound (np.unique(axis=0) imports numpy.ma)
    flat = B.reshape(B.shape[0], -1)
    flat = flat[np.lexsort(flat.T)]
    flat = flat[np.append(True, np.any(flat[1:] != flat[:-1], axis=1))]
    norm = np.max(np.linalg.norm(flat.reshape(-1, *B.shape[1:]),
                                 ord=2, axis=(1, 2)))
    pad = 1.0 + 2 * grid.dim * np.finfo(float).eps
    return spread, float(np.nextafter(norm * pad, np.inf))


def _cover_ranges(grid: Grid, lo_f: np.ndarray, hi_f: np.ndarray):
    """Integer index ranges of boxes meeting the half-open rects [lo_f, hi_f).

    Returns (ilo, ihi, escapes, empty) with per-axis inclusive index
    ranges; the top index excludes rectangles whose upper face only
    touches a box boundary.  A periodic range that spans its axis becomes
    the whole axis.  On non-periodic axes the ranges are clamped,
    `escapes` marks rows whose rectangle leaves the window and `empty`
    those with nothing inside it.  Indices stay floats until they are
    clamped, so a finite rectangle past the int64 range keeps its edges.
    """
    n = lo_f.shape[0]
    ilo = np.empty((n, grid.dim), dtype=np.int64)
    ihi = np.empty_like(ilo)
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
        else:
            escapes |= (lo < 0) | (hi >= size)
            empty |= (hi < 0) | (lo >= size)
            lo, hi = np.clip(lo, 0, size - 1), np.clip(hi, 0, size - 1)
        ilo[:, ax], ihi[:, ax] = lo, hi
    return ilo, ihi, escapes, empty


def _row_chunks(offsets: np.ndarray, rows: int):
    """(b0, b1) ranges of at least one row and about `_CHUNK_EDGES` edges
    each; they cover rows [0, rows) unless those hold no edge at all."""
    marks = np.arange(0, offsets[rows], _CHUNK_EDGES)
    cuts = np.append(np.searchsorted(offsets[:rows + 1], marks), rows)
    bounds = cuts[np.append(True, cuts[1:] != cuts[:-1])].tolist()
    return zip(bounds[:-1], bounds[1:])


def _rows_ending_in(offsets: np.ndarray, targets: np.ndarray, rows: int,
                    node: int) -> np.ndarray:
    """Boolean per row r < `rows`: r's last out-edge goes to `node`.  In
    ascending distinct rows every edge into the largest node is one."""
    ends = offsets[1:rows + 1]
    hit = ends > offsets[:rows]
    hit[hit] = targets[ends[hit] - 1] == node
    return hit


def _transpose(offsets: np.ndarray, targets: np.ndarray, n: int):
    """(offsets, targets) of the transposed CSR of an n-node graph with
    ascending distinct rows: each node's in-edges by ascending source,
    targets int32.

    One in-place sort of `target << b | source` keys.  The keys are
    distinct, so they sort into the (target, source) order that a stable
    argsort of the targets gives, in less than half its time.

    Up to `_NARROW_NODES` nodes the keys are uint32 with b = 16, except on
    the edges into the last node n - 1, whose id may need a 17th bit (the
    sink of a 2**16-box grid).  Each such edge ends its row, so its key is
    set past every other one, and after the sort the last node's in-row is
    written as those rows, found from the row ends alone.  The other keys
    are masked to their sources in place, so the key buffer becomes the
    transposed targets: 4 bytes per edge.  Larger graphs use int64 keys
    with b = 32; the int32 sources are written over the front of the key
    buffer, which is cut to that half, so they peak at 8 bytes per edge.
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
        into_last = np.flatnonzero(_rows_ending_in(offsets, targets, n, n - 1))
        keys[offsets[into_last + 1] - 1] = np.iinfo(np.uint32).max
        keys.sort()
        m = keys.size - into_last.size
        roff = np.empty(n + 1, dtype=np.int64)
        roff[:n - 1] = np.searchsorted(
            keys[:m], np.arange(n - 1, dtype=np.uint32) << 16)
        roff[n - 1:] = m, keys.size
        keys[:m] &= 0xFFFF
        keys[m:] = into_last
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


def _materialize_edges(grid: Grid, ilo, ihi, escapes, empty, sink: int):
    """Expand index ranges into CSR (offsets, targets), sorted per source;
    offsets int64, targets int32.

    On each axis a box's range, taken mod the axis, is the ascending runs
    [0, w) and [lo, lo + c - w), and a row-major product of ascending
    lists ascends.  So rows are written in order, `_CHUNK_EDGES` edges at
    a time: one base per (box, outer-axis prefix), then runs of
    consecutive last-axis targets, then the sink edge.  Edges are distinct
    as a periodic range is shorter than its axis or all of it, and a
    strict-increase check within each row guards that argument.
    """
    shape = np.asarray(grid.shape, dtype=np.int64)
    strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)
    counts = ihi - ilo + 1
    counts[empty] = 1  # an empty row keeps one prefix, for its sink edge
    counts[empty, -1] = 0
    lo = ilo % shape
    wrap = np.maximum(lo + counts - shape, 0)
    offsets = np.zeros(sink + 2, dtype=np.int64)
    np.cumsum(counts.prod(axis=1) + escapes, out=offsets[1:sink + 1])
    offsets[sink + 1] = offsets[sink] + 1  # sink self-loop
    targets = np.empty(int(offsets[-1]), dtype=np.int32)
    targets[-1] = sink
    for b0, b1 in _row_chunks(offsets, sink):
        own, base = np.arange(b0, b1), np.zeros(b1 - b0, dtype=np.int64)
        for ax in range(grid.dim - 1):
            c = counts[own, ax]
            own, base = np.repeat(own, c), np.repeat(base, c)
            k = np.arange(own.size) - np.repeat(np.cumsum(c) - c, c)
            w = wrap[own, ax]
            base += (k + (k >= w) * (lo[own, ax] - w)) * strides[ax]
        # per prefix the last axis's runs [0, w) and [lo, lo + c - w), and
        # after the box's last prefix its sink edge
        w = wrap[own, -1]
        last = np.append(own[1:] != own[:-1], True)
        starts = np.column_stack((base, base + lo[own, -1],
                                  np.full(own.size, sink))).ravel()
        lens = np.column_stack((w, counts[own, -1] - w,
                                last & escapes[own])).ravel()
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
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if map_spec.dim != grid.dim:
        raise ValueError("map dimension does not match the grid")
    if grid.nboxes > MAX_NBOXES:
        raise ValueError("grid too fine for the dense graph representation")
    if map_spec.jac_abs_bound is None:
        raise ValueError(f"map {map_spec.name!r} has no entrywise Jacobian "
                         f"bound (jac_abs_bound)")
    centers = grid.centers()
    images = evaluate(map_spec, centers)
    if map_spec.periods is not None:
        # keep images in the grid window's coordinates
        images = grid.domain.wrap(images)
    spread, lip_used = _box_spreads(grid, map_spec)
    if eps_fn is not None:
        eps_local = np.asarray(eps_fn.min_over_rects(images - spread,
                                                     images + spread))
        w = spread + eps_local[:, None]
    else:
        w = spread + eps
    lo_f = images - w
    hi_f = images + w
    if not (np.isfinite(lo_f).all() and np.isfinite(hi_f).all()):
        raise ValueError(f"map {map_spec.name!r} has a non-finite image "
                         f"rectangle on this grid")
    ilo, ihi, escapes, empty = _cover_ranges(grid, lo_f, hi_f)
    offsets, targets = _materialize_edges(grid, ilo, ihi, escapes, empty,
                                          sink=grid.nboxes)
    return TransitionGraph(grid, map_spec, float(eps), offsets, targets, lip_used)


# ---------------------------------------------------------------------------
# strongly connected components (forward-backward step, then Tarjan)
# ---------------------------------------------------------------------------

def _fb_max_layers(n_edges: int, n_nodes: int) -> int:
    """Layers a forward-backward search from the pivot may take.

    A frontier layer of `reachable` costs about 10 us plus 0.25 ns per
    node (its passes over the n-node masks) on top of its edges; the
    Tarjan loop below costs about 0.1 us per edge plus 0.5 us per node
    (2-core x86-64 VM).  So (n_edges + 5 n_nodes) // (100 + n_nodes // 400)
    layers cost about one Tarjan run.  A search that needs more is dropped
    and Tarjan takes the whole graph: a long-diameter graph (a circle
    rotation, a near-integrable standard map) then pays at most about one
    Tarjan run on top of Tarjan alone, and the step stays O(V + E).
    """
    return max(32, (n_edges + 5 * n_nodes) // (100 + n_nodes // 400))


def strongly_connected_components(offsets: np.ndarray, targets: np.ndarray,
                                  n: int, reverse: tuple | None = None):
    """SCCs of a CSR digraph: one forward-backward step, then Tarjan.

    Returns (n_components, labels); labels follow reverse topological
    order of the condensation (sources get the largest labels).
    `reverse` is the transposed CSR, as `TransitionGraph.reverse()` caches
    it; without it the transpose is built here.

    The pivot is the first node of largest out-degree x in-degree.  Its
    component S = F & B (F: reachable from the pivot, B: reaching it) is
    found by frontier searches: F on the CSR, then B on the transpose
    restricted to F, as a path from a node of F stays in F.  On a
    chain-transitive torus graph S is every box.  F \\ B is forward-closed
    and cannot reach S, so Tarjan labels it first (roots in node order), S
    takes the next label, and Tarjan then runs from the roots outside F in
    node order; the completed nodes of F are skipped as edge targets.
    When F or B needs more than `_fb_max_layers` layers, F and S are taken
    as empty, so the same two Tarjan calls run every root in node order
    from label 0.
    """
    if n == 0:
        return 0, np.empty(0, dtype=np.int64)
    off = np.ascontiguousarray(offsets)
    tgt = np.ascontiguousarray(targets)
    roff, rtarg = _transpose(off, tgt, n) if reverse is None else reverse
    labels = np.full(n, -1, dtype=np.int64)
    pivot = int(np.argmax(np.diff(off) * np.diff(roff)))
    cap = _fb_max_layers(tgt.size, n)
    fwd = reachable(off, tgt, [pivot], max_layers=cap)
    back = None if fwd is None else \
        reachable(roff, rtarg, [pivot], max_layers=cap, seen=~fwd)
    if back is None:
        fwd = core = np.zeros(n, dtype=bool)
    else:
        core = back & fwd
    index = np.where(core, 0, -1).tolist()
    k = _tarjan(off, tgt, np.flatnonzero(fwd & ~core).tolist(), index, labels, 0)
    n_comp = _tarjan(off, tgt, np.flatnonzero(~fwd).tolist(), index, labels,
                     k + int(core.any()))
    labels[core] = k
    return n_comp, labels


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
    """Boxes in a nontrivial SCC: size > 1, or a self-looped box.

    The sink only loops to itself, so its SCC holds no box."""
    labels = g.scc_labels()[:g.nboxes]
    sizes = np.bincount(labels)
    return (sizes[labels] > 1) | g.self_loop_mask()


def nontrivial_scc_sets(g: TransitionGraph) -> list[BoxSet]:
    """Box sets of the nontrivial SCCs (size > 1, or a self-looped box),
    ordered by smallest member BoxId.  The sink never appears."""
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
    """Boxes on a directed cycle at this resolution (sink excluded)."""
    return BoxSet(g.grid, _recurrent_bits(g))


def chain_components(g: TransitionGraph) -> list[ChainComponent]:
    """SCC partition of the chain recurrent boxes, ordered by smallest member."""
    return [ChainComponent(i, boxes)
            for i, boxes in enumerate(nontrivial_scc_sets(g))]


def is_chain_transitive(g: TransitionGraph) -> bool:
    """True iff the graph restricted to the boxes is strongly connected.

    The sink reaches no box, so dropping it leaves the box SCCs as they are.
    """
    labels = g.scc_labels()[:g.nboxes]
    return bool(np.all(labels == labels[0]))


# ---------------------------------------------------------------------------
# CSR reachability
# ---------------------------------------------------------------------------

def _gather(targets: np.ndarray, first: np.ndarray, counts: np.ndarray,
            slot: int) -> np.ndarray:
    """Targets of `counts[i]` consecutive edges per node i, concatenated.

    Output slots are numbered from `slot` on, and output slot s of node i
    holds targets[first[i] + s]: first[i] is the CSR position of node i's
    first edge minus that edge's slot.  The targets come back as intp:
    numpy casts an int32 index array on every fancy index, so they are
    cast here once.
    """
    shift = np.repeat(first, counts)
    shift += np.arange(slot, slot + shift.size)
    return targets[shift].astype(np.intp, copy=False)


def _out_neighbors(offsets: np.ndarray, targets: np.ndarray,
                   nodes: np.ndarray) -> np.ndarray:
    """Targets of every out-edge of `nodes`, concatenated (repeats kept)."""
    starts = offsets[nodes]
    counts = offsets[nodes + 1] - starts
    return _gather(targets, starts - np.cumsum(counts) + counts, counts, 0)


def _frontier_slices(offsets: np.ndarray, targets: np.ndarray,
                     frontier: np.ndarray):
    """Yield (rows, counts, targets) for slices of the frontier of about
    `_CHUNK_EDGES` out-edges each: the slice of `frontier`, the out-degrees
    of its nodes, and the targets of their out-edges, concatenated."""
    starts = offsets[frontier]
    counts = offsets[frontier + 1] - starts
    ends = np.cumsum(counts)
    first = starts - ends + counts
    bounds = [(0, frontier.size)] if ends[-1] <= _CHUNK_EDGES else \
        _row_chunks(np.append(0, ends), frontier.size)
    for a, b in bounds:
        yield (slice(a, b), counts[a:b],
               _gather(targets, first[a:b], counts[a:b], ends[a] - counts[a]))


def reachable(offsets: np.ndarray, targets: np.ndarray, seeds,
              max_layers: int | None = None,
              seen: np.ndarray | None = None) -> np.ndarray | None:
    """Boolean mask of the CSR nodes reachable from `seeds`, seeds included.

    Frontier expansion, one layer per step: the one-set form of
    `close_planes`, with one bool mark per node in place of a word.  A
    layer scatters True over the out-neighbors of its frontier, a slice of
    about `_CHUNK_EDGES` out-edges at a time, so no index array grows with
    the graph; the marks not in `seen` are the next frontier.  A layer
    costs its edges plus a few O(n) passes over the masks.  Returns None
    when the expansion needs more than `max_layers` layers.

    A given `seen` mask is grown in place and returned: its nodes count as
    explored and are not expanded again, so for a forward-closed `seen`
    the result is the closure of `seen` and `seeds` together.
    """
    n = offsets.size - 1
    if seen is None:
        seen = np.zeros(n, dtype=bool)
    mark = np.zeros(n, dtype=bool)
    mark[np.asarray(seeds, dtype=np.intp)] = True
    layers = 0
    while True:
        # mark & ~seen: the frontier's own marks are already in `seen`, so
        # only the nodes reached for the first time stay marked
        np.greater(mark, seen, out=mark)
        frontier = np.flatnonzero(mark)
        if not frontier.size:
            return seen
        if layers == max_layers:
            return None
        layers += 1
        seen |= mark
        for _, _, tgt in _frontier_slices(offsets, targets, frontier):
            mark[tgt] = True


def close_planes(offsets: np.ndarray, targets: np.ndarray, seeds: np.ndarray,
                 seen: np.ndarray) -> np.ndarray:
    """Grow `seen` by the forward closure of `seeds`, up to 64 sets at once.

    `seeds` and `seen` hold one uint64 word per CSR node, and bit f of the
    words is node set f (a plane).  On every plane this is `reachable`
    with that plane of `seen`: its nodes are not expanded again, so for a
    forward-closed plane the result is the closure of both planes
    together.  `seen` is grown in place and returned.

    All planes advance in lockstep (the multi-source traversal of Then et
    al., VLDB 2014): a layer pushes the words of its frontier nodes along
    their out-edges with one OR-scatter per slice of about `_CHUNK_EDGES`
    edges, and a node joins the next frontier when it gains a bit.  Beside
    `seen` this holds one word per node for the next frontier plus one
    slice.  `reachable` is the same loop on one set, with a bool per node
    and a plain scatter, and is faster there.
    """
    new = seeds & ~seen
    seen |= new
    frontier = np.flatnonzero(new)
    while frontier.size:
        words = new[frontier]
        new = np.zeros_like(seen)
        for rows, counts, tgt in _frontier_slices(offsets, targets, frontier):
            np.bitwise_or.at(new, tgt, np.repeat(words[rows], counts))
        new &= ~seen
        seen |= new
        frontier = np.flatnonzero(new)
    return seen


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


def reachable_sets(offsets: np.ndarray, targets: np.ndarray,
                   seeds: np.ndarray) -> np.ndarray:
    """`reachable` for every row of the (k, n) bool array `seeds`, as a
    (k, n) bool array.  The rows are closed 64 at a time, as the planes of
    one `close_planes`.
    """
    closed = np.empty(seeds.shape, dtype=bool)
    for a in range(0, seeds.shape[0], 64):
        rows = slice(a, a + 64)
        words = _pack_planes(seeds[rows])
        words = close_planes(offsets, targets, words, np.zeros_like(words))
        closed[rows] = _unpack_planes(words, closed[rows].shape[0])
    return closed


# ---------------------------------------------------------------------------
# chains between points
# ---------------------------------------------------------------------------

def _bfs_path(g: TransitionGraph, sources, target: int,
              max_len: int | None = None):
    """Deterministic BFS (BoxId order); returns node path source..target.

    Expands one layer at a time over the CSR.  A node's parent is its
    first discoverer in queue order and each layer keeps discovery order,
    so paths are those of a one-node-at-a-time queue.  Sources sit at
    depth 1, and nodes at depth `max_len` are not expanded.
    """
    prev = np.full(g.n_nodes, -2, dtype=np.int64)
    layer = np.sort(np.asarray(sources, dtype=np.int64))
    prev[layer] = -1
    slot = np.empty(g.n_nodes, dtype=np.int64)
    depth = 1
    while layer.size:
        if prev[target] != -2:
            path = [int(target)]
            while prev[path[-1]] != -1:
                path.append(int(prev[path[-1]]))
            return path[::-1]
        if max_len is not None and depth >= max_len:
            return None
        nxt = _out_neighbors(g.offsets, g.targets, layer)
        parent = np.repeat(layer, g.offsets[layer + 1] - g.offsets[layer])
        new = (nxt != g.sink) & (prev[nxt] == -2)
        nxt, parent = nxt[new], parent[new]
        # keep the first discovery of each node
        pos = np.arange(nxt.size)
        slot[nxt] = nxt.size
        np.minimum.at(slot, nxt, pos)
        first = slot[nxt] == pos
        layer = nxt[first]
        prev[layer] = parent[first]
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
    starts = [int(w) for w in g.out(bp) if w != g.sink]
    if not starts:
        return None
    path = _bfs_path(g, starts, bp, max_len=max_len)
    if path is None:
        return None
    # p, the centers of the boxes the path passes before box(p), then p
    centers = [g.grid.box_geometry(int(b))[0] for b in path[:-1]]
    slack = chain_slack(g)
    return _realize_chain(map_spec, [p, *centers, p],
                          lambda img: float(eps_fn(img)) + slack)
