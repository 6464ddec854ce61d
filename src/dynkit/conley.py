"""Attractor blocks, weak attractors, basins, decomposition checks and
the measure-escape experiment near attractors.

A block at box resolution is a forward-closed box set, disjoint from the
sink, whose one-step image avoids its own inner boundary layer (the
discrete stand-in for mapping uniformly into the interior).  Attractors
are image-iteration fixpoints of blocks; basins are backward reachable
sets.  The decomposition identity is checked against absorbed basins
(boxes all of whose forward paths are eventually trapped), the graph
analogue of omega-limit containment for the multivalued box map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .phase_space import BoxSet, _morph
from .system import MapSpec, iterates
from .chain_graph import (TransitionGraph, _out_neighbors, _unpack_planes,
                          chain_recurrent_boxes, close_planes,
                          nontrivial_scc_sets, reachable_sets)

__all__ = [
    "NotABlockError", "AttractorFlags", "AttractorRecord", "ConleyReport",
    "find_attractor_blocks", "attractor_from_block", "basin",
    "absorbed_basin", "verify_conley_decomposition",
    "attractor_invariance_check", "build_attractor_records",
    "escape_fraction",
]


# block enumeration: a family stops once this many blocks follow its first
# one, or after this many dilations; up to this many nontrivial SCCs every
# down-closed union of them seeds a family, above it only the principal
# down-sets and the union of all
_EXTRA_DILATIONS = 2
_MAX_DILATION = 16
_MAX_DOWNSET_COMPS = 12

# invariance flags: points sampled per region, and the steps their orbits
# are followed from the shell U - A
_N_SAMPLES = 1000
_N_ITER = 50


class NotABlockError(ValueError):
    """The candidate set is not forward-closed in the graph."""


@dataclass
class AttractorFlags:
    invariant: bool
    orbit_disjoint: bool
    boundary_forward_invariant: bool
    orbit_violations: int = 0
    boundary_violations: int = 0


@dataclass
class AttractorRecord:
    block: BoxSet
    attractor: BoxSet
    basin: BoxSet
    iterations_to_fixpoint: int
    flags: Optional[AttractorFlags] = None


@dataclass
class ConleyReport:
    n_blocks: int
    lhs_count: int
    rhs_count: int
    symmetric_difference: int
    lhs_only: BoxSet
    rhs_only: BoxSet

    @property
    def identity_holds(self) -> bool:
        return self.symmetric_difference == 0


# ---------------------------------------------------------------------------
# reachability helpers
# ---------------------------------------------------------------------------

def _backward_closures(g: TransitionGraph, seeds: np.ndarray) -> np.ndarray:
    """Row i: the nodes (boxes and sink) with a directed path into row i of
    the (k, n_nodes) bool array `seeds`."""
    roff, rtarg = g.reverse()
    return reachable_sets(roff, rtarg, seeds)


def _is_block(g: TransitionGraph, U: BoxSet) -> bool:
    """Forward-closed, proper, sink-free, image clear of the boundary layer."""
    count = len(U)
    if count == 0 or count == g.nboxes:
        return False
    if g.set_escapes(U):
        return False
    image = g.image_boxes(U)
    if image - U:
        return False
    margin = U - U.erode(1)
    return not (image & margin)


# ---------------------------------------------------------------------------
# block enumeration
# ---------------------------------------------------------------------------

def _downset_families(reach: np.ndarray) -> list:
    """Member lists of the SCC families whose cores are dilated;
    reach[i, j] says that SCC i reaches SCC j, and reach[i, i] holds.

    Up to `_MAX_DOWNSET_COMPS` SCCs: every nonempty down-closed subset, in
    increasing bitmask order.  Above it: the principal down-sets, then the
    union of all SCCs.
    """
    m = reach.shape[0]
    if not m:
        return []
    if m > _MAX_DOWNSET_COMPS:
        return [np.flatnonzero(row).tolist() for row in reach] + [list(range(m))]
    # needs[mask]: bitmask of the SCCs that the members of mask reach,
    # built from the masks below each new top bit
    bit = np.int64(1) << np.arange(m, dtype=np.int64)
    needs = np.zeros(1 << m, dtype=np.int64)
    for i in range(m):
        needs[1 << i:2 << i] = needs[:1 << i] | bit[reach[i]].sum()
    masks = np.arange(1 << m, dtype=np.int64)
    closed = np.flatnonzero((needs & ~masks) == 0)[1:]
    return [np.flatnonzero(mask & bit).tolist() for mask in closed]


def _scc_reach(g: TransitionGraph, scc_of: np.ndarray, m: int) -> np.ndarray:
    """reach[i, j]: SCC i reaches SCC j (reach[i, i] holds).

    SCCs i..i+63 are the planes of one `close_planes`; each SCC's column
    ORs the closure words of its boxes.  A single SCC only reaches itself,
    so it needs no closure."""
    if m == 1:
        return np.ones((1, 1), dtype=bool)
    reach = np.zeros((m, m), dtype=bool)
    for a in range(0, m, 64):
        k = min(64, m - a)
        plane = scc_of - a
        inside = (plane >= 0) & (plane < k)
        seeds = np.zeros(g.n_nodes, dtype=np.uint64)
        seeds[inside] = np.uint64(1) << plane[inside].astype(np.uint64)
        closure = close_planes(g.offsets, g.targets, seeds,
                               np.zeros_like(seeds))
        hits = np.zeros(m + 1, dtype=np.uint64)
        np.bitwise_or.at(hits, scc_of, closure)
        reach[a:a + k] = _unpack_planes(hits[:m], k)
    return reach


def _grow_families(g: TransitionGraph, core: np.ndarray, k: int) -> list:
    """The blocks of k <= 64 families grown in lockstep, one list per
    family in dilation order.  Bit f of the uint64 word `core[b]` says that
    box b is in the core of family f."""
    periodic, shape = g.grid.domain.periodic, g.grid.shape
    roff, rtarg = g.reverse()
    found = [[] for _ in range(k)]
    active = (1 << k) - 1
    dilated = core.reshape(shape)
    closure = np.zeros(g.n_nodes, dtype=np.uint64)
    seeds = np.zeros_like(closure)
    boxes = closure[:g.nboxes]
    for _ in range(_MAX_DILATION):
        dilated = _morph(dilated, periodic, 1, np.bitwise_or)
        # a dilation of every box closes to every box: the family ends
        active &= ~int(np.bitwise_and.reduce(dilated, axis=None))
        if not active:
            break
        np.bitwise_and(dilated.ravel(), active, out=seeds[:g.nboxes])
        close_planes(g.offsets, g.targets, seeds, closure)
        active &= ~int(closure[g.sink] | np.bitwise_and.reduce(boxes))
        if not active:
            break
        # a closure that passed the checks is forward-closed and sink-free;
        # its margin boxes must have no predecessor in it
        margin = boxes & ~_morph(boxes.reshape(shape), periodic, 1,
                                 np.bitwise_and).ravel()
        margin &= active
        at = np.flatnonzero(margin)
        pulled = np.repeat(margin[at], roff[at + 1] - roff[at])
        pulled &= closure[_out_neighbors(roff, rtarg, at)]
        leaky = np.bitwise_or.reduce(pulled)
        passing = active & ~int(leaky)
        for f in range(k):
            if passing >> f & 1:
                found[f].append((boxes >> np.uint64(f) & 1).astype(bool))
                if len(found[f]) > _EXTRA_DILATIONS:
                    active &= ~(1 << f)
        if not active:
            break
    return found


def find_attractor_blocks(g: TransitionGraph, candidates=None) -> list[BoxSet]:
    """Enumerate attractor blocks at box resolution.

    Candidate cores are down-closed unions of nontrivial SCCs (in the
    reachability order of the condensation); each core is dilated layer by
    layer and forward-closed until the block test passes, which yields the
    familiar nested families of blocks around each attracting region.
    Each family grows one dilation D and one forward closure C: a new
    layer only seeds the search from D_k \\ C_{k-1}, since
    closure(D_k) = C_{k-1} | closure(D_k \\ C_{k-1}).  A family stops at
    the first closure that reaches the sink or the whole grid (a dilation
    of the whole grid stops before its closure), after `_MAX_DILATION`
    dilations, or once `_EXTRA_DILATIONS` blocks follow its first one.
    Such a closure is forward-closed and sink-free, so it is a block iff
    no box of its boundary layer has a predecessor in it.  Families run 64 at a time, family f as bit f of
    one uint64 word per node, and their blocks are taken in family order.
    User-supplied candidate box sets are tested in full, and blocks
    already found are not repeated.

    Requires a graph built with eps > 0 so the fattening provides the
    uniform margin.
    """
    if g.eps <= 0:
        raise ValueError("attractor blocks need a graph built with eps > 0")
    sccs = nontrivial_scc_sets(g)
    m = len(sccs)
    blocks: list[BoxSet] = []
    seen: set[bytes] = set()

    def add(U: BoxSet):
        key = np.packbits(U.bits).tobytes()
        if key not in seen:
            seen.add(key)
            blocks.append(U)

    # scc_of[node]: index of its nontrivial SCC, m elsewhere (sink included)
    scc_of = np.full(g.n_nodes, m, dtype=np.int64)
    for i, s in enumerate(sccs):
        scc_of[:g.nboxes][s.bits] = i
    families = _downset_families(_scc_reach(g, scc_of, m))
    for a in range(0, len(families), 64):
        batch = families[a:a + 64]
        # fam[i]: bit f set iff SCC i is in family a + f
        fam = np.zeros(m + 1, dtype=np.uint64)
        for f, members in enumerate(batch):
            fam[members] |= np.uint64(1 << f)
        for family in _grow_families(g, fam[scc_of[:g.nboxes]], len(batch)):
            for bits in family:
                add(BoxSet(g.grid, bits))

    if candidates is not None:
        for U in candidates:
            if _is_block(g, U):
                add(U)

    blocks.sort(key=lambda b: (len(b), int(b.indices()[0]) if len(b) else -1))
    return blocks


def attractor_from_block(g: TransitionGraph, U: BoxSet,
                         include_sink: bool = False):
    """Fixpoint of the box-image operator on U and its iteration count.

    `include_sink` treats the sink as part of U (window truncations of
    unbounded blocks route their tail there); otherwise an escaping U is
    rejected.
    """
    if not include_sink and g.set_escapes(U):
        raise NotABlockError("image not contained in U (escapes the window)")
    image = g.image_boxes(U)
    if image - U:
        raise NotABlockError("image not contained in U")
    current = U.copy()
    iterations = 0
    while True:
        nxt = g.image_boxes(current)
        iterations += 1
        if nxt == current:
            return current, iterations
        current = nxt
        if iterations > g.nboxes + 1:
            raise RuntimeError("image iteration failed to reach a fixpoint")


def _basins(g: TransitionGraph, sets: list) -> list[BoxSet]:
    """Basin of each box set: the boxes with a directed path into it."""
    seeds = np.zeros((len(sets), g.n_nodes), dtype=bool)
    for row, U in zip(seeds, sets):
        row[:g.nboxes] = U.bits
    return [BoxSet(g.grid, bits[:g.nboxes])
            for bits in _backward_closures(g, seeds)]


def _absorbed_basins(g: TransitionGraph, attractors: list) -> list[BoxSet]:
    """Absorbed basin of each attractor A: the complement of the backward
    closure of the bad nodes, the cycle boxes outside A plus the sink."""
    recurrent = chain_recurrent_boxes(g).bits
    seeds = np.zeros((len(attractors), g.n_nodes), dtype=bool)
    seeds[:, g.sink] = True
    for row, A in zip(seeds, attractors):
        row[:g.nboxes] = recurrent & ~A.bits
    return [BoxSet(g.grid, ~reached[:g.nboxes])
            for reached in _backward_closures(g, seeds)]


def basin(g: TransitionGraph, U: BoxSet) -> BoxSet:
    """Boxes with a directed path into U (U included)."""
    return _basins(g, [U])[0]


def absorbed_basin(g: TransitionGraph, A: BoxSet) -> BoxSet:
    """Boxes every forward path from which is eventually trapped in A.

    Complement of the backward closure of the bad nodes: cycle boxes
    outside A, plus the sink.
    """
    return _absorbed_basins(g, [A])[0]


def verify_conley_decomposition(g: TransitionGraph) -> ConleyReport:
    """Compare complement-of-recurrence with the union of basin minus
    attractor over the blocks of `find_attractor_blocks`.

    Basins enter as absorbed basins; backward-reachability basins count
    boxes that merely straddle basin boundaries and would break the exact
    identity at any finite resolution.  The absorbed basins of all blocks
    are closed together, 64 per plane closure.
    """
    blocks = find_attractor_blocks(g)
    lhs = chain_recurrent_boxes(g).complement()
    attractors = [attractor_from_block(g, U)[0] for U in blocks]
    rhs = BoxSet.empty(g.grid)
    for A, B in zip(attractors, _absorbed_basins(g, attractors)):
        rhs = rhs | (B - A)
    lhs_only = lhs - rhs
    rhs_only = rhs - lhs
    return ConleyReport(len(blocks), len(lhs), len(rhs),
                        len(lhs_only) + len(rhs_only), lhs_only, rhs_only)


# ---------------------------------------------------------------------------
# invariance and escape diagnostics
# ---------------------------------------------------------------------------

def attractor_invariance_check(g: TransitionGraph, map_spec: MapSpec,
                               block: BoxSet, attractor: BoxSet,
                               rng_seed: int = 0) -> AttractorFlags:
    """Sampled invariance flags for an attractor record.

    (i) the box image of A equals A; (ii) true orbits started in U - A
    never land in the strict interior of A (interior minus a one-box
    collar) within `_N_ITER` steps; (iii) points started in boundary boxes
    of A stay out of that strict interior after one step.  Each region is
    sampled at `_N_SAMPLES` points.
    """
    rng = np.random.default_rng(rng_seed)
    invariant = g.image_boxes(attractor) == attractor

    forbidden = attractor.erode(2)
    forbidden_bits = forbidden.bits

    def count_violations(region: BoxSet, steps: int) -> int:
        if not region or not forbidden:
            return 0
        pts = region.sample_points(_N_SAMPLES, rng)
        bad = 0
        for img in iterates(map_spec, pts, steps):
            boxes = g.grid.boxes_of_points(img)
            inside = boxes >= 0
            bad += int(np.count_nonzero(forbidden_bits[boxes[inside]]))
        return bad

    shell = block - attractor
    orbit_bad = count_violations(shell, _N_ITER)
    boundary_bad = count_violations(attractor.boundary(), 1)
    return AttractorFlags(
        invariant=bool(invariant),
        orbit_disjoint=orbit_bad == 0,
        boundary_forward_invariant=boundary_bad == 0,
        orbit_violations=orbit_bad,
        boundary_violations=boundary_bad,
    )


def build_attractor_records(g: TransitionGraph, map_spec: MapSpec,
                            blocks=None, rng_seed: int = 0,
                            include_sink: bool = False) -> list[AttractorRecord]:
    if blocks is None:
        blocks = find_attractor_blocks(g)
    fixpoints = [attractor_from_block(g, U, include_sink=include_sink)
                 for U in blocks]
    records = []
    for U, (A, iters), B in zip(blocks, fixpoints, _basins(g, blocks)):
        flags = attractor_invariance_check(g, map_spec, U, A,
                                           rng_seed=rng_seed)
        records.append(AttractorRecord(U, A, B, iters, flags))
    return records


def escape_fraction(map_spec: MapSpec, K: BoxSet, radius: float, n_max: int,
                    samples: int, rng_seed: int = 0) -> float:
    """Fraction of points of K whose orbit stays in the radius-ball of the
    origin for all n <= n_max (Monte Carlo rendering of m(K - K_R)/m(K))."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    rng = np.random.default_rng(rng_seed)
    pts = K.sample_points(samples, rng)
    bounded = np.ones(samples, dtype=bool)
    for x in iterates(map_spec, pts, n_max):
        # an overflowed norm is inf: that orbit has escaped
        with np.errstate(over="ignore"):
            bounded &= np.linalg.norm(x, axis=-1) <= radius
        if not bounded.any():
            break
    return float(np.count_nonzero(bounded) / samples)
