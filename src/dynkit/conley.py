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

from .phase_space import BoxSet
from .system import MapSpec, iterates
from .chain_graph import (TransitionGraph, _out_neighbors,
                          chain_recurrent_boxes, nontrivial_scc_sets,
                          reachable)

__all__ = [
    "NotABlockError", "AttractorFlags", "AttractorRecord", "ConleyReport",
    "find_attractor_blocks", "attractor_from_block", "basin",
    "absorbed_basin", "verify_conley_decomposition",
    "attractor_invariance_check", "build_attractor_records",
    "escape_fraction",
]


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

def _backward_closure(g: TransitionGraph, seed_nodes: np.ndarray) -> np.ndarray:
    """Nodes (boxes and sink) with a directed path into seed_nodes."""
    roff, rtarg = g.reverse()
    return reachable(roff, rtarg, seed_nodes)


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

def _downset_families(reach: np.ndarray, max_downset_comps: int) -> list:
    """Member lists of the SCC families whose cores are dilated;
    reach[i, j] says that SCC i reaches SCC j, and reach[i, i] holds.

    Up to `max_downset_comps` SCCs: every nonempty down-closed subset, in
    increasing bitmask order.  Above it: the principal down-sets, then the
    union of all SCCs.
    """
    m = reach.shape[0]
    if not m:
        return []
    if m > max_downset_comps:
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


def find_attractor_blocks(g: TransitionGraph, candidates=None,
                          extra_dilations: int = 2, max_dilation: int = 16,
                          max_downset_comps: int = 12) -> list[BoxSet]:
    """Enumerate attractor blocks at box resolution.

    Candidate cores are down-closed unions of nontrivial SCCs (in the
    reachability order of the condensation); each core is dilated layer by
    layer and forward-closed until the block test passes, which yields the
    familiar nested families of blocks around each attracting region.
    Each family grows one dilation D and one forward closure C: a new
    layer only seeds the search from D_k \\ C_{k-1}, since
    closure(D_k) = C_{k-1} | closure(D_k \\ C_{k-1}).  A family stops at
    the first closure that reaches the sink or the whole grid, or once
    `extra_dilations` blocks follow its first one.  Such a closure is
    forward-closed and sink-free, so it is a block iff no box of its
    boundary layer has a predecessor in it.  User-supplied candidate box
    sets are tested in full, and blocks already found are not repeated.

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
    # reach[i, j]: SCC i reaches SCC j; column m gathers everything else
    reach = np.zeros((m, m + 1), dtype=bool)
    for i, s in enumerate(sccs):
        reach[i, scc_of[reachable(g.offsets, g.targets, s.indices())]] = True

    roff, rtarg = g.reverse()
    for members in _downset_families(reach[:, :m], max_downset_comps):
        core = np.zeros(m + 1, dtype=bool)
        core[members] = True
        dilated = BoxSet(g.grid, core[scc_of[:g.nboxes]])
        closure = np.zeros(g.n_nodes, dtype=bool)
        passes = 0
        for _ in range(max_dilation):
            dilated = dilated.dilate(1)
            reachable(g.offsets, g.targets,
                      np.flatnonzero(dilated.bits & ~closure[:g.nboxes]),
                      seen=closure)
            U = BoxSet(g.grid, closure[:g.nboxes].copy())
            if closure[g.sink] or len(U) == g.nboxes:
                break
            margin = U - U.erode(1)
            if not closure[_out_neighbors(roff, rtarg, margin.indices())].any():
                add(U)
                passes += 1
                if passes > extra_dilations:
                    break

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


def basin(g: TransitionGraph, U: BoxSet) -> BoxSet:
    """Boxes with a directed path into U (U included)."""
    bits = _backward_closure(g, U.indices())
    return BoxSet(g.grid, bits[:g.nboxes])


def absorbed_basin(g: TransitionGraph, A: BoxSet) -> BoxSet:
    """Boxes every forward path from which is eventually trapped in A.

    Complement of the backward closure of the bad nodes: cycle boxes
    outside A, plus the sink.
    """
    bad = chain_recurrent_boxes(g) - A
    reached = _backward_closure(g, np.append(bad.indices(), g.sink))
    return BoxSet(g.grid, ~reached[:g.nboxes])


def verify_conley_decomposition(g: TransitionGraph, blocks=None) -> ConleyReport:
    """Compare complement-of-recurrence with the union of basin minus
    attractor over the enumerated blocks.

    Basins enter as absorbed basins; backward-reachability basins count
    boxes that merely straddle basin boundaries and would break the exact
    identity at any finite resolution.
    """
    if blocks is None:
        blocks = find_attractor_blocks(g)
    lhs = chain_recurrent_boxes(g).complement()
    rhs = BoxSet.empty(g.grid)
    for U in blocks:
        A, _ = attractor_from_block(g, U)
        rhs = rhs | (absorbed_basin(g, A) - A)
    lhs_only = lhs - rhs
    rhs_only = rhs - lhs
    return ConleyReport(len(blocks), len(lhs), len(rhs),
                        len(lhs_only) + len(rhs_only), lhs_only, rhs_only)


# ---------------------------------------------------------------------------
# invariance and escape diagnostics
# ---------------------------------------------------------------------------

def attractor_invariance_check(g: TransitionGraph, map_spec: MapSpec,
                               block: BoxSet, attractor: BoxSet,
                               n_samples: int = 1000, n_iter: int = 50,
                               rng_seed: int = 0) -> AttractorFlags:
    """Sampled invariance flags for an attractor record.

    (i) the box image of A equals A; (ii) true orbits started in U - A
    never land in the strict interior of A (interior minus a one-box
    collar); (iii) points started in boundary boxes of A stay out of that
    strict interior after one step.
    """
    rng = np.random.default_rng(rng_seed)
    invariant = g.image_boxes(attractor) == attractor

    forbidden = attractor.erode(2)
    forbidden_bits = forbidden.bits

    def count_violations(region: BoxSet, steps: int) -> int:
        if not region or not forbidden:
            return 0
        pts = region.sample_points(n_samples, rng)
        bad = 0
        for img in iterates(map_spec, pts, steps):
            boxes = g.grid.boxes_of_points(img)
            inside = boxes >= 0
            bad += int(np.count_nonzero(forbidden_bits[boxes[inside]]))
        return bad

    shell = block - attractor
    orbit_bad = count_violations(shell, n_iter)
    boundary_bad = count_violations(attractor.boundary(), 1)
    return AttractorFlags(
        invariant=bool(invariant),
        orbit_disjoint=orbit_bad == 0,
        boundary_forward_invariant=boundary_bad == 0,
        orbit_violations=orbit_bad,
        boundary_violations=boundary_bad,
    )


def build_attractor_records(g: TransitionGraph, map_spec: MapSpec,
                            blocks=None, n_samples: int = 1000,
                            n_iter: int = 50, rng_seed: int = 0,
                            include_sink: bool = False) -> list[AttractorRecord]:
    if blocks is None:
        blocks = find_attractor_blocks(g)
    records = []
    for U in blocks:
        A, iters = attractor_from_block(g, U, include_sink=include_sink)
        B = basin(g, U)
        flags = attractor_invariance_check(g, map_spec, U, A,
                                           n_samples=n_samples, n_iter=n_iter,
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
        bounded &= np.linalg.norm(x, axis=-1) <= radius
        if not bounded.any():
            break
    return float(np.count_nonzero(bounded) / samples)
