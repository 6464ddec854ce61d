"""Attractor blocks, basins, the decomposition identity and escape
fractions, checked against powerset and reachability oracles."""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynkit import chain_graph, conley
from dynkit.chain_graph import (TransitionGraph, build_graph,
                                chain_recurrent_boxes, component_index)
from dynkit.conley import (
    NotABlockError, _is_block, absorbed_basin, attractor_from_block,
    attractor_invariance_check, basin, build_attractor_records,
    escape_fraction, find_attractor_blocks, verify_conley_decomposition,
)
from dynkit.phase_space import BoxSet, Domain, Grid
from dynkit.system import evaluate, make_map, polynomial_map


def contraction_graph(depth=5, eps_boxes=0.25):
    g = Grid(Domain((-1.0,), (1.0,), (False,)), (depth,))
    m = make_map("contraction", c=0.5, dim=1)
    return build_graph(g, m, eps_boxes * float(g.h[0])), m


def cubic_graph(depth=8, eps_boxes=0.25):
    g = Grid(Domain((-2.0,), (2.0,), (False,)), (depth,))
    m = polynomial_map([[{"c": 1.5, "e": [1]}, {"c": -0.5, "e": [3]}]],
                       dim=1)
    return build_graph(g, m, eps_boxes * float(g.h[0])), m


def brute_force_blocks(tg):
    """Powerset oracle over all nonempty proper subsets (tiny graphs only)."""
    n = tg.nboxes
    assert n <= 12
    adj = [set(int(t) for t in tg.out(b)) for b in range(n)]
    blocks = []
    for r in range(1, n):
        for comb in itertools.combinations(range(n), r):
            U = set(comb)
            out = set().union(*(adj[b] for b in U))
            if tg.escapes[list(U)].any() or not out <= U:
                continue
            Uset = BoxSet.from_indices(tg.grid, U)
            margin = Uset - Uset.erode(1)
            if out & set(int(i) for i in margin.indices()):
                continue
            blocks.append(frozenset(U))
    return set(blocks)


def reference_blocks(g, candidates=None, extra_dilations=2, max_dilation=16,
                     max_downset_comps=12):
    """The enumeration loop as it was before closures were grown
    incrementally: each dilation depth k dilates the core from scratch,
    forward-closes it in a fresh search and tests it with `_is_block`."""
    def _forward_closure(g, seed):
        bits = g.closure(seed.bits)
        return BoxSet(g.grid, bits), bool(np.any(bits & g.escapes))

    index, m = component_index(g)
    sccs = [BoxSet(g.grid, index == i) for i in range(m)]
    blocks = []
    seen = set()

    def consider(U):
        key = np.packbits(U.bits).tobytes()
        if key not in seen and _is_block(g, U):
            seen.add(key)
            blocks.append(U)

    # reachability order between SCCs
    closures = []
    for s in sccs:
        clo, _ = _forward_closure(g, s)
        closures.append(clo)
    reach = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(m):
            if i != j and (closures[i] & sccs[j]):
                reach[i, j] = True

    if m <= max_downset_comps:
        families = []
        for mask in range(1, 1 << m):
            members = [i for i in range(m) if mask >> i & 1]
            closed = all(not reach[i, j] or (mask >> j & 1)
                         for i in members for j in range(m))
            if closed:
                families.append(members)
    else:
        # fall back to principal down-sets plus the full union
        families = []
        for i in range(m):
            fam = {i} | {j for j in range(m) if reach[i, j]}
            families.append(sorted(fam))
        families.append(list(range(m)))

    for members in families:
        base = BoxSet.empty(g.grid)
        for i in members:
            base = base | sccs[i]
        passes = 0
        for k in range(1, max_dilation + 1):
            cand, hit_sink = _forward_closure(g, base.dilate(k))
            if hit_sink or len(cand) == g.nboxes:
                break
            if _is_block(g, cand):
                consider(cand)
                passes += 1
                if passes > extra_dilations:
                    break

    if candidates is not None:
        for U in candidates:
            consider(U)

    blocks.sort(key=lambda b: (len(b), int(b.indices()[0]) if len(b) else -1))
    return blocks


@st.composite
def box_graphs(draw):
    """Random cover on a 1-D or 2-D grid, periodic or not, with eps 0.1:
    every box's rectangle is a drawn stencil around a step part of the way
    towards its nearest drawn centre, or for a few boxes a random
    rectangle, and random boxes escape.  A rectangle is clipped to a
    non-periodic window, and its box then escapes."""
    dim = draw(st.integers(1, 2))
    depth = tuple(draw(st.integers(2, 6 if dim == 1 else 4)) for _ in range(dim))
    periodic = tuple(draw(st.booleans()) for _ in range(dim))
    grid = Grid(Domain((0.0,) * dim, (1.0,) * dim, periodic), depth)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, shape = grid.nboxes, np.asarray(grid.shape)
    multi = np.stack(np.unravel_index(np.arange(n), grid.shape), axis=-1)
    centres = rng.integers(0, shape, size=(draw(st.integers(1, 3)), dim))
    nearest = np.argmin(((multi[:, None] - centres[None]) ** 2).sum(-1), axis=1)
    diff = centres[nearest] - multi
    pull = draw(st.sampled_from([0.3, 0.6, 1.0]))
    step = multi + np.sign(diff) * np.ceil(pull * np.abs(diff)).astype(np.int64)
    spread = draw(st.integers(0, 1))
    lo, hi = step - spread, step + spread
    noisy = rng.random(n) < draw(st.sampled_from([0.0, 0.03, 0.1]))
    lo[noisy] = rng.integers(0, shape, (int(noisy.sum()), dim))
    hi[noisy] = lo[noisy] + rng.integers(0, shape, (int(noisy.sum()), dim))
    escapes = rng.random(n) < draw(st.sampled_from([0.0, 0.02, 0.1]))
    for ax in range(dim):
        if not periodic[ax]:
            escapes |= (lo[:, ax] < 0) | (hi[:, ax] >= shape[ax])
            lo[:, ax] = np.maximum(lo[:, ax], 0)
            hi[:, ax] = np.minimum(hi[:, ax], shape[ax] - 1)
    return cover_graph(grid, (lo % shape).T, (hi - lo + 1).T, escapes)


def bench_cubic_graph(dim, depth, eps):
    terms = [{"c": 1.5, "e": [1]}, {"c": -0.5, "e": [3]}]
    comps = [[{"c": t["c"], "e": [0] * i + t["e"] + [0] * (dim - 1 - i)}
              for t in terms] for i in range(dim)]
    m = polynomial_map(comps, dim=dim)
    g = Grid(Domain((-2.0,) * dim, (2.0,) * dim, (False,) * dim), (depth,) * dim)
    return build_graph(g, m, eps)


def blocks_with(tg, candidates=None, **consts):
    """find_attractor_blocks with conley's enumeration constants set by
    name: extra_dilations, max_dilation, max_downset_comps."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in consts.items():
            mp.setattr(conley, "_" + name.upper(), value)
        return find_attractor_blocks(tg, candidates=candidates)


def same_blocks(got, want):
    return [U.bits.tolist() for U in got] == [U.bits.tolist() for U in want]


REGIMES = [{}, {"max_dilation": 3, "extra_dilations": 1},
           {"max_downset_comps": 1}]


class TestBlocksMatchReference:
    """The incremental enumeration against the loop it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(box_graphs(), st.sampled_from(REGIMES))
    def test_random_box_graphs(self, tg, kw):
        got = blocks_with(tg, **kw)
        assert same_blocks(got, reference_blocks(tg, **kw))
        assert all(_is_block(tg, U) for U in got)

    @pytest.mark.parametrize("dim, depth, eps", [
        (1, 12, 4.0 / 2 ** 12 / 4), (2, 6, 0.015625)])
    def test_bench_cubics(self, dim, depth, eps):
        tg = bench_cubic_graph(dim, depth, eps)
        got = find_attractor_blocks(tg)
        assert got
        assert same_blocks(got, reference_blocks(tg))
        assert all(_is_block(tg, U) for U in got)

    def test_user_candidates_are_tested_in_full(self):
        tg, _ = cubic_graph(depth=6)
        found = find_attractor_blocks(tg)
        bad = BoxSet.from_indices(tg.grid, [10, 11, 12])
        cands = [bad, found[0].copy(), BoxSet.full(tg.grid)]
        got = find_attractor_blocks(tg, candidates=cands)
        assert same_blocks(got, reference_blocks(tg, candidates=cands))
        assert same_blocks(got, found)


def cover_graph(grid, start, length, escapes, eps=0.1):
    """TransitionGraph on `grid` with the cover (start, length), integer
    arrays of shape (dim, nboxes), and the escape flags `escapes`."""
    return TransitionGraph(grid, None, eps, np.asarray(escapes, dtype=bool),
                           0.0, cover=(np.asarray(start, dtype=np.int16),
                                       np.asarray(length, dtype=np.int16)))


def towards(grid, centres, escaping=()):
    """TransitionGraph on a 1-D grid where each box steps one box towards
    its nearest centre, a range one box long, and every centre loops to
    itself; the boxes in `escaping` escape."""
    c = np.asarray(centres)
    b = np.arange(grid.nboxes)
    near = c[np.argmin(np.abs(c[None] - b[:, None]), axis=1)]
    escapes = np.zeros(grid.nboxes, dtype=bool)
    escapes[list(escaping)] = True
    return cover_graph(grid, (b + np.sign(near - b))[None],
                       np.ones((1, grid.nboxes)), escapes)


def count_closures(monkeypatch):
    """List that gets one entry per `TransitionGraph.closure` call."""
    calls = []
    real = TransitionGraph.closure
    monkeypatch.setattr(TransitionGraph, "closure",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


class TestPlaneClosure:
    """`closure_rows`, 64 rows per word closure, against `closure` of one
    bool row at a time."""

    @pytest.mark.parametrize("chunk", [1, 7, None])
    @settings(max_examples=25, deadline=None)
    @given(box_graphs(), st.sampled_from([0, 1, 64, 65, 130]), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_closure_per_row(self, chunk, tg, k, backward, seed):
        rng = np.random.default_rng(seed)
        seeds = rng.random((k, tg.nboxes)) < rng.uniform(0, 0.1, (k, 1))
        want = np.array([tg.closure(row, backward=backward)
                         for row in seeds]).reshape(k, tg.nboxes)
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(chain_graph, "_CHUNK_EDGES", chunk)
            got = tg.closure_rows(seeds, backward=backward)
        assert np.array_equal(got, want)

    def test_no_row_reads_no_edge(self):
        tg = bench_cubic_graph(1, 6, 1.0 / 64)
        got = tg.closure_rows(np.zeros((0, tg.nboxes), dtype=bool),
                              backward=True)
        assert got.shape == (0, tg.nboxes)
        assert tg._csr is None and tg._reverse is None

    def test_words_are_grown_in_place(self):
        tg = bench_cubic_graph(1, 6, 1.0 / 64)
        seeds = np.zeros(tg.nboxes, dtype=np.uint64)
        seeds[[3, 40]] = [1, 1 << 63]
        seen = np.zeros_like(seeds)
        assert tg.closure(seeds, seen=seen) is seen
        for f, box in ((0, 3), (63, 40)):
            plane = (seen >> np.uint64(f) & 1).astype(bool)
            one = np.zeros(tg.nboxes, dtype=bool)
            one[box] = True
            assert np.array_equal(plane, tg.closure(one))
        assert not np.any(seen & ~np.uint64(1 | 1 << 63))


class TestWordBatches:
    """Families run 64 per word; the blocks stay those of the reference
    loop, in its order."""

    def test_eight_attractors_fill_four_words(self, monkeypatch):
        # 8 self-looped boxes, none reaching another: every nonempty
        # subset is a down-set, 255 families in 4 word batches
        grid = Grid(Domain((0.0,), (1.0,), (False,)), (6,))
        centres = range(4, 64, 8)
        tg = towards(grid, centres)
        assert component_index(tg)[1] == 8
        batches = []
        real = conley._grow_families
        monkeypatch.setattr(conley, "_grow_families",
                            lambda g, core, k, *a: batches.append(k)
                            or real(g, core, k, *a))
        for kw in ({}, {"extra_dilations": 16}):
            batches.clear()
            got = blocks_with(tg, **kw)
            assert batches == [64, 64, 64, 63]
            assert same_blocks(got, reference_blocks(tg, **kw))
            assert all(_is_block(tg, U) for U in got)

    def test_full_dilation_stops_before_its_closure(self, monkeypatch):
        # one attractor at box 5 of 16; box 15, the last box its dilation
        # reaches, also escapes
        grid = Grid(Domain((0.0,), (1.0,), (False,)), (4,))
        tg = towards(grid, [5], escaping=[15])
        assert tg.set_escapes(BoxSet.full(grid))
        component_index(tg)
        closures = count_closures(monkeypatch)
        got = blocks_with(tg, extra_dilations=16)
        # dilations 1..9 (one SCC needs no reach closure); dilation 10
        # covers the grid and is not closed
        assert len(closures) == 9
        assert len(got) == 9
        assert same_blocks(got, reference_blocks(tg, extra_dilations=16))

    @pytest.mark.parametrize("graph", ["cat", "towards"])
    def test_one_scc_needs_no_reach_closure(self, monkeypatch, graph):
        # cat at depth 5: one SCC of every box; 64 boxes stepping towards
        # box 20: one self-looped box.  The reach matrix of one SCC is
        # [[True]]
        if graph == "cat":
            grid = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (5, 5))
            tg = build_graph(grid, make_map("cat"), grid.box_diameter)
        else:
            grid = Grid(Domain((0.0,), (1.0,), (False,)), (6,))
            tg = towards(grid, [20])
        scc_of, m = component_index(tg)
        assert m == 1
        closures = count_closures(monkeypatch)
        assert conley._scc_reach(tg, scc_of, 1).tolist() == [[True]]
        assert not closures
        got = find_attractor_blocks(tg)
        assert same_blocks(got, reference_blocks(tg))
        assert len(got) == (0 if graph == "cat" else 3)

    def test_no_family_runs_a_one_set_search(self, monkeypatch):
        tg = bench_cubic_graph(2, 5, 0.03125)
        component_index(tg)
        kinds = []
        real = chain_graph._search
        monkeypatch.setattr(
            chain_graph, "_search",
            lambda expand, seeds, *a, **k: kinds.append(seeds.dtype)
            or real(expand, seeds, *a, **k))
        got = find_attractor_blocks(tg)
        assert component_index(tg)[1] > 1 and got
        assert kinds and all(kind == np.uint64 for kind in kinds)


class TestBlocks:
    def test_contraction_blocks_are_nested_intervals(self):
        tg, _ = contraction_graph(depth=5, eps_boxes=1.0)
        blocks = find_attractor_blocks(tg)
        assert len(blocks) >= 2
        origin_box = tg.grid.box_of_point(np.array([1e-9]))
        for U in blocks:
            idx = U.indices()
            assert origin_box in U
            assert np.all(np.diff(idx) == 1)  # contiguous interval
        # the smallest block contains the origin box and nests inside all
        for big in blocks[1:]:
            assert not (blocks[0] - big)

    def test_cat_has_no_proper_block(self):
        g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (5, 5))
        tg = build_graph(g, make_map("cat"), g.box_diameter)
        assert find_attractor_blocks(tg) == []

    def test_volume_preserving_torus_maps_have_no_blocks(self):
        g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (5, 5))
        for name, params in (("standard", {"K": 0.97}), ("cat", {})):
            tg = build_graph(g, make_map(name, **params), g.box_diameter)
            assert find_attractor_blocks(tg) == [], name

    def test_translation_truncated_absorbing_set(self):
        # U0 = {y < -1/x} cup {x >= 0} truncated to the window; the block
        # property of the truncation is checked on sampled points of the
        # true map, and the box attractor lies in {y <= 0}
        g = Grid(Domain((0.0, -4.0), (8.0, 4.0), (False, False)), (6, 6))
        m = make_map("translation")
        rng = np.random.default_rng(3)
        pts = np.c_[rng.uniform(0, 8, 2000), rng.uniform(-4, 4, 2000)]

        def in_U0(p):
            x, y = p[..., 0], p[..., 1]
            return (x >= 0.0) | (y < -1.0 / np.where(x < 0, x, -1.0))

        members = pts[in_U0(pts)]
        images = evaluate(m, members)
        kept = np.all((images >= [0.0, -4.0]) & (images < [8.0, 4.0]), axis=1)
        assert np.all(in_U0(images[kept]))

        tg = build_graph(g, m, 0.05)
        U = BoxSet.full(g)  # window truncation of U0 (x >= 0 covers it all)
        A, iters = attractor_from_block(tg, U, include_sink=True)
        assert iters >= 1
        centers = tg.grid.centers()
        below = BoxSet(g, centers[:, 1] <= 0.0)
        assert not (A - below)  # A within {y <= 0} boxes

    def test_requires_positive_eps(self):
        tg, _ = contraction_graph(eps_boxes=0.0)
        with pytest.raises(ValueError):
            find_attractor_blocks(tg)

    def test_matches_powerset_oracle_on_tiny_grid(self):
        g = Grid(Domain((-1.0,), (1.0,), (False,)), (3,))
        m = make_map("contraction", c=0.5, dim=1)
        tg = build_graph(g, m, 0.5 * float(g.h[0]))
        oracle = brute_force_blocks(tg)
        found = {frozenset(int(i) for i in U.indices())
                 for U in blocks_with(tg, max_dilation=8, extra_dilations=8)}
        assert found <= oracle
        # every oracle block determines the same attractor as some found one
        def attractor_of(S):
            A, _ = attractor_from_block(tg, BoxSet.from_indices(g, S))
            return frozenset(int(i) for i in A.indices())
        assert {attractor_of(S) for S in oracle} == {attractor_of(S) for S in found}


class TestAttractorsAndBasins:
    def test_contraction_attractor_is_recurrent_core(self):
        tg, _ = contraction_graph(depth=5)
        blocks = find_attractor_blocks(tg)
        crset = chain_recurrent_boxes(tg)
        for U in blocks:
            A, iters = attractor_from_block(tg, U)
            assert A == crset
            assert iters <= tg.nboxes
            # fixpoint: one more application changes nothing
            assert tg.image_boxes(A) == A

    def test_contraction_basin_is_everything(self):
        tg, _ = contraction_graph(depth=5)
        U = find_attractor_blocks(tg)[0]
        assert basin(tg, U) == BoxSet.full(tg.grid)

    def test_attractor_iteration_is_decreasing(self):
        tg, _ = cubic_graph(depth=6)
        for U in find_attractor_blocks(tg):
            seq = [U]
            cur = U
            while True:
                nxt = tg.image_boxes(cur)
                if nxt == cur:
                    break
                assert not (nxt - cur)  # decreasing chain
                cur = nxt

    def test_containment_image_is_the_first_iterate(self, monkeypatch):
        """`iterations` image calls per block, the containment check's
        included; the attractor and the count are those of iterating the
        image from U."""
        tg, _ = cubic_graph(depth=6)
        blocks = find_attractor_blocks(tg)
        real = TransitionGraph.image_boxes
        calls = []
        monkeypatch.setattr(TransitionGraph, "image_boxes",
                            lambda g, s: calls.append(1) or real(g, s))
        for U in blocks:
            calls.clear()
            A, iters = attractor_from_block(tg, U)
            assert len(calls) == iters
            current, want = U, 0
            while True:
                nxt = real(tg, current)
                want += 1
                if nxt == current:
                    break
                current = nxt
            assert A == current and iters == want

    def test_not_a_block_raises(self):
        tg, _ = contraction_graph(depth=5)
        # a set strictly inside the attractor is not forward closed
        U = BoxSet.from_indices(tg.grid, [0, 1])
        with pytest.raises(NotABlockError):
            attractor_from_block(tg, U)

    def test_translation_basin_covers_window(self):
        g = Grid(Domain((0.0, -4.0), (8.0, 4.0), (False, False)), (5, 5))
        tg = build_graph(g, make_map("translation"), 0.05)
        # rightmost column of boxes is forward-closed into the sink tail
        centers = g.centers()
        U = BoxSet(g, centers[:, 0] >= 7.0)
        assert basin(tg, U) == BoxSet.full(g)


class TestConleyIdentity:
    def test_contraction_exact(self):
        tg, _ = contraction_graph(depth=6)
        report = verify_conley_decomposition(tg)
        assert report.n_blocks > 0
        assert report.symmetric_difference == 0

    def test_cubic_two_attractor_exact(self):
        tg, _ = cubic_graph(depth=8)
        report = verify_conley_decomposition(tg)
        assert report.n_blocks > 0
        assert report.symmetric_difference == 0

    def test_cat_trivial_identity(self):
        g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (5, 5))
        tg = build_graph(g, make_map("cat"), g.box_diameter)
        report = verify_conley_decomposition(tg)
        assert report.n_blocks == 0
        assert report.lhs_count == 0 and report.rhs_count == 0
        assert report.identity_holds

    def test_absorbed_basin_excludes_leaky_boxes(self):
        # a box carrying the repeller at 0 reaches both attracting lobes,
        # so it must not count as absorbed by either one-sided attractor
        tg, _ = cubic_graph(depth=7)
        g = tg.grid
        blocks = find_attractor_blocks(tg)
        plus = [U for U in blocks
                if g.box_of_point(np.array([1.0 - 1e-9])) in U
                and g.box_of_point(np.array([-1.0 + 1e-9])) not in U]
        assert plus
        A, _ = attractor_from_block(tg, plus[0])
        b0 = g.box_of_point(np.array([0.0]))
        assert b0 not in absorbed_basin(tg, A)
        assert b0 in basin(tg, plus[0])

    @settings(max_examples=60, deadline=None)
    @given(box_graphs(), st.data())
    def test_absorbed_basin_matches_networkx(self, tg, data):
        """A box is absorbed by A iff no forward path from it, itself
        included, meets a cycle box outside A or an escaping box."""
        n = tg.nboxes
        G = nx.DiGraph(zip(np.repeat(np.arange(n), np.diff(tg.offsets)).tolist(),
                           np.asarray(tg.targets).tolist()))
        G.add_nodes_from(range(n))
        A = BoxSet.from_indices(tg.grid, sorted(data.draw(
            st.sets(st.integers(0, n - 1), max_size=n))))
        bad = (chain_recurrent_boxes(tg).bits & ~A.bits) | tg.escapes
        want = [not any(bad[v] for v in nx.descendants(G, b) | {b})
                for b in range(n)]
        assert absorbed_basin(tg, A).bits.tolist() == want


class TestInvarianceFlags:
    def test_contraction_record_flags(self):
        tg, m = contraction_graph(depth=6)
        records = build_attractor_records(tg, m, rng_seed=5)
        assert records
        for r in records:
            assert r.flags.invariant
            assert r.flags.orbit_disjoint
            assert r.flags.boundary_forward_invariant
            assert not (r.attractor - r.block)
            assert not (r.block - r.basin)

    def test_cubic_record_flags(self):
        # the cubic 1.5x - 0.5x^3 is not injective, so the homeomorphism
        # hypothesis behind orbit-disjointness fails for blocks containing
        # the fold; records for the attracting lobes pass all flags
        tg, m = cubic_graph(depth=8)
        g = tg.grid
        repeller = g.box_of_point(np.array([0.0]))
        blocks = find_attractor_blocks(tg)
        lobe_blocks = []
        for U in blocks:
            A, _ = attractor_from_block(tg, U)
            if repeller not in A:
                lobe_blocks.append(U)
        assert lobe_blocks
        records = build_attractor_records(tg, m, blocks=lobe_blocks, rng_seed=5)
        for r in records:
            assert r.flags.invariant
            assert r.flags.orbit_disjoint, r.flags
            assert r.flags.boundary_forward_invariant

    def test_cubic_fold_block_artifact_documented(self):
        # orbits started just outside the wide block overshoot across the
        # fold into the interior of its box attractor; that is true
        # dynamics of the non-invertible map, not a flag bug
        tg, m = cubic_graph(depth=8)
        wide = find_attractor_blocks(tg)[-1]
        A, _ = attractor_from_block(tg, wide)
        assert len(A) > 100
        x = 1.0 + 3 * float(tg.grid.h[0])
        overshoot = float(evaluate(m, np.array([x]))[0])
        assert overshoot < 1.0  # crosses the fixed point from outside
        flags = attractor_invariance_check(tg, m, wide, A, rng_seed=5)
        assert flags.invariant
        assert not flags.orbit_disjoint

    def test_translation_shell_never_reenters(self):
        # y is conserved, so U0 - A orbits (y > 0) never reach {y <= 0}
        m = make_map("translation")
        rng = np.random.default_rng(0)
        pts = np.c_[rng.uniform(0, 1, 500), rng.uniform(0.01, 1, 500)]
        x = pts
        for _ in range(30):
            x = evaluate(m, x)
            assert np.all(x[:, 1] > 0)


class TestEscapeFraction:
    def K_in_unit_square(self, g):
        centers = g.centers()
        mask = (np.abs(centers[:, 0] - 0.5) < 0.5) & \
               (np.abs(centers[:, 1] - 0.5) < 0.5)
        return BoxSet(g, mask)

    def test_translation_everything_escapes(self):
        g = Grid(Domain((0.0, -4.0), (8.0, 4.0), (False, False)), (5, 5))
        K = self.K_in_unit_square(g)
        frac = escape_fraction(make_map("translation"), K, radius=10.0,
                               n_max=20, samples=500, rng_seed=1)
        assert frac == 0.0

    def test_contraction_everything_bounded(self):
        g = Grid(Domain((-1.0, -1.0), (1.0, 1.0), (False, False)), (4, 4))
        K = BoxSet.full(g)
        frac = escape_fraction(make_map("contraction", c=0.5, dim=2), K,
                               radius=10.0, n_max=50, samples=500, rng_seed=1)
        assert frac == 1.0

    def test_shear_upper_band_escapes_with_horizon(self):
        g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (False, False)), (4, 4))
        centers = g.centers()
        K = BoxSet(g, centers[:, 1] > 0.5)
        m = make_map("shear")
        fracs = [escape_fraction(m, K, radius=10.0, n_max=n, samples=400,
                                 rng_seed=2) for n in (5, 20, 40)]
        assert fracs[0] > fracs[-1]
        assert fracs[-1] == 0.0  # x grows by ~y each step, > 10 by n = 40


class TestNonCompactVerifierHonesty:
    def test_translation_identity_reports_shortfall(self):
        # no cycles means no block cores: the enumerated RHS is empty and
        # the verifier honestly reports every box as uncovered (the true
        # attractor family of the example is unbounded and unreachable
        # from any finite enumeration)
        g = Grid(Domain((0.0, -4.0), (8.0, 4.0), (False, False)), (5, 5))
        tg = build_graph(g, make_map("translation"), 0.1)
        rep = verify_conley_decomposition(tg)
        assert rep.n_blocks == 0
        assert rep.symmetric_difference == g.nboxes
        assert len(rep.lhs_only) == g.nboxes
