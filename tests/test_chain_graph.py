"""Transition graphs, chain recurrence, chain components, chains and
nonwandering probes, checked against brute-force graph oracles."""

import contextlib
import dataclasses
import time
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynkit import chain_graph
from dynkit.chain_graph import (
    ConstantEps, RadialEps, TransitionGraph, _bfs_path, _cover_search,
    _edge_expand, _search, build_graph, chain_components,
    chain_recurrent_boxes, is_chain_transitive,
    nonwandering_probe, strong_chain_search,
)
from dynkit.phase_space import MAX_DEPTH, BoxSet, Domain, Grid
from dynkit.system import evaluate, make_map, polynomial_map


def torus_grid(depth):
    return Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (depth, depth))


def marks(n, seeds):
    """Bool marks of the nodes in `seeds` among n."""
    bits = np.zeros(n, dtype=bool)
    bits[np.asarray(seeds, dtype=np.intp)] = True
    return bits


def csr_scc(offsets, targets, n):
    """SCC labels of an n-node CSR alone: `_scc` with the pivot that
    `TransitionGraph.scc_labels` takes, the first of largest out-degree x
    in-degree, and `_search` along the edges and the transposed edges."""
    reverse = chain_graph._transpose(offsets, targets, n)
    pivot = int(np.argmax(np.diff(offsets) * np.diff(reverse[0])))

    def search(seeds, seen=None, max_layers=None, backward=False):
        edges = reverse if backward else (offsets, targets)
        return _search(_edge_expand(*edges), seeds, seen, max_layers)
    return chain_graph._scc(n, targets.size, pivot, search,
                            lambda: (offsets, targets))


def reference_bfs_path(g, sources, target, max_len=None):
    """One-node-at-a-time BFS over `g.out(v)`: the queue `_bfs_path`
    must reproduce path for path."""
    prev = np.full(g.nboxes, -2, dtype=np.int64)
    queue = sorted(int(s) for s in sources)
    for s in queue:
        prev[s] = -1
    depth = {s: 1 for s in queue}
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        if v == target:
            path = [v]
            while prev[v] != -1:
                v = int(prev[v])
                path.append(v)
            return path[::-1]
        if max_len is not None and depth[v] >= max_len:
            continue
        for w in g.out(v):
            w = int(w)
            if prev[w] != -2:
                continue
            prev[w] = v
            depth[w] = depth[v] + 1
            queue.append(w)
    return None


def brute_force_cycle_boxes(g):
    """Independent oracle: boxes on a directed cycle via per-node DFS
    reachability (no Tarjan)."""
    n = g.nboxes
    adj = [set(int(t) for t in g.out(b)) for b in range(n)]
    on_cycle = set()
    for b in range(n):
        seen = set()
        stack = list(adj[b])
        while stack:
            v = stack.pop()
            if v == b:
                on_cycle.add(b)
                break
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v])
    return on_cycle


class TestBuildGraph:
    def test_cat_edge_counts_depth6(self):
        g = torus_grid(6)
        tg = build_graph(g, make_map("cat"), g.box_diameter)
        deg = tg.out_degrees()
        assert 2 <= deg.min() and deg.max() <= 100
        # regression values from the first run of this configuration
        assert deg.min() == 42 and deg.max() == 42
        assert tg.n_edges == 172033

    def test_contraction_images_shrink(self):
        g = Grid(Domain((-1.0,), (1.0,), (False,)), (4,))
        m = make_map("contraction", c=0.5, dim=1)
        tg = build_graph(g, m, 0.0)
        # the image of [a, b] is [a/2, b/2]; every out-neighbor must cover it
        for b in range(g.nboxes):
            center, radius = g.box_geometry(b)
            img_lo, img_hi = 0.5 * (center - radius), 0.5 * (center + radius)
            covered_lo = min(g.box_geometry(int(t))[0][0] - radius[0]
                             for t in tg.out(b))
            covered_hi = max(g.box_geometry(int(t))[0][0] + radius[0]
                             for t in tg.out(b))
            assert covered_lo <= img_lo[0] and img_hi[0] <= covered_hi

    def test_translation_right_edge_hits_sink_only(self):
        g = Grid(Domain((0.0, 0.0), (4.0, 1.0), (False, False)), (4, 4))
        tg = build_graph(g, make_map("translation"), 0.0)
        for b in range(g.nboxes):
            center, _ = g.box_geometry(b)
            if center[0] >= 3.0:
                assert tg.out(b).size == 0 and tg.escapes[b]

    def test_non_finite_image_rectangle_refused(self):
        g = Grid(Domain((-1e3,), (1e3,), (False,)), (4,))
        m = polynomial_map([[{"c": 1e308, "e": [3]}]], 1)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite image"):
            build_graph(g, m, 0.0)

    def test_map_without_entrywise_jacobian_bound_refused(self):
        # a hand-built map: the box spreads need jac_abs_bound
        g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (3, 3))
        m = dataclasses.replace(make_map("cat"), jac_abs_bound=None)
        with pytest.raises(ValueError, match="jac_abs_bound"):
            build_graph(g, m, 0.1)

    def test_image_past_int64_box_indices_keeps_its_edges(self):
        # x -> 1e300 x on [-1, 1], 8 boxes: box 4 = [0, 0.25) maps onto
        # [0, 2.5e299), which covers boxes 4-7 and leaves the window; its
        # upper box index, about 1e300, once cast to int64 as garbage
        g = Grid(Domain((-1.0,), (1.0,), (False,)), (3,))
        m = polynomial_map([[{"c": 1e300, "e": [1]}]], 1)
        tg = build_graph(g, m, 0.0)
        assert list(tg.out(4)) == [4, 5, 6, 7]
        assert list(tg.out(3)) == [0, 1, 2, 3]
        assert all(tg.out(b).size == 0 for b in (0, 1, 2, 5, 6, 7))
        assert tg.escapes.all()

    def test_soundness_random_perturbations(self):
        # 1000 random points per graph: f(x) + u lands in an out-neighbor
        rng = np.random.default_rng(2024)
        cases = [
            (make_map("cat"), torus_grid(4), 0.01),
            (make_map("standard", K=0.9), torus_grid(4), 0.02),
            (make_map("linear", a=2.0, b=0.5),
             Grid(Domain((-1.0, -1.0), (1.0, 1.0), (False, False)), (4, 4)), 0.05),
        ]
        for m, g, eps in cases:
            tg = build_graph(g, m, eps)
            pts = BoxSet.full(g).sample_points(1000, rng)
            boxes = g.boxes_of_points(pts)
            imgs = evaluate(m, pts)
            u = rng.normal(size=pts.shape)
            u *= (eps * rng.random(pts.shape[0]) ** 0.5 /
                  np.linalg.norm(u, axis=1))[:, None]
            landed = g.boxes_of_points(g.domain.wrap(imgs + u)
                                       if all(g.domain.periodic) else imgs + u)
            for b, t in zip(boxes, landed):
                outs = set(int(x) for x in tg.out(int(b)))
                assert (int(t) in outs) or (t < 0 and tg.escapes[b])

    def test_edge_monotonicity_in_eps(self):
        g = torus_grid(4)
        m = make_map("standard", K=0.9)
        t1 = build_graph(g, m, 0.005)
        t2 = build_graph(g, m, 0.02)
        for b in range(g.nboxes):
            assert set(map(int, t1.out(b))) <= set(map(int, t2.out(b)))
        assert chain_recurrent_boxes(t1).bits.sum() <= \
            chain_recurrent_boxes(t2).bits.sum()


class TestChainRecurrence:
    def test_cat_all_boxes_recurrent(self):
        # conclusion check: volume preserving on the torus, one big SCC
        g = torus_grid(6)
        tg = build_graph(g, make_map("cat"), g.box_diameter)
        crset = chain_recurrent_boxes(tg)
        assert len(crset) == g.nboxes
        assert len(chain_components(tg)) == 1

    def test_translation_empty(self):
        g = Grid(Domain((0.0, -4.0), (8.0, 4.0), (False, False)), (5, 5))
        tg = build_graph(g, make_map("translation"), 0.1)
        assert len(chain_recurrent_boxes(tg)) == 0
        assert chain_components(tg) == []

    def test_contraction_matches_brute_force(self):
        g = Grid(Domain((-1.0,), (1.0,), (False,)), (4,))
        tg = build_graph(g, make_map("contraction", c=0.5, dim=1), 0.0)
        oracle = brute_force_cycle_boxes(tg)
        assert set(chain_recurrent_boxes(tg).indices()) == oracle
        # exactly the boxes whose closure touches the fixed point 0
        assert oracle == {g.box_of_point(np.array([-1e-9])),
                          g.box_of_point(np.array([1e-9]))}

    def test_linear_recurrence_is_origin_boxes(self):
        # the recurrent part is exactly the four boxes whose closure holds
        # the saddle at 0; with per-axis entrywise fattening the quadrant
        # invariance of (2x, y/2) survives discretization, so each box is
        # its own component
        g = Grid(Domain((-1.0, -1.0), (1.0, 1.0), (False, False)), (4, 4))
        tg = build_graph(g, make_map("linear", a=2.0, b=0.5), 0.0)
        oracle = brute_force_cycle_boxes(tg)
        comps = chain_components(tg)
        assert set(chain_recurrent_boxes(tg).indices()) == oracle
        origin_boxes = {g.box_of_point(np.array([sx * 1e-9, sy * 1e-9]))
                        for sx in (-1, 1) for sy in (-1, 1)}
        assert oracle == origin_boxes
        assert {int(c.boxes.indices()[0]) for c in comps} == origin_boxes

    def test_standard_chain_transitive(self):
        g = torus_grid(6)
        tg = build_graph(g, make_map("standard", K=0.971635), g.box_diameter)
        assert is_chain_transitive(tg)

    def test_contraction_not_transitive(self):
        g = Grid(Domain((-1.0,), (1.0,), (False,)), (4,))
        tg = build_graph(g, make_map("contraction", c=0.5, dim=1), 0.0)
        assert not is_chain_transitive(tg)

    def test_components_partition_recurrent_boxes(self):
        g = Grid(Domain((-2.0,), (2.0,), (False,)), (6,))
        from dynkit.system import polynomial_map
        cubic = polynomial_map([[{"c": 1.5, "e": [1]}, {"c": -0.5, "e": [3]}]],
                               dim=1)
        tg = build_graph(g, cubic, 0.25 * float(g.h[0]))
        crset = chain_recurrent_boxes(tg)
        comps = chain_components(tg)
        union = BoxSet.empty(g)
        total = 0
        for c in comps:
            assert not (union & c.boxes)  # disjoint
            union = union | c.boxes
            total += len(c.boxes)
        assert union == crset and total == len(crset)

    def test_refinement_coarsening_containment(self):
        m = make_map("standard", K=0.9)
        fine = torus_grid(5)
        coarse = torus_grid(4)
        eps = coarse.box_diameter * 0.3
        cr_fine = chain_recurrent_boxes(build_graph(fine, m, eps))
        cr_coarse = chain_recurrent_boxes(build_graph(coarse, m, eps))
        assert not (cr_fine.coarsen(coarse) - cr_coarse)


class TestNonwandering:
    def test_cat_fixed_point_box_returns_immediately(self):
        g = torus_grid(5)
        m = make_map("cat")
        b = g.box_of_point(np.zeros(2))
        res = nonwandering_probe(m, g, b, 64)
        assert res.returned and res.steps == 1

    def test_cat_every_box_returns(self):
        g = torus_grid(5)
        m = make_map("cat")
        tg = build_graph(g, m, 0.0)
        worst = 0
        for b in range(g.nboxes):
            res = nonwandering_probe(m, g, b, 64, graph=tg)
            assert res.returned, f"box {b} did not return"
            worst = max(worst, res.steps)
        assert worst <= 16  # regression: expansion covers the torus quickly

    def test_translation_interior_box_never_returns(self):
        g = Grid(Domain((0.0, 0.0), (8.0, 1.0), (False, False)), (5, 3))
        m = make_map("translation")
        b = g.box_of_point(np.array([1.1, 0.5]))
        res = nonwandering_probe(m, g, b, 40)
        assert not res.returned


class TestStrongChains:
    def test_fixed_point_trivial_chain(self):
        m = make_map("contraction", c=0.5, dim=2)
        g = Grid(Domain((-1.0, -1.0), (1.0, 1.0), (False, False)), (4, 4))
        chain = strong_chain_search(m, np.zeros(2), ConstantEps(0.05), g)
        assert chain is not None and len(chain) == 1

    def test_cat_strongly_chain_recurrent(self):
        m = make_map("cat")
        g = torus_grid(5)
        for p in (np.array([0.21, 0.34]), np.array([0.9, 0.05])):
            chain = strong_chain_search(m, p, ConstantEps(0.05), g)
            assert chain is not None
            assert np.all(chain.defects < chain.thresholds)

    def test_translation_never_strongly_recurrent(self):
        m = make_map("translation")
        g = Grid(Domain((0.0, 0.0), (8.0, 8.0), (False, False)), (5, 5))
        for eps_fn in (ConstantEps(0.1), RadialEps(0.5)):
            for p in (np.array([0.5, 4.0]), np.array([4.2, 2.2]),
                      np.array([7.3, 6.6])):
                assert strong_chain_search(m, p, eps_fn, g) is None

    def test_radial_eps_min_over_rect(self):
        fn = RadialEps(0.5)
        lo = np.array([[1.0, 0.0]])
        hi = np.array([[2.0, 1.0]])
        # farthest corner is (2, 1): |x| = sqrt(5)
        assert np.allclose(fn.min_over_rects(lo, hi),
                           0.5 / (1.0 + np.sqrt(5.0)))


class TestGraphInvariants:
    def test_every_box_has_an_out_edge(self):
        cases = [
            (make_map("cat"), torus_grid(4), 0.0),
            (make_map("translation"),
             Grid(Domain((0.0, 0.0), (4.0, 1.0), (False, False)), (4, 4)), 0.0),
            (make_map("linear", a=2.0, b=0.5),
             Grid(Domain((-1.0, -1.0), (1.0, 1.0), (False, False)), (4, 4)), 0.05),
        ]
        for m, g, eps in cases:
            tg = build_graph(g, m, eps)
            assert int(tg.out_degrees().min()) >= 1
            # a box with no box edge escapes
            assert tg.escapes[np.diff(tg.offsets) == 0].all()

    def test_out_edges_sorted_ascending(self):
        g = torus_grid(4)
        tg = build_graph(g, make_map("standard", K=0.9), 0.01)
        for b in range(0, g.nboxes, 17):
            row = tg.out(b)
            assert np.all(np.diff(row) > 0)


@st.composite
def csr_graphs(draw):
    """(offsets, targets, n, edges) of a random n-node digraph, 1 <= n <=
    32, in the CSR layout of a `TransitionGraph`: sorted distinct
    out-edges, self loops allowed."""
    n = draw(st.integers(1, 32))
    edges = sorted(draw(st.sets(st.tuples(st.integers(0, n - 1),
                                          st.integers(0, n - 1)),
                                max_size=4 * n)))
    return (*csr_from_edges(edges, n), n, edges)


def digraph(n, edges):
    """networkx digraph on the nodes 0..n-1 with `edges`."""
    G = nx.DiGraph(edges)
    G.add_nodes_from(range(n))
    return G


@st.composite
def cover_ranges(draw):
    """A 1-3-D grid of at most 64 boxes and per-box inclusive index ranges
    as `_cover_ranges` may return them.  A periodic range starts anywhere
    in [-size, 2 size) and spans 1 to size boxes, so it may wrap either
    way or cover the whole axis from any start; a non-periodic range lies
    in the window.  Rows may be empty (nothing in the window)."""
    dim = draw(st.integers(1, 3))
    depths = draw(st.lists(st.integers(0, 6 // dim), min_size=dim,
                           max_size=dim))
    periodic = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    grid = Grid(Domain((0.0,) * dim, (1.0,) * dim, tuple(periodic)),
                tuple(depths))
    ilo = np.empty((grid.nboxes, dim), dtype=np.int64)
    ihi = np.empty_like(ilo)
    for ax, size in enumerate(grid.shape):
        if periodic[ax]:
            lo = draw(st.lists(st.integers(-size, 2 * size - 1),
                               min_size=grid.nboxes, max_size=grid.nboxes))
            c = draw(st.lists(st.integers(1, size), min_size=grid.nboxes,
                              max_size=grid.nboxes))
            ilo[:, ax] = lo
            ihi[:, ax] = ilo[:, ax] + np.asarray(c) - 1
        else:
            pairs = draw(st.lists(st.tuples(st.integers(0, size - 1),
                                            st.integers(0, size - 1)),
                                  min_size=grid.nboxes, max_size=grid.nboxes))
            ilo[:, ax] = [min(p) for p in pairs]
            ihi[:, ax] = [max(p) for p in pairs]
    flags = st.lists(st.booleans(), min_size=grid.nboxes, max_size=grid.nboxes)
    empty = np.asarray(draw(flags), dtype=bool) & (not all(periodic))
    return grid, ilo, ihi, empty


def to_cover(grid, ilo, ihi, empty):
    """(start, length) of the inclusive ranges [ilo, ihi] as
    `TransitionGraph.cover` holds them: int16 arrays of shape (dim, n),
    each start taken mod its axis, length 0 on every axis of an empty
    row."""
    start = (ilo % np.asarray(grid.shape)).T.astype(np.int16)
    length = (ihi - ilo + 1).T.astype(np.int16)
    length[:, empty] = 0
    return start, length


def cover_edges(tg):
    """Sorted (source, target) edge list of the cover of tg, written by
    the lattice reference."""
    start, length = (a.T.astype(np.int64) for a in tg.cover)
    offsets, targets = reference_materialize(tg.grid, start,
                                             start + length - 1,
                                             ~length.all(axis=1))
    return list(zip(np.repeat(np.arange(tg.nboxes), np.diff(offsets)).tolist(),
                    targets.tolist()))


@st.composite
def escape_cases(draw, bits=6):
    """A 1-3-D grid of at most 2^bits boxes on the unit cube, some axes
    periodic, a `poly` map whose component a is c0 + c1 x_a + c2 x_{a+1} +
    c3 x_a^3 with dyadic coefficients, and a dyadic eps.  Every image
    rectangle is then exact in floating point."""
    dim = draw(st.integers(1, 3))
    depths = draw(st.lists(st.integers(0, min(bits // dim, MAX_DEPTH)),
                           min_size=dim, max_size=dim))
    periodic = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    grid = Grid(Domain((0.0,) * dim, (1.0,) * dim, tuple(periodic)),
                tuple(depths))
    coef = st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5])
    unit = np.eye(dim, dtype=int)
    components = [[{"c": draw(coef), "e": [0] * dim},
                   {"c": draw(coef), "e": unit[a].tolist()},
                   {"c": draw(coef), "e": unit[(a + 1) % dim].tolist()},
                   {"c": draw(coef), "e": (3 * unit[a]).tolist()}]
                  for a in range(dim)]
    eps = draw(st.sampled_from([0.0, 2.0 ** -6, 2.0 ** -3]))
    return grid, polynomial_map(components, dim), eps


def cover_graph(grid, ilo, ihi, empty, escapes):
    """TransitionGraph holding the ranges of `cover_ranges` as a cover;
    the empty rows escape, and so do the rows flagged in `escapes`."""
    return TransitionGraph(grid, None, 0.0, empty | escapes, 0.0,
                           cover=to_cover(grid, ilo, ihi, empty))


def torus_cover_graph(name, params, depth):
    grid = torus_grid(depth)
    return build_graph(grid, make_map(name, **params), grid.box_diameter)


@st.composite
def covered_graphs(draw):
    """Graphs with a cover: random ranges that wrap from any start (as in
    `cover_ranges`) with escape flags drawn apart from them, built graphs
    of dyadic `poly` maps in 1-3 D, periodic and not (as in
    `escape_cases`), and cat and standard torus grids."""
    kind = draw(st.sampled_from(["ranges", "poly", "torus"]))
    if kind == "ranges":
        grid, ilo, ihi, empty = draw(cover_ranges())
        flags = draw(st.integers(0, 2 ** grid.nboxes - 1))
        escapes = np.array([flags >> b & 1 for b in range(grid.nboxes)],
                           dtype=bool)
        return cover_graph(grid, ilo, ihi, empty, escapes)
    if kind == "poly":
        grid, m, eps = draw(escape_cases())
        return build_graph(grid, m, eps)
    return torus_cover_graph(*draw(st.sampled_from([
        ("cat", {}, 3), ("standard", {"K": 0.97}, 4),
        ("standard", {"K": 0.3}, 3)])))


def layered_oracle(G, seeds, seen):
    """(nodes, layers) of a search from `seeds` that treats the nodes of
    the bool array `seen` as explored: `seen` plus the nodes at a finite
    distance from the fresh seeds in G without `seen`, and the layers the
    search needs, the largest such distance plus one (0 without a fresh
    seed)."""
    fresh = {s for s in seeds if not seen[s]}
    H = G.subgraph(np.flatnonzero(~seen).tolist())
    dist = nx.multi_source_dijkstra_path_length(H, fresh) if fresh else {}
    return (set(np.flatnonzero(seen).tolist()) | set(dist),
            max(dist.values(), default=-1) + 1)


def plane(words, f):
    return (words >> np.uint64(f) & 1).astype(bool)


class TestSccOracle:
    """SCC labels and searches against networkx: `_scc` and `_search` on
    random digraphs, the graph queries on random covers."""

    @settings(max_examples=200, deadline=None)
    @given(csr_graphs())
    def test_csr_partition_matches_networkx(self, case):
        assert_scc_matches_networkx(*case)

    @settings(max_examples=100, deadline=None)
    @given(covered_graphs())
    def test_partition_and_nontrivial_set_match_networkx(self, tg):
        edges = cover_edges(tg)
        G = digraph(tg.nboxes, edges)
        labels = tg.scc_labels()
        n_comp = int(labels.max()) + 1
        ours = {frozenset(np.flatnonzero(labels == c).tolist())
                for c in range(n_comp)}
        want = {frozenset(c) for c in nx.strongly_connected_components(G)}
        assert ours == want and n_comp == len(want)
        # labels follow reverse topological order of the condensation
        for u, v in edges:
            assert labels[u] >= labels[v]
        expected = [c for c in nx.strongly_connected_components(G)
                    if len(c) > 1 or G.has_edge(next(iter(c)), next(iter(c)))]
        cr = chain_recurrent_boxes(tg)
        assert set(cr.indices().tolist()) == set().union(*expected)
        comps = chain_components(tg)
        assert [set(c.boxes.indices().tolist()) for c in comps] == \
            sorted(expected, key=min)
        assert is_chain_transitive(tg) == nx.is_strongly_connected(G)

    @pytest.mark.parametrize("backward", [False, True])
    @settings(max_examples=200, deadline=None)
    @given(csr_graphs(), st.data())
    def test_search_layers_and_seen_match_networkx(self, backward, case,
                                                   data):
        """Bool marks along or against the edges, with repeated seeds, a
        `seen` mask and a layer cap: the nodes at distance k from the
        seeds outside `seen`, in the graph without `seen`, form layer k;
        more than `max_layers` layers give None."""
        offsets, targets, n, edges = case
        G = digraph(n, edges)
        if backward:
            G = G.reverse()
        seeds = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
        seen = marks(n, data.draw(st.lists(st.integers(0, n - 1),
                                           max_size=n)))
        cap = data.draw(st.none() | st.integers(0, 6))
        want, layers = layered_oracle(G, seeds, seen)
        mask = seen.copy()
        edges_used = chain_graph._transpose(offsets, targets, n) \
            if backward else (offsets, targets)
        got = _search(_edge_expand(*edges_used), marks(n, seeds), mask, cap)
        if cap is not None and layers > cap:
            assert got is None
        else:
            assert got is mask
            assert set(np.flatnonzero(got).tolist()) == want

    @pytest.mark.parametrize("backward", [False, True])
    @settings(max_examples=100, deadline=None)
    @given(csr_graphs(), st.integers(1, 64), st.data())
    def test_word_search_matches_networkx_per_plane(self, backward, case, k,
                                                    data):
        """uint64 marks, one node set per bit, each with its own seeds and
        `seen` plane: every plane is the bool search of that plane, and
        the layer cap counts the layers of the deepest plane."""
        offsets, targets, n, edges = case
        G = digraph(n, edges)
        if backward:
            G = G.reverse()
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        bits = np.uint64(1) << np.arange(k, dtype=np.uint64)
        pick = lambda p: np.bitwise_or.reduce(
            np.where(rng.random((n, k)) < p, bits, np.uint64(0)), axis=1)
        seeds, seen = pick(0.1), pick(data.draw(st.sampled_from([0, 0.2])))
        cap = data.draw(st.none() | st.integers(0, 6))
        oracle = [layered_oracle(G, np.flatnonzero(plane(seeds, f)),
                                 plane(seen, f)) for f in range(k)]
        words = seen.copy()
        edges_used = chain_graph._transpose(offsets, targets, n) \
            if backward else (offsets, targets)
        got = _search(_edge_expand(*edges_used), seeds, words, cap)
        if cap is not None and max(layers for _, layers in oracle) > cap:
            assert got is None
        else:
            assert got is words
            for f, (want, _) in enumerate(oracle):
                assert set(np.flatnonzero(plane(got, f)).tolist()) == want
            if k < 64:
                assert not np.any(got >> np.uint64(k))

    @settings(max_examples=100, deadline=None)
    @given(covered_graphs(), st.data())
    def test_closures_match_networkx(self, tg, data):
        n = tg.nboxes
        G = digraph(n, cover_edges(tg))
        seeds = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
        want = set(seeds).union(*(nx.descendants(G, s) for s in seeds))
        got = tg.closure(marks(n, sorted(seeds)))
        assert set(np.flatnonzero(got).tolist()) == want
        # growing a forward-closed mask in place by more seeds
        more = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
        grown = tg.closure(marks(n, more), seen=got)
        assert grown is got
        assert set(np.flatnonzero(grown).tolist()) == \
            want.union(more, *(nx.descendants(G, s) for s in more))
        # the nodes of a `seen` that is not closed are not expanded
        seen = marks(n, data.draw(st.lists(st.integers(0, n - 1),
                                           max_size=n)))
        mask = seen.copy()
        assert tg.closure(marks(n, sorted(seeds)), seen=mask) is mask
        assert set(np.flatnonzero(mask).tolist()) == \
            layered_oracle(G, seeds, seen)[0]
        back = tg.closure(marks(n, sorted(seeds)), backward=True)
        want = set(seeds).union(*(nx.ancestors(G, s) for s in seeds))
        assert set(np.flatnonzero(back).tolist()) == want
        members = BoxSet.from_indices(tg.grid, sorted(seeds))
        assert set(tg.image_boxes(members).indices().tolist()) == \
            {v for u in seeds for v in G.successors(u)}
        assert tg.set_escapes(members) == any(tg.escapes[u] for u in seeds)

    @settings(max_examples=100, deadline=None)
    @given(covered_graphs(), st.data())
    def test_entered_planes_match_the_edges(self, tg, data):
        """Bit f: an edge from a box of set f of `sets` into a box of set
        f of `boxes`, read off the edge list."""
        n = tg.nboxes
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        k = data.draw(st.integers(1, 64))
        # the AND of two draws leaves a quarter of the bits
        boxes, sets = (np.bitwise_and.reduce(
            rng.integers(0, 2 ** k, (2, n), dtype=np.uint64))
            for _ in range(2))
        want = 0
        for u, v in cover_edges(tg):
            want |= int(boxes[v] & sets[u])
        assert tg.entered_planes(boxes, sets) == want

    def test_scc_labels_computed_once_per_graph(self, monkeypatch):
        from dynkit import chain_graph
        calls = []
        real = chain_graph._scc
        monkeypatch.setattr(chain_graph, "_scc",
                            lambda *a: calls.append(1) or real(*a))
        tg = build_graph(torus_grid(4), make_map("standard", K=0.9), 0.01)
        chain_recurrent_boxes(tg)
        chain_components(tg)
        is_chain_transitive(tg)
        assert len(calls) == 1


def reference_transpose(offsets, targets, n):
    """The stable-argsort transpose the packed-key sort replaced: sources
    ascend in CSR order, so a stable sort by target orders the transposed
    edges by (target, source)."""
    order = np.argsort(targets, kind="stable")
    rtarg = np.repeat(np.arange(n), np.diff(offsets))[order]
    roff = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=n), out=roff[1:])
    return roff, rtarg


def assert_transpose_matches_reference(offsets, targets, n, transposed):
    roff, rtarg = transposed
    want_off, want_targ = reference_transpose(offsets, targets, n)
    assert roff.dtype == np.int64 and rtarg.dtype == np.int32
    assert roff.tobytes() == want_off.tobytes()
    assert rtarg.tobytes() == want_targ.astype(np.int32).tobytes()


def identity_graph(depth):
    """The identity on [-1, 1]^2 at eps = half a box width: each box steps
    to its 3 x 3 neighborhood and the border boxes escape."""
    m = polynomial_map([[{"c": 1.0, "e": [1, 0]}], [{"c": 1.0, "e": [0, 1]}]],
                       2)
    grid = Grid(Domain((-1.0, -1.0), (1.0, 1.0), (False, False)), depth)
    return build_graph(grid, m, float(grid.h[0]) / 2)


class TestTranspose:
    """The packed-key transpose and the frontier slices of the edge
    searches."""

    @pytest.mark.parametrize("chunk", [1, 7])
    @settings(max_examples=50, deadline=None)
    @given(case=csr_graphs())
    def test_transpose_matches_stable_argsort(self, chunk, case):
        offsets, targets, n, _ = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chain_graph, "_CHUNK_EDGES", chunk)
            assert_transpose_matches_reference(
                offsets, targets, n,
                chain_graph._transpose(offsets, targets, n))

    @pytest.mark.parametrize("chunk", [1, 7])
    @settings(max_examples=50, deadline=None)
    @given(case=csr_graphs())
    def test_int64_keys_match_stable_argsort(self, chunk, case):
        offsets, targets, n, _ = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chain_graph, "_CHUNK_EDGES", chunk)
            mp.setattr(chain_graph, "_NARROW_NODES", 0)
            assert_transpose_matches_reference(
                offsets, targets, n,
                chain_graph._transpose(offsets, targets, n))

    @pytest.mark.parametrize("make, narrow, escaping", [
        (lambda: build_graph(torus_grid(8), make_map("cat"), 0.0), True, False),
        (lambda: identity_graph((8, 8)), True, True),
        (lambda: identity_graph((9, 8)), False, True),
    ], ids=["2^16-closed", "2^16-escaping", "2^17-escaping"])
    def test_both_key_widths_match_stable_argsort(self, make, narrow,
                                                  escaping):
        """2^16 boxes take the uint32 keys, with and without escaping
        boxes; 2^17 boxes take the int64 keys.  The identity graphs hold
        the edge from box 2^16 - 1 to itself, whose uint32 key is the
        largest one."""
        tg = make()
        assert (tg.nboxes <= chain_graph._NARROW_NODES) == narrow
        assert (tg.escaping_boxes() > 0) == escaping
        assert tg.self_loop_mask()[-1] or not escaping
        assert_transpose_matches_reference(tg.offsets, tg.targets, tg.nboxes,
                                           tg.reverse())
        # the transposed targets are the key buffer of that width
        assert tg.reverse()[1].base.dtype == \
            (np.uint32 if narrow else np.int64)

    @pytest.mark.parametrize("name, params", [
        ("cat", {}), ("standard", {"K": 0.97}), ("standard", {"K": 1.5})])
    def test_built_graph_transpose_matches_stable_argsort(self, name, params):
        grid = torus_grid(6)
        tg = build_graph(grid, make_map(name, **params), grid.box_diameter)
        assert tg.targets.dtype == np.int32
        assert_transpose_matches_reference(tg.offsets, tg.targets, tg.nboxes,
                                           tg.reverse())
        assert tg.reverse() is tg.reverse()

    @pytest.mark.parametrize("chunk", [1, 7])
    @settings(max_examples=50, deadline=None)
    @given(csr_graphs(), st.data())
    def test_sliced_frontiers_match_networkx(self, chunk, case, data):
        offsets, targets, n, edges = case
        G = digraph(n, edges)
        seeds = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chain_graph, "_CHUNK_EDGES", chunk)
            got = _search(_edge_expand(offsets, targets),
                          marks(n, sorted(seeds)))
            assert_scc_matches_networkx(offsets, targets, n, edges)
        assert set(np.flatnonzero(got).tolist()) == \
            set(seeds).union(*(nx.descendants(G, s) for s in seeds))


PARTS = ("core", "up", "down", "apart", "sink")


def csr_from_edges(edges, n):
    """(offsets, targets) of an n-node CSR from sorted distinct edges."""
    src = np.array([e[0] for e in edges], dtype=np.int64)
    targets = np.array([e[1] for e in edges], dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return offsets, targets


def planted_graph(hub_part):
    """CSR of a 32-node digraph with planted structure.

    32 boxes, shuffled by a fixed permutation, split into a ring core, an
    upstream tail that drains into it, a downstream tail it feeds, an
    unrelated ring, dead boxes with no out-edges and a sink box that only
    loops to itself, which both tails feed.  One hub in `hub_part` is
    joined both ways to its whole part, or every live box steps to the
    sink box, so the forward-backward pivot lands there.  Returns the
    CSR (offsets, targets), its edge list and the node set of each part.
    """
    n = 32
    sizes = {"core": 4, "up": 3, "down": 3, "apart": 3, "dead": 2, "sink": 1}
    sizes["core" if hub_part == "sink" else hub_part] += n - sum(sizes.values())
    perm = np.random.default_rng(12).permutation(n).tolist()
    parts, at = {}, 0
    for name, size in sizes.items():
        parts[name] = perm[at:at + size]
        at += size
    core, up, down, apart, dead, (sink,) = parts.values()
    edges = {(sink, sink), (down[-1], dead[0]), (apart[0], dead[1])}
    edges |= {(core[i], core[(i + 1) % len(core)]) for i in range(len(core))}
    edges |= {(apart[i], apart[(i + 1) % len(apart)])
              for i in range(len(apart))}
    edges |= {(a, b) for a, b in zip(up[1:], up)} | {(up[0], core[0])}
    edges |= {(a, b) for a, b in zip(down, down[1:])} | {(core[-1], down[0])}
    if hub_part == "sink":
        edges |= {(b, sink) for b in core + up + down + apart}
    else:
        hub = parts[hub_part][1]
        edges |= {(hub, b) for b in parts[hub_part]}
        edges |= {(b, hub) for b in parts[hub_part]}
        edges |= {(up[-1], sink), (down[-1], sink)}
    edges = sorted(edges)
    return (*csr_from_edges(edges, n), edges, parts)


def assert_scc_matches_networkx(offsets, targets, n, edges):
    """Partition equal to networkx's, labels in reverse topological order;
    returns the labels."""
    G = digraph(n, edges)
    labels = csr_scc(offsets, targets, n)
    n_comp = int(labels.max()) + 1
    want = {frozenset(c) for c in nx.strongly_connected_components(G)}
    ours = {frozenset(np.flatnonzero(labels == c).tolist())
            for c in range(n_comp)}
    assert ours == want and n_comp == len(want)
    # labels follow reverse topological order of the condensation
    for u, v in edges:
        assert labels[u] >= labels[v]
    return labels


@pytest.fixture
def tarjan_visits(monkeypatch):
    """List that collects every node the Tarjan pass labels."""
    visits = []
    real = chain_graph._tarjan

    def counted(off, tgt, roots, index, labels, n_comp):
        before = [i < 0 for i in index]
        out = real(off, tgt, roots, index, labels, n_comp)
        visits.extend(v for v, new in enumerate(before) if new and index[v] >= 0)
        return out

    monkeypatch.setattr(chain_graph, "_tarjan", counted)
    return visits


class TestPlantedScc:
    """The forward-backward pivot in each planted part, against networkx."""

    @pytest.mark.parametrize("hub_part", PARTS)
    def test_partition_and_order_match_networkx(self, hub_part,
                                                tarjan_visits):
        offsets, targets, edges, parts = planted_graph(hub_part)
        n = offsets.size - 1
        score = np.diff(offsets) * np.bincount(targets, minlength=n)
        pivot = int(np.argmax(score))
        assert pivot in parts[hub_part]
        labels = assert_scc_matches_networkx(offsets, targets, n, edges)
        assert len(set(labels[parts["core"]].tolist())) == 1
        # the pivot's component is left out of the Tarjan pass
        assert sorted(tarjan_visits) == \
            np.flatnonzero(labels != labels[pivot]).tolist()

    def test_deep_ring_finishes_in_the_forward_backward_step(self,
                                                             tarjan_visits):
        """A ring of 48 layers of 10 boxes, each layer joined to the next:
        both searches from the pivot need 48 layers, more than the old
        fixed cap of 32 but fewer than the one priced for its 4802 edges
        and 482 nodes, so Tarjan only sees the box upstream and the dead
        box."""
        depth, width = 48, 10
        m = depth * width
        up, dead = m, m + 1
        edges = {(a, (a // width + 1) % depth * width + k)
                 for a in range(m) for k in range(width)}
        edges = sorted(edges | {(up, 15), (7, dead)})
        n = m + 2
        offsets, targets = csr_from_edges(edges, n)
        assert int(np.argmax(np.diff(offsets) * np.bincount(
            targets, minlength=n))) == 7
        cap = chain_graph._fb_max_layers(targets.size, n)
        assert cap > depth
        assert _search(_edge_expand(offsets, targets), marks(n, [7]),
                       max_layers=32) is None
        labels = assert_scc_matches_networkx(offsets, targets, n, edges)
        assert len(set(labels[:m].tolist())) == 1
        assert sorted(tarjan_visits) == [up, dead]

    def test_backward_search_stays_in_the_forward_set(self, tarjan_visits):
        """A hub joined both ways to a ring of 10 boxes that a chain of 40
        boxes feeds: the backward search from the hub, kept to the
        forward set by `seen`, takes 2 layers, where the chain alone
        needs more than the layer cap, so Tarjan only sees the chain."""
        length, ring, hub, n = 40, list(range(40, 50)), 50, 51
        edges = sorted({(i, i + 1) for i in range(length - 1)}
                       | {(length - 1, ring[0])}
                       | set(zip(ring, ring[1:] + ring[:1]))
                       | {(hub, b) for b in ring} | {(b, hub) for b in ring})
        offsets, targets = csr_from_edges(edges, n)
        assert int(np.argmax(np.diff(offsets) * np.bincount(
            targets, minlength=n))) == hub
        cap = chain_graph._fb_max_layers(targets.size, n)
        assert length > cap
        reverse = chain_graph._transpose(offsets, targets, n)
        assert _search(_edge_expand(*reverse), marks(n, [hub]),
                       max_layers=cap) is None
        labels = assert_scc_matches_networkx(offsets, targets, n, edges)
        assert len(set(labels[ring + [hub]].tolist())) == 1
        assert sorted(tarjan_visits) == list(range(length))

    def test_long_chain_of_two_cycles(self):
        """1024 two-cycles in a line, each feeding the next: 1024
        components in one long chain.  A forward-backward recursion on the
        pieces of every split is quadratic here (20.7 s against 3.8 ms for
        the step and Tarjan, 2-core VM), so this bounds the wall time."""
        k = 1024
        edges = sorted({(2 * i, 2 * i + 1) for i in range(k)}
                       | {(2 * i + 1, 2 * i) for i in range(k)}
                       | {(2 * i + 1, 2 * i + 2) for i in range(k - 1)})
        n = 2 * k
        offsets, targets = csr_from_edges(edges, n)
        t0 = time.perf_counter()
        labels = csr_scc(offsets, targets, n)
        assert time.perf_counter() - t0 < 1.0
        assert int(labels.max()) + 1 == k
        labels = assert_scc_matches_networkx(offsets, targets, n, edges)
        assert labels.tolist() == [k - 1 - v // 2 for v in range(n)]

    @pytest.mark.parametrize("side", ["forward", "backward"])
    def test_long_search_falls_back_to_tarjan(self, side, tarjan_visits):
        """A pivot search past the layer cap leaves the whole graph to
        Tarjan.  A ring of 3 x 32 nodes and a hub form one component, few
        edges for its depth; the forward case reaches the ring from the
        hub one node per layer, the backward case reaches the hub back
        along the ring."""
        m = 3 * chain_graph._fb_max_layers(0, 0)
        hub, dead, up = m, m + 1, m + 2
        if side == "forward":
            edges = ({(i, i + 1) for i in range(m - 1)} | {(m - 1, 0)}
                     | {(i, hub) for i in range(m)} | {(hub, 0)})
        else:
            edges = ({(i, i + 1) for i in range(m - 1)} | {(m - 1, hub)}
                     | {(hub, i) for i in range(m)})
        edges = sorted(edges | {(up, 5), (7, dead)})
        n = m + 3
        offsets, targets = csr_from_edges(edges, n)
        score = np.diff(offsets) * np.bincount(targets, minlength=n)
        assert int(np.argmax(score)) == hub
        cap = chain_graph._fb_max_layers(targets.size, n)
        assert m > cap
        fwd = _search(_edge_expand(offsets, targets), marks(n, [hub]),
                      max_layers=cap)
        if side == "forward":
            assert fwd is None
        else:
            reverse = chain_graph._transpose(offsets, targets, n)
            assert _search(_edge_expand(*reverse), marks(n, [hub]),
                           seen=~fwd, max_layers=cap) is None
        labels = assert_scc_matches_networkx(offsets, targets, n, edges)
        assert len(set(labels[:hub + 1].tolist())) == 1
        assert sorted(tarjan_visits) == list(range(n))


def _same_chain(a, b):
    if a is None or b is None:
        return a is None and b is None
    return (np.array_equal(a.points, b.points) and a.eps == b.eps
            and np.array_equal(a.thresholds, b.thresholds)
            and np.array_equal(a.defects, b.defects))


class TestBfsPath:
    """Layered CSR BFS against the one-node-at-a-time queue."""

    @settings(max_examples=60, deadline=None)
    @given(covered_graphs(), st.data())
    def test_paths_match_reference(self, tg, data):
        box = st.integers(0, tg.nboxes - 1)
        sources = data.draw(st.sets(box, max_size=4))
        target = data.draw(box)
        max_len = data.draw(st.none() | st.integers(0, 4))
        assert _bfs_path(tg, sorted(sources), target, max_len) == \
            reference_bfs_path(tg, sources, target, max_len)

    @pytest.mark.parametrize("name, params", [
        ("cat", {}), ("standard", {"K": 0.97})])
    def test_strong_chain_search_matches_reference(self, monkeypatch, name,
                                                   params):
        g = torus_grid(5)
        m = make_map(name, **params)
        points = np.random.default_rng(3).random((2, 2))
        cases = [(p, fn, max_len) for p in points
                 for fn in (ConstantEps(0.05), RadialEps(0.02))
                 for max_len in (None, 2, 5)]
        ours = [strong_chain_search(m, p, fn, g, max_len=k)
                for p, fn, k in cases]
        with monkeypatch.context() as mp:
            mp.setattr(chain_graph, "_bfs_path", reference_bfs_path)
            ref = [strong_chain_search(m, p, fn, g, max_len=k)
                   for p, fn, k in cases]
        assert all(_same_chain(a, b) for a, b in zip(ours, ref))
        assert sum(c is not None and len(c) > 1 for c in ours) > 0


def reference_materialize(grid, ilo, ihi, empty):
    """The offset-lattice build the run layout replaced, kept verbatim but
    for the sink edges it wrote: every offset of the largest per-axis
    range, taken mod the axis on periodic axes, then one sort of packed
    src*n+tgt keys."""
    n = ilo.shape[0]
    dim = grid.dim
    counts = (ihi - ilo + 1)
    shape = np.asarray(grid.shape)
    strides = np.ones(dim, dtype=np.int64)
    for ax in range(dim - 2, -1, -1):
        strides[ax] = strides[ax + 1] * shape[ax + 1]

    degree = np.where(empty, 0, counts.prod(axis=1))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=offsets[1:])
    base = np.int64(n)
    keys = np.empty(int(offsets[-1]), dtype=np.int64)
    fill = 0

    cmax = counts.max(axis=0)
    # iterate over the (small) per-axis offset lattice, vectorized over boxes
    lattice = np.indices(tuple(int(c) for c in cmax)).reshape(dim, -1).T
    src_ids = np.arange(n, dtype=np.int64)
    for off in lattice:
        mask = np.all(off[None, :] < counts, axis=1) & ~empty
        if not mask.any():
            continue
        idx = ilo[mask] + off[None, :]
        for ax in range(dim):
            if grid.domain.periodic[ax]:
                idx[:, ax] = np.mod(idx[:, ax], shape[ax])
        tgt = (idx * strides[None, :]).sum(axis=1)
        keys[fill:fill + tgt.size] = src_ids[mask] * base + tgt
        fill += tgt.size

    keys.sort()
    if not np.all(keys[1:] > keys[:-1]):
        raise RuntimeError("transition graph edges are not distinct")
    np.remainder(keys, base, out=keys)
    return offsets, keys


CHUNKS = [1, 7, chain_graph._CHUNK_EDGES]


class TestEdgeLayout:
    """The run-layout CSR build, the chunked self-loop scan and the
    distinct-bound spread, against the code they replaced."""

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(max_examples=100, deadline=None)
    @given(case=cover_ranges())
    def test_materialize_matches_lattice_reference(self, chunk, case):
        grid, ilo, ihi, empty = case
        want = reference_materialize(grid, ilo, ihi, empty)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chain_graph, "_CHUNK_EDGES", chunk)
            got = chain_graph._materialize_edges(
                grid, *to_cover(grid, ilo, ihi, empty))
        assert got[1].dtype == np.int32
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("periodic, ilo, ihi", [
        # box 2 spans 5 boxes of a 4-box circle
        ((True,), [[0], [0], [1], [3]], [[0], [0], [5], [3]]),
        # box 1 spans 3 rows of a 2-row cylinder
        ((True, False), [[0, 0], [-1, 0], [1, 0], [1, 1]],
         [[0, 1], [1, 0], [1, 1], [1, 1]]),
    ])
    def test_periodic_range_longer_than_axis_trips_guard(self, periodic,
                                                         ilo, ihi):
        dim = len(periodic)
        grid = Grid(Domain((0.0,) * dim, (1.0,) * dim, periodic),
                    (2,) if dim == 1 else (1, 1))
        cover = to_cover(grid, np.asarray(ilo), np.asarray(ihi),
                         np.zeros(grid.nboxes, dtype=bool))
        with pytest.raises(RuntimeError, match="not distinct"):
            chain_graph._materialize_edges(grid, *cover)

    @settings(max_examples=100, deadline=None)
    @given(case=escape_cases())
    def test_escapes_match_brute_force_rectangles(self, case):
        """A box escapes iff its fattened image rectangle [lo, hi), or the
        point lo when the rectangle is flat, has a point outside the
        window on a non-periodic axis, tested box by box."""
        grid, m, eps = case
        tg = build_graph(grid, m, eps)
        want = np.zeros(grid.nboxes, dtype=bool)
        for b in range(grid.nboxes):
            center, radius = grid.box_geometry(b)
            bound = m.jac_abs_bound((center - radius)[None],
                                    (center + radius)[None])[0]
            image = evaluate(m, center)
            lo = image - (bound @ radius + eps)
            hi = image + (bound @ radius + eps)
            want[b] = any(not grid.domain.periodic[ax]
                          and (lo[ax] < 0.0 or hi[ax] > 1.0 or lo[ax] >= 1.0)
                          for ax in range(grid.dim))
        assert np.array_equal(tg.escapes, want)

    @pytest.mark.parametrize("components, window, depth", [
        ([[{"c": 1.5, "e": [1]}, {"c": -0.5, "e": [3]}]], 2.0, 10),
        ([[{"c": 1.5, "e": [1, 0]}, {"c": -0.5, "e": [3, 0]}],
          [{"c": 1.5, "e": [0, 1]}, {"c": -0.5, "e": [0, 3]}]], 2.0, 5),
        ([[{"c": 0.9, "e": [1, 0, 0]}, {"c": 0.3, "e": [0, 1, 1]}],
          [{"c": -0.5, "e": [2, 0, 0]}, {"c": 0.7, "e": [0, 1, 0]}],
          [{"c": 0.2, "e": [1, 1, 0]}, {"c": 0.5, "e": [0, 0, 3]}]], 1.0, 3),
    ])
    def test_lipschitz_used_is_the_full_batch_maximum(self, components,
                                                      window, depth):
        dim = len(components)
        m = polynomial_map(components, dim)
        grid = Grid(Domain((-window,) * dim, (window,) * dim, (False,) * dim),
                    (depth,) * dim)
        centers = grid.centers()
        B = m.jac_abs_bound(centers - grid.radius, centers + grid.radius)
        # the SVD norm, raised by 2 * dim epsilons and one ulp for rounding
        want = np.max(np.linalg.norm(B, ord=2, axis=(1, 2)))
        want = np.nextafter(want * (1.0 + 2 * dim * np.finfo(float).eps),
                            np.inf)
        assert build_graph(grid, m, 0.01).lipschitz_used == want

    @pytest.mark.parametrize("chunk", CHUNKS[:2])
    @settings(max_examples=100, deadline=None)
    @given(tg=covered_graphs())
    def test_self_loop_mask_matches_sources(self, chunk, tg):
        """The cover's self-loops are the rows of the CSR, written
        `chunk` edges at a time, that hold their own box."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chain_graph, "_CHUNK_EDGES", chunk)
            offsets, targets = tg._edges()
        src = np.repeat(np.arange(tg.nboxes), np.diff(offsets))
        want = np.zeros(tg.nboxes, dtype=bool)
        want[src[src == targets]] = True
        assert np.array_equal(tg.self_loop_mask(), want)

    @pytest.mark.parametrize("chunk", CHUNKS[:2])
    @settings(max_examples=100, deadline=None)
    @given(tg=covered_graphs())
    def test_edge_chunks_list_the_sink_edges(self, chunk, tg):
        """Each box's row, then its edge to the sink, node nboxes, if it
        escapes, and last the sink's self-loop, as `n_edges` and
        `out_degrees` count them, whether or not any box has a box edge."""
        edges = cover_edges(tg)
        sink = tg.nboxes
        want = [(u, v) for b in range(sink)
                for u, v in [e for e in edges if e[0] == b]
                + [(b, sink)] * int(tg.escapes[b])] + [(sink, sink)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chain_graph, "_CHUNK_EDGES", chunk)
            got = [pair for src, tgt in tg.edge_chunks()
                   for pair in zip(src.tolist(), tgt.tolist())]
        assert got == want
        assert len(want) == tg.n_edges == int(tg.out_degrees().sum()) + 1


# boxes per block of the block-wise passes: one box, a block that does not
# divide the grid, and several boxes of a grid per block
BOX_CHUNKS = [1, 7, 4096]


@contextlib.contextmanager
def box_chunks(size):
    """`_CHUNK_BOXES` and `_CHUNK_PIECES` set to `size` within."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain_graph, "_CHUNK_BOXES", size)
        mp.setattr(chain_graph, "_CHUNK_PIECES", size)
        yield


class TestCoverQueries:
    """Degrees, self-loops, searches and SCC labels read from the cover
    ranges, against the CSR written from them; each hypothesis example
    draws the block size of the block-wise passes from `BOX_CHUNKS`."""

    @settings(max_examples=150, deadline=None)
    @given(covered_graphs(), st.sampled_from(BOX_CHUNKS), st.data())
    def test_searches_match_the_edge_searches(self, tg, chunk, data):
        """Both directions: the same marks as `_search` on the CSR or its
        transpose, None past the same layer cap, and a given `seen` grown
        in place."""
        n = tg.nboxes
        seeds = marks(n, data.draw(st.lists(st.integers(0, n - 1),
                                            max_size=4)))
        seen = marks(n, data.draw(st.lists(st.integers(0, n - 1),
                                           max_size=n)))
        cap = data.draw(st.none() | st.integers(0, 6))
        for backward, edges in ((False, (tg.offsets, tg.targets)),
                                (True, tg.reverse())):
            want = _search(_edge_expand(*edges), seeds, seen.copy(), cap)
            mask = seen.copy()
            with box_chunks(chunk):
                got = _cover_search(tg, seeds, mask, cap, backward)
                fresh = _cover_search(tg, seeds, backward=backward)
            if want is None:
                assert got is None
            else:
                assert got is mask
                assert np.array_equal(got, want)
            assert np.array_equal(fresh, _search(_edge_expand(*edges), seeds))

    @settings(max_examples=150, deadline=None)
    @given(covered_graphs(), st.sampled_from(BOX_CHUNKS))
    def test_degrees_and_self_loops_match_the_csr(self, tg, chunk):
        degrees = np.diff(tg.offsets)
        assert tg.n_edges == int(degrees.sum()) + tg.escaping_boxes() + 1
        assert np.array_equal(tg.out_degrees(), degrees + tg.escapes)
        src = np.repeat(np.arange(tg.nboxes), degrees)
        assert np.array_equal(tg.self_loop_mask(),
                              marks(tg.nboxes, src[src == tg.targets]))
        with box_chunks(chunk):
            in_degrees = chain_graph._cover_counts(tg)
        assert np.array_equal(in_degrees, np.bincount(tg.targets,
                                                      minlength=tg.nboxes))

    @settings(max_examples=100, deadline=None)
    @given(covered_graphs(), st.sampled_from(BOX_CHUNKS))
    def test_scc_labels_match_the_csr_pass(self, tg, chunk):
        want = csr_scc(tg.offsets, tg.targets, tg.nboxes)
        fresh = dataclasses.replace(tg, _csr=None)
        with box_chunks(chunk):
            assert np.array_equal(fresh.scc_labels(), want)

    @pytest.mark.parametrize("name, params, depth", [
        ("cat", {}, 7), ("standard", {"K": 0.97}, 8)])
    def test_torus_recurrence_writes_no_edge(self, monkeypatch, name, params,
                                             depth):
        """A chain-transitive torus graph: one component of every box,
        found without the CSR or its transpose."""
        tg = torus_cover_graph(name, params, depth)
        for fn in ("_materialize_edges", "_transpose"):
            monkeypatch.setattr(chain_graph, fn,
                                lambda *a, fn=fn: pytest.fail(fn))
        assert chain_recurrent_boxes(tg).bits.all()
        assert len(chain_components(tg)) == 1
        assert is_chain_transitive(tg)
        assert tg._csr is None and tg._reverse is None

    def test_the_csr_is_written_once_on_demand(self):
        tg = torus_cover_graph("standard", {"K": 0.97}, 4)
        assert tg._csr is None
        tg.scc_labels()
        assert tg._csr is None
        tg.image_boxes(BoxSet.from_indices(tg.grid, [3]))
        offsets = tg._csr[0]
        assert tg.offsets is offsets and tg.reverse()[0] is tg.reverse()[0]


@st.composite
def build_cases(draw, bits):
    """(grid, map, eps, eps_fn) for `build_graph`: the grid, `poly` map
    and eps of `escape_cases` with at most 2^bits boxes, or a 2-D grid of
    as many, some axes periodic, with the cat or the standard map; no
    threshold function, or a `RadialEps`."""
    kind = draw(st.sampled_from(["poly", "cat", "standard"]))
    if kind == "poly":
        grid, m, eps = draw(escape_cases(bits))
    else:
        depths = draw(st.lists(st.integers(0, bits // 2), min_size=2,
                               max_size=2))
        periodic = draw(st.lists(st.booleans(), min_size=2, max_size=2))
        grid = Grid(Domain((0.0, 0.0), (1.0, 1.0), tuple(periodic)),
                    tuple(depths))
        m = make_map("cat") if kind == "cat" else make_map(
            "standard", K=draw(st.sampled_from([0.3, 0.97, 1.5])))
        eps = draw(st.sampled_from([0.0, 2.0 ** -6, grid.box_diameter]))
    eps_fn = draw(st.none() | st.sampled_from([RadialEps(0.01),
                                               RadialEps(0.2)]))
    return grid, m, eps, eps_fn


def reference_build(grid, m, eps, eps_fn):
    """(start, length, escapes, lipschitz) of the whole-grid build: the
    centre, spread, image and range of every box at once."""
    centers = grid.centers()
    spread, lip = chain_graph._box_spreads(grid, m, centers)
    images = evaluate(m, centers)
    if m.periods is not None:
        images = grid.domain.wrap(images)
    if eps_fn is None:
        spread += eps
    else:
        spread += np.asarray(eps_fn.min_over_rects(images - spread,
                                                   images + spread))[:, None]
    return (*chain_graph._cover_ranges(grid, images - spread,
                                       images + spread), lip)


def reference_sum_axes(values, shape):
    """Prefix sums along every axis by `np.add.accumulate`, on a copy."""
    cube = values.reshape(shape).copy()
    for ax in range(len(shape)):
        np.add.accumulate(cube, axis=ax, out=cube)
    return cube.ravel()


@st.composite
def int32_cubes(draw, above):
    """A 1-3-D grid shape and full-range int32 values on it, whose rows
    (slabs along axis 0) hold at least `_ROW_LOOP_BOXES` boxes when
    `above` (never in 1-D, where a row is one box), else fewer."""
    limit = chain_graph._ROW_LOOP_BOXES
    dim = draw(st.integers(2 if above else 1, 3))
    rows = draw(st.integers(1, 6))
    if dim == 1:
        shape = (draw(st.integers(1, 4 * limit)),)
    else:
        inner = 1 if dim == 2 else draw(st.integers(1, 40))
        lo, hi = ((limit + inner - 1) // inner, 2 * limit // inner + 1) \
            if above else (1, max(1, (limit - 1) // inner))
        shape = (rows,) + ((inner,) if dim == 3 else ()) \
            + (draw(st.integers(lo, hi)),)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.integers(-2 ** 31, 2 ** 31, int(np.prod(shape)),
                          dtype=np.int32)
    return shape, values


class TestBlockwisePasses:
    """The block-wise build, in-degree pass and prefix sums, against the
    whole-grid code they replaced."""

    @pytest.mark.parametrize("chunk", BOX_CHUNKS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_build_matches_the_whole_grid_build(self, chunk, data):
        """Bit for bit: the ranges (widened), the escapes and the
        Lipschitz bound.  Grids of up to 2^13 boxes, so that blocks of
        4096 boxes split some; 2^9 at the smallest blocks."""
        grid, m, eps, eps_fn = data.draw(build_cases(9 if chunk == 1
                                                     else 13))
        start, length, escapes, lip = reference_build(grid, m, eps, eps_fn)
        with box_chunks(chunk):
            tg = build_graph(grid, m, eps, eps_fn=eps_fn)
        assert tg.cover[0].dtype == tg.cover[1].dtype == np.int16
        assert np.array_equal(tg.cover[0].astype(np.int64),
                              start.astype(np.int64))
        assert np.array_equal(tg.cover[1].astype(np.int64),
                              length.astype(np.int64))
        assert np.array_equal(tg.escapes, escapes)
        assert tg.lipschitz_used == lip

    @pytest.mark.parametrize("above", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sum_axes_matches_accumulate(self, above, data):
        """Row loop or `np.add.accumulate`, the same sums mod 2^32, in
        place."""
        shape, values = data.draw(int32_cubes(above))
        want = reference_sum_axes(values, shape)
        assert chain_graph._sum_axes(values, shape) is values
        assert np.array_equal(values, want)

    @pytest.mark.parametrize("chunk", BOX_CHUNKS)
    @settings(max_examples=60, deadline=None)
    @given(covered_graphs(), st.data())
    def test_cover_counts_match_one_bincount(self, chunk, tg, data):
        """Per box, the rectangles of a box subset (or of every box, None)
        that hold it: one `np.bincount` of their CSR rows."""
        n = tg.nboxes
        boxes = None if data.draw(st.booleans()) else np.flatnonzero(
            marks(n, data.draw(st.lists(st.integers(0, n - 1),
                                        max_size=n))))
        rows = range(n) if boxes is None else boxes.tolist()
        want = np.bincount(np.concatenate(
            [tg.out(b) for b in rows] + [np.zeros(0, dtype=np.int32)]),
            minlength=n)
        with box_chunks(chunk):
            got = chain_graph._cover_counts(tg, boxes)
        assert got.dtype == np.int32
        assert np.array_equal(got, want)

    def test_degrees_widen_past_int16(self):
        """Every rectangle covers the whole 256 x 256 torus: 65,536 boxes
        per row, 2^32 box edges, neither held by an int16 or an int32."""
        grid = torus_grid(8)
        tg = build_graph(grid, make_map("cat"), 1.0)
        n = grid.nboxes
        assert np.all(tg.out_degrees() == n)
        assert tg.n_edges == n * n + 1
        assert np.all(chain_graph._cover_counts(tg) == n)
        assert is_chain_transitive(tg)


def traced_peak(fn):
    """(result, peak bytes that `fn()` allocates above what is held
    before), by tracemalloc, which sees numpy buffers."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemoryBounds:
    """The build and the SCC pass hold one block's temporaries beside the
    graph, not arrays that grow with the grid."""

    def test_recurrence_pass_peak(self):
        """Standard K = 0.97 at depth 8 (65,536 boxes, 2.6 M box edges):
        the whole pass on a fresh graph, in-degrees, pivot, forward and
        backward searches, stays under 4 MB (8.3 MB with whole-grid
        in-degrees and intp pieces)."""
        tg = torus_cover_graph("standard", {"K": 0.97}, 8)
        crset, peak = traced_peak(lambda: chain_recurrent_boxes(tg))
        assert crset.bits.all()
        assert peak < 4 * 2 ** 20

    def test_build_peak_per_box(self):
        """Cat at depth 9 (262,144 boxes): the build holds 9 bytes per box
        of cover and escapes and peaks under 32 bytes per box (83 with a
        whole-grid build)."""
        grid = torus_grid(9)
        tg, peak = traced_peak(
            lambda: build_graph(grid, make_map("cat"), grid.box_diameter))
        held = sum(a.nbytes for a in tg.cover) + tg.escapes.nbytes
        assert held == 9 * grid.nboxes
        assert peak < 32 * grid.nboxes

    def test_recurrence_tail_peak_per_box(self):
        """Cat at depth 9 (262,144 boxes) with its SCC labels cached: the
        recurrent bits, the component sizes gathered as one bool per box
        and the self-loops tested in the cover's int16, peak under 8
        bytes per box (18 with int64 offsets and sizes)."""
        grid = torus_grid(9)
        tg = build_graph(grid, make_map("cat"), grid.box_diameter)
        tg.scc_labels()
        crset, peak = traced_peak(lambda: chain_recurrent_boxes(tg))
        assert crset.bits.all()
        assert peak < 8 * grid.nboxes
