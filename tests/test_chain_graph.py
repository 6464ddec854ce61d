"""Transition graphs, chain recurrence, chain components, chains and
nonwandering probes, checked against brute-force graph oracles."""

import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from dynkit.chain_graph import (
    ConstantEps, RadialEps, TransitionGraph, build_graph, chain_components,
    chain_recurrent_boxes, find_eps_chain, is_chain_transitive,
    nonwandering_probe, reachable, strong_chain_search,
    strongly_connected_components,
)
from dynkit.phase_space import BoxSet, Domain, Grid
from dynkit.system import evaluate, make_map


def torus_grid(depth):
    return Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (depth, depth))


def brute_force_cycle_boxes(g):
    """Independent oracle: boxes on a directed cycle via per-node DFS
    reachability (no Tarjan)."""
    n = g.nboxes
    adj = [set(int(t) for t in g.out(b) if t != g.sink) for b in range(n)]
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
        deg = tg.out_degrees()[:-1]
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
                             for t in tg.out(b) if t != tg.sink)
            covered_hi = max(g.box_geometry(int(t))[0][0] + radius[0]
                             for t in tg.out(b) if t != tg.sink)
            assert covered_lo <= img_lo[0] and img_hi[0] <= covered_hi

    def test_translation_right_edge_hits_sink_only(self):
        g = Grid(Domain((0.0, 0.0), (4.0, 1.0), (False, False)), (4, 4))
        tg = build_graph(g, make_map("translation"), 0.0)
        for b in range(g.nboxes):
            center, _ = g.box_geometry(b)
            if center[0] >= 3.0:
                assert list(tg.out(b)) == [tg.sink]

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
                assert (int(t) in outs) or (t < 0 and tg.sink in outs)

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
                               dim=1, window=([-2.0], [2.0]))
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


class TestEpsChains:
    def test_direct_step(self):
        m = make_map("standard", K=0.9)
        g = torus_grid(5)
        tg = build_graph(g, m, 0.01)
        p = np.array([0.3, 0.4])
        q = evaluate(m, p)
        chain = find_eps_chain(tg, p, q)
        assert chain is not None and len(chain) == 1
        assert float(chain.defects[0]) < 1e-12

    def test_cat_any_to_any(self):
        g = torus_grid(5)
        tg = build_graph(g, make_map("cat"), g.box_diameter)
        rng = np.random.default_rng(9)
        for _ in range(5):
            p, q = rng.random(2), rng.random(2)
            chain = find_eps_chain(tg, p, q)
            assert chain is not None
            assert np.all(chain.defects < chain.thresholds)

    def test_translation_no_leftward_chain(self):
        g = Grid(Domain((0.0, 0.0), (4.0, 1.0), (False, False)), (5, 5))
        tg = build_graph(g, make_map("translation"), 0.05)
        chain = find_eps_chain(tg, np.array([3.5, 0.5]), np.array([0.5, 0.5]))
        assert chain is None

    def test_chain_revalidates_by_evaluation(self):
        m = make_map("cat")
        g = torus_grid(5)
        tg = build_graph(g, m, g.box_diameter)
        chain = find_eps_chain(tg, np.array([0.11, 0.9]), np.array([0.77, 0.2]))
        imgs = np.asarray([evaluate(m, x) for x in chain.points[:-1]])
        defects = m.distance(imgs, chain.points[1:])
        assert np.allclose(defects, chain.defects)
        assert np.all(defects < chain.thresholds)


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
            assert int(tg.out_degrees()[:-1].min()) >= 1
            # sink is absorbing
            assert list(tg.out(tg.sink)) == [tg.sink]

    def test_out_edges_sorted_ascending(self):
        g = torus_grid(4)
        tg = build_graph(g, make_map("standard", K=0.9), 0.01)
        for b in range(0, g.nboxes, 17):
            row = tg.out(b)
            assert np.all(np.diff(row) > 0)


@st.composite
def csr_graphs(draw):
    """Random box graph in the TransitionGraph layout: 2**depth boxes, a
    sink node after them with only its self loop, sorted distinct
    out-edges, self loops allowed."""
    n = 1 << draw(st.integers(0, 5))
    sink = n
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n)),
                         max_size=4 * n))
    edges = sorted(edges | {(sink, sink)})
    src = np.array([e[0] for e in edges], dtype=np.int64)
    targets = np.array([e[1] for e in edges], dtype=np.int64)
    offsets = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n + 1), out=offsets[1:])
    grid = Grid(Domain((0.0,), (1.0,), (False,)), (n.bit_length() - 1,))
    return TransitionGraph(grid, None, 0.0, offsets, targets, 0.0), edges


class TestSccOracle:
    """Tarjan labels and CSR reachability against networkx."""

    @settings(max_examples=200, deadline=None)
    @given(csr_graphs())
    def test_partition_and_nontrivial_set_match_networkx(self, case):
        tg, edges = case
        G = nx.DiGraph()
        G.add_nodes_from(range(tg.n_nodes))
        G.add_edges_from(edges)
        n_comp, labels = strongly_connected_components(
            tg.offsets, tg.targets, tg.n_nodes)
        ours = {frozenset(np.flatnonzero(labels == c).tolist())
                for c in range(n_comp)}
        assert ours == {frozenset(c) for c in nx.strongly_connected_components(G)}
        # labels follow reverse topological order of the condensation
        for u, v in edges:
            assert labels[u] >= labels[v]
        expected = [c for c in nx.strongly_connected_components(G)
                    if tg.sink not in c
                    and (len(c) > 1 or G.has_edge(next(iter(c)), next(iter(c))))]
        cr = chain_recurrent_boxes(tg)
        assert set(cr.indices().tolist()) == set().union(*expected)
        comps = chain_components(tg)
        assert [set(c.boxes.indices().tolist()) for c in comps] == \
            sorted(expected, key=min)
        boxes = G.subgraph(range(tg.nboxes))
        assert is_chain_transitive(tg) == nx.is_strongly_connected(boxes)

    @settings(max_examples=100, deadline=None)
    @given(csr_graphs(), st.data())
    def test_reachable_matches_networkx(self, case, data):
        tg, edges = case
        G = nx.DiGraph(edges)
        G.add_nodes_from(range(tg.n_nodes))
        seeds = data.draw(st.sets(st.integers(0, tg.n_nodes - 1), max_size=3))
        want = set(seeds).union(*(nx.descendants(G, s) for s in seeds))
        got = reachable(tg.offsets, tg.targets, sorted(seeds))
        assert set(np.flatnonzero(got).tolist()) == want
        roff, rtarg = tg.reverse()
        back = reachable(roff, rtarg, sorted(seeds))
        want = set(seeds).union(*(nx.ancestors(G, s) for s in seeds))
        assert set(np.flatnonzero(back).tolist()) == want
        members = sorted(s for s in seeds if s < tg.nboxes)
        image = tg.image_boxes(BoxSet.from_indices(tg.grid, members))
        assert set(image.indices().tolist()) == \
            {v for u in members for v in G.successors(u) if v != tg.sink}
        assert tg.set_escapes(BoxSet.from_indices(tg.grid, members)) == \
            any(G.has_edge(u, tg.sink) for u in members)

    def test_scc_labels_computed_once_per_graph(self, monkeypatch):
        from dynkit import chain_graph
        calls = []
        real = chain_graph.strongly_connected_components
        monkeypatch.setattr(chain_graph, "strongly_connected_components",
                            lambda *a: calls.append(1) or real(*a))
        tg = build_graph(torus_grid(4), make_map("standard", K=0.9), 0.01)
        chain_recurrent_boxes(tg)
        chain_components(tg)
        is_chain_transitive(tg)
        assert len(calls) == 1
