"""Pseudo-orbits, shadow searches and the linear stable-manifold check."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynkit import shadowing, system
from dynkit.shadowing import (
    NoApproachError, linear_stable_check, random_pseudo_orbit, shadow_search,
    shadowing_profile, splice_pseudo_orbit,
)
from dynkit.system import evaluate, make_map, polynomial_map


def linear_splice(delta=1e-3, n=30):
    """Unstable-axis head into stable-axis tail with one junction defect.

    splice_pseudo_orbit itself cannot build this (on the axes the approach
    time is 0 or never, the NoApproach example), so the two-orbit splice is
    assembled directly: head f^i(q) on the unstable axis ending at (u, 0),
    tail f^j(x0) on the stable axis, junction defect hypot(2u, s) < delta.
    """
    from dynkit.shadowing import PseudoOrbit
    m = make_map("linear", a=2.0, b=0.5)
    s = 0.6 * delta
    u = s / 2.0
    head = np.array([[u * 2.0 ** (i - (n - 1)), 0.0] for i in range(n)])
    tail = np.array([[0.0, s * 0.5 ** j] for j in range(n + 1)])
    po = PseudoOrbit(np.concatenate([head, tail]), delta,
                     {"kind": "splice-manual", "n0": n})
    po.validate(m)
    return m, po


class TestPseudoOrbits:
    def test_delta_zero_is_exact_orbit(self):
        m = make_map("standard", K=0.9)
        po = random_pseudo_orbit(m, np.array([0.2, 0.3]), 0.0, 50, rng_seed=1)
        x = np.array([0.2, 0.3])
        for i in range(50):
            x = evaluate(m, x)
            assert float(m.distance(x, po.points[i + 1])) < 1e-12

    def test_cat_step_errors_below_delta(self):
        m = make_map("cat")
        po = random_pseudo_orbit(m, np.array([0.1, 0.1]), 1e-3, 100, rng_seed=2)
        assert po.defects.shape == (100,)
        assert np.all(po.defects < 1e-3)
        assert np.any(po.defects > 0)

    def test_translation_drift_near_integer_shifts(self):
        m = make_map("translation")
        po = random_pseudo_orbit(m, np.zeros(2), 0.1, 10, rng_seed=3)
        for i, p in enumerate(po.points):
            assert np.linalg.norm(p - np.array([float(i), 0.0])) < 0.1 * (i + 1)

    def test_overflowing_orbit_is_refused_quietly(self):
        # the saddle (y, -x + 3y - y^3) from near 0 reaches inf at point 23
        # and nan after it; a nan defect would pass the >= delta test
        m = polynomial_map([[{"c": 1.0, "e": [0, 1]}],
                            [{"c": -1.0, "e": [1, 0]}, {"c": 3.0, "e": [0, 1]},
                             {"c": -1.0, "e": [0, 3]}]], dim=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(shadowing.NonFiniteOrbitError,
                               match="point 23 is not"):
                random_pseudo_orbit(m, np.array([0.01, 0.02]), 0.02, 40)

    def test_validate_names_the_first_bad_point_or_image(self):
        from dynkit.shadowing import PseudoOrbit
        m = make_map("linear", a=2.0, b=0.5)
        pts = np.array([[0.1, 0.1], [0.2, 0.05], [np.nan, 0.0], [np.inf, 0.0]])
        with pytest.raises(shadowing.NonFiniteOrbitError, match="point 2 is"):
            PseudoOrbit(pts, 1e-3, {}).validate(m)
        # finite points whose image overflows: 2 * 1e308 is inf
        pts = np.array([[1e308, 0.0], [1e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(shadowing.NonFiniteOrbitError,
                               match="image of pseudo-orbit point 0"):
                PseudoOrbit(pts, 1e-3, {}).validate(m)


class TestSplice:
    def test_q_equals_x0_gives_exact_orbit(self):
        m = make_map("cat")
        q = np.array([0.3, 0.7])
        po = splice_pseudo_orbit(m, q, q, 1e-6, n_back=5, n_forward=5)
        assert po.provenance["n0"] == 0
        assert np.all(po.defects < 1e-12)

    def test_cat_unstable_to_stable_approach(self):
        # the unstable-line orbit equidistributes and eventually enters any
        # delta-ball; record the approach time as a regression value
        m = make_map("cat")
        p = np.zeros(2)
        lam = (3.0 + np.sqrt(5.0)) / 2.0
        vu = np.array([1.0, (np.sqrt(5.0) - 1.0) / 2.0])
        vu /= np.linalg.norm(vu)
        vs = np.array([1.0, -(np.sqrt(5.0) + 1.0) / 2.0])
        vs /= np.linalg.norm(vs)
        q = np.mod(p + 1e-4 * vu, 1.0)
        x0 = np.mod(p + 0.2 * vs, 1.0)
        po = splice_pseudo_orbit(m, q, x0, 1e-2, n_back=10, n_forward=20)
        n0 = po.provenance["n0"]
        assert n0 > 0
        assert np.all(po.defects < 1e-2)
        assert n0 == 242  # regression: first approach time for this seed pair

    def test_linear_axes_never_approach(self, monkeypatch):
        m = make_map("linear", a=2.0, b=0.5)
        monkeypatch.setattr(shadowing, "_APPROACH_BUDGET", 200)
        with pytest.raises(NoApproachError) as err:
            splice_pseudo_orbit(m, np.array([1e-6, 0.0]), np.array([0.0, 1e-6]),
                                1e-7)
        assert err.value.min_distance >= 1e-7

    def test_q_within_delta_has_no_head(self):
        m = make_map("standard", K=0.97)
        q, x0 = np.array([0.3, 0.7]), np.array([0.3, 0.705])
        po = splice_pseudo_orbit(m, q, x0, 1e-2, n_back=3, n_forward=4)
        assert po.provenance["n0"] == 0
        # back tail of q, then the orbit of x0: the junction is q -> x0
        assert len(po) == 3 + 5
        assert po.points[3].tobytes() == x0.tobytes()
        assert m.distance(evaluate(m, po.points[2]), q) < 1e-12

    def test_no_back_tail(self):
        m = make_map("cat")
        q, x0 = np.array([0.1, 0.2]), np.array([0.3, 0.7])
        po = splice_pseudo_orbit(m, q, x0, 2e-2, n_back=0, n_forward=6)
        n0 = po.provenance["n0"]
        assert po.provenance["n_back"] == 0
        assert len(po) == n0 + 7
        assert po.points[0].tobytes() == q.tobytes()
        assert po.points[n0].tobytes() == x0.tobytes()

    def test_map_without_inverse_has_no_back_tail(self):
        m = CUBIC
        q = np.array([0.4, -0.3])
        x0 = m.wrap(evaluate(m, evaluate(m, evaluate(m, q))) + 1e-3)
        po = splice_pseudo_orbit(m, q, x0, 1e-2, n_back=10, n_forward=5)
        assert po.provenance["n_back"] == 0
        assert po.provenance["n0"] == 3
        assert po.points[0].tobytes() == q.tobytes()
        assert len(po) == 3 + 6

    def test_overflowing_orbit_stops_without_warnings(self, monkeypatch):
        # the orbit of q grows like 2^k and reaches inf after about 1030
        # steps; the search stops there, not at the 10,000-step budget
        calls = []
        real = system.evaluate
        monkeypatch.setattr(shadowing, "evaluate",
                            lambda *a: calls.append(1) or real(*a))
        monkeypatch.setattr(system, "evaluate",
                            lambda *a: calls.append(1) or real(*a))
        m = make_map("linear", a=2.0, b=0.5)
        q, x0 = np.array([0.3, 0.3]), np.array([0.31, 0.31])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoApproachError) as err:
                splice_pseudo_orbit(m, q, x0, 1e-3)
        # q itself comes closest
        assert err.value.min_distance == float(m.distance(q, x0))
        assert err.value.budget == 10000
        assert 1000 < len(calls) < 1100

    def test_nan_start_has_no_approach(self):
        m = make_map("cat")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoApproachError) as err:
                splice_pseudo_orbit(m, np.array([np.nan, 0.3]),
                                    np.array([0.3, 0.3]), 1e-2)
        assert err.value.min_distance == math.inf

    @pytest.mark.parametrize("n_back", [0, 10])
    def test_each_orbit_point_evaluated_once(self, monkeypatch, n_back):
        # the approach search keeps the head it visits: the map is
        # evaluated n0 times up to the approach, n_back + n_forward times
        # for the tails and once for the defect check
        calls = []
        real = system.evaluate

        def counted(map_spec, p, direction="forward"):
            calls.append(direction)
            return real(map_spec, p, direction)

        monkeypatch.setattr(system, "evaluate", counted)
        monkeypatch.setattr(shadowing, "evaluate", counted)
        m = make_map("cat")
        po = splice_pseudo_orbit(m, np.array([0.1, 0.2]), np.array([0.3, 0.7]),
                                 2e-2, n_back=n_back, n_forward=12)
        n0 = po.provenance["n0"]
        assert n0 == 967
        assert calls.count("inverse") == n_back
        assert calls.count("forward") == n0 + 12 + 1


class TestShadowSearch:
    def test_exact_orbit_shadowed_at_zero(self):
        m = make_map("cat")
        po = random_pseudo_orbit(m, np.array([0.4, 0.1]), 0.0, 30, rng_seed=0)
        res = shadow_search(m, po, eps=1e-3, grid_resolution=1e-4)
        assert res.shadowed
        assert res.achieved_eps <= 1e-12
        assert float(m.distance(res.x, po.points[0])) <= 1e-12

    def test_cat_noisy_orbit_shadowed(self):
        m = make_map("cat")
        po = random_pseudo_orbit(m, np.array([0.25, 0.6]), 1e-4, 100, rng_seed=7)
        res = shadow_search(m, po, eps=1e-2, grid_resolution=1e-3)
        assert res.shadowed
        # hyperbolic shadowing bound: C * delta with C ~ 1/(1 - 0.382)
        assert res.achieved_eps < 5e-4
        assert res.witness_defect is None or res.witness_defect < 1e-11

    def test_monotone_in_eps(self):
        m = make_map("cat")
        po = random_pseudo_orbit(m, np.array([0.8, 0.2]), 1e-4, 40, rng_seed=8)
        r1 = shadow_search(m, po, eps=5e-3, grid_resolution=5e-4)
        r2 = shadow_search(m, po, eps=5e-2, grid_resolution=5e-4)
        if r1.shadowed:
            assert r2.shadowed

    def test_linear_splice_not_shadowed_at_tight_eps(self):
        m, po = linear_splice(delta=1e-3, n=30)
        res = shadow_search(m, po, eps=1e-4, grid_resolution=1e-5)
        assert not res.shadowed
        # the junction forces ~delta/4 tracking error on any orbit
        assert res.achieved_eps > 1e-4

    def test_linear_splice_shadowed_at_loose_eps(self):
        # hyperbolic linear maps satisfy the shadowing property with
        # constant ~sqrt(5); at eps >> delta the search must succeed
        m, po = linear_splice(delta=1e-3, n=30)
        res = shadow_search(m, po, eps=1e-2, grid_resolution=1e-3)
        assert res.shadowed

    def test_lattice_too_large_to_index_is_refused(self):
        # (2 * 10^10 + 1)^2 points; np.unravel_index stops at 2^63 - 1
        m = make_map("cat")
        po = random_pseudo_orbit(m, np.array([0.4, 0.1]), 1e-4, 5)
        with pytest.raises(ValueError, match=r"has 4\.000e\+20 points"):
            shadow_search(m, po, eps=1e-2, grid_resolution=1e-12)

    def test_linear_two_orbit_trace_matches_closed_form(self):
        m = make_map("linear", a=2.0, b=0.5)
        x = np.array([0.0, 1.0])
        y = np.array([1e-3, 1.25])
        du, ds = y[0] - x[0], y[1] - x[1]
        xi, yi = x.copy(), y.copy()
        for i in range(1, 21):
            xi = evaluate(m, xi)
            yi = evaluate(m, yi)
            exact = np.hypot(2.0 ** i * du, 0.5 ** i * ds)
            assert abs(float(np.linalg.norm(yi - xi)) - exact) <= 1e-10 * exact


def orbit_trace(m, x, y):
    """Distance of the orbit of the single point x to y, step by step."""
    trace = np.empty(y.shape[0])
    trace[0] = m.distance(x, y[0])
    for i in range(1, y.shape[0]):
        x = evaluate(m, x)
        trace[i] = m.distance(x, y[i])
    return trace


def reference_seed(m, y, eps, res):
    """Best (x, objective) of the seed grid, the whole grid at once."""
    k = max(1, int(math.floor(eps / res)))
    offs = np.arange(-k, k + 1) * res
    mesh = np.meshgrid(*([offs] * m.dim), indexing="ij")
    offsets = np.stack([a.ravel() for a in mesh], axis=-1)
    offsets = offsets[np.linalg.norm(offsets, axis=1) <= eps]
    seeds = m.wrap(y[0] + offsets)
    worst = [float(orbit_trace(m, s, y).max()) for s in seeds]
    best_i = int(np.argmin(worst))
    return seeds[best_i].copy(), worst[best_i]


def reference_descent(m, y, best_x, best_obj, res, max_descent, eps):
    """Coordinate descent with one probe evaluated at a time, until an
    accepted probe is within eps (eps = -inf runs the full descent)."""
    step = res
    it = 0
    while it < max_descent and step > 1e-17 and not best_obj <= eps:
        improved = False
        for ax in range(m.dim):
            for sign in (+1.0, -1.0):
                cand = best_x.copy()
                cand[ax] += sign * step
                cand = m.wrap(cand)
                obj = float(orbit_trace(m, cand, y).max())
                it += 1
                if obj < best_obj:
                    best_obj, best_x, improved = obj, cand, True
                if it >= max_descent or best_obj <= eps:
                    break
            if it >= max_descent or best_obj <= eps:
                break
        if not improved:
            step *= 0.5
    return best_x, best_obj


def reference_refine(m, y):
    """The refined witness and its distance to y, or None."""
    refined = shadowing._refine_shadow(m, y) if m.has_inverse else None
    if refined is None:
        return None
    return refined[0], float(np.max(m.distance(refined[0], y)))


def reference_search(m, po, eps, res, max_descent, stop=True):
    """shadow_search with every orbit iterated on its own and one descent
    probe evaluated at a time: seed grid, then refinement, then descent
    unless the refined witness is within eps, up to its first orbit
    within eps.  With stop=False the descent runs in full, as the search
    did before it stopped at eps."""
    y = po.points
    best_x, best_obj = reference_seed(m, y, eps, res)
    refined = reference_refine(m, y) if best_obj > eps else None
    if refined is None or not refined[1] <= eps:
        best_x, best_obj = reference_descent(m, y, best_x, best_obj, res,
                                             max_descent,
                                             eps if stop else -math.inf)
        if refined is None or not refined[1] < best_obj:
            return best_obj <= eps, best_obj, best_x, \
                orbit_trace(m, best_x, y), "seed"
    z, achieved = refined
    return achieved <= eps, achieved, z[0].copy(), m.distance(z, y), "refined"


def descent_first_search(m, po, eps, res, max_descent):
    """The earlier order: seed grid, descent, then refinement only when
    the descent's best orbit misses eps."""
    y = po.points
    best_x, best_obj = reference_seed(m, y, eps, res)
    best_x, best_obj = reference_descent(m, y, best_x, best_obj, res,
                                         max_descent, -math.inf)
    method, trace = "seed", orbit_trace(m, best_x, y)
    refined = reference_refine(m, y) if best_obj > eps else None
    if refined is not None and refined[1] < best_obj:
        z, best_obj = refined
        best_x, method, trace = z[0].copy(), "refined", m.distance(z, y)
    return best_obj <= eps, best_obj, best_x, trace, method


# a degree-3 polynomial map without inverse, bounded near the unit square
CUBIC = polynomial_map([[{"c": 1.5, "e": [1, 0]}, {"c": -0.5, "e": [3, 0]},
                         {"c": 0.1, "e": [1, 2]}],
                        [{"c": 1.2, "e": [0, 1]}, {"c": -0.4, "e": [0, 3]},
                         {"c": 0.1, "e": [2, 1]}]], 2)

ORACLE_MAPS = {
    "cat": lambda: make_map("cat"),
    "standard-0.97": lambda: make_map("standard", K=0.97),
    "standard-1.5": lambda: make_map("standard", K=1.5),
    "translation": lambda: make_map("translation"),
    "linear": lambda: make_map("linear", a=2.0, b=0.5),
    "cubic": lambda: CUBIC,
}


def search(m, po, eps, res, max_descent):
    """shadow_search with its descent capped at `max_descent` probes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shadowing, "_MAX_DESCENT", max_descent)
        return shadow_search(m, po, eps, res)


def assert_same_result(res, ref):
    shadowed, achieved, x, trace, method = ref
    assert res.shadowed == shadowed
    assert res.method == method
    assert res.achieved_eps == achieved
    assert res.x.tobytes() == x.tobytes()
    assert res.trace.tobytes() == np.asarray(trace).tobytes()


def assert_full_descent_verdict(res, full, eps):
    """Against the full-descent search: the same verdict and method, the
    same result when unshadowed, and an orbit within eps when shadowed."""
    assert res.shadowed == full[0]
    assert res.method == full[4]
    if res.shadowed:
        assert res.achieved_eps <= eps
    else:
        assert_same_result(res, full)


class TestBatchedDescentOracle:
    @pytest.mark.parametrize("max_descent", [1, 3, 17, 200])
    @pytest.mark.parametrize("name", sorted(ORACLE_MAPS))
    @settings(max_examples=6, deadline=None)
    @given(st.data())
    def test_bit_identical_to_one_probe_at_a_time(self, name, max_descent, data):
        m = ORACLE_MAPS[name]()
        x0 = np.array(data.draw(st.lists(st.floats(-0.9, 0.9), min_size=2,
                                         max_size=2)))
        delta = data.draw(st.sampled_from([0.0, 1e-5, 1e-4, 1e-3]))
        N = data.draw(st.integers(1, 16))
        seed = data.draw(st.integers(0, 2 ** 31 - 1))
        eps = data.draw(st.sampled_from([2e-3, 1e-2]))
        res = eps / data.draw(st.sampled_from([1.0, 2.5, 4.0]))
        po = random_pseudo_orbit(m, m.wrap(x0), delta, N, rng_seed=seed)
        result = search(m, po, eps, res, max_descent)
        assert_same_result(result, reference_search(m, po, eps, res, max_descent))
        assert_full_descent_verdict(
            result, reference_search(m, po, eps, res, max_descent, stop=False),
            eps)
        # the descent only lowers the objective, so running the refinement
        # first may change the witness, never the verdict
        assert result.shadowed == \
            descent_first_search(m, po, eps, res, max_descent)[0]

    def test_linear_splice_matches_reference(self):
        m, po = linear_splice(delta=1e-3, n=30)
        for max_descent in (1, 3, 17, 200):
            result = search(m, po, 1e-4, 1e-5, max_descent)
            assert_same_result(result, reference_search(m, po, 1e-4, 1e-5,
                                                        max_descent))
            assert_full_descent_verdict(
                result, reference_search(m, po, 1e-4, 1e-5, max_descent,
                                         stop=False), 1e-4)
            assert result.shadowed == \
                descent_first_search(m, po, 1e-4, 1e-5, max_descent)[0]

    def test_rescue_case_reports_the_refined_witness(self):
        # the descent alone reaches eps here, and the descent-first order
        # reported its seed; the refined witness within eps now wins first
        m = make_map("cat")
        po = random_pseudo_orbit(m, np.random.default_rng(0).random(2), 1e-3,
                                 3, rng_seed=0)
        res = shadow_search(m, po, 2e-3, 2e-3)
        old = descent_first_search(m, po, 2e-3, 2e-3, 200)
        assert old[0] and old[4] == "seed"
        assert res.shadowed and res.method == "refined"
        assert res.witness_defect < 1e-11
        assert res.achieved_eps == float(np.max(m.distance(res.witness,
                                                           po.points)))

    def test_refined_cat_search_skips_the_descent(self, monkeypatch):
        # bench-style cat search: the refined witness is within eps and
        # every seed of the grid (about 300, one block) leaves the tube,
        # so neither the grid's errors nor a descent are computed
        calls, descents = [], []
        errors, descend = shadowing._tracking_errors, shadowing._descend
        monkeypatch.setattr(shadowing, "_tracking_errors",
                            lambda *a: calls.append(1) or errors(*a))
        monkeypatch.setattr(shadowing, "_descend",
                            lambda *a: descents.append(1) or descend(*a))
        m = make_map("cat")
        po = random_pseudo_orbit(m, np.array([0.25, 0.6]), 1e-4, 30,
                                 rng_seed=7)
        res = shadow_search(m, po, 1e-2, 1e-3)
        assert res.shadowed and res.method == "refined"
        assert not calls and not descents

    def test_unshadowed_seed_grid_without_witness_still_descends(
            self, monkeypatch):
        # standard K = 0.97 is not hyperbolic along this orbit, so there is
        # no refined witness; the descent takes the grid's 0.025 below eps
        descents = []
        descend = shadowing._descend
        monkeypatch.setattr(shadowing, "_descend",
                            lambda *a: descents.append(1) or descend(*a))
        m = make_map("standard", K=0.97)
        po = random_pseudo_orbit(m, np.random.default_rng(11).random(2), 1e-4,
                                 50, rng_seed=11)
        assert shadowing._best_seed(m, po.points, 1e-2, 1e-3)[1] > 1e-2
        assert shadowing._refine_shadow(m, po.points) is None
        res = shadow_search(m, po, 1e-2, 1e-3)
        assert descents == [1]
        assert res.shadowed and res.method == "seed"

    def test_seed_grid_within_eps_makes_no_descent_probe(self, monkeypatch):
        # standard K = 0.97 has no refinement here; the grid's best seed
        # tracks within 0.0012 < eps, so the search ends with the grid
        m = make_map("standard", K=0.97)
        po = random_pseudo_orbit(m, np.random.default_rng(0).random(2), 1e-4,
                                 50, rng_seed=0)
        best_x, best_obj, _ = shadowing._best_seed(m, po.points, 1e-2, 1e-3)
        assert best_obj <= 1e-2
        calls = []
        errors = shadowing._tracking_errors
        monkeypatch.setattr(shadowing, "_tracking_errors",
                            lambda *a: calls.append(1) or errors(*a))
        res = shadow_search(m, po, 1e-2, 1e-3)
        assert len(calls) == 1
        assert res.shadowed and res.method == "seed"
        assert res.x.tobytes() == best_x.tobytes()
        assert res.achieved_eps == best_obj

    def test_descent_stops_at_its_first_probe_within_eps(self, monkeypatch):
        # the orbit of test_unshadowed_seed_grid_without_witness_still_descends:
        # the grid misses eps by 0.015 and the descent reaches it
        m = make_map("standard", K=0.97)
        y = random_pseudo_orbit(m, np.random.default_rng(11).random(2), 1e-4,
                                50, rng_seed=11).points
        start = shadowing._best_seed(m, y, 1e-2, 1e-3)
        assert start[1] > 1e-2
        objs = []
        errors = shadowing._tracking_errors

        def counted(*a):
            e = errors(*a)
            objs.extend(e.max(axis=1).tolist())
            return e

        blocked = shadowing._descend(m, y, *start, 1e-3, 1e-2)
        monkeypatch.setattr(shadowing, "_tracking_errors", counted)
        # one probe per block: every probe evaluated is also walked
        monkeypatch.setattr(shadowing, "_PROBE_BLOCK", 1)
        x, obj, trace = shadowing._descend(m, y, *start, 1e-3, 1e-2)
        stopped = objs[:]
        objs.clear()
        full = shadowing._descend(m, y, *start, 1e-3, -math.inf)
        # the same probes up to the stop, and fewer of them
        assert stopped == objs[:len(stopped)]
        assert len(stopped) < len(objs)
        assert full[1] < obj
        # probes before the first one within eps miss eps, so that one is
        # accepted, and it ends the descent
        first = next(i for i, o in enumerate(stopped) if o <= 1e-2)
        assert first == len(stopped) - 1
        assert obj == stopped[first]
        assert trace.tobytes() == orbit_trace(m, x, y).tobytes()
        assert blocked[0].tobytes() == x.tobytes() and blocked[1] == obj

    @pytest.mark.parametrize("probe_block", [1, 7])
    @pytest.mark.parametrize("seed_block", [1, 7])
    def test_block_sizes_change_nothing(self, monkeypatch, probe_block, seed_block):
        cases = []
        for name, x0, N in (("cat", [0.25, 0.6], 30), ("standard-1.5", [0.3, 0.2], 20),
                            ("cubic", [0.4, -0.3], 12)):
            m = ORACLE_MAPS[name]()
            po = random_pseudo_orbit(m, np.array(x0), 1e-4, N, rng_seed=5)
            cases.append((m, po))
        before = [search(m, po, 1e-2, 2.5e-3, md)
                  for m, po in cases for md in (17, 200)]
        monkeypatch.setattr(shadowing, "_PROBE_BLOCK", probe_block)
        monkeypatch.setattr(shadowing, "_SEED_BLOCK", seed_block)
        after = [search(m, po, 1e-2, 2.5e-3, md)
                 for m, po in cases for md in (17, 200)]
        for a, b in zip(before, after):
            assert_same_result(b, (a.shadowed, a.achieved_eps, a.x, a.trace, a.method))
            assert (a.witness is None) == (b.witness is None)
            if a.witness is not None:
                assert a.witness.tobytes() == b.witness.tobytes()
                assert a.witness_defect == b.witness_defect

    @pytest.mark.parametrize("nan", [False, True])
    @pytest.mark.parametrize("seed_block", [1, 3, 1024])
    def test_seed_blocks_keep_the_first_argmin(self, monkeypatch, seed_block, nan):
        # objectives with ties (and nans): the seed kept is np.argmin's
        def errors(map_spec, seeds, y):
            e = np.round(np.mod(seeds[:, :1] * 97.0, 1.0), 1)
            if nan:
                e[np.mod(seeds[:, 1] * 89.0, 1.0) > 0.8] = np.nan
            return np.repeat(e, y.shape[0], axis=1)

        seen = []
        monkeypatch.setattr(shadowing, "_SEED_BLOCK", seed_block)
        monkeypatch.setattr(shadowing, "_tracking_errors",
                            lambda m, seeds, y: seen.append(seeds) or errors(m, seeds, y))
        m = make_map("cat")
        po = random_pseudo_orbit(m, np.array([0.3, 0.7]), 0.0, 4)
        monkeypatch.setattr(shadowing, "_MAX_DESCENT", 0)
        # the best objective is 0 or nan, never above eps: no refinement
        res = shadow_search(m, po, 1e-2, 1e-3)
        seeds = np.concatenate(seen)
        assert seeds.shape[0] > 300
        worst = errors(m, seeds, po.points).max(axis=1)
        assert np.isnan(worst).any() == nan
        assert res.x.tobytes() == seeds[np.argmin(worst)].tobytes()

    def test_memory_bounded_by_the_seed_block(self):
        # about 31 k seeds over 201 steps: a full (seeds x steps) error
        # matrix alone would take 50 MB
        m = make_map("cat")
        po = random_pseudo_orbit(m, np.array([0.3, 0.7]), 1e-3, 200, rng_seed=0)
        tracemalloc.start()
        try:
            shadow_search(m, po, 1e-2, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6, peak

    @pytest.mark.parametrize("seed_block", [1, 3, 1024])
    @pytest.mark.parametrize("dim, m, eps", [
        (1, 5, 4.5e-3), (2, 10, 1e-2), (2, 33, 2.5e-2), (3, 6, 5e-3)])
    def test_seed_offsets_are_the_filtered_grid_in_blocks(
            self, monkeypatch, seed_block, dim, m, eps):
        # the whole-grid construction the lazy blocks replaced
        res = 1e-3
        offs = np.arange(-m, m + 1) * res
        mesh = np.meshgrid(*([offs] * dim), indexing="ij")
        want = np.stack([a.ravel() for a in mesh], axis=-1)
        want = want[np.linalg.norm(want, axis=1) <= eps]
        monkeypatch.setattr(shadowing, "_SEED_BLOCK", seed_block)
        blocks = list(shadowing._seed_offsets(dim, m, res, eps))
        assert [b.shape[0] for b in blocks[:-1]] == \
            [seed_block] * (len(blocks) - 1)
        assert 0 < blocks[-1].shape[0] <= seed_block
        assert np.concatenate(blocks).tobytes() == want.tobytes()

    def test_seed_grid_is_not_held_whole(self):
        # eps / resolution = 500: 1 M lattice points, 785 k seeds; the
        # whole grid took about 65 MB of float64 arrays
        tracemalloc.start()
        try:
            count = sum(b.shape[0] for b in
                        shadowing._seed_offsets(2, 500, 2e-5, 1e-2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 785349
        assert peak < 1e6, peak


def stage_order_search(m, po, eps, res):
    """shadow_search as it ran before the refinement went first: the seed
    grid, then the refinement when the best seed misses eps, then the
    descent unless the refined witness is within eps."""
    y = po.points
    best_x, best_obj, best_trace = shadowing._best_seed(m, y, eps, res)
    refined = None
    if best_obj > eps and m.has_inverse:
        refined = shadowing._refine_shadow(m, y)
    if refined is not None:
        witness, witness_defect = refined
        trace = m.distance(witness, y)
        achieved = float(np.max(trace))
    if refined is None or not achieved <= eps:
        best_x, best_obj, best_trace = shadowing._descend(
            m, y, best_x, best_obj, best_trace, res, eps)
        if refined is None or not achieved < best_obj:
            return shadowing.ShadowingResult(best_obj <= eps, float(eps),
                                             best_obj, best_x, best_trace,
                                             float(res), "seed")
    return shadowing.ShadowingResult(achieved <= eps, float(eps), achieved,
                                     witness[0].copy(), trace, float(res),
                                     "refined", witness, witness_defect)


def recorded(fn, *args):
    """(fn(*args), the (category, message) of every warning it raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [(w.category, str(w.message)) for w in caught]


def result_bits(r):
    """Every field of a ShadowingResult, floats and arrays as bytes."""
    def bits(v):
        return None if v is None else np.asarray(v, dtype=float).tobytes()

    return (r.shadowed, r.method, bits(r.eps), bits(r.search_resolution),
            bits(r.achieved_eps), bits(r.x), bits(r.trace), bits(r.witness),
            bits(r.witness_defect))


def nan_above(m, edge):
    """m with a nan image wherever the point's second coordinate is above
    edge."""
    def fwd(p, out=None):
        img = m.forward(p, out=out)
        img[np.asarray(p)[..., 1] > edge] = np.nan
        return img

    return dataclasses.replace(m, forward=fwd)


# 1e300 x^4 overflows past this |x|
_OVERFLOW_EDGE = (np.finfo(float).max / 1e300) ** 0.25

# name -> (map, x0, delta)
STAGE_CASES = {
    "cat": (lambda: make_map("cat"), [0.25, 0.6], 1e-4),
    "standard-0.97": (lambda: make_map("standard", K=0.97), [0.5, 0.5], 1e-4),
    "standard-1.5": (lambda: make_map("standard", K=1.5), [0.3, 0.2], 1e-4),
    "standard-1e12": (lambda: make_map("standard", K=1e12), [0.3, 0.2], 1e-4),
    # noise below the ulp of the coordinates, 0.3 * 2^N, is no
    # delta-pseudo-orbit: the long orbit is exact
    "linear": (lambda: make_map("linear", a=2.0, b=0.5), [0.3, 0.2],
               lambda N: 1e-4 if N <= 30 else 0.0),
    # seeds above the edge have nan images while the witness stays below
    "linear-nan": (lambda: nan_above(make_map("linear", a=2.0, b=0.5),
                                     0.301), [0.0, 0.3],
                   lambda N: 1e-4 if N <= 30 else 0.0),
    "shear": (lambda: make_map("shear"), [0.3, 0.2], 1e-4),
    "translation": (lambda: make_map("translation"), [0.3, 0.2], 1e-4),
    "contraction": (lambda: make_map("contraction", c=0.5, dim=2),
                    [0.3, 0.2], 1e-4),
    "cubic1": (lambda: polynomial_map(
        [[{"c": 1.5, "e": [1]}, {"c": -0.5, "e": [3]}]], 1), [0.5], 1e-4),
    "poly3": (lambda: polynomial_map(
        [[{"c": 1.5, "e": [1, 0, 0]}, {"c": -0.5, "e": [3, 0, 0]},
          {"c": 0.1, "e": [0, 1, 0]}],
         [{"c": 1.2, "e": [0, 1, 0]}, {"c": -0.4, "e": [0, 3, 0]}],
         [{"c": 0.5, "e": [0, 0, 1]}, {"c": 0.2, "e": [1, 1, 0]}]], 3),
        [0.3, -0.2, 0.4], 1e-4),
    # seed orbits overflow to inf (an exact orbit at 0) ...
    "overflow1": (lambda: polynomial_map([[{"c": 1e300, "e": [4]}]], 1),
                  [0.0], 0.0),
    # ... or, past the edge, to inf - inf = nan, while 0.5 x below it
    "nan1": (lambda: polynomial_map(
        [[{"c": 1e300, "e": [4]}, {"c": -1e300, "e": [4]},
          {"c": 0.5, "e": [1]}]], 1), [_OVERFLOW_EDGE - 1e-3], 1e-4),
}


class TestRefineFirst:
    @pytest.mark.parametrize("seed_block", [1, 7, 1024])
    @pytest.mark.parametrize("name", sorted(STAGE_CASES))
    def test_bit_identical_to_the_stage_order(self, monkeypatch, name,
                                              seed_block):
        make, x0, delta = STAGE_CASES[name]
        m = make()
        monkeypatch.setattr(shadowing, "_SEED_BLOCK", seed_block)
        for N in (0, 1, 5, 30, 100):
            po = random_pseudo_orbit(m, np.array(x0), delta(N) if
                                     callable(delta) else delta, N,
                                     rng_seed=3)
            for eps in (2e-3, 1e-2):
                res = eps / 1.5
                got, got_warnings = recorded(shadow_search, m, po, eps, res)
                want, want_warnings = recorded(stage_order_search, m, po,
                                               eps, res)
                assert result_bits(got) == result_bits(want), (N, eps)
                assert got_warnings == want_warnings, (N, eps)
                if m.has_inverse:
                    # the tube check is the grid's verdict on eps
                    best = shadowing._best_seed(m, po.points, eps, res)[1]
                    assert shadowing._every_seed_leaves(
                        m, po.points, eps, res) == (best > eps), (N, eps)

    def test_bench_cat_searches_skip_the_seed_grid(self, monkeypatch):
        # the bench's cat searches: refined witnesses within eps, and every
        # seed orbit of the grid (317 seeds, one block) leaves the tube
        # within a few of the 30 steps
        seeds = sum(b.shape[0] for b in
                    shadowing._seed_offsets(2, 10, 1e-3, 1e-2))
        grids, steps = [], []
        best_seed, evaluate = shadowing._best_seed, shadowing.evaluate

        def counted(m, p, *a, **k):
            steps.append(np.shape(p)[0] == seeds)
            return evaluate(m, p, *a, **k)

        monkeypatch.setattr(shadowing, "_best_seed",
                            lambda *a: grids.append(1) or best_seed(*a))
        monkeypatch.setattr(shadowing, "evaluate", counted)
        m = make_map("cat")
        rng = np.random.default_rng(1)
        for seed in range(5):
            po = random_pseudo_orbit(m, rng.random(2), 1e-4, 30,
                                     rng_seed=seed)
            steps.clear()
            res = shadow_search(m, po, 1e-2, 1e-3)
            assert res.shadowed and res.method == "refined"
            assert 0 < sum(steps) < 30
        assert seeds == 317 and not grids

    def test_unshadowed_standard_search_runs_the_grid_once(self, monkeypatch):
        grids = []
        best_seed = shadowing._best_seed
        monkeypatch.setattr(shadowing, "_best_seed",
                            lambda *a: grids.append(1) or best_seed(*a))
        m = make_map("standard", K=0.97)
        po = random_pseudo_orbit(m, np.array([0.1, 0.1]), 1e-4, 50,
                                 rng_seed=0)
        res = shadow_search(m, po, 1e-2, 1e-3)
        assert not res.shadowed and grids == [1]
        assert result_bits(res) == \
            result_bits(stage_order_search(m, po, 1e-2, 1e-3))

    def test_witness_dropped_when_a_seed_stays_in_the_tube(self):
        # the refined witness is within eps, but so is an orbit of the
        # grid, which the stage order reports without refining
        m = make_map("linear", a=2.0, b=0.5)
        po = random_pseudo_orbit(m, np.array([0.3, 0.2]), 1e-4, 5,
                                 rng_seed=0)
        z, _ = shadowing._refine_shadow(m, po.points)
        assert np.max(m.distance(z, po.points)) <= 1e-2
        assert not shadowing._every_seed_leaves(m, po.points, 1e-2, 1e-3)
        res = shadow_search(m, po, 1e-2, 1e-3)
        assert res.shadowed and res.method == "seed" and res.witness is None
        assert result_bits(res) == \
            result_bits(stage_order_search(m, po, 1e-2, 1e-3))


def eig_saddle(J):
    """The hyperbolicity test of one 2x2 Jacobian by `np.linalg.eig`: real
    eigenvalues (an imaginary part of at most 1e-12 counts as real) with
    |lambda_u| > 1 + 1e-9 and |lambda_s| < 1 - 1e-9."""
    vals = np.linalg.eig(J)[0]
    if np.iscomplexobj(vals) and np.any(np.abs(vals.imag) > 1e-12):
        return False
    lam_u, lam_s = sorted(np.abs(vals.real), reverse=True)
    return bool(lam_u > 1.0 + 1e-9 and lam_s < 1.0 - 1e-9)


def dense_refine(m, y):
    """`_refine_shadow` as the eig test at every point of y, then Newton
    sweeps whose step is `np.linalg.lstsq` on the dense orbit system."""
    if not all(eig_saddle(J) for J in m.jac(y)):
        return None
    z = y.copy()
    n = z.shape[0]
    for sweep in range(system._REFINE_SWEEPS + 1):
        g = m.delta(z[1:], evaluate(m, z[:-1]))
        worst = float(np.max(np.linalg.norm(g, axis=1), initial=0.0))
        if worst < system._DEFECT_TOL:
            return z, worst
        if sweep == system._REFINE_SWEEPS:
            return None
        N = np.zeros((n - 1, 2, n, 2))
        for i, J in enumerate(m.jac(z[:-1])):
            N[i, :, i] = J
            N[i, :, i + 1] = -np.eye(2)
        e = np.linalg.lstsq(N.reshape(2 * (n - 1), 2 * n), -g.ravel(),
                            rcond=None)[0]
        if not np.all(np.isfinite(e)) or np.max(np.abs(e)) > 1e6:
            return None
        z = m.wrap(z + e.reshape(n, 2))


# 2x2 matrices at the edges of the hyperbolicity test: [[tr, -det], [1, 0]]
# at |tr| = 2 +- 1e-12 with det = 1 (real pairs 1 +- 1e-6, or complex),
# eigenvalues just past or short of 1 +- 1e-9, and determinants not 1
PLANTED_JACOBIANS = [
    *([[tr, -1.0], [1.0, 0.0]] for tr in (2.0 + 1e-12, 2.0 - 1e-12,
                                          -2.0 - 1e-12, -2.0 + 1e-12)),
    [[1.0 + 2e-9, 0.0], [0.0, 0.5]], [[1.0 + 5e-10, 0.0], [0.0, 0.5]],
    [[3.0, 0.0], [0.0, 1.0 - 2e-9]], [[3.0, 0.0], [0.0, 1.0 - 5e-10]],
    [[2.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 0.0]],
    [[3.0, 1.0], [1.0, 1.0]], [[0.5, 0.0], [0.0, 0.5]], [[0.0, 0.0], [0.0, 0.0]],
    [[-2.5, 1.0], [-1.5, 1.0]], [[1.0, 2.0], [-2.0, 1.0]], [[2.0, 0.0], [0.0, -3.0]],
]


class TestRefinement:
    @pytest.mark.parametrize("name", ["cat", "linear", "standard-1.5"])
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_the_dense_oracle(self, name, data):
        m = STAGE_CASES[name][0]()
        x0 = np.array(data.draw(st.lists(st.floats(0.0, 0.99), min_size=2,
                                         max_size=2)))
        delta = data.draw(st.sampled_from([0.0, 1e-6, 1e-4, 1e-3, 1e-2]))
        N = data.draw(st.integers(0, 30))
        po = random_pseudo_orbit(m, x0, delta, N,
                                 rng_seed=data.draw(st.integers(0, 2 ** 31)))
        got = shadowing._refine_shadow(m, po.points)
        want = dense_refine(m, po.points)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[1] < system._DEFECT_TOL
            assert np.max(m.distance(got[0], want[0])) < 1e-10

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4))
    def test_gate_matches_eig(self, entries):
        J = np.reshape(entries, (2, 2))
        assert bool(shadowing._saddles(J[None])[0]) == eig_saddle(J)

    def test_gate_matches_eig_on_planted_and_map_jacobians(self):
        # the planted edges, and the Jacobians of the cubic map (det far
        # from 1) and of both standard maps along random points
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, (400, 2))
        J = np.concatenate([np.asarray(PLANTED_JACOBIANS), CUBIC.jac(pts),
                            make_map("standard", K=0.97).jac(pts),
                            make_map("standard", K=1.5).jac(pts)])
        got = shadowing._saddles(J)
        want = np.array([eig_saddle(j) for j in J])
        assert got.tolist() == want.tolist()
        assert got[:4].tolist() == [True, False, True, False]
        assert 0 < np.count_nonzero(got) < len(J)

    def test_long_orbits_solve_in_small_blocks(self, monkeypatch):
        # a cat pseudo-orbit of 2000 points and a splice whose approach
        # takes 2952 steps refine with no dense system past 32 blocks of
        # 2 rows, where a dense N N^T of 4000 rows would take 128 MB
        sizes = []
        solve = np.linalg.solve

        def recorded(a, b):
            sizes.append(np.shape(a)[-1])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        cat = make_map("cat")
        for po in (random_pseudo_orbit(cat, np.array([0.25, 0.6]), 1e-4, 2000,
                                       rng_seed=7),
                   splice_pseudo_orbit(cat, np.array([0.1234, 0.5678]),
                                       np.array([0.5, 0.5]), 0.01)):
            witness, defect = shadowing._refine_shadow(cat, po.points)
            assert defect < system._DEFECT_TOL
            assert np.max(cat.distance(witness, po.points)) < 2.0 * po.delta
        assert po.provenance["n0"] == 2952
        assert sizes and max(sizes) <= 64


class TestLinearStableCheck:
    def test_unstable_component_diverges(self):
        m = make_map("linear", a=2.0, b=0.5)
        x = np.array([0.0, 1.0])
        reports = linear_stable_check(
            m, x, eps=1e-2, N=20,
            seeds=[np.array([1e-3, 1.0])])
        r = reports[0]
        assert r.diverged and r.passed and r.closed_form_ok
        # closed-form oracle: 2^20 * 1e-3
        assert abs(r.max_distance - 2.0 ** 20 * 1e-3) <= 1e-10 * r.max_distance

    def test_same_point_trivially_shadows(self):
        m = make_map("linear", a=2.0, b=0.5)
        x = np.array([0.0, 1.0])
        r = linear_stable_check(m, x, eps=1e-2, N=20, seeds=[x.copy()])[0]
        assert r.shadows and r.passed

    def test_stable_axis_seed_shadows_forever(self):
        m = make_map("linear", a=2.0, b=0.5)
        x = np.array([0.0, 1.0])
        r = linear_stable_check(m, x, eps=1e-2, N=20,
                                seeds=[np.array([0.0, 1.0 + 5e-3])])[0]
        assert r.shadows and not r.diverged and r.passed


class TestProfile:
    def test_delta_zero_always_succeeds(self):
        m = make_map("cat")
        rows = shadowing_profile(m, [0.0], eps=1e-2, trials=5, N=30, rng_seed=4)
        assert rows[0].success_fraction == 1.0

    def test_cat_profile_improves_with_smaller_delta(self):
        m = make_map("cat")
        rows = shadowing_profile(m, [1e-5, 1e-4, 1e-3], eps=1e-2, trials=10,
                                 N=50, rng_seed=4)
        assert rows[0].success_fraction == 1.0
        assert rows[1].success_fraction == 1.0
        fr = [r.success_fraction for r in rows]
        assert fr[0] >= fr[-1]

    def test_translation_drift_defeats_shadowing(self):
        # accumulated noise defeats the rigid translation once the random
        # walk spread delta*sqrt(N)/2 passes eps; at N=400 most runs fail
        m = make_map("translation")
        rows = shadowing_profile(m, [1e-3], eps=1e-2, trials=20, N=400,
                                 rng_seed=6, window=([0, 0], [1, 1]))
        assert rows[0].success_fraction < 1.0
        assert rows[0].worst_achieved > 1e-2


class TestCsvRoundtrip:
    def test_pseudo_orbit_roundtrip(self, tmp_path):
        # read back with numpy: %.17g floats parse to the same bits
        from dynkit.shadowing import pseudo_orbit_to_csv
        m = make_map("cat")
        po = random_pseudo_orbit(m, np.array([0.3, 0.4]), 1e-4, 25, rng_seed=9)
        path = tmp_path / "po.csv"
        pseudo_orbit_to_csv(po, path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 1:3], po.points)
        assert np.array_equal(rows[:-1, 3], po.defects)
        assert path.read_text().splitlines()[-1].endswith(",0")
