"""Map registry: evaluation, Jacobians, volume preservation, Lagrange probes."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynkit._util import min_image, wrap_unit
from dynkit.system import (
    InverseUnavailableError, MapSpec, evaluate, finite_difference_jacobian,
    jacobian, lagrange_probe, make_map, orbit, polynomial_map, volume_check,
)

UNIT = ([0.0, 0.0], [1.0, 1.0])


def cubic_map():
    # two attracting fixed points at +-1, repeller at 0
    return polynomial_map(
        [[{"c": 1.5, "e": [1]}, {"c": -0.5, "e": [3]}]],
        dim=1, window=([-2.0], [2.0]))


class TestEvaluate:
    def test_cat_fixed_point(self):
        cat = make_map("cat")
        assert np.allclose(evaluate(cat, np.zeros(2)), np.zeros(2))

    def test_translation_unit_shift(self):
        tr = make_map("translation")
        assert np.allclose(evaluate(tr, np.zeros(2)), [1.0, 0.0])

    def test_cat_inverse_identity(self):
        cat = make_map("cat")
        p = np.array([0.1, 0.2])
        back = evaluate(cat, evaluate(cat, p), "inverse")
        assert np.linalg.norm(back - p) < 1e-12

    def test_inverse_unavailable(self):
        with pytest.raises(InverseUnavailableError):
            evaluate(cubic_map(), np.array([0.5]), "inverse")

    def test_forward_inverse_identity_100_points(self):
        rng = np.random.default_rng(5)
        for name, params in (("cat", {}), ("standard", {"K": 0.9}),
                             ("linear", {"a": 2.0, "b": 0.5}),
                             ("shear", {}), ("contraction", {"c": 0.5, "dim": 2})):
            m = make_map(name, **params)
            pts = rng.random((100, 2))
            back = evaluate(m, evaluate(m, pts), "inverse")
            d = m.distance(back, pts)
            assert np.max(d) < 1e-10, name


class TestJacobian:
    def test_cat_constant(self):
        cat = make_map("cat")
        assert np.allclose(jacobian(cat, np.array([0.7, 0.3])), [[2, 1], [1, 1]])

    def test_linear_diagonal(self):
        m = make_map("linear", a=2.0, b=0.5)
        assert np.allclose(jacobian(m, np.zeros(2)), np.diag([2.0, 0.5]))

    def test_standard_at_origin_hand_derived(self):
        # differentiate (x + y + (K/2pi) sin 2pi x, y + (K/2pi) sin 2pi x):
        # rows ((1 + K cos 2pi x, 1), (K cos 2pi x, 1)); at x=0 cos = 1
        K = 0.7
        m = make_map("standard", K=K)
        J = jacobian(m, np.zeros(2))
        assert np.allclose(J, [[1 + K, 1], [K, 1]], atol=1e-12)
        Jfd = finite_difference_jacobian(m, np.array([0.33, 0.71]))
        assert np.allclose(m.jac(np.array([[0.33, 0.71]]))[0], Jfd, atol=1e-6)

    def test_registry_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(42)
        cases = [("cat", {}), ("standard", {"K": 0.97}), ("translation", {}),
                 ("linear", {"a": 2.0, "b": 0.5}),
                 ("contraction", {"c": 0.5, "dim": 2}), ("shear", {})]
        for name, params in cases:
            m = make_map(name, **params)
            pts = rng.random((100, m.dim))
            for p in pts:
                J = m.jac(p[None, :])[0]
                Jfd = finite_difference_jacobian(m, p)
                denom = max(1.0, float(np.max(np.abs(J))))
                assert np.max(np.abs(J - Jfd)) / denom < 1e-6, name

    def test_polynomial_jacobian_closed_form(self):
        m = cubic_map()
        for x in (-1.5, -0.3, 0.0, 0.8, 1.9):
            J = m.jac(np.array([[x]]))[0, 0, 0]
            assert abs(J - (1.5 - 1.5 * x * x)) < 1e-12
        Jfd = finite_difference_jacobian(m, np.array([0.4]))
        assert abs(Jfd[0, 0] - m.jac(np.array([[0.4]]))[0, 0, 0]) < 1e-6


class TestVolume:
    def test_cat_exact(self):
        rep = volume_check(make_map("cat"), UNIT, samples=200, tol=1e-12)
        assert rep.passed and rep.max_deviation == 0.0

    def test_standard_unit_determinant(self):
        rep = volume_check(make_map("standard", K=0.97), UNIT,
                           samples=1000, tol=1e-9)
        assert rep.passed
        assert rep.max_deviation <= 1e-9

    def test_contraction_fails(self):
        rep = volume_check(make_map("contraction", c=0.5, dim=2),
                           ([-1, -1], [1, 1]), samples=50, tol=1e-6)
        assert not rep.passed
        assert abs(rep.max_deviation - 0.75) < 1e-12  # det = 0.25

    def test_volume_preserving_registry_members(self):
        for name, params in (("cat", {}), ("standard", {"K": 0.5}),
                             ("translation", {}), ("shear", {}),
                             ("rotation", {"alpha": 0.3})):
            m = make_map(name, **params)
            window = ([0.0] * m.dim, [1.0] * m.dim)
            rep = volume_check(m, window, samples=500, tol=1e-9)
            assert rep.passed, name


class TestLagrange:
    def test_translation_escapes_at_step_10(self):
        res = lagrange_probe(make_map("translation"), np.zeros(2),
                             escape_radius=10.0, n_max=50)
        assert not res.bounded
        assert res.escaped_step == 10

    def test_cat_bounded_on_torus(self):
        res = lagrange_probe(make_map("cat"), np.array([0.3, 0.9]),
                             escape_radius=10.0, n_max=200)
        assert res.bounded

    def test_contraction_bounded(self):
        res = lagrange_probe(make_map("contraction", c=0.5, dim=2),
                             np.array([8.0, 0.0]), escape_radius=10.0, n_max=100)
        assert res.bounded

    def test_orbit_exactness(self):
        m = make_map("standard", K=0.5)
        seg = orbit(m, np.array([0.2, 0.7]), 20)
        for k in range(20):
            assert np.allclose(evaluate(m, seg.points[k]), seg.points[k + 1])


class TestLipschitz:
    def test_registry_bounds_dominate_sampled_norms(self):
        rng = np.random.default_rng(1)
        for name, params in (("cat", {}), ("standard", {"K": 0.97}),
                             ("linear", {"a": 2.0, "b": 0.5}), ("shear", {})):
            m = make_map(name, **params)
            pts = rng.random((200, m.dim))
            norms = np.linalg.norm(m.jac(pts), ord=2, axis=(1, 2))
            assert float(np.max(norms)) <= m.lipschitz + 1e-9, name

    def test_polynomial_local_bound_dominates(self):
        m = cubic_map()
        lo = np.array([[0.5], [-2.0]])
        hi = np.array([[1.0], [-1.5]])
        bounds = m.jac_abs_bound(lo, hi)[:, 0, 0]
        for (a, b), bd in zip(((0.5, 1.0), (-2.0, -1.5)), bounds):
            xs = np.linspace(a, b, 50)[:, None]
            actual = np.max(np.abs(m.jac(xs)[:, 0, 0]))
            assert actual <= bd + 1e-12


class TestPolynomialValidation:
    def test_degree_cap(self):
        with pytest.raises(ValueError):
            polynomial_map([[{"c": 1.0, "e": [5]}]], dim=1)

    def test_component_count_enforced(self):
        with pytest.raises(ValueError):
            polynomial_map([[{"c": 1.0, "e": [1, 0]}]], dim=2)


# ---------------------------------------------------------------------------
# the unit-torus wrap against np.mod, and the evaluators against the np.mod
# and np.stack forms they replaced
# ---------------------------------------------------------------------------

TINY_NEG = (-5e-324, -1e-17, -2.0 ** -54, -2.0 ** -53)
EDGE_FLOATS = np.array(
    [0.0, -0.0, 5e-324, *TINY_NEG, np.nextafter(1.0, 0.0),
     np.nextafter(-1.0, 0.0), 0.5, -0.5, -1.0, -2.0, -7.0, 2.0 ** 53,
     -(2.0 ** 53), 2.0 ** 53 + 2, -(2.0 ** 53 + 2), np.inf, -np.inf, np.nan])
# a coordinate on or near the torus: exact edges, tiny negatives, or anywhere
COORD = st.one_of(
    st.sampled_from([0.0, -0.0, np.nextafter(1.0, 0.0), 1.0, *TINY_NEG]),
    st.floats(-3.0, 3.0))
# a double of magnitude 1e-300 to 1e300, either sign
WIDE = st.builds(lambda m, neg: -m if neg else m,
                 st.floats(1e-300, 1e300), st.booleans())


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def mod_wrap(x):
    with np.errstate(invalid="ignore"):
        return np.mod(x, 1.0)


def mod_min_image(d, periods):
    p = np.asarray(periods, dtype=float)
    with np.errstate(invalid="ignore"):
        return (d + 0.5 * p) % p - 0.5 * p


def floor_wrap(x):
    with np.errstate(invalid="ignore"):
        return wrap_unit(x)


def mod_standard(K):
    c = K / (2.0 * math.pi)

    def fwd(p):
        p = np.asarray(p, dtype=float)
        kick = c * np.sin(2.0 * math.pi * p[..., 0])
        x = p[..., 0] + p[..., 1] + kick
        y = p[..., 1] + kick
        return np.mod(np.stack([x, y], axis=-1), 1.0)

    def inv(p):
        p = np.asarray(p, dtype=float)
        x = np.mod(p[..., 0] - p[..., 1], 1.0)
        y = p[..., 1] - c * np.sin(2.0 * math.pi * x)
        return np.mod(np.stack([x, y], axis=-1), 1.0)

    return fwd, inv


def mod_cat():
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    Ainv = np.array([[1.0, -1.0], [-1.0, 2.0]])

    def fwd(p):
        return np.mod(np.asarray(p, dtype=float) @ A.T, 1.0)

    def inv(p):
        return np.mod(np.asarray(p, dtype=float) @ Ainv.T, 1.0)

    return fwd, inv


def mod_rotation(alpha):
    def fwd(p):
        return np.mod(np.asarray(p, dtype=float) + alpha, 1.0)

    def inv(p):
        return np.mod(np.asarray(p, dtype=float) - alpha, 1.0)

    return fwd, inv


ALPHA = math.sqrt(2.0) - 1.0
MOD_MAPS = [(("cat", {}), mod_cat()),
            (("standard", {"K": 0.97}), mod_standard(0.97)),
            (("standard", {"K": 1.5}), mod_standard(1.5)),
            (("rotation", {"alpha": ALPHA}), mod_rotation(ALPHA))]


class TestUnitWrap:
    def test_edge_floats_match_np_mod(self):
        assert same_bytes(floor_wrap(EDGE_FLOATS), mod_wrap(EDGE_FLOATS))
        # tiny negatives round up to 1.0 under both
        assert np.all(floor_wrap(np.array(TINY_NEG[:3])) == 1.0)

    @pytest.mark.parametrize("mutant", [
        lambda x: np.fmod(x, 1.0), lambda x: x - np.trunc(x),
        lambda x: x - (np.ceil(x) - 1.0)], ids=["fmod", "trunc", "ceil"])
    def test_edge_floats_catch_wrong_wraps(self, mutant):
        with np.errstate(invalid="ignore"):
            assert not same_bytes(mutant(EDGE_FLOATS), mod_wrap(EDGE_FLOATS))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(WIDE, min_size=1, max_size=64))
    def test_wide_floats_match_np_mod(self, xs):
        x = np.array(xs)
        assert same_bytes(floor_wrap(x), mod_wrap(x))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(WIDE, COORD), min_size=2, max_size=64))
    def test_min_image_matches_mod_formula(self, xs):
        d = np.array(xs[: len(xs) // 2 * 2]).reshape(-1, 2)
        with np.errstate(invalid="ignore"):
            assert same_bytes(min_image(d, (1.0, 1.0)),
                              mod_min_image(d, (1.0, 1.0)))

    def test_edge_floats_min_image_and_shapes(self):
        with np.errstate(invalid="ignore"):
            assert same_bytes(min_image(EDGE_FLOATS[:, None], (1.0,)),
                              mod_min_image(EDGE_FLOATS[:, None], (1.0,)))
        rot, cat = make_map("rotation", alpha=0.3), make_map("cat")
        for m, x in ((rot, np.float64(-0.25)), (rot, np.array([0.2, -0.7])),
                     (cat, np.array([-0.25, 1.5])), (cat, np.zeros((3, 1))),
                     (cat, [[0, -1]])):
            assert same_bytes(m.wrap(x), np.mod(x, np.asarray(m.periods)))
            assert same_bytes(min_image(x, m.periods),
                              mod_min_image(x, m.periods))
        assert rot.distance(0.1, 0.95) == pytest.approx(0.15)

    def test_periods_other_than_one_refused(self):
        cat = make_map("cat")
        for periods in ((2.0, 1.0), (1.0, 0.5), (math.pi,)):
            with pytest.raises(ValueError, match="periods"):
                dataclasses.replace(cat, periods=periods)
        assert dataclasses.replace(cat, periods=None).wrap(5.0) == 5.0
        assert MapSpec("circle", 1, {}, cat.forward, periods=(1.0,)).periods


class TestReferenceEvaluators:
    @pytest.mark.parametrize("spec, ref", MOD_MAPS,
                             ids=["cat", "standard-0.97", "standard-1.5",
                                  "rotation"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_forward_and_inverse_match_mod_forms(self, spec, ref, data):
        m = make_map(spec[0], **spec[1])
        n = data.draw(st.integers(1, 24))
        pts = np.array(data.draw(st.lists(COORD, min_size=n * m.dim,
                                          max_size=n * m.dim))).reshape(n, m.dim)
        per = np.asarray(m.periods)
        for f, ref_f, direction in ((m.forward, ref[0], "forward"),
                                    (m.inverse, ref[1], "inverse")):
            assert same_bytes(f(pts), ref_f(pts))
            assert same_bytes(f(pts[0]), ref_f(pts[0]))
            assert same_bytes(evaluate(m, pts, direction),
                              np.mod(ref_f(pts), per))

    def test_evaluate_wraps_a_first_wrap_of_one_to_zero(self):
        # y = p1 + kick is a tiny negative, which the first wrap rounds up
        # to exactly 1.0; evaluate's second wrap brings it back into [0, 1)
        m = make_map("standard", K=0.97)
        p = np.array([np.nextafter(1.0, 0.0), 1.5e-16])
        assert m.forward(p)[1] == 1.0
        img = evaluate(m, p)
        assert np.all((0.0 <= img) & (img < 1.0)), img
        assert img[1] == 0.0
