"""Map registry: evaluation, Jacobians, volume preservation, Lagrange probes."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynkit._util import min_image, wrap_unit
from dynkit.system import (
    InverseUnavailableError, MapSpec, _const_abs_bound, evaluate, iterates,
    finite_difference_jacobian, jacobian, lagrange_probe, make_map, orbit,
    polynomial_map, volume_check,
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


# ---------------------------------------------------------------------------
# the affine registry maps and polynomial_map against the hand-written
# factories they replaced, kept here verbatim as references
# ---------------------------------------------------------------------------

def ref_cat() -> MapSpec:
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    Ainv = np.array([[1.0, -1.0], [-1.0, 2.0]])

    def fwd(p):
        return wrap_unit(np.asarray(p, dtype=float) @ A.T)

    def inv(p):
        return wrap_unit(np.asarray(p, dtype=float) @ Ainv.T)

    def jac(p):
        p = np.atleast_2d(p)
        return np.broadcast_to(A, (p.shape[0], 2, 2)).copy()

    # symmetric matrix: operator norm = largest eigenvalue (3 + sqrt 5)/2
    lip = (3.0 + math.sqrt(5.0)) / 2.0
    return MapSpec("cat", 2, {}, fwd, inv, jac, lip,
                   jac_abs_bound=_const_abs_bound(A), periods=(1.0, 1.0))


def ref_translation() -> MapSpec:
    shift = np.array([1.0, 0.0])

    def fwd(p):
        return np.asarray(p, dtype=float) + shift

    def inv(p):
        return np.asarray(p, dtype=float) - shift

    def jac(p):
        p = np.atleast_2d(p)
        return np.broadcast_to(np.eye(2), (p.shape[0], 2, 2)).copy()

    return MapSpec("translation", 2, {}, fwd, inv, jac, 1.0,
                   jac_abs_bound=_const_abs_bound(np.eye(2)))


def ref_linear(a: float, b: float) -> MapSpec:
    d = np.array([float(a), float(b)])

    def fwd(p):
        return np.asarray(p, dtype=float) * d

    def inv(p):
        return np.asarray(p, dtype=float) / d

    def jac(p):
        p = np.atleast_2d(p)
        return np.broadcast_to(np.diag(d), (p.shape[0], 2, 2)).copy()

    return MapSpec("linear", 2, {"a": float(a), "b": float(b)},
                   fwd, inv if a != 0 and b != 0 else None, jac,
                   max(abs(a), abs(b)),
                   jac_abs_bound=_const_abs_bound(np.diag(d)))


def ref_contraction(c: float, dim: int) -> MapSpec:
    if not 0.0 < c < 1.0:
        raise ValueError("contraction factor must satisfy 0 < c < 1")

    def fwd(p):
        return np.asarray(p, dtype=float) * c

    def inv(p):
        return np.asarray(p, dtype=float) / c

    def jac(p):
        p = np.atleast_2d(p)
        return np.broadcast_to(c * np.eye(dim), (p.shape[0], dim, dim)).copy()

    return MapSpec("contraction", dim, {"c": float(c), "dim": dim},
                   fwd, inv, jac, float(c),
                   jac_abs_bound=_const_abs_bound(c * np.eye(dim)))


def ref_rotation(alpha: float) -> MapSpec:
    def fwd(p):
        return wrap_unit(np.asarray(p, dtype=float) + alpha)

    def inv(p):
        return wrap_unit(np.asarray(p, dtype=float) - alpha)

    def jac(p):
        p = np.atleast_2d(p)
        return np.ones((p.shape[0], 1, 1))

    return MapSpec("rotation", 1, {"alpha": float(alpha)}, fwd, inv, jac, 1.0,
                   jac_abs_bound=_const_abs_bound(np.ones((1, 1))),
                   periods=(1.0,))


def ref_shear() -> MapSpec:
    S = np.array([[1.0, 1.0], [0.0, 1.0]])
    Sinv = np.array([[1.0, -1.0], [0.0, 1.0]])

    def fwd(p):
        return np.asarray(p, dtype=float) @ S.T

    def inv(p):
        return np.asarray(p, dtype=float) @ Sinv.T

    def jac(p):
        p = np.atleast_2d(p)
        return np.broadcast_to(S, (p.shape[0], 2, 2)).copy()

    # operator norm of [[1,1],[0,1]] is the golden ratio
    lip = (1.0 + math.sqrt(5.0)) / 2.0
    return MapSpec("shear", 2, {}, fwd, inv, jac, lip,
                   jac_abs_bound=_const_abs_bound(S))


def ref_polynomial_map(components, dim: int, window=None, name: str = "poly") -> MapSpec:
    """Map whose components are polynomials given as term lists.

    `components[r]` is a list of terms {"c": coeff, "e": [e_0, ..., e_{dim-1}]}
    with total degree <= 4.  If `window` (lower, upper) is given, a global
    Lipschitz bound over it is derived from coefficient magnitudes; local
    bounds per rectangle come the same way.
    """
    if len(components) != dim:
        raise ValueError("need one component per dimension")
    comps = []
    for terms in components:
        parsed = []
        for t in terms:
            e = tuple(int(x) for x in t["e"])
            if len(e) != dim or any(x < 0 for x in e):
                raise ValueError("bad exponent tuple")
            if sum(e) > 4:
                raise ValueError("polynomial degree capped at 4")
            parsed.append((float(t["c"]), e))
        comps.append(parsed)

    def fwd(p):
        p = np.asarray(p, dtype=float)
        scalar = p.ndim == 1
        q = np.atleast_2d(p)
        out = np.zeros_like(q)
        for r, terms in enumerate(comps):
            acc = np.zeros(q.shape[0])
            for c, e in terms:
                term = np.full(q.shape[0], c)
                for a, ea in enumerate(e):
                    if ea:
                        term = term * q[:, a] ** ea
                acc += term
            out[:, r] = acc
        return out[0] if scalar else out

    # d/dx_a of c * prod x^e
    dcomps = []
    for terms in comps:
        row = []
        for a in range(dim):
            dterms = []
            for c, e in terms:
                if e[a] > 0:
                    de = list(e)
                    de[a] -= 1
                    dterms.append((c * e[a], tuple(de)))
            row.append(dterms)
        dcomps.append(row)

    def jac(p):
        q = np.atleast_2d(np.asarray(p, dtype=float))
        J = np.zeros((q.shape[0], dim, dim))
        for r in range(dim):
            for a in range(dim):
                acc = np.zeros(q.shape[0])
                for c, e in dcomps[r][a]:
                    term = np.full(q.shape[0], c)
                    for ax, ea in enumerate(e):
                        if ea:
                            term = term * q[:, ax] ** ea
                    acc += term
                J[:, r, a] = acc
        return J

    def jac_entry_bound(r, a, absmax):
        """Sound bound for |J_ra| when |x_ax| <= absmax[..., ax]."""
        acc = 0.0
        for c, e in dcomps[r][a]:
            term = abs(c) * np.ones(absmax.shape[0]) if absmax.ndim == 2 else abs(c)
            for ax, ea in enumerate(e):
                if ea:
                    term = term * absmax[..., ax] ** ea
            acc = acc + term
        return acc

    def local_lip(lo, hi):
        """Frobenius-norm bound of the Jacobian over rectangles [lo, hi]."""
        lo = np.atleast_2d(np.asarray(lo, dtype=float))
        hi = np.atleast_2d(np.asarray(hi, dtype=float))
        absmax = np.maximum(np.abs(lo), np.abs(hi))
        total = np.zeros(absmax.shape[0])
        for r in range(dim):
            for a in range(dim):
                total += np.asarray(jac_entry_bound(r, a, absmax)) ** 2
        return np.sqrt(total)

    lip = None
    if window is not None:
        lo, hi = (np.asarray(window[0], dtype=float), np.asarray(window[1], dtype=float))
        lip = float(local_lip(lo[None, :], hi[None, :])[0])

    def jac_bound(lo, hi):
        lo = np.atleast_2d(np.asarray(lo, dtype=float))
        hi = np.atleast_2d(np.asarray(hi, dtype=float))
        absmax = np.maximum(np.abs(lo), np.abs(hi))
        B = np.empty((absmax.shape[0], dim, dim))
        for r in range(dim):
            for a in range(dim):
                B[:, r, a] = jac_entry_bound(r, a, absmax)
        return B

    return MapSpec(name, dim, {"components": components}, fwd, None, jac,
                   lip, jac_abs_bound=jac_bound)


REF_REGISTRY = {"cat": ref_cat, "translation": ref_translation,
                "linear": ref_linear, "contraction": ref_contraction,
                "rotation": ref_rotation, "shear": ref_shear}
AFFINE_CASES = [("cat", {}), ("translation", {}), ("shear", {}),
                ("linear", {"a": 2.0, "b": 0.5}), ("linear", {"a": 3, "b": 3}),
                ("linear", {"a": 0.0, "b": -2.0}),
                ("contraction", {"c": 0.5, "dim": 1}),
                ("contraction", {"c": 0.3, "dim": 2}),
                ("contraction", {"c": 0.25, "dim": 3}),
                ("rotation", {"alpha": ALPHA}), ("rotation", {"alpha": -0.3})]
POLY_CASES = [
    [[{"c": 1.5, "e": [1]}, {"c": -0.5, "e": [3]}]],
    [[{"c": 0.25, "e": [0]}, {"c": -1.0, "e": [2]}, {"c": 0.125, "e": [4]}]],
    [[{"c": 1.5, "e": [1, 0]}, {"c": -0.5, "e": [3, 0]}],
     [{"c": 1.5, "e": [0, 1]}, {"c": -0.5, "e": [0, 3]}]],
    [[{"c": 1.0, "e": [0, 1]}], [{"c": -1.0, "e": [1, 0]},
                                 {"c": 0.7, "e": [2, 2]}]],
    [[{"c": 0.9, "e": [1, 0, 0]}, {"c": 0.3, "e": [0, 1, 1]}],
     [{"c": -0.5, "e": [2, 0, 0]}, {"c": 0.7, "e": [0, 1, 0]}],
     [{"c": 0.2, "e": [1, 1, 0]}, {"c": 0.5, "e": [0, 0, 3]}]],
    [[{"c": 2.0, "e": [0, 0, 0]}], [], [{"c": -3.0, "e": [1, 2, 1]}]],
    # on [-3, 3]^3 numpy's pairwise sum of the nine squared bounds is one
    # ulp off the (r, a)-ordered one
    [[{"c": -0.32, "e": [2, 0, 0]}, {"c": 1.04, "e": [2, 0, 0]}],
     [{"c": -0.67, "e": [1, 0, 0]}, {"c": 0.9, "e": [0, 1, 1]}],
     [{"c": -0.92, "e": [2, 1, 1]}, {"c": 0.22, "e": [1, 0, 0]}]],
]


def edge_points(dim):
    """Every EDGE_FLOATS pair on a 2-D map, the column on a 1-D map, and
    three shifted columns on a 3-D map."""
    if dim == 2:
        return np.array(np.meshgrid(EDGE_FLOATS, EDGE_FLOATS)).reshape(2, -1).T
    return np.stack([np.roll(EDGE_FLOATS, k) for k in range(dim)], axis=1)


def same_value(a, b):
    return type(a) is type(b) and (a == b or (a != a and b != b))


def assert_same_map(new, ref, points):
    """Byte-equal callables on `points` (a batch, or one point), and equal
    lipschitz, params, periods, name and dim."""
    assert (new.name, new.dim, new.periods) == (ref.name, ref.dim, ref.periods)
    assert new.params == ref.params
    assert [type(v) for v in new.params.values()] == \
        [type(v) for v in ref.params.values()]
    assert same_value(new.lipschitz, ref.lipschitz)
    assert (new.inverse is None) == (ref.inverse is None)
    r = np.abs(np.atleast_2d(points)) * 0.01 + 1e-3
    with np.errstate(all="ignore"):
        for f, g in ((new.forward, ref.forward), (new.inverse, ref.inverse)):
            if g is not None:
                assert same_bytes(f(points), g(points))
        assert same_bytes(new.jac(points), ref.jac(points))
        lo, hi = np.atleast_2d(points) - r, np.atleast_2d(points) + r
        assert same_bytes(new.jac_abs_bound(lo, hi), ref.jac_abs_bound(lo, hi))


def poly_window(dim, window):
    return None if window is None else ([-window] * dim, [window] * dim)


class TestFactoriesMatchReferences:
    @pytest.mark.parametrize("name, params", AFFINE_CASES,
                             ids=[f"{n}-{i}" for i, (n, _) in
                                  enumerate(AFFINE_CASES)])
    def test_affine_edge_floats_points_and_0d(self, name, params):
        new, ref = make_map(name, **params), REF_REGISTRY[name](**params)
        pts = edge_points(new.dim)
        for p in (pts, pts[0], pts[5], pts[-1], pts[:0]):
            assert_same_map(new, ref, p)
        if new.dim == 1:
            for x in (*EDGE_FLOATS, *TINY_NEG):
                for p in (np.float64(x), np.asarray(x), float(x)):
                    assert_same_map(new, ref, p)

    @pytest.mark.parametrize("name, params", AFFINE_CASES,
                             ids=[f"{n}-{i}" for i, (n, _) in
                                  enumerate(AFFINE_CASES)])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_affine_batches(self, name, params, data):
        new, ref = make_map(name, **params), REF_REGISTRY[name](**params)
        n = data.draw(st.integers(1, 16))
        xs = data.draw(st.lists(st.one_of(COORD, WIDE), min_size=n * new.dim,
                                max_size=n * new.dim))
        pts = np.array(xs).reshape(n, new.dim)
        assert_same_map(new, ref, pts)
        assert_same_map(new, ref, pts[0])

    def test_cat_keeps_its_closed_form_lipschitz(self):
        # one ulp below the SVD value
        cat = make_map("cat")
        assert cat.lipschitz == 2.618033988749895
        svd = float(np.linalg.norm(np.array([[2.0, 1.0], [1.0, 1.0]]), 2))
        assert svd == np.nextafter(cat.lipschitz, 3.0)

    @pytest.mark.parametrize("window", [None, 2.0, 0.75, 3.0])
    @pytest.mark.parametrize("k", range(len(POLY_CASES)))
    def test_poly_edge_floats_and_points(self, k, window):
        comps = POLY_CASES[k]
        dim = len(comps)
        win = poly_window(dim, window)
        new, ref = (polynomial_map(comps, dim, window=win),
                    ref_polynomial_map(comps, dim, window=win))
        pts = edge_points(dim)
        for p in (pts, pts[0], pts[3], pts[:0]):
            assert_same_map(new, ref, p)
        if dim == 1:
            for p in (np.float64(0.3), np.asarray(-1.25)):
                assert_same_map(new, ref, p)

    @pytest.mark.parametrize("k", range(len(POLY_CASES)))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_poly_batches(self, k, data):
        comps = POLY_CASES[k]
        dim = len(comps)
        win = poly_window(dim, data.draw(st.sampled_from([None, 1.0, 3.0])))
        new, ref = (polynomial_map(comps, dim, window=win),
                    ref_polynomial_map(comps, dim, window=win))
        n = data.draw(st.integers(1, 16))
        xs = data.draw(st.lists(st.one_of(COORD, WIDE), min_size=n * dim,
                                max_size=n * dim))
        pts = np.array(xs).reshape(n, dim)
        assert_same_map(new, ref, pts)
        assert_same_map(new, ref, pts[0])


# ---------------------------------------------------------------------------
# the out= evaluators: every map, forward and inverse, with and without out,
# against the references above, on 0-d, 1-D and 2-D inputs and on the rows
# of a time-major buffer
# ---------------------------------------------------------------------------

# the standard-map point whose first wrap lands on 1.0 (see above)
PLANTED = np.array([np.nextafter(1.0, 0.0), 1.5e-16])


def standard_pair(K):
    fwd, inv = mod_standard(K)
    ref = MapSpec("standard", 2, {"K": K}, fwd, inv, periods=(1.0, 1.0))
    return make_map("standard", K=K), ref


OUT_CASES = {
    **{f"{n}-{i}": (lambda n=n, p=p: (make_map(n, **p), REF_REGISTRY[n](**p)))
       for i, (n, p) in enumerate(AFFINE_CASES)},
    "standard-0.97": lambda: standard_pair(0.97),
    "standard-1.5": lambda: standard_pair(1.5),
    **{f"poly-{k}": (lambda c=c: (polynomial_map(c, len(c)),
                                  ref_polynomial_map(c, len(c))))
       for k, c in enumerate(POLY_CASES)},
}


def out_inputs(m):
    """Batches, single points and (dim 1) 0-d points for map m."""
    pts = np.concatenate((edge_points(m.dim),
                          np.random.default_rng(0).random((64, m.dim)) * 3 - 1))
    if m.name == "standard":
        pts = np.concatenate((PLANTED[None, :], pts))
    yield from (pts, pts[0], pts[7], pts[-1])
    if m.dim == 1:
        for x in (0.3, -0.25, np.nextafter(1.0, 0.0), *TINY_NEG):
            yield np.float64(x)
            yield np.asarray(x)


def directions(m):
    return ("forward", "inverse") if m.has_inverse else ("forward",)


def check_out(f, p, want):
    """f(p) is `want`, and f(p, out=o) writes the same bytes into o and
    returns o."""
    assert same_bytes(f(p), want)
    o = np.empty(np.shape(want))
    assert f(p, out=o) is o
    assert same_bytes(o, want)


class TestOutEvaluators:
    @pytest.mark.parametrize("name", sorted(OUT_CASES))
    def test_map_and_evaluate_with_and_without_out(self, name):
        m, ref = OUT_CASES[name]()
        with np.errstate(all="ignore"):
            for p in out_inputs(m):
                for d in directions(m):
                    want = getattr(ref, d)(p)
                    check_out(getattr(m, d), p, want)
                    if m.periods is not None:
                        want = np.mod(want, np.asarray(m.periods))
                    check_out(lambda q, **kw: evaluate(m, q, d, **kw), p, want)

    @pytest.mark.parametrize("name", sorted(OUT_CASES))
    def test_rows_of_a_time_major_buffer(self, name):
        m, ref = OUT_CASES[name]()
        pts = next(out_inputs(m))
        with np.errstate(all="ignore"):
            for d in directions(m):
                buf = np.empty((3,) + pts.shape)
                buf[0] = pts
                for k in (1, 2):
                    p, o = buf[k - 1], buf[k]
                    assert getattr(m, d)(p, out=o) is o
                    assert same_bytes(o, getattr(ref, d)(p))
                    assert evaluate(m, p, d, out=o) is o
                    assert same_bytes(o, evaluate(m, p, d))

    def test_planted_point_wraps_to_zero_in_place(self):
        m = make_map("standard", K=0.97)
        o = np.empty(2)
        assert m.forward(PLANTED, out=o)[1] == 1.0
        assert evaluate(m, PLANTED, out=o) is o
        assert same_bytes(o, evaluate(m, PLANTED)) and o[1] == 0.0

    @pytest.mark.parametrize("name", sorted(OUT_CASES))
    def test_iterates_into_out_equals_the_stacked_iterates(self, name):
        m, _ = OUT_CASES[name]()
        pts = next(out_inputs(m))
        starts = [pts, pts[0], pts[-1]]
        if m.dim == 1:
            starts.append(np.float64(0.3))
        with np.errstate(all="ignore"):
            for x0 in starts:
                for d in directions(m):
                    want = np.stack(list(iterates(m, x0, 9, d)))
                    buf = np.empty(want.shape)
                    got = list(iterates(m, x0, 9, d, out=buf))
                    assert same_bytes(buf, want)
                    assert all(same_bytes(g, w) and np.shares_memory(g, buf)
                               for g, w in zip(got, want))
