"""Periodic points, manifold polylines, homoclinic hits, recurrence."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynkit import manifolds, system
from dynkit.manifolds import (
    HyperbolicPoint, ManifoldPolyline, NoRealEigendirectionError,
    accumulation_check, find_periodic_points, grow_manifold, homoclinic_points,
    is_recurrent, point_to_polyline_distance,
)
from dynkit.phase_space import Domain, Grid
from dynkit.system import evaluate, make_map, polynomial_map

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def cat_anchor():
    m = make_map("cat")
    g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (3, 3))
    pts = find_periodic_points(m, 1, g)
    assert len(pts) == 1
    return m, pts[0]


def poly_saddle():
    """f(x, y) = (y, -x + 3y - y^3): a saddle at 0, no inverse evaluator."""
    m = polynomial_map([[{"c": 1.0, "e": [0, 1]}],
                        [{"c": -1.0, "e": [1, 0]}, {"c": 3.0, "e": [0, 1]},
                         {"c": -1.0, "e": [0, 3]}]], dim=2)
    g = Grid(Domain((-0.5, -0.5), (0.5, 0.5), (False, False)), (2, 2))
    hp = [h for h in find_periodic_points(m, 1, g)
          if float(np.linalg.norm(h.point)) < 1e-9][0]
    return m, hp


@functools.cache
def growth_anchor(name):
    """Map and hyperbolic anchor of each growth-oracle case."""
    if name == "cat":
        return cat_anchor()
    if name == "poly":
        return poly_saddle()
    K, period, depth = {"standard-0.97": (0.97, 3, 6),
                        "standard-1.5": (1.5, 1, 3),
                        "standard-2.0": (2.0, 1, 3)}[name]
    m = make_map("standard", K=K)
    g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (depth, depth))
    return m, [hp for hp in find_periodic_points(m, period, g)
               if hp.is_hyperbolic][0]


@functools.cache
def standard_polish_case():
    """Standard K = 1.5 at its (0, 0) fixed point, W^u and W^s to arclength
    4 at max_seg 0.01: the map, the two polylines, the raw hits, and W^u
    and W^s grown finer (max_seg 0.002) a little past them."""
    m, hp = growth_anchor("standard-1.5")
    assert hp.point.tolist() == [0.0, 0.0]
    Wu = grow_manifold(m, hp, "unstable", 4.0, max_seg=0.01)
    Ws = grow_manifold(m, hp, "stable", 4.0, max_seg=0.01)
    return (m, Wu, Ws, _raw_hits(Wu, Ws, 1e-9, m.periods)[0],
            grow_manifold(m, hp, "unstable", 4.2, max_seg=0.002),
            grow_manifold(m, hp, "stable", 4.2, max_seg=0.002))


def standard_polish_errors():
    """Of the standard K = 1.5 case polished by `homoclinic_points`: the
    largest move of a hit from its raw crossing, the largest distance of
    a raw crossing from the finer W^u, and the largest distances of a
    polished hit from the finer W^u and W^s."""
    m, Wu, Ws, raw, fine_u, fine_s = standard_polish_case()
    polished = homoclinic_points(Wu, Ws, map_spec=m)
    assert len(raw) == len(polished) == 27
    at = {(h.param_unstable, h.param_stable): h.point for h in raw}
    return (max(float(m.distance(h.point, at[h.param_unstable, h.param_stable]))
                for h in polished),
            max(point_to_polyline_distance(m, h.point, fine_u) for h in raw),
            *(max(point_to_polyline_distance(m, h.point, fine) for h in polished)
              for fine in (fine_u, fine_s)))


def weak_standard_polish_offsets():
    """Standard K = 0.97 at its period-3 anchor, W^u and W^s to arclength 5
    at max_seg 0.02: per hit, the distances of the raw crossing and of
    the hit `homoclinic_points` polishes from W^u and W^s grown to 5.2 at
    max_seg 0.002, as (raw, polished) arrays of (u, s) rows."""
    m, hp = growth_anchor("standard-0.97")
    Wu = grow_manifold(m, hp, "unstable", 5.0, max_seg=0.02)
    Ws = grow_manifold(m, hp, "stable", 5.0, max_seg=0.02)
    fine = [grow_manifold(m, hp, side, 5.2, max_seg=0.002)
            for side in ("unstable", "stable")]
    raw = _raw_hits(Wu, Ws, 1e-9, m.periods)[0]
    polished = homoclinic_points(Wu, Ws, map_spec=m)
    assert [h.param_unstable for h in raw] == [h.param_unstable for h in polished]
    return tuple(np.array([[point_to_polyline_distance(m, h.point, W) for W in fine]
                           for h in hits]) for hits in (raw, polished))


def linear_anchor():
    m = make_map("linear", a=2.0, b=0.5)
    g = Grid(Domain((-1.0, -1.0), (1.0, 1.0), (False, False)), (3, 3))
    pts = find_periodic_points(m, 1, g)
    assert len(pts) == 1
    return m, pts[0]


class TestPeriodicPoints:
    def test_cat_unique_fixed_point_and_eigenvalues(self):
        # roots of x^2 - 3x + 1: (3 +- sqrt 5)/2
        _, hp = cat_anchor()
        assert np.allclose(hp.point, [0.0, 0.0], atol=1e-9)
        lam = sorted(abs(complex(v)) for v in hp.eigenvalues)
        assert abs(lam[1] - (3 + math.sqrt(5)) / 2) < 1e-9
        assert abs(lam[0] - (3 - math.sqrt(5)) / 2) < 1e-9
        assert hp.is_hyperbolic
        assert hp.residual <= 1e-10

    @pytest.mark.parametrize("name, period", [("standard-0.97", 3), ("standard-1.5", 2),
                                              ("cat", 1), ("poly", 1)])
    def test_eigendata_from_the_batched_jacobian(self, name, period):
        # each root's D(f^period) is its row of the batched solve's last
        # _orbit_jacobian call, bitwise what a call on the root alone gives
        m, _ = growth_anchor(name)
        if name == "poly":
            g = Grid(Domain((-0.5, -0.5), (0.5, 0.5), (False, False)), (2, 2))
        else:
            g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (4, 4))
        pts = find_periodic_points(m, period, g)
        assert pts
        for hp in pts:
            _, J = manifolds._orbit_jacobian(m, hp.point[None, :], period)
            vals, vecs = np.linalg.eig(J[0])
            order = np.argsort(-np.abs(vals))
            assert hp.eigenvalues.tobytes() == vals[order].tobytes()
            assert hp.eigenvectors.tobytes() == vecs[:, order].tobytes()

    def test_eigen_residuals(self):
        m, hp = cat_anchor()
        J = m.jac(hp.point[None, :])[0]
        for lam, v in zip(hp.eigenvalues, hp.eigenvectors.T):
            assert np.linalg.norm(J @ v - lam * v) <= 1e-9

    def test_linear_origin(self):
        _, hp = linear_anchor()
        assert np.allclose(hp.point, [0.0, 0.0], atol=1e-10)
        assert sorted(complex(v).real for v in hp.eigenvalues) == [0.5, 2.0]
        assert hp.is_hyperbolic

    def test_shear_circle_of_neutral_fixed_points(self):
        # standard(0) is the shear (x + y, y): the line y = 0 is fixed,
        # eigenvalues are a double 1, nothing is hyperbolic
        m = make_map("standard", K=0.0)
        g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (3, 3))
        pts = find_periodic_points(m, 1, g, tol_fix=1e-9)
        assert len(pts) >= 4
        for hp in pts:
            assert abs(hp.point[1]) < 1e-8 or abs(hp.point[1] - 1.0) < 1e-8
            assert not hp.is_hyperbolic
            assert np.allclose([abs(complex(v)) for v in hp.eigenvalues], 1.0)

    def test_period_two_includes_fixed_points(self):
        m, _ = cat_anchor()
        g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (4, 4))
        pts = find_periodic_points(m, 2, g)
        dists = [float(m.distance(hp.point, np.zeros(2))) for hp in pts]
        assert min(dists) < 1e-9
        # cat has 5 period-2 points (fixed point + two 2-cycles)
        assert len(pts) == 5


class TestSeamRoots:
    """A root whose wrapped coordinate rounds up to 1.0 is reported as its
    0.0 image, with the residual and eigendata of that image."""

    @pytest.mark.parametrize("K, period, depth, root", [
        (0.97, 3, 3, [0.0, 0.0]),
        (1.5, 1, 2, [0.49999999999999994, 0.0]),
    ])
    def test_root_on_the_seam_is_its_zero_image(self, K, period, depth, root):
        m = make_map("standard", K=K)
        g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (depth, depth))
        pts = find_periodic_points(m, period, g)
        coords = np.concatenate([hp.point for hp in pts])
        assert not np.any(coords == 1.0)
        assert root in [hp.point.tolist() for hp in pts]
        for hp in pts:
            fp, J = manifolds._orbit_jacobian(m, hp.point[None, :], period)
            assert hp.residual == float(np.linalg.norm(m.delta(hp.point[None, :],
                                                               fp)[0]))
            vals, vecs = np.linalg.eig(J[0])
            order = np.argsort(-np.abs(vals))
            assert hp.eigenvalues.tobytes() == vals[order].tobytes()
            assert hp.eigenvectors.tobytes() == vecs[:, order].tobytes()

    def test_period_three_anchor_is_the_fixed_point(self):
        # the CLI anchor is the first saddle in order: with the seam root
        # seen as (0, 1.0) it was the period-3 point (0, 0.283)
        m = make_map("standard", K=0.97)
        g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (3, 3))
        saddles = [hp for hp in find_periodic_points(m, 3, g) if hp.is_hyperbolic
                   and hp.unstable is not None and hp.stable is not None]
        assert saddles[0].point.tolist() == [0.0, 0.0]


def reference_eigenpair(hp, side):
    """The first real eigenpair of hp on `side`, oriented: the per-call
    derivation that HyperbolicPoint.unstable and .stable replace."""
    vals = hp.eigenvalues
    vecs = hp.eigenvectors
    want_unstable = side == "unstable"
    for i in range(vals.shape[0]):
        lam = vals[i]
        if abs(lam.imag) > 1e-12:
            continue
        lam = float(lam.real)
        if (want_unstable and abs(lam) > 1.0) or (not want_unstable and abs(lam) < 1.0):
            v = np.real(vecs[:, i])
            v = v / np.linalg.norm(v)
            # deterministic orientation
            lead = np.nonzero(np.abs(v) > 1e-12)[0][0]
            if v[lead] < 0:
                v = -v
            return lam, v
    raise NoRealEigendirectionError(f"no real {side} eigendirection")


def _rotation_3d():
    """A 3-D point with a real unstable side and a complex pair at modulus
    0.5: no real stable side."""
    c, s = 0.5 * math.cos(1.0), 0.5 * math.sin(1.0)
    vals, vecs = np.linalg.eig(np.array([[c, -s, 0.0], [s, c, 0.0],
                                         [0.0, 0.0, -3.0]]))
    order = np.argsort(-np.abs(vals))
    return HyperbolicPoint(np.zeros(3), 1, vals[order], vecs[:, order], True, 0.0)


SADDLE_CASES = {
    "cat": lambda: growth_anchor("cat")[1],
    "standard-0.97-3": lambda: growth_anchor("standard-0.97")[1],
    "standard-1.5": lambda: growth_anchor("standard-1.5")[1],
    "linear": lambda: linear_anchor()[1],
    # 3-D, eigenvectors with negative leading entries
    "3d": lambda: HyperbolicPoint(
        np.zeros(3), 1, np.array([3.0, -2.0, 0.5]),
        np.array([[0.0, -0.6, 0.0], [-0.8, 0.8, 0.0], [0.6, 0.0, -1.0]]),
        True, 0.0),
    "no-real-stable": _rotation_3d,
}


class TestSaddleSplit:
    @pytest.mark.parametrize("name", sorted(SADDLE_CASES))
    def test_fields_equal_the_per_call_eigenpair(self, name):
        hp = SADDLE_CASES[name]()
        for side in ("unstable", "stable"):
            try:
                want = reference_eigenpair(hp, side)
            except NoRealEigendirectionError:
                want = None
            got = getattr(hp, side)
            if want is None:
                assert got is None
                continue
            assert type(got[0]) is float and got[0] == want[0]
            assert got[1].dtype == want[1].dtype
            assert got[1].tobytes() == want[1].tobytes()
        assert (name == "no-real-stable") == (hp.stable is None)
        assert hp.unstable is not None

    def test_grow_manifold_refuses_a_missing_side(self):
        # refused before the map is evaluated
        m, _ = linear_anchor()
        hp = _rotation_3d()
        with pytest.raises(NoRealEigendirectionError, match="no real stable"):
            grow_manifold(m, hp, "stable", 1.0, max_seg=0.01)


def reference_periodic_points(map_spec, period, grid, tol_fix=1e-10,
                              tol_hyp=1e-6, max_iter=40):
    """find_periodic_points with the Newton loop run on every row each
    round, as it was before it ran on the moving rows only.  The step is
    the module's own (`_solve2` with its pinv fallback on 2-D maps)."""
    x = grid.centers()
    alive = np.ones(x.shape[0], dtype=bool)
    for _ in range(max_iter):
        fp, J = manifolds._orbit_jacobian(map_spec, x, period)
        g = map_spec.delta(x, fp)
        J = J - np.eye(map_spec.dim)
        res = np.linalg.norm(g, axis=1)
        move = alive & (res > 1e-14)
        if not move.any():
            break
        if map_spec.dim == 2:
            step = manifolds._solve2(J[move], g[move][..., None], rcond=1e-12)
        else:
            step = np.linalg.pinv(J[move], rcond=1e-12) @ g[move][..., None]
        xn = map_spec.wrap(x[move] - step[..., 0])
        bad = ~np.all(np.isfinite(xn), axis=1) | (np.linalg.norm(xn, axis=1) > 1e12)
        xn[bad] = x[move][bad]
        alive[np.nonzero(move)[0][bad]] = False
        x[move] = xn
    with mock.patch.object(Grid, "centers", lambda self: x), \
            mock.patch.object(manifolds, "_NEWTON_ITER", 0):
        # the dedupe and classification after the loop, on the solved x
        return find_periodic_points(map_spec, period, grid, tol_fix, tol_hyp)


PERIODIC_CASES = {
    "cat-1": (lambda: make_map("cat"), 1, 4),
    "cat-3": (lambda: make_map("cat"), 3, 4),
    "standard-0.97-3": (lambda: make_map("standard", K=0.97), 3, 5),
    "standard-1.5-2": (lambda: make_map("standard", K=1.5), 2, 4),
    "standard-0-1": (lambda: make_map("standard", K=0.0), 1, 3),
    "poly-1": (lambda: poly_saddle()[0], 1, 3),
    "linear-1": (lambda: make_map("linear", a=2.0, b=0.5), 1, 3),
}


class TestPeriodicPointsOnMovingRows:
    @pytest.mark.parametrize("name", sorted(PERIODIC_CASES))
    def test_same_points_as_the_all_rows_loop(self, name):
        make, period, depth = PERIODIC_CASES[name]
        m = make()
        if m.periods is not None:
            g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (depth, depth))
        else:
            g = Grid(Domain((-1.0, -1.0), (1.0, 1.0), (False, False)),
                     (depth, depth))
        got = find_periodic_points(m, period, g)
        want = reference_periodic_points(m, period, g)
        assert got and len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.period, a.is_hyperbolic, a.residual) == \
                (b.period, b.is_hyperbolic, b.residual)
            for f in ("point", "eigenvalues", "eigenvectors"):
                x, y = getattr(a, f), getattr(b, f)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_bench_case_sends_no_newton_row_to_pinv(self):
        # standard K = 0.97, period 3, depth 6: every Newton row is regular.
        # The 23,414 rows are one fewer than the pinv loop took: one seed
        # meets the 1e-14 residual test a round earlier.
        m = make_map("standard", K=0.97)
        g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (6, 6))
        solved, pinv_rows = [], []
        solve2, pinv = manifolds._solve2, np.linalg.pinv

        def counting_solve2(A, B, rcond=None):
            solved.append(A.shape[0])
            return solve2(A, B, rcond)

        def counting_pinv(A, rcond):
            pinv_rows.append(A.shape[0])
            return pinv(A, rcond=rcond)

        with mock.patch.object(manifolds, "_solve2", counting_solve2), \
                mock.patch.object(np.linalg, "pinv", counting_pinv):
            assert find_periodic_points(m, 3, g)
        assert sum(solved) == 23414 and pinv_rows == []


EPS = np.finfo(float).eps


def svd_stack(theta, phi, s1, ratio):
    """2x2 matrices R(theta) diag(s1, s1 ratio) R(phi)^T, one per entry."""
    def rot(a):
        c, s = np.cos(a), np.sin(a)
        return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    S = np.zeros((len(s1), 2, 2))
    S[:, 0, 0], S[:, 1, 1] = s1, s1 * ratio
    return rot(theta) @ S @ np.swapaxes(rot(phi), -1, -2)


def stack_args(n, ratio):
    """Hypothesis strategy: (A, B) with n rows, singular value ratios drawn
    from `ratio`, and 1 or 2 right-hand sides per row."""
    angle = st.floats(0.0, 2.0 * math.pi)
    row = st.tuples(angle, angle, st.floats(1e-3, 1e3), ratio,
                    st.floats(-10, 10), st.floats(-10, 10),
                    st.floats(-10, 10), st.floats(-10, 10))
    return st.tuples(st.lists(row, min_size=1, max_size=n),
                     st.integers(1, 2)).map(_to_stack)


def _to_stack(args):
    rows, k = args
    theta, phi, s1, ratio, *b = (np.asarray(c, dtype=float) for c in zip(*rows))
    B = np.stack(b, axis=-1).reshape(-1, 2, 2)[..., :k]
    return svd_stack(theta, phi, s1, ratio), B


def assert_rows_close(got, want, rtol):
    """Each row of `got` within rtol times its row norm of `want`."""
    scale = np.linalg.norm(want.reshape(want.shape[0], -1), axis=1)
    err = np.linalg.norm((got - want).reshape(got.shape[0], -1), axis=1)
    assert np.all(err <= rtol * scale + 1e-300), (err, scale)


class TestSolve2:
    """The closed-form 2x2 kernel against np.linalg.pinv(rcond=1e-12), and
    np.linalg.solve on well-conditioned rows."""

    @settings(max_examples=60, deadline=None)
    @given(stack_args(12, st.floats(1e-6, 1.0)))
    def test_well_conditioned_stacks(self, AB):
        A, B = AB
        # forward error of either solve: a small multiple of cond * eps
        rtol = 64 * EPS * np.linalg.cond(A).max()
        assert_rows_close(manifolds._solve2(A, B, rcond=1e-12),
                          np.linalg.solve(A, B), rtol)
        assert_rows_close(manifolds._solve2(A, B, rcond=1e-12),
                          np.linalg.pinv(A, rcond=1e-12) @ B, rtol)

    @settings(max_examples=60, deadline=None)
    @given(stack_args(6, st.floats(1e-6, 1.0)),
           st.lists(st.tuples(*[st.floats(-1e3, 1e3).filter(
               lambda v: v == 0 or abs(v) >= 1e-3)] * 4), min_size=1, max_size=6))
    def test_rank_one_and_zero_rows_take_pinv(self, AB, uv):
        A, B = AB
        uv = np.asarray(uv)
        low = uv[:, :2, None] * uv[:, None, 2:]  # rank 1, or 0
        n = min(len(A), len(low))
        A[:n] = low[:n]
        want = np.linalg.pinv(A, rcond=1e-12) @ B
        got = manifolds._solve2(A, B, rcond=1e-12)
        assert np.all(np.isfinite(got))
        assert_rows_close(got, want, 64 * EPS * 1e6)
        # the fallback is pinv itself: those rows agree bit for bit
        assert got[:n].tobytes() == want[:n].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(stack_args(6, st.floats(1e-12, 2e-12, exclude_min=True)))
    def test_condition_band_near_rcond(self, AB):
        # s2/s1 in (1e-12, 2e-12]: pinv keeps both singular values, so it is
        # the full inverse there, whichever path a row takes
        A, B = AB
        s = np.linalg.svd(A, compute_uv=False)
        ratio = s[:, 1] / s[:, 0]
        keep = ratio > 1.001e-12  # rounding of the stack moves s2 a little
        A, B, ratio = A[keep], B[keep], ratio[keep]
        if not len(A):
            return
        want = np.linalg.pinv(A, rcond=1e-12) @ B
        assert_rows_close(manifolds._solve2(A, B, rcond=1e-12), want,
                          64 * EPS / ratio.min())

    @pytest.mark.filterwarnings("error")
    def test_non_finite_rows(self):
        A = svd_stack(np.array([0.3, 1.1]), np.array([2.0, 0.1]),
                      np.array([2.0, 0.5]), np.array([0.5, 0.9]))
        bad = np.array([[[np.inf, 1.0], [1.0, 1.0]],
                        [[1.0, 0.0], [0.0, -np.inf]],
                        [[1e200, 1e200], [-1e200, 1e200]],
                        [[1e300, 1.0], [1e300, 1.0]]])
        A = np.concatenate([A[:1], bad, A[1:]])
        B = np.arange(1.0, 13.0).reshape(6, 2, 1)
        good = [0, 5]
        # no warning; the non-finite and overflowed rows are pinv's own,
        # and the other rows of the stack do not change
        X = manifolds._solve2(A, B, rcond=1e-12)
        assert X[1:5].tobytes() == (np.linalg.pinv(A[1:5], rcond=1e-12)
                                    @ B[1:5]).tobytes()
        assert_rows_close(X[good], np.linalg.solve(A[good], B[good]), 1e-14)


class TestGrowManifold:
    def test_linear_unstable_is_positive_x_axis(self):
        m, hp = linear_anchor()
        Wu = grow_manifold(m, hp, "unstable", 0.5, max_seg=0.01)
        assert np.allclose(Wu.vertices[0], [0.0, 0.0])
        assert np.all(np.abs(Wu.vertices[:, 1]) < 1e-12)
        assert np.all(Wu.vertices[1:, 0] > 0)
        assert Wu.total_arclength >= 0.5

    def test_linear_stable_is_positive_y_axis(self):
        m, hp = linear_anchor()
        Ws = grow_manifold(m, hp, "stable", 0.5, max_seg=0.01)
        assert np.all(np.abs(Ws.vertices[:, 0]) < 1e-12)
        assert np.all(Ws.vertices[1:, 1] > 0)

    @pytest.mark.parametrize("side", ["unstable", "stable"])
    def test_cat_polyline_tracks_exact_eigenline(self, side):
        # eigenvector of ((2,1),(1,1)): slope (sqrt5 - 1)/2 unstable,
        # -(sqrt5 + 1)/2 stable; the lift must stay within 1e-6 of the line
        m, hp = cat_anchor()
        poly = grow_manifold(m, hp, side, 10.0, max_seg=0.02)
        slope = GOLDEN if side == "unstable" else -(math.sqrt(5.0) + 1.0) / 2.0
        direction = np.array([1.0, slope])
        direction /= np.linalg.norm(direction)
        lift = poly.lift
        off_axis = lift - np.outer(lift @ direction, direction)
        assert float(np.max(np.linalg.norm(off_axis, axis=1))) < 1e-6
        assert poly.total_arclength >= 10.0
        # arclength is consistent with the lift
        steps = np.linalg.norm(np.diff(lift, axis=0), axis=1)
        assert np.allclose(np.cumsum(steps), poly.arclength[1:])

    def test_forward_invariance_of_unstable_polyline(self):
        m, hp = cat_anchor()
        Wu = grow_manifold(m, hp, "unstable", 3.0, max_seg=0.02)
        longer = grow_manifold(m, hp, "unstable", 3.0 * 2.7, max_seg=0.02)
        images = evaluate(m, Wu.vertices[::7])
        for img in images:
            assert point_to_polyline_distance(m, img, longer) < 1e-6

    def test_backward_invariance_of_stable_polyline(self):
        m, hp = cat_anchor()
        Ws = grow_manifold(m, hp, "stable", 3.0, max_seg=0.02)
        longer = grow_manifold(m, hp, "stable", 3.0 * 2.7, max_seg=0.02)
        images = evaluate(m, Ws.vertices[::7], "inverse")
        for img in images:
            assert point_to_polyline_distance(m, img, longer) < 1e-6

    def test_max_seg_honored(self):
        m, hp = cat_anchor()
        Wu = grow_manifold(m, hp, "unstable", 5.0, max_seg=0.05)
        steps = np.linalg.norm(np.diff(Wu.lift, axis=0), axis=1)
        assert float(np.max(steps)) <= 0.05 + 1e-9

    def test_capped_segments_counted(self, monkeypatch):
        # cat to arclength 40: at max_seg 0.005 a generation before the
        # last needs more than the 4096-parameter cap allows and keeps
        # segments over max_seg; at 0.01 every segment honours max_seg
        m, hp = cat_anchor()
        for max_seg, expect_capped in ((0.005, True), (0.01, False)):
            for side in ("unstable", "stable"):
                poly, gens = _growth_log(monkeypatch, m, hp, side, 40.0, max_seg)
                lens = np.linalg.norm(np.diff(poly.lift, axis=0), axis=1)
                assert poly.capped == int(np.count_nonzero(lens > max_seg))
                assert poly.truncated(5.0).max_seg == max_seg
                assert (poly.capped > 0) == expect_capped, poly.capped
                # generations whose last round stopped at the cap with
                # intervals still to bisect
                capped = [g for g, rounds in enumerate(gens)
                          if rounds[-1]["size"] > 4096 and rounds[-1]["bad"]]
                assert bool(capped) == expect_capped
                assert all(g < len(gens) - 1 for g in capped), (capped, len(gens))

    @pytest.mark.parametrize("n", [0, 3, 6, 9])
    def test_bad_intervals_match_per_pair_reference(self, n):
        # the array turning-angle test against the per-pair loop it replaced,
        # on a stretched and folded standard-map chain
        m = make_map("standard", K=1.5)
        g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (4, 4))
        hp = [p for p in find_periodic_points(m, 1, g) if p.is_hyperbolic][0]
        v = np.real(hp.eigenvectors[:, 0])
        ts = np.sort(np.concatenate([np.linspace(0.0, 1.0, 65), [0.25 + 1e-13]]))
        seeds = hp.point + np.outer(1e-3 + 0.05 * ts, v)
        pts = seeds
        for _ in range(n):
            pts = evaluate(m, pts)
        chain = np.concatenate([pts[:1], pts])  # zero-length lead step
        deltas = m.delta(chain[:-1], chain[1:])
        for max_seg in (0.01, math.inf):
            for turn_max in (0.05, 0.2, 1.0):
                got = np.nonzero(manifolds._bad_intervals(deltas, ts, max_seg,
                                                          turn_max))[0]
                assert got.tolist() == _bad_reference(deltas, ts, max_seg, turn_max)
        if n >= 6:
            assert _bad_reference(deltas, ts, math.inf, 0.2)  # turns alone

    @pytest.mark.parametrize("name, arclength, r0_scale", [
        ("cat", 8.0, 1e-6), ("standard-0.97", 2.0, 1e-6),
        ("standard-1.5", 3.0, 1e-6), ("poly", 1.0, 1e-4)])
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_matches_full_reevaluation_reference(self, name, arclength,
                                                 r0_scale, data):
        # each parameter mapped once per generation, against the loop that
        # maps every parameter from the seed chord in every round of the
        # same continuation schedule
        m, hp = growth_anchor(name)
        kw = dict(target_arclength=data.draw(st.floats(0.2, arclength)),
                  max_seg=data.draw(st.floats(0.01, 0.05)),
                  side=data.draw(st.sampled_from(["unstable", "stable"])),
                  branch=data.draw(st.sampled_from([1, -1])))
        turn_max = data.draw(st.floats(0.05, 0.6))
        with mock.patch.object(manifolds, "_R0", r0_scale), \
                mock.patch.object(manifolds, "_TURN_MAX", turn_max):
            got = grow_manifold(m, hp, **kw)
        ref = reference_grow_manifold(m, hp, turn_max=turn_max,
                                      r0_scale=r0_scale, **kw)
        for a, b in zip((got.vertices, got.lift, got.arclength), ref):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_inverse_newton_rows_solve_alone(self):
        # a row's preimage must not depend on the rows batched with it
        m, _ = poly_saddle()
        rng = np.random.default_rng(5)
        z = rng.uniform(-1.0, 1.0, (40, 2)) * np.logspace(-8, 0, 40)[:, None]
        batch = manifolds._inverse_newton(m, z)
        for k in range(z.shape[0]):
            alone = manifolds._inverse_newton(m, z[k:k + 1])
            assert batch[k].tobytes() == alone[0].tobytes(), k
        assert np.max(np.linalg.norm(evaluate(m, batch) - z, axis=1)) < 1e-10

    @pytest.mark.parametrize("name", ["cat", "standard-0.97"])
    def test_each_parameter_mapped_once_per_generation(self, monkeypatch, name):
        m, hp = growth_anchor(name)
        calls, rows = [], [0]
        apply_steps, evaluate_rows = manifolds._apply_steps, manifolds.evaluate

        def logged(map_spec, pts, steps, inverse):
            calls.append((steps, np.atleast_2d(pts)))
            return apply_steps(map_spec, pts, steps, inverse)

        def counted(map_spec, p, direction="forward"):
            rows[0] += np.atleast_2d(p).shape[0]
            return evaluate_rows(map_spec, p, direction)

        # orbits step through system.iterates, the Newton inverse through
        # manifolds.evaluate
        monkeypatch.setattr(system, "evaluate", counted)
        monkeypatch.setattr(manifolds, "evaluate", counted)
        kw = dict(side="unstable", target_arclength=40.0 if name == "cat" else 5.0,
                  max_seg=0.01)
        reference_grow_manifold(m, hp, **kw)
        full = rows[0]
        rows[0] = 0
        monkeypatch.setattr(manifolds, "_apply_steps", logged)
        grow_manifold(m, hp, **kw)
        # a chord point mapped through the same number of steps twice
        # would be one (generation, parameter) evaluated twice
        mapped = [(steps, row.tobytes()) for steps, pts in calls for row in pts]
        assert len(mapped) == len(set(mapped))
        assert rows[0] == sum(steps * pts.shape[0] for steps, pts in calls)
        assert 4 * rows[0] <= full, (rows[0], full)

    @pytest.mark.parametrize("name", ["cat", "standard-0.97", "standard-1.5",
                                      "poly"])
    @pytest.mark.parametrize("side", ["unstable", "stable"])
    def test_each_generation_starts_on_the_last_vertex(self, monkeypatch,
                                                       name, side):
        # every round's chain leads in along a segment of the polyline:
        # from the anchor to the image of t = 0 at generation 0, and along
        # the last segment at generation g >= 1, whose t = 0 image is
        # generation g - 1's last vertex bit for bit (no junction segment)
        m, hp = growth_anchor(name)
        poly, gens = _growth_log(monkeypatch, m, hp, side,
                                 1.0 if name == "poly" else 3.0, 0.02)
        assert len(gens) > 2
        rows = [v.tobytes() for v in poly.vertices]
        end = 1  # vertices of the generations so far
        for g, rounds in enumerate(gens):
            for r in rounds:
                assert (r["tail"], r["start"]) == \
                    ((rows[0], rows[1]) if g == 0 else tuple(rows[end - 2:end]))
            end += rounds[-1]["kept"]
        assert end == len(rows)

    @pytest.mark.parametrize("side", ["unstable", "stable"])
    def test_bench_standard_growth_takes_few_rounds(self, monkeypatch, side):
        # the bench config (standard K = 0.97, period 3, arclength 5,
        # max_seg 0.01): a gap at each junction would be read as a sharp
        # turn and bisected down to the parameter floor, over 200 rounds;
        # each generation continuing the last one's parameters takes 18
        # rounds on either side (restarting from 9 took 26 and 40)
        m, hp = growth_anchor("standard-0.97")
        _, gens = _growth_log(monkeypatch, m, hp, side, 5.0, 0.01)
        rounds = sum(r["bad"] and r["size"] <= 4096 for g in gens for r in g)
        assert rounds <= 24, rounds

    def test_anchor_ulp_does_not_change_the_polyline(self):
        # standard K = 1.5, fixed point: an anchor one ulp off (0, 0) grows
        # the same polyline up to rounding
        m, hp = growth_anchor("standard-1.5")
        assert hp.point.tolist() == [0.0, 0.0]
        polys = [grow_manifold(m, HyperbolicPoint(np.array(a), 1, hp.eigenvalues,
                                                  hp.eigenvectors, True, 0.0),
                               "unstable", 2.0, max_seg=0.05)
                 for a in ([0.0, 0.0], [0.0, 2.2e-16])]
        assert polys[0].vertices.shape == polys[1].vertices.shape
        assert polys[0].capped == polys[1].capped == 0
        assert abs(polys[0].total_arclength - polys[1].total_arclength) < 1e-8

    @pytest.mark.parametrize("name, arclength", [
        ("cat", 40.0), ("standard-0.97", 5.0), ("standard-1.5", 6.0),
        ("standard-2.0", 4.0)])
    @pytest.mark.parametrize("side", ["unstable", "stable"])
    def test_shorter_growth_is_a_prefix(self, name, arclength, side):
        # what accumulate's base-point check needs: for L < L', the
        # polyline grown to L less its last vertex leads the one grown to
        # L'.  Generations before the last are grown alike, and a round's
        # pruning drops only parameters past the target.
        m, hp = growth_anchor(name)
        polys = [grow_manifold(m, hp, side, L, max_seg=0.01)
                 for L in np.linspace(0.05, arclength, 12)]
        assert all(poly.capped == 0 for poly in polys)
        for k, short in enumerate(polys):
            head = short.vertices[:-1]
            for long in polys[k + 1:]:
                assert long.vertices[:head.shape[0]].tobytes() == head.tobytes()

    @pytest.mark.parametrize("name", ["cat", "standard-0.97", "standard-1.5",
                                      "poly"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_segments_turns_and_end_within_the_contract(self, name, data):
        # every segment is at most max_seg, the capped ones aside, and an
        # uncapped polyline turns by at most _TURN_MAX at every vertex,
        # the junctions of generations included; the last vertex is the
        # first at the target arclength
        m, hp = growth_anchor(name)
        target = data.draw(st.floats(0.2, 1.0 if name == "poly" else 6.0))
        max_seg = data.draw(st.floats(0.005, 0.05))
        turn_max = data.draw(st.floats(0.05, 0.6))
        kw = dict(side=data.draw(st.sampled_from(["unstable", "stable"])),
                  branch=data.draw(st.sampled_from([1, -1])))
        with mock.patch.object(manifolds, "_R0", 1e-4 if name == "poly" else 1e-6), \
                mock.patch.object(manifolds, "_TURN_MAX", turn_max):
            poly = grow_manifold(m, hp, target_arclength=target,
                                 max_seg=max_seg, **kw)
        _check_contract(poly, target, max_seg, turn_max)

    @pytest.mark.parametrize("name, turn_max", [("standard-1.5", 0.1),
                                                ("standard-0.97", 0.15)])
    def test_turn_into_each_generation_is_bisected(self, name, turn_max):
        # chains led in from the polyline's last vertex (a zero-length
        # lead) never test the turn at a generation's junction: these two
        # then turn by 0.119 and 0.156 there
        m, hp = growth_anchor(name)
        with mock.patch.object(manifolds, "_TURN_MAX", turn_max):
            poly = grow_manifold(m, hp, "unstable", 3.0, max_seg=0.04)
        _check_contract(poly, 3.0, 0.04, turn_max)

    def test_no_unstable_side_on_contraction(self):
        m = make_map("contraction", c=0.5, dim=2)
        g = Grid(Domain((-1.0, -1.0), (1.0, 1.0), (False, False)), (2, 2))
        hp = find_periodic_points(m, 1, g)[0]
        with pytest.raises(NoRealEigendirectionError):
            grow_manifold(m, hp, "unstable", 1.0, max_seg=0.01)


class TestHomoclinic:
    def test_linear_axes_meet_only_at_origin(self):
        m, hp = linear_anchor()
        Wu = grow_manifold(m, hp, "unstable", 0.9, max_seg=0.01)
        Ws = grow_manifold(m, hp, "stable", 0.9, max_seg=0.01)
        assert homoclinic_points(Wu, Ws, map_spec=m) == []

    def test_cat_tangle_is_nonempty_and_grows(self):
        m, hp = cat_anchor()
        counts = []
        for L in (4.0, 8.0):
            Wu = grow_manifold(m, hp, "unstable", L, max_seg=0.02)
            Ws = grow_manifold(m, hp, "stable", L, max_seg=0.02)
            counts.append(len(homoclinic_points(Wu, Ws, map_spec=m)))
        assert counts[0] > 0
        assert counts[1] > counts[0]

    def test_hits_satisfy_membership_definition(self):
        # forward and backward orbits of a homoclinic point approach the
        # anchor orbit; at step 20 the distance must be < 1e-3
        m, hp = cat_anchor()
        Wu = grow_manifold(m, hp, "unstable", 6.0, max_seg=0.02)
        Ws = grow_manifold(m, hp, "stable", 6.0, max_seg=0.02)
        hits = homoclinic_points(Wu, Ws, map_spec=m)
        assert hits
        for hit in hits[:10]:
            fwd = hit.point.copy()
            bwd = hit.point.copy()
            for _ in range(20):
                fwd = evaluate(m, fwd)
                bwd = evaluate(m, bwd, "inverse")
            assert float(m.distance(fwd, hp.point)) < 1e-3
            assert float(m.distance(bwd, hp.point)) < 1e-3

    def test_every_hit_satisfies_membership_definition(self):
        m, hp = cat_anchor()
        Wu = grow_manifold(m, hp, "unstable", 10.0, max_seg=0.02)
        Ws = grow_manifold(m, hp, "stable", 10.0, max_seg=0.02)
        hits = homoclinic_points(Wu, Ws, map_spec=m)
        assert len(hits) > 50
        fwd = bwd = np.asarray([h.point for h in hits])
        for _ in range(20):
            fwd = evaluate(m, fwd)
            bwd = evaluate(m, bwd, "inverse")
        bad = (m.distance(fwd, hp.point) >= 1e-3) | (m.distance(bwd, hp.point) >= 1e-3)
        assert int(np.count_nonzero(bad)) == 0

    def test_polish_moves_cat_hits_by_rounding_only(self):
        # cat manifolds are straight, so the raw crossings are already
        # exact: the polish would move each by rounding only, which is why
        # homoclinic_points skips it on the affine maps
        m, hp = cat_anchor()
        Wu = grow_manifold(m, hp, "unstable", 10.0, max_seg=0.02)
        Ws = grow_manifold(m, hp, "stable", 10.0, max_seg=0.02)
        raw = np.asarray([h.point for h in
                          _raw_hits(Wu, Ws, 1e-9, m.periods)[0]])
        polished = manifolds._homoclinic_orbits(m, hp, raw, 3.0 * 1.5 * 0.02)
        assert raw.shape == polished.shape and len(raw) > 50
        assert float(np.max(m.distance(raw, polished))) < 1e-13
        hits = homoclinic_points(Wu, Ws, map_spec=m)
        assert np.asarray([h.point for h in hits]).tobytes() == raw.tobytes()

    def test_polish_keeps_standard_hits_on_the_unstable_manifold(self):
        # standard K = 1.5: 27 hits; every polished hit lies within 1e-5 of
        # a finer W^u and of a finer W^s, and no farther from W^u than the
        # farthest raw crossing does
        _, raw_off, off_u, off_s = standard_polish_errors()
        assert off_u <= raw_off, (off_u, raw_off)
        assert max(off_u, off_s) <= 1e-5, (off_u, off_s)

    def test_polish_moves_standard_hits_less_than_the_raw_error(self):
        # a polish that only removes the crossing error moves no hit by
        # more than twice the farthest raw crossing lies from a finer W^u
        move, raw_off, _, _ = standard_polish_errors()
        assert move <= 2.0 * raw_off, (move, raw_off)

    def test_polish_with_a_fixed_window_fails(self, monkeypatch):
        # planted mutant: orbit ends at 10 periods, not at the closest
        # approach to p, carry a hit onto another homoclinic orbit, 1.35e-3
        # away; the arc check keeps its raw crossing, 7.4e-5 off W^u
        approach = manifolds._approach
        monkeypatch.setattr(manifolds, "_approach", lambda m, hp, pts, inverse: (
            approach(m, hp, pts, inverse)[0], np.full(len(pts), 10 * hp.period)))
        _, raw_off, off_u, off_s = standard_polish_errors()
        assert max(off_u, off_s) > 1e-5, (off_u, off_s)
        monkeypatch.setattr(manifolds, "_on_chord_arcs",
                            lambda W, seg, x, periods: np.ones(len(seg), bool))
        move, raw_off, off_u, off_s = standard_polish_errors()
        assert move > 2.0 * raw_off and off_u > 1e-5, (move, raw_off, off_u)

    def test_polish_brings_weak_standard_hits_no_farther_off(self):
        # standard K = 0.97: one hit's forward iterates come no nearer p
        # than 0.035, and its orbit converges to another homoclinic point
        # 1.3e-2 away, 2.3e-3 off W^s; off its crossing segments' arcs, it
        # keeps the raw crossing.  Summed over W^u and W^s, no polished hit
        # lies farther off than its raw crossing (at three hits the polish
        # moves onto one manifold and the other stays as far, to 8 %).
        # 7 of the 90 hits lie more than 1e-5 off either, of 52 raw ones
        raw, polished = weak_standard_polish_offsets()
        assert len(raw) == 90
        assert np.all(polished.sum(axis=1) <= raw.sum(axis=1))
        assert np.count_nonzero(polished.max(axis=1) > 1e-5) <= 7

    def test_polish_without_the_arc_check_fails(self, monkeypatch):
        # planted mutant: every converged orbit within the move cap is taken
        monkeypatch.setattr(manifolds, "_on_chord_arcs",
                            lambda W, seg, x, periods: np.ones(len(seg), bool))
        raw, polished = weak_standard_polish_offsets()
        assert np.max(polished.sum(axis=1) - raw.sum(axis=1)) > 1e-3

    def test_polish_with_swapped_boundary_rows_fails(self, monkeypatch):
        # planted mutant: x_-m on E^s(p) and x_n on E^u(p)
        newton = manifolds._orbit_newton
        monkeypatch.setattr(manifolds, "_orbit_newton", lambda m, z, ends:
                            newton(m, z, (ends[0], ends[2], ends[1])))
        _, _, off_u, off_s = standard_polish_errors()
        assert max(off_u, off_s) > 1e-5, (off_u, off_s)

    def test_hits_polish_alike_in_any_batch(self):
        # each hit's orbit stops on its own defect: polishing a hit alone,
        # with the others or in a shuffled batch gives the same bits
        m, Wu, Ws, raw, _, _ = standard_polish_case()
        hp = Wu.anchor
        pts = np.asarray([h.point for h in raw])
        whole = manifolds._homoclinic_orbits(m, hp, pts, 0.045)
        order = np.random.default_rng(0).permutation(len(pts))
        shuffled = manifolds._homoclinic_orbits(m, hp, pts[order], 0.045)
        assert shuffled.tobytes() == whole[order].tobytes()
        for k in range(len(pts)):
            alone = manifolds._homoclinic_orbits(m, hp, pts[k:k + 1], 0.045)
            assert alone.tobytes() == whole[k:k + 1].tobytes()
        assert not np.array_equal(whole, pts)

    def test_cat_tangle_matches_all_pairs_oracle(self):
        m, hp = cat_anchor()
        Wu = grow_manifold(m, hp, "unstable", 8.0, max_seg=0.02)
        Ws = grow_manifold(m, hp, "stable", 8.0, max_seg=0.02)
        expect = _all_pairs_hits(Wu, Ws, m.periods)
        assert len(expect[0]) > 30
        got = _raw_hits(Wu, Ws, 1e-9, m.periods)
        assert _hit_records(got) == _hit_records(expect)
        with mock.patch.object(manifolds, "_PAIR_BLOCK", 64):
            blocked = _raw_hits(Wu, Ws, 1e-9, m.periods)
        assert _hit_records(blocked) == _hit_records(expect)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_polylines_match_all_pairs_oracle(self, data):
        anchor = np.asarray(data.draw(st.tuples(*[st.floats(0.0, 0.999)] * 2)))
        other = data.draw(st.one_of(
            st.just(anchor), st.tuples(*[st.floats(0.0, 0.999)] * 2).map(np.asarray)))
        hp = HyperbolicPoint(anchor, 1, np.array([2.0, 0.5]), np.eye(2), True, 0.0)
        block = data.draw(st.sampled_from([1, 7, 1 << 14]))
        for periods in ((1.0, 1.0), None):
            Wu = _random_polyline(data, "unstable", hp, anchor, periods)
            Ws = _random_polyline(data, "stable", hp, other, periods)
            with mock.patch.object(manifolds, "_PAIR_BLOCK", block):
                got = _raw_hits(Wu, Ws, 1e-9, periods)
            assert _hit_records(got) == _hit_records(
                _all_pairs_hits(Wu, Ws, periods))

    def test_midpoint_wrapped_onto_the_period_keeps_its_pairs(self):
        # np.mod(-7e-222, 1.0) is 1.0: the W^s midpoint's cell key must wrap
        # to 0, or the crossing at (1/32, 0) is never paired
        hp = HyperbolicPoint(np.zeros(2), 1, np.array([2.0, 0.5]), np.eye(2),
                             True, 0.0)

        def polyline(side, steps):
            lift = np.concatenate([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
            arclength = np.concatenate(
                [[0.0], np.cumsum(np.linalg.norm(steps, axis=1))])
            return ManifoldPolyline(side, hp, np.mod(lift, 1.0), lift,
                                    arclength, 1.0, 1, 0.06)

        Wu = polyline("unstable", np.array([[0.0, -0.03125], [0.03125, 0.03125]]))
        Ws = polyline("stable", np.array([[0.03125, -7.1520937691011e-222]]))
        got = _raw_hits(Wu, Ws, 1e-9, (1.0, 1.0))
        expect = _all_pairs_hits(Wu, Ws, (1.0, 1.0))
        assert len(expect[0]) == 1
        assert _hit_records(got) == _hit_records(expect)

    def test_hits_are_transverse_and_sorted(self):
        m, hp = cat_anchor()
        Wu = grow_manifold(m, hp, "unstable", 5.0, max_seg=0.02)
        Ws = grow_manifold(m, hp, "stable", 5.0, max_seg=0.02)
        hits = homoclinic_points(Wu, Ws, map_spec=m)
        angles = [h.angle for h in hits]
        assert all(a >= 1e-3 for a in angles)
        d = [h.distance_from_anchor for h in hits]
        assert d == sorted(d)
        assert all(x > 1e-8 for x in d)  # anchor itself excluded

    def test_identical_polylines_rejected_by_transversality(self):
        m, hp = cat_anchor()
        Wu = grow_manifold(m, hp, "unstable", 2.0, max_seg=0.02)
        fake = grow_manifold(m, hp, "unstable", 2.0, max_seg=0.02)
        fake.side = "stable"
        hits, tang = _raw_hits(Wu, fake, 1e-9, m.periods)
        assert hits == []

    def test_polylines_that_are_not_planar_raise(self):
        # the crossing kernel packs 2-D columns: a 3-D tangle is refused
        # by name, not broadcast into a shape error
        hp = HyperbolicPoint(np.zeros(3), 1, np.array([2.0, 0.5, 0.3]),
                             np.eye(3), True, 0.0)
        lift = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.2, 0.1, 0.0]])
        arc = np.concatenate([[0.0], np.cumsum(np.linalg.norm(
            np.diff(lift, axis=0), axis=1))])
        Wu, Ws = (ManifoldPolyline(side, hp, lift, lift, arc, 1.0, 1, 0.2)
                  for side in ("unstable", "stable"))
        with pytest.raises(ValueError, match="dimension 3"):
            homoclinic_points(Wu, Ws)


class TestRecurrence:
    def test_fixed_point_returns_immediately(self):
        m, hp = cat_anchor()
        res = is_recurrent(m, hp.point, tol_rec=1e-6, N=10)
        assert res.recurrent and res.first_return == 1

    def test_golden_rotation_first_return(self):
        # independent oracle: direct scan of |i*alpha mod 1| computes the
        # same first passage below 1e-3 (a Fibonacci denominator)
        m = make_map("rotation", alpha=GOLDEN)
        alpha = GOLDEN
        dists = np.abs((np.arange(1, 10001) * alpha + 0.5) % 1.0 - 0.5)
        oracle_first = int(np.nonzero(dists < 1e-3)[0][0]) + 1
        res = is_recurrent(m, np.array([0.0]), tol_rec=1e-3, N=10000)
        assert res.recurrent
        assert res.first_return == oracle_first == 610

    def test_translation_never_recurrent(self):
        m = make_map("translation")
        res = is_recurrent(m, np.array([0.3, 0.3]), tol_rec=0.999, N=500)
        assert not res.recurrent
        assert res.min_distance >= 1.0


class TestAccumulation:
    def test_cat_accumulation_at_wu_point(self):
        # strand spacing of W^s near q scales like 1/arclength, so radius
        # 0.01 needs the schedule extended to ~40 (nearest hit at 20 sits
        # 0.0282 from q); every radius is then reached
        m, hp = cat_anchor()
        Wu = grow_manifold(m, hp, "unstable", 0.5, max_seg=0.01)
        k = int(np.searchsorted(Wu.arclength, 0.3))
        q = Wu.vertices[k]
        rows = accumulation_check(m, hp, q, radii=[0.1, 0.03, 0.01],
                                  arclength_schedule=[5, 10, 20, 40],
                                  max_seg=0.02)
        for row in rows:
            assert row.found, f"no hit within {row.radius}"
            assert float(m.distance(row.hit.point, q)) <= row.radius
        used = {row.radius: row.arclength_used for row in rows}
        assert used[0.1] <= 20 and used[0.03] <= 20
        assert used[0.01] == 40

    def test_linear_negative_control(self):
        m, hp = linear_anchor()
        Wu = grow_manifold(m, hp, "unstable", 0.5, max_seg=0.01)
        q = Wu.vertices[len(Wu.vertices) // 2]
        rows = accumulation_check(m, hp, q, radii=[0.1, 0.03, 0.01],
                                  arclength_schedule=[1, 2], max_seg=0.01)
        assert all(not row.found for row in rows)

    def test_anchor_rejected_as_q(self):
        m, hp = cat_anchor()
        with pytest.raises(ValueError):
            accumulation_check(m, hp, hp.point, radii=[0.1],
                               arclength_schedule=[2], max_seg=0.02)

    # the bench cat config, standard K 1.5, standard K 0.97 period 3 and
    # the linear negative control
    @pytest.mark.parametrize("name, schedule, max_seg, q_arclength", [
        ("cat", [5, 10, 20, 40], 0.02, 0.3),
        ("standard-1.5", [1, 2, 4, 6], 0.01, 1.0),
        ("standard-0.97", [1, 2, 4, 5], 0.02, 1.0),
        ("linear", [1, 2], 0.01, 0.3),
    ])
    def test_matches_the_per_truncation_loop(self, monkeypatch, name, schedule,
                                             max_seg, q_arclength):
        m, hp = linear_anchor() if name == "linear" else growth_anchor(name)
        # the CLI's choice of base point at q_arclength along W^u
        Wu = grow_manifold(m, hp, "unstable", 1.2 * q_arclength, max_seg)
        q = Wu.vertices[int(np.searchsorted(Wu.arclength, q_arclength))]
        radii = [0.3, 0.1, 0.05, 0.03, 0.01]
        calls = []
        polish = manifolds._homoclinic_orbits

        def counted(map_spec, hp, pts, max_move):
            calls.append(pts.shape[0])
            return polish(map_spec, hp, pts, max_move)

        monkeypatch.setattr(manifolds, "_homoclinic_orbits", counted)
        got = accumulation_check(m, hp, q, radii, schedule, max_seg=max_seg)
        # one polish over every truncation's hits; none on an affine map
        assert len(calls) == (0 if m.name in system._AFFINE else 1)
        assert all(calls)
        expect = reference_accumulation(m, hp, q, radii, schedule, max_seg)
        assert _accumulation_records(got) == _accumulation_records(expect)
        used = {row.arclength_used for row in got if row.found}
        assert len(used) == (0 if name == "linear" else 3)

    def test_every_truncation_polishes_with_the_max_seg_move_cap(self, monkeypatch):
        # a stand-in polish that moves every hit by its move cap: the one
        # polish of accumulation_check and the polish of each truncation
        # alone take the same cap, 4.5 max_seg, although the truncations'
        # longest segments differ
        calls = []

        def shift_by_cap(map_spec, hp, pts, max_move):
            calls.append(max_move)
            return pts + max_move

        monkeypatch.setattr(manifolds, "_homoclinic_orbits", shift_by_cap)
        m, hp = growth_anchor("standard-0.97")
        Wu = grow_manifold(m, hp, "unstable", 1.2, 0.02)
        q = Wu.vertices[int(np.searchsorted(Wu.arclength, 1.0))]
        args = (m, hp, q, [0.3, 0.1, 0.05, 0.03], [1, 2, 4, 5], 0.02)
        got = accumulation_check(*args[:5], max_seg=0.02)
        assert calls == [3.0 * max(1.5 * 0.02, 1e-9)]
        expect = reference_accumulation(*args)
        assert calls[1:] == calls[:1] * 4  # once per truncation
        Wu = grow_manifold(m, hp, "unstable", 5.0, 0.02)
        Ws = grow_manifold(m, hp, "stable", 5.0, 0.02)
        assert len({_max_len(Wu.truncated(L), Ws.truncated(L))
                    for L in args[4]}) == 2
        assert _accumulation_records(got) == _accumulation_records(expect)

    def test_first_come_within_a_selection(self):
        key = np.array([[0, 0], [1, 1], [0, 0], [2, 2], [1, 1], [0, 0]])
        first_come = manifolds._first_come
        assert first_come(key, np.arange(6)).tolist() == [0, 1, 3]
        # row 2 is first of its key among the rows selected
        assert first_come(key, np.array([2, 3, 4, 5])).tolist() == [2, 3, 4]
        assert first_come(key, np.array([], dtype=int)).tolist() == []


class TestCandidatePairs:
    """Every segment pair that passes the crossing test is emitted by the
    bounding-box bucket generator."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_crossing_pair_is_a_candidate(self, data):
        anchor = np.asarray(data.draw(st.tuples(*[st.floats(0.0, 0.999)] * 2)))
        hp = HyperbolicPoint(anchor, 1, np.array([2.0, 0.5]), np.eye(2), True, 0.0)
        block = data.draw(st.sampled_from([1, 7, 1 << 14]))
        for periods in ((1.0, 1.0), None):
            Wu = _random_polyline(data, "unstable", hp, anchor, periods)
            if data.draw(st.booleans()):
                # W^s shadows W^u at a tiny angle and offset: near-parallel
                # pairs, where the crossing solve is least accurate
                angle = data.draw(st.floats(1e-14, 1e-8))
                rot = np.array([[math.cos(angle), -math.sin(angle)],
                                [math.sin(angle), math.cos(angle)]])
                shift = np.asarray(data.draw(st.tuples(*[st.floats(-1e-9, 1e-9)] * 2)))
                lift = (Wu.lift - anchor) @ rot.T + anchor + shift
                Ws = ManifoldPolyline("stable", hp, lift if periods is None
                                      else np.mod(lift, 1.0), lift, Wu.arclength,
                                      1.0, 1, 0.06)
            else:
                Ws = _random_polyline(data, "stable", hp, anchor, periods)
            with mock.patch.object(manifolds, "_PAIR_BLOCK", block):
                pairs = _emitted_pairs(Wu, Ws, periods)
            assert pairs == sorted(set(pairs))  # (i, j) order, no repeats
            assert _crossing_pairs(Wu, Ws, periods) <= set(pairs)

    # buckets are 1/32 wide: max_len is 1/32 in every planted case
    H = 1.0 / 32

    def _check(self, a_lift, b_lift, pair=(0, 0)):
        hp = HyperbolicPoint(np.array([0.1, 0.8]), 1, np.array([2.0, 0.5]),
                             np.eye(2), True, 0.0)
        Wu, Ws = (ManifoldPolyline(side, hp, np.mod(lift, 1.0), lift,
                                   np.concatenate([[0.0], np.cumsum(np.linalg.norm(
                                       np.diff(lift, axis=0), axis=1))]),
                                   1.0, 1, 0.06)
                  for side, lift in (("unstable", np.asarray(a_lift)),
                                     ("stable", np.asarray(b_lift))))
        assert _max_len(Wu, Ws) == self.H
        assert pair in _crossing_pairs(Wu, Ws, (1.0, 1.0))
        assert pair in _emitted_pairs(Wu, Ws, (1.0, 1.0))
        got = _raw_hits(Wu, Ws, 1e-9, (1.0, 1.0))
        expect = _all_pairs_hits(Wu, Ws, (1.0, 1.0))
        assert sum(map(len, expect)) == 1
        assert _hit_records(got) == _hit_records(expect)

    def test_segment_ending_short_of_a_bucket_face(self):
        # W^u stops 1e-11 before x = 1/2 (s = 1 + 3.2e-10, inside the
        # slack); W^s lies on the face, in the next bucket
        h, y = self.H, 0.3
        self._check([[0.5 - h - 1e-11, y], [0.5 - 1e-11, y]],
                    [[0.5, y - h / 2], [0.5, y + h / 2]])

    def test_segment_on_the_last_double_below_the_seam(self):
        # W^s at x = 1 - ulp, in the last bucket; W^u starts at x = 0
        h, y, x = self.H, 0.3, np.nextafter(1.0, 0.0)
        self._check([[0.0, y], [h, y]], [[x, y - h / 2], [x, y + h / 2]])

    def test_start_wrapped_onto_the_period(self):
        # the W^s start -tiny wraps to 1.0, so its box starts at x = 1.0
        # (bucket 0 modulo 32); W^u lies 1e-11 left of the seam
        h, y = self.H, 0.3
        self._check([[1.0 - 1e-11, y - h / 2], [1.0 - 1e-11, y + h / 2]],
                    [[-7.1520937691011e-222, y], [h, y]])

    def test_longest_segment_from_face_to_face(self):
        # a max_len segment spans a whole bucket; W^s crosses its far end
        h, y = self.H, 0.3
        self._check([[0.5, y], [0.5 + h, y]],
                    [[0.5 + h, y - h / 2], [0.5 + h, y + h / 2]])


# ---------------------------------------------------------------------------
# references for the array code paths
# ---------------------------------------------------------------------------

def _bad_reference(deltas, ts, max_seg, turn_max):
    """Per-pair turning-angle loop: the intervals of ts grow_manifold bisects."""
    lens = np.linalg.norm(deltas, axis=1)
    bad = set(np.nonzero(lens[1:] > max_seg)[0].tolist())
    for j in range(1, deltas.shape[0]):
        a, b = deltas[j - 1], deltas[j]
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na < 1e-15 or nb < 1e-15:
            continue
        cosang = float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))
        if math.acos(cosang) > turn_max:
            if j - 1 >= 1:
                bad.add(j - 2)
            bad.add(j - 1)
    return sorted(i for i in bad if ts[i + 1] - ts[i] > 1e-12)


def _check_contract(poly, target, max_seg, turn_max):
    """Segments over max_seg are those counted in `capped`; an uncapped
    polyline turns by at most turn_max at every vertex; the last vertex is
    the first at the target arclength."""
    d = np.diff(poly.lift, axis=0)
    lens = np.linalg.norm(d, axis=1)
    assert poly.capped == int(np.count_nonzero(lens > max_seg))
    if poly.capped == 0:
        tame = (lens[:-1] >= 1e-15) & (lens[1:] >= 1e-15)
        cos = np.einsum("ij,ij->i", d[:-1], d[1:])[tame] \
            / (lens[:-1] * lens[1:])[tame]
        turns = np.arccos(np.clip(cos, -1.0, 1.0))
        assert float(np.max(turns, initial=0.0)) <= turn_max + 1e-12
    assert poly.arclength[-1] >= target > poly.arclength[-2]


def _growth_log(monkeypatch, map_spec, hp, side, target_arclength, max_seg):
    """Grow one side; return the polyline and, per generation, its
    refinement rounds: the bytes of the chain's first two points (`tail`,
    then the image of t = 0), the parameter count after the round's
    pruning (`size`), whether it found intervals to bisect (`bad`), and
    in the generation's last round the vertices it keeps (`kept`)."""
    gens, last, kept = [], {}, []
    delta, bad_intervals = system.MapSpec.delta, manifolds._bad_intervals
    arclength = manifolds._chain_arclength

    def recorded(self, a, b):
        last["ab"] = a, b
        return delta(self, a, b)

    def checked(deltas, ts, max_seg, turn_max):
        # the chain's deltas come from the delta call just before this one
        a, b = last["ab"]
        if not gens or a[0].tobytes() != gens[-1][-1]["tail"]:
            if gens:  # the arclength call before this round's ended it
                gens[-1][-1]["kept"] = kept[-2]
            gens.append([])  # a new tail: a new generation
        bad = bad_intervals(deltas, ts, max_seg, turn_max)
        gens[-1].append({"tail": a[0].tobytes(), "start": b[0].tobytes(),
                         "size": ts.size, "bad": bool(bad.any())})
        return bad

    def arcs(start, deltas):
        # a generation keeps the points below the target and the first at
        # it, less the image of t = 0 from generation 1 on
        out = arclength(start, deltas)
        n = int(np.count_nonzero(out < target_arclength))
        kept.append(min(n + 1, out.size) - (len(gens) > 1))
        return out

    monkeypatch.setattr(system.MapSpec, "delta", recorded)
    monkeypatch.setattr(manifolds, "_bad_intervals", checked)
    monkeypatch.setattr(manifolds, "_chain_arclength", arcs)
    poly = grow_manifold(map_spec, hp, side, target_arclength, max_seg)
    gens[-1][-1]["kept"] = kept[-1]
    return poly, gens


def reference_grow_manifold(map_spec, hp, side, target_arclength, max_seg,
                            turn_max=0.2, r0_scale=1e-6, branch=1,
                            max_vertices=200000):
    """grow_manifold mapping every parameter from the seed chord in every
    refinement round, on the same schedule: generation g starts from
    generation g - 1's final parameters, each round first drops the
    parameters past the first image at the target, and the chain leads in
    from the anchor, then along the polyline's last segment.  Returns
    (vertices, lift, arclength)."""
    _, v = getattr(hp, side)
    inverse = side == "stable"
    scale = 1.0 if map_spec.periods is None else \
        float(np.max(np.asarray(map_spec.periods)))
    r0 = r0_scale * scale
    p = np.asarray(hp.point, dtype=float)
    # the fundamental domain [x0, f^+-period(x0)]
    x0 = map_spec.wrap(p + r0 * branch * v)[None, :]
    y0 = manifolds._apply_steps(map_spec, x0, hp.period, inverse)

    def mapped(ts, gen):
        seeds = map_spec.wrap(x0 + ts[:, None] * map_spec.delta(x0, y0))
        seeds[ts == 1.0] = y0
        return manifolds._apply_steps(map_spec, seeds, gen * hp.period, inverse)

    def chain(lead, pts, start_arc):
        """Steps from the chain's lead-in point through pts, and the
        arclength at each, one vertex at a time."""
        steps = map_spec.delta(np.concatenate([lead, pts[:-1]]), pts)
        arcs, total = [], start_arc
        for row in steps:
            total = total + np.linalg.norm(row)
            arcs.append(total)
        return steps, np.asarray(arcs)

    vertices, lift, arcl = map_spec.wrap(p.copy())[None, :], p[None, :], [0.0]
    ts = np.linspace(0.0, 1.0, 9)
    gen = 0
    while True:
        first = 1 if gen else 0  # vertices[-1] is the image of t = 0
        lead, lead_arc = vertices[-1 - first:][:1], arcl[-1 - first]
        for _ in range(60):
            pts = mapped(ts, gen)
            steps, arcs = chain(lead, pts, lead_arc)
            keep = int(np.count_nonzero(arcs < target_arclength)) + 1
            ts, steps = ts[:keep], steps[:keep]
            bad = manifolds._bad_intervals(steps, ts, max_seg, turn_max)
            if not bad.any() or len(ts) > 4096:
                break
            ts = np.sort(np.concatenate([ts, 0.5 * (ts[:-1][bad] + ts[1:][bad])]))
        pts = mapped(ts, gen)
        steps, arcs = chain(lead, pts, lead_arc)
        n = int(np.count_nonzero(arcs[first:] < target_arclength))
        done = n < arcs.size - first
        n += first + done
        vertices = np.concatenate([vertices, pts[first:n]])
        lift = np.concatenate([lift[:-1], np.cumsum(np.concatenate(
            [lift[-1:], steps[first:n]]), axis=0)])
        arcl += arcs[first:n].tolist()
        gen += 1
        if done or vertices.shape[0] > max_vertices or gen > 300:
            break
    return vertices, lift, np.asarray(arcl)


def reference_accumulation(map_spec, hp, q, radii, arclength_schedule,
                           max_seg, tol_int=1e-9):
    """accumulation_check running homoclinic_points, polish included, on
    every truncation of the schedule."""
    q = np.asarray(q, dtype=float)
    schedule = sorted(float(L) for L in arclength_schedule)
    Lmax = schedule[-1]
    Wu_full = grow_manifold(map_spec, hp, "unstable", Lmax, max_seg)
    Ws_full = grow_manifold(map_spec, hp, "stable", Lmax, max_seg)
    hits_by_L, dists_by_L, capped_by_L = {}, {}, {}
    for L in schedule:
        Wu, Ws = Wu_full.truncated(L), Ws_full.truncated(L)
        hits = homoclinic_points(Wu, Ws, tol_int=tol_int, map_spec=map_spec)
        hits_by_L[L] = hits
        dists_by_L[L] = map_spec.distance(
            np.reshape([h.point for h in hits], (-1, map_spec.dim)), q)
        capped_by_L[L] = Wu.capped + Ws.capped
    rows = []
    for r in sorted((float(r) for r in radii), reverse=True):
        found = used = None
        for L in schedule:
            close = np.flatnonzero(dists_by_L[L] <= r)
            if close.size:
                found, used = hits_by_L[L][close[0]], L
                break
        rows.append(manifolds.AccumulationRow(
            r, found is not None, used, found,
            capped_by_L[Lmax if used is None else used]))
    return rows


def _accumulation_records(rows):
    """Accumulation rows as tuples of exact float bits."""
    def bits(*xs):
        return tuple(float(x).hex() for x in xs)

    return [(bits(r.radius), r.found, r.arclength_used, r.capped,
             None if r.hit is None else
             (bits(*r.hit.point), bits(r.hit.param_unstable, r.hit.param_stable,
                                       r.hit.angle, r.hit.distance_from_anchor),
              r.hit.transverse))
            for r in rows]


def _crossing_pairs(Wu, Ws, periods):
    """Every (i, j) that passes the crossing test of _all_pairs_hits, by
    brute force over all segment pairs (anchor and duplicates included)."""
    a0, da = Wu.vertices[:-1], np.diff(Wu.lift, axis=0)
    b0, db = Ws.vertices[:-1], np.diff(Ws.lift, axis=0)
    am, bm = a0 + 0.5 * da, b0 + 0.5 * db
    if periods is not None:
        am, bm = np.mod(am, 1.0), np.mod(bm, 1.0)
    b_len = np.linalg.norm(db, axis=1)
    pairs = set()
    for i in range(a0.shape[0]):
        denom = da[i, 0] * db[:, 1] - da[i, 1] * db[:, 0]
        ok = np.abs(denom) >= 1e-15 * np.maximum(
            1.0, np.linalg.norm(da[i:i + 1], axis=1) * b_len)
        shift = bm - am[i]
        if periods is not None:
            shift = (shift + 0.5) % 1.0 - 0.5
        r = shift + (am[i] - a0[i]) - 0.5 * db
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = (r[:, 0] * db[:, 1] - r[:, 1] * db[:, 0]) / denom
            t = (r[:, 0] * da[i, 1] - r[:, 1] * da[i, 0]) / denom
        ok &= (s >= -1e-9) & (s <= 1 + 1e-9) & (t >= -1e-9) & (t <= 1 + 1e-9)
        pairs.update((i, int(j)) for j in np.flatnonzero(ok))
    return pairs


def _emitted_pairs(Wu, Ws, periods):
    """All (i, j) that _candidate_pairs yields, in order."""
    a0, da, _ = manifolds._segments(Wu)
    b0, db, _ = manifolds._segments(Ws)
    return [(int(i), int(j)) for bi, bj in manifolds._candidate_pairs(
        a0, da, b0, db, _max_len(Wu, Ws), periods is not None)
        for i, j in zip(bi, bj)]


def _max_len(Wu, Ws):
    """The longest segment of the two polylines, as `_crossings` takes it."""
    return max(float(np.max(np.linalg.norm(np.diff(poly.lift, axis=0), axis=1)))
               for poly in (Wu, Ws))


def _random_polyline(data, side, hp, start, periods):
    steps = np.asarray(data.draw(st.lists(
        st.tuples(*[st.floats(-0.06, 0.06)] * 2), min_size=1, max_size=30)))
    lift = np.concatenate([start[None, :], start + np.cumsum(steps, axis=0)])
    vertices = lift if periods is None else np.mod(lift, 1.0)
    arclength = np.concatenate([[0.0], np.cumsum(np.linalg.norm(steps, axis=1))])
    return ManifoldPolyline(side, hp, vertices, lift, arclength, 1.0, 1, 0.06)


def _raw_hits(Wu, Ws, tol_int, periods):
    """(hits, tangencies) before any polish, each sorted by anchor
    distance: the hit pipeline's unpolished hits, and the first-come
    crossings it drops below TRANSVERSALITY_MIN."""
    cr = manifolds._crossings(Wu, Ws, tol_int, periods)
    rows = manifolds._first_come(cr.key, np.arange(cr.i.size))
    tangent = rows[cr.angle[rows] < manifolds.TRANSVERSALITY_MIN]
    return (manifolds._hit_pipeline([(Wu, Ws)], tol_int, periods)[0],
            sorted(manifolds._hits(cr, tangent),
                   key=lambda h: (h.distance_from_anchor, h.param_unstable)))


def _all_pairs_hits(Wu, Ws, periods, tol_int=1e-9, transversality_min=1e-3):
    """`_raw_hits` by brute force: every segment pair is tested, row by
    row, with no cell buckets."""
    a0, da, a_arc = Wu.vertices[:-1], np.diff(Wu.lift, axis=0), Wu.arclength[:-1]
    b0, db, b_arc = Ws.vertices[:-1], np.diff(Ws.lift, axis=0), Ws.arclength[:-1]
    am, bm = a0 + 0.5 * da, b0 + 0.5 * db
    if periods is not None:
        am, bm = np.mod(am, 1.0), np.mod(bm, 1.0)
    b_len = np.linalg.norm(db, axis=1)
    anchor = np.asarray(Wu.anchor.point)
    hits, tangencies, seen = [], [], set()
    for i in range(a0.shape[0]):
        denom = da[i, 0] * db[:, 1] - da[i, 1] * db[:, 0]
        ok = np.abs(denom) >= 1e-15 * np.maximum(
            1.0, np.linalg.norm(da[i:i + 1], axis=1) * b_len)
        shift = bm - am[i]
        if periods is not None:
            shift = (shift + 0.5) % 1.0 - 0.5
        r = shift + (am[i] - a0[i]) - 0.5 * db
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = (r[:, 0] * db[:, 1] - r[:, 1] * db[:, 0]) / denom
            t = (r[:, 0] * da[i, 1] - r[:, 1] * da[i, 0]) / denom
        ok &= (s >= -1e-9) & (s <= 1 + 1e-9) & (t >= -1e-9) & (t <= 1 + 1e-9)
        for j in np.nonzero(ok)[0]:
            pt = a0[i] + s[j] * da[i]
            off = pt - anchor
            if periods is not None:
                pt = np.mod(pt, 1.0)
                off = (pt - anchor + 0.5) % 1.0 - 0.5
            dist = float(np.linalg.norm(off))
            key = tuple(np.round(pt / tol_int).astype(np.int64).tolist())
            if dist <= 10 * tol_int or key in seen:
                continue
            seen.add(key)
            na, nb = np.linalg.norm(da[i]), np.linalg.norm(db[j])
            angle = math.asin(min(1.0, abs(denom[j]) / (na * nb)))
            rec = (pt.tolist(), float(a_arc[i] + s[j] * na),
                   float(b_arc[j] + t[j] * nb), angle, dist)
            (hits if angle >= transversality_min else tangencies).append(rec)
    hits.sort(key=lambda h: (h[4], h[1]))
    tangencies.sort(key=lambda h: (h[4], h[1]))
    return hits, tangencies


def _hit_records(result):
    """(hits, tangencies) as plain tuples, for exact comparison."""
    return tuple(
        [h if isinstance(h, tuple) else
         (h.point.tolist(), h.param_unstable, h.param_stable, h.angle,
          h.distance_from_anchor) for h in group]
        for group in result)
