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
                        "standard-1.5": (1.5, 1, 3)}[name]
    m = make_map("standard", K=K)
    g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (depth, depth))
    return m, [hp for hp in find_periodic_points(m, period, g)
               if hp.is_hyperbolic][0]


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
    """The closed-form 2x2 kernel against np.linalg.solve and
    np.linalg.pinv(rcond=1e-12)."""

    @settings(max_examples=60, deadline=None)
    @given(stack_args(12, st.floats(1e-6, 1.0)))
    def test_well_conditioned_stacks(self, AB):
        A, B = AB
        # forward error of either solve: a small multiple of cond * eps
        rtol = 64 * EPS * np.linalg.cond(A).max()
        assert_rows_close(manifolds._solve2(A, B), np.linalg.solve(A, B), rtol)
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
        # no warning; the other rows of the stack do not change
        X = manifolds._solve2(A, B)
        assert_rows_close(X[good], np.linalg.solve(A[good], B[good]), 1e-14)
        assert not np.all(np.isfinite(X[1:3]), axis=(1, 2)).any()
        # with rcond the non-finite and overflowed rows are pinv's own
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

    def test_capped_segments_counted(self):
        # at arclength 40 the 4096-parameter cap leaves segments over
        # max_seg = 0.01; at 0.02 every segment honours the cap
        m, hp = cat_anchor()
        for max_seg, expect_capped in ((0.01, True), (0.02, False)):
            polys = [grow_manifold(m, hp, side, 40.0, max_seg=max_seg)
                     for side in ("unstable", "stable")]
            for poly in polys:
                lens = np.linalg.norm(np.diff(poly.lift, axis=0), axis=1)
                assert poly.capped == int(np.count_nonzero(lens > max_seg))
                assert poly.truncated(5.0).max_seg == max_seg
            total = sum(poly.capped for poly in polys)
            assert (total > 0) == expect_capped, total

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
        # maps every parameter from the seed chord in every round
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
        # cat manifolds are straight, so the raw crossings are already exact
        m, hp = cat_anchor()
        Wu = grow_manifold(m, hp, "unstable", 10.0, max_seg=0.02)
        Ws = grow_manifold(m, hp, "stable", 10.0, max_seg=0.02)
        raw = np.asarray([h.point for h in
                          manifolds._raw_hits(Wu, Ws, 1e-9, m.periods)[0]])
        polished = np.asarray([h.point for h in homoclinic_points(Wu, Ws, map_spec=m)])
        assert raw.shape == polished.shape
        for x in polished:
            assert float(np.min(m.distance(raw, x))) < 1e-13

    def test_backward_chain_rule_jacobian_inverts_forward(self):
        m = make_map("standard", K=0.97)
        x = np.array([[0.1, 0.7], [0.45, 0.2], [0.8, 0.9]])
        y, Jf = manifolds._orbit_jacobian(m, x, 5)
        xb, Jb = manifolds._orbit_jacobian(m, y, 5, inverse=True)
        assert np.allclose(m.distance(xb, x), 0.0, atol=1e-12)
        assert np.allclose(Jb @ Jf, np.eye(2), atol=1e-9)

    def test_cat_tangle_matches_all_pairs_oracle(self):
        m, hp = cat_anchor()
        Wu = grow_manifold(m, hp, "unstable", 8.0, max_seg=0.02)
        Ws = grow_manifold(m, hp, "stable", 8.0, max_seg=0.02)
        expect = _all_pairs_hits(Wu, Ws, m.periods)
        assert len(expect[0]) > 30
        got = manifolds._raw_hits(Wu, Ws, 1e-9, m.periods)
        assert _hit_records(got) == _hit_records(expect)
        with mock.patch.object(manifolds, "_PAIR_BLOCK", 64):
            blocked = manifolds._raw_hits(Wu, Ws, 1e-9, m.periods)
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
                got = manifolds._raw_hits(Wu, Ws, 1e-9, periods)
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
        got = manifolds._raw_hits(Wu, Ws, 1e-9, (1.0, 1.0))
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
        hits, tang = manifolds._raw_hits(Wu, fake, 1e-9, m.periods)
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

    # the bench cat config, standard K 1.5, standard K 0.97 period 3 (the
    # truncations' longest segments differ, so the polish runs once per
    # move cap) and the linear negative control
    @pytest.mark.parametrize("name, schedule, max_seg, q_arclength, caps", [
        ("cat", [5, 10, 20, 40], 0.02, 0.3, 1),
        ("standard-1.5", [1, 2, 4, 6], 0.01, 1.0, 2),
        ("standard-0.97", [1, 2, 4, 5], 0.02, 1.0, 2),
        ("linear", [1, 2], 0.01, 0.3, 2),
    ])
    def test_matches_the_per_truncation_loop(self, name, schedule, max_seg,
                                             q_arclength, caps):
        m, hp = linear_anchor() if name == "linear" else growth_anchor(name)
        # the CLI's choice of base point at q_arclength along W^u
        Wu = grow_manifold(m, hp, "unstable", 1.2 * q_arclength, max_seg)
        q = Wu.vertices[int(np.searchsorted(Wu.arclength, q_arclength))]
        radii = [0.3, 0.1, 0.05, 0.03, 0.01]
        got = accumulation_check(m, hp, q, radii, schedule, max_seg=max_seg)
        expect = reference_accumulation(m, hp, q, radii, schedule, max_seg)
        assert _accumulation_records(got) == _accumulation_records(expect)
        used = {row.arclength_used for row in got if row.found}
        assert len(used) == (0 if name == "linear" else 3)
        Wu = grow_manifold(m, hp, "unstable", schedule[-1], max_seg)
        Ws = grow_manifold(m, hp, "stable", schedule[-1], max_seg)
        assert len({manifolds._move_cap(Wu.truncated(L), Ws.truncated(L))
                    for L in schedule}) == caps


    def test_each_truncation_polishes_with_its_own_move_cap(self, monkeypatch):
        # a stand-in polish that moves every hit by its move cap: the caps
        # of standard K 0.97 period 3 differ in the last digits only, which
        # the real polish never feels
        calls = []

        def shift_by_cap(map_spec, hp, pts, max_move, tol=1e-12):
            calls.append(max_move)
            return pts + max_move

        monkeypatch.setattr(manifolds, "_polish_hits", shift_by_cap)
        m, hp = growth_anchor("standard-0.97")
        Wu = grow_manifold(m, hp, "unstable", 1.2, 0.02)
        q = Wu.vertices[int(np.searchsorted(Wu.arclength, 1.0))]
        args = (m, hp, q, [0.3, 0.1, 0.05, 0.03], [1, 2, 4, 5], 0.02)
        got = accumulation_check(*args[:5], max_seg=0.02)
        assert len(calls) == len(set(calls)) == 2  # one polish per cap
        expect = reference_accumulation(*args)
        assert set(calls[2:]) == set(calls[:2])  # once per truncation with hits
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
        assert manifolds._max_len(Wu, Ws) == self.H
        assert pair in _crossing_pairs(Wu, Ws, (1.0, 1.0))
        assert pair in _emitted_pairs(Wu, Ws, (1.0, 1.0))
        got = manifolds._raw_hits(Wu, Ws, 1e-9, (1.0, 1.0))
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


def reference_grow_manifold(map_spec, hp, side, target_arclength, max_seg,
                            turn_max=0.2, r0_scale=1e-6, branch=1,
                            max_vertices=200000):
    """grow_manifold mapping every parameter from the seed chord in every
    refinement round; returns (vertices, lift, arclength)."""
    lam, v = manifolds._real_eigenpair(hp, side)
    stretch = lam if side == "unstable" else 1.0 / lam
    inverse = side == "stable"
    scale = 1.0 if map_spec.periods is None else \
        float(np.max(np.asarray(map_spec.periods)))
    r0 = r0_scale * scale
    p = np.asarray(hp.point, dtype=float)
    direction = branch * v

    def mapped(ts, gen):
        radii = r0 * (1.0 + ts * (stretch - 1.0))
        seeds = map_spec.wrap(p[None, :] + radii[:, None] * direction[None, :])
        return manifolds._apply_steps(map_spec, seeds, gen * hp.period, inverse)

    vertices = [map_spec.wrap(p.copy())[None, :]]
    lift = [p.copy()[None, :]]
    arc = [np.zeros(1)]
    nvert, gen, done = 1, 0, False
    while not done:
        ts = np.linspace(0.0, 1.0, 9)
        pts = mapped(ts, gen)
        for _ in range(60):
            chain = np.concatenate([vertices[-1][-1:], pts], axis=0)
            bad = manifolds._bad_intervals(map_spec.delta(chain[:-1], chain[1:]),
                                           ts, max_seg, turn_max)
            if not bad.any() or len(ts) > 4096:
                break
            ts = np.sort(np.concatenate([ts, 0.5 * (ts[:-1][bad] + ts[1:][bad])]))
            pts = mapped(ts, gen)
        if gen > 0:
            pts = pts[1:]
        d = map_spec.delta(np.concatenate([vertices[-1][-1:], pts[:-1]]), pts)
        steps = np.array([np.linalg.norm(row) for row in d])
        arcs = np.cumsum(np.concatenate([arc[-1][-1:], steps]))[1:]
        n = int(np.count_nonzero(arcs < target_arclength))
        if n < arcs.size:
            done = True
            n += 1
        vertices.append(pts[:n])
        lift.append(np.cumsum(np.concatenate([lift[-1][-1:], d[:n]]), axis=0)[1:])
        arc.append(arcs[:n])
        nvert += n
        if nvert > max_vertices:
            break
        gen += 1
        if gen > 300:
            break
    return np.concatenate(vertices), np.concatenate(lift), np.concatenate(arc)


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
        a0, da, b0, db, manifolds._max_len(Wu, Ws), periods is not None)
        for i, j in zip(bi, bj)]


def _random_polyline(data, side, hp, start, periods):
    steps = np.asarray(data.draw(st.lists(
        st.tuples(*[st.floats(-0.06, 0.06)] * 2), min_size=1, max_size=30)))
    lift = np.concatenate([start[None, :], start + np.cumsum(steps, axis=0)])
    vertices = lift if periods is None else np.mod(lift, 1.0)
    arclength = np.concatenate([[0.0], np.cumsum(np.linalg.norm(steps, axis=1))])
    return ManifoldPolyline(side, hp, vertices, lift, arclength, 1.0, 1, 0.06)


def _all_pairs_hits(Wu, Ws, periods, tol_int=1e-9, transversality_min=1e-3):
    """`manifolds._raw_hits` by brute force: every segment pair is
    tested, row by row, with no cell buckets."""
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
