"""system.iterates and the orbit loops built on it, checked byte for byte
against the hand-written loops they replaced (kept below as references)."""

import math

import numpy as np
import pytest

from dynkit import conley, manifolds, shadowing, system
from dynkit.phase_space import BoxSet, Domain, Grid
from dynkit.system import (
    InverseUnavailableError, OrbitSegment, evaluate, iterates, lagrange_probe,
    make_map, orbit, polynomial_map,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# a degree-3 polynomial map without inverse, bounded near the unit square
CUBIC = polynomial_map([[{"c": 1.5, "e": [1, 0]}, {"c": -0.5, "e": [3, 0]},
                         {"c": 0.1, "e": [1, 2]}],
                        [{"c": 1.2, "e": [0, 1]}, {"c": -0.4, "e": [0, 3]},
                         {"c": 0.1, "e": [2, 1]}]], 2)

MAPS = {
    "cat": lambda: make_map("cat"),
    "standard": lambda: make_map("standard", K=0.97),
    "rotation": lambda: make_map("rotation", alpha=GOLDEN),
    "linear": lambda: make_map("linear", a=2.0, b=0.5),
    "poly": lambda: CUBIC,
}


def starts(m, n, seed=0):
    """n start points: in the unit torus, or in [-0.9, 0.9]^dim off it."""
    u = np.random.default_rng(seed).random((n, m.dim))
    return u if m.periods is not None else 1.8 * u - 0.9


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# the loops iterates replaced
# ---------------------------------------------------------------------------

def reference_orbit(map_spec, p, length):
    p = np.asarray(p, dtype=float)
    pts = np.empty((length + 1, map_spec.dim))
    pts[0] = p
    for k in range(length):
        pts[k + 1] = evaluate(map_spec, pts[k])
    return OrbitSegment(p, pts)


def reference_lagrange_probe(map_spec, p, escape_radius, n_max):
    p = np.asarray(p, dtype=float)
    pts = [p]
    x = p
    for k in range(1, n_max + 1):
        x = evaluate(map_spec, x)
        pts.append(x)
        if np.linalg.norm(x) >= escape_radius:
            return False, k, np.asarray(pts)
    return True, None, np.asarray(pts)


def reference_escape_fraction(map_spec, K, radius, n_max, samples, rng_seed):
    rng = np.random.default_rng(rng_seed)
    pts = K.sample_points(samples, rng)
    bounded = np.ones(samples, dtype=bool)
    x = pts
    for _ in range(n_max):
        x = evaluate(map_spec, x)
        bounded &= np.linalg.norm(x, axis=-1) <= radius
        if not bounded.any():
            break
    return float(np.count_nonzero(bounded) / samples)


def reference_orbit_jacobian(map_spec, pts, steps):
    """_orbit_jacobian as a loop of single steps."""
    x = np.atleast_2d(pts).astype(float)
    J = np.broadcast_to(np.eye(map_spec.dim), (x.shape[0],) + (map_spec.dim,) * 2).copy()
    for _ in range(steps):
        J = map_spec.jac(x) @ J
        x = evaluate(map_spec, x)
    return x, J


def reference_apply_steps(map_spec, pts, steps, inverse):
    x = np.atleast_2d(pts).astype(float)
    for _ in range(steps):
        if not inverse:
            x = evaluate(map_spec, x)
        elif map_spec.has_inverse:
            x = evaluate(map_spec, x, "inverse")
        else:
            x = manifolds._inverse_newton(map_spec, x)
    return x


def reference_is_recurrent(map_spec, q, tol_rec, N):
    q = np.asarray(q, dtype=float)
    x = q
    best = math.inf
    first = None
    for i in range(1, N + 1):
        x = evaluate(map_spec, x)
        d = float(map_spec.distance(x, q))
        if d < best:
            best = d
        if first is None and d < tol_rec:
            first = i
            break
    return first is not None, first, best


def reference_splice(map_spec, q, x0, delta, n_back, n_forward, budget):
    """Points and n0 of splice_pseudo_orbit, the head evaluated twice."""
    q = np.asarray(q, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    z = q.copy()
    n0 = None
    min_dist = math.inf
    for n in range(budget + 1):
        d = float(map_spec.distance(z, x0))
        min_dist = min(min_dist, d)
        if d < delta or (delta == 0.0 and d == 0.0):
            n0 = n
            break
        z = evaluate(map_spec, z)
    if n0 is None:
        raise shadowing.NoApproachError(min_dist, budget)
    head = [q]
    for _ in range(n0 - 1):
        head.append(evaluate(map_spec, head[-1]))
    if n0 == 0:
        head = []
    tail = [x0]
    for _ in range(n_forward):
        tail.append(evaluate(map_spec, tail[-1]))
    back = []
    if map_spec.has_inverse and n_back > 0:
        z = q.copy()
        for _ in range(n_back):
            z = evaluate(map_spec, z, "inverse")
            back.append(z.copy())
        back.reverse()
    return np.asarray(back + head + tail), n0, len(back)


def reference_tracking_errors(map_spec, seeds, y, block=1024):
    n, length = seeds.shape[0], y.shape[0]
    errors = np.empty((n, length))
    for lo in range(0, n, block):
        x = seeds[lo:lo + block]
        buf = np.empty((x.shape[0], length, map_spec.dim))
        buf[:, 0] = x
        for i in range(1, length):
            x = evaluate(map_spec, x)
            buf[:, i] = x
        errors[lo:lo + block] = map_spec.distance(buf, y)
    return errors


def reference_linear_dists(map_spec, x, y, N):
    xi, yi = x.copy(), y.copy()
    dists = [float(np.linalg.norm(yi - xi))]
    for _ in range(1, N + 1):
        xi = evaluate(map_spec, xi)
        yi = evaluate(map_spec, yi)
        dists.append(float(np.linalg.norm(yi - xi)))
    return dists


# ---------------------------------------------------------------------------

class TestIterates:
    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_yields_the_evaluate_chain(self, name):
        m = MAPS[name]()
        pts = starts(m, 7)
        directions = ["forward", "inverse"] if m.has_inverse else ["forward"]
        for direction in directions:
            for x0 in (pts, pts[3]):
                got = list(iterates(m, x0, 12, direction))
                x, want = x0, []
                for _ in range(12):
                    x = evaluate(m, x, direction)
                    want.append(x)
                assert len(got) == 12
                assert all(same(g, w) for g, w in zip(got, want))

    def test_one_evaluate_per_step_taken(self, monkeypatch):
        calls = []
        real = system.evaluate

        def counted(map_spec, p, direction="forward"):
            calls.append(direction)
            return real(map_spec, p, direction)

        monkeypatch.setattr(system, "evaluate", counted)
        m = make_map("cat")
        assert list(iterates(m, np.zeros(2), 0)) == []
        assert calls == []
        it = iterates(m, np.zeros((4, 2)), 10, "inverse")
        next(it)
        next(it)
        assert calls == ["inverse", "inverse"]

    def test_inverse_of_map_without_one_raises(self):
        it = iterates(CUBIC, np.zeros(2), 3, "inverse")
        with pytest.raises(InverseUnavailableError):
            next(it)


@pytest.mark.parametrize("name", sorted(MAPS))
class TestMatchesReferenceLoops:
    def test_orbit(self, name):
        m = MAPS[name]()
        for p in starts(m, 4):
            got, want = orbit(m, p, 25), reference_orbit(m, p, 25)
            assert same(got.base, want.base) and same(got.points, want.points)

    def test_lagrange_probe(self, name):
        m = MAPS[name]()
        for p in starts(m, 4, seed=1):
            for radius in (0.5, 1.0, 50.0):
                got = lagrange_probe(m, p, radius, 30)
                bounded, step, pts = reference_lagrange_probe(m, p, radius, 30)
                assert (got.bounded, got.escaped_step) == (bounded, step)
                assert same(got.orbit.points, pts)

    def test_escape_fraction(self, name):
        m = MAPS[name]()
        g = Grid(Domain((0.0,) * m.dim, (1.0,) * m.dim, (False,) * m.dim),
                 (3,) * m.dim)
        K = BoxSet.full(g)
        for radius, n_max in ((0.9, 20), (1.5, 20), (100.0, 5), (1.0, 0)):
            assert conley.escape_fraction(m, K, radius, n_max, 200, rng_seed=4) == \
                reference_escape_fraction(m, K, radius, n_max, 200, 4)

    def test_orbit_jacobian(self, name):
        m = MAPS[name]()
        pts = starts(m, 6, seed=2)
        for steps in (0, 1, 5):
            got = manifolds._orbit_jacobian(m, pts, steps)
            want = reference_orbit_jacobian(m, pts, steps)
            assert same(got[0], want[0]) and same(got[1], want[1])

    def test_apply_steps(self, name):
        m = MAPS[name]()
        pts = starts(m, 6, seed=3)
        if not m.has_inverse:
            pts = 0.2 * pts  # keep the Newton inverse near its basin
        for inverse in (False, True):
            for steps in (0, 1, 4):
                assert same(manifolds._apply_steps(m, pts, steps, inverse),
                            reference_apply_steps(m, pts, steps, inverse))

    def test_recurrence(self, name):
        m = MAPS[name]()
        for q in starts(m, 3, seed=4):
            for tol in (1e-3, 0.05, 0.3):
                got = manifolds.is_recurrent(m, q, tol, 200)
                assert (got.recurrent, got.first_return, got.min_distance) == \
                    reference_is_recurrent(m, q, tol, 200)

    def test_splice(self, name):
        m = MAPS[name]()
        for q in starts(m, 3, seed=5):
            # x0 next to f^7(q): the orbit of q approaches by step 7
            x0 = m.wrap(reference_orbit(m, q, 7).points[-1] + 2e-3)
            for n_back, n_forward in ((0, 0), (4, 9)):
                po = shadowing.splice_pseudo_orbit(m, q, x0, 1e-2, n_back,
                                                   n_forward)
                pts, n0, nb = reference_splice(m, q, x0, 1e-2, n_back,
                                               n_forward, 50)
                assert same(po.points, pts)
                assert (po.provenance["n0"], po.provenance["n_back"]) == (n0, nb)

    def test_tracking_errors(self, name):
        m = MAPS[name]()
        seeds = starts(m, 40, seed=6)
        y = reference_orbit(m, seeds[0], 15).points + 1e-3
        assert same(shadowing._tracking_errors(m, seeds, y),
                    reference_tracking_errors(m, seeds, y))


def test_cat_splice_far_approach_matches_reference():
    m = make_map("cat")
    q, x0 = np.array([0.1, 0.2]), np.array([0.3, 0.7])
    po = shadowing.splice_pseudo_orbit(m, q, x0, 2e-2, 10, 12)
    pts, n0, _ = reference_splice(m, q, x0, 2e-2, 10, 12, 10000)
    assert n0 == po.provenance["n0"] == 967
    assert same(po.points, pts)


def test_no_approach_matches_reference(monkeypatch):
    m = make_map("linear", a=2.0, b=0.5)
    q, x0 = np.array([0.0, 0.5]), np.array([0.5, 0.0])
    monkeypatch.setattr(shadowing, "_APPROACH_BUDGET", 300)
    with pytest.raises(shadowing.NoApproachError) as got:
        shadowing.splice_pseudo_orbit(m, q, x0, 1e-3)
    with pytest.raises(shadowing.NoApproachError) as want:
        reference_splice(m, q, x0, 1e-3, 30, 30, 300)
    assert (got.value.min_distance, got.value.budget) == \
        (want.value.min_distance, want.value.budget)


def test_linear_stable_check_matches_reference():
    m = make_map("linear", a=2.0, b=0.5)
    x = np.array([0.0, 0.3])
    seeds = [np.array([0.0, 0.31]), np.array([1e-3, 0.25]), np.array([0.2, -0.4])]
    reports = shadowing.linear_stable_check(m, x, 1e-2, 30, seeds)
    for rep, y in zip(reports, seeds):
        assert rep.max_distance == max(reference_linear_dists(m, x, y, 30))
        assert rep.closed_form_ok
