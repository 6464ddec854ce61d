"""Pseudo-orbit generation (random walks and two-orbit splices), shadow
searches with resolution-stamped certificates, and the linear-hyperbolic
stable-manifold check.

A shadow search (`shadow_search` has the stage order) reports the first
orbit it finds within eps: a seed of a uniform grid, a refined witness,
or the end of a coordinate descent.  The refinement (Hammel, Yorke &
Grebogi) is Newton on the orbit equations with minimum-norm steps
(`system._orbit_newton`), on a 2-D map that a closed-form 2x2 test finds
hyperbolic at every point of the pseudo-orbit; it needs no eigen-split.
Its witness orbit has a tiny per-step defect, the standard numerical
stand-in for a true shadow: without it no finite-precision search can
confirm shadowing of a chaotic map over long horizons, because the
required seed accuracy shrinks like the inverse of the unstable growth.
A NotShadowedAtResolution verdict is never a proof: it records the best
tracking error achieved over the declared seed set, the whole descent
and the refinement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Optional

import numpy as np

from ._util import vector_norms, wrap_unit, write_csv
from .system import MapSpec, _orbit_newton, evaluate, iterates

__all__ = [
    "PseudoOrbit", "ShadowingResult", "NoApproachError",
    "pseudo_orbit_to_csv",
    "random_pseudo_orbit", "splice_pseudo_orbit", "shadow_search",
    "linear_stable_check", "LinearSeedReport", "shadowing_profile",
    "ProfileRow", "seed_lattice_size", "NonFiniteOrbitError",
]


class NoApproachError(RuntimeError):
    """The orbit of q never enters the delta-ball of x0 within budget."""

    def __init__(self, min_distance: float, budget: int):
        super().__init__(
            f"no approach within delta: min distance {min_distance:.3e} "
            f"over {budget} steps")
        self.min_distance = min_distance
        self.budget = budget


class NonFiniteOrbitError(ValueError):
    """A pseudo-orbit point, or the image of one, is not finite."""


@dataclass
class PseudoOrbit:
    """Finite sequence y_0..y_N with per-step defect d(f(y_i), y_{i+1}) < delta."""

    points: np.ndarray
    delta: float
    provenance: dict
    defects: np.ndarray = field(default=None)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)

    def __len__(self):
        return self.points.shape[0]

    def validate(self, map_spec: MapSpec) -> np.ndarray:
        """Recompute step defects by direct evaluation; raise if any >= delta,
        or `NonFiniteOrbitError` at the first point or image that is not
        finite (a nan defect would pass any `>= delta` test)."""
        finite = np.isfinite(self.points).all(axis=1)
        if not finite.all():
            raise NonFiniteOrbitError(
                f"pseudo-orbit point {int(np.argmin(finite))} is not finite")
        with np.errstate(over="ignore", invalid="ignore"):
            imgs = evaluate(map_spec, self.points[:-1])
            defects = map_spec.distance(imgs, self.points[1:])
        finite = np.isfinite(defects)
        if not finite.all():
            raise NonFiniteOrbitError(f"the image of pseudo-orbit point "
                                      f"{int(np.argmin(finite))} is not finite")
        if self.delta > 0 and np.any(defects >= self.delta):
            worst = float(np.max(defects))
            raise ValueError(f"pseudo-orbit defect {worst:.3e} >= delta {self.delta:.3e}")
        if self.delta == 0 and np.any(defects > 1e-12):
            raise ValueError("delta=0 pseudo-orbit must be an exact orbit")
        self.defects = defects
        return defects


@dataclass
class ShadowingResult:
    """Verdict of a shadow search, stamped with eps and the seed-grid
    resolution.

    `achieved_eps` is the largest distance of the orbit `x` (or the
    refined `witness`) to the pseudo-orbit, and `trace` those distances
    step by step.  When `shadowed`, it is the first orbit the search found
    within eps, so `achieved_eps <= eps` but smaller values may exist;
    when not, it is the closest orbit over the whole search.
    """

    shadowed: bool
    eps: float
    achieved_eps: float
    x: np.ndarray
    trace: np.ndarray
    search_resolution: float
    method: str
    witness: Optional[np.ndarray] = None
    witness_defect: Optional[float] = None


def _ball_noise(rng: np.random.Generator, n: int, dim: int, radius: float):
    """n points uniform in the radius-ball (gaussian direction, radial cdf)."""
    if radius == 0.0:
        return np.zeros((n, dim))
    v = rng.normal(size=(n, dim))
    v /= vector_norms(v)[:, None]
    r = radius * rng.random(n) ** (1.0 / dim)
    return v * r[:, None]


def pseudo_orbit_to_csv(po: PseudoOrbit, path) -> None:
    """Rows of index, coordinates, step defect (0 for the last point)."""
    dim = po.points.shape[1]
    header = ["index"] + [f"x{i}" for i in range(dim)] + ["defect"]
    defects = np.zeros(po.points.shape[0])
    if po.defects is not None:
        defects[:-1] = po.defects
    write_csv(path, header, np.column_stack((po.points, defects)))


def random_pseudo_orbit(map_spec: MapSpec, x0, delta: float, N: int,
                        rng_seed: int = 0) -> PseudoOrbit:
    """y_0 = x0, y_{i+1} = f(y_i) + u_i with u_i uniform in the 0.99*delta ball."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    rng = np.random.default_rng(rng_seed)
    x0 = np.asarray(x0, dtype=float)
    pts = np.empty((N + 1, map_spec.dim))
    pts[0] = x0
    noise = _ball_noise(rng, N, map_spec.dim, 0.99 * delta)
    # an orbit that overflows is refused by validate, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(N):
            y = evaluate(map_spec, pts[i], out=pts[i + 1])
            y += noise[i]
            if map_spec.periods is not None:
                wrap_unit(y, out=y)
    po = PseudoOrbit(pts, float(delta), {"kind": "random", "rng_seed": rng_seed,
                                         "x0": x0.tolist(), "N": N})
    po.validate(map_spec)
    return po


# steps of the orbit of q that a splice searches for its approach to x0
_APPROACH_BUDGET = 10000


def splice_pseudo_orbit(map_spec: MapSpec, q, x0, delta: float,
                        n_back: int = 30, n_forward: int = 30) -> PseudoOrbit:
    """Two-orbit splice: the forward orbit of q up to its first entry,
    within `_APPROACH_BUDGET` steps, into the delta-ball of x0, continued
    by the orbit of x0.

    The single defect sits at the junction.  When the map is invertible a
    backward tail of q (n_back steps) approximates the bi-infinite
    pseudo-orbit; the forward orbit of x0 runs n_forward steps.

    The approach search ends at the first point of the orbit of q with an
    inf or nan coordinate: the orbit has overflowed, its distance to x0
    is inf or nan, and under the registry maps it stays non-finite, so it
    can no longer approach x0.  Overflow on the way there is not warned.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    q = np.asarray(q, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    # the orbit of q up to its first approach: the points before it are
    # the head, and the approach time n0 is their number
    head = []
    min_dist = math.inf
    approached = False
    with np.errstate(over="ignore", invalid="ignore"):
        for z in itertools.chain([q], iterates(map_spec, q, _APPROACH_BUDGET)):
            if not np.isfinite(z).all():
                break
            d = float(map_spec.distance(z, x0))
            min_dist = min(min_dist, d)
            if d < delta or (delta == 0.0 and d == 0.0):
                approached = True
                break
            head.append(z)
    if not approached:
        raise NoApproachError(min_dist, _APPROACH_BUDGET)
    n0 = len(head)

    tail = [x0, *iterates(map_spec, x0, n_forward)]
    n_back = n_back if map_spec.has_inverse else 0
    back = list(iterates(map_spec, q, n_back, "inverse"))[::-1]
    pts = np.asarray(back + head + tail)
    po = PseudoOrbit(pts, float(delta) if delta > 0 else 0.0,
                     {"kind": "splice", "q": q.tolist(), "x0": x0.tolist(),
                      "n0": n0, "n_back": len(back), "n_forward": n_forward})
    po.validate(map_spec)
    return po


# ---------------------------------------------------------------------------
# shadow search
# ---------------------------------------------------------------------------

# seeds made and iterated together; bounds the seed buffer at
# 2 * _SEED_BLOCK * dim floats, the time-major orbit buffer at
# len(y) * _SEED_BLOCK * dim and the error rows at _SEED_BLOCK * len(y)
# whatever the size of the grid
_SEED_BLOCK = 1024

# descent probes evaluated together, in the order the descent makes them
# (four rounds of 2*dim probes at dim 2)
_PROBE_BLOCK = 16

# probes a shadow search's coordinate descent may evaluate
_MAX_DESCENT = 200


def _lattice_radius(eps: float, grid_resolution: float) -> int:
    """m of the seed lattice (-m..m)^dim * grid_resolution."""
    return max(1, int(math.floor(eps / grid_resolution)))


def seed_lattice_size(dim: int, eps: float, grid_resolution: float) -> int:
    """Number of lattice points, (2m + 1)^dim, that a shadow search scans
    for the seeds within eps of y_0.

    Raises ValueError, naming the size, for a lattice of more points than
    `np.iinfo(np.intp).max`: `np.unravel_index` cannot index it.
    """
    try:
        size = (2 * _lattice_radius(eps, grid_resolution) + 1) ** dim
    except OverflowError:  # eps / grid_resolution is inf
        size = math.inf
    limit = int(np.iinfo(np.intp).max)
    if size > limit:
        raise ValueError(f"the seed lattice has {Decimal(size):.3e} points, "
                         f"more than the {limit:,} that can be indexed; a "
                         f"larger grid_resolution or a smaller eps shrinks it")
    return size


def _tracking_errors(map_spec: MapSpec, seeds: np.ndarray, y: np.ndarray):
    """Distance of each seed's orbit to y at every step, shape (n, len(y)).

    The orbits are stepped in place through one time-major buffer, row k
    holding step k of every seed, and the distances are taken on its
    (seed, step) transpose."""
    orbit = np.empty((y.shape[0], seeds.shape[0], map_spec.dim))
    orbit[0] = seeds
    for _ in iterates(map_spec, orbit[0], y.shape[0] - 1, out=orbit[1:]):
        pass
    return map_spec.distance(orbit.transpose(1, 0, 2), y)


def _seed_offsets(dim: int, m: int, grid_resolution: float, eps: float):
    """Offsets of the seed grid, `_SEED_BLOCK` rows at a time (the last
    block may be shorter): the points of the lattice
    (-m..m)^dim * grid_resolution within eps of 0, in meshgrid "ij" order.

    Each lattice block is made from its flat indices and filtered at once,
    so the grid is never held whole, and the seeds are regrouped into full
    blocks, the same blocks as a filter of the whole grid gives.
    """
    lattice = (2 * m + 1,) * dim
    total = math.prod(lattice)
    pending = np.empty((0, dim))
    for lo in range(0, total, _SEED_BLOCK):
        flat = np.arange(lo, min(lo + _SEED_BLOCK, total))
        offsets = (np.column_stack(np.unravel_index(flat, lattice)) - m) \
            * grid_resolution
        pending = np.concatenate(
            (pending, offsets[vector_norms(offsets) <= eps]))
        while pending.shape[0] >= _SEED_BLOCK:
            yield pending[:_SEED_BLOCK]
            pending = pending[_SEED_BLOCK:]
    if pending.shape[0]:
        yield pending


def _after_probe(step: float, k: int, improved: bool, accepted: bool,
                 dim: int):
    """Descent state (step, k, improved) after the probe at position k of a
    round of 2*dim probes; a round with no accepted probe halves the step."""
    improved = improved or accepted
    k += 1
    if k < 2 * dim:
        return step, k, improved
    return (step if improved else step * 0.5), 0, False


def _saddles(J: np.ndarray) -> np.ndarray:
    """Mask of the 2x2 matrices J (n, 2, 2) with real eigenvalues
    |lambda_u| > 1 + 1e-9 and |lambda_s| < 1 - 1e-9, in closed form."""
    a, b, c, d = J[:, 0, 0], J[:, 0, 1], J[:, 1, 0], J[:, 1, 1]
    # unwarned: an overflowed trace or determinant fails the gate or runs
    # away in `_orbit_newton`
    with np.errstate(all="ignore"):
        tr, det = a + d, a * d - b * c
        disc = tr * tr - 4.0 * det
        lam_u = 0.5 * (np.abs(tr) + np.sqrt(np.maximum(disc, 0.0)))
        lam_s = np.abs(det) / lam_u
    return (disc > 0.0) & (lam_u > 1.0 + 1e-9) & (lam_s < 1.0 - 1e-9)


def _refine_shadow(map_spec: MapSpec, y: np.ndarray):
    """(witness, defect) of `system._orbit_newton` on the pseudo-orbit y
    without boundary rows, or None; only for a 2-D map whose Jacobian
    passes `_saddles` at every point of y, a gate made once."""
    if map_spec.dim != 2 or not _saddles(map_spec.jac(y)).all():
        return None
    z, defect = _orbit_newton(map_spec, y[None])
    return (z[0], float(defect[0])) if np.isfinite(defect[0]) else None


def _every_seed_leaves(map_spec: MapSpec, y: np.ndarray, eps: float,
                       grid_resolution: float) -> bool:
    """Whether every grid seed's orbit leaves the eps-tube around y, so
    that `_best_seed`'s objective is above eps.  Each seed block is
    stepped, to the same distances as in `_tracking_errors`, until all its
    orbits have left.  A nan distance counts as staying, as the argmin
    picks a nan objective; a nan after an orbit has left, which only an
    overflow from finite coordinates brings, is not looked for.
    """
    m = _lattice_radius(eps, grid_resolution)
    for offsets in _seed_offsets(map_spec.dim, m, grid_resolution, eps):
        x = map_spec.wrap(y[0] + offsets)
        inside = ~(map_spec.distance(x, y[0]) > eps)
        for k in range(1, y.shape[0]):
            if not inside.any():
                break
            x = evaluate(map_spec, x)
            inside &= ~(map_spec.distance(x, y[k]) > eps)
        if inside.any():
            return False
    return True


def _best_seed(map_spec: MapSpec, y: np.ndarray, eps: float,
               grid_resolution: float):
    """(x, objective, trace) of the best seed on the grid in the eps-ball
    around y_0, one seed block at a time.

    A later block wins only by argmin over the pair, so the seed kept is
    the argmin over all seeds: the first minimum, or the first nan.
    """
    m = _lattice_radius(eps, grid_resolution)
    for k, offsets in enumerate(_seed_offsets(map_spec.dim, m,
                                              grid_resolution, eps)):
        seeds = map_spec.wrap(y[0] + offsets)
        errors = _tracking_errors(map_spec, seeds, y)
        worst = errors.max(axis=1)
        i = int(np.argmin(worst))
        if k == 0 or np.argmin((best_obj, worst[i])) == 1:
            best_x = seeds[i].copy()
            best_obj = float(worst[i])
            best_trace = errors[i].copy()
    return best_x, best_obj, best_trace


def _descend(map_spec: MapSpec, y: np.ndarray, best_x: np.ndarray,
             best_obj: float, best_trace: np.ndarray, step: float,
             eps: float):
    """Coordinate descent from (best_x, best_obj, best_trace) until its
    objective is within eps; returns the (x, objective, trace) of its last
    accepted probe, or the start, so the objective is never above best_obj.

    The probe at position k of a round moves axis k // 2 by +step (k even)
    or -step (k odd).  Until a probe is accepted the coming probes are
    fixed, so they are evaluated a block at a time and walked in order;
    the probes after an accepted one are dropped and do not count toward
    `_MAX_DESCENT`.  An accepted probe within eps ends the descent (a
    start within eps makes no probe): the descent only lowers the
    objective, so no later probe could change the verdict.  A nan
    objective is never within eps.
    """
    dim = map_spec.dim
    state = (step, 0, False)  # (step, k, improved)
    it = 0
    while it < _MAX_DESCENT and state[0] > 1e-17 and not best_obj <= eps:
        size = min(_PROBE_BLOCK, _MAX_DESCENT - it)
        block = []
        ahead = state
        while len(block) < size and ahead[0] > 1e-17:
            block.append(ahead)
            ahead = _after_probe(*ahead, False, dim)
        cands = np.repeat(best_x[None, :], len(block), axis=0)
        for r, (step, k, _) in enumerate(block):
            cands[r, k // 2] += -step if k % 2 else step
        cands = map_spec.wrap(cands)
        errors = _tracking_errors(map_spec, cands, y)
        objs = errors.max(axis=1)
        for r in range(len(block)):
            it += 1
            accepted = bool(objs[r] < best_obj)
            if accepted:
                best_obj = float(objs[r])
                best_x = cands[r].copy()
                best_trace = errors[r].copy()
            state = _after_probe(*state, accepted, dim)
            if accepted:
                break
    return best_x, best_obj, best_trace


def shadow_search(map_spec: MapSpec, po: PseudoOrbit, eps: float,
                  grid_resolution: float) -> ShadowingResult:
    """Search for an actual orbit eps-tracking the pseudo-orbit.

    The result is that of three stages in this order, none run once an
    orbit within eps is known.  Seeds on a uniform grid of the given
    resolution in the eps-ball around y_0; the best seed is the result if
    it is within eps.  If it misses eps and the map has an inverse, the
    hyperbolic sequence refinement, which supplies a witness orbit for
    horizons where seed precision alone cannot reach; a witness within
    eps is the result.  Otherwise coordinate descent from the best seed,
    until its first accepted probe within eps or `_MAX_DESCENT` probes,
    and the refined witness only where it tracks closer than the
    descent's last orbit.  A shadowed result's `achieved_eps` is
    therefore that of the first orbit found within eps (at most eps); an
    unshadowed one's is the least over the whole search.  Failure is
    reported as a resolution-stamped certificate, never a proof.

    An invertible map's refinement runs first: its witness within eps is
    the result at once when every grid seed's orbit leaves the eps-tube
    (`_every_seed_leaves`); otherwise the grid decides as above.  So
    every result equals the stage order's bit for bit.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    seed_lattice_size(map_spec.dim, eps, grid_resolution)
    y = po.points
    refined = _refine_shadow(map_spec, y) if map_spec.has_inverse else None
    if refined is not None:
        witness, witness_defect = refined
        trace = map_spec.distance(witness, y)
        achieved = float(np.max(trace))
    if refined is None or not (achieved <= eps and _every_seed_leaves(
            map_spec, y, eps, grid_resolution)):
        grid = _best_seed(map_spec, y, eps, grid_resolution)
        # a seed that stays in the tube makes the objective at most eps,
        # or nan: the grid then settles the search before any refinement
        if not grid[1] > eps:
            refined = None
        best_x, best_obj, best_trace = _descend(map_spec, y, *grid,
                                                grid_resolution, eps)
        if refined is None or not achieved < best_obj:
            return ShadowingResult(best_obj <= eps, float(eps), best_obj,
                                   best_x, best_trace, float(grid_resolution),
                                   "seed")
    return ShadowingResult(achieved <= eps, float(eps), achieved,
                           witness[0].copy(), trace, float(grid_resolution),
                           "refined", witness, witness_defect)


# ---------------------------------------------------------------------------
# linear-hyperbolic stable manifold check
# ---------------------------------------------------------------------------

@dataclass
class LinearSeedReport:
    seed: np.ndarray
    unstable_component: float
    max_distance: float
    diverged: bool
    shadows: bool
    closed_form_ok: bool
    passed: bool


# distance from the orbit of x past which a seed counts as diverged
_DIVERGENCE_THRESHOLD = 1.0


def linear_stable_check(map_spec: MapSpec, x, eps: float, N: int,
                        seeds) -> list[LinearSeedReport]:
    """Verify the stable-manifold dichotomy for linear(a, b), |a| > 1 > |b|.

    Seeds with unstable component >= eps must diverge past
    `_DIVERGENCE_THRESHOLD` from the orbit of x; seeds on the stable axis
    must track it forever.
    The computed separation trace is compared to the closed form
    (|a|^i du, |b|^i ds) with 1e-10 relative tolerance.
    """
    if map_spec.name != "linear":
        raise ValueError("linear_stable_check requires a linear(a, b) map")
    a = map_spec.params["a"]
    b = map_spec.params["b"]
    if not abs(a) > 1.0 > abs(b):
        raise ValueError("need |a| > 1 > |b|")
    x = np.asarray(x, dtype=float)
    if abs(x[0]) > 1e-15:
        raise ValueError("x must lie on the stable axis")
    reports = []
    for y in seeds:
        y = np.asarray(y, dtype=float)
        du = y[0] - x[0]
        ds = y[1] - x[1]
        dists = [float(np.linalg.norm(y - x))]
        ok = True
        # linear(a, b) acts entrywise: each row of the pair steps as alone
        for i, (xi, yi) in enumerate(iterates(map_spec, np.array([x, y]), N), 1):
            d = float(np.linalg.norm(yi - xi))
            exact = math.hypot(a ** i * du, b ** i * ds)
            if exact > 0 and abs(d - exact) > 1e-10 * exact:
                ok = False
            dists.append(d)
        max_d = max(dists)
        diverged = max_d > _DIVERGENCE_THRESHOLD
        shadows = max_d <= max(eps, abs(ds))
        if abs(du) >= eps:
            passed = diverged and ok
        elif abs(du) == 0.0:
            passed = shadows and ok
        else:
            passed = ok
        reports.append(LinearSeedReport(y, du, max_d, diverged, shadows, ok, passed))
    return reports


@dataclass
class ProfileRow:
    delta: float
    success_fraction: float
    worst_achieved: float


def shadowing_profile(map_spec: MapSpec, deltas, eps: float, trials: int,
                      N: int, rng_seed: int = 0, window=None,
                      grid_resolution: float | None = None) -> list[ProfileRow]:
    """Empirical delta -> shadowing success table over random pseudo-orbits.

    Each trial carries its own derived pseudo-orbit seed.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    if window is None:
        if map_spec.periods is None:
            raise ValueError("window required for non-periodic maps")
        window = (np.zeros(map_spec.dim), np.ones(map_spec.dim))
    lo = np.asarray(window[0], dtype=float)
    hi = np.asarray(window[1], dtype=float)
    res = grid_resolution if grid_resolution is not None else eps / 10.0
    ss = np.random.SeedSequence(rng_seed)
    rows = []
    for delta in deltas:
        rng = np.random.default_rng(ss.spawn(1)[0])
        starts = lo + rng.random((trials, map_spec.dim)) * (hi - lo)
        seeds = rng.integers(0, 2 ** 31, size=trials)
        results = []
        for t in range(trials):
            po = random_pseudo_orbit(map_spec, starts[t], float(delta), N,
                                     rng_seed=int(seeds[t]))
            results.append(shadow_search(map_spec, po, eps, res))
        successes = sum(1 for r in results if r.shadowed)
        worst = max(r.achieved_eps for r in results)
        rows.append(ProfileRow(float(delta), successes / trials, worst))
    return rows
