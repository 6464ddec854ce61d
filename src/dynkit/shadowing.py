"""Pseudo-orbit generation (random walks and two-orbit splices), shadow
searches with resolution-stamped certificates, and the linear-hyperbolic
stable-manifold check.

A shadow search runs three stages in order: a uniform seed grid in the
eps-ball; when the best seed misses eps and the map is invertible, a
sequence-space refinement pass (Hammel, Yorke & Grebogi); and, unless the
refined witness is within eps, coordinate descent from the best seed.
The refinement produces a witness orbit with tiny per-step defect, the
standard numerical stand-in for a true shadow; without it no
finite-precision search can confirm shadowing of a chaotic map over long
horizons, because the required seed accuracy shrinks like the inverse of
the unstable growth.  A NotShadowedAtResolution verdict is never a proof:
it records the best tracking error achieved over the declared seed set,
the descent and the refinement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._util import wrap_unit, write_csv
from .system import MapSpec, evaluate, iterates

__all__ = [
    "PseudoOrbit", "ShadowingResult", "NoApproachError",
    "pseudo_orbit_to_csv", "pseudo_orbit_from_csv",
    "random_pseudo_orbit", "splice_pseudo_orbit", "shadow_search",
    "linear_stable_check", "LinearSeedReport", "shadowing_profile",
    "ProfileRow", "seed_lattice_size",
]


class NoApproachError(RuntimeError):
    """The orbit of q never enters the delta-ball of x0 within budget."""

    def __init__(self, min_distance: float, budget: int):
        super().__init__(
            f"no approach within delta: min distance {min_distance:.3e} "
            f"over {budget} steps")
        self.min_distance = min_distance
        self.budget = budget


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
        """Recompute step defects by direct evaluation; raise if any >= delta."""
        imgs = evaluate(map_spec, self.points[:-1])
        defects = map_spec.distance(imgs, self.points[1:])
        if self.delta > 0 and np.any(defects >= self.delta):
            worst = float(np.max(defects))
            raise ValueError(f"pseudo-orbit defect {worst:.3e} >= delta {self.delta:.3e}")
        if self.delta == 0 and np.any(defects > 1e-12):
            raise ValueError("delta=0 pseudo-orbit must be an exact orbit")
        self.defects = defects
        return defects


@dataclass
class ShadowingResult:
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
    v /= np.linalg.norm(v, axis=1, keepdims=True)
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


def pseudo_orbit_from_csv(map_spec: MapSpec, path, delta: float) -> PseudoOrbit:
    """Load and revalidate a pseudo-orbit written by pseudo_orbit_to_csv."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        ncoord = len(header) - 2
        for line in fh:
            parts = line.strip().split(",")
            rows.append([float(x) for x in parts[1:1 + ncoord]])
    po = PseudoOrbit(np.asarray(rows), float(delta),
                     {"kind": "imported", "path": str(path)})
    po.validate(map_spec)
    return po


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
    for i in range(N):
        y = evaluate(map_spec, pts[i], out=pts[i + 1])
        y += noise[i]
        if map_spec.periods is not None:
            wrap_unit(y, out=y)
    po = PseudoOrbit(pts, float(delta), {"kind": "random", "rng_seed": rng_seed,
                                         "x0": x0.tolist(), "N": N})
    po.validate(map_spec)
    return po


def splice_pseudo_orbit(map_spec: MapSpec, q, x0, delta: float,
                        n_back: int = 30, n_forward: int = 30,
                        budget: int = 10000) -> PseudoOrbit:
    """Two-orbit splice: the forward orbit of q up to its first entry into
    the delta-ball of x0, continued by the orbit of x0.

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
        for z in itertools.chain([q], iterates(map_spec, q, budget)):
            if not np.isfinite(z).all():
                break
            d = float(map_spec.distance(z, x0))
            min_dist = min(min_dist, d)
            if d < delta or (delta == 0.0 and d == 0.0):
                approached = True
                break
            head.append(z)
    if not approached:
        raise NoApproachError(min_dist, budget)
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


def _lattice_radius(eps: float, grid_resolution: float) -> int:
    """m of the seed lattice (-m..m)^dim * grid_resolution."""
    return max(1, int(math.floor(eps / grid_resolution)))


def seed_lattice_size(dim: int, eps: float, grid_resolution: float) -> int:
    """Number of lattice points, (2m + 1)^dim, that a shadow search scans
    for the seeds within eps of y_0."""
    return (2 * _lattice_radius(eps, grid_resolution) + 1) ** dim


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
            (pending, offsets[np.linalg.norm(offsets, axis=1) <= eps]))
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


def _hyperbolic_frames(map_spec: MapSpec, pts: np.ndarray):
    """Per-point (basis, eigenvalues) with |lam_u| > 1 > |lam_s|, real.

    Returns None when the map is not vector-hyperbolic along the sequence
    (complex pairs or a modulus-one eigenvalue).
    """
    if map_spec.dim != 2:
        return None
    J = map_spec.jac(pts)
    vals, vecs = np.linalg.eig(J)
    if np.iscomplexobj(vals) and np.any(np.abs(vals.imag) > 1e-12):
        return None
    vals = vals.real
    vecs = vecs.real
    order = np.argsort(-np.abs(vals), axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    if np.any(np.abs(vals[:, 0]) <= 1.0 + 1e-9) or np.any(np.abs(vals[:, 1]) >= 1.0 - 1e-9):
        return None
    return _orient_columns(vecs), vals


def _orient_columns(vecs: np.ndarray) -> np.ndarray:
    """Flip the columns of the (n, d, d) frames in place so that each
    column's dot with the same column of the previous frame, as flipped,
    is not negative; the first frame stays as it is.

    With signs s_k = ±1 and raw dots d_k of column k with column k - 1,
    column k flips exactly when s_{k-1} * d_k < 0; a dot that is zero or
    nan leaves the column and restarts the sign at +1.  So s_k is -1 when
    the count of negative dots since the last restart is odd.  The dots go
    through the dot kernel of `np.dot`, as in `_util.row_norms`.
    """
    cols = np.swapaxes(vecs, 1, 2)  # (n, column, component)
    dots = np.matmul(cols[1:, :, None, :], cols[:-1, :, :, None])[..., 0, 0]
    neg = np.zeros(cols.shape[:2], dtype=np.int64)
    neg[1:] = dots < 0
    restart = np.ones(cols.shape[:2], dtype=bool)
    restart[1:] = ~((dots < 0) | (dots > 0))  # zero or nan
    count = np.cumsum(neg, axis=0)
    since = count - np.maximum.accumulate(np.where(restart, count, 0), axis=0)
    np.negative(vecs, out=vecs, where=(since % 2 == 1)[:, None, :])
    return vecs


def _refine_shadow(map_spec: MapSpec, y: np.ndarray, max_sweeps: int = 60,
                   defect_tol: float = 1e-11):
    """Sequence-space Newton relaxation toward a nearby numerical orbit.

    Corrections solve the linearized defect equation with the stable
    component integrated forward and the unstable component backward, the
    splitting that keeps the correction bounded on hyperbolic maps.
    """
    z = y.copy()
    n = z.shape[0]
    for _ in range(max_sweeps):
        imgs = evaluate(map_spec, z[:-1])
        g = map_spec.delta(z[1:], imgs)  # f(z_i) - z_{i+1}, wrapped
        worst = float(np.max(np.linalg.norm(g, axis=1))) if n > 1 else 0.0
        if worst < defect_tol:
            return z, worst
        frames = _hyperbolic_frames(map_spec, z)
        if frames is None:
            return None
        vecs, vals = frames
        # defect coordinates in the frame at the arrival point
        h = np.linalg.solve(vecs[1:], g[..., None])[..., 0]
        cu = np.zeros(n)
        cs = np.zeros(n)
        for i in range(n - 1):
            cs[i + 1] = vals[i, 1] * cs[i] + h[i, 1]
        for i in range(n - 2, -1, -1):
            cu[i] = (cu[i + 1] - h[i, 0]) / vals[i, 0]
        e = vecs[:, :, 0] * cu[:, None] + vecs[:, :, 1] * cs[:, None]
        if not np.all(np.isfinite(e)) or np.max(np.abs(e)) > 1e6:
            return None
        z = map_spec.wrap(z + e)
    imgs = evaluate(map_spec, z[:-1])
    worst = float(np.max(np.linalg.norm(map_spec.delta(z[1:], imgs), axis=1)))
    return (z, worst) if worst < defect_tol else None


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
             max_descent: int):
    """Coordinate descent from (best_x, best_obj, best_trace); returns the
    best (x, objective, trace), whose objective is never above best_obj.

    The probe at position k of a round moves axis k // 2 by +step (k even)
    or -step (k odd).  Until a probe is accepted the coming probes are
    fixed, so they are evaluated a block at a time and walked in order;
    the probes after an accepted one are dropped and do not count toward
    max_descent.
    """
    dim = map_spec.dim
    state = (step, 0, False)  # (step, k, improved)
    it = 0
    while it < max_descent and state[0] > 1e-17:
        size = min(_PROBE_BLOCK, max_descent - it)
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
                  grid_resolution: float, max_descent: int = 200,
                  refine: bool = True) -> ShadowingResult:
    """Search for an actual orbit eps-tracking the pseudo-orbit.

    Three stages, in this order.  Seeds on a uniform grid of the given
    resolution in the eps-ball around y_0.  If the best seed misses eps,
    `refine` is set and the map has an inverse, the hyperbolic sequence
    refinement, which supplies a witness orbit for horizons where seed
    precision alone cannot reach; a witness within eps is the result.
    Otherwise coordinate descent from the best seed, and the refined
    witness only where it tracks closer than the descent's best orbit.
    The descent only lowers the objective, so running it after a witness
    within eps could not change the verdict.  Failure is reported as a
    resolution-stamped certificate, never a proof.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    y = po.points
    best_x, best_obj, best_trace = _best_seed(map_spec, y, eps,
                                              grid_resolution)
    refined = None
    if best_obj > eps and refine and map_spec.has_inverse:
        refined = _refine_shadow(map_spec, y)
    if refined is not None:
        witness, witness_defect = refined
        trace = map_spec.distance(witness, y)
        achieved = float(np.max(trace))
    if refined is None or not achieved <= eps:
        best_x, best_obj, best_trace = _descend(
            map_spec, y, best_x, best_obj, best_trace, grid_resolution,
            max_descent)
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


def linear_stable_check(map_spec: MapSpec, x, eps: float, N: int,
                        seeds, divergence_threshold: float = 1.0) -> list[LinearSeedReport]:
    """Verify the stable-manifold dichotomy for linear(a, b), |a| > 1 > |b|.

    Seeds with unstable component >= eps must diverge past the threshold
    from the orbit of x; seeds on the stable axis must track it forever.
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
        diverged = max_d > divergence_threshold
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
