"""Hyperbolic periodic points, stable/unstable manifold polylines,
homoclinic intersections, recurrence probes and the homoclinic
accumulation experiment.

Manifolds grow by iterating a fundamental segment of the local
eigendirection, inserting midpoints wherever images stretch past the
segment cap or turn too sharply.  Polylines store wrapped vertices plus a
continuous lift (universal-cover coordinates reconstructed by min-image
continuation), which is what arclengths and straight-line oracles use.
Homoclinic hits are the polylines' crossings, polished where the map is
not affine as orbits from E^u(p) to E^s(p) (`system._orbit_newton`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._util import min_image, row_norms, vector_norms, wrap_unit
from .phase_space import Grid
from .system import _AFFINE, MapSpec, _orbit_newton, evaluate, iterates

__all__ = [
    "HyperbolicPoint", "ManifoldPolyline", "HomoclinicHit",
    "RecurrenceResult", "AccumulationRow", "NoRealEigendirectionError",
    "BasePointError", "SegmentLengthError",
    "find_periodic_points", "grow_manifold", "homoclinic_points",
    "is_recurrent", "accumulation_check",
    "point_to_polyline_distance",
]


class NoRealEigendirectionError(RuntimeError):
    """No real eigendirection on the requested side."""


class BasePointError(ValueError):
    """The accumulation base point is the anchor or lies off W^u."""


class SegmentLengthError(ValueError):
    """Manifold segments too long for the intersection search on a torus."""


@dataclass
class HyperbolicPoint:
    """A periodic point with the eigendata of D(f^period) there.

    `eigenvalues` come in order of decreasing modulus, `eigenvectors` are
    LAPACK's columns for them.  The saddle split is derived once, at
    construction: `unstable` and `stable` hold the first real eigenpair
    with |lambda| > 1 and with |lambda| < 1, as (lambda, unit vector whose
    first entry above 1e-12 in modulus is positive), or None where that
    side has no real eigenvalue.
    """
    point: np.ndarray
    period: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    is_hyperbolic: bool
    residual: float
    unstable: Optional[tuple] = field(init=False)
    stable: Optional[tuple] = field(init=False)

    def __post_init__(self):
        self.unstable = self.stable = None
        for lam, v in zip(self.eigenvalues, self.eigenvectors.T):
            mod = abs(lam.real)
            side = "unstable" if mod > 1.0 else "stable" if mod < 1.0 else None
            if side is None or abs(lam.imag) > 1e-12 or getattr(self, side):
                continue
            v = np.real(v)
            v = v / np.linalg.norm(v)
            if v[np.nonzero(np.abs(v) > 1e-12)[0][0]] < 0:
                v = -v
            setattr(self, side, (float(lam.real), v))


@dataclass
class ManifoldPolyline:
    side: str
    anchor: HyperbolicPoint
    vertices: np.ndarray
    lift: np.ndarray
    arclength: np.ndarray
    eigenvalue: float
    branch: int
    max_seg: float

    @property
    def total_arclength(self) -> float:
        return float(self.arclength[-1])

    @property
    def capped(self) -> int:
        """Segments longer than max_seg: growth stopped refining (parameter
        cap or parameter spacing floor) before they were split."""
        lens = vector_norms(np.diff(self.lift, axis=0))
        return int(np.count_nonzero(lens > self.max_seg))

    def truncated(self, arclength: float) -> "ManifoldPolyline":
        n = int(np.searchsorted(self.arclength, arclength, side="right"))
        n = max(2, n)
        return ManifoldPolyline(self.side, self.anchor, self.vertices[:n],
                                self.lift[:n], self.arclength[:n],
                                self.eigenvalue, self.branch, self.max_seg)


@dataclass
class HomoclinicHit:
    point: np.ndarray
    param_unstable: float
    param_stable: float
    angle: float
    transverse: bool
    distance_from_anchor: float


@dataclass
class RecurrenceResult:
    recurrent: bool
    first_return: Optional[int]
    min_distance: float


@dataclass
class AccumulationRow:
    radius: float
    found: bool
    arclength_used: Optional[float]
    hit: Optional[HomoclinicHit]
    capped: int  # segments over max_seg in the W^u, W^s searched last
    # the least arclength W^u and W^s reach, grown to the largest of the
    # schedule; below it when growth stopped short
    reached: float


# ---------------------------------------------------------------------------
# periodic points
# ---------------------------------------------------------------------------

def _solve2(A: np.ndarray, B: np.ndarray, rcond: float):
    """`np.linalg.pinv(A, rcond) @ B` for a stack of 2x2 matrices A (n, 2,
    2) and right-hand sides B (n, 2, k), vectorised over the stack in place
    of one LAPACK call per matrix.  A row with |det A| > rcond ||A||_F^2
    has s2/s1 > rcond for its singular values (det A = s1 s2 and
    ||A||_F^2 >= s1^2), so there pinv is the full inverse: the adjugate of
    A times B over det A.  Every other row, a non-finite one included,
    goes to pinv.
    """
    a, b, c, d = (A[:, i, j, None] for i in (0, 1) for j in (0, 1))
    u, v = B[:, 0], B[:, 1]
    with np.errstate(all="ignore"):
        det = a * d - b * c
        X = np.stack([(d * u - b * v) / det, (a * v - c * u) / det], axis=1)
        rest = ~(np.abs(det[:, 0]) > rcond * (a * a + b * b + c * c + d * d)[:, 0])
    if rest.any():
        X[rest] = np.linalg.pinv(A[rest], rcond=rcond) @ B[rest]
    return X


def _orbit_jacobian(map_spec: MapSpec, pts: np.ndarray, steps: int):
    """f^steps(pts) and its chain-rule Jacobian, batched."""
    x = np.atleast_2d(pts).astype(float)
    J = np.broadcast_to(np.eye(map_spec.dim), (x.shape[0],) + (map_spec.dim,) * 2).copy()
    for y in iterates(map_spec, x, steps):
        J = map_spec.jac(x) @ J
        x = y
    return x, J


# Newton rounds of the periodic-point solve
_NEWTON_ITER = 40


def find_periodic_points(map_spec: MapSpec, period: int, grid: Grid,
                         tol_fix: float = 1e-10,
                         tol_hyp: float = 1e-6) -> list[HyperbolicPoint]:
    """Newton on f^period(x) - x seeded from every box center, at most
    `_NEWTON_ITER` rounds.

    Converged roots are merged within 10*tol_fix and classified by the
    eigen-decomposition of D(f^period).  Each step is pinv(J, rcond=1e-12)
    applied to the residual, J = D(f^period) - I, so degenerate Jacobians
    take pseudo-inverse steps and curves of neutral fixed points are picked
    up point by point.  On a 2-D map a row with |det J| > 1e-12 ||J||_F^2,
    on which that pinv is the full inverse, takes the closed-form solve of
    `_solve2` instead; the other rows (the neutral lines of the shear, say)
    and maps of any other dimension call np.linalg.pinv.  Rows that
    overflow are dropped.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    x = grid.centers()
    alive = np.ones(x.shape[0], dtype=bool)
    # a row that does not move keeps its x, so it never moves again: each
    # round runs on the rows that moved in the last one
    rows = np.arange(x.shape[0])
    # an overflowed norm is inf: such a row moves, then is dropped as bad
    with np.errstate(over="ignore"):
        for _ in range(_NEWTON_ITER):
            xr = x[rows]
            fp, J = _orbit_jacobian(map_spec, xr, period)
            g = map_spec.delta(xr, fp)
            move = vector_norms(g) > 1e-14
            if not move.any():
                break
            rows, xr, J, g = rows[move], xr[move], J[move], g[move]
            J = J - np.eye(map_spec.dim)
            if map_spec.dim == 2:
                step = _solve2(J, g[..., None], rcond=1e-12)
            else:
                step = np.linalg.pinv(J, rcond=1e-12) @ g[..., None]
            xn = map_spec.wrap(xr - step[..., 0])
            bad = ~np.all(np.isfinite(xn), axis=1) | (vector_norms(xn) > 1e12)
            alive[rows[bad]] = False
            rows = rows[~bad]
            x[rows] = xn[~bad]

        if map_spec.periods is not None:
            # wrap_unit rounds a tiny negative up to 1.0: report the root
            # on the seam as its 0.0 image, which the dedupe and the order
            # below then see
            x[x == 1.0] = 0.0
        fp, J = _orbit_jacobian(map_spec, x, period)
        res = vector_norms(map_spec.delta(x, fp))
    ok = alive & (res <= tol_fix)
    roots, residuals, J = x[ok], res[ok], J[ok]
    # keep only roots inside the window (`contains` skips periodic axes)
    inside = grid.domain.contains(roots)
    roots, residuals, J = roots[inside], residuals[inside], J[inside]

    # deterministic greedy dedupe in lexicographic order: the first root
    # left is kept and every root within 10*tol_fix of it dropped
    order = np.lexsort(tuple(roots[:, a] for a in range(roots.shape[1] - 1, -1, -1))) \
        if roots.size else np.empty(0, dtype=int)
    kept = []
    while order.size:
        kept.append(order[0])
        order = order[map_spec.distance(roots[order], roots[order[0]]) > 10 * tol_fix]

    points = []
    # D(f^period) of each kept root is its row of the last _orbit_jacobian
    for r, rr, Jp in zip(roots[kept], residuals[kept], J[kept]):
        vals, vecs = np.linalg.eig(Jp)
        order2 = np.argsort(-np.abs(vals))
        vals = vals[order2]
        vecs = vecs[:, order2]
        hyper = bool(np.all(np.abs(np.abs(vals) - 1.0) > tol_hyp))
        points.append(HyperbolicPoint(np.asarray(r), period, vals, vecs,
                                      hyper, float(rr)))
    return points


# ---------------------------------------------------------------------------
# manifold growth
# ---------------------------------------------------------------------------

# residual and Newton rounds of the preimage solve
_INVERSE_TOL = 1e-10
_INVERSE_ITER = 60


def _inverse_newton(map_spec: MapSpec, z: np.ndarray) -> np.ndarray:
    """Solve f(w) = z per row by Newton, seeded at z itself.

    Each row stops once its own residual is below `_INVERSE_TOL`, so a row's
    result is the one it gets when solved alone, whatever batch it is in.
    """
    z = np.atleast_2d(z).astype(float)
    w = z.copy()
    rows = np.arange(w.shape[0])
    for _ in range(_INVERSE_ITER):
        wa = w[rows]
        r = map_spec.delta(z[rows], evaluate(map_spec, wa))  # f(w) - z
        live = vector_norms(r) >= _INVERSE_TOL
        if not live.any():
            break
        rows, wa, r = rows[live], wa[live], r[live]
        J = map_spec.jac(wa)
        w[rows] = map_spec.wrap(wa - np.linalg.solve(J, r[..., None])[..., 0])
    return w


def _apply_steps(map_spec: MapSpec, pts: np.ndarray, steps: int,
                 inverse: bool) -> np.ndarray:
    x = np.atleast_2d(pts).astype(float)
    if inverse and not map_spec.has_inverse:
        for _ in range(steps):
            x = _inverse_newton(map_spec, x)
        return x
    for x in iterates(map_spec, x, steps, "inverse" if inverse else "forward"):
        pass
    return x


def _bad_intervals(deltas: np.ndarray, ts: np.ndarray, max_seg: float,
                   turn_max: float) -> np.ndarray:
    """Mask of the parameter intervals [ts[i], ts[i+1]] to bisect.

    `deltas[0]` leads into the image of ts[0] (from the anchor, or along
    the polyline's last segment), `deltas[k]` from the image of ts[k-1]
    to that of ts[k].  An interval is bad if its image is longer than
    max_seg or the chain turns by more than turn_max at either end of it;
    intervals narrower than 1e-12 are never bad.
    """
    lens = vector_norms(deltas)
    bad = lens[1:] > max_seg
    # turn k sits between deltas[k] and deltas[k+1], at the image of ts[k]
    na, nb = lens[:-1], lens[1:]
    tame = (na >= 1e-15) & (nb >= 1e-15)
    cosang = np.einsum("ij,ij->i", deltas[:-1][tame], deltas[1:][tame]) \
        / (na[tame] * nb[tame])
    sharp = np.zeros_like(tame)
    sharp[tame] = np.arccos(np.clip(cosang, -1.0, 1.0)) > turn_max
    bad |= sharp
    bad[:-1] |= sharp[1:]
    return bad & (np.diff(ts) > 1e-12)


# manifold growth: the seed chord starts `_R0` from the anchor, a turn
# above `_TURN_MAX` radians is bisected, and growth stops past
# `_MAX_VERTICES` vertices
_R0 = 1e-6
_TURN_MAX = 0.2
_MAX_VERTICES = 200000


def _chain_arclength(start: float, deltas: np.ndarray) -> np.ndarray:
    """Arclength at the end of each of the chain steps `deltas`, from
    `start`: one-vector norms, so the running sums equal a vertex-by-vertex
    accumulation."""
    return np.cumsum(np.concatenate([[start], row_norms(deltas)]))[1:]


def grow_manifold(map_spec: MapSpec, hp: HyperbolicPoint, side: str,
                  target_arclength: float, max_seg: float,
                  branch: int = +1) -> ManifoldPolyline:
    """Grow one branch of W^s or W^u of a hyperbolic periodic point.

    Continues the fundamental domain [x0, y0] under f^period (unstable) or
    f^{-period} (stable), as Krauskopf and Osinga (J. Comput. Phys. 146,
    1998) do: x0 sits `_R0` along the eigendirection, y0 is its image, and
    the seed chord x0 + t delta(x0, y0) ends on y0 exactly, so every
    generation starts on the previous one's last vertex.  Generation 0
    bisects 9 uniform parameters until consecutive images are closer than
    max_seg and turn less than `_TURN_MAX` radians; each later one starts
    from the last one's final parameters, carried by f^period, and bisects
    on, mapping only its new midpoints from the seed chord.  Each round
    first drops the parameters past the first image at target_arclength,
    and growth stops there.  A generation stops bisecting past 4096
    parameters, and its successors start above that cap unless the
    pruning brings them under it; the segments left longer than max_seg
    are counted in `capped`.  Growth also stops after 300 generations or
    past `_MAX_VERTICES` vertices; the polyline then ends short of
    target_arclength, at its `total_arclength`.
    """
    if side not in ("stable", "unstable"):
        raise ValueError("side must be 'stable' or 'unstable'")
    if not hp.is_hyperbolic:
        raise NoRealEigendirectionError("anchor is not hyperbolic")
    if getattr(hp, side) is None:
        raise NoRealEigendirectionError(f"no real {side} eigendirection")
    lam, v = getattr(hp, side)
    if lam <= 0:
        raise NoRealEigendirectionError(
            "orientation-reversing eigendirections are not supported")
    inverse = side == "stable"
    p = np.asarray(hp.point, dtype=float)
    x0 = map_spec.wrap(p + _R0 * branch * v)[None, :]
    y0 = _apply_steps(map_spec, x0, hp.period, inverse)
    chord = map_spec.delta(x0, y0)

    def images(ts: np.ndarray) -> np.ndarray:
        """f^(gen*period) (f^-(gen*period) on the stable side) of the seed
        chord at ts; t = 1 is y0 bit for bit."""
        out = map_spec.wrap(x0 + ts[:, None] * chord)
        out[ts == 1.0] = y0
        return _apply_steps(map_spec, out, gen * hp.period, inverse) if gen else out

    # one block per generation; each block continues the previous one.  A
    # generation's chain leads in from `tail` at arclength `tail_arc`: the
    # anchor at generation 0, then the vertex before the polyline's last
    # one, the image of t = 0, so the turn into the generation is tested
    vertices = [map_spec.wrap(p.copy())[None, :]]
    lift = [p.copy()[None, :]]
    arc = [np.zeros(1)]
    tail, tail_arc = vertices[0], 0.0
    nvert = 1

    def chain(pts: np.ndarray):
        """The steps from tail through pts, and the arclength at each."""
        deltas = map_spec.delta(np.concatenate([tail, pts[:-1]]), pts)
        return deltas, _chain_arclength(tail_arc, deltas)

    gen = 0
    ts = np.linspace(0.0, 1.0, 9)
    pts = images(ts)
    done = False
    while not done:
        if gen > 0:
            # y0 = f^period(x0), so t = 0 maps to the last generation's t = 1
            pts = np.concatenate([pts[-1:], _apply_steps(map_spec, pts[1:],
                                                         hp.period, inverse)])
        # refine parameters until the image chain is tame; each round maps
        # only its midpoints and inserts them after their interval's start
        for _ in range(60):
            deltas, arcs = chain(pts)
            # a chord is never longer than its arc and bisection never
            # shortens the chain, so no parameter past the first image at
            # the target can give a kept vertex
            keep = 1 + int(np.count_nonzero(arcs < target_arclength))
            ts, pts, deltas = ts[:keep], pts[:keep], deltas[:keep]
            bad = _bad_intervals(deltas, ts, max_seg, _TURN_MAX)
            if not bad.any() or len(ts) > 4096:
                break
            new_ts = 0.5 * (ts[:-1][bad] + ts[1:][bad])
            at = np.flatnonzero(bad) + 1
            ts = np.insert(ts, at, new_ts)
            pts = np.insert(pts, at, images(new_ts), axis=0)
        deltas, arcs = chain(pts)
        first = 1 if gen > 0 else 0  # t=0 is the polyline's last vertex
        kept, d, arcs = pts[first:], deltas[first:], arcs[first:]
        n = int(np.count_nonzero(arcs < target_arclength))
        if n < arcs.size:
            done = True
            n += 1
        vertices.append(kept[:n])
        lift.append(np.cumsum(np.concatenate([lift[-1][-1:], d[:n]]), axis=0)[1:])
        arc.append(arcs[:n])
        # the vertex before the last, which a one-vertex block leaves in
        # the block before
        tail = np.concatenate([vertices[-2][-1:], vertices[-1]])[-2:-1]
        tail_arc = np.concatenate([arc[-2][-1:], arc[-1]])[-2]
        nvert += n
        if nvert > _MAX_VERTICES:
            break
        gen += 1
        if gen > 300:
            break
    return ManifoldPolyline(side, hp, np.concatenate(vertices),
                            np.concatenate(lift), np.concatenate(arc), lam,
                            branch, max_seg)


# ---------------------------------------------------------------------------
# homoclinic intersections
# ---------------------------------------------------------------------------

def _segments(poly: ManifoldPolyline):
    starts = poly.vertices[:-1]
    deltas = np.diff(poly.lift, axis=0)
    arcs = poly.arclength[:-1]
    return starts, deltas, arcs


def _approach(map_spec: MapSpec, hp: HyperbolicPoint, pts: np.ndarray,
              inverse: bool):
    """f^k(pts) (f^-k with `inverse`), k = 1 .. 30 period, and per row the
    first multiple of hp.period there at which they come closest to p."""
    P = hp.period
    orbit = np.stack(list(iterates(map_spec, pts, 30 * P,
                                   "inverse" if inverse else "forward")))
    return orbit, P * (1 + np.argmin(map_spec.distance(orbit[P - 1::P], hp.point),
                                     axis=0))


def _homoclinic_orbits(map_spec: MapSpec, hp: HyperbolicPoint, pts: np.ndarray,
                       max_move: float) -> Optional[np.ndarray]:
    """Polish approximate homoclinic points of p = hp.point as orbits of
    the map (Beyn & Kleinkauf, SIAM J. Numer. Anal. 34, 1997).

    Hit x_0 gives the orbit x_-m .. x_n of its iterates, its ends at the
    closest approach to p (`_approach`), closed by perp(v_u) . delta(p,
    x_-m) = 0 and perp(v_s) . delta(p, x_n) = 0, v_u and v_s those of
    `hp.unstable` and `hp.stable`; hits that share (m, n) are one
    `system._orbit_newton` batch.  A hit that does not converge, or moves
    past max_move, keeps its input.  None for a map that is not 2-D and
    invertible, or an hp without both sides.
    """
    if not map_spec.has_inverse or map_spec.dim != 2 or hp.unstable is None \
            or hp.stable is None:
        return None
    fwd, n = _approach(map_spec, hp, pts, False)
    bwd, m = _approach(map_spec, hp, pts, True)
    ends = (hp.point, *(np.array([-v[1], v[0]]) for _, v in (hp.unstable, hp.stable)))
    out = pts.copy()
    for mi, ni in sorted(set(zip(m.tolist(), n.tolist()))):
        rows = np.flatnonzero((m == mi) & (n == ni))
        z = np.concatenate([bwd[mi - 1::-1, rows], pts[None, rows],
                            fwd[:ni, rows]]).swapaxes(0, 1)
        z, defect = _orbit_newton(map_spec, z, ends)
        x = z[:, mi]
        ok = np.isfinite(defect) & (map_spec.distance(x, pts[rows]) <= max_move)
        out[rows[ok]] = x[ok]
    return out


# smallest crossing angle (radians) of a transverse hit
TRANSVERSALITY_MIN = 1e-3

# Candidate segment pairs tested at once by homoclinic_points; bounds the
# per-block temporaries (a few hundred bytes per pair) for any polyline size.
_PAIR_BLOCK = 1 << 12


def _bucket_codes(starts, deltas, pad, width, shape, base, torus):
    """(3^dim, n) bucket codes of the padded boxes of n segments: one row
    per offset of 0, 1 or 2 buckets per axis from the bucket of the box's
    low corner, and -1 where an offset passes the bucket of its high one."""
    ends = starts + deltas
    first = np.floor((np.minimum(starts, ends) - pad) / width).astype(np.int64)
    last = np.floor((np.maximum(starts, ends) + pad) / width).astype(np.int64)
    n = starts.shape[0]
    codes = np.zeros((1, n), dtype=np.int64)
    valid = np.ones((1, n), dtype=bool)
    for d, size in enumerate(shape):
        k = first[:, d] + np.arange(3)[:, None]
        ok = k <= last[:, d]
        k = k % size if torus else k - base[d]
        codes = (codes[:, None, :] * size + k).reshape(-1, n)
        valid = (valid[:, None, :] & ok).reshape(-1, n)
    codes[~valid] = -1
    return codes


def _candidate_pairs(a_starts, a_deltas, b_starts, b_deltas, max_len: float,
                     torus: bool):
    """Yield blocks (i, j) of segment pairs whose padded boxes share a bucket.

    Each segment's bounding box, taken in lift coordinates from its
    (wrapped) start, is padded and registered in every bucket it touches,
    modulo the unit period on a torus.  The pad covers the 1e-9 parameter
    slack of the crossing test, rounding at bucket faces and at the seam,
    and the error of the crossing solve on near-parallel segments, which
    the denominator floor bounds by 2 max_len min(1, max_len)^2.  Buckets
    are 1/floor(1/max_len) wide on a torus, so that they tile the period,
    and max_len + 2 pad on the plane; either way a padded box (at most
    max_len + 2 pad wide, with max_len < 1/4 on a torus) touches at most 3
    buckets per axis.  Pairs come sorted by i, then j, without repeats;
    each block holds whole A-segments and about _PAIR_BLOCK pairs.
    """
    dim = a_starts.shape[1]
    # every box lies within max_len of its start
    low = np.minimum(a_starts.min(axis=0), b_starts.min(axis=0)) - max_len
    high = np.maximum(a_starts.max(axis=0), b_starts.max(axis=0)) + max_len
    scale = max(1.0, float(np.max(np.abs(low))), float(np.max(np.abs(high))))
    pad = max_len * (2e-9 + 2.0 * min(1.0, max_len) ** 2) + 1e-12 * scale
    if torus:
        ncells = max(1, math.floor(1.0 / max(max_len, 1e-9)))
        width, base, shape = 1.0 / ncells, 0, (ncells,) * dim
    else:
        # the floor keeps bucket codes within int64 at any coordinate scale
        width = max(max_len + 2.0 * pad, 1e-9 * scale)
        base = np.floor((low - pad) / width).astype(np.int64)
        shape = tuple((np.floor((high + pad) / width).astype(np.int64)
                       - base + 1).tolist())
    bucket = (pad, width, shape, base, torus)
    b_code = _bucket_codes(b_starts, b_deltas, *bucket)
    nb = b_code.shape[1]
    b_seg = np.nonzero(b_code >= 0)[1]
    b_code = b_code[b_code >= 0]
    b_order = np.argsort(b_code, kind="stable")
    b_sorted = b_code[b_order]
    b_seg = b_seg[b_order]
    # each used A entry's run of B entries in its bucket, segment by
    # segment: the entries of A-segment s are seg_ptr[s]:seg_ptr[s + 1]
    a_code = _bucket_codes(a_starts, a_deltas, *bucket).T
    used = a_code >= 0
    seg_ptr = np.concatenate(([0], np.cumsum(np.count_nonzero(used, axis=1))))
    a_code = a_code[used]
    first = np.searchsorted(b_sorted, a_code, side="left")
    counts = np.searchsorted(b_sorted, a_code, side="right") - first
    del a_code, used  # a generator keeps its locals while it yields
    # pairs of the A-segments up to each one
    ends = np.concatenate(([0], np.cumsum(counts)))[seg_ptr[1:]]
    start = 0
    while start < ends.size:
        done = ends[start - 1] if start else 0
        stop = max(start + 1,
                   int(np.searchsorted(ends, done + _PAIR_BLOCK, side="right")))
        lo, hi = seg_ptr[start], seg_ptr[stop]
        c = counts[lo:hi]
        total = int(c.sum())
        if total:
            pos = np.repeat(first[lo:hi] - (np.cumsum(c) - c), c) + np.arange(total)
            i = np.repeat(np.repeat(np.arange(start, stop),
                                    np.diff(seg_ptr[start:stop + 1])), c)
            # np.sort, not np.unique: unique would import numpy.ma (~1 MB)
            pair = np.sort(i * nb + b_seg[pos])
            pair = pair[np.concatenate(([True], pair[1:] != pair[:-1]))]
            yield pair // nb, pair % nb
        start = stop


@dataclass
class _Crossings:
    """Segment crossings away from the anchor, one row each, in (i, j)
    order: W^u segment i meets W^s segment j."""
    i: np.ndarray
    j: np.ndarray
    point: np.ndarray
    param_unstable: np.ndarray
    param_stable: np.ndarray
    angle: np.ndarray
    distance_from_anchor: np.ndarray
    key: np.ndarray  # the point rounded to tol_int, the dedupe key


def _crossings(Wu: ManifoldPolyline, Ws: ManifoldPolyline, tol_int: float,
               periods) -> _Crossings:
    """Every crossing of the two polylines outside the anchor's exclusion
    ball, before the tol_int dedupe.  On periodic maps segments are
    intersected against their nearest-image copies.  The crossing kernel
    is planar: polylines of any other dimension raise ValueError."""
    dim = Wu.vertices.shape[1]
    if dim != 2:
        raise ValueError(f"homoclinic crossings need 2-D manifolds, got "
                         f"dimension {dim}")
    a_starts, a_deltas, a_arcs = _segments(Wu)
    b_starts, b_deltas, b_arcs = _segments(Ws)
    a_lens = vector_norms(a_deltas)
    b_lens = vector_norms(b_deltas)
    max_len = max(float(np.max(a_lens)), float(np.max(b_lens)))
    # a quarter of the unit period
    if periods is not None and max_len >= 0.25:
        raise SegmentLengthError("segments too long relative to the "
                                 "period; grow with a smaller max_seg")
    a_mids = a_starts + 0.5 * a_deltas
    b_mids = b_starts + 0.5 * b_deltas
    if periods is not None:
        a_mids = wrap_unit(a_mids)
        b_mids = wrap_unit(b_mids)
    # one packed row per segment and side, so each block gathers once:
    # A = (da, mid, mid - start, start, |da|), B = (db, mid, db / 2, |db|)
    A = np.column_stack([a_deltas, a_mids, a_mids - a_starts, a_starts, a_lens])
    B = np.column_stack([b_deltas, b_mids, 0.5 * b_deltas, b_lens])
    anchor = np.asarray(Wu.anchor.point, dtype=float)
    exclusion = 10.0 * max(tol_int, 1e-9)
    parts = []
    for i, j in _candidate_pairs(a_starts, a_deltas, b_starts, b_deltas,
                                 max_len, periods is not None):
        a, b = A.take(i, axis=0), B.take(j, axis=0)
        da, db = a[:, 0:2], b[:, 0:2]
        denom = da[:, 0] * db[:, 1] - da[:, 1] * db[:, 0]
        # nearest-image shift of the B segment toward the A segment:
        # r is (shifted b_start) - a_start
        r = min_image(b[:, 2:4] - a[:, 2:4], periods) + a[:, 4:6] - b[:, 4:6]
        # rows below the denominator floor are dropped, so their quotients
        # (inf, nan) may say anything
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = (r[:, 0] * db[:, 1] - r[:, 1] * db[:, 0]) / denom
            t = (r[:, 0] * da[:, 1] - r[:, 1] * da[:, 0]) / denom
        keep = np.flatnonzero(
            (np.abs(denom) >= 1e-15 * np.maximum(1.0, a[:, 8] * b[:, 6]))
            & (-1e-9 <= s) & (s <= 1 + 1e-9) & (-1e-9 <= t) & (t <= 1 + 1e-9))
        pts = a[keep, 6:8] + s[keep, None] * da[keep]
        if periods is not None:
            pts = wrap_unit(pts)
        dist = row_norms(min_image(pts - anchor, periods))
        away = dist > exclusion
        keep = keep[away]
        parts.append((i[keep], j[keep], s[keep], t[keep], denom[keep],
                      pts[away], dist[away]))
    i, j, s, t, denom, pts, dist = [np.concatenate(c) for c in zip(*parts)] \
        if parts else [np.zeros(0, dtype=np.int64)] * 2 + [np.zeros(0)] * 3 \
        + [np.zeros((0, 2)), np.zeros(0)]
    na, nb = row_norms(a_deltas[i]), row_norms(b_deltas[j])
    # math.asin, not np.arcsin: the two round differently, and the
    # records keep the math.asin values
    angle = np.asarray([math.asin(min(1.0, x)) for x in
                        (np.abs(denom) / (na * nb)).tolist()], dtype=float)
    return _Crossings(i, j, pts, a_arcs[i] + s * na, b_arcs[j] + t * nb, angle,
                      dist, np.round(pts / max(tol_int, 1e-12)).astype(np.int64))


def _first_come(key: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`rows` (ascending) less each row whose key an earlier one of them
    has: the first-come tol_int dedupe."""
    if rows.size == 0:
        return rows
    k = key[rows]
    order = np.lexsort(k.T)  # stable: equal keys keep their row order
    k = k[order]
    first = np.concatenate(([True], np.any(k[1:] != k[:-1], axis=1)))
    return np.sort(rows[order[first]])


def _hits(cr: _Crossings, rows: np.ndarray) -> list[HomoclinicHit]:
    """The records of crossing rows `rows`, in that order."""
    return [HomoclinicHit(cr.point[k], u, v, angle,
                          angle >= TRANSVERSALITY_MIN, d)
            for k, u, v, angle, d in zip(
                rows.tolist(), cr.param_unstable[rows].tolist(),
                cr.param_stable[rows].tolist(), cr.angle[rows].tolist(),
                cr.distance_from_anchor[rows].tolist())]


def _on_chord_arcs(W: ManifoldPolyline, seg: np.ndarray, x: np.ndarray,
                   periods) -> np.ndarray:
    """Whether each point x lies within (s/2) tan(theta/2) of the line of
    W's segment seg, s its length and theta the larger turn of W at the
    segment's two vertices (zero at W's ends): as far as an arc through
    the two vertices whose tangent turns by theta can stray from their
    chord, with theta the vertex turns' estimate of the arc's."""
    d = np.diff(W.lift, axis=0)
    s = vector_norms(d)
    t = d / s[:, None]
    turn = np.zeros(W.lift.shape[0])
    turn[1:-1] = np.arccos(np.clip(np.sum(t[1:] * t[:-1], axis=1), -1.0, 1.0))
    theta = np.maximum(turn[seg], turn[seg + 1])
    rel = min_image(x - W.vertices[seg], periods)
    off = np.abs(rel[:, 0] * t[seg, 1] - rel[:, 1] * t[seg, 0])
    return off <= 0.5 * s[seg] * np.tan(0.5 * theta)


def _hit_pipeline(cuts: list, tol_int: float, periods,
                  map_spec: Optional[MapSpec] = None) -> list[list]:
    """The transverse hits of each (W^u, W^s) pair in `cuts`, each list
    sorted by anchor distance, then W^u parameter.

    Every pair is a leading truncation of the last one, so one
    `_crossings` pass over the last serves them all: the crossings of a
    shorter pair are the rows on its leading segments, bit for bit.  Each
    pair keeps its rows first come per tol_int key and drops those at an
    angle below `TRANSVERSALITY_MIN`.  With `map_spec` given, one
    `_homoclinic_orbits` call polishes the union of all pairs' rows.  Rows
    polish independently, and every truncation has its polylines'
    max_seg, so the move cap is 4.5 max_seg for them all.  A polished hit
    off the arc of either crossing segment (`_on_chord_arcs`, on each
    pair's own polylines) is another homoclinic point, and the pair keeps
    the raw crossing.  The affine registry maps (`system._AFFINE`) have
    straight manifolds, whose raw crossings are already exact: their hits
    are not polished.
    """
    cr = _crossings(*cuts[-1], tol_int, periods)
    rows_by_cut = []
    for Wu, Ws in cuts:
        rows = _first_come(cr.key, np.flatnonzero(
            (cr.i < Wu.vertices.shape[0] - 1) & (cr.j < Ws.vertices.shape[0] - 1)))
        rows_by_cut.append(rows[cr.angle[rows] >= TRANSVERSALITY_MIN])
    union = np.asarray(sorted(set().union(*(r.tolist() for r in rows_by_cut))),
                       dtype=np.int64)
    polished = None
    if map_spec is not None and map_spec.name not in _AFFINE:
        Wu, Ws = cuts[-1]
        move_cap = 3.0 * max(1.5 * max(Wu.max_seg, Ws.max_seg), 1e-9)
        polished = _homoclinic_orbits(map_spec, Wu.anchor, cr.point[union],
                                      move_cap)
    out = []
    for (Wu, Ws), rows in zip(cuts, rows_by_cut):
        hits = _hits(cr, rows)
        if polished is not None:
            pts = polished[np.searchsorted(union, rows)]
            ok = _on_chord_arcs(Wu, cr.i[rows], pts, periods) \
                & _on_chord_arcs(Ws, cr.j[rows], pts, periods)
            anchor = np.asarray(Wu.anchor.point, dtype=float)
            dists = row_norms(min_image(pts - anchor, periods))
            for hit, pt, dist, keep in zip(hits, pts, dists.tolist(), ok.tolist()):
                if keep:
                    hit.point, hit.distance_from_anchor = pt, dist
        out.append(sorted(hits, key=lambda h: (h.distance_from_anchor,
                                               h.param_unstable)))
    return out


def homoclinic_points(Wu: ManifoldPolyline, Ws: ManifoldPolyline,
                      tol_int: float = 1e-9,
                      map_spec: Optional[MapSpec] = None) -> list[HomoclinicHit]:
    """Transverse intersections of two planar polylines, anchor excluded,
    sorted by anchor distance.

    Segments are registered in the buckets their padded bounding boxes
    touch, and the pairs sharing a bucket are tested in array blocks
    (`_crossings`); crossings whose points round to the same tol_int key
    are kept first come, in (W^u, W^s) segment order, and those at an
    angle below `TRANSVERSALITY_MIN` are dropped.  With `map_spec` given,
    invertible and not affine, each hit is Newton-polished against the
    dynamics, each move capped at 4.5 max_seg, so the definitional
    membership test (forward and backward convergence to the anchor
    orbit) holds to hyperbolic accuracy.  This is the one-truncation case
    of the pipeline `accumulation_check` runs.  Polylines that are not 2-D
    raise ValueError.
    """
    if Wu.side != "unstable" or Ws.side != "stable":
        raise ValueError("pass the unstable polyline first, the stable second")
    anchor_gap = float(np.linalg.norm(np.asarray(Wu.anchor.point) -
                                      np.asarray(Ws.anchor.point)))
    if anchor_gap > 1e-8:
        raise ValueError("polylines must share the same anchor")
    periods = map_spec.periods if map_spec is not None else None
    return _hit_pipeline([(Wu, Ws)], tol_int, periods, map_spec)[0]


# ---------------------------------------------------------------------------
# recurrence
# ---------------------------------------------------------------------------

def is_recurrent(map_spec: MapSpec, q, tol_rec: float, N: int) -> RecurrenceResult:
    """First-return probe: does the orbit re-enter the tol_rec ball of q?"""
    q = np.asarray(q, dtype=float)
    best = math.inf
    for i, x in enumerate(iterates(map_spec, q, N), 1):
        d = float(map_spec.distance(x, q))
        if d < best:
            best = d
        if d < tol_rec:
            return RecurrenceResult(True, i, best)
    return RecurrenceResult(False, None, best)


def point_to_polyline_distance(map_spec: MapSpec, q, poly: ManifoldPolyline) -> float:
    q = np.asarray(q, dtype=float)
    starts = poly.vertices[:-1]
    deltas = np.diff(poly.lift, axis=0)
    rel = map_spec.delta(starts, np.broadcast_to(q, starts.shape))
    lens2 = np.sum(deltas * deltas, axis=1)
    lens2[lens2 == 0] = 1.0
    t = np.clip(np.sum(rel * deltas, axis=1) / lens2, 0.0, 1.0)
    nearest = starts + t[:, None] * deltas
    d = map_spec.distance(nearest, np.broadcast_to(q, starts.shape))
    return float(np.min(d))


TOL_ON_WU = 1e-5  # largest distance of a base point from the W^u polyline


def accumulation_check(map_spec: MapSpec, hp: HyperbolicPoint, q_on_Wu,
                       radii, arclength_schedule, max_seg: float = 0.01,
                       tol_int: float = 1e-9) -> list[AccumulationRow]:
    """Search for homoclinic hits in shrinking balls around a point of W^u.

    For each radius, manifolds are grown through the arclength schedule
    until a transverse hit lands inside the ball; exhaustion of the
    schedule is reported as not found.  The hits of every truncation are
    those `homoclinic_points` finds on it: one pipeline makes one crossing
    pass over the longest truncation and one polish over the hits of all
    truncations, each move capped at 4.5 max_seg.
    """
    q = np.asarray(q_on_Wu, dtype=float)
    if float(map_spec.distance(q, hp.point)) < 1e-9:
        raise BasePointError("q must differ from the anchor")
    schedule = sorted(float(L) for L in arclength_schedule)
    Lmax = schedule[-1]
    Wu_full = grow_manifold(map_spec, hp, "unstable", Lmax, max_seg)
    if point_to_polyline_distance(map_spec, q, Wu_full) > TOL_ON_WU:
        raise BasePointError("q does not lie on the unstable polyline")
    Ws_full = grow_manifold(map_spec, hp, "stable", Lmax, max_seg)

    cuts = [(Wu_full.truncated(L), Ws_full.truncated(L)) for L in schedule]
    hits_by_L = dict(zip(schedule, _hit_pipeline(cuts, tol_int,
                                                  map_spec.periods, map_spec)))
    dists_by_L = {L: map_spec.distance(np.reshape(
        [h.point for h in hits], (-1, map_spec.dim)), q)
        for L, hits in hits_by_L.items()}
    capped_by_L = {L: Wu.capped + Ws.capped
                   for L, (Wu, Ws) in zip(schedule, cuts)}
    reached = min(Wu_full.total_arclength, Ws_full.total_arclength)
    rows = []
    for r in sorted((float(r) for r in radii), reverse=True):
        found = None
        used = None
        for L in schedule:
            close = np.flatnonzero(dists_by_L[L] <= r)
            if close.size:
                found = hits_by_L[L][close[0]]
                used = L
                break
        rows.append(AccumulationRow(r, found is not None, used, found,
                                    capped_by_L[Lmax if used is None else used],
                                    reached))
    return rows
