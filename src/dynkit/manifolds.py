"""Hyperbolic periodic points, stable/unstable manifold polylines,
homoclinic intersections, recurrence probes and the homoclinic
accumulation experiment.

Manifolds grow by iterating a fundamental segment of the local
eigendirection, inserting midpoints wherever images stretch past the
segment cap or turn too sharply.  Polylines store wrapped vertices plus a
continuous lift (universal-cover coordinates reconstructed by min-image
continuation), which is what arclengths and straight-line oracles use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import min_image, row_norms, wrap_unit
from .phase_space import Grid
from .system import MapSpec, evaluate, iterates

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
    point: np.ndarray
    period: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    is_hyperbolic: bool
    residual: float


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
        lens = np.linalg.norm(np.diff(self.lift, axis=0), axis=1)
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


# ---------------------------------------------------------------------------
# periodic points
# ---------------------------------------------------------------------------

def _solve2(A: np.ndarray, B: np.ndarray, rcond: Optional[float] = None):
    """A^-1 B for a stack of 2x2 matrices A (n, 2, 2) and right-hand sides
    B (n, 2, k): the adjugate of A times B over det A, vectorised over the
    stack in place of one LAPACK call per matrix.

    Without `rcond` it stands in for `np.linalg.solve(A, B)`; a singular or
    overflowed row comes out inf or nan, without a warning.  With `rcond`
    it stands in for `np.linalg.pinv(A, rcond) @ B`: a row with
    |det A| > rcond ||A||_F^2 has s2/s1 > rcond for its singular values
    (det A = s1 s2 and ||A||_F^2 >= s1^2), so there pinv is the full
    inverse; every other row, a non-finite one included, goes to pinv.
    """
    a, b, c, d = (A[:, i, j, None] for i in (0, 1) for j in (0, 1))
    u, v = B[:, 0], B[:, 1]
    with np.errstate(all="ignore"):
        det = a * d - b * c
        X = np.stack([(d * u - b * v) / det, (a * v - c * u) / det], axis=1)
        if rcond is None:
            return X
        rest = ~(np.abs(det[:, 0]) > rcond * (a * a + b * b + c * c + d * d)[:, 0])
    if rest.any():
        X[rest] = np.linalg.pinv(A[rest], rcond=rcond) @ B[rest]
    return X


def _orbit_jacobian(map_spec: MapSpec, pts: np.ndarray, steps: int,
                    inverse: bool = False):
    """f^steps(pts) (f^-steps with `inverse`) and its chain-rule Jacobian,
    batched.  Backward steps use D(f^-1)(y) = Df(f^-1(y))^-1."""
    x = np.atleast_2d(pts).astype(float)
    J = np.broadcast_to(np.eye(map_spec.dim), (x.shape[0],) + (map_spec.dim,) * 2).copy()
    for y in iterates(map_spec, x, steps, "inverse" if inverse else "forward"):
        if not inverse:
            J = map_spec.jac(x) @ J
        elif map_spec.dim == 2:
            J = _solve2(map_spec.jac(y), J)
        else:
            J = np.linalg.solve(map_spec.jac(y), J)
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
            move = np.linalg.norm(g, axis=1) > 1e-14
            if not move.any():
                break
            rows, xr, J, g = rows[move], xr[move], J[move], g[move]
            J = J - np.eye(map_spec.dim)
            if map_spec.dim == 2:
                step = _solve2(J, g[..., None], rcond=1e-12)
            else:
                step = np.linalg.pinv(J, rcond=1e-12) @ g[..., None]
            xn = map_spec.wrap(xr - step[..., 0])
            bad = ~np.all(np.isfinite(xn), axis=1) | (np.linalg.norm(xn, axis=1) > 1e12)
            alive[rows[bad]] = False
            rows = rows[~bad]
            x[rows] = xn[~bad]

        fp, J = _orbit_jacobian(map_spec, x, period)
        res = np.linalg.norm(map_spec.delta(x, fp), axis=1)
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
        live = np.linalg.norm(r, axis=1) >= _INVERSE_TOL
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


def _real_eigenpair(hp: HyperbolicPoint, side: str):
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


def _bad_intervals(deltas: np.ndarray, ts: np.ndarray, max_seg: float,
                   turn_max: float) -> np.ndarray:
    """Mask of the parameter intervals [ts[i], ts[i+1]] to bisect.

    `deltas[0]` leads from the polyline's last vertex to the image of
    ts[0], `deltas[k]` from the image of ts[k-1] to that of ts[k].  An
    interval is bad if its image is longer than max_seg or the chain
    turns by more than turn_max at either end of it; intervals narrower
    than 1e-12 are never bad.
    """
    lens = np.linalg.norm(deltas, axis=1)
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


def grow_manifold(map_spec: MapSpec, hp: HyperbolicPoint, side: str,
                  target_arclength: float, max_seg: float,
                  branch: int = +1) -> ManifoldPolyline:
    """Grow one branch of W^s or W^u of a hyperbolic periodic point.

    Iterates a fundamental segment seeded `_R0` along the eigendirection
    under f^period (unstable) or f^{-period} (stable), bisecting parameters
    until consecutive images are closer than max_seg and turn less than
    `_TURN_MAX` radians.  Growth stops at target_arclength.
    """
    if side not in ("stable", "unstable"):
        raise ValueError("side must be 'stable' or 'unstable'")
    if not hp.is_hyperbolic:
        raise NoRealEigendirectionError("anchor is not hyperbolic")
    lam, v = _real_eigenpair(hp, side)
    if lam <= 0:
        raise NoRealEigendirectionError(
            "orientation-reversing eigendirections are not supported")
    stretch = lam if side == "unstable" else 1.0 / lam
    inverse = side == "stable"
    p = np.asarray(hp.point, dtype=float)
    direction = branch * v

    def seed_chord(ts: np.ndarray) -> np.ndarray:
        radii = _R0 * (1.0 + ts * (stretch - 1.0))
        return map_spec.wrap(p[None, :] + radii[:, None] * direction[None, :])

    # the previous generation's final parameters and their images: f^period
    # carries those forward, and only parameters new to this generation
    # are iterated from the seed chord
    prev_ts = prev_pts = None

    def images(ts: np.ndarray) -> np.ndarray:
        """f^(gen*period) (f^-(gen*period) on the stable side) of the seed
        chord at ts.  Every ts is dyadic, so the carry lookup is exact."""
        if gen == 0:
            return seed_chord(ts)
        at = np.minimum(np.searchsorted(prev_ts, ts), prev_ts.size - 1)
        carried = prev_ts[at] == ts
        out = np.empty((ts.size, map_spec.dim))
        if carried.any():
            out[carried] = _apply_steps(map_spec, prev_pts[at[carried]],
                                        hp.period, inverse)
        if not carried.all():
            out[~carried] = _apply_steps(map_spec, seed_chord(ts[~carried]),
                                         gen * hp.period, inverse)
        return out

    # one block per generation; each block continues the previous one
    vertices = [map_spec.wrap(p.copy())[None, :]]
    lift = [p.copy()[None, :]]
    arc = [np.zeros(1)]
    nvert = 1

    gen = 0
    done = False
    while not done:
        ts = np.linspace(0.0, 1.0, 9)
        pts = images(ts)
        # refine parameters until the image chain is tame; each round maps
        # only its midpoints and inserts them after their interval's start
        for _ in range(60):
            chain = np.concatenate([vertices[-1][-1:], pts], axis=0)
            bad = _bad_intervals(map_spec.delta(chain[:-1], chain[1:]), ts,
                                 max_seg, _TURN_MAX)
            if not bad.any() or len(ts) > 4096:
                break
            new_ts = 0.5 * (ts[:-1][bad] + ts[1:][bad])
            at = np.flatnonzero(bad) + 1
            ts = np.insert(ts, at, new_ts)
            pts = np.insert(pts, at, images(new_ts), axis=0)
        prev_ts, prev_pts = ts, pts
        if gen > 0:
            pts = pts[1:]  # t=0 repeats the previous generation's end
        d = map_spec.delta(np.concatenate([vertices[-1][-1:], pts[:-1]]), pts)
        # one-vector norms, so the running sums equal a vertex-by-vertex
        # accumulation
        steps = row_norms(d)
        arcs = np.cumsum(np.concatenate([arc[-1][-1:], steps]))[1:]
        n = int(np.count_nonzero(arcs < target_arclength))
        if n < arcs.size:
            done = True
            n += 1
        vertices.append(pts[:n])
        lift.append(np.cumsum(np.concatenate([lift[-1][-1:], d[:n]]), axis=0)[1:])
        arc.append(arcs[:n])
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


def _left_eigvecs(hp: HyperbolicPoint):
    """Rows dual to the eigenvector columns (left eigenvectors)."""
    V = np.real(hp.eigenvectors)
    W = np.linalg.inv(V)
    return W  # W[i] . V[:, j] = delta_ij


# residual at which a polished homoclinic point has converged
_POLISH_TOL = 1e-12


def _polish_hits(map_spec: MapSpec, hp: HyperbolicPoint, pts: np.ndarray,
                 max_move: float) -> Optional[np.ndarray]:
    """Newton-polish approximate homoclinic points against the dynamics.

    Solves, per point, for the zero of (unstable coordinate of f^K(x) - p,
    stable coordinate of f^{-K}(x) - p); K is sized so the hyperbolic
    amplification stays within double range.  The Jacobian is the chain
    rule along both orbits: a finite-difference step would be amplified
    by the same factor and wrap around the torus.  Returns the polished
    batch with unconverged or runaway rows left at their inputs.
    """
    if not map_spec.has_inverse or map_spec.dim != 2:
        return None
    lam_u = float(np.max(np.abs(hp.eigenvalues)))
    if lam_u <= 1.0:
        return None
    K = int(min(30, max(5, math.ceil(math.log(1e10) / math.log(lam_u)))))
    steps = K * hp.period
    wu, ws = _left_eigvecs(hp)
    p = hp.point
    x0 = np.asarray(pts, dtype=float)
    x = x0.copy()
    active = np.ones(x.shape[0], dtype=bool)
    for _ in range(40):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        xa = x[idx]
        fK, Jf = _orbit_jacobian(map_spec, xa, steps)
        bK, Jb = _orbit_jacobian(map_spec, xa, steps, inverse=True)
        G = np.stack([map_spec.delta(p, fK) @ wu,
                      map_spec.delta(p, bK) @ ws], axis=-1)
        conv = np.max(np.abs(G), axis=1) < _POLISH_TOL
        J = np.stack([wu @ Jf, ws @ Jb], axis=1)
        ok = np.abs(np.linalg.det(J)) > 1e-30
        step = np.zeros_like(xa)
        step[ok] = np.linalg.solve(J[ok], G[ok][..., None])[..., 0]
        cand = map_spec.wrap(xa - step)
        runaway = (~np.all(np.isfinite(cand), axis=1)) | \
            (map_spec.distance(cand, x0[idx]) > max_move) | ~ok
        move = ~conv & ~runaway
        x[idx[move]] = cand[move]
        # hyperbolic amplification floors G at fp noise; stop on tiny steps
        active[idx] = move & (np.linalg.norm(step, axis=1) >= 1e-13)
    return x


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


def _max_len(Wu: ManifoldPolyline, Ws: ManifoldPolyline) -> float:
    return max(float(np.max(np.linalg.norm(np.diff(poly.lift, axis=0), axis=1)))
               for poly in (Wu, Ws))


def _move_cap(Wu: ManifoldPolyline, Ws: ManifoldPolyline) -> float:
    """Largest move the polish may make, 4.5 max_len; it does not depend on
    the bucket width of the crossing search."""
    return 3.0 * max(1.5 * _max_len(Wu, Ws), 1e-9)


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
    a_lens = np.linalg.norm(a_deltas, axis=1)
    b_lens = np.linalg.norm(b_deltas, axis=1)
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


def _polish(map_spec: MapSpec, hp: HyperbolicPoint, hits: list,
            max_move: float) -> None:
    """Newton-polish the points of `hits` in place (`_polish_hits`) and
    update their distances from the anchor."""
    if not hits or not map_spec.has_inverse:
        return
    polished = _polish_hits(map_spec, hp, np.asarray([h.point for h in hits]),
                            max_move)
    if polished is None:
        return
    anchor = np.asarray(hp.point, dtype=float)
    dists = row_norms(min_image(polished - anchor, map_spec.periods))
    for hit, pt, dist in zip(hits, polished, dists.tolist()):
        hit.point = pt
        hit.distance_from_anchor = dist


def _sort_hits(hits: list) -> list:
    return sorted(hits, key=lambda h: (h.distance_from_anchor, h.param_unstable))


def _raw_hits(Wu: ManifoldPolyline, Ws: ManifoldPolyline, tol_int: float,
              periods) -> tuple[list, list]:
    """(hits, tangencies) of the two polylines before any polish, each
    sorted by anchor distance: the crossings of `_crossings` kept first
    come per tol_int key, split at `TRANSVERSALITY_MIN`."""
    cr = _crossings(Wu, Ws, tol_int, periods)
    found = _hits(cr, _first_come(cr.key, np.arange(cr.i.size)))
    return (_sort_hits([h for h in found if h.transverse]),
            _sort_hits([h for h in found if not h.transverse]))


def homoclinic_points(Wu: ManifoldPolyline, Ws: ManifoldPolyline,
                      tol_int: float = 1e-9,
                      map_spec: Optional[MapSpec] = None) -> list[HomoclinicHit]:
    """Transverse intersections of two planar polylines, anchor excluded.

    Segments are registered in the buckets their padded bounding boxes
    touch, and the pairs sharing a bucket are tested in array blocks
    (`_crossings`); crossings whose points round to the same tol_int key
    are kept first come, in (W^u, W^s) segment order, and those at an
    angle below `TRANSVERSALITY_MIN` are dropped (`_raw_hits`).  With
    `map_spec` given and invertible, each hit is Newton-polished against
    the dynamics so the definitional membership test (forward and
    backward convergence to the anchor orbit) holds to hyperbolic
    accuracy.  Polylines that are not 2-D raise ValueError.
    """
    if Wu.side != "unstable" or Ws.side != "stable":
        raise ValueError("pass the unstable polyline first, the stable second")
    anchor_gap = float(np.linalg.norm(np.asarray(Wu.anchor.point) -
                                      np.asarray(Ws.anchor.point)))
    if anchor_gap > 1e-8:
        raise ValueError("polylines must share the same anchor")
    periods = map_spec.periods if map_spec is not None else None
    hits, _ = _raw_hits(Wu, Ws, tol_int, periods)
    if map_spec is not None:
        _polish(map_spec, Wu.anchor, hits, _move_cap(Wu, Ws))
    return _sort_hits(hits)


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
    d = np.linalg.norm(map_spec.delta(nearest, np.broadcast_to(q, starts.shape)),
                       axis=1)
    return float(np.min(d))


TOL_ON_WU = 1e-5  # largest distance of a base point from the W^u polyline


def accumulation_check(map_spec: MapSpec, hp: HyperbolicPoint, q_on_Wu,
                       radii, arclength_schedule, max_seg: float = 0.01,
                       tol_int: float = 1e-9) -> list[AccumulationRow]:
    """Search for homoclinic hits in shrinking balls around a point of W^u.

    For each radius, manifolds are grown through the arclength schedule
    until a transverse hit lands inside the ball; exhaustion of the
    schedule is reported as not found.  The hits of every truncation are
    those `homoclinic_points` finds on it, from one crossing pass over the
    longest truncation and one polish per distinct move cap.
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
    # one crossing pass over the longest truncation: the crossings of a
    # shorter one are the rows on its leading segments, bit for bit
    cr = _crossings(*cuts[-1], tol_int, map_spec.periods)
    rows_by_L, caps = [], []
    for Wu, Ws in cuts:
        rows = _first_come(cr.key, np.flatnonzero(
            (cr.i < Wu.vertices.shape[0] - 1) & (cr.j < Ws.vertices.shape[0] - 1)))
        rows_by_L.append(rows[cr.angle[rows] >= TRANSVERSALITY_MIN])
        caps.append(_move_cap(Wu, Ws))
    # rows polish independently, so one polish per distinct move cap serves
    # every truncation with that cap
    polished = {}
    for cap in dict.fromkeys(caps):
        union = sorted(set().union(*(rows.tolist() for rows, c in
                                     zip(rows_by_L, caps) if c == cap)))
        hits = dict(zip(union, _hits(cr, np.asarray(union, dtype=np.int64))))
        _polish(map_spec, hp, list(hits.values()), cap)
        polished[cap] = hits
    hits_by_L = {}
    dists_by_L = {}
    capped_by_L = {}
    for L, (Wu, Ws), rows, cap in zip(schedule, cuts, rows_by_L, caps):
        hits = _sort_hits([polished[cap][k] for k in rows.tolist()])
        hits_by_L[L] = hits
        dists_by_L[L] = map_spec.distance(
            np.reshape([h.point for h in hits], (-1, map_spec.dim)), q)
        capped_by_L[L] = Wu.capped + Ws.capped
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
                                    capped_by_L[Lmax if used is None else used]))
    return rows
