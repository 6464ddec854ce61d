"""Hyperbolic periodic points, stable/unstable manifold polylines,
homoclinic intersections, omega-limit clouds and the homoclinic
accumulation experiment.

Manifolds grow by iterating a fundamental segment of the local
eigendirection, inserting midpoints wherever images stretch past the
segment cap or turn too sharply.  Polylines store wrapped vertices plus a
continuous lift (universal-cover coordinates reconstructed by min-image
continuation), which is what arclengths and straight-line oracles use.
"""

from __future__ import annotations

import itertools
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
    "omega_limit_cloud", "is_recurrent", "accumulation_check",
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

def _orbit_jacobian(map_spec: MapSpec, pts: np.ndarray, steps: int,
                    inverse: bool = False):
    """f^steps(pts) (f^-steps with `inverse`) and its chain-rule Jacobian,
    batched.  Backward steps use D(f^-1)(y) = Df(f^-1(y))^-1."""
    x = np.atleast_2d(pts).astype(float)
    J = np.broadcast_to(np.eye(map_spec.dim), (x.shape[0],) + (map_spec.dim,) * 2).copy()
    for y in iterates(map_spec, x, steps, "inverse" if inverse else "forward"):
        if inverse:
            J = np.linalg.solve(map_spec.jac(y), J)
        else:
            J = map_spec.jac(x) @ J
        x = y
    return x, J


def find_periodic_points(map_spec: MapSpec, period: int, grid: Grid,
                         tol_fix: float = 1e-10, tol_hyp: float = 1e-6,
                         max_iter: int = 40) -> list[HyperbolicPoint]:
    """Newton on f^period(x) - x seeded from every box center.

    Converged roots are merged within 10*tol_fix and classified by the
    eigen-decomposition of D(f^period).  Degenerate Jacobians fall back to
    pseudo-inverse steps, so curves of neutral fixed points are picked up
    point by point.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    x = grid.centers()
    alive = np.ones(x.shape[0], dtype=bool)
    # a row that does not move keeps its x, so it never moves again: each
    # round runs on the rows that moved in the last one
    rows = np.arange(x.shape[0])
    for _ in range(max_iter):
        xr = x[rows]
        fp, J = _orbit_jacobian(map_spec, xr, period)
        g = map_spec.delta(xr, fp)
        move = np.linalg.norm(g, axis=1) > 1e-14
        if not move.any():
            break
        rows, xr, J, g = rows[move], xr[move], J[move], g[move]
        J = J - np.eye(map_spec.dim)
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
    # keep only roots inside the window
    inside = grid.domain.contains(grid.domain.wrap(roots)) if roots.size else \
        np.zeros(0, dtype=bool)
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

def _inverse_newton(map_spec: MapSpec, z: np.ndarray, tol: float = 1e-10,
                    max_iter: int = 60) -> np.ndarray:
    """Solve f(w) = z per row by Newton, seeded at z itself.

    Each row stops once its own residual is below `tol`, so a row's
    result is the one it gets when solved alone, whatever batch it is in.
    """
    z = np.atleast_2d(z).astype(float)
    w = z.copy()
    rows = np.arange(w.shape[0])
    for _ in range(max_iter):
        wa = w[rows]
        r = map_spec.delta(z[rows], evaluate(map_spec, wa))  # f(w) - z
        live = np.linalg.norm(r, axis=1) >= tol
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


def grow_manifold(map_spec: MapSpec, hp: HyperbolicPoint, side: str,
                  target_arclength: float, max_seg: float,
                  turn_max: float = 0.2, r0_scale: float = 1e-6, branch: int = +1,
                  max_vertices: int = 200000) -> ManifoldPolyline:
    """Grow one branch of W^s or W^u of a hyperbolic periodic point.

    Iterates a fundamental segment seeded r0 along the eigendirection
    under f^period (unstable) or f^{-period} (stable), bisecting parameters
    until consecutive images are closer than max_seg and turn less than
    turn_max radians.  Growth stops at target_arclength.
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
    r0 = r0_scale  # torus periods are 1.0
    p = np.asarray(hp.point, dtype=float)
    direction = branch * v

    def seed_chord(ts: np.ndarray) -> np.ndarray:
        radii = r0 * (1.0 + ts * (stretch - 1.0))
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
                                 max_seg, turn_max)
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
        if nvert > max_vertices:
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


def _polish_hits(map_spec: MapSpec, hp: HyperbolicPoint, pts: np.ndarray,
                 max_move: float, tol: float = 1e-12) -> Optional[np.ndarray]:
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
        conv = np.max(np.abs(G), axis=1) < tol
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


# Candidate segment pairs tested at once by homoclinic_points; bounds the
# per-block temporaries (a few hundred bytes per pair) for any polyline size.
_PAIR_BLOCK = 1 << 12


def _candidate_pairs(a_keys: np.ndarray, b_keys: np.ndarray,
                     ncells: Optional[np.ndarray]):
    """Yield blocks (i, j) of segment pairs whose cells are neighbours.

    A-segment i is paired with every B-segment j whose key lies in one of
    the 3^dim cells around key i (wrapped modulo `ncells` on a torus).
    Pairs come sorted by i, then j, without repeats; each block holds
    whole A-segments and about _PAIR_BLOCK pairs.
    """
    dim = a_keys.shape[1]
    offsets = np.asarray(list(np.ndindex(*(3,) * dim)), dtype=np.int64) - 1
    # every key stored or looked up lies in [lo, hi]: one integer per cell
    lo = np.minimum(a_keys.min(axis=0) - 1, b_keys.min(axis=0))
    hi = np.maximum(a_keys.max(axis=0) + 1, b_keys.max(axis=0))
    if ncells is not None:
        lo, hi = np.minimum(lo, 0), np.maximum(hi, ncells - 1)
    shape = tuple(hi - lo + 1)

    def code(keys):
        return np.ravel_multi_index(tuple((keys - lo).T), shape)

    b_code = code(b_keys)
    b_order = np.argsort(b_code, kind="stable")
    b_sorted = b_code[b_order]
    first = np.empty((a_keys.shape[0], offsets.shape[0]), dtype=np.int64)
    counts = np.empty_like(first)
    for o, off in enumerate(offsets):
        near = a_keys + off
        if ncells is not None:
            near = np.mod(near, ncells)
        near = code(near)
        first[:, o] = np.searchsorted(b_sorted, near, side="left")
        counts[:, o] = np.searchsorted(b_sorted, near, side="right") - first[:, o]
    per_a = counts.sum(axis=1)
    ends = np.cumsum(per_a)
    nb = b_keys.shape[0]
    start = 0
    while start < a_keys.shape[0]:
        done = ends[start - 1] if start else 0
        stop = max(start + 1,
                   int(np.searchsorted(ends, done + _PAIR_BLOCK, side="right")))
        c = counts[start:stop].ravel()
        total = int(c.sum())
        if total:
            pos = np.repeat(first[start:stop].ravel() - (np.cumsum(c) - c), c) \
                + np.arange(total)
            i = np.repeat(np.arange(start, stop), per_a[start:stop])
            # np.sort, not np.unique: unique would import numpy.ma (~1 MB)
            pair = np.sort(i * nb + b_order[pos])
            pair = pair[np.concatenate(([True], pair[1:] != pair[:-1]))]
            yield pair // nb, pair % nb
        start = stop


def homoclinic_points(Wu: ManifoldPolyline, Ws: ManifoldPolyline,
                      tol_int: float = 1e-9, transversality_min: float = 1e-3,
                      map_spec: Optional[MapSpec] = None, polish: bool = True,
                      return_tangencies: bool = False):
    """Transverse intersections of the two polylines, anchor excluded.

    Segments are bucketed by the cell of their wrapped midpoint; each
    W^u segment is tested against the W^s segments in the neighbouring
    cells, in array blocks.  On periodic maps segments are intersected
    against their nearest-image copies.  With `map_spec` given and
    invertible, each raw hit is Newton-polished against the dynamics so
    the definitional membership test (forward and backward convergence to
    the anchor orbit) holds to hyperbolic accuracy.  Near-tangential
    crossings (angle below the transversality threshold) are reported
    separately.
    """
    if Wu.side != "unstable" or Ws.side != "stable":
        raise ValueError("pass the unstable polyline first, the stable second")
    anchor_gap = float(np.linalg.norm(np.asarray(Wu.anchor.point) -
                                      np.asarray(Ws.anchor.point)))
    if anchor_gap > 1e-8:
        raise ValueError("polylines must share the same anchor")
    periods = map_spec.periods if map_spec is not None else None
    exclusion = 10.0 * max(tol_int, 1e-9)

    a_starts, a_deltas, a_arcs = _segments(Wu)
    b_starts, b_deltas, b_arcs = _segments(Ws)
    a_lens = np.linalg.norm(a_deltas, axis=1)
    b_lens = np.linalg.norm(b_deltas, axis=1)

    # cells at least 1.5 segment lengths wide, so crossing segments have
    # midpoints in neighbouring cells
    dim = a_starts.shape[1]
    max_len = max(float(np.max(a_lens)), float(np.max(b_lens)))
    cell = max(1.5 * max_len, 1e-9)
    ncells = None
    a_mids = a_starts + 0.5 * a_deltas
    b_mids = b_starts + 0.5 * b_deltas
    if periods is not None:
        # a quarter of the unit period
        if max_len >= 0.25:
            raise SegmentLengthError("segments too long relative to the "
                                     "period; grow with a smaller max_seg")
        ncells = np.full(dim, max(1, math.floor(1.0 / cell)), dtype=np.int64)
        cellw = 1.0 / ncells
        a_mids = wrap_unit(a_mids)
        b_mids = wrap_unit(b_mids)
    else:
        cellw = np.full(dim, cell)

    anchor = np.asarray(Wu.anchor.point, dtype=float)
    hits: list[HomoclinicHit] = []
    tangencies: list[HomoclinicHit] = []
    seen: set[tuple] = set()
    a_keys = np.floor(a_mids / cellw).astype(np.int64)
    b_keys = np.floor(b_mids / cellw).astype(np.int64)
    if ncells is not None:
        # the wrap rounds a tiny negative coordinate up to 1.0 itself
        a_keys %= ncells
        b_keys %= ncells
    for i, j in _candidate_pairs(a_keys, b_keys, ncells):
        da, db = a_deltas[i], b_deltas[j]
        denom = da[:, 0] * db[:, 1] - da[:, 1] * db[:, 0]
        keep = np.abs(denom) >= 1e-15 * np.maximum(1.0, a_lens[i] * b_lens[j])
        i, j, da, db, denom = i[keep], j[keep], da[keep], db[keep], denom[keep]
        # nearest-image shift of the B segment toward the A segment:
        # r is (shifted b_start) - a_start
        r = min_image(b_mids[j] - a_mids[i], periods) \
            + (a_mids[i] - a_starts[i]) - 0.5 * db
        s = (r[:, 0] * db[:, 1] - r[:, 1] * db[:, 0]) / denom
        t = (r[:, 0] * da[:, 1] - r[:, 1] * da[:, 0]) / denom
        keep = (-1e-9 <= s) & (s <= 1 + 1e-9) & (-1e-9 <= t) & (t <= 1 + 1e-9)
        i, j, da, db, denom, s, t = (i[keep], j[keep], da[keep], db[keep],
                                     denom[keep], s[keep], t[keep])
        pts = a_starts[i] + s[:, None] * da
        if periods is not None:
            pts = wrap_unit(pts)
        keys = np.round(pts / max(tol_int, 1e-12)).astype(np.int64).tolist()
        dist_anchor = row_norms(min_image(pts - anchor, periods))
        na, nb = row_norms(da), row_norms(db)
        # first come first kept, in (i, j) order.  The few crossings left
        # are finished one by one: math.asin rounds differently from
        # np.arcsin, and the records keep the math.asin values
        for k in np.flatnonzero(dist_anchor > exclusion).tolist():
            keyp = tuple(keys[k])
            if keyp in seen:
                continue
            seen.add(keyp)
            angle = math.asin(min(1.0, abs(denom[k]) / (na[k] * nb[k])))
            hit = HomoclinicHit(pts[k], float(a_arcs[i[k]] + s[k] * na[k]),
                                float(b_arcs[j[k]] + t[k] * nb[k]), angle,
                                angle >= transversality_min,
                                float(dist_anchor[k]))
            (hits if hit.transverse else tangencies).append(hit)

    if polish and hits and map_spec is not None and map_spec.has_inverse:
        raw = np.asarray([h.point for h in hits])
        polished = _polish_hits(map_spec, Wu.anchor, raw, max_move=3.0 * cell)
        if polished is not None:
            dists = row_norms(min_image(polished - anchor, periods))
            for hit, pt, dist in zip(hits, polished, dists.tolist()):
                hit.point = pt
                hit.distance_from_anchor = dist

    hits.sort(key=lambda h: (h.distance_from_anchor, h.param_unstable))
    tangencies.sort(key=lambda h: (h.distance_from_anchor, h.param_unstable))
    if return_tangencies:
        return hits, tangencies
    return hits


# ---------------------------------------------------------------------------
# recurrence
# ---------------------------------------------------------------------------

def omega_limit_cloud(map_spec: MapSpec, q, N: int, burn_in: int = 0) -> np.ndarray:
    """Forward orbit samples f^i(q) for burn_in < i <= N."""
    if not N > burn_in >= 0:
        raise ValueError("need N > burn_in >= 0")
    q = np.asarray(q, dtype=float)
    return np.asarray(list(itertools.islice(iterates(map_spec, q, N), burn_in, None)))


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
    schedule is reported as not found.
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

    hits_by_L = {}
    dists_by_L = {}
    capped_by_L = {}
    for L in schedule:
        Wu, Ws = Wu_full.truncated(L), Ws_full.truncated(L)
        hits = homoclinic_points(Wu, Ws, tol_int=tol_int, map_spec=map_spec)
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
