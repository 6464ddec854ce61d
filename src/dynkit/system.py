"""Registry of concrete dynamical systems plus volume-preservation and
Lagrange-stability diagnostics.

Registry maps carry closed-form forward/inverse evaluators, closed-form
Jacobians and exact Lipschitz bounds.  User maps enter as polynomial
coefficient tables (degree <= 4 per component); their Jacobians are
closed-form too, their Lipschitz bounds come from interval-style
coefficient estimates over a window.  Torus maps (cat, standard,
rotation) live on the unit torus: their images are wrapped into [0, 1)
per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._util import min_image, on_torus_axes, wrap_unit

__all__ = [
    "MapSpec", "OrbitSegment", "LagrangeResult", "VolumeReport",
    "InverseUnavailableError", "make_map", "polynomial_map",
    "evaluate", "jacobian", "finite_difference_jacobian",
    "volume_check", "lagrange_probe", "orbit", "iterates",
]


class InverseUnavailableError(RuntimeError):
    """Inverse evaluation requested for a map without one."""


@dataclass(frozen=True)
class MapSpec:
    """A concrete diffeomorphism with optional inverse and closed-form Jacobian.

    `forward` and `inverse` act on arrays of shape (..., dim).  `jac` maps a
    batch (n, dim) to (n, dim, dim); every map made by `make_map` and
    `polynomial_map` carries one.  `periods` marks an intrinsic torus: every
    period is 1.0 and images are wrapped into [0, 1) per axis.  `lipschitz`
    bounds the operator norm of the Jacobian; `jac_abs_bound` bounds each
    Jacobian entry over an axis-aligned rectangle batch.
    """

    name: str
    dim: int
    params: dict
    forward: Callable = field(repr=False)
    inverse: Optional[Callable] = field(repr=False, default=None)
    jac: Optional[Callable] = field(repr=False, default=None)
    lipschitz: Optional[float] = None
    jac_abs_bound: Optional[Callable] = field(repr=False, default=None)
    periods: Optional[tuple] = None

    def __post_init__(self):
        # the wrap is x - floor(x), which is reduction mod 1 only
        if self.periods is not None and any(p != 1.0 for p in self.periods):
            raise ValueError(f"torus periods must be 1.0, got {self.periods}")

    @property
    def has_inverse(self) -> bool:
        return self.inverse is not None

    def wrap(self, points):
        if self.periods is None:
            return points
        return wrap_unit(on_torus_axes(points, self.periods))

    def delta(self, a, b):
        """Shortest displacement b - a (min-image on intrinsic torus axes)."""
        return min_image(np.asarray(b, dtype=float) - np.asarray(a, dtype=float),
                         self.periods)

    def distance(self, a, b):
        return np.linalg.norm(self.delta(a, b), axis=-1)


@dataclass
class OrbitSegment:
    """Finite forward orbit: points[k+1] = f(points[k])."""

    base: np.ndarray
    points: np.ndarray

    def __len__(self):
        return self.points.shape[0]


@dataclass
class LagrangeResult:
    bounded: bool
    escaped_step: Optional[int]
    orbit: OrbitSegment


@dataclass
class VolumeReport:
    max_deviation: float
    passed: bool
    samples: int
    tol: float


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _const_abs_bound(M: np.ndarray) -> Callable:
    """Entrywise |Jacobian| bound independent of the rectangle."""
    A = np.abs(np.asarray(M, dtype=float))

    def bound(lo, hi):
        lo = np.atleast_2d(lo)
        return np.broadcast_to(A, (lo.shape[0],) + A.shape).copy()

    return bound


def _cat() -> MapSpec:
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


def _standard(K: float) -> MapSpec:
    c = K / (2.0 * math.pi)

    def fwd(p):
        p = np.asarray(p, dtype=float)
        kick = c * np.sin(2.0 * math.pi * p[..., 0])
        out = np.empty(p.shape[:-1] + (2,))
        out[..., 0] = p[..., 0] + p[..., 1] + kick
        out[..., 1] = p[..., 1] + kick
        return wrap_unit(out)

    def inv(p):
        p = np.asarray(p, dtype=float)
        out = np.empty(p.shape[:-1] + (2,))
        x = wrap_unit(p[..., 0] - p[..., 1])
        out[..., 0] = x
        out[..., 1] = p[..., 1] - c * np.sin(2.0 * math.pi * x)
        return wrap_unit(out)

    def jac(p):
        p = np.atleast_2d(p)
        kc = K * np.cos(2.0 * math.pi * p[:, 0])
        J = np.empty((p.shape[0], 2, 2))
        J[:, 0, 0] = 1.0 + kc
        J[:, 0, 1] = 1.0
        J[:, 1, 0] = kc
        J[:, 1, 1] = 1.0
        return J

    # Frobenius bound, valid for all x: sqrt((1+|K|)^2 + K^2 + 2)
    lip = math.sqrt((1.0 + abs(K)) ** 2 + K * K + 2.0)
    bound = _const_abs_bound([[1.0 + abs(K), 1.0], [abs(K), 1.0]])
    return MapSpec("standard", 2, {"K": float(K)}, fwd, inv, jac, lip,
                   jac_abs_bound=bound, periods=(1.0, 1.0))


def _translation() -> MapSpec:
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


def _linear(a: float, b: float) -> MapSpec:
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


def _contraction(c: float, dim: int) -> MapSpec:
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


def _rotation(alpha: float) -> MapSpec:
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


def _shear() -> MapSpec:
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


_REGISTRY = {
    "cat": _cat,
    "standard": _standard,
    "translation": _translation,
    "linear": _linear,
    "contraction": _contraction,
    "rotation": _rotation,
    "shear": _shear,
}


def make_map(name: str, **params) -> MapSpec:
    """Instantiate a registry map by name."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown map {name!r}; registry: {sorted(_REGISTRY)}")
    return _REGISTRY[name](**params)


MAX_POLY_DEGREE = 4


def polynomial_map(components, dim: int, window=None, name: str = "poly") -> MapSpec:
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
            if sum(e) > MAX_POLY_DEGREE:
                raise ValueError(f"polynomial degree capped at {MAX_POLY_DEGREE}")
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


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def evaluate(map_spec: MapSpec, p, direction: str = "forward"):
    """Image of p under f or f^-1, wrapped into the intrinsic torus."""
    p = np.asarray(p, dtype=float)
    if direction == "forward":
        return map_spec.wrap(map_spec.forward(p))
    if direction == "inverse":
        if not map_spec.has_inverse:
            raise InverseUnavailableError(f"map {map_spec.name!r} has no inverse")
        return map_spec.wrap(map_spec.inverse(p))
    raise ValueError("direction must be 'forward' or 'inverse'")


def iterates(map_spec: MapSpec, x, n: int, direction: str = "forward"):
    """Yield f(x), f^2(x), ..., f^n(x), or the f^-1 iterates with
    direction "inverse", for one point or a batch; one `evaluate` per step."""
    for _ in range(n):
        x = evaluate(map_spec, x, direction)
        yield x


def finite_difference_jacobian(map_spec: MapSpec, p, scale: float = 1.0) -> np.ndarray:
    """Central finite differences with step h = 1e-6 * scale."""
    p = np.asarray(p, dtype=float)
    h = 1e-6 * scale
    J = np.empty((map_spec.dim, map_spec.dim))
    for a in range(map_spec.dim):
        dp = np.zeros(map_spec.dim)
        dp[a] = h
        fp = map_spec.forward(p + dp)
        fm = map_spec.forward(p - dp)
        J[:, a] = map_spec.delta(fm, fp) / (2.0 * h)
    return J


def jacobian(map_spec: MapSpec, p) -> np.ndarray:
    """Closed-form Jacobian of the map at p."""
    p = np.asarray(p, dtype=float)
    return map_spec.jac(p[None, :])[0]


def volume_check(map_spec: MapSpec, window, samples: int, tol: float,
                 rng_seed: int = 0) -> VolumeReport:
    """Sample |det Df| over the window; pass iff max |det - 1| <= tol."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    rng = np.random.default_rng(rng_seed)
    lo = np.asarray(window[0], dtype=float)
    hi = np.asarray(window[1], dtype=float)
    pts = lo + rng.random((samples, map_spec.dim)) * (hi - lo)
    dets = np.linalg.det(map_spec.jac(pts))
    dev = float(np.max(np.abs(np.abs(dets) - 1.0)))
    return VolumeReport(dev, dev <= tol, samples, tol)


def orbit(map_spec: MapSpec, p, length: int) -> OrbitSegment:
    """Forward orbit p, f(p), ..., f^length(p)."""
    p = np.asarray(p, dtype=float)
    pts = np.empty((length + 1, map_spec.dim))
    pts[0] = p
    for k, x in enumerate(iterates(map_spec, pts[0], length), 1):
        pts[k] = x
    return OrbitSegment(p, pts)


def lagrange_probe(map_spec: MapSpec, p, escape_radius: float,
                   n_max: int) -> LagrangeResult:
    """Iterate up to n_max steps; report escape from the origin-centered ball."""
    if escape_radius <= 0:
        raise ValueError("escape_radius must be positive")
    p = np.asarray(p, dtype=float)
    pts = [p]
    for k, x in enumerate(iterates(map_spec, p, n_max), 1):
        pts.append(x)
        if np.linalg.norm(x) >= escape_radius:
            return LagrangeResult(False, k, OrbitSegment(p, np.asarray(pts)))
    return LagrangeResult(True, None, OrbitSegment(p, np.asarray(pts)))
