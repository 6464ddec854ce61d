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

import inspect
import math
import numbers
import sys
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

    `forward` and `inverse` act on arrays of shape (..., dim) and follow
    numpy's `out` convention: `forward(p, out=None)` writes the image into
    `out` when given and returns it, else into a new array, with the same
    bits either way; `out` must not overlap `p`.  `jac` maps a
    batch (n, dim) to (n, dim, dim); every map made by `make_map` and
    `polynomial_map` carries one.  `periods` marks an intrinsic torus: every
    period is 1.0 and images are wrapped into [0, 1) per axis.  `lipschitz`
    bounds the operator norm of the Jacobian; `jac_abs_bound` bounds each
    Jacobian entry over an axis-aligned rectangle batch.  The affine
    registry maps are rows of `_AFFINE`, made by `_affine` with a constant
    `jac_abs_bound`; a `poly` map's `forward`, `jac` and `jac_abs_bound`
    are all `_monomial_sums` of its term tables.
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


def _standard(K: float) -> MapSpec:
    c = K / (2.0 * math.pi)

    # the kick is a fresh contiguous row, never a column of `out`: the
    # sine of a strided view may take another SIMD path
    def fwd(p, out=None):
        p = np.asarray(p, dtype=float)
        out = np.empty(p.shape[:-1] + (2,)) if out is None else out
        x, y = p[..., 0], p[..., 1]
        u, v = out[..., 0], out[..., 1]
        kick = c * np.sin(2.0 * math.pi * x)
        np.add(np.add(x, y, out=u), kick, out=u)
        np.add(y, kick, out=v)
        return wrap_unit(out, out=out)

    def inv(p, out=None):
        p = np.asarray(p, dtype=float)
        out = np.empty(p.shape[:-1] + (2,)) if out is None else out
        x, y = p[..., 0], p[..., 1]
        u, v = out[..., 0], out[..., 1]
        wrap_unit(np.subtract(x, y, out=u), out=u)
        np.subtract(y, c * np.sin(2.0 * math.pi * u), out=v)
        return wrap_unit(out, out=out)

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


def _finite_real(v) -> bool:
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _natural(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 0


def _affine(name, matrix, shift, torus, lip, params) -> MapSpec:
    """x -> A x + shift (no add for a shift of None), wrapped into [0, 1)
    per axis if `torus`.  A diagonal A acts as x * d and x / d, with d a
    scalar if constant (a 0-d circle point stays 0-d); any other A is
    unimodular and acts as x @ A.T, and its integer inverse likewise."""
    A = np.asarray(matrix, dtype=float)
    dim = A.shape[0]
    d = AT = AinvT = None
    if np.array_equal(A, np.diag(A.diagonal())):
        d = A.diagonal().copy()
        d = d[0] if np.all(d == d[0]) else d
    else:
        Ainv = np.rint(np.linalg.inv(A))
        assert np.array_equal(A @ Ainv, np.eye(dim)), name
        AT, AinvT = A.T, Ainv.T

    def fwd(p, out=None):
        y = np.asarray(p, dtype=float)
        y = np.multiply(y, d, out=out) if AT is None else np.matmul(y, AT, out=out)
        if shift is not None:
            y = np.add(y, shift, out=out)
        return wrap_unit(y, out=out) if torus else y

    def inv(p, out=None):
        y = np.asarray(p, dtype=float)
        if shift is not None:
            y = np.subtract(y, shift, out=out)
        y = np.divide(y, d, out=out) if AT is None else np.matmul(y, AinvT, out=out)
        return wrap_unit(y, out=out) if torus else y

    def jac(p):
        p = np.atleast_2d(p)
        return np.broadcast_to(A, (p.shape[0], dim, dim)).copy()

    invertible = AT is not None or np.all(d != 0)
    return MapSpec(name, dim, params, fwd, inv if invertible else None, jac,
                   lip, jac_abs_bound=_const_abs_bound(A),
                   periods=(1.0,) * dim if torus else None)


def _contraction(c, dim):
    if not 0.0 < c < 1.0:
        raise ValueError("contraction factor must satisfy 0 < c < 1")
    return c * np.eye(dim), None, False, float(c), {"c": float(c), "dim": dim}


# name -> row(**params) = (matrix, shift, torus, lipschitz, params); cat's
# symmetric matrix has norm (3 + sqrt 5)/2, the shear's the golden ratio
_AFFINE = {
    "cat": lambda: ([[2, 1], [1, 1]], None, True, (3.0 + math.sqrt(5.0)) / 2.0, {}),
    "translation": lambda: (np.eye(2), np.array([1.0, 0.0]), False, 1.0, {}),
    "linear": lambda a, b: (np.diag([float(a), float(b)]), None, False,
                            max(abs(a), abs(b)), {"a": float(a), "b": float(b)}),
    "contraction": _contraction,
    "rotation": lambda alpha: ([[1.0]], alpha, True, 1.0, {"alpha": float(alpha)}),
    "shear": lambda: ([[1, 1], [0, 1]], None, False, (1.0 + math.sqrt(5.0)) / 2.0, {}),
}


def make_map(name: str, **params) -> MapSpec:
    """Instantiate a registry map by name.  A parameter that is not a
    finite real, or a `dim` that is not an int >= 1, raises ValueError."""
    if name != "standard" and name not in _AFFINE:
        raise KeyError(f"unknown map {name!r}; registry: "
                       f"{sorted({*_AFFINE, 'standard'})}")
    factory = _standard if name == "standard" else _AFFINE[name]
    try:
        inspect.signature(factory).bind(**params)
    except TypeError as e:
        raise TypeError(f"map {name!r}: {e}") from None
    for key, v in params.items():
        if not (_finite_real(v) and (key != "dim" or _natural(v) and v >= 1)):
            what = "an integer >= 1" if key == "dim" else "a finite number"
            raise ValueError(f"map parameter {key} must be {what}, got {v!r}")
    if name == "standard":
        return _standard(**params)
    return _affine(name, *factory(**params))


MAX_POLY_DEGREE = 4


def _monomial_sums(rows, x: np.ndarray, out=None) -> np.ndarray:
    """(n, len(rows)) array, `out` if given: column k sums
    c * prod_a x[:, a] ** e[a] over the (c, e) of rows[k], term by term
    onto zeros, each term built axis by axis with Python-int exponents."""
    out = np.empty((x.shape[0], len(rows))) if out is None else out
    for k, terms in enumerate(rows):
        acc = np.zeros(x.shape[0])
        for c, e in terms:
            term = np.full(x.shape[0], c)
            for a, ea in enumerate(e):
                if ea:
                    term = term * x[:, a] ** ea
            acc += term
        out[:, k] = acc
    return out


def _poly_term(t, dim: int):
    """(c, e) of a term that is exactly {"c": finite real, "e": [dim ints >= 0]}."""
    e = t["e"] if isinstance(t, dict) and set(t) == {"c", "e"} else None
    if not (isinstance(e, list) and len(e) == dim and all(map(_natural, e))
            and _finite_real(t["c"])):
        raise ValueError(f"bad polynomial term {t!r}: need exactly "
                         f"{{'c': finite number, 'e': {dim} integers >= 0}}")
    if sum(e) > MAX_POLY_DEGREE:
        raise ValueError(f"polynomial degree capped at {MAX_POLY_DEGREE}")
    return float(t["c"]), tuple(int(x) for x in e)


def polynomial_map(components, dim: int, window=None, name: str = "poly") -> MapSpec:
    """Map whose components are polynomials given as term lists.

    `components[r]` is a list of terms {"c": coeff, "e": [e_0, ..., e_{dim-1}]}
    with total degree <= 4; any other term raises ValueError.  The image,
    the Jacobian and `jac_abs_bound` are `_monomial_sums` of the terms, of
    their partial derivatives, and of those with |c| at max(|lo|, |hi|).
    With a `window` (lower, upper), `lipschitz` is the Frobenius norm of
    the window's `jac_abs_bound`.
    """
    if len(components) != dim or not all(isinstance(t, list) for t in components):
        raise ValueError("need one list of terms per dimension")
    comps = [[_poly_term(t, dim) for t in terms] for terms in components]
    # d/dx_a of c * prod x^e, for (r, a) in row-major order
    dcomps = [[(c * e[a], e[:a] + (e[a] - 1,) + e[a + 1:]) for c, e in terms if e[a]]
              for terms in comps for a in range(dim)]
    abs_dcomps = [[(abs(c), e) for c, e in terms] for terms in dcomps]

    def fwd(p, out=None):
        p = np.asarray(p, dtype=float)
        if out is not None:
            _monomial_sums(comps, np.atleast_2d(p), np.atleast_2d(out))
            return out
        out = _monomial_sums(comps, np.atleast_2d(p))
        return out[0] if p.ndim == 1 else out

    def jac(p):
        q = np.atleast_2d(np.asarray(p, dtype=float))
        return _monomial_sums(dcomps, q).reshape(-1, dim, dim)

    def jac_bound(lo, hi):
        absmax = np.atleast_2d(np.maximum(np.abs(np.asarray(lo, dtype=float)),
                                          np.abs(np.asarray(hi, dtype=float))))
        return _monomial_sums(abs_dcomps, absmax).reshape(-1, dim, dim)

    # cumsum adds the squares in (r, a) order, from the first
    lip = None if window is None else \
        float(np.sqrt(np.cumsum(jac_bound(*window)[0] ** 2)[-1]))
    return MapSpec(name, dim, {"components": components}, fwd, None, jac,
                   lip, jac_abs_bound=jac_bound)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def evaluate(map_spec: MapSpec, p, direction: str = "forward", out=None):
    """Image of p under f or f^-1, wrapped into the intrinsic torus; with
    `out` (not overlapping p) the image is made and wrapped in `out`, bit
    for bit as without it."""
    p = np.asarray(p, dtype=float)
    if direction == "forward":
        f = map_spec.forward
    elif direction == "inverse":
        if not map_spec.has_inverse:
            raise InverseUnavailableError(f"map {map_spec.name!r} has no inverse")
        f = map_spec.inverse
    else:
        raise ValueError("direction must be 'forward' or 'inverse'")
    if out is None:
        return map_spec.wrap(f(p))
    f(p, out=out)
    return out if map_spec.periods is None else wrap_unit(out, out=out)


def iterates(map_spec: MapSpec, x, n: int, direction: str = "forward",
             out=None):
    """Yield f(x), f^2(x), ..., f^n(x), or the f^-1 iterates with
    direction "inverse", for one point or a batch; one `evaluate` per step.
    With `out`, step k is written into `out[k]` from `out[k - 1]` (from x
    at k = 0), and `out[k]` is what is yielded (a 0-d view for 0-d points)."""
    for k in range(n):
        x = evaluate(map_spec, x, direction) if out is None else \
            evaluate(map_spec, x, direction, out=out[k, ...])
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
    for _ in iterates(map_spec, pts[0], length, out=pts[1:]):
        pass
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
