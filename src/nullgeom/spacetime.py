"""Ambient Lorentzian models.

Every model fixes one global coordinate system: flat coordinates for
Minkowski space and for the embedding space of the de Sitter hyperquadric,
a time axis plus fiber embedding coordinates for the cosmological products.
The metric is then a signed diagonal form whose fiber block is scaled by
the squared warping profile.  Curved fibers (unit sphere, unit hyperboloid)
ride along as quadric constraints on the point rather than as chart data,
so vectors tangent to the quadric see exactly the induced fiber metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import taylor
from .taylor import Series, SmoothMap, compose_univariate, get_context

__all__ = [
    "quadrature",
    "WarpingDomainError",
    "WarpingFunction",
    "AmbientModel",
    "fiber_scale",
    "ambient_inner",
    "warped_connection_term",
    "time_axis",
    "fiber_radial",
    "fiber_radius_sq",
    "radial_tangential_factor",
    "fiber_constraint",
    "hyperbolic_chart",
    "sphere_chart",
]

_WARPING_KINDS = ("constant", "exp", "cosh", "polynomial", "custom")
_MODEL_KINDS = ("minkowski", "product", "grw_euclidean", "desitter")
_FIBER_KINDS = ("euclidean", "hyperbolic", "sphere")


def quadrature(fn, lo: float, hi: float):
    """Adaptive quadrature of fn over [lo, hi]: (value, error estimate).

    The one entry point of every numeric integral in the package; each
    caller applies its own error test.  SciPy is imported at the first
    call, so a process that never integrates does not load it.
    """
    from scipy.integrate import quad

    return quad(fn, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)


class WarpingDomainError(taylor.DomainError):
    """A warping profile evaluated outside its domain, or where it is not positive."""


@lru_cache(maxsize=None)
def _compiled_profile(expr: str):
    return taylor.parse_expression(expr, ("t",))


@dataclass(frozen=True)
class WarpingFunction:
    """Positive profile f(t) on an open interval, differentiable to order 3.

    Named families keep the conformal-time integral of 1/f in closed form:

      constant c    (t - t0) / c
      exp           exp(-t0) - exp(-t)
      cosh          arctan(sinh t) - arctan(sinh t0)
      polynomial    adaptive quadrature over the coefficient profile
      custom        expression in t over the shared vocabulary, quadrature
    """

    kind: str
    params: tuple = ()
    domain: tuple = (-math.inf, math.inf)
    expr: str = None

    def __post_init__(self):
        if self.kind not in _WARPING_KINDS:
            raise ValueError(f"unknown warping kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        object.__setattr__(self, "domain", (float(self.domain[0]), float(self.domain[1])))
        if not self.domain[0] < self.domain[1]:
            raise ValueError("warping domain is empty")
        if self.kind == "constant" and (len(self.params) != 1 or self.params[0] <= 0.0):
            raise ValueError("constant warping needs one positive parameter")
        if self.kind == "polynomial" and not self.params:
            raise ValueError("polynomial warping needs coefficients")
        if self.kind == "custom":
            if not self.expr:
                raise ValueError("custom warping needs an expression in t")
            _compiled_profile(self.expr)  # a malformed expression fails here

    def _check_domain(self, v):
        """v: a float time, or the (B,) array of a batch's times."""
        lo, hi = self.domain
        taylor.require(
            (lo < v) & (v < hi),
            lambda at: WarpingDomainError(f"time {at(v)} outside warping domain ({lo}, {hi})"),
        )

    def _raw(self, t):
        if self.kind == "constant":
            if isinstance(t, Series):
                return Series.constant(t.ctx, self.params[0], t.batch)
            return self.params[0]
        if self.kind == "exp":
            return taylor.exp(t)
        if self.kind == "cosh":
            return taylor.cosh(t)
        if self.kind == "polynomial":
            acc = self.params[-1]
            for c in reversed(self.params[:-1]):
                acc = acc * t + c
            return acc
        return _compiled_profile(self.expr)([t])

    def __call__(self, t):
        """f at a float or Series time t; a (B,) array of times is evaluated
        one float at a time."""
        if isinstance(t, np.ndarray) and t.ndim:
            return taylor.column_map(self, t)
        v = t.val if isinstance(t, Series) else float(t)
        self._check_domain(v)
        out = self._raw(t)
        val = out.val if isinstance(out, Series) else out
        taylor.require(
            val > 0.0,
            lambda at: WarpingDomainError(f"warping function nonpositive at t={at(v)}"),
        )
        return out

    def value(self, t: float) -> float:
        return float(self(float(t)))

    def derivatives(self, t, order: int = 2):
        """(f, f', ..., f^(order)) at t, a float or the (B,) array of a batch."""
        ctx = get_context(1, order)
        s = self(Series.variable(ctx, 0, taylor.as_value(t)))
        return tuple(s.c[k] * math.factorial(k) for k in range(order + 1))

    def conformal_time(self, t, t0: float):
        """Integral of ds/f(s) from t0 to t; accepts a Series argument, and
        a (B,) array of times, evaluated one float at a time."""
        self._check_domain(float(t0))
        if isinstance(t, Series):
            table = taylor.column_table(lambda v: self._conformal_table(v, t0), t.val)
            return compose_univariate(t, table[: t.ctx.order + 1])
        if isinstance(t, np.ndarray) and t.ndim:
            return taylor.column_map(lambda v: self.conformal_time(v, t0), t)
        v = float(t)
        self._check_domain(v)
        if self.kind == "constant":
            return (v - t0) / self.params[0]
        if self.kind == "exp":
            return math.exp(-t0) - math.exp(-v)
        if self.kind == "cosh":
            return math.atan(math.sinh(v)) - math.atan(math.sinh(t0))
        val, err = quadrature(lambda s: 1.0 / self.value(s), t0, v)
        if not math.isfinite(val) or err > 1e-9 * max(1.0, abs(val)):
            raise ArithmeticError(f"quadrature of 1/f failed on [{t0}, {v}]")
        return val

    def _conformal_table(self, v: float, t0: float):
        """The derivative table of the conformal time at the float time v."""
        f0, f1, f2 = self.derivatives(v, 2)
        return (
            self.conformal_time(v, t0),
            1.0 / f0,
            -f1 / f0 ** 2,
            (2.0 * f1 ** 2 - f0 * f2) / f0 ** 3,
        )


@dataclass(frozen=True)
class AmbientModel:
    """One of the four ambient spacetimes.

    kind            minkowski | product | grw_euclidean | desitter
    n               dimension of the codimension-two submanifolds it hosts
    warping         profile f for the cosmological kinds
    t0              vertex time of the associated cones (not for desitter)
    fiber           euclidean | hyperbolic | sphere, product kind only

    Derived once from these, and not compared: `coord_count`, the number of
    ambient coordinates; `signature`, the signs of the metric's diagonal
    before the fiber block is scaled by f^2; `warped`, whether it is.
    """

    kind: str
    n: int
    warping: WarpingFunction = None
    t0: float = None
    fiber: str = None
    coord_count: int = field(init=False, repr=False, compare=False)
    signature: np.ndarray = field(init=False, repr=False, compare=False)
    warped: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _MODEL_KINDS:
            raise ValueError(f"unknown ambient kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("base dimension must be at least 2")
        if self.kind in ("minkowski", "desitter"):
            if self.warping is not None or self.fiber is not None:
                raise ValueError(f"{self.kind} model carries no warping or fiber")
        else:
            if self.warping is None:
                raise ValueError(f"{self.kind} model needs a warping function")
        if self.kind == "product":
            if self.fiber not in _FIBER_KINDS:
                raise ValueError("product model needs fiber euclidean | hyperbolic | sphere")
        if self.kind == "grw_euclidean" and self.fiber not in (None, "euclidean"):
            raise ValueError("grw_euclidean model has a euclidean fiber")
        if self.kind == "desitter":
            if self.t0 is not None:
                raise ValueError("desitter model has no vertex time")
        else:
            t0 = 0.0 if self.t0 is None else float(self.t0)
            object.__setattr__(self, "t0", t0)
            if self.warping is not None:
                lo, hi = self.warping.domain
                if not lo < t0 < hi:
                    raise ValueError("vertex time outside the warping domain")
        # time axis + n + 1 fiber embedding coordinates, one more for a
        # curved fiber's quadric; the de Sitter quadric sits in R^{1, n+2}
        quadric = self.kind == "desitter" or self.fiber in ("sphere", "hyperbolic")
        coord_count = self.n + (3 if quadric else 2)
        signature = np.ones(coord_count)
        signature[0] = -1.0
        if self.fiber == "hyperbolic":
            signature[1] = -1.0
        signature.flags.writeable = False
        object.__setattr__(self, "coord_count", coord_count)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "warped", self.warping is not None)

    @property
    def fiber_kind(self) -> str:
        if self.kind in ("minkowski", "grw_euclidean"):
            return "euclidean"
        if self.kind == "product":
            return self.fiber
        raise ValueError("desitter model has no fiber")


def fiber_scale(model: AmbientModel, t):
    """f(t)^2, the factor of the metric's fiber block at time t; None for
    the flat kinds.

    t may be a float or a Series.  Evaluate each once per point and never
    convert one into the other: for profiles with division or powers their
    values differ in the last bits.
    """
    if not model.warped:
        return None
    f = model.warping(t)
    return f * f


def ambient_inner(model: AmbientModel, f2, v, w):
    """Lorentzian inner product of v and w, whose last axis holds the
    ambient components, at a point whose fiber scale is f2 (`fiber_scale`
    of its time; the flat kinds ignore it).

    v and w are float arrays (components last, after any batch axis) or
    Series whose last component axis is the ambient one; their other axes
    broadcast, so one product covers every pair of vectors, and the sum
    over the components runs left to right.  Vectors are expected tangent
    to the spacetime (quadric-normal parts of curved fibers acquire no
    metric meaning here).
    """
    if v.shape[-1] != model.coord_count or w.shape[-1] != model.coord_count:
        raise ValueError("vector dimension does not match the model")
    p = v * w
    if not model.warped:
        acc = -p[..., 0]
        for a in range(1, model.coord_count):
            acc = acc + p[..., a]
        return acc
    acc = None
    for a, s in enumerate(model.signature[1:], start=1):
        term = p[..., a] if s > 0 else -p[..., a]
        acc = term if acc is None else acc + term
    return -p[..., 0] + f2 * acc


def warped_connection_term(model: AmbientModel, df, a, b) -> np.ndarray:
    """Ambient Christoffel correction Gamma(a, b) of float component arrays
    (components last, after any batch axis), where df = (f, f') at the
    point's time (`WarpingFunction.derivatives(t, 1)`).

    Zero for the flat kinds, which pass df = None.  For the cosmological
    kinds this is the warped part of the connection; the curved-fiber
    quadric contributes only terms along the quadric normal, which are
    metrically orthogonal to every spacetime-tangent field and therefore
    omitted (tangential projections never see them).
    """
    out = np.zeros(np.shape(a))
    if not model.warped:
        return out
    f, fp = df
    flat = np.sum(model.signature[1:] * a[..., 1:] * b[..., 1:], axis=-1)
    out[..., 0] = f * fp * flat
    ratio = fp / f
    if isinstance(ratio, np.ndarray):
        ratio = ratio[..., None]  # one per batch column
    out[..., 1:] = ratio * (a[..., :1] * b[..., 1:] + b[..., :1] * a[..., 1:])
    return out


def time_axis(model: AmbientModel, p):
    """Components of the future unit timelike reference field at p.

    Coordinate time axis for the flat and cosmological kinds; for the de
    Sitter quadric, the pushforward of the warped-product time axis.
    """
    if model.kind != "desitter":
        comps = [0.0] * model.coord_count
        comps[0] = 1.0
        return comps
    x1 = p[0]
    ch = taylor.sqrt(1.0 + x1 * x1)
    scale = x1 / ch
    return [ch] + [scale * x for x in p[1:]]


def fiber_constraint(model: AmbientModel, x):
    """Residual of the fiber quadric at x (identically 0 for euclidean)."""
    kind = model.fiber_kind
    if kind == "euclidean":
        return 0.0
    if kind == "sphere":
        return taylor.norm_sq(x) - 1.0
    # unit hyperboloid in its own flat Lorentz coordinates
    acc = -(x[0] * x[0])
    for a in x[1:]:
        acc = acc + a * a
    return acc + 1.0


def fiber_radius_sq(model: AmbientModel, x):
    """Squared distance from the fiber base point, in the fiber geometry."""
    kind = model.fiber_kind
    if kind == "euclidean":
        return taylor.norm_sq(x)
    c = x[0]
    if not isinstance(c, Series) and float(c) == 1.0:
        return 0.0
    r = taylor.arccos(c) if kind == "sphere" else taylor.arccosh(c)
    return r * r


def fiber_radial(model: AmbientModel, x):
    """(r, Dr): distance from the fiber base point and the unit radial field.

    Components follow the fiber embedding coordinates.  Raises the usual
    primitive domain errors at the base point, the antipode, and beyond.
    """
    kind = model.fiber_kind
    if kind == "euclidean":
        r = taylor.sqrt(taylor.norm_sq(x))
        rinv = 1.0 / r
        return r, [rinv * a for a in x]
    c = x[0]
    if kind == "sphere":
        r = taylor.arccos(c)
        s = taylor.sqrt(1.0 - c * c)
        ratio = c / s
        return r, [-s] + [ratio * a for a in x[1:]]
    r = taylor.arccosh(c)
    s = taylor.sqrt(c * c - 1.0)
    ratio = c / s
    return r, [s] + [ratio * a for a in x[1:]]


def radial_tangential_factor(model: AmbientModel, r):
    """r * c(r) with Hess r = c(r)(g - dr (x) dr) on the fiber space form."""
    kind = model.fiber_kind
    if kind == "euclidean":
        return Series.constant(r.ctx, 1.0, r.batch) if isinstance(r, Series) else 1.0
    if kind == "sphere":
        return r * taylor.cos(r) / taylor.sin(r)
    return r / taylor.tanh(r)


def hyperbolic_chart(k: int) -> SmoothMap:
    """Global graph chart R^k -> unit hyperboloid in flat Lorentz coordinates."""

    def chart(y):
        return [taylor.sqrt(1.0 + taylor.norm_sq(y))] + list(y)

    return SmoothMap(chart, k, k + 1, name=f"hyperboloid graph chart ({k})")


def sphere_chart(k: int) -> SmoothMap:
    """Spherical-angle chart of the unit k-sphere, poles excluded.

    Angles th_1..th_{k-1} in (0, pi), th_k in (-pi, pi).
    """

    def chart(th):
        coords = []
        scale = 1.0
        for i in range(k - 1):
            coords.append(scale * taylor.cos(th[i]))
            scale = scale * taylor.sin(th[i])
        coords.append(scale * taylor.cos(th[k - 1]))
        coords.append(scale * taylor.sin(th[k - 1]))
        return coords

    domain = ((0.0, math.pi),) * (k - 1) + ((-math.pi, math.pi),)
    return SmoothMap(chart, k, k + 1, name=f"sphere angle chart ({k})", domain=domain)
