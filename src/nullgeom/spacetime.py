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
from functools import lru_cache, reduce

import numpy as np

from . import taylor
from .taylor import Series, SmoothMap, compose_univariate, get_context

__all__ = [
    "quadrature",
    "WarpingDomainError",
    "WarpingFunction",
    "AmbientModel",
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


# Gauss-Legendre nodes of an interval, the agreement of its halves with it
# that closes it, and the intervals of an integral
_QUAD_NODES, _QUAD_TOL, _QUAD_LIMIT = 10, 1e-12, 200
# an integral whose error estimate exceeds this is refused: relative to
# max(1, |value|) for a conformal time, absolute for a leg of dw/u
QUAD_ERR_MAX = 1e-9


@lru_cache(maxsize=None)
def _gauss_rule() -> tuple:
    from numpy.polynomial.legendre import leggauss  # at the first integral, not on import

    return leggauss(_QUAD_NODES)


@taylor.float_edges
def quadrature(fn, lo, hi):
    """The integrals of fn over [lo_k, hi_k] for the (K,) arrays lo and
    hi: their (K,) values and error estimates.

    fn(j, s) is the integrand of integral j[i] at node s[i]; each round's
    nodes are one call, and a rejected node (`BatchRejected`) rejects its
    integral with the error of its first one.  Adaptive bisection of a
    Gauss-Legendre rule: an interval closes when its halves' sum agrees with
    its own to `_QUAD_TOL` times max(1, |sum|); past `_QUAD_LIMIT` intervals
    the error estimate is infinite.  A reversed integral is the ascending
    one negated.  No integral's arithmetic depends on the rest of the batch.
    """
    x, w = _gauss_rule()

    def sums(owner, a, b):  # each segment's Gauss sum, left to right
        j, half = np.repeat(owner, len(x)), 0.5 * (b - a)
        try:
            f = fn(j, ((0.5 * (a + b))[:, None] + half[:, None] * x).ravel())
        except taylor.BatchRejected as err:  # each integral keeps its first node's error
            first = {int(j[k]): e for k, e in sorted(err.errors.items(), reverse=True)}
            raise taylor.BatchRejected(dict(sorted(first.items()))) from None
        return half * reduce(np.add, (f.reshape(-1, len(x)) * w).T)

    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    value, error, count = np.zeros(len(lo)), np.zeros(len(lo)), np.ones(len(lo), dtype=int)
    owner = np.flatnonzero(lo != hi)  # the open intervals, in order, and their sums
    a, b = np.minimum(lo, hi)[owner], np.maximum(lo, hi)[owner]
    whole = sums(owner, a, b) if len(owner) else None
    while len(owner):
        edges = np.stack([a, 0.5 * (a + b), b], axis=1)
        owner, a, b = np.repeat(owner, 2), edges[:, :2].ravel(), edges[:, 1:].ravel()
        halves = sums(owner, a, b)
        total = halves[0::2] + halves[1::2]
        diff = np.abs(total - whole)
        done, parent = diff <= _QUAD_TOL * np.maximum(1.0, np.abs(whole)), owner[0::2]
        np.add.at(value, parent[done], total[done])  # left to right within an integral
        np.add.at(error, parent[done], diff[done])
        count += np.bincount(parent[~done], minlength=len(count))
        error[count > _QUAD_LIMIT] = math.inf
        keep = np.repeat(~done & (count[parent] <= _QUAD_LIMIT), 2)
        owner, a, b, whole = owner[keep], a[keep], b[keep], halves[keep]
    return np.where(hi < lo, -value, value), error


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
        # a value the kind does not read would be echoed as if it shaped f
        if self.params and self.kind not in ("constant", "polynomial"):
            raise ValueError(f"{self.kind} warping takes no params")
        if self.expr is not None and self.kind != "custom":
            raise ValueError(f"{self.kind} warping takes no expr")

    def _outside(self, t: float) -> WarpingDomainError:
        lo, hi = self.domain
        return WarpingDomainError(f"time {t} outside warping domain ({lo}, {hi})")

    def _check_domain(self, v: np.ndarray):
        """v: the (B,) array of a batch's times; the whole line holds the finite."""
        lo, hi = self.domain
        inside = np.isfinite(v) if lo == -math.inf and hi == math.inf else (lo < v) & (v < hi)
        taylor.require(inside, lambda at: self._outside(at(v)))

    def _raw(self, t):
        if self.kind == "constant":
            if isinstance(t, Series):
                return Series.constant(t.ctx, self.params[0], t.batch)
            return np.full(np.shape(t), self.params[0])
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
        """f at a (B,) array of times or at a Series time t."""
        v = t.val if isinstance(t, Series) else t
        self._check_domain(v)
        out = self._raw(t)
        positive = (out.val if isinstance(out, Series) else out) > 0.0
        taylor.require(
            positive, lambda at: WarpingDomainError(f"warping function nonpositive at t={at(v)}")
        )
        return out

    def derivatives(self, t: np.ndarray, order: int = 2):
        """(f, f', ..., f^(order)) at the (B,) array of times t, in closed
        form for exp and cosh (as their jets give them, bit for bit)."""
        if self.kind in ("exp", "cosh"):
            f = self(t)
            s = f if self.kind == "exp" else np.sinh(t)
            return (f, s, f, s)[:order + 1]
        ctx = get_context(1, order)
        s = self(Series.variable(ctx, 0, t))
        return tuple(s.c[k] * math.factorial(k) for k in range(order + 1))

    def conformal_time(self, t, t0: float):
        """Integral of ds/f(s) from the float t0 to t: a (B,) array of times
        or a Series time."""
        lo, hi = self.domain
        if not lo < t0 < hi:
            raise self._outside(t0)
        if isinstance(t, Series):
            # f's derivatives first: a column rejected by both keeps f's error
            f0, f1, f2 = self.derivatives(t.val, 2)
            return compose_univariate(t, [
                self.conformal_time(t.val, t0), 1.0 / f0, -f1 / (f0 * f0),
                (2.0 * (f1 * f1) - f0 * f2) / (f0 * f0 * f0),
            ])
        self._check_domain(t)
        if self.kind == "constant":
            return (t - t0) / self.params[0]
        if self.kind == "exp":
            return np.exp(-t0) - np.exp(-t)
        if self.kind == "cosh":
            return np.arctan(np.sinh(t)) - np.arctan(np.sinh(t0))

        val, err = quadrature(lambda j, s: 1.0 / self(s), np.full(len(t), t0), t)
        taylor.require(
            np.isfinite(val) & ~(err > QUAD_ERR_MAX * np.maximum(1.0, np.abs(val))),
            lambda at: ArithmeticError(f"quadrature of 1/f failed on [{t0}, {at(t)}]"),
        )
        return val


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


def ambient_inner(model: AmbientModel, f2, v, w):
    """Lorentzian inner product of v and w, whose last axis holds the
    ambient components, at a point whose fiber scale is f2, the squared
    warping profile at its time (the flat kinds ignore it).

    v and w are float arrays (components last, after the batch axis) or
    Series whose last component axis is the ambient one; their other axes
    broadcast, so one product covers every pair of vectors, and the sum
    over the components runs left to right: on Series as one signed fold,
    on arrays as one `np.vecdot` of the products with the signature (of
    the fiber block on the warped kinds), equal to that fold but for the
    sign of an exact zero.  An array f2 holds one scale per point, batch
    first, and scales every pair of vectors at its point.
    Vectors are expected tangent to the spacetime (quadric-normal parts of
    curved fibers acquire no metric meaning here).
    """
    if v.shape[-1] != model.coord_count or w.shape[-1] != model.coord_count:
        raise ValueError("vector dimension does not match the model")
    p = v * w
    if isinstance(p, Series):
        if not model.warped:
            return p.sum(signs=model.signature)
        return -p[..., 0] + f2 * p[..., 1:].sum(signs=model.signature[1:])
    p = np.ascontiguousarray(p)  # vecdot adds a strided axis in another order
    if not model.warped:
        return np.vecdot(p, model.signature)
    acc = np.vecdot(p[..., 1:], model.signature[1:])
    f2 = np.asarray(f2)  # one scale per point, batch first
    return -p[..., 0] + f2.reshape(f2.shape + (1,) * (acc.ndim - f2.ndim)) * acc


def warped_connection_term(model: AmbientModel, df, a, b):
    """Ambient Christoffel correction Gamma(a, b) of float component arrays
    (components last, after the batch axis; their other axes broadcast),
    where df = (f, f') at the points' times (`WarpingFunction.derivatives(t,
    1)`).

    The float 0.0 for the flat kinds, which pass df = None: added to an
    array, it gives what an array of zeros gives.  For the cosmological
    kinds this is the warped part of the connection; the curved-fiber
    quadric contributes only terms along the quadric normal, which are
    metrically orthogonal to every spacetime-tangent field and therefore
    omitted (tangential projections never see them).
    """
    if not model.warped:
        return 0.0
    f, fp = df
    flat = (model.signature[1:] * a[..., 1:] * b[..., 1:]).sum(axis=-1)
    per_point = (len(f),) + (1,) * (flat.ndim - 1)  # one per batch column
    out = np.empty(flat.shape + (model.coord_count,))
    out[..., 0] = (f * fp).reshape(per_point) * flat
    ratio = (fp / f).reshape(per_point + (1,))
    out[..., 1:] = ratio * (a[..., :1] * b[..., 1:] + b[..., :1] * a[..., 1:])
    return out


def time_axis(model: AmbientModel, x: Series) -> np.ndarray:
    """The future timelike reference field at the points of a batch, as the
    order-1 value-gradient array (1 + n, ambient, B) of its ambient
    components, from x, their position vector Series, read through
    `Series.value_gradient` whatever its order.

    The coordinate time axis (1, 0, ..., 0) for the flat and cosmological
    kinds.  On the de Sitter quadric, ch = sqrt(1 + x_1^2) times the
    pushforward of the warped-product unit time axis: the polynomial field
    (1 + x_1^2, x_1 x_2, ..., x_1 x_last) = x_1 x + e_1, one
    `taylor.product_rule` and no sqrt.  A positive multiple is all the null
    frame needs: it reads the axis through its normal part N, whose factor
    cancels in nu = N / s and in (b/s) A_N, the frame residual reads only
    the sign of <nu, axis>, and the `time_orthogonal` closed form, which
    would see the factor, does not apply on de Sitter.
    """
    c = x.value_gradient
    if model.kind != "desitter":
        axis = np.zeros(c.shape)
        axis[0, 0] = 1.0
        return axis
    axis = taylor.product_rule(c[:, :1], c)
    axis[0, 0] += 1.0
    return axis


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
    # the distance is 0 at the base point c = 1, outside the open domain of
    # either primitive: a column there is evaluated at 0 or 2
    base = not isinstance(c, Series) and np.equal(c, 1.0)
    if np.any(base):
        c = np.where(base, 0.0 if kind == "sphere" else 2.0, c)
    r = taylor.arccos(c) if kind == "sphere" else taylor.arccosh(c)
    return np.where(base, 0.0, r * r) if np.any(base) else r * r


def fiber_radial(model: AmbientModel, x):
    """(r, Dr): distance from the fiber base point and the unit radial field.

    x is the value-gradient array (1 + n, k, B) of a batch's fiber
    embedding coordinates, or their values alone (1, k, B); r (1 + n, B)
    and Dr (1 + n, k, B) are of the same order, by the primitives' order-1
    rules and `taylor.product_rule`.  Raises the primitives' domain errors
    at the base point, the antipode, and beyond.
    """
    kind = model.fiber_kind
    if kind == "euclidean":
        r = taylor.sqrt.rule(taylor.fold(taylor.product_rule(x, x), 1))
        return r, taylor.product_rule(taylor.reciprocal_rule(r)[:, None], x)
    c, sign = x[:, 0], -1.0 if kind == "sphere" else 1.0
    r = (taylor.arccos if kind == "sphere" else taylor.arccosh).rule(c)
    s2 = sign * taylor.product_rule(c, c)
    s2[0] -= sign  # 1 - c^2 on the sphere, c^2 - 1 on the hyperboloid
    s = taylor.sqrt.rule(s2)
    ratio = taylor.product_rule(c, taylor.reciprocal_rule(s))
    rest = taylor.product_rule(ratio[:, None], x[:, 1:])
    return r, np.concatenate(((sign * s)[:, None], rest), axis=1)


def radial_tangential_factor(model: AmbientModel, r):
    """r * c(r) with Hess r = c(r)(g - dr (x) dr) on the fiber space form."""
    kind = model.fiber_kind
    if kind == "euclidean":
        return np.ones_like(r)
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
