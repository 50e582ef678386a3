"""Truncated multivariate Taylor-jet differentiation, orders 0 through 3.

A smooth map is any callable written against this module's primitive
vocabulary (arithmetic plus the functions exported below).  Called with
plain floats it evaluates normally; called with `Series` arguments it
propagates truncated Taylor expansions, from which `jet_eval` extracts
exact partial derivatives.  `fd_derivative` provides an independent
central finite-difference oracle over the same callables.

Internally a scalar quantity is a dense coefficient vector indexed by the
multi-indices of total degree <= order in graded lexicographic order; the
stored numbers are Taylor coefficients (partial derivative over factorial
of the multi-index), so multiplication is a truncated convolution.  A batch
of B chart points carries one coefficient column per point, shape
(n_terms, B); one point has no batch axis.  The convolution is the hot
kernel: one `np.bincount` over the context's (i, j, k) table, with slot
k*B + b for column b, so each column accumulates in table order exactly as
a single point does.  Derivative tables of the primitives are computed one
column at a time with `math`, whose last bits numpy's ufuncs do not always
reproduce.

A check that fails at one point raises its typed error; on a batch it
raises `BatchRejected` with the mask of failing columns, and evaluating
those columns one at a time raises the typed error with its detail.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable, Optional, Sequence

import numpy as np

MAX_ORDER = 3


def format_point(point) -> str:
    """A point as a tuple of plain floats, e.g. "(0.0, 0.45)", for messages."""
    return str(tuple(float(c) for c in point))


class DomainError(ValueError):
    """A function evaluated outside its domain: a primitive, a chart, a profile."""


class PrimitiveDomainError(DomainError):
    """A primitive was evaluated outside its domain (e.g. sqrt of a negative)."""

    def __init__(self, primitive: str, value: float, point=None):
        self.primitive = primitive
        self.value = value
        self.point = None if point is None else tuple(float(c) for c in point)
        msg = f"primitive '{primitive}' undefined at value {value!r}"
        if point is not None:
            msg += f" (evaluation point {self.point})"
        super().__init__(msg)

    def with_point(self, point) -> "PrimitiveDomainError":
        return PrimitiveDomainError(self.primitive, self.value, point)


class ChartDomainError(DomainError):
    """A chart point outside the declared domain of a map or an immersion."""


class StencilDomainError(DomainError):
    """A finite-difference stencil left the map's domain."""

    def __init__(self, stencil_point, reason: str = "outside declared domain"):
        self.stencil_point = tuple(float(c) for c in stencil_point)
        super().__init__(f"stencil point {self.stencil_point} {reason}")


class BatchRejected(Exception):
    """Columns of a batch that failed a check; `mask` flags them.

    Deliberately neither a `DomainError` nor a `ValueError`, so that no
    handler of typed rejections catches it: the caller re-evaluates the
    flagged columns one at a time to get their typed errors.
    """

    def __init__(self, mask):
        self.mask = np.asarray(mask, dtype=bool)
        super().__init__(f"{int(self.mask.sum())} of {self.mask.size} columns rejected")


def reject(bad, error):
    """Raise for failing columns: `error()` when `bad` is one point's flag,
    `BatchRejected(bad)` when it is a batch's (B,) mask with any set."""
    if not isinstance(bad, np.ndarray) or not bad.ndim:
        if bad:
            raise error()
    elif bad.any():
        raise BatchRejected(bad)


def require(ok, error):
    """Raise where `ok` fails: `error()` when `ok` is one point's flag,
    `BatchRejected` of the failing columns when it is a batch's (B,) mask.

    The complement of `reject`, for checks stated as a condition that must
    hold, so that a NaN fails them as it does `if not ok: raise`."""
    if isinstance(ok, np.ndarray) and ok.ndim:
        if not ok.all():
            raise BatchRejected(~ok)
    elif not ok:
        raise error()


def as_value(x):
    """A per-point value as a float, or as the (B,) array of a batch."""
    if isinstance(x, np.ndarray) and x.ndim:
        return x
    return float(x)


def column_max(a, b):
    """Python's max(a, b) of two values, or per column of a batch: a unless
    b is greater."""
    return np.where(b > a, b, a)


def batch_first(values, depth: int = 1) -> np.ndarray:
    """The array of `depth`-deep nested lists of per-point values (floats,
    or (B,) arrays), with the batch axis first and C-contiguous."""
    out = np.array(values)
    return out if out.ndim == depth else np.ascontiguousarray(np.moveaxis(out, -1, 0))


def _per_column(fn, values) -> list:
    out = []
    bad = np.zeros(len(values), dtype=bool)
    for b, v in enumerate(values.tolist()):
        try:
            out.append(fn(v))
        except DomainError:
            bad[b] = True
    if bad.any():
        raise BatchRejected(bad)
    return out


def column_map(fn, values):
    """fn of a float value, or of each column of a (B,) array, as an array.

    A column whose call raises a `DomainError` is rejected."""
    if not isinstance(values, np.ndarray) or not values.ndim:
        return fn(values)
    return np.array(_per_column(fn, values))


def column_table(fn, values):
    """A derivative table [g(v), g'(v), ...] of a float v, or, for a (B,)
    array, the list of per-entry arrays over its columns."""
    if not isinstance(values, np.ndarray) or not values.ndim:
        return fn(values)
    return [np.array(entry) for entry in zip(*_per_column(fn, values))]


class JetContext:
    """Index tables for one (n_inputs, order) pair; cached, and immutable
    apart from the memo of `product_slots` per batch size.

    `first[i]` is the slot of d/dx_i; `second[i, j]` is the slot of
    d^2/dx_i dx_j, whose Taylor coefficient times `second_fac[i, j]` (2 on
    the diagonal, 1 off it) is the derivative.  Both are None below the
    order they need.
    """

    __slots__ = (
        "n", "order", "alphas", "index", "n_terms", "factorials",
        "mul_ti", "mul_tj", "mul_tk", "deriv_src", "deriv_fac",
        "first", "second", "second_fac", "deriv_fac_column", "_slots",
    )

    def __init__(self, n: int, order: int):
        if n < 1:
            raise ValueError("n_inputs must be positive")
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order must lie in 0..{MAX_ORDER}")
        self.n = n
        self.order = order
        alphas = []
        for deg in range(order + 1):
            for pos in combinations_with_replacement(range(n), deg):
                a = [0] * n
                for p in pos:
                    a[p] += 1
                alphas.append(tuple(a))
        self.alphas = tuple(alphas)
        self.index = {a: i for i, a in enumerate(alphas)}
        self.n_terms = len(alphas)
        self.factorials = np.array(
            [math.prod(math.factorial(k) for k in a) for a in alphas], dtype=np.float64
        )
        ti, tj, tk = [], [], []
        for i, ai in enumerate(alphas):
            di = sum(ai)
            for j, aj in enumerate(alphas):
                if di + sum(aj) > order:
                    continue
                ti.append(i)
                tj.append(j)
                tk.append(self.index[tuple(x + y for x, y in zip(ai, aj))])
        self.mul_ti = np.array(ti, dtype=np.int32)
        self.mul_tj = np.array(tj, dtype=np.int32)
        self.mul_tk = np.array(tk, dtype=np.int32)
        # Gather tables for d/dx_v: coeff'[beta] = (beta_v + 1) * coeff[beta + e_v].
        src = np.zeros((n, self.n_terms), dtype=np.intp)
        fac = np.zeros((n, self.n_terms), dtype=np.float64)
        for v in range(n):
            for b, beta in enumerate(alphas):
                if sum(beta) >= order:
                    continue
                up = tuple(x + (1 if k == v else 0) for k, x in enumerate(beta))
                src[v, b] = self.index[up]
                fac[v, b] = beta[v] + 1
        self.deriv_src = src
        self.deriv_fac = fac
        self.deriv_fac_column = fac[:, :, None]
        self._slots = {}
        units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
        self.first = np.array([self.index[e] for e in units]) if order >= 1 else None
        self.second = self.second_fac = None
        if order >= 2:
            self.second = np.array(
                [[self.index[tuple(map(sum, zip(a, b)))] for b in units] for a in units]
            )
            self.second_fac = 1.0 + np.eye(n)

    def product_slots(self, batch: int) -> np.ndarray:
        """Output slot k*batch + b of each table term and column, flattened."""
        slots = self._slots.get(batch)
        if slots is None:
            slots = (self.mul_tk[:, None] * batch + np.arange(batch)).ravel()
            self._slots[batch] = slots
        return slots


@lru_cache(maxsize=None)
def get_context(n: int, order: int) -> JetContext:
    return JetContext(n, order)


class Series:
    """One scalar quantity as a truncated Taylor expansion in the chart variables.

    `c` has shape (n_terms,) at one chart point and (n_terms, B) for a batch
    of B points.  Scalars combined with a batch may be floats or (B,) arrays
    of per-column values.
    """

    __slots__ = ("ctx", "c")
    # ndarray (op) Series must reach the reflected Series methods below,
    # not build an object array
    __array_ufunc__ = None

    def __init__(self, ctx: JetContext, coeffs: np.ndarray):
        self.ctx = ctx
        self.c = coeffs

    @classmethod
    def constant(cls, ctx: JetContext, value, batch=None) -> "Series":
        c = np.zeros(ctx.n_terms if batch is None else (ctx.n_terms, batch))
        c[0] = value
        return cls(ctx, c)

    @classmethod
    def variable(cls, ctx: JetContext, i: int, value) -> "Series":
        """x_i at a float value, or at the (B,) array of a batch."""
        value = as_value(value)
        c = np.zeros((ctx.n_terms,) + (value.shape if isinstance(value, np.ndarray) else ()))
        c[0] = value
        if ctx.order >= 1:
            c[ctx.first[i]] = 1.0
        return cls(ctx, c)

    @property
    def batch(self) -> Optional[int]:
        """The number of columns, None at one point."""
        return self.c.shape[1] if self.c.ndim == 2 else None

    @property
    def val(self):
        """The value: a float at one point, a (B,) array on a batch."""
        return float(self.c[0]) if self.c.ndim == 1 else self.c[0]

    def slots(self, index) -> np.ndarray:
        """Coefficients at the slot array `index`, the batch axis first."""
        out = self.c[index]
        return out if self.c.ndim == 1 else np.moveaxis(out, -1, 0)

    def copy(self) -> "Series":
        return Series(self.ctx, self.c.copy())

    def derivative(self, v: int) -> "Series":
        """Series of the partial derivative along variable v.

        The top-degree coefficients of the result are not determined by a
        truncated expansion and are set to zero.
        """
        ctx = self.ctx
        fac = ctx.deriv_fac[v] if self.c.ndim == 1 else ctx.deriv_fac_column[v]
        return Series(ctx, self.c[ctx.deriv_src[v]] * fac)

    def __add__(self, other):
        if isinstance(other, Series):
            return Series(self.ctx, self.c + other.c)
        out = self.c.copy()
        out[0] += other
        return Series(self.ctx, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Series):
            return Series(self.ctx, self.c - other.c)
        out = self.c.copy()
        out[0] -= other
        return Series(self.ctx, out)

    def __rsub__(self, other):
        out = -self.c
        out[0] += other
        return Series(self.ctx, out)

    def __mul__(self, other):
        if isinstance(other, Series):
            ctx = self.ctx
            terms = self.c[ctx.mul_ti] * other.c[ctx.mul_tj]
            if terms.ndim == 1:
                return Series(ctx, np.bincount(ctx.mul_tk, terms, ctx.n_terms))
            batch = terms.shape[1]
            out = np.bincount(ctx.product_slots(batch), terms.ravel(), ctx.n_terms * batch)
            return Series(ctx, out.reshape(ctx.n_terms, batch))
        if not isinstance(other, np.ndarray):
            other = float(other)
        return Series(self.ctx, self.c * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self * _reciprocal(other)
        if not isinstance(other, np.ndarray):
            other = float(other)
        return Series(self.ctx, self.c / other)

    def __rtruediv__(self, other):
        return _reciprocal(self) * other

    def __neg__(self):
        return Series(self.ctx, -self.c)

    def __pos__(self):
        return self

    def __pow__(self, p):
        if isinstance(p, Series):
            raise TypeError("series-valued exponents are not supported")
        if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
            k = int(p)
            if k < 0:
                return _reciprocal(self.__pow__(-k))
            result = Series.constant(self.ctx, 1.0, self.batch)
            base = self
            while k:
                if k & 1:
                    result = result * base
                base = base * base
                k >>= 1
            return result
        v = self.val
        reject(v <= 0.0, lambda: PrimitiveDomainError("pow", v))
        p = float(p)

        def table(v):
            return [v ** p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2),
                    p * (p - 1) * (p - 2) * v ** (p - 3)]

        return _compose(self, column_table(table, v))

    def __rpow__(self, base):
        b = float(base)
        if b <= 0.0:
            raise PrimitiveDomainError("pow", b)
        return exp(self * math.log(b))

    def __repr__(self):
        return f"Series(n={self.ctx.n}, order={self.ctx.order}, batch={self.batch})"


def _compose(x: Series, deriv_values) -> Series:
    """Series of g(x) given derivative values [g(x0), g'(x0), ...] at x0 = x.val
    (floats, or (B,) arrays on a batch)."""
    ctx = x.ctx
    order = ctx.order
    ftilde = x.copy()
    ftilde.c[0] = 0.0
    result = Series.constant(ctx, deriv_values[order] / math.factorial(order), x.batch)
    for k in range(order - 1, -1, -1):
        result = result * ftilde
        result.c[0] += deriv_values[k] / math.factorial(k)
    return result


def compose_univariate(x: Series, deriv_values) -> Series:
    """Series of g(x) from the derivative table [g(v), g'(v), ...] at v = x.val.

    Covers scalar profiles whose derivatives are known analytically even when
    g itself is only available numerically (an antiderivative, say).  The
    table must reach the context order.
    """
    if len(deriv_values) < x.ctx.order + 1:
        raise ValueError("derivative table shorter than context order")
    return _compose(x, deriv_values)


def _reciprocal_table(v):
    return [1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3, -6.0 / v ** 4]


def _reciprocal(x: Series) -> Series:
    v = x.val
    reject(v == 0.0, lambda: PrimitiveDomainError("reciprocal", v))
    return _compose(x, column_table(_reciprocal_table, v))


def _unary(name: str, float_fn, table_fn, domain_ok=None):
    def check(v):
        if domain_ok is not None:
            require(domain_ok(v), lambda: PrimitiveDomainError(name, v))

    def fn(x):
        if isinstance(x, Series):
            v = x.val
            check(v)
            return _compose(x, column_table(table_fn, v))
        v = as_value(x)
        check(v)
        return column_map(float_fn, v)

    fn.__name__ = name
    fn.__qualname__ = name
    return fn


def _exp_table(v):
    e = math.exp(v)
    return [e, e, e, e]


def _log_table(v):
    return [math.log(v), 1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3]


def _sin_table(v):
    s, c = math.sin(v), math.cos(v)
    return [s, c, -s, -c]


def _cos_table(v):
    s, c = math.sin(v), math.cos(v)
    return [c, -s, -c, s]


def _tan_table(v):
    t = math.tan(v)
    w = 1.0 + t * t
    return [t, w, 2.0 * t * w, w * (2.0 + 6.0 * t * t)]


def _sinh_table(v):
    s, c = math.sinh(v), math.cosh(v)
    return [s, c, s, c]


def _cosh_table(v):
    s, c = math.sinh(v), math.cosh(v)
    return [c, s, c, s]


def _tanh_table(v):
    u = math.tanh(v)
    w = 1.0 - u * u
    return [u, w, -2.0 * u * w, w * (6.0 * u * u - 2.0)]


def _arctan_table(v):
    w = 1.0 + v * v
    return [math.atan(v), 1.0 / w, -2.0 * v / w ** 2, (6.0 * v * v - 2.0) / w ** 3]


def _arcsin_table(v):
    s = math.sqrt(1.0 - v * v)
    return [math.asin(v), 1.0 / s, v / s ** 3, (1.0 + 2.0 * v * v) / s ** 5]


def _arccos_table(v):
    s = math.sqrt(1.0 - v * v)
    return [math.acos(v), -1.0 / s, -v / s ** 3, -(1.0 + 2.0 * v * v) / s ** 5]


def _arcsinh_table(v):
    c = math.sqrt(1.0 + v * v)
    return [math.asinh(v), 1.0 / c, -v / c ** 3, (2.0 * v * v - 1.0) / c ** 5]


def _arccosh_table(v):
    s = math.sqrt(v * v - 1.0)
    return [math.acosh(v), 1.0 / s, -v / s ** 3, (2.0 * v * v + 1.0) / s ** 5]


def _arctanh_table(v):
    w = 1.0 - v * v
    return [math.atanh(v), 1.0 / w, 2.0 * v / w ** 2, (2.0 + 6.0 * v * v) / w ** 3]


def _sqrt_table(v):
    r = math.sqrt(v)
    return [r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v)]


exp = _unary("exp", math.exp, _exp_table)
log = _unary("log", math.log, _log_table, lambda v: v > 0.0)
sin = _unary("sin", math.sin, _sin_table)
cos = _unary("cos", math.cos, _cos_table)
tan = _unary("tan", math.tan, _tan_table)
sinh = _unary("sinh", math.sinh, _sinh_table)
cosh = _unary("cosh", math.cosh, _cosh_table)
tanh = _unary("tanh", math.tanh, _tanh_table)
arctan = _unary("arctan", math.atan, _arctan_table)
arcsin = _unary("arcsin", math.asin, _arcsin_table, lambda v: abs(v) < 1.0)
arccos = _unary("arccos", math.acos, _arccos_table, lambda v: abs(v) < 1.0)
arcsinh = _unary("arcsinh", math.asinh, _arcsinh_table)
arccosh = _unary("arccosh", math.acosh, _arccosh_table, lambda v: v > 1.0)
arctanh = _unary("arctanh", math.atanh, _arctanh_table, lambda v: abs(v) < 1.0)
sqrt = _unary("sqrt", math.sqrt, _sqrt_table, lambda v: v > 0.0)


def dot(u: Sequence, v: Sequence):
    """Inner product of two equal-length sequences of scalars or Series."""
    if len(u) != len(v):
        raise ValueError("dot of unequal lengths")
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def norm_sq(v: Sequence):
    return dot(v, v)


def in_box(point, box):
    """Whether a point (n,) lies in the per-axis (low, high) box, or the
    (B,) mask of a batch (B, n) of points; no box holds everything."""
    point = np.asarray(point, dtype=np.float64)
    if point.ndim == 1:
        return all(lo <= x <= hi for x, (lo, hi) in zip(point, box or ()))
    inside = np.ones(len(point), dtype=bool)
    for i, (lo, hi) in enumerate(box or ()):
        inside &= (lo <= point[:, i]) & (point[:, i] <= hi)
    return inside


@dataclass(frozen=True)
class SmoothMap:
    """A callable over the primitive vocabulary with declared arity.

    `fn` receives a list of scalars (floats or Series, never mixed) and
    returns a scalar or a sequence of scalars.  `domain`, when present, is a
    per-axis (low, high) box used by the finite-difference oracle to keep
    stencils inside valid territory.
    """

    fn: Callable
    n_inputs: int
    n_outputs: int = 1
    name: str = ""
    domain: Optional[tuple] = None

    def __call__(self, args):
        return self.fn(args)

    def contains(self, point):
        """Whether the point lies in the domain box; a (B,) mask for a (B, n) batch."""
        return in_box(point, self.domain)


class Jet:
    """Truncated Taylor expansion of a map at a point.

    Stores one coefficient slot per unordered multi-index, so symmetry of
    mixed partials holds by construction.  `partial` reports true
    derivative values (Taylor coefficients scaled by the multi-index
    factorial).
    """

    __slots__ = ("ctx", "taylor")

    def __init__(self, ctx: JetContext, taylor: np.ndarray):
        self.ctx = ctx
        self.taylor = taylor  # shape (n_outputs, n_terms)

    @property
    def n_inputs(self) -> int:
        return self.ctx.n

    @property
    def n_outputs(self) -> int:
        return self.taylor.shape[0]

    @property
    def order(self) -> int:
        return self.ctx.order

    @property
    def value(self) -> np.ndarray:
        return self.taylor[:, 0].copy()

    @property
    def jacobian(self) -> np.ndarray:
        ctx = self.ctx
        if ctx.order < 1:
            return np.zeros((self.n_outputs, ctx.n))
        return self.taylor[:, ctx.first]

    def hessian(self) -> np.ndarray:
        ctx = self.ctx
        if ctx.order < 2:
            raise ValueError("hessian requires order >= 2")
        return self.taylor[:, ctx.second] * ctx.second_fac

    def series(self, component: int) -> Series:
        return Series(self.ctx, self.taylor[component].copy())


def as_series(value, ctx: JetContext, batch=None) -> Series:
    """`value` itself if it is a Series, else the constant Series of its
    value (a float, or a (B,) array for a batch of `batch` columns)."""
    return value if isinstance(value, Series) else Series.constant(ctx, as_value(value), batch)


def _as_series_list(result, ctx, batch):
    if isinstance(result, Series):
        result = [result]
    return [as_series(r, ctx, batch) for r in result]


def eval_series(map_fn, point, order: int):
    """Evaluate a smooth map on Series arguments at a point (n,) or a batch
    (B, n) of points; returns a list of Series."""
    point = np.asarray(point, dtype=np.float64)
    ctx = get_context(point.shape[-1], order)
    batch = point.shape[0] if point.ndim == 2 else None
    fn = map_fn.fn if isinstance(map_fn, SmoothMap) else map_fn
    if isinstance(map_fn, SmoothMap):
        require(
            map_fn.contains(point),
            lambda: ChartDomainError(
                f"point {format_point(point)} outside the map's declared domain"
            ),
        )
    xs = [Series.variable(ctx, i, point[..., i]) for i in range(ctx.n)]
    try:
        result = fn(xs)
    except PrimitiveDomainError as err:
        if batch is not None:
            raise  # a float-valued step failed for every column alike
        raise err.with_point(point) from None
    return _as_series_list(result, ctx, batch)


def jet_eval(map_fn, point, order: int) -> Jet:
    """Jet of a smooth map at a point; degree-k slots hold exact k-th partials."""
    outs = eval_series(map_fn, point, order)
    ctx = outs[0].ctx
    taylor = np.stack([s.c for s in outs])
    return Jet(ctx, taylor)


@dataclass(frozen=True)
class FdScheme:
    """Central finite-difference settings.

    `step` of None means the default 1e-4 * max(1, |point|); `order` is the
    stencil accuracy; `richardson` combines estimates at h and h/2 to cancel
    the leading error term.
    """

    step: Optional[float] = None
    order: int = 2
    richardson: bool = True

    def __post_init__(self):
        if self.step is not None and not self.step > 0.0:
            raise ValueError("step must be positive")
        if self.order not in (2, 4):
            raise ValueError("stencil accuracy must be 2 or 4")

    def resolve_step(self, point) -> float:
        if self.step is not None:
            return self.step
        return 1e-4 * max(1.0, float(np.linalg.norm(point)))


_STENCILS = {
    (1, 2): ((-1, 1), (-0.5, 0.5)),
    (1, 4): ((-2, -1, 1, 2), (1 / 12, -8 / 12, 8 / 12, -1 / 12)),
    (2, 2): ((-1, 0, 1), (1.0, -2.0, 1.0)),
    (2, 4): ((-2, -1, 0, 1, 2), (-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12)),
    (3, 2): ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    (3, 4): ((-3, -2, -1, 1, 2, 3), (1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8)),
}


def _fd_estimate(map_fn, point, multi_index, h: float, acc: int):
    fn = map_fn.fn if isinstance(map_fn, SmoothMap) else map_fn
    axes = [i for i, d in enumerate(multi_index) if d > 0]
    grids = [_STENCILS[(multi_index[i], acc)] for i in axes]
    total_deg = sum(multi_index)
    acc_val = 0.0
    idx = [0] * len(axes)
    while True:
        offset = np.zeros(len(point))
        weight = 1.0
        for k, i in enumerate(axes):
            offs, wts = grids[k]
            offset[i] = offs[idx[k]]
            weight *= wts[idx[k]]
        if weight != 0.0:
            pt = point + h * offset
            if isinstance(map_fn, SmoothMap) and not map_fn.contains(pt):
                raise StencilDomainError(pt)
            try:
                val = fn([float(c) for c in pt])
            except PrimitiveDomainError as err:
                raise StencilDomainError(pt, f"hit a primitive domain edge: {err}") from None
            if not np.isscalar(val) and not isinstance(val, float):
                val = np.asarray(val, dtype=float)
                if val.size != 1:
                    raise ValueError("fd_derivative expects a scalar-valued map")
                val = float(val.reshape(()))
            acc_val += weight * float(val)
        for k in range(len(axes) - 1, -1, -1):
            idx[k] += 1
            if idx[k] < len(grids[k][0]):
                break
            idx[k] = 0
        else:
            break
    return acc_val / h ** total_deg


def fd_derivative(map_fn, point, multi_index, scheme: FdScheme = FdScheme()) -> float:
    """Central-difference estimate of one partial derivative of a scalar map."""
    point = np.asarray(point, dtype=np.float64)
    multi_index = tuple(int(d) for d in multi_index)
    if len(multi_index) != point.shape[0]:
        raise ValueError("multi-index length must match the point dimension")
    deg = sum(multi_index)
    if not 1 <= deg <= MAX_ORDER:
        raise ValueError(f"multi-index degree must lie in 1..{MAX_ORDER}")
    if any(d < 0 for d in multi_index):
        raise ValueError("multi-index entries must be nonnegative")
    h = scheme.resolve_step(point)
    coarse = _fd_estimate(map_fn, point, multi_index, h, scheme.order)
    if not scheme.richardson:
        return coarse
    fine = _fd_estimate(map_fn, point, multi_index, h / 2.0, scheme.order)
    gain = 2.0 ** scheme.order
    return (gain * fine - coarse) / (gain - 1.0)


_EXPR_FUNCS = {
    "exp": exp, "log": log, "sin": sin, "cos": cos, "tan": tan,
    "sinh": sinh, "cosh": cosh, "tanh": tanh,
    "arcsin": arcsin, "arccos": arccos, "arctan": arctan,
    "arcsinh": arcsinh, "arccosh": arccosh, "arctanh": arctanh,
    "sqrt": sqrt,
}

_EXPR_CONSTS = {"pi": math.pi, "e": math.e}


def parse_expression(expr: str, variables: Sequence[str]) -> Callable:
    """Compile an expression string over the primitive vocabulary.

    Returns a callable taking a sequence of scalars (floats or Series) in
    the order of `variables`.  Only arithmetic, the exported primitives and
    the constants pi and e are allowed; anything else is rejected.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as err:
        raise ValueError(f"cannot parse expression {expr!r}: {err}") from None
    slot = {name: i for i, name in enumerate(variables)}

    def build(node):
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
                v = float(node.value)
                return lambda xs: v
            raise ValueError(f"literal {node.value!r} not allowed in expressions")
        if isinstance(node, ast.Name):
            if node.id in slot:
                i = slot[node.id]
                return lambda xs: xs[i]
            if node.id in _EXPR_CONSTS:
                v = _EXPR_CONSTS[node.id]
                return lambda xs: v
            raise ValueError(f"unknown name {node.id!r} in expression")
        if isinstance(node, ast.BinOp):
            lhs, rhs = build(node.left), build(node.right)
            op = type(node.op)
            if op is ast.Add:
                return lambda xs: lhs(xs) + rhs(xs)
            if op is ast.Sub:
                return lambda xs: lhs(xs) - rhs(xs)
            if op is ast.Mult:
                return lambda xs: lhs(xs) * rhs(xs)
            if op is ast.Div:
                return lambda xs: lhs(xs) / rhs(xs)
            if op is ast.Pow:
                return lambda xs: lhs(xs) ** rhs(xs)
            raise ValueError(f"operator {op.__name__} not allowed in expressions")
        if isinstance(node, ast.UnaryOp):
            arg = build(node.operand)
            if isinstance(node.op, ast.USub):
                return lambda xs: -arg(xs)
            if isinstance(node.op, ast.UAdd):
                return arg
            raise ValueError("unary operator not allowed in expressions")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                raise ValueError("only plain calls to known primitives are allowed")
            fname = node.func.id
            if fname not in _EXPR_FUNCS:
                raise ValueError(f"unknown function {fname!r} in expression")
            if len(node.args) != 1:
                raise ValueError(f"{fname} takes exactly one argument")
            f = _EXPR_FUNCS[fname]
            arg = build(node.args[0])
            return lambda xs: f(arg(xs))
        raise ValueError(f"unsupported syntax {type(node).__name__} in expression")

    body = build(tree)

    def evaluate(xs):
        return body(list(xs))

    evaluate.__name__ = f"expr<{expr}>"
    return evaluate
