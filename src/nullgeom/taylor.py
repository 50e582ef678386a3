"""Truncated multivariate Taylor-jet differentiation, orders 0 through 3.

A smooth map is any callable written against this module's primitive
vocabulary (arithmetic plus the functions exported below), wrapped in a
`SmoothMap` with its arity and domain.  Called with plain floats it
evaluates normally; `eval_series` calls it with `Series` arguments, which
propagate truncated Taylor expansions whose coefficients give exact
partial derivatives.

Internally a scalar quantity is a dense coefficient vector indexed by the
multi-indices of total degree <= order in graded lexicographic order; the
stored numbers are Taylor coefficients (partial derivative over factorial
of the multi-index), so multiplication is a truncated convolution.  A
`Series` may also hold a vector or a matrix of such quantities along
component axes, and a batch of B chart points carries one coefficient
column per point on a trailing axis: coefficients are shaped
(n_terms, *components[, B]).  The convolution is the hot kernel, the same
for a scalar, a vector, a matrix and a batch: one `np.bincount` over the
context's (i, j, k) table, with slot k*W + w for entry w of the flattened
trailing axes, so every entry accumulates in table order exactly as a lone
scalar at one point does; a large batch product runs in blocks of columns,
which keeps its temporaries small.  Sums over a component axis run left to
right.
Derivative tables of the primitives are computed one column at a time with
`math`, whose last bits numpy's ufuncs do not always reproduce; a float
overflow there, a math domain error (the sine of an infinity), or a
division by a power that underflowed to zero is a domain error of the
primitive.

A check that fails at one point raises its typed error; on a batch it
raises `BatchRejected`, which carries each failing column's typed error,
the one that column raises alone.  `column_results` is the one way a batch
learns why its columns fail: it keeps the errors of the flagged columns
and evaluates the rest again as a batch, so no column is evaluated alone.
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

# table terms of one bincount call on a batch: 16,384 float64 terms are
# 128 KiB, glibc's default mmap threshold, above which the temporaries of
# a product are mapped afresh and page-faulted in on every call
_BLOCK_TERMS = 1 << 14


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


class BatchRejected(Exception):
    """Columns of a batch that failed a check: `errors` maps each to the
    typed error it raises alone.

    Deliberately neither a `DomainError` nor a `ValueError`, so that no
    handler of typed rejections catches it: `column_results` does.
    """

    def __init__(self, errors: dict):
        self.errors = errors
        super().__init__(f"{len(errors)} columns rejected")


def column(b):
    """The column picker `at` of an error factory: at(a) is column b of a
    per-point value laid out batch first (a Python scalar for a number), or
    a itself at one point, where b is None."""
    if b is None:
        return lambda a: a

    def at(a):
        out = a[b]
        return out.item() if isinstance(out, np.generic) else out

    return at


def reject(bad, error):
    """Raise for failing columns: `error(at)`, the typed error built from
    the values that the column picker `at` picks, when `bad` is one point's
    flag, and `BatchRejected` of `error(column(b))` for each flagged column
    b when it is a batch's (B,) mask."""
    if not isinstance(bad, np.ndarray) or not bad.ndim:
        if bad:
            raise error(column(None))
    elif bad.any():
        raise BatchRejected({b: error(column(b)) for b in np.flatnonzero(bad).tolist()})


def require(ok, error):
    """`reject` where `ok` fails, for checks stated as a condition that must
    hold, so that a NaN fails them as it does `if not ok: raise`."""
    if isinstance(ok, np.ndarray) and ok.ndim:
        reject(~ok, error)
    elif not ok:
        raise error(column(None))


def column_results(fn, xs, first: bool = False) -> list:
    """The list of each column's result or typed error, fn evaluating the
    columns xs (B, ...) as one batch and returning its per-column results.

    Where fn raises `BatchRejected`, the flagged columns keep their errors
    and the rest are evaluated again as one batch; with `first`, only those
    before the first failing column, whose error then ends the list."""
    out = [None] * len(xs)
    pending = np.arange(len(xs))
    while pending.size:
        try:
            done = fn(xs[pending])
        except BatchRejected as err:
            for b, e in err.errors.items():
                out[pending[b]] = e
            if first:
                stop = min(err.errors)
                del out[pending[stop] + 1:]
                pending = pending[:stop]
            else:
                pending = np.delete(pending, list(err.errors))
            continue
        for i, result in zip(pending.tolist(), done):
            out[i] = result
        break
    return out


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
    out, errors = [], {}
    for b, v in enumerate(values.tolist()):
        try:
            out.append(fn(v))
        except (ValueError, ArithmeticError) as err:
            errors[b] = err
    if errors:
        raise BatchRejected(errors)
    return out


def column_map(fn, values):
    """fn of a float value, or of each column of a (B,) array, as an array;
    a column whose call raises a `ValueError` (a `DomainError` among them)
    or an `ArithmeticError` is rejected with that error."""
    if not isinstance(values, np.ndarray) or not values.ndim:
        return fn(values)
    return np.array(_per_column(fn, values))


def column_table(fn, values):
    """A derivative table [g(v), g'(v), ...] of a float v, or, for a (B,)
    array, the list of per-entry arrays over its columns; columns rejected
    as by `column_map`."""
    if not isinstance(values, np.ndarray) or not values.ndim:
        return fn(values)
    return [np.array(entry) for entry in zip(*_per_column(fn, values))]


class JetContext:
    """Index tables for one (n_inputs, order) pair; cached, and immutable
    apart from the memo of `product_slots` per product width.

    `first[i]` is the slot of d/dx_i; `second[i, j]` is the slot of
    d^2/dx_i dx_j, whose Taylor coefficient times `second_fac[i, j]` (2 on
    the diagonal, 1 off it) is the derivative.  Both are None below the
    order they need.
    """

    __slots__ = (
        "n", "order", "alphas", "index", "n_terms", "factorials",
        "mul_ti", "mul_tj", "mul_tk", "deriv_src", "deriv_fac",
        "first", "second", "second_fac", "_slots",
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
        self.mul_ti = np.array(ti, dtype=np.intp)
        self.mul_tj = np.array(tj, dtype=np.intp)
        self.mul_tk = np.array(tk, dtype=np.intp)
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
        self._slots = {}
        units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
        self.first = np.array([self.index[e] for e in units]) if order >= 1 else None
        self.second = self.second_fac = None
        if order >= 2:
            self.second = np.array(
                [[self.index[tuple(map(sum, zip(a, b)))] for b in units] for a in units]
            )
            self.second_fac = 1.0 + np.eye(n)

    def product_slots(self, width: int) -> np.ndarray:
        """Output slot k*width + w of each table term and entry, flattened."""
        slots = self._slots.get(width)
        if slots is None:
            slots = (self.mul_tk[:, None] * width + np.arange(width)).ravel()
            self._slots[width] = slots
        return slots


@lru_cache(maxsize=None)
def get_context(n: int, order: int) -> JetContext:
    return JetContext(n, order)


def _product(ctx: JetContext, a: np.ndarray, b: np.ndarray, batch: bool) -> np.ndarray:
    """The truncated product of two coefficient arrays whose trailing axes
    broadcast against each other: one `np.bincount` over the flattened
    trailing axes, each entry accumulated in table order.

    On a batch (the last axis holds the columns) the product runs in
    blocks of columns of at most `_BLOCK_TERMS` table terms."""
    if batch:
        shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
        step = max(1, _BLOCK_TERMS // (len(ctx.mul_ti) * math.prod(shape[:-1])))
        if step < shape[-1]:
            return np.concatenate([
                _product(ctx, a[..., lo:lo + step], b[..., lo:lo + step], False)
                for lo in range(0, shape[-1], step)
            ], axis=-1)
    terms = a.take(ctx.mul_ti, axis=0) * b.take(ctx.mul_tj, axis=0)
    if terms.ndim == 1:
        return np.bincount(ctx.mul_tk, terms, ctx.n_terms)
    width = terms.size // len(terms)
    out = np.bincount(ctx.product_slots(width), terms.ravel(), ctx.n_terms * width)
    return out.reshape((ctx.n_terms,) + terms.shape[1:])


class Series:
    """A truncated Taylor expansion in the chart variables: one scalar
    quantity, or a vector or matrix of them along the component axes
    `shape`.

    `c` has shape (n_terms, *shape) at one chart point and
    (n_terms, *shape, B) for a batch of B points.  Components index and
    broadcast like numpy arrays, the batch axis riding along last.  Scalars
    combined with a Series may be floats, (B,) arrays of per-column values,
    or arrays of values over its trailing component and batch axes.
    """

    __slots__ = ("ctx", "c", "shape")
    # ndarray (op) Series must reach the reflected Series methods below,
    # not build an object array
    __array_ufunc__ = None

    def __init__(self, ctx: JetContext, coeffs: np.ndarray, shape: tuple = ()):
        self.ctx = ctx
        self.c = coeffs
        self.shape = shape

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

    @classmethod
    def stack(cls, items, ctx: JetContext, batch=None) -> "Series":
        """Series of equal shape, or values made constant, stacked along a
        new first component axis."""
        items = [as_series(x, ctx, batch) for x in items]
        c = np.stack([s.c for s in items], axis=1)
        return cls(ctx, c, (len(items),) + items[0].shape)

    def _batch_axes(self) -> int:
        return self.c.ndim - 1 - len(self.shape)

    def _with(self, coeffs: np.ndarray) -> "Series":
        """A Series of `coeffs`, which keep this one's batch axis."""
        end = coeffs.ndim - (self.c.ndim - 1 - len(self.shape))
        return Series(self.ctx, coeffs, coeffs.shape[1:end])

    def _aligned(self, other: "Series"):
        """Both coefficient arrays, the shorter component shape padded with
        leading unit axes so that the components broadcast as numpy's do."""
        k = max(len(self.shape), len(other.shape))
        return tuple(
            s.c.reshape(s.c.shape[:1] + (1,) * (k - len(s.shape)) + s.c.shape[1:])
            for s in (self, other)
        )

    @property
    def batch(self) -> Optional[int]:
        """The number of columns, None at one point."""
        return self.c.shape[-1] if self._batch_axes() else None

    @property
    def val(self):
        """The value: a float for a scalar at one point, else the array of
        component values with any batch axis last."""
        return float(self.c[0]) if self.c.ndim == 1 else self.c[0]

    def slots(self, index) -> np.ndarray:
        """Coefficients at the slot array `index`, the batch axis first."""
        out = self.c[index]
        return np.moveaxis(out, -1, 0) if self._batch_axes() else out

    def __getitem__(self, key) -> "Series":
        """Components by numpy indexing of the component axes."""
        if not self.shape:
            raise TypeError("a scalar series has no components")
        if not isinstance(key, tuple):
            key = (key,)
        if any(k is Ellipsis for k in key):  # it stands for component axes only
            key = key + (slice(None),) * self._batch_axes()
        return self._with(self.c[(slice(None),) + key])

    def transpose(self, *axes) -> "Series":
        """The component axes permuted as numpy's `transpose` does."""
        k = len(self.shape)
        order = (0,) + tuple(1 + a for a in axes) + tuple(range(1 + k, self.c.ndim))
        return self._with(self.c.transpose(order))

    def sum(self, axis: int = -1, start=None) -> "Series":
        """The sum over one component axis, left to right.  A float `start`
        is added to the first entry first, as Python's `sum` adds its start
        0 (which makes a -0.0 value +0.0)."""
        axis %= len(self.shape)
        lead = (slice(None),) * (1 + axis)
        acc = self.c[lead + (0,)].copy()
        if start is not None:
            acc[0] += start
        for k in range(1, self.shape[axis]):
            acc += self.c[lead + (k,)]
        return self._with(acc)

    def derivative(self, v: int) -> "Series":
        """Series of the partial derivative along variable v.

        The top-degree coefficients of the result are not determined by a
        truncated expansion and are set to zero.
        """
        ctx = self.ctx
        fac = ctx.deriv_fac[v]
        if self.c.ndim > 1:
            fac = fac.reshape(fac.shape + (1,) * (self.c.ndim - 1))
        return Series(ctx, self.c.take(ctx.deriv_src[v], axis=0) * fac, self.shape)

    def gradient(self) -> "Series":
        """The partial derivatives along every variable, as `derivative`
        gives them, on a new first component axis."""
        ctx = self.ctx
        fac = ctx.deriv_fac.T.reshape(ctx.deriv_fac.T.shape + (1,) * (self.c.ndim - 1))
        c = self.c.take(ctx.deriv_src.T, axis=0) * fac
        return Series(ctx, c, (ctx.n,) + self.shape)

    def __add__(self, other):
        if isinstance(other, Series):
            if other.shape == self.shape:
                return Series(self.ctx, self.c + other.c, self.shape)
            a, b = self._aligned(other)
            return self._with(a + b)
        out = self.c.copy()
        out[0] += other
        return Series(self.ctx, out, self.shape)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Series):
            if other.shape == self.shape:
                return Series(self.ctx, self.c - other.c, self.shape)
            a, b = self._aligned(other)
            return self._with(a - b)
        out = self.c.copy()
        out[0] -= other
        return Series(self.ctx, out, self.shape)

    def __rsub__(self, other):
        out = -self.c
        out[0] += other
        return Series(self.ctx, out, self.shape)

    def __mul__(self, other):
        if isinstance(other, Series):
            ctx, shape = self.ctx, self.shape
            if other.shape == shape:
                batch = self.c.ndim > 1 + len(shape)
                return Series(ctx, _product(ctx, self.c, other.c, batch), shape)
            return self._with(_product(ctx, *self._aligned(other), self._batch_axes() > 0))
        if not isinstance(other, np.ndarray):
            return Series(self.ctx, self.c * float(other), self.shape)
        return self._with(self.c * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self * _reciprocal(other)
        if not isinstance(other, np.ndarray):
            return Series(self.ctx, self.c / float(other), self.shape)
        return self._with(self.c / other)

    def __rtruediv__(self, other):
        return _reciprocal(self) * other

    def __neg__(self):
        return Series(self.ctx, -self.c, self.shape)

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
        v = _scalar_val(self)
        reject(v <= 0.0, lambda at: PrimitiveDomainError("pow", at(v)))
        p = float(p)

        def table(v):
            return [v ** p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2),
                    p * (p - 1) * (p - 2) * v ** (p - 3)]

        return _compose(self, _primitive_values("pow", column_table, table, v))

    def __rpow__(self, base):
        b = float(base)
        if b <= 0.0:
            raise PrimitiveDomainError("pow", b)
        return exp(self * math.log(b))

    def __repr__(self):
        return (
            f"Series(n={self.ctx.n}, order={self.ctx.order}, shape={self.shape}, "
            f"batch={self.batch})"
        )


def _scalar_val(x: Series):
    """The value of a scalar Series, the argument of a univariate primitive;
    a vector or a matrix is refused, its components not being a batch."""
    if x.shape:
        raise TypeError(f"univariate primitive of a series of shape {x.shape}")
    return x.val


def _compose(x: Series, deriv_values) -> Series:
    """Series of g(x) given derivative values [g(x0), g'(x0), ...] at x0 = x.val
    (floats, or (B,) arrays on a batch)."""
    ctx = x.ctx
    order = ctx.order
    batch = x.batch is not None
    ftilde = x.c.copy()
    ftilde[0] = 0.0
    result = np.zeros_like(ftilde)
    result[0] = deriv_values[order] / math.factorial(order)
    for k in range(order - 1, -1, -1):
        result = _product(ctx, result, ftilde, batch)
        result[0] += deriv_values[k] / math.factorial(k)
    return Series(ctx, result)


def compose_univariate(x: Series, deriv_values) -> Series:
    """Series of g(x) from the derivative table [g(v), g'(v), ...] at v = x.val.

    Covers scalar profiles whose derivatives are known analytically even when
    g itself is only available numerically (an antiderivative, say).  The
    table must reach the context order.
    """
    if len(deriv_values) < x.ctx.order + 1:
        raise ValueError("derivative table shorter than context order")
    _scalar_val(x)
    return _compose(x, deriv_values)


def _reciprocal_table(v):
    return [1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3, -6.0 / v ** 4]


def _reciprocal(x: Series) -> Series:
    v = _scalar_val(x)
    reject(v == 0.0, lambda at: PrimitiveDomainError("reciprocal", at(v)))
    return _compose(x, _primitive_values("reciprocal", column_table, _reciprocal_table, v))


def _primitive_values(name: str, over, fn, v):
    """`over(fn, v)`, the `column_map` or `column_table` of a `math` function
    of a primitive's argument v: a float overflow, a math domain error, or a
    division by a power of v that underflowed to zero is the primitive's
    domain error at one point, and its column's on a batch."""
    try:
        return over(fn, v)
    except (ValueError, ArithmeticError):
        raise PrimitiveDomainError(name, v) from None
    except BatchRejected as err:
        # every error here is math's, raised by its column's value
        errors = {b: PrimitiveDomainError(name, column(b)(v)) for b in err.errors}
        raise BatchRejected(errors) from None


def _unary(name: str, float_fn, table_fn, domain_ok=None):
    def check(v):
        if domain_ok is not None:
            require(domain_ok(v), lambda at: PrimitiveDomainError(name, at(v)))

    def fn(x):
        if isinstance(x, Series):
            v = _scalar_val(x)
            check(v)
            return _compose(x, _primitive_values(name, column_table, table_fn, v))
        v = as_value(x)
        check(v)
        return _primitive_values(name, column_map, float_fn, v)

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
    returns a sequence of `n_outputs` scalars.  `domain`, when present, is a
    per-axis (low, high) box outside which the map is not evaluated.
    """

    fn: Callable
    n_inputs: int
    n_outputs: int = 1
    name: str = ""
    domain: Optional[tuple] = None

    def contains(self, point):
        """Whether the point lies in the domain box; a (B,) mask for a (B, n) batch."""
        return in_box(point, self.domain)


def as_series(value, ctx: JetContext, batch=None) -> Series:
    """`value` itself if it is a Series, else the constant Series of its
    value (a float, or a (B,) array for a batch of `batch` columns)."""
    return value if isinstance(value, Series) else Series.constant(ctx, as_value(value), batch)


def _at_point(err, point):
    """A primitive's domain error with its evaluation point, or err itself."""
    return err.with_point(point) if isinstance(err, PrimitiveDomainError) else err


def eval_series(map_fn: SmoothMap, point, order: int):
    """Evaluate a smooth map on Series arguments at a point (n,) or a batch
    (B, n) of points inside its domain; returns a list of Series.

    A primitive's domain error carries its column's point; a typed error (a
    `ValueError`) of a float-valued step fails every column alike."""
    point = np.asarray(point, dtype=np.float64)
    ctx = get_context(point.shape[-1], order)
    batch = point.shape[0] if point.ndim == 2 else None
    require(
        map_fn.contains(point),
        lambda at: ChartDomainError(
            f"point {format_point(at(point))} outside the map's declared domain"
        ),
    )
    xs = [Series.variable(ctx, i, point[..., i]) for i in range(ctx.n)]
    try:
        result = map_fn.fn(xs)
    except BatchRejected as err:
        raise BatchRejected({b: _at_point(e, point[b]) for b, e in err.errors.items()}) from None
    except ValueError as err:
        if batch is None:
            raise _at_point(err, point) from None
        raise BatchRejected({b: _at_point(err, p) for b, p in enumerate(point)}) from None
    return [as_series(r, ctx, batch) for r in result]


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
