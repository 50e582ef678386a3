"""Truncated multivariate Taylor-jet differentiation, orders 0 through 3.

A smooth map is any callable written against this module's primitive
vocabulary (arithmetic plus the functions exported below), wrapped in a
`SmoothMap` with its arity and domain.  Called with plain floats it
evaluates normally; `eval_series` calls it with `Series` arguments over a
batch of chart points, which propagate truncated Taylor expansions whose
coefficients give exact partial derivatives, and returns its outputs as
one vector Series.

Internally a scalar quantity is a dense coefficient vector indexed by the
multi-indices of total degree <= order in graded lexicographic order; the
stored numbers are Taylor coefficients (partial derivative over factorial
of the multi-index), so multiplication is a truncated convolution.  A
`Series` may also hold a vector or a matrix of such quantities along
component axes, and always a batch of B chart points, one coefficient
column per point on a trailing axis: coefficients are shaped
(n_terms, *components, B); one point is a batch of one.  The convolution
is the hot kernel, the same for a scalar, a vector and a matrix: one
`np.bincount` over the context's (i, j, k) table, with slot k*W + w for
entry w of the flattened trailing axes, so every entry accumulates in
table order exactly as a lone scalar of one column does; a large product
runs in blocks of columns, which keeps its temporaries small.  Sums over a
component axis run left to right.  The product of order-k prefixes is the
order-k prefix of the product, entry for entry in table order, so
`Series.truncate` cuts a Series to a lower order as a prefix view; Series
of two contexts never combine (a `TypeError`: mixed orders are a
programming error, not a rejected point).  A primitive of a Series is
Horner's scheme in x - x0, one convolution per order, but of a chart
coordinate x_i its Taylor coefficients are placed in the slots of the
powers of x_i, with no product (Griewank and Walther, Evaluating
Derivatives, ch. 13).  Derivative tables of the primitives are numpy
expressions on the (B,) values, the expression of a plain float too, so
that the two agree bit for bit; a float overflow there, a domain error
(the sine of an infinity), or a division by a power that underflowed to
zero is a domain error of the primitive.  The engine
computes under `float_edges`, numpy's error state that lets inf and NaN
through without a warning, entered by the outermost public call; every
such value ends as a typed rejection.

A check that fails raises `BatchRejected`, which carries each failing
column's typed error, the one that column raises in a batch of its own.
One `Kept` holds the columns of a batch still evaluated and the error of
each refused one, so no column is evaluated alone: a check of values
already evaluated drops the flagged columns and selects the others from
those values (`Kept.drop`, as `immersion.geometry_columns` does after cone
membership and the metric's tests), and `Kept.run`, the package's one
loop that runs a stage again, evaluates a stage refused partway on the
other columns, as the chart map, the grid pass's extrinsic stages and the
sample checks do.  Every column ends with its result or its own error, so
the first failing sample of a batch is the least refused index, which
`per_index` and `per_sample` raise (one point is a batch of one).  An
integral's integrand is one more batch: `spacetime.quadrature` evaluates
the nodes of each round of its rule as one, and a rejected node rejects
its integral.
"""

from __future__ import annotations

import ast
import contextvars
import functools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable, Optional, Sequence

import numpy as np

MAX_ORDER = 3

# whether the engine's floating-point scope is entered, so that a call inside
# another engine call does not enter it again
_within_edges = contextvars.ContextVar("within_edges", default=False)

# table terms of one bincount call on a batch: 16,384 float64 terms are
# 128 KiB, glibc's default mmap threshold, above which the temporaries of
# a product are mapped afresh and page-faulted in on every call
_BLOCK_TERMS = 1 << 14


def float_edges(fn):
    """The engine's floating-point scope, a decorator of each public call
    (the primitives among them), entered by the outermost one: an overflow,
    an invalid operation or a division by zero gives inf or NaN without a
    warning, and every such value ends as a typed rejection."""
    scoped = np.errstate(over="ignore", invalid="ignore", divide="ignore")(fn)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if _within_edges.get():
            return fn(*args, **kwargs)
        token = _within_edges.set(True)
        try:
            return scoped(*args, **kwargs)
        finally:
            _within_edges.reset(token)

    return call


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
    typed error it raises in a batch of its own.

    Deliberately neither a `DomainError` nor a `ValueError`, so that no
    handler of typed rejections catches it: `Kept` does.
    """

    def __init__(self, errors: dict):
        self.errors = errors
        super().__init__(f"{len(errors)} columns rejected")


def column(b):
    """The column picker `at` of an error factory: at(a) is column b of a
    per-point value laid out batch first (a Python scalar for a number)."""

    def at(a):
        out = a[b]
        return out.item() if isinstance(out, np.generic) else out

    return at


def reject(bad, error):
    """Raise `BatchRejected` for the columns flagged by the (B,) mask `bad`:
    column b carries `error(column(b))`, the typed error built from the
    values that the column picker picks."""
    reject_first([(bad, error)])


def reject_first(checks):
    """`reject` of each (bad, error) check in order, raising once: one
    `BatchRejected` in which each flagged column carries the error of the
    first check that flags it."""
    errors = {}
    for bad, error in checks:
        if not np.count_nonzero(bad):
            continue
        for b in np.flatnonzero(bad).tolist():
            if b not in errors:
                errors[b] = error(column(b))
    if errors:
        raise BatchRejected(dict(sorted(errors.items())))


def require(ok, error):
    """`reject` where the (B,) mask `ok` fails, for checks stated as a condition
    that must hold, so that a NaN fails them as it does `if not ok: raise`."""
    if np.count_nonzero(ok) < len(ok):
        reject(~ok, error)


class Kept:
    """The columns of a batch still evaluated, as the array `index` of
    their indices in it, and `errors`, the typed error of each column
    refused so far by its index, in index order."""

    def __init__(self, count: int):
        self.index = np.arange(count)
        self.errors = {}

    def drop(self, err: BatchRejected) -> np.ndarray:
        """Keep the errors that err gives its columns, numbered by position
        among the columns still evaluated; the positions of the others, which
        a check of values already evaluated selects from them."""
        positions = np.delete(np.arange(len(self.index)), list(err.errors))
        self.errors.update((self.index[b].item(), e) for b, e in err.errors.items())
        self.errors = dict(sorted(self.errors.items()))
        self.index = self.index[positions]
        return positions

    def run(self, stage, state, select=operator.getitem):
        """stage(state), state holding the columns still evaluated: where it
        raises `BatchRejected`, the refused columns keep their errors and the
        stage runs again on select(state, positions of the others); None
        once no column is left.  The package's one loop that runs a stage
        again: only the stage runs again, so a caller hands it in state what
        is evaluated once for every column, as the grid pass hands its
        extrinsic stages the chart geometry of the kept columns."""
        while len(self.index):
            try:
                return stage(state)
            except BatchRejected as err:
                state = select(state, self.drop(err))
        return None


def column_results(fn, xs) -> list:
    """The list of each column's result or typed error, fn evaluating the
    columns xs (B, ...) as one batch (`Kept.run`) and returning its
    per-column results."""
    kept = Kept(len(xs))
    done = kept.run(fn, xs)
    out = [kept.errors.get(b) for b in range(len(xs))]
    for b, result in zip(kept.index.tolist(), () if done is None else done):
        out[b] = result
    return out


def per_index(fn, count: int):
    """fn's results for the samples 0..count-1, fn evaluating the index
    array of samples as one batch (`Kept.run`); where samples fail, the
    first of them raises its own typed error."""
    kept = Kept(count)
    results = kept.run(fn, np.arange(count))
    if kept.errors:
        raise kept.errors[min(kept.errors)]
    return [] if results is None else results


def per_sample(fn, samples):
    """fn's per-sample results, fn evaluating the samples stacked as one
    batch (S, ...); the first failing sample raises its own typed error."""
    xs = np.array(list(samples), dtype=np.float64)
    return per_index(lambda ks: fn(xs[ks]), len(xs))


def column_max(a, b):
    """Python's max(a, b) of two values, or per column of a batch: a unless
    b is greater."""
    return np.where(b > a, b, a)


@lru_cache(maxsize=None)
def _last_first(ndim: int) -> tuple:
    """The axes of an array of `ndim` axes with its last axis moved first."""
    return (ndim - 1,) + tuple(range(ndim - 1))


def batch_first(values) -> np.ndarray:
    """An array of per-point values (nested lists of (B,) arrays, or an
    array with the batch axis last) with the batch axis first, C-contiguous."""
    out = np.asarray(values)
    return np.ascontiguousarray(out.transpose(_last_first(out.ndim)))


class JetContext:
    """Index tables for one (n_inputs, order) pair; cached, and immutable
    apart from the memo of `product_slots` per product width.

    `first[i]` is the slot of d/dx_i; `second[i, j]` is the slot of
    d^2/dx_i dx_j, whose Taylor coefficient times `second_fac[i, j]` (2 on
    the diagonal, 1 off it) is the derivative.  Both are None below the
    order they need.  `powers[i, k]` is the slot of x_i^k, k = 0..order.
    """

    __slots__ = (
        "n", "order", "alphas", "index", "n_terms",
        "mul_ti", "mul_tj", "mul_tk", "deriv_src", "deriv_fac",
        "first", "second", "second_fac", "powers", "_slots",
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
        self.powers = np.array([[self.index[tuple(k * u for u in e)] for k in range(order + 1)]
                                for e in units])
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


def _product(ctx: JetContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The truncated product of two coefficient arrays whose trailing axes
    broadcast against each other: one `np.bincount` over the flattened
    trailing axes, each entry accumulated in table order.

    The product runs in blocks of columns (the last axis) of at most
    `_BLOCK_TERMS` table terms."""
    if a.shape == b.shape:
        shape, width = a.shape[1:], a.size // len(a)
    else:  # equal numbers of axes, each of equal length or of length 1
        shape = tuple(map(max, a.shape[1:], b.shape[1:]))
        width = math.prod(shape)
    if len(ctx.mul_ti) * width > _BLOCK_TERMS and shape[-1] > 1:
        step = max(1, _BLOCK_TERMS // (len(ctx.mul_ti) * (width // shape[-1])))
        return np.concatenate([
            _product(ctx, a[..., lo:lo + step], b[..., lo:lo + step])
            for lo in range(0, shape[-1], step)
        ], axis=-1)
    terms = a.take(ctx.mul_ti, axis=0) * b.take(ctx.mul_tj, axis=0)
    slots = ctx.mul_tk if width == 1 else ctx.product_slots(width)
    out = np.bincount(slots, terms.ravel(), ctx.n_terms * width)
    return out.reshape((ctx.n_terms,) + shape)


def fold(terms: np.ndarray, axis: int) -> np.ndarray:
    """The sum of `terms` over `axis`, left to right from its first entry
    (numpy's sum may add in another order, and makes an all -0.0 sum +0.0)."""
    lead = (slice(None),) * axis
    acc = terms[lead + (0,)].copy()
    for k in range(1, terms.shape[axis]):
        acc += terms[lead + (k,)]
    return acc


class Series:
    """A truncated Taylor expansion in the chart variables over a batch of
    B chart points: one scalar quantity, or a vector or matrix of them along
    the component axes `shape`.

    `c` has shape (n_terms, *shape, B); one point is a batch of one.
    Components index and broadcast like numpy arrays, the batch axis riding
    along last.  Scalars combined with a Series may be floats, (B,) arrays
    of per-column values, or arrays of values over its trailing component
    and batch axes.  `coordinate` is i on the chart coordinate x_i that
    `variable` makes, and None on every other Series.
    """

    __slots__ = ("ctx", "c", "shape", "coordinate")
    # ndarray (op) Series must reach the reflected Series methods below,
    # not build an object array
    __array_ufunc__ = None

    def __init__(self, ctx: JetContext, coeffs: np.ndarray, shape: tuple = (), coordinate=None):
        self.ctx = ctx
        self.c = coeffs
        self.shape = shape
        self.coordinate = coordinate

    @classmethod
    def constant(cls, ctx: JetContext, value, batch: int) -> "Series":
        c = np.zeros((ctx.n_terms, batch))
        c[0] = value
        return cls(ctx, c)

    @classmethod
    def variable(cls, ctx: JetContext, i: int, values: np.ndarray) -> "Series":
        """x_i at the (B,) array of its values."""
        c = np.zeros((ctx.n_terms, len(values)))
        c[0] = values
        if ctx.order >= 1:
            c[ctx.first[i]] = 1.0
        return cls(ctx, c, coordinate=i)

    @classmethod
    def stack(cls, items, ctx: JetContext, batch: int) -> "Series":
        """Series of equal shape, or values made constant, stacked along a
        new first component axis, with no Python call per item (every chart
        map stacks its outputs); a Series of another context is a TypeError."""
        coeffs = []
        for x in items:
            if not isinstance(x, Series):
                c = np.zeros((ctx.n_terms, batch))
                c[0] = x
                coeffs.append(c)
            elif x.ctx is ctx:
                coeffs.append(x.c)
            else:
                _same_context(ctx, x)  # raises the TypeError
        c = np.array(coeffs).swapaxes(0, 1).copy()
        return cls(ctx, c, c.shape[1:-1])

    def _with(self, coeffs: np.ndarray) -> "Series":
        """A Series of `coeffs`, whose last axis is the batch."""
        return Series(self.ctx, coeffs, coeffs.shape[1:-1])

    def _aligned(self, other: "Series"):
        """Both coefficient arrays, the shorter component shape padded with
        leading unit axes so that the components broadcast as numpy's do."""
        k = max(len(self.shape), len(other.shape))
        return tuple(
            s.c if len(s.shape) == k
            else s.c.reshape(s.c.shape[:1] + (1,) * (k - len(s.shape)) + s.c.shape[1:])
            for s in (self, other)
        )

    @property
    def batch(self) -> int:
        """The number of columns."""
        return self.c.shape[-1]

    @property
    def val(self) -> np.ndarray:
        """The array of component values, the batch axis last."""
        return self.c[0]

    def slots(self, index) -> np.ndarray:
        """Coefficients at the slot array `index`, the batch axis first."""
        out = self.c[index]
        return out.transpose(_last_first(out.ndim))

    def __getitem__(self, key) -> "Series":
        """Components by numpy indexing of the component axes."""
        if not self.shape:
            raise TypeError("a scalar series has no components")
        if not isinstance(key, tuple):
            key = (key,)
        if any(k is Ellipsis for k in key):  # it stands for component axes only
            key = key + (slice(None),)
        return self._with(self.c[(slice(None),) + key])

    def transpose(self, *axes) -> "Series":
        """The component axes permuted as numpy's `transpose` does."""
        k = len(self.shape)
        order = (0,) + tuple(1 + a for a in axes) + tuple(range(1 + k, self.c.ndim))
        return self._with(self.c.transpose(order))

    def sum(self, axis: int = -1, start=None, signs=None) -> "Series":
        """The sum over one component axis, left to right (`fold`).  A
        float `start` is added to its value last, which for a start of 0.0
        gives what Python's `sum` gives adding it first (a -0.0 value turned
        +0.0).  With `signs`, one +1 or -1 per entry of the axis, an entry of
        sign -1 is subtracted (the first one negated), as `acc - c` and `-c`
        give it: negation is exact, so acc + -c is acc - c."""
        axis %= len(self.shape)
        c = self.c
        if signs is not None:
            c = c * np.array(signs).reshape((-1,) + (1,) * (c.ndim - 2 - axis))
        acc = fold(c, 1 + axis)
        if start is not None:
            acc[0] = acc[0] + start
        return self._with(acc)

    def columns(self, index) -> "Series":
        """The Series of the columns `index` of the batch."""
        return Series(self.ctx, self.c[..., index], self.shape)

    def truncate(self, order: int) -> "Series":
        """The Series cut to a lower `order`: the multi-indices are stored in
        graded order, so its coefficients are a prefix view of these."""
        if order == self.ctx.order:
            return self
        if order > self.ctx.order:
            raise ValueError(f"cannot raise a series of order {self.ctx.order} to {order}")
        ctx = get_context(self.ctx.n, order)
        return Series(ctx, self.c[:ctx.n_terms], self.shape)

    def gradient(self) -> "Series":
        """The partial derivatives along every variable, on a new first
        component axis.

        The top-degree coefficients of each are not determined by a
        truncated expansion and are set to zero.
        """
        ctx = self.ctx
        fac = ctx.deriv_fac.T.reshape(ctx.deriv_fac.T.shape + (1,) * (self.c.ndim - 1))
        c = self.c.take(ctx.deriv_src.T, axis=0) * fac
        return Series(ctx, c, (ctx.n,) + self.shape)

    def __add__(self, other):
        if isinstance(other, Series):
            _same_context(self.ctx, other)
            if other.shape == self.shape:
                return Series(self.ctx, self.c + other.c, self.shape)
            a, b = self._aligned(other)
            return self._with(a + b)
        out = self.c.copy()
        out[0] = self.c[0] + other
        return Series(self.ctx, out, self.shape)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Series):
            _same_context(self.ctx, other)
            if other.shape == self.shape:
                return Series(self.ctx, self.c - other.c, self.shape)
            a, b = self._aligned(other)
            return self._with(a - b)
        out = self.c.copy()
        out[0] = self.c[0] - other
        return Series(self.ctx, out, self.shape)

    def __rsub__(self, other):
        out = -self.c
        out[0] = out[0] + other
        return Series(self.ctx, out, self.shape)

    def __mul__(self, other):
        if isinstance(other, Series):
            _same_context(self.ctx, other)
            if other.shape == self.shape:
                return Series(self.ctx, _product(self.ctx, self.c, other.c), self.shape)
            return self._with(_product(self.ctx, *self._aligned(other)))
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
            if k == 0:
                return Series.constant(self.ctx, 1.0, self.batch)
            # square and multiply, starting from the first factor
            result, base = None, self
            while k:
                if k & 1:
                    result = base if result is None else result * base
                k >>= 1
                if k:
                    base = base * base
            return result
        return _real_power(self, float(p))

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


def _same_context(ctx: JetContext, other: Series):
    """Refuse a Series of another jet context than `ctx`: mixed orders are a
    programming error, never a rejected point."""
    if other.ctx is not ctx:
        raise TypeError(
            f"series of order {other.ctx.order} in {other.ctx.n} variables combined with "
            f"one of order {ctx.order} in {ctx.n}"
        )


def _scalar_val(x: Series) -> np.ndarray:
    """The (B,) values of a scalar Series, the argument of a univariate
    primitive; a vector or a matrix is refused, its components not being a
    batch."""
    if x.shape:
        raise TypeError(f"univariate primitive of a series of shape {x.shape}")
    return x.c[0]


# k! of each derivative order k, the divisor of its Taylor coefficient
_FACTORIALS = np.array([[math.factorial(k)] for k in range(MAX_ORDER + 1)], dtype=np.float64)


def _compose(x: Series, table: np.ndarray) -> Series:
    """Series of g(x) given the derivative table [g(x0), g'(x0), ...] at
    x0 = x.val (order + 1 rows or more of B values): Horner's scheme in
    x - x0, each step a `_product`, in blocks of `_BLOCK_TERMS` terms.  Of
    a chart coordinate x_i (`Series.variable`) above order 0 with a finite
    table, x - x0 is one-hot with entry 1.0, so each slot sums +0.0, one
    exact copy and signed zeros: g^(k)(x0)/k! + 0.0 is placed in the slot
    of x_i^k and +0.0 elsewhere, with no product."""
    ctx = x.ctx
    coeffs = table[:ctx.order + 1] / _FACTORIALS[:ctx.order + 1]
    if x.coordinate is not None and ctx.order:
        c = np.zeros((ctx.n_terms, x.batch))
        c[ctx.powers[x.coordinate]] = coeffs + 0.0
        return Series(ctx, c)
    step = _BLOCK_TERMS // len(ctx.mul_ti)
    if x.batch > step:
        return Series(ctx, np.concatenate([
            _compose(Series(ctx, x.c[:, lo:lo + step]), table[:, lo:lo + step]).c
            for lo in range(0, x.batch, step)
        ], axis=-1))
    ftilde = x.c.copy()
    ftilde[0] = 0.0
    right = ftilde.take(ctx.mul_tj, axis=0)  # the factor x - x0 of every step
    slots = ctx.product_slots(x.batch)
    result = np.zeros(ftilde.shape)
    result[0] = coeffs[-1]
    for k in range(ctx.order - 1, -1, -1):
        terms = result.take(ctx.mul_ti, axis=0) * right
        result = np.bincount(slots, terms.ravel(), ftilde.size).reshape(ftilde.shape)
        result[0] = result[0] + coeffs[k]
    return Series(ctx, result)


def compose_univariate(x: Series, deriv_values) -> Series:
    """Series of g(x) from the derivative table [g(v), g'(v), ...] at v = x.val,
    each entry a float for every column or a (B,) array of per-column values.

    Covers scalar profiles whose derivatives are known analytically even when
    g itself is only available numerically (an antiderivative, say).  The
    table must reach the context order.
    """
    if len(deriv_values) < x.ctx.order + 1:
        raise ValueError("derivative table shorter than context order")
    _scalar_val(x)
    table = np.array([np.full(x.batch, d) for d in deriv_values])
    if x.coordinate is not None and not np.isfinite(table[:x.ctx.order + 1]).all():
        x = Series(x.ctx, x.c)  # Horner's scheme, whose products spread inf * 0 as NaN
    return _compose(x, table)


def _checked(name: str, v: np.ndarray, values: list, ok=True) -> np.ndarray:
    """The values computed at a primitive's (B,) argument v, as one array of
    rows, where `ok` holds: a column where it fails, or where a value is not
    finite (an overflow, a domain error, a division by a power of v that
    underflowed to zero), is the primitive's domain error at v."""
    table = np.array(values)
    finite = np.isfinite(table)
    if np.count_nonzero(finite) < finite.size or (ok is not True and np.count_nonzero(ok) < ok.size):
        require(finite.all(axis=0) & ok, lambda at: PrimitiveDomainError(name, float(at(v))))
    return table


# The derivative tables [g(v), g'(v), g''(v), g'''(v)] of the primitives at
# numpy values v, of a batch or a plain float, end with the powers of v they
# divide by, whose overflow leaves the entries finite.  Integer powers are
# products: numpy's array and scalar powers differ in the last bit.


@float_edges
def _real_power(x: Series, p: float) -> Series:
    """x ** p for a non-integer p, as Python's float power (`np.float_power`)."""
    v = _scalar_val(x)
    w = [np.float_power(v, p - k) for k in range(4)]
    table = [w[0], p * w[1], p * (p - 1) * w[2], p * (p - 1) * (p - 2) * w[3]]
    return _compose(x, _checked("pow", v, table, v > 0.0))


def _unary(name: str, ufunc, table_fn, domain_ok=lambda v: True):
    """The primitive `name`: the composition with `table_fn`'s derivative
    table of a Series, not finite outside `domain_ok`, and the numpy `ufunc`
    of a (B,) array or of a plain float (a constant subexpression of a map
    or a profile, such as sqrt(3)/2)."""

    @float_edges
    def fn(x):
        if isinstance(x, Series):
            v = _scalar_val(x)
            return _compose(x, _checked(name, v, table_fn(v)))
        v = np.asarray(x, dtype=np.float64)
        if v.ndim:
            return _checked(name, v, [ufunc(v)], domain_ok(v))[0]
        out = ufunc(v)
        if not (domain_ok(v) and np.isfinite(out)):
            raise PrimitiveDomainError(name, float(v))
        return float(out)

    fn.__name__ = name
    fn.__qualname__ = name
    return fn


def _reciprocal_table(v):
    v2 = v * v
    v3 = v2 * v
    v4 = v3 * v
    return [1.0 / v, -1.0 / v2, 2.0 / v3, -6.0 / v4, v2, v3, v4]


def _exp_table(v):
    e = np.exp(v)
    return [e, e, e, e]


def _log_table(v):
    v2 = v * v
    v3 = v2 * v
    return [np.log(v), 1.0 / v, -1.0 / v2, 2.0 / v3, v2, v3]


def _sin_table(v):
    s, c = np.sin(v), np.cos(v)
    return [s, c, -s, -c]


def _cos_table(v):
    s, c = np.sin(v), np.cos(v)
    return [c, -s, -c, s]


def _tan_table(v):
    t = np.tan(v)
    w = 1.0 + t * t
    return [t, w, 2.0 * t * w, w * (2.0 + 6.0 * t * t)]


def _sinh_table(v):
    s, c = np.sinh(v), np.cosh(v)
    return [s, c, s, c]


def _cosh_table(v):
    s, c = np.sinh(v), np.cosh(v)
    return [c, s, c, s]


def _tanh_table(v):
    u = np.tanh(v)
    w = 1.0 - u * u
    return [u, w, -2.0 * u * w, w * (6.0 * u * u - 2.0)]


def _arctan_table(v):
    w = 1.0 + v * v
    w2 = w * w
    w3 = w2 * w
    return [np.arctan(v), 1.0 / w, -2.0 * v / w2, (6.0 * v * v - 2.0) / w3, w2, w3]


def _arcsin_table(v):
    s = np.sqrt(1.0 - v * v)
    s3 = s * s * s
    s5 = s3 * s * s
    return [np.arcsin(v), 1.0 / s, v / s3, (1.0 + 2.0 * v * v) / s5, s3, s5]


def _arccos_table(v):
    _, d1, d2, d3, *powers = _arcsin_table(v)
    return [np.arccos(v), -d1, -d2, -d3, *powers]


def _arcsinh_table(v):
    c = np.sqrt(1.0 + v * v)
    c3 = c * c * c
    c5 = c3 * c * c
    return [np.arcsinh(v), 1.0 / c, -v / c3, (2.0 * v * v - 1.0) / c5, c3, c5]


def _arccosh_table(v):
    s = np.sqrt(v * v - 1.0)
    s3 = s * s * s
    s5 = s3 * s * s
    return [np.arccosh(v), 1.0 / s, -v / s3, (2.0 * v * v + 1.0) / s5, s3, s5]


def _arctanh_table(v):
    w = 1.0 - v * v
    w2 = w * w
    w3 = w2 * w
    return [np.arctanh(v), 1.0 / w, 2.0 * v / w2, (2.0 + 6.0 * v * v) / w3, w2, w3]


def _sqrt_table(v):
    r = np.sqrt(v)
    rv = r * v
    rvv = rv * v
    return [r, 0.5 / r, -0.25 / rv, 0.375 / rvv, rv, rvv]


exp = _unary("exp", np.exp, _exp_table)
log = _unary("log", np.log, _log_table, lambda v: v > 0.0)
sin = _unary("sin", np.sin, _sin_table)
cos = _unary("cos", np.cos, _cos_table)
tan = _unary("tan", np.tan, _tan_table)
sinh = _unary("sinh", np.sinh, _sinh_table)
cosh = _unary("cosh", np.cosh, _cosh_table)
tanh = _unary("tanh", np.tanh, _tanh_table)
arctan = _unary("arctan", np.arctan, _arctan_table)
arcsin = _unary("arcsin", np.arcsin, _arcsin_table, lambda v: abs(v) < 1.0)
arccos = _unary("arccos", np.arccos, _arccos_table, lambda v: abs(v) < 1.0)
arcsinh = _unary("arcsinh", np.arcsinh, _arcsinh_table)
arccosh = _unary("arccosh", np.arccosh, _arccosh_table, lambda v: v > 1.0)
arctanh = _unary("arctanh", np.arctanh, _arctanh_table, lambda v: abs(v) < 1.0)
sqrt = _unary("sqrt", np.sqrt, _sqrt_table, lambda v: v > 0.0)
_reciprocal = _unary("reciprocal", np.reciprocal, _reciprocal_table, lambda v: v != 0.0)


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

    @functools.cached_property
    def _bounds(self) -> Optional[np.ndarray]:
        """The box's (low, high) rows over the axes."""
        return None if self.domain is None else np.array(self.domain, dtype=np.float64).T

    def contains(self, points: np.ndarray) -> np.ndarray:
        """The (B,) mask of the points (B, n) in the domain box; no box holds all."""
        if self._bounds is None:
            return np.ones(len(points), dtype=bool)
        lo, hi = self._bounds
        return np.logical_and.reduce((lo <= points) & (points <= hi), axis=1)


def as_series(value, ctx: JetContext, batch: int) -> Series:
    """`value` itself if it is a Series, else the constant Series of its
    value (a float, or a (B,) array) over `batch` columns."""
    return value if isinstance(value, Series) else Series.constant(ctx, value, batch)


def _at_point(err, point):
    """A primitive's domain error with its evaluation point, or err itself."""
    return err.with_point(point) if isinstance(err, PrimitiveDomainError) else err


def eval_series(map_fn: SmoothMap, points, order: int) -> Series:
    """Evaluate a smooth map on Series arguments at a batch (B, n) of points
    inside its domain; returns the vector Series of its outputs, stacked
    once (`Series.stack`), a float output made constant.

    A primitive's domain error carries its column's point; a typed error (a
    `ValueError`) of a float-valued step fails every column alike."""
    points = np.asarray(points, dtype=np.float64)
    batch, n = points.shape
    ctx = get_context(n, order)
    require(
        map_fn.contains(points),
        lambda at: ChartDomainError(
            f"point {format_point(at(points))} outside the map's declared domain"
        ),
    )
    xs = [Series.variable(ctx, i, points[:, i]) for i in range(n)]
    try:
        result = map_fn.fn(xs)
    except BatchRejected as err:
        raise BatchRejected({b: _at_point(e, points[b]) for b, e in err.errors.items()}) from None
    except ValueError as err:
        raise BatchRejected({b: _at_point(err, p) for b, p in enumerate(points)}) from None
    return Series.stack(result, ctx, batch)


_EXPR_FUNCS = {
    "exp": exp, "log": log, "sin": sin, "cos": cos, "tan": tan,
    "sinh": sinh, "cosh": cosh, "tanh": tanh,
    "arcsin": arcsin, "arccos": arccos, "arctan": arctan,
    "arcsinh": arcsinh, "arccosh": arccosh, "arctanh": arctanh,
    "sqrt": sqrt,
}

_EXPR_CONSTS = {"pi": math.pi, "e": math.e}


def _elementwise(op, ufunc):
    """The binary operator op of an expression: op itself where an operand
    is a Series, else the numpy `ufunc`, on floats as elementwise on arrays,
    so that a batch's values are its points' and a power that overflows or
    a division by zero gives inf or NaN, a typed rejection, not an
    exception."""

    def apply(a, b):
        if isinstance(a, Series) or isinstance(b, Series):
            return op(a, b)
        out = ufunc(a, b)
        return out if out.ndim else float(out)

    return apply


# Python's float power and division, as numpy computes them
_power = _elementwise(operator.pow, np.float_power)
_divide = _elementwise(operator.truediv, np.true_divide)


def _mentions(node, names) -> bool:
    """Whether an expression's syntax tree names one of `names`."""
    return any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(node))


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
                return lambda xs: _divide(lhs(xs), rhs(xs))
            if op is ast.Pow:
                # a Series has no Series-valued exponent
                if _mentions(node.left, slot) and _mentions(node.right, slot):
                    raise ValueError(
                        f"variable exponent of a variable base in {ast.unparse(node)!r} "
                        "not allowed in expressions"
                    )
                return lambda xs: _power(lhs(xs), rhs(xs))
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
