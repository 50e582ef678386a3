"""Random smooth composite generator shared by differentiation oracle tests.

Every generated callable is built from the engine's primitive vocabulary
with arguments wrapped so all primitives stay strictly inside their
domains for inputs in [-1, 1]^n.
"""

import math

from _jets import FdScheme, fd_derivative, jet_eval
from nullgeom import taylor as tm


def _leaf(rng, n):
    coeffs = rng.uniform(-1.0, 1.0, size=n)
    shift = rng.uniform(-0.5, 0.5)

    def leaf(xs):
        acc = shift
        for c, x in zip(coeffs, xs):
            acc = acc + c * x
        return acc

    return leaf


_UNARY = [
    lambda a: tm.exp(0.4 * a),
    lambda a: tm.log(1.6 + tm.tanh(a)),
    lambda a: tm.sin(a),
    lambda a: tm.cos(a),
    lambda a: tm.tan(0.5 * tm.tanh(a)),
    lambda a: tm.sinh(0.6 * a),
    lambda a: tm.cosh(0.5 * a),
    lambda a: tm.tanh(a),
    lambda a: tm.arctan(a),
    lambda a: tm.arcsin(0.7 * tm.tanh(a)),
    lambda a: tm.arccos(0.7 * tm.tanh(a)),
    lambda a: tm.arcsinh(a),
    lambda a: tm.arccosh(1.7 + 0.5 * tm.tanh(a)),
    lambda a: tm.arctanh(0.7 * tm.tanh(a)),
    lambda a: tm.sqrt(1.6 + tm.tanh(a)),
    lambda a: (1.6 + tm.tanh(a)) ** 1.7,
    lambda a: (0.3 + 0.1 * a) ** 3,
]

_BINARY = [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: a / (2.4 + tm.tanh(b)),
]


def _node(rng, n, depth):
    if depth == 0:
        return _leaf(rng, n)
    kind = rng.integers(0, 3)
    if kind == 0:
        return _leaf(rng, n)
    if kind == 1:
        op = _UNARY[rng.integers(0, len(_UNARY))]
        child = _node(rng, n, depth - 1)
        return lambda xs: op(child(xs))
    op = _BINARY[rng.integers(0, len(_BINARY))]
    left = _node(rng, n, depth - 1)
    right = _node(rng, n, depth - 1)
    return lambda xs: op(left(xs), right(xs))


def random_composite(rng, n, depth=3):
    """A random scalar composite of the primitive vocabulary on [-1,1]^n."""
    # Force at least one non-leaf so the map is a genuine composition.
    op = _UNARY[rng.integers(0, len(_UNARY))]
    child = _node(rng, n, depth - 1)
    return lambda xs: op(child(xs))


def random_point(rng, n):
    return rng.uniform(-1.0, 1.0, size=n)


def multi_indices_of_degree(n, deg):
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], deg, n)
    return out


FD_SCHEMES = {
    1: FdScheme(step=1e-4, order=2, richardson=True),
    2: FdScheme(step=1e-3, order=2, richardson=True),
    3: FdScheme(step=8e-3, order=2, richardson=True),
}

REL_TOL = {1: 1e-6, 2: 1e-6, 3: 1e-4}


def jet_partial(jet, alpha):
    """Derivative d^alpha of every output component of a jet."""
    i = jet.ctx.index[tuple(alpha)]
    return jet.taylor[:, i] * math.prod(map(math.factorial, alpha))


def jet_fd_max_rel_error(fn, point, deg):
    """Max relative disagreement between jet and FD partials of one degree."""
    jet = jet_eval(fn, point, deg)
    worst = 0.0
    for alpha in multi_indices_of_degree(len(point), deg):
        if sum(alpha) != deg:
            continue
        jv = float(jet_partial(jet, alpha)[0])
        fv = fd_derivative(fn, point, alpha, FD_SCHEMES[deg])
        rel = abs(jv - fv) / max(1.0, abs(jv))
        worst = max(worst, rel)
    return worst
