import functools
import itertools
import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullgeom import spacetime
from nullgeom import taylor as tm
from _composites import (
    REL_TOL,
    jet_fd_max_rel_error,
    jet_partial,
    random_composite,
    random_point,
)
from _jets import FdScheme, StencilDomainError, fd_derivative, jet_eval


def jet_alone(fn, value, ctx):
    """The coefficients of fn of the Series variable at one value, a batch
    of one; a refused value raises its typed error."""
    (out,) = tm.per_sample(lambda vs: [fn(tm.Series.variable(ctx, 0, vs)).c[..., 0]], [value])
    return out


def test_identity_jacobian():
    jet = jet_eval(lambda xs: list(xs), [0.3, -1.2, 2.0], 1)
    assert np.allclose(jet.jacobian, np.eye(3), atol=0.0)
    assert np.allclose(jet.value, [0.3, -1.2, 2.0], atol=0.0)


def test_cubic_partials():
    jet = jet_eval(lambda xs: xs[0] ** 3, [2.0], 3)
    assert jet.value[0] == pytest.approx(8.0, abs=1e-14)
    assert jet_partial(jet, (1,))[0] == pytest.approx(12.0, abs=1e-12)
    assert jet_partial(jet, (2,))[0] == pytest.approx(12.0, abs=1e-12)
    assert jet_partial(jet, (3,))[0] == pytest.approx(6.0, abs=1e-12)


def test_arcsinh_tan_against_fd():
    fn = lambda xs: tm.arcsinh(tm.tan(xs[0]))
    for deg in (1, 2, 3):
        assert jet_fd_max_rel_error(fn, np.array([0.3]), deg) < 1e-6


def test_fd_quadratic_exact():
    val = fd_derivative(lambda xs: xs[0] ** 2, [1.0], (2,), FdScheme(step=1e-3))
    assert val == pytest.approx(2.0, abs=1e-8)


def test_fd_exp_first_derivative():
    fd = fd_derivative(lambda xs: tm.exp(xs[0]), [0.0], (1,), FdScheme(step=1e-4))
    jet = jet_partial(jet_eval(lambda xs: tm.exp(xs[0]), [0.0], 1), (1,))[0]
    assert fd == pytest.approx(1.0, abs=1e-9)
    assert jet == pytest.approx(fd, abs=1e-9)


def test_fd_bilinear_mixed_partial():
    val = fd_derivative(lambda xs: xs[0] * xs[1], [3.0, 5.0], (1, 1))
    assert val == pytest.approx(1.0, abs=1e-8)


def test_mixed_partial_symmetry_by_storage():
    fn = lambda xs: tm.sin(xs[0]) * tm.exp(xs[1]) + xs[0] * xs[1] ** 2
    jet = jet_eval(fn, [0.4, -0.2], 3)
    hess = jet.hessian()[0]
    assert hess[0, 1] == hess[1, 0]
    # One storage slot per unordered multi-index.
    assert jet.ctx.index[(1, 1)] == jet.ctx.index[(1, 1)]
    assert len(jet.ctx.alphas) == len(set(jet.ctx.alphas))


@pytest.mark.parametrize("deg", [1, 2, 3])
def test_random_composites_match_fd(deg):
    rng = np.random.default_rng(20260814 + deg)
    for _ in range(25):
        fn = random_composite(rng, 2)
        x = random_point(rng, 2)
        assert jet_fd_max_rel_error(fn, x, deg) < REL_TOL[deg]


def test_primitive_domain_error_names_primitive_and_point():
    with pytest.raises(tm.PrimitiveDomainError) as err:
        jet_eval(lambda xs: tm.sqrt(xs[0]), [-2.0], 1)
    assert err.value.primitive == "sqrt"
    assert err.value.point == (-2.0,)
    assert "sqrt" in str(err.value)


def test_log_domain_error_on_floats():
    with pytest.raises(tm.PrimitiveDomainError):
        tm.log(0.0)


def test_fd_stencil_domain_error():
    m = tm.SmoothMap(lambda xs: xs[0] ** 2, n_inputs=1, domain=((0.0, 1.0),))
    with pytest.raises(StencilDomainError) as err:
        fd_derivative(m, [0.0001], (1,), FdScheme(step=0.01, richardson=False))
    assert err.value.stencil_point[0] < 0.0


def test_fd_stencil_error_on_primitive_edge():
    fn = lambda xs: tm.sqrt(xs[0])
    with pytest.raises(StencilDomainError):
        fd_derivative(fn, [1e-6], (1,), FdScheme(step=1e-3))


def test_richardson_combination_beats_raw_estimate():
    fn = lambda xs: tm.exp(tm.sin(xs[0]))
    truth = jet_partial(jet_eval(fn, [0.7], 3), (3,))[0]
    raw = fd_derivative(fn, [0.7], (3,), FdScheme(step=0.02, richardson=False))
    rich = fd_derivative(fn, [0.7], (3,), FdScheme(step=0.02, richardson=True))
    assert abs(rich - truth) < abs(raw - truth)


def test_fourth_order_stencils():
    fn = lambda xs: tm.sin(xs[0]) * tm.cosh(xs[1])
    jet = jet_eval(fn, [0.5, -0.3], 3)
    for alpha in [(1, 0), (0, 2), (2, 1), (1, 2)]:
        fd = fd_derivative(fn, [0.5, -0.3], alpha, FdScheme(step=5e-3, order=4))
        assert fd == pytest.approx(float(jet_partial(jet, alpha)[0]), abs=1e-7)


def test_vector_jet_hessian_values():
    fn = lambda xs: [xs[0] * xs[1], tm.cos(xs[0])]
    jet = jet_eval(fn, [0.2, 0.9], 2)
    hess = jet.hessian()
    assert hess[0, 0, 1] == pytest.approx(1.0, abs=1e-14)
    assert hess[1, 0, 0] == pytest.approx(-math.cos(0.2), abs=1e-14)
    assert hess[1, 1, 1] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("order", range(tm.MAX_ORDER + 1))
def test_derivative_slot_tables(n, order):
    # first[i] holds d/dx_i, second[i, j] and second_fac[i, j] give d^2/dx_i dx_j
    ctx = tm.get_context(n, order)
    eye = np.eye(n, dtype=int)
    if order < 1:
        assert ctx.first is None
    else:
        assert [ctx.alphas[k] for k in ctx.first] == [tuple(e) for e in eye]
    if order < 2:
        assert ctx.second is None and ctx.second_fac is None
        return
    for i in range(n):
        for j in range(n):
            assert ctx.alphas[ctx.second[i, j]] == tuple(eye[i] + eye[j])
            alpha = ctx.alphas[ctx.second[i, j]]
            assert ctx.second_fac[i, j] == math.prod(map(math.factorial, alpha))


def test_jet_coefficients_are_derivative_values():
    jet = jet_eval(lambda xs: xs[0] ** 3, [2.0], 3)
    slot = jet.ctx.index[(3,)]
    assert jet.taylor[0, slot] * math.factorial(3) == pytest.approx(6.0, abs=1e-12)
    assert jet.taylor[0, slot] == pytest.approx(1.0, abs=1e-12)


@settings(deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(0, tm.MAX_ORDER), st.integers(2, 5))
def test_product_matches_table_loop_bitwise(data, n, order, batch):
    ctx = tm.get_context(n, order)
    coeffs = st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=ctx.n_terms, max_size=ctx.n_terms
    )
    a, b = data.draw(coeffs), data.draw(coeffs)
    # the reference accumulates in table order; the kernel must keep that order
    want = [0.0] * ctx.n_terms
    for i, j, k in zip(ctx.mul_ti, ctx.mul_tj, ctx.mul_tk):
        want[k] += a[i] * b[j]
    got = (tm.Series(ctx, np.array([a]).T) * tm.Series(ctx, np.array([b]).T)).c
    assert np.array_equal(got[:, 0], np.array(want))
    # on a batch (one column per point) each column is its product in a
    # batch of one, bit for bit
    cols_a = [a] + [data.draw(coeffs) for _ in range(batch - 1)]
    cols_b = [b] + [data.draw(coeffs) for _ in range(batch - 1)]
    batched = (tm.Series(ctx, np.array(cols_a).T) * tm.Series(ctx, np.array(cols_b).T)).c
    assert batched.shape == (ctx.n_terms, batch)
    for k in range(batch):
        alone = tm.Series(ctx, np.array([cols_a[k]]).T) * tm.Series(ctx, np.array([cols_b[k]]).T)
        assert batched[:, k].tobytes() == alone.c[:, 0].tobytes()


# signed zeros next to ordinary values: a product or a sum that changed its
# accumulation order could lose the sign of a zero, or a last bit
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e6, 1e6, allow_nan=False)
)


@settings(deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(0, tm.MAX_ORDER), st.sampled_from([1, 3]))
def test_component_product_matches_entry_products_bitwise(data, n, order, batch):
    ctx = tm.get_context(n, order)
    tail = (batch,)

    def draw(shape):
        size = ctx.n_terms * math.prod(shape + tail)
        values = data.draw(st.lists(_ENTRIES, min_size=size, max_size=size))
        return tm.Series(ctx, np.array(values).reshape((ctx.n_terms,) + shape + tail), shape)

    # (2, 1, 3) times (4, 3) broadcasts to 2 x 4 x 3 products in one call
    a, b = draw((2, 1, 3)), draw((4, 3))
    prod = a * b
    assert prod.shape == (2, 4, 3) and prod.batch == batch
    for i, j, k in itertools.product(range(2), range(4), range(3)):
        alone = tm.Series(ctx, a.c[:, i, 0, k].copy()) * tm.Series(ctx, b.c[:, j, k].copy())
        assert prod[i, j, k].c.tobytes() == alone.c.tobytes()
    # a sum over a component axis is the entries' sum left to right, and
    # with start 0.0 it is Python's sum, a -0.0 value turned +0.0 included
    for start in (None, 0.0):
        total = prod.sum(axis=1, start=start)
        assert total.shape == (2, 3)
        for i, k in itertools.product(range(2), range(3)):
            entries = [prod[i, j, k] for j in range(4)]
            want = sum(entries) if start is not None else functools.reduce(operator.add, entries)
            assert total[i, k].c.tobytes() == want.c.tobytes()
    # with signs, an entry of sign -1 is subtracted, and a first one negated
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=4, max_size=4))
    total = prod.sum(axis=1, signs=signs)
    for i, k in itertools.product(range(2), range(3)):
        want = prod[i, 0, k] if signs[0] > 0 else -prod[i, 0, k]
        for j in range(1, 4):
            want = want + prod[i, j, k] if signs[j] > 0 else want - prod[i, j, k]
        assert total[i, k].c.tobytes() == want.c.tobytes()
    # the product of prefixes is the prefix of the product, bit for bit
    for low in range(order + 1):
        cut = a.truncate(low) * b.truncate(low)
        assert cut.ctx is tm.get_context(n, low)
        assert cut.c.tobytes() == prod.truncate(low).c.tobytes()


def test_mixed_orders_fail_loudly():
    # Series of two jet contexts never combine, in either operand order, and
    # the TypeError is no rejection: column_results lets it through
    high = tm.Series.variable(tm.get_context(2, 3), 0, np.array([0.5, 1.5]))
    low = high.truncate(1)
    stacked = tm.Series.stack([high, high], high.ctx, high.batch)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for x, y in ((high, low), (low, high), (stacked, low)):
            with pytest.raises(TypeError, match="order"):
                op(x, y)
    with pytest.raises(TypeError, match="order"):
        tm.Series.stack([high, low], high.ctx, high.batch)
    with pytest.raises(ValueError, match="order"):
        low.truncate(2)

    def mixed(xs):
        s = tm.Series.variable(tm.get_context(1, 3), 0, xs[:, 0])
        return list((s + s.truncate(1)).val)

    with pytest.raises(TypeError):
        tm.column_results(mixed, np.ones((3, 1)))


def test_eval_series_stacks_the_map_outputs():
    # the chart map's outputs as one vector Series, each component, a float
    # constant's too, by float.hex the map's output on the coordinate
    # Series; the stack makes no Python call per component
    def fn(xs):
        return [xs[0] * xs[1], 2.5, tm.sin(xs[0]) + xs[1], xs[1]]

    points = np.array([[0.3, -1.2], [1.5, 0.25], [-0.7, 2.0]])
    ctx = tm.get_context(2, 3)
    psi = tm.eval_series(tm.SmoothMap(fn, 2, 4), points, 3)
    assert psi.ctx is ctx and psi.shape == (4,) and psi.batch == len(points)
    coords = [tm.Series.variable(ctx, i, points[:, i]) for i in range(2)]
    for a, want in enumerate(fn(coords)):
        want = tm.as_series(want, ctx, len(points))
        assert [v.hex() for v in psi[a].c.ravel().tolist()] == [
            v.hex() for v in want.c.ravel().tolist()]
    calls = {2: [], 6: []}
    for width, entered in calls.items():
        items = [coords[0], 1.0, coords[1]] * (width // 2)
        sys.setprofile(lambda frame, event, arg: event == "call" and entered.append(frame.f_code))
        try:
            tm.Series.stack(items, ctx, len(points))
        finally:
            sys.setprofile(None)
    assert calls[2] == calls[6]
    # an output of another jet context is a TypeError through Kept.run, not a
    # typed rejection of the columns
    low = tm.get_context(2, 1)
    foreign = tm.SmoothMap(lambda xs: [xs[0], tm.Series.variable(low, 1, xs[1].val)], 2, 2)
    kept = tm.Kept(len(points))
    with pytest.raises(TypeError, match="order"):
        kept.run(lambda xs: tm.eval_series(foreign, xs, 3), points)
    assert kept.errors == {} and len(kept.index) == len(points)


@pytest.mark.parametrize("shapes, columns", [(((4, 1), (1, 5)), 90), (((2,), (2,)), 300)])
def test_blocked_batch_product_matches_columns(shapes, columns):
    # a batch product larger than one block runs in blocks of columns
    ctx = tm.get_context(3, 3)
    rng = np.random.default_rng(3)
    a, b = (
        tm.Series(ctx, rng.standard_normal((ctx.n_terms,) + shape + (columns,)), shape)
        for shape in shapes
    )
    prod = a * b
    assert len(ctx.mul_ti) * math.prod(prod.shape) * columns > tm._BLOCK_TERMS

    def column(s, col):
        return tm.Series(ctx, s.c[..., col].copy(), s.shape)

    alone = [(column(a, col) * column(b, col)).c for col in range(columns)]
    assert prod.c.tobytes() == np.stack(alone, axis=-1).tobytes()


def horner_alone(x, table):
    """Horner's scheme of `_compose`, each step a `_product`: the oracle of
    its hoisted form."""
    ctx = x.ctx
    coeffs = table[:ctx.order + 1] / tm._FACTORIALS[:ctx.order + 1]
    ftilde = x.c.copy()
    ftilde[0] = 0.0
    result = np.zeros(ftilde.shape)
    result[0] = coeffs[-1]
    for k in range(ctx.order - 1, -1, -1):
        result = tm._product(ctx, result, ftilde)
        result[0] = result[0] + coeffs[k]
    return result


@settings(deadline=None, max_examples=300)
@given(st.data(), st.integers(1, 3), st.integers(0, tm.MAX_ORDER), st.integers(1, 4))
def test_compose_matches_horner_products_bitwise(data, n, order, batch):
    # signed zeros, infinities, NaNs and subnormals among the coefficients,
    # the values of a chart coordinate on any axis and the table, finite or
    # not, on batches below and past the blocking step: every entry is the
    # product loop's, bit for bit, where a coordinate's finite table is
    # placed with no product and compose_univariate, which checks no table,
    # composes a coordinate with a non-finite one by Horner's scheme
    ctx = tm.get_context(n, order)
    entries = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]),
                        st.floats(-1e300, 1e300))
    finite = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-1e300, 1e300))

    def drawn(count, values=entries):
        return np.array(data.draw(st.lists(values, min_size=count, max_size=count)))

    coordinate = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
    table = drawn(4 * batch, data.draw(st.sampled_from([entries, finite])))
    if coordinate is None:
        x = tm.Series(ctx, drawn(ctx.n_terms * batch).reshape(ctx.n_terms, batch))
    else:
        x = tm.Series.variable(ctx, coordinate, drawn(batch))
    table = table.reshape(4, batch)
    past = data.draw(st.booleans())
    if past:  # past the blocking step, the columns repeated
        columns = np.resize(np.arange(batch), tm._BLOCK_TERMS // len(ctx.mul_ti) + batch)
        x = tm.Series(ctx, x.c[:, columns], coordinate=x.coordinate)
        table = table[:, columns]

    def same(got, want):
        if not past:
            return got.tobytes() == want.tobytes()
        # on long rows numpy's vector loops give a NaN either sign, by the
        # memory alignment of their operands: NaNs at the same places
        nan = np.isnan(want)
        return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()

    with np.errstate(all="ignore"):
        want = horner_alone(x, table)
        assert same(tm.compose_univariate(x, list(table)).c, want)
        if coordinate is None or np.isfinite(table[:order + 1]).all():
            assert same(tm._compose(x, table).c, want)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("batch", [1, 400])
def test_sphere_chart_composes_its_angles_with_no_convolution(k, batch, monkeypatch):
    # the cosines and sines of the angles of the sphere chart, primitives of
    # chart coordinates, make no np.bincount; their products make some
    chart = spacetime.sphere_chart(k)
    rng = np.random.default_rng(k)
    points = rng.uniform(0.1, 3.0, size=(batch, k))
    want = tm.eval_series(chart, points, 3).c
    real_compose, real_bincount = tm._compose, np.bincount
    composing, counted = [0], []

    def compose(x, table):
        composing[0] += 1
        try:
            return real_compose(x, table)
        finally:
            composing[0] -= 1

    def bincount(*args):
        counted.append(composing[0] > 0)
        return real_bincount(*args)

    monkeypatch.setattr(tm, "_compose", compose)
    monkeypatch.setattr(np, "bincount", bincount)
    got = tm.eval_series(chart, points, 3).c
    monkeypatch.undo()
    assert got.tobytes() == want.tobytes()
    assert counted and not any(counted)


def test_float_overflow_is_a_primitive_domain_error():
    ctx = tm.get_context(1, 3)
    with pytest.raises(tm.PrimitiveDomainError, match="'exp'"):
        tm.exp(800.0)
    with pytest.raises(tm.PrimitiveDomainError, match="'exp'"):
        jet_alone(tm.exp, 800.0, ctx)
    with pytest.raises(tm.PrimitiveDomainError, match="'pow'"):
        jet_alone(lambda x: x ** 2.5, 1e200, ctx)
    with pytest.raises(tm.PrimitiveDomainError, match="'reciprocal'"):
        jet_alone(lambda x: 1.0 / x, 1e200, ctx)
    # on a batch, only the columns that overflow are rejected
    values = np.array([1.0, 1e200, -2.0])
    for fn in (tm.exp, lambda x: x ** 2.5, lambda x: 1.0 / x):
        with pytest.raises(tm.BatchRejected) as err:
            fn(tm.Series.variable(ctx, 0, np.abs(values) if fn is not tm.exp else values))
        assert list(err.value.errors) == [1]
    with pytest.raises(tm.BatchRejected) as err:
        tm.exp(values)
    assert list(err.value.errors) == [1]
    # a tiny value whose derivative table divides by a power that underflows
    # to zero is refused the same way, at one point and per column
    for name, fn, tiny in (
        ("reciprocal", lambda x: 1.0 / x, 1e-100),
        ("reciprocal", lambda x: x ** -1, 1e-100),
        ("sqrt", tm.sqrt, 1e-200),
        ("log", tm.log, 1e-110),
    ):
        with pytest.raises(tm.PrimitiveDomainError, match=f"'{name}'"):
            jet_alone(fn, tiny, ctx)
        with pytest.raises(tm.BatchRejected) as err:
            fn(tm.Series.variable(ctx, 0, np.array([1.0, tiny])))
        assert list(err.value.errors) == [1]
    # math's domain error (the sine of an infinity) is refused the same way,
    # as each column's own error with its own value
    for name, fn in (("sin", tm.sin), ("cos", tm.cos), ("tan", tm.tan)):
        for inf in (math.inf, -math.inf):
            message = f"'{name}' undefined at value {inf}"
            with pytest.raises(tm.PrimitiveDomainError, match=message):
                fn(inf)
            with pytest.raises(tm.PrimitiveDomainError, match=message):
                jet_alone(fn, inf, ctx)
        for batch in (np.array([1.0, math.inf, -math.inf]),
                      tm.Series.variable(ctx, 0, np.array([1.0, math.inf, -math.inf]))):
            with pytest.raises(tm.BatchRejected) as err:
                fn(batch)
            assert list(err.value.errors) == [1, 2]
            assert [str(e) for e in err.value.errors.values()] == [
                f"primitive '{name}' undefined at value {v}" for v in (math.inf, -math.inf)
            ]


UNARY = ("exp", "log", "sin", "cos", "tan", "sinh", "cosh", "tanh", "arctan", "arcsin",
         "arccos", "arcsinh", "arccosh", "arctanh", "sqrt")
# domain edges, and magnitudes whose tables overflow or divide by a power
# that underflows to zero
EDGE_VALUES = (0.0, -0.0, 1.0, -1.0, 2.0, 1e-8, 1e-110, 1e-117, 1e-200, -1e-200, 5e-324,
               1e200, -1e200, 1e103, 1e155, 709.0, 710.0, -745.0, math.pi / 2, math.inf,
               -math.inf, math.nan)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_primitive_point_matches_its_batch_column(data):
    # a point's Series (a batch of one) or float is its column of the batch
    # bit for bit, and the batch's rejected columns carry the errors their
    # points raise alone
    name = data.draw(st.sampled_from(UNARY + ("pow", "reciprocal")))
    if name == "pow":
        p = data.draw(st.floats(-3.5, 3.5).filter(lambda q: not q.is_integer()))
        fn = lambda x: x ** p  # noqa: E731
    else:
        fn = (lambda x: 1.0 / x) if name == "reciprocal" else getattr(tm, name)
    plain = name in UNARY and data.draw(st.booleans())
    values = data.draw(st.lists(
        st.one_of(st.sampled_from(EDGE_VALUES), st.floats(), st.floats(-3.0, 3.0)),
        min_size=1, max_size=12,
    ))
    ctx = tm.get_context(1, data.draw(st.integers(0, 3)))

    def columns(vs):
        if plain:
            return list(fn(vs))
        out = fn(tm.Series.variable(ctx, 0, vs))
        return [out.c[:, b] for b in range(len(vs))]

    batch = tm.column_results(columns, np.array(values))
    for v, got in zip(values, batch):
        try:
            alone = np.float64(fn(v)) if plain else jet_alone(fn, v, ctx)
        except tm.PrimitiveDomainError as err:
            assert type(got) is type(err) and str(got) == str(err), (name, v)
            continue
        assert not isinstance(got, Exception), (name, v, got)
        assert np.asarray(got).tobytes() == alone.tobytes(), (name, v)


def test_univariate_primitive_refuses_components():
    # a vector's components are no batch: a primitive of one is a TypeError
    ctx = tm.get_context(2, 3)
    vec = tm.Series.stack(
        [tm.Series.variable(ctx, i, np.array([2.0 + i])) for i in range(2)], ctx, 1
    )
    assert vec.c.flags.c_contiguous and vec.gradient().c.flags.c_contiguous
    for fn in (tm.exp, tm.sqrt, lambda x: x ** 2.5, lambda x: 1.0 / x, lambda x: x ** -1,
               lambda x: tm.compose_univariate(x, [1.0, 1.0, 1.0, 1.0])):
        with pytest.raises(TypeError, match="shape"):
            fn(vec)
    assert (vec ** 2)[1].c.tobytes() == (vec[1] * vec[1]).c.tobytes()


def test_integer_power_is_the_square_and_multiply_chain_bit_for_bit():
    # x ** k starts from x itself, so a -0.0 coefficient of x ** 1 stays
    # -0.0 (a product by the constant 1 would make it +0.0)
    ctx = tm.get_context(2, 3)
    for values in (np.array([[-1.5, -0.0, 0.75, 3.0], [0.5, 2.0, -0.0, -1.25]]),
                   np.array([[-1.5, 0.3, 0.75, 3.0], [0.5, 2.0, -0.7, -1.25]])):
        x0, x1 = (tm.Series.variable(ctx, i, values[i]) for i in range(2))
        for x in (x0, x0 * x1 - 0.5 * x0):
            x2 = x * x
            x4 = x2 * x2
            chain = {1: x, 2: x2, 3: x * x2, 4: x4, 5: x * x4}
            for k, want in chain.items():
                assert (x ** k).c.tobytes() == want.c.tobytes(), k
                assert (x ** float(k)).c.tobytes() == want.c.tobytes(), k
                if np.all(x.c[0] != 0.0):
                    assert (x ** -k).c.tobytes() == (1.0 / want).c.tobytes(), -k
            assert (x ** 0).c.tobytes() == tm.Series.constant(ctx, 1.0, 4).c.tobytes()


@pytest.mark.parametrize("order", [1, 2, 3])
def test_compose_univariate_float_table_applies_to_every_column(order):
    # a float entry of the table is each column's, at every batch width,
    # the width order + 1 among them; a (B,) entry is per column
    ctx = tm.get_context(1, order)
    table = [1.0, 2.0, 3.0, 4.0][:order + 1]
    for batch in (1, order + 1, 5):
        x = tm.Series.variable(ctx, 0, np.linspace(0.5, 1.5, batch))
        got = tm.compose_univariate(x, table)
        for b in range(batch):
            alone = tm.compose_univariate(tm.Series(ctx, x.c[:, b:b + 1].copy()), table)
            assert got.c[:, b].tobytes() == alone.c[:, 0].tobytes()
        mixed = tm.compose_univariate(x, [np.full(batch, 1.0)] + table[1:])
        assert mixed.c.tobytes() == got.c.tobytes()
    # the coefficient of (x - v)^k is g^(k)(v) / k!
    assert got.c[:, 0].tolist() == [1.0, 2.0, 1.5, 4.0 / 6.0][:order + 1]
    with pytest.raises(ValueError):
        tm.compose_univariate(x, [np.ones(2)] + table[1:])


def test_batch_rejection_is_no_typed_error():
    # handlers of typed rejections must never swallow a batch rejection
    assert not issubclass(tm.BatchRejected, (ValueError, tm.DomainError))
    ctx = tm.get_context(1, 2)
    batch = tm.Series.variable(ctx, 0, np.array([4.0, -1.0, 9.0]))
    with pytest.raises(tm.BatchRejected) as err:
        tm.sqrt(batch)
    assert list(err.value.errors) == [1]
    with pytest.raises(tm.PrimitiveDomainError) as alone:
        jet_alone(tm.sqrt, -1.0, ctx)
    # the flagged column carries the typed error it raises alone
    (column, error), = err.value.errors.items()
    assert column == 1 and type(error) is type(alone.value)
    assert str(error) == str(alone.value)


def test_column_picker_builds_each_columns_error():
    # reject and require hand the error factory a picker of one column's
    # values: Python floats, not numpy scalars
    values = np.array([0.5, -1.0, np.nan])

    points = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])

    def error(at):
        return ValueError(f"{at(values)!r} at {at(points)}")

    with pytest.raises(tm.BatchRejected) as err:
        tm.require(values > 0.0, error)
    assert {b: str(e) for b, e in err.value.errors.items()} == {
        1: "-1.0 at [2. 3.]", 2: "nan at [4. 5.]"
    }
    with pytest.raises(tm.BatchRejected) as again:
        tm.reject(~(values > 0.0), error)
    assert {b: str(e) for b, e in again.value.errors.items()} == {
        b: str(e) for b, e in err.value.errors.items()
    }
    tm.require(values[:1] > 0.0, error)
    tm.reject(np.zeros(3, dtype=bool), error)


def test_column_results_evaluates_no_column_twice():
    # the failing columns keep their errors and the others run again as
    # one batch, until every column ends with its result or its error
    calls = []

    def fn(xs):
        calls.append(xs.tolist())
        tm.reject(xs > 2.0, lambda at: ValueError(f"{at(xs)} too large"))
        tm.reject(xs < 0.0, lambda at: ValueError(f"{at(xs)} negative"))
        return (10.0 * xs).tolist()

    xs = np.array([1.0, 3.0, -1.0, 2.0, 4.0])
    out = tm.column_results(fn, xs)
    assert [str(r) if isinstance(r, Exception) else r for r in out] == [
        10.0, "3.0 too large", "-1.0 negative", 20.0, "4.0 too large"
    ]
    assert calls == [[1.0, 3.0, -1.0, 2.0, 4.0], [1.0, -1.0, 2.0], [1.0, 2.0]]
    assert tm.column_results(fn, np.zeros(0)) == []


def test_per_index_raises_the_first_failing_sample():
    # sample 2 is refused at the first check and sample 0 only at a later
    # one, after the others run again: per_index raises sample 0's error,
    # the least refused index, and evaluates no refused sample again
    calls = []

    def fn(ks):
        calls.append(ks.tolist())
        tm.reject(ks == 2, lambda at: ValueError(f"sample {at(ks)} at the first check"))
        tm.reject(ks == 0, lambda at: ValueError(f"sample {at(ks)} at a later check"))
        return (10 * ks).tolist()

    with pytest.raises(ValueError, match="^sample 0 at a later check$"):
        tm.per_index(fn, 4)
    assert calls == [[0, 1, 2, 3], [0, 1, 3], [1, 3]]
    assert tm.per_index(lambda ks: (10 * ks).tolist(), 3) == [0, 10, 20]
    assert tm.per_index(fn, 0) == []
    calls.clear()
    with pytest.raises(ValueError, match="^sample 2 at the first check$"):
        tm.per_sample(lambda xs: fn(xs.astype(int)), [3.0, 2.0, 1.0])
    assert calls == [[3, 2, 1], [3, 1]]


def test_expression_parser_matches_direct():
    f = tm.parse_expression("arcsinh(tan(x)) + y**2 / (1 + cosh(x*y))", ["x", "y"])
    direct = lambda xs: tm.arcsinh(tm.tan(xs[0])) + xs[1] ** 2 / (1 + tm.cosh(xs[0] * xs[1]))
    x = [0.3, -0.7]
    assert f(x) == pytest.approx(direct(x), abs=1e-15)
    ja = jet_eval(f, x, 3)
    jb = jet_eval(direct, x, 3)
    assert np.allclose(ja.taylor, jb.taylor, atol=1e-15)
    # a variable exponent of a constant base, a constant one of a variable
    f = tm.parse_expression("2**x * (y + 1)**(1/2)", ["x", "y"])
    direct = lambda xs: 2.0 ** xs[0] * (xs[1] + 1.0) ** 0.5
    assert np.allclose(jet_eval(f, x, 3).taylor, jet_eval(direct, x, 3).taylor, atol=1e-15)


@pytest.mark.parametrize(
    "bad",
    [
        "__import__('os')",
        "x.y",
        "foo(x)",
        "x if y else 0",
        "[1,2]",
        "lambda v: v",
        "x @ y",
        "True",
        "x ** y",
    ],
)
def test_expression_parser_rejects_non_vocabulary(bad):
    with pytest.raises(ValueError):
        tm.parse_expression(bad, ["x", "y"])


def test_expression_constants():
    f = tm.parse_expression("sin(pi/2) + e", ["x"])
    assert f([0.0]) == pytest.approx(1.0 + math.e, abs=1e-15)


def test_series_division_and_rpow():
    ctx = tm.get_context(1, 3)
    x = tm.Series.variable(ctx, 0, np.array([0.5]))
    y = (2.0 ** x) * (1.0 / (1.0 + x))
    ref = jet_eval(lambda xs: 2.0 ** xs[0] / (1.0 + xs[0]), [0.5], 3)
    assert np.allclose(y.c[:, 0], ref.taylor[0], atol=1e-15)


def test_jet_order_zero():
    jet = jet_eval(lambda xs: tm.exp(xs[0]), [1.0], 0)
    assert jet.value[0] == pytest.approx(math.e, abs=1e-15)
    with pytest.raises(ValueError):
        jet_eval(lambda xs: xs[0], [1.0], 5)
