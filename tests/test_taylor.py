import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullgeom import taylor as tm
from _composites import (
    REL_TOL,
    jet_fd_max_rel_error,
    jet_partial,
    random_composite,
    random_point,
)
from _jets import FdScheme, StencilDomainError, fd_derivative, jet_eval


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
            assert ctx.second_fac[i, j] == ctx.factorials[ctx.second[i, j]]


def test_jet_coefficients_are_derivative_values():
    jet = jet_eval(lambda xs: xs[0] ** 3, [2.0], 3)
    slot = jet.ctx.index[(3,)]
    assert jet.taylor[0, slot] * jet.ctx.factorials[slot] == pytest.approx(6.0, abs=1e-12)
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
    got = (tm.Series(ctx, np.array(a)) * tm.Series(ctx, np.array(b))).c
    assert np.array_equal(got, np.array(want))
    # on a batch (one column per point) each column is its scalar product, bit for bit
    cols_a = [a] + [data.draw(coeffs) for _ in range(batch - 1)]
    cols_b = [b] + [data.draw(coeffs) for _ in range(batch - 1)]
    batched = (tm.Series(ctx, np.array(cols_a).T) * tm.Series(ctx, np.array(cols_b).T)).c
    assert batched.shape == (ctx.n_terms, batch)
    for k in range(batch):
        alone = tm.Series(ctx, np.array(cols_a[k])) * tm.Series(ctx, np.array(cols_b[k]))
        assert batched[:, k].tobytes() == alone.c.tobytes()


# signed zeros next to ordinary values: a product or a sum that changed its
# accumulation order could lose the sign of a zero, or a last bit
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e6, 1e6, allow_nan=False)
)


@settings(deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(0, tm.MAX_ORDER), st.sampled_from([None, 1, 3]))
def test_component_product_matches_entry_products_bitwise(data, n, order, batch):
    ctx = tm.get_context(n, order)
    tail = () if batch is None else (batch,)

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


def test_float_overflow_is_a_primitive_domain_error():
    ctx = tm.get_context(1, 3)
    with pytest.raises(tm.PrimitiveDomainError, match="'exp'"):
        tm.exp(800.0)
    with pytest.raises(tm.PrimitiveDomainError, match="'exp'"):
        tm.exp(tm.Series.variable(ctx, 0, 800.0))
    with pytest.raises(tm.PrimitiveDomainError, match="'pow'"):
        tm.Series.variable(ctx, 0, 1e200) ** 2.5
    with pytest.raises(tm.PrimitiveDomainError, match="'reciprocal'"):
        1.0 / tm.Series.variable(ctx, 0, 1e200)
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
            fn(tm.Series.variable(ctx, 0, tiny))
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
                fn(tm.Series.variable(ctx, 0, inf))
        for batch in (np.array([1.0, math.inf, -math.inf]),
                      tm.Series.variable(ctx, 0, np.array([1.0, math.inf, -math.inf]))):
            with pytest.raises(tm.BatchRejected) as err:
                fn(batch)
            assert list(err.value.errors) == [1, 2]
            assert [str(e) for e in err.value.errors.values()] == [
                f"primitive '{name}' undefined at value {v}" for v in (math.inf, -math.inf)
            ]


def test_univariate_primitive_refuses_components():
    # a vector's components are no batch: a primitive of one is a TypeError
    ctx = tm.get_context(2, 3)
    vec = tm.Series.stack([tm.Series.variable(ctx, i, 2.0 + i) for i in range(2)], ctx)
    assert vec.c.flags.c_contiguous and vec.gradient().c.flags.c_contiguous
    for fn in (tm.exp, tm.sqrt, lambda x: x ** 2.5, lambda x: 1.0 / x, lambda x: x ** -1,
               lambda x: tm.compose_univariate(x, [1.0, 1.0, 1.0, 1.0])):
        with pytest.raises(TypeError, match="shape"):
            fn(vec)
    assert (vec ** 2)[1].c.tobytes() == (vec[1] * vec[1]).c.tobytes()


def test_batch_rejection_is_no_typed_error():
    # handlers of typed rejections must never swallow a batch rejection
    assert not issubclass(tm.BatchRejected, (ValueError, tm.DomainError))
    ctx = tm.get_context(1, 2)
    batch = tm.Series.variable(ctx, 0, np.array([4.0, -1.0, 9.0]))
    with pytest.raises(tm.BatchRejected) as err:
        tm.sqrt(batch)
    assert list(err.value.errors) == [1]
    with pytest.raises(tm.PrimitiveDomainError) as alone:
        tm.sqrt(tm.Series.variable(ctx, 0, -1.0))
    # the flagged column carries the typed error it raises alone
    (column, error), = err.value.errors.items()
    assert column == 1 and type(error) is type(alone.value)
    assert str(error) == str(alone.value)


def test_column_picker_builds_each_columns_error():
    # reject and require hand the error factory a picker of one column's
    # values, laid out as at one point: Python floats, not numpy scalars
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
    with pytest.raises(ValueError, match="^-1.0 at -1.0$"):
        tm.reject(True, lambda at: ValueError(f"{at(-1.0)!r} at {at(-1.0)}"))
    tm.require(values[:1] > 0.0, error)
    tm.reject(np.zeros(3, dtype=bool), error)


def test_column_results_evaluates_no_column_twice():
    # the failing columns keep their errors and the others run again as
    # one batch; with `first`, only the columns before the first failure
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
    calls.clear()
    out = tm.column_results(fn, xs, first=True)
    assert out[:1] == [10.0] and str(out[1]) == "3.0 too large" and len(out) == 2
    assert calls == [[1.0, 3.0, -1.0, 2.0, 4.0], [1.0]]
    assert tm.column_results(fn, np.array([1.0, 2.0]), first=True) == [10.0, 20.0]
    assert tm.column_results(fn, np.zeros(0)) == []


def test_expression_parser_matches_direct():
    f = tm.parse_expression("arcsinh(tan(x)) + y**2 / (1 + cosh(x*y))", ["x", "y"])
    direct = lambda xs: tm.arcsinh(tm.tan(xs[0])) + xs[1] ** 2 / (1 + tm.cosh(xs[0] * xs[1]))
    x = [0.3, -0.7]
    assert f(x) == pytest.approx(direct(x), abs=1e-15)
    ja = jet_eval(f, x, 3)
    jb = jet_eval(direct, x, 3)
    assert np.allclose(ja.taylor, jb.taylor, atol=1e-15)


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
    x = tm.Series.variable(ctx, 0, 0.5)
    y = (2.0 ** x) * (1.0 / (1.0 + x))
    ref = jet_eval(lambda xs: 2.0 ** xs[0] / (1.0 + xs[0]), [0.5], 3)
    assert np.allclose(y.c, ref.taylor[0], atol=1e-15)


def test_jet_order_zero():
    jet = jet_eval(lambda xs: tm.exp(xs[0]), [1.0], 0)
    assert jet.value[0] == pytest.approx(math.e, abs=1e-15)
    with pytest.raises(ValueError):
        jet_eval(lambda xs: xs[0], [1.0], 5)
