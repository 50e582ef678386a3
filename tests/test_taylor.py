import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullgeom import taylor as tm
from _composites import (
    FD_SCHEMES,
    REL_TOL,
    jet_fd_max_rel_error,
    jet_partial,
    random_composite,
    random_point,
)


def test_identity_jacobian():
    jet = tm.jet_eval(lambda xs: list(xs), [0.3, -1.2, 2.0], 1)
    assert np.allclose(jet.jacobian, np.eye(3), atol=0.0)
    assert np.allclose(jet.value, [0.3, -1.2, 2.0], atol=0.0)


def test_cubic_partials():
    jet = tm.jet_eval(lambda xs: xs[0] ** 3, [2.0], 3)
    assert jet.value[0] == pytest.approx(8.0, abs=1e-14)
    assert jet_partial(jet, (1,))[0] == pytest.approx(12.0, abs=1e-12)
    assert jet_partial(jet, (2,))[0] == pytest.approx(12.0, abs=1e-12)
    assert jet_partial(jet, (3,))[0] == pytest.approx(6.0, abs=1e-12)


def test_arcsinh_tan_against_fd():
    fn = lambda xs: tm.arcsinh(tm.tan(xs[0]))
    for deg in (1, 2, 3):
        assert jet_fd_max_rel_error(fn, np.array([0.3]), deg) < 1e-6


def test_fd_quadratic_exact():
    val = tm.fd_derivative(lambda xs: xs[0] ** 2, [1.0], (2,), tm.FdScheme(step=1e-3))
    assert val == pytest.approx(2.0, abs=1e-8)


def test_fd_exp_first_derivative():
    fd = tm.fd_derivative(lambda xs: tm.exp(xs[0]), [0.0], (1,), tm.FdScheme(step=1e-4))
    jet = jet_partial(tm.jet_eval(lambda xs: tm.exp(xs[0]), [0.0], 1), (1,))[0]
    assert fd == pytest.approx(1.0, abs=1e-9)
    assert jet == pytest.approx(fd, abs=1e-9)


def test_fd_bilinear_mixed_partial():
    val = tm.fd_derivative(lambda xs: xs[0] * xs[1], [3.0, 5.0], (1, 1))
    assert val == pytest.approx(1.0, abs=1e-8)


def test_mixed_partial_symmetry_by_storage():
    fn = lambda xs: tm.sin(xs[0]) * tm.exp(xs[1]) + xs[0] * xs[1] ** 2
    jet = tm.jet_eval(fn, [0.4, -0.2], 3)
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
        tm.jet_eval(lambda xs: tm.sqrt(xs[0]), [-2.0], 1)
    assert err.value.primitive == "sqrt"
    assert err.value.point == (-2.0,)
    assert "sqrt" in str(err.value)


def test_log_domain_error_on_floats():
    with pytest.raises(tm.PrimitiveDomainError):
        tm.log(0.0)


def test_fd_stencil_domain_error():
    m = tm.SmoothMap(lambda xs: xs[0] ** 2, n_inputs=1, domain=((0.0, 1.0),))
    with pytest.raises(tm.StencilDomainError) as err:
        tm.fd_derivative(m, [0.0001], (1,), tm.FdScheme(step=0.01, richardson=False))
    assert err.value.stencil_point[0] < 0.0


def test_fd_stencil_error_on_primitive_edge():
    fn = lambda xs: tm.sqrt(xs[0])
    with pytest.raises(tm.StencilDomainError):
        tm.fd_derivative(fn, [1e-6], (1,), tm.FdScheme(step=1e-3))


def test_richardson_combination_beats_raw_estimate():
    fn = lambda xs: tm.exp(tm.sin(xs[0]))
    truth = jet_partial(tm.jet_eval(fn, [0.7], 3), (3,))[0]
    raw = tm.fd_derivative(fn, [0.7], (3,), tm.FdScheme(step=0.02, richardson=False))
    rich = tm.fd_derivative(fn, [0.7], (3,), tm.FdScheme(step=0.02, richardson=True))
    assert abs(rich - truth) < abs(raw - truth)


def test_fourth_order_stencils():
    fn = lambda xs: tm.sin(xs[0]) * tm.cosh(xs[1])
    jet = tm.jet_eval(fn, [0.5, -0.3], 3)
    for alpha in [(1, 0), (0, 2), (2, 1), (1, 2)]:
        fd = tm.fd_derivative(fn, [0.5, -0.3], alpha, tm.FdScheme(step=5e-3, order=4))
        assert fd == pytest.approx(float(jet_partial(jet, alpha)[0]), abs=1e-7)


def test_vector_jet_hessian_values():
    fn = lambda xs: [xs[0] * xs[1], tm.cos(xs[0])]
    jet = tm.jet_eval(fn, [0.2, 0.9], 2)
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
    jet = tm.jet_eval(lambda xs: xs[0] ** 3, [2.0], 3)
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


def test_batch_rejection_is_no_typed_error():
    # handlers of typed rejections must never swallow a batch rejection
    assert not issubclass(tm.BatchRejected, (ValueError, tm.DomainError))
    ctx = tm.get_context(1, 2)
    batch = tm.Series.variable(ctx, 0, np.array([4.0, -1.0, 9.0]))
    with pytest.raises(tm.BatchRejected) as err:
        tm.sqrt(batch)
    assert err.value.mask.tolist() == [False, True, False]
    with pytest.raises(tm.PrimitiveDomainError):
        tm.sqrt(tm.Series.variable(ctx, 0, -1.0))


def test_expression_parser_matches_direct():
    f = tm.parse_expression("arcsinh(tan(x)) + y**2 / (1 + cosh(x*y))", ["x", "y"])
    direct = lambda xs: tm.arcsinh(tm.tan(xs[0])) + xs[1] ** 2 / (1 + tm.cosh(xs[0] * xs[1]))
    x = [0.3, -0.7]
    assert f(x) == pytest.approx(direct(x), abs=1e-15)
    ja = tm.jet_eval(f, x, 3)
    jb = tm.jet_eval(direct, x, 3)
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
    ref = tm.jet_eval(lambda xs: 2.0 ** xs[0] / (1.0 + xs[0]), [0.5], 3)
    assert np.allclose(y.c, ref.taylor[0], atol=1e-15)


def test_jet_order_zero():
    jet = tm.jet_eval(lambda xs: tm.exp(xs[0]), [1.0], 0)
    assert jet.value[0] == pytest.approx(math.e, abs=1e-15)
    with pytest.raises(ValueError):
        tm.jet_eval(lambda xs: xs[0], [1.0], 5)
