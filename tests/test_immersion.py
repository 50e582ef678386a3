"""Induced metrics, intrinsic operators and curvature of immersed charts."""

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from nullgeom import cli
from nullgeom import conformal as cf
from nullgeom import immersion as imm
from nullgeom import nullcone as nc
from nullgeom import spacetime as st
from nullgeom import taylor as tm
from nullgeom.taylor import SmoothMap

from _jets import FdScheme, fd_derivative
from _surfaces import (
    cylinder_immersion,
    geometry_alone,
    grw_graph,
    hessian_laplacian,
    hxr_immersion,
    inner_at,
    intrinsic_gradient,
    psi_f_desitter,
    psi_f_minkowski,
    pullback_metric_chart,
    refused_alone,
    sample_box,
    slice_immersion,
    sphere_box,
)


def hyperbolic_chart_metric(y):
    y = np.asarray(y, dtype=float)
    return np.eye(len(y)) - np.outer(y, y) / (1.0 + y @ y)


def flat_chart(dim):
    return imm.MetricChart(
        metric=lambda cs: [
            [1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)
        ],
        dim=dim,
    )


def hyperboloid_height(ys):
    # u = cosh(r) on the f == 1 section
    return tm.sqrt(1.0 + tm.norm_sq(ys))


# ---------------------------------------------------------------------------
# induced metrics


def test_hyperboloid_section_metric_is_hyperbolic():
    im = psi_f_minkowski(2)
    rng = np.random.default_rng(7)
    for _ in range(20):
        y = rng.uniform(-0.9, 0.9, size=2)
        geo = geometry_alone(im, y)
        assert np.allclose(geo.g0[0], hyperbolic_chart_metric(y), atol=1e-12)
        assert np.allclose(geo.g0[0] @ geo.g_inv0[0], np.eye(2), atol=1e-12)
        assert np.allclose(geo.christoffel[0], geo.christoffel[0].transpose(0, 2, 1))


def test_desitter_alpha0_metric_is_round_for_any_f():
    def f(qs):
        return 1.0 + 0.2 * tm.sin(qs[0]) * tm.cos(qs[1])

    im = psi_f_desitter(2, 0.0, f)
    round_chart = pullback_metric_chart(st.sphere_chart(2))
    rng = np.random.default_rng(11)
    for x in sample_box(rng, sphere_box(2), 20):
        g = geometry_alone(im, x).g0[0]
        g_round = geometry_alone(round_chart, x).g0[0]
        assert np.allclose(g, g_round, atol=1e-12)


def test_cylinder_metric_is_warped_product():
    im = cylinder_immersion(2, lambda t: t * t + 1.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = np.array([rng.uniform(-1.2, 1.2), rng.uniform(-2.5, 2.5)])
        g = geometry_alone(im, x).g0[0]
        f = x[0] ** 2 + 1.0
        assert np.allclose(g, np.diag([1.0, f * f]), atol=1e-12)


def test_metric_membership_enforced():
    model = st.AmbientModel("minkowski", 2)
    cone = nc.NullconeSpec(model, "minkowski_cone")
    chart = st.sphere_chart(2)
    bad = imm.Immersion(
        SmoothMap(
            lambda qs: [1.0] + [2.0 * q for q in chart.fn(qs)],
            2,
            4,
            domain=chart.domain,
        ),
        model,
        cone,
    )
    with pytest.raises(nc.PointRejected) as err:
        geometry_alone(bad, np.array([1.0, 0.5]))
    assert err.value.reason is nc.RejectionReason.OFF_CONE


def test_membership_refusal_does_not_depend_on_the_batch():
    # where the conformal time refuses a column (a time outside the warping
    # domain), membership still checks the others: a point off the cone
    # reads its own refusal alone, before that column and after it
    model = st.AmbientModel("grw_euclidean", 2,
                            warping=st.WarpingFunction("exp", domain=(-5.0, 2.0)))
    im = imm.Immersion(SmoothMap(lambda cs: [cs[0], 3.0, cs[1], 0.0], 2, 4), model,
                       nc.NullconeSpec(model, "grw_cone"))
    off, outside = [1.0, 0.5], [2.5, 0.5]
    for xs in ([off], [outside, off], [off, outside]):
        _, kept = tm.float_edges(imm.geometry_columns)(im, np.array(xs))
        errors = [str(kept.errors[b]) for b in range(len(xs))]
        assert errors[xs.index(off)] == "off_cone: |F| = 8.850e+00"
        if outside in xs:
            assert errors[xs.index(outside)] == "time 2.5 outside warping domain (-5.0, 2.0)"


def test_signature_error_for_non_spacelike_chart():
    model = st.AmbientModel("minkowski", 2)
    bad = imm.Immersion(
        SmoothMap(lambda cs: [2.0 * cs[0], cs[0], cs[1], 0.0], 2, 4), model
    )
    with pytest.raises(imm.MetricSignatureError):
        geometry_alone(bad, np.array([0.3, 0.4]))
    lorentz = imm.MetricChart(
        metric=lambda cs: [[-1.0, 0.0], [0.0, 1.0]], dim=2
    )
    with pytest.raises(imm.MetricSignatureError):
        geometry_alone(lorentz, np.zeros(2))


def test_non_finite_metric_is_refused():
    # a metric entry of inf or NaN passes the eigenvalue, floor and inverse
    # tests; the last check refuses it, so a column those tests refuse
    # keeps its message
    metric = imm.MetricChart(
        lambda cs: [[cs[0], 0.0], [0.0, 1.0 + cs[1] * 1e200 * 1e200]], 2
    )
    points = np.array([[0.3, 0.0], [0.3, 1.0], [-1.0, 0.0]])
    with pytest.raises(tm.BatchRejected) as err:
        tm.float_edges(imm.chart_geometry)(metric, points)
    assert {b: str(e) for b, e in err.value.errors.items()} == {
        1: "induced metric at (0.3, 1.0) is not finite",
        2: "induced metric at (-1.0, 0.0) is not positive definite (min eigenvalue -1.000e+00)",
    }
    nan_metric = imm.MetricChart(lambda cs: [[cs[0] * np.nan, 0.0], [0.0, 1.0]], 2)
    with pytest.raises(tm.BatchRejected) as err:
        tm.float_edges(imm.chart_geometry)(nan_metric, points[:1])
    assert str(err.value.errors[0]) == "induced metric at (0.3, 0.0) is not finite"
    # it passed as residuals of 0.0 before
    with pytest.raises(imm.MetricSignatureError, match="is not finite"):
        cf.conformal_curvature_check(nan_metric, lambda cs: 1.0 + 0.0 * cs[0], points[:1])


def test_immersion_validation():
    model = st.AmbientModel("minkowski", 2)
    with pytest.raises(ValueError):
        imm.Immersion(SmoothMap(lambda cs: [cs[0]] * 3, 2, 3), model)
    with pytest.raises(ValueError):
        imm.Immersion(SmoothMap(lambda cs: [cs[0]] * 4, 3, 4), model)
    other = st.AmbientModel("minkowski", 3)
    cone = nc.NullconeSpec(other, "minkowski_cone")
    with pytest.raises(ValueError):
        imm.Immersion(SmoothMap(lambda cs: [cs[0]] * 4, 2, 4), model, cone)
    im = slice_immersion(2, 1.0)
    with pytest.raises(ValueError):
        geometry_alone(im, np.array([-0.2, 0.0]))  # outside the angle box
    with pytest.raises(TypeError):
        geometry_alone(object(), np.zeros(2))


# ---------------------------------------------------------------------------
# gradients


def test_gradient_of_constant_vanishes():
    im = psi_f_minkowski(2)
    comps, norm_sq = intrinsic_gradient(im, lambda ys: 4.2, [0.3, -0.5])
    assert np.allclose(comps, 0.0)
    assert norm_sq == 0.0


def test_hyperboloid_height_gradient_norm():
    # |grad cosh r|^2 = sinh^2 r = u^2 - 1
    rng = np.random.default_rng(5)
    for n in (2, 3):
        im = psi_f_minkowski(n)
        for _ in range(10):
            y = rng.uniform(-0.8, 0.8, size=n)
            _, norm_sq = intrinsic_gradient(im, hyperboloid_height, y)
            u = np.sqrt(1.0 + y @ y)
            assert abs(norm_sq - (u * u - 1.0)) < 1e-10


def test_slice_height_gradient_vanishes():
    im = slice_immersion(2, 1.5)
    comps, norm_sq = intrinsic_gradient(im, lambda qs: 1.5, [1.0, 0.7])
    assert np.allclose(comps, 0.0)
    assert norm_sq == 0.0


# ---------------------------------------------------------------------------
# Hessians and Laplacians


def test_flat_hessians():
    chart = flat_chart(2)
    hess, lap = hessian_laplacian(chart, lambda cs: 3.0 * cs[0] - cs[1], [0.2, 0.9])
    assert np.allclose(hess, 0.0, atol=1e-14)
    assert abs(lap) < 1e-14
    hess, lap = hessian_laplacian(chart, lambda cs: cs[0] * cs[0], [0.2, 0.9])
    assert np.allclose(hess, np.diag([2.0, 0.0]), atol=1e-13)
    assert abs(lap - 2.0) < 1e-13


def test_hyperboloid_height_laplacian():
    # Hess(cosh r) = cosh(r) g, so the frame Hessian is u I and Lap u = n u
    rng = np.random.default_rng(9)
    for n in (2, 3):
        im = psi_f_minkowski(n)
        for _ in range(10):
            y = rng.uniform(-0.8, 0.8, size=n)
            hess, lap = hessian_laplacian(im, hyperboloid_height, y)
            u = np.sqrt(1.0 + y @ y)
            assert np.allclose(hess, u * np.eye(n), atol=1e-11)
            assert abs(lap - n * u) < 1e-11


def test_laplacian_product_rule():
    im = psi_f_minkowski(2)

    def h(ys):
        return tm.sqrt(1.0 + tm.norm_sq(ys))

    def k(ys):
        return tm.exp(0.3 * ys[0]) + tm.sin(ys[1])

    rng = np.random.default_rng(13)
    for _ in range(20):
        y = rng.uniform(-0.8, 0.8, size=2)
        geo = geometry_alone(im, y)
        sh, sk = geo.scalar_series(h), geo.scalar_series(k)
        lhs = geo.laplacian(sh * sk)[0]
        cross = float(geo.partials(sh)[0] @ geo.g_inv0[0] @ geo.partials(sk)[0])
        rhs = (sh.val * geo.laplacian(sk) + sk.val * geo.laplacian(sh))[0] + 2.0 * cross
        assert abs(lhs - rhs) < 1e-7


# ---------------------------------------------------------------------------
# curvature


def test_scalar_curvature_anchors():
    round_chart = pullback_metric_chart(st.sphere_chart(2))
    assert abs(geometry_alone(round_chart, [1.1, 0.4]).scal[0] - 2.0) < 1e-9
    im = psi_f_minkowski(2)
    assert abs(geometry_alone(im, [0.4, -0.3]).scal[0] + 2.0) < 1e-9
    assert abs(geometry_alone(flat_chart(2), [0.1, 0.2]).scal[0]) < 1e-12
    # t = c slice of the cone carries the radius-c round metric
    assert (
        abs(geometry_alone(slice_immersion(2, 2.0), [1.2, 0.3]).scal[0] - 0.5)
        < 1e-9
    )


def test_scalar_curvature_scaling():
    im = psi_f_minkowski(2)
    base = pullback_metric_chart(st.hyperbolic_chart(2), signs=(-1.0, 1.0, 1.0))
    rng = np.random.default_rng(17)
    for _ in range(10):
        y = rng.uniform(-0.8, 0.8, size=2)
        c2 = rng.uniform(0.5, 3.0)
        scaled = imm.MetricChart(
            metric=lambda cs, c2=c2: [
                [c2 * entry for entry in row] for row in base.metric(cs)
            ],
            dim=2,
        )
        s0 = geometry_alone(base, y).scal[0]
        s1 = geometry_alone(scaled, y).scal[0]
        assert abs(s1 - s0 / c2) < 1e-7
        assert abs(geometry_alone(im, y).scal[0] - s0) < 1e-9


def test_metric_compatibility():
    geos = [
        geometry_alone(psi_f_minkowski(2), [0.5, -0.2]),
        geometry_alone(
            cylinder_immersion(2, lambda t: t * t + 1.0), [0.4, 1.1]
        ),
        geometry_alone(psi_f_desitter(2, 0.5, 0.5 * np.sqrt(3.0), "minus"), [1.2, 0.6]),
    ]
    for geo in geos:
        n = geo.dim
        for k in range(n):
            dg = np.array(
                [
                    [geo.g_series[i][j].gradient()[k].val[0] for j in range(n)]
                    for i in range(n)
                ]
            )
            # nabla_k g_ij = d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il
            corr = np.einsum("li,lj->ij", geo.christoffel[0][:, k, :], geo.g0[0])
            corr += np.einsum("lj,li->ij", geo.christoffel[0][:, k, :], geo.g0[0])
            assert np.max(np.abs(dg - corr)) < 1e-8


def test_orthonormal_frame():
    geo = geometry_alone(psi_f_minkowski(3), [0.4, -0.2, 0.6])
    b = geo.onf[0]
    assert np.allclose(b.T @ geo.g0[0] @ b, np.eye(3), atol=1e-12)
    # Cholesky frame is triangular: Gram-Schmidt on the coordinate basis
    assert np.allclose(np.tril(b, -1), 0.0, atol=1e-14)


def test_tangency_on_target_cones():
    cases = [
        (psi_f_minkowski(2), np.array([0.4, -0.6])),
        (cylinder_immersion(2, lambda t: t * t + 1.0), np.array([0.7, 1.3])),
        (psi_f_desitter(2, 0.5, 0.5 * np.sqrt(3.0), "minus"), np.array([1.1, 0.8])),
        (
            grw_graph(
                st.AmbientModel(
                    "grw_euclidean", 2, warping=st.WarpingFunction("exp")
                ),
                lambda cs: 0.9 + 0.1 * tm.sin(cs[0]) * tm.cos(cs[1]),
            ),
            np.array([1.3, 0.5]),
        ),
    ]
    for im, x in cases:
        geo = geometry_alone(im, x)
        grad = nc.null_gradient(im.target_cone, geo.position.truncate(imm.FRAME_ORDER)).val[:, 0]
        for i in range(geo.dim):
            inner = inner_at(im.model, geo.psi0[0], grad, geo.tangents[0, i])
            assert abs(inner) < 1e-8


def test_christoffel_matches_fd_oracle():
    im = psi_f_minkowski(2)
    x = np.array([0.35, -0.55])
    geo = geometry_alone(im, x)
    scheme = FdScheme(step=1e-3, order=4)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                fn = lambda ys, i=i, j=j: geometry_alone(im, ys).g0[0, i, j]
                e_k = tuple(1 if a == k else 0 for a in range(2))
                fd = fd_derivative(fn, x, e_k, scheme)
                assert abs(geo.g_series[i][j].gradient()[k].val[0] - fd) < 1e-6


def test_hxr_surface_metric():
    im = hxr_immersion(lambda s: s * s + 1.0)
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)])
        g = geometry_alone(im, x).g0[0]
        v = x[0] ** 2 + 1.0
        assert np.allclose(g, np.diag([1.0, v * v]), atol=1e-12)


DENSE_GRID = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "dense-grid.json"


def test_singular_mask_matches_inversions_alone_on_dense_grids(monkeypatch):
    # the metric stacks that inv refuses on the dense grids, whose polar row
    # is singular: the batched mask flags the matrices inv refuses alone
    stacks = []
    real = imm._lapack

    def recording(gufunc, a):
        if gufunc is _umath_linalg.inv:
            stacks.append(a.copy())
        return real(gufunc, a)

    monkeypatch.setattr(imm, "_lapack", recording)
    with DENSE_GRID.open() as fh:
        configs = [s["config"] for s in json.load(fh)["scenes"]]
    for config in configs:
        cli.run(config)
    refusing = 0
    for a in stacks:
        _, mask = real(_umath_linalg.inv, a)
        assert np.array_equal(mask, refused_alone(np.linalg.inv, a))
        # a stack that inv fails as a whole has a matrix inv refuses alone
        assert imm._recorded(_umath_linalg.inv, a)[1] == mask.any()
        refusing += bool(mask.any())
    assert refusing >= len(configs)


def assert_lone_results(gufunc, op, a, expect=None):
    """`immersion._lapack` of the stack a: its mask flags exactly the
    matrices that the numpy.linalg op refuses alone (`expect`, if given,
    too), and every other matrix's result is op's alone, bit for bit."""
    out, mask = imm._lapack(gufunc, a)
    assert np.array_equal(mask, refused_alone(op, a))
    if expect is not None:
        assert np.array_equal(mask, expect)
    for b in np.flatnonzero(~mask).tolist():
        assert out[b].tobytes() == op(a[b]).tobytes()
    return mask


def symmetric_stack(rng, n, count=16):
    """count random symmetric positive definite n x n matrices, and planted
    in the first five: a NaN, an inf on and one off the diagonal, an
    indefinite matrix, and [[1, 1], [1, 1 - 1e-13]] on the leading block,
    whose lowest eigenvalue passes the floor but which has no Cholesky
    factor."""
    m = rng.standard_normal((count, n, n))
    a = m @ m.swapaxes(-1, -2) + n * np.eye(n)
    a[0, 0, 0] = np.nan
    a[1, -1, -1] = np.inf
    a[2, 0, -1] = a[2, -1, 0] = np.inf
    a[3] = np.diag(np.arange(n) - 0.5)
    a[4] = np.eye(n)
    a[4, :2, :2] = [[1.0, 1.0], [1.0, 1.0 - 1e-13]]
    return a


def failing_eigvalsh(real, calls):
    """The gufunc behind eigvalsh as a LAPACK build on which it does not
    converge for a matrix with a non-finite entry: NaN eigenvalues and the
    invalid flag, which numpy.linalg raises as a LinAlgError.  Each call's
    argument shape goes to calls."""

    def gufunc(a, **kwargs):
        calls.append(a.shape)
        out = real(a, **kwargs)
        bad = ~np.isfinite(a).all(axis=(-2, -1))
        if bad.any():
            out[bad] = np.nan
            np.sqrt(np.float64(-1.0))  # the invalid flag
        return out

    return gufunc


@pytest.mark.parametrize("n", [2, 3, 4])
def test_singular_mask_matches_inv_and_solve_alone_on_planted_stacks(monkeypatch, n):
    rng = np.random.default_rng(n)
    eye = np.broadcast_to(np.eye(n), (64, n, n))
    for _ in range(20):
        a = rng.standard_normal((64, n, n))
        planted = rng.choice(64, size=8, replace=False)
        for k, b in enumerate(planted):
            m = rng.integers(-3, 4, size=(n, n)).astype(float)
            if k % 4 == 0:
                m[rng.integers(n)] = 0.0  # a zero row
            elif k % 4 == 1:
                m[:, rng.integers(n)] = 0.0  # a zero column
            elif k % 4 == 2:
                m[-1] = 2.0 * m[0]  # two parallel rows
            else:
                m = np.outer(m[0], m[1])  # rank one
            a[b] = m
        mask = assert_lone_results(_umath_linalg.inv, np.linalg.inv, a)
        assert np.array_equal(mask, refused_alone(np.linalg.solve, a, eye))
        assert mask[planted].sum() >= 4  # the zero rows and columns at least
    # the metric's Cholesky factor and eigenvalues: the planted stack's
    # non-finite, indefinite and nearly singular matrices among others
    a = symmetric_stack(rng, n)
    mask = assert_lone_results(_umath_linalg.cholesky_lo, np.linalg.cholesky, a)
    assert mask[3:5].all() and not mask[5:].any()
    assert_lone_results(_umath_linalg.eigvalsh_lo, np.linalg.eigvalsh, a)
    # LAPACK builds differ in the matrices whose eigenvalues do not converge:
    # one that fails on every non-finite matrix
    calls = []
    monkeypatch.setattr(_umath_linalg, "eigvalsh_lo",
                        failing_eigvalsh(_umath_linalg.eigvalsh_lo, calls))
    assert_lone_results(_umath_linalg.eigvalsh_lo, np.linalg.eigvalsh, a, np.arange(16) < 3)
    # the stack ran once, and only its NaN results were tried alone
    assert calls[:4] == [a.shape] + [(n, n)] * 3
    # a metric chart whose metric has no Cholesky factor at one column: the
    # frame refuses that column only, with the error it raises alone
    def metric(cs):
        g = np.eye(n).tolist()
        g[0][1] = g[1][0] = cs[0]
        g[1][1] = 1.0 - 1e-13
        return g

    chart = imm.MetricChart(metric, n)
    x = np.zeros((4, n))
    x[:, 0] = (0.5, 1.0, -0.3, 0.2)
    geo = imm.chart_geometry(chart, x)
    with pytest.raises(tm.BatchRejected) as err:
        geo.onf
    assert list(err.value.errors) == [1]
    with pytest.raises(imm.MetricSignatureError, match="has no Cholesky factor$") as alone:
        tm.per_sample(lambda xs: [imm.chart_geometry(chart, xs).onf], [x[1]])
    assert str(err.value.errors[1]) == str(alone.value)
