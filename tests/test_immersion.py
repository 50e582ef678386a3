"""Induced metrics, intrinsic operators and curvature of immersed charts."""

import numpy as np
import pytest

from nullgeom import immersion as imm
from nullgeom import nullcone as nc
from nullgeom import spacetime as st
from nullgeom import taylor as tm
from nullgeom.taylor import SmoothMap

from _surfaces import (
    cylinder_immersion,
    grw_graph,
    hessian_laplacian,
    hxr_immersion,
    inner_at,
    intrinsic_gradient,
    psi_f_desitter,
    psi_f_minkowski,
    pullback_metric_chart,
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
        name="flat",
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
        geo = imm.chart_geometry(im, y)
        assert np.allclose(geo.g0, hyperbolic_chart_metric(y), atol=1e-12)
        assert np.allclose(geo.g0 @ geo.g_inv0, np.eye(2), atol=1e-12)
        assert np.allclose(geo.christoffel, geo.christoffel.transpose(0, 2, 1))


def test_desitter_alpha0_metric_is_round_for_any_f():
    def f(qs):
        return 1.0 + 0.2 * tm.sin(qs[0]) * tm.cos(qs[1])

    im = psi_f_desitter(2, 0.0, f)
    round_chart = pullback_metric_chart(st.sphere_chart(2), name="round")
    rng = np.random.default_rng(11)
    for x in sample_box(rng, sphere_box(2), 20):
        g = imm.chart_geometry(im, x).g0
        g_round = imm.chart_geometry(round_chart, x).g0
        assert np.allclose(g, g_round, atol=1e-12)


def test_cylinder_metric_is_warped_product():
    im = cylinder_immersion(2, lambda t: t * t + 1.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = np.array([rng.uniform(-1.2, 1.2), rng.uniform(-2.5, 2.5)])
        g = imm.chart_geometry(im, x).g0
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
        imm.chart_geometry(bad, np.array([1.0, 0.5]))
    assert err.value.reason is nc.RejectionReason.OFF_CONE


def test_signature_error_for_non_spacelike_chart():
    model = st.AmbientModel("minkowski", 2)
    bad = imm.Immersion(
        SmoothMap(lambda cs: [2.0 * cs[0], cs[0], cs[1], 0.0], 2, 4), model
    )
    with pytest.raises(imm.MetricSignatureError):
        imm.chart_geometry(bad, np.array([0.3, 0.4]))
    lorentz = imm.MetricChart(
        metric=lambda cs: [[-1.0, 0.0], [0.0, 1.0]], dim=2
    )
    with pytest.raises(imm.MetricSignatureError):
        imm.chart_geometry(lorentz, np.zeros(2))


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
        imm.chart_geometry(im, np.array([-0.2, 0.0]))  # outside the angle box
    with pytest.raises(TypeError):
        imm.chart_geometry(object(), np.zeros(2))


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
        geo = imm.chart_geometry(im, y)
        sh, sk = geo.scalar_series(h), geo.scalar_series(k)
        lhs = geo.laplacian(sh * sk)
        cross = float(geo.partials(sh) @ geo.g_inv0 @ geo.partials(sk))
        rhs = sh.val * geo.laplacian(sk) + sk.val * geo.laplacian(sh) + 2.0 * cross
        assert abs(lhs - rhs) < 1e-7


# ---------------------------------------------------------------------------
# curvature


def test_scalar_curvature_anchors():
    round_chart = pullback_metric_chart(st.sphere_chart(2), name="round")
    assert abs(imm.chart_geometry(round_chart, [1.1, 0.4]).scal - 2.0) < 1e-9
    im = psi_f_minkowski(2)
    assert abs(imm.chart_geometry(im, [0.4, -0.3]).scal + 2.0) < 1e-9
    assert abs(imm.chart_geometry(flat_chart(2), [0.1, 0.2]).scal) < 1e-12
    # t = c slice of the cone carries the radius-c round metric
    assert (
        abs(imm.chart_geometry(slice_immersion(2, 2.0), [1.2, 0.3]).scal - 0.5)
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
        s0 = imm.chart_geometry(base, y).scal
        s1 = imm.chart_geometry(scaled, y).scal
        assert abs(s1 - s0 / c2) < 1e-7
        assert abs(imm.chart_geometry(im, y).scal - s0) < 1e-9


def test_metric_compatibility():
    geos = [
        imm.chart_geometry(psi_f_minkowski(2), [0.5, -0.2]),
        imm.chart_geometry(
            cylinder_immersion(2, lambda t: t * t + 1.0), [0.4, 1.1]
        ),
        imm.chart_geometry(psi_f_desitter(2, 0.5, 0.5 * np.sqrt(3.0), "minus"), [1.2, 0.6]),
    ]
    for geo in geos:
        n = geo.dim
        for k in range(n):
            dg = np.array(
                [
                    [geo.g_series[i][j].derivative(k).val for j in range(n)]
                    for i in range(n)
                ]
            )
            # nabla_k g_ij = d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il
            corr = np.einsum("li,lj->ij", geo.christoffel[:, k, :], geo.g0)
            corr += np.einsum("lj,li->ij", geo.christoffel[:, k, :], geo.g0)
            assert np.max(np.abs(dg - corr)) < 1e-8


def test_orthonormal_frame():
    geo = imm.chart_geometry(psi_f_minkowski(3), [0.4, -0.2, 0.6])
    b = geo.onf
    assert np.allclose(b.T @ geo.g0 @ b, np.eye(3), atol=1e-12)
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
        geo = imm.chart_geometry(im, x)
        grad = nc.grad_F_components(im.target_cone, geo.psi0)
        for i in range(geo.dim):
            inner = inner_at(im.model, geo.psi0, grad, geo.tangents[i])
            assert abs(inner) < 1e-8


def test_christoffel_matches_fd_oracle():
    im = psi_f_minkowski(2)
    x = np.array([0.35, -0.55])
    geo = imm.chart_geometry(im, x)
    scheme = tm.FdScheme(step=1e-3, order=4)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                fn = lambda ys, i=i, j=j: imm.chart_geometry(im, ys).g0[i, j]
                e_k = tuple(1 if a == k else 0 for a in range(2))
                fd = tm.fd_derivative(fn, x, e_k, scheme)
                assert abs(geo.g_series[i][j].derivative(k).val - fd) < 1e-6


def test_hxr_surface_metric():
    im = hxr_immersion(lambda s: s * s + 1.0)
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)])
        g = imm.chart_geometry(im, x).g0
        v = x[0] ** 2 + 1.0
        assert np.allclose(g, np.diag([1.0, v * v]), atol=1e-12)
