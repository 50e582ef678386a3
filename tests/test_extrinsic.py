"""Null frames, Weingarten maps, expansions and the trapped classifier."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from nullgeom import cli
from nullgeom import extrinsic as ext
from nullgeom import immersion as imm
from nullgeom import nullcone as nc
from nullgeom import spacetime as st
from nullgeom import taylor as tm
from nullgeom.extrinsic import ExtrinsicPoint

from nullgeom.scenes import builtin_scenes

from _surfaces import (
    cylinder_immersion,
    entry_christoffel,
    entry_g_inv,
    entry_null_frame,
    entry_pullback,
    evaluate_alone,
    grw_graph,
    marginal_height_profile,
    normal_connection_residual,
    psi_f_desitter,
    psi_f_minkowski,
    sample_box,
    slice_immersion,
    sphere_box,
)

SQ3 = np.sqrt(3.0)


def perturbed_f(ys):
    return 1.0 + 0.3 * ys[0] * ys[0]


def exp_model(n=2):
    return st.AmbientModel("grw_euclidean", n, warping=st.WarpingFunction("exp"))


def cosh_model(n=2):
    return st.AmbientModel("grw_euclidean", n, warping=st.WarpingFunction("cosh"))


def product_model(fiber, n=2):
    return st.AmbientModel(
        "product", n, warping=st.WarpingFunction("constant", params=(1.0,)), fiber=fiber
    )


def wavy_height(cs):
    return 1.1 + 0.1 * tm.sin(cs[0]) * tm.cos(cs[1])


def scene_points(rng, im, count=12):
    if im.map.name in ("psi_f", "hxr"):
        return [rng.uniform(-0.8, 0.8, size=im.dim) for _ in range(count)]
    if im.map.name == "cylinder":
        return [
            np.array([rng.uniform(-1.2, 1.2), rng.uniform(-2.4, 2.4)])
            for _ in range(count)
        ]
    return sample_box(rng, sphere_box(im.dim), count)


def all_scenes():
    return [
        psi_f_minkowski(2),
        psi_f_minkowski(3),
        psi_f_minkowski(2, perturbed_f),
        psi_f_minkowski(2, marginal_height_profile),
        slice_immersion(2, 1.0),
        cylinder_immersion(2, lambda t: t * t + 1.0),
        grw_graph(exp_model(), wavy_height),
        grw_graph(cosh_model(), wavy_height),
        grw_graph(product_model("sphere"), wavy_height),
        grw_graph(product_model("hyperbolic"), wavy_height),
        grw_graph(product_model("euclidean"), wavy_height),
        psi_f_desitter(2, 0.0, lambda qs: 1.0 + 0.2 * tm.sin(qs[0]) * tm.cos(qs[1])),
        psi_f_desitter(2, 0.5, 0.5 * SQ3, component="minus"),
        psi_f_desitter(2, 0.5, lambda qs: 2.0 + 0.1 * tm.sin(qs[0]), component="plus"),
        psi_f_desitter(2, 1.0, lambda qs: 1.0 + 0.3 * tm.cos(qs[1]) ** 2),
    ]


def frame_inner(pt, v, w):
    return st.ambient_inner(pt.model, pt.f2, v, w)


# ---------------------------------------------------------------------------
# frames


def test_frame_identities_across_scenes():
    rng = np.random.default_rng(42)
    for im in all_scenes():
        for x in scene_points(rng, im, 8):
            pt = ExtrinsicPoint(im, x)
            xi, eta, nu = pt.xi, pt.eta, pt.nu
            assert abs(frame_inner(pt, xi, xi)) < 1e-10
            assert abs(frame_inner(pt, eta, eta)) < 1e-10
            assert abs(frame_inner(pt, xi, eta) + 1.0) < 1e-10
            assert abs(frame_inner(pt, nu, nu) + 1.0) < 1e-10
            t_axis = np.array([s.val for s in pt.time_axis_series])
            assert frame_inner(pt, xi, t_axis) < 0.0
            assert frame_inner(pt, eta, t_axis) < 0.0
            assert frame_inner(pt, nu, t_axis) < 0.0
            for i in range(pt.n):
                tan = pt.geo.tangents[i]
                assert abs(frame_inner(pt, xi, tan)) < 1e-9
                assert abs(frame_inner(pt, eta, tan)) < 1e-9
                assert abs(frame_inner(pt, nu, tan)) < 1e-9


POINTWISE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "pointwise.json"


def series_frame_residual(pt):
    """The frame residual through order-3 series inner products, of which
    only the values are read: the reference for the value-only residual."""
    def inner(a, b):
        return st.ambient_inner(pt.model, pt.geo.f2, a, b).val

    xi, eta, nu = pt.xi_series, pt.eta_series, pt.nu_series
    worst = abs(inner(xi, xi))
    worst = max(worst, abs(inner(eta, eta)))
    worst = max(worst, abs(inner(xi, eta) + 1.0))
    worst = max(worst, abs(inner(nu, nu) + 1.0))
    for field in (xi, eta, nu):
        for j in range(pt.n):
            worst = max(worst, abs(inner(field, pt.geo.dpsi[j])))
    t = pt.time_axis_series
    if inner(xi, nu) >= 0.0 or inner(eta, nu) >= 0.0 or inner(nu, t) >= 0.0:
        worst = max(worst, 1.0)
    return worst


@pytest.mark.parametrize("name", ["grw-exp", "mink-h2", "ds-alpha05-plus"])
def test_frame_residual_matches_series_path_bitwise(name, monkeypatch):
    with POINTWISE.open() as fh:
        entry = next(e for e in json.load(fh)["scenes"] if e["config"]["name"] == name)
    scene = cli.parse_scene(entry["config"])
    products = []
    real_mul = tm.Series.__mul__

    def counting(self, other):
        products.append(other)
        return real_mul(self, other)

    checked = 0
    for x in entry["pool"]:
        try:
            pt = ExtrinsicPoint(scene.im, np.asarray(x))
            want = series_frame_residual(pt)
        except (nc.PointRejected, ext.FrameDegeneracyError, imm.MetricSignatureError,
                tm.DomainError):
            continue
        with monkeypatch.context() as m:
            m.setattr(tm.Series, "__mul__", counting)
            m.setattr(tm.Series, "__rmul__", counting)
            got = pt.frame_residual()
        assert type(got) is float
        assert got.hex() == want.hex(), x
        checked += 1
    assert checked >= 10
    assert products == []


def assert_entries_equal(series, nested, index=()):
    """Each entry of a component Series has the bytes of the Series at the
    same place in nested lists."""
    if isinstance(nested, tm.Series):
        assert series[index].c.tobytes() == nested.c.tobytes(), index
        return
    for k, item in enumerate(nested):
        assert_entries_equal(series, item, index + (k,))


@settings(deadline=None, max_examples=40)
@given(hs.data())
def test_component_algebra_matches_entry_algebra_bitwise(data):
    # points of a built-in scene's box, one at a time or as one batch: the
    # component-axis metric algebra and null frame reproduce the entry by
    # entry Series algebra bit for bit, signs of zeros included
    name = data.draw(hs.sampled_from(sorted(builtin_scenes())))
    scene = cli.parse_scene(builtin_scenes()[name])
    count = data.draw(hs.integers(1, 4))
    coordinate = [hs.floats(float(ax[0]), float(ax[-1])) for ax in scene.axes]
    x = np.array([[data.draw(c) for c in coordinate] for _ in range(count)])
    as_batch = data.draw(hs.booleans())
    for point in [x] if as_batch else list(x):
        try:
            pt = ExtrinsicPoint(scene.im, point)
        except (tm.BatchRejected, tm.DomainError, nc.PointRejected, ext.FrameDegeneracyError,
                imm.MetricSignatureError):
            continue
        geo = pt.geo
        g, dpsi = entry_pullback(scene.im, geo.psi, geo.f2)
        g_inv = entry_g_inv(g, geo._entries(geo.g0), geo._entries(geo.g_inv0))
        xi, nu, eta = entry_null_frame(geo, g_inv, dpsi)
        assert_entries_equal(geo.dpsi, dpsi)
        assert_entries_equal(geo.g_series, g)
        assert_entries_equal(geo.g_inv_series, g_inv)
        assert_entries_equal(geo.christoffel_series, entry_christoffel(g, g_inv))
        assert_entries_equal(pt.xi_series, xi)
        assert_entries_equal(pt.nu_series, nu)
        assert_entries_equal(pt.eta_series, eta)


def test_minkowski_xi_is_position_and_slice_pairing():
    im = psi_f_minkowski(2, perturbed_f)
    pt = ExtrinsicPoint(im, [0.4, -0.7])
    assert np.allclose(pt.xi, pt.geo.psi0, atol=1e-14)
    c = 1.7
    pt = ExtrinsicPoint(slice_immersion(2, c), [1.2, 0.6])
    assert abs(frame_inner(pt, pt.xi, pt.nu) + c) < 1e-12
    assert np.allclose(pt.nu, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_frame_requires_cone_and_guards_degeneracy():
    model = st.AmbientModel("minkowski", 2)
    chart = st.sphere_chart(2)
    free = imm.Immersion(
        tm.SmoothMap(
            lambda qs: [1.0] + [q for q in chart.fn(qs)], 2, 4, domain=chart.domain
        ),
        model,
    )
    with pytest.raises(ValueError):
        ExtrinsicPoint(free, [1.0, 0.5])
    pt = ExtrinsicPoint(psi_f_minkowski(2), [0.2, 0.1])
    xi_dot_nu = tm.Series.constant(pt.geo.ctx, 0.25)
    with pytest.raises(ext.FrameDegeneracyError):
        ext.null_partner(pt.geo, pt.xi_series, pt.nu_series, xi_dot_nu)


@pytest.mark.parametrize("name", ["mink-bowl", "grw-exp"])
def test_each_quantity_computed_once_per_point(name, monkeypatch):
    with POINTWISE.open() as fh:
        entry = next(e for e in json.load(fh)["scenes"] if e["config"]["name"] == name)
    scene = cli.parse_scene(entry["config"])
    maps, hessians, profiles_in_inner, inside = [], [], [], []
    real_map = ext.weingarten_map
    real_hessian = imm.ChartGeometry.covariant_hessian
    real_inner = st.ambient_inner
    real_profile = st.WarpingFunction.__call__

    def counting_map(geo, field, f2, df):
        maps.append(field)
        return real_map(geo, field, f2, df)

    def counting_hessian(geo, s):
        hessians.append(s)
        return real_hessian(geo, s)

    def marking_inner(*args):
        inside.append(True)
        try:
            return real_inner(*args)
        finally:
            inside.pop()

    def counting_profile(warping, t):
        if inside:
            profiles_in_inner.append(t)
        return real_profile(warping, t)

    monkeypatch.setattr(ext, "weingarten_map", counting_map)
    monkeypatch.setattr(imm.ChartGeometry, "covariant_hessian", counting_hessian)
    monkeypatch.setattr(st, "ambient_inner", marking_inner)
    monkeypatch.setattr(st.WarpingFunction, "__call__", counting_profile)
    kind, _, diag = evaluate_alone(scene, entry["pool"][0])
    assert kind == "row" and "shape" in diag
    # one map for each of xi, eta and the normal part of the time axis
    normals = {ext.CLOSED_FORMS[which] for which in scene.selectors}
    assert len(normals) == 3
    assert len(maps) == 3 and len({id(field) for field in maps}) == 3
    assert len(hessians) == 1  # Hess u, for both the Laplacian and the closed forms
    assert profiles_in_inner == []


# ---------------------------------------------------------------------------
# shape operators


def test_minkowski_xi_shape_is_identity():
    rng = np.random.default_rng(5)
    for f in (None, perturbed_f, marginal_height_profile):
        im = psi_f_minkowski(2, f)
        for x in scene_points(rng, im, 6):
            a = ExtrinsicPoint(im, x).shape_numeric("xi")
            assert np.max(np.abs(a - np.eye(2))) < 1e-8
            assert (
                np.max(np.abs(ExtrinsicPoint(im, x).shape_closed("minkowski_xi") - np.eye(2)))
                < 1e-12
            )


def test_closed_vs_numeric_all_branches():
    rng = np.random.default_rng(6)
    cases = [
        (psi_f_minkowski(2, perturbed_f), ("minkowski_xi", "xi"), ("minkowski_eta", "eta")),
        (grw_graph(exp_model(), wavy_height), ("warped_xi", "xi"), ("warped_eta", "eta")),
        (grw_graph(cosh_model(), wavy_height), ("warped_xi", "xi"), ("warped_eta", "eta")),
        (grw_graph(product_model("sphere"), wavy_height), ("product_xi", "xi"), ("product_eta", "eta")),
        (grw_graph(product_model("hyperbolic"), wavy_height), ("product_xi", "xi"), ("product_eta", "eta")),
        (grw_graph(product_model("euclidean"), wavy_height), ("product_xi", "xi"), ("product_eta", "eta")),
    ]
    for im, *pairs in cases:
        for x in scene_points(rng, im, 10):
            pt = ExtrinsicPoint(im, x)
            for which, name in pairs + [("time_orthogonal", "time_orthogonal")]:
                closed = pt.shape_closed(which)
                numeric = pt.shape_numeric(name)
                assert np.linalg.norm(closed - numeric) < 1e-6, (im.map.name, which)


def test_time_orthogonal_trace_formula():
    rng = np.random.default_rng(8)
    for im in (
        grw_graph(exp_model(), wavy_height),
        grw_graph(product_model("sphere"), wavy_height),
        psi_f_minkowski(2, perturbed_f),
    ):
        for x in scene_points(rng, im, 6):
            pt = ExtrinsicPoint(im, x)
            tr = float(np.trace(pt.shape_chart("time_orthogonal")))
            expected = pt.laplacian_u + pt.warping_ratio * (pt.n + pt.grad_u_sq)
            assert abs(tr - expected) < 1e-7


def test_product_euclidean_xi_is_identity():
    im = grw_graph(product_model("euclidean"), wavy_height)
    x = np.array([1.3, 0.4])
    assert np.max(np.abs(ExtrinsicPoint(im, x).shape_closed("product_xi") - np.eye(2))) < 1e-9
    assert np.max(np.abs(ExtrinsicPoint(im, x).shape_numeric("xi") - np.eye(2))) < 1e-8


def test_slice_eta_shape():
    c = 1.4
    im = slice_immersion(2, c)
    x = np.array([1.1, -0.4])
    expected = -np.eye(2) / (2.0 * c * c)
    assert np.max(np.abs(ExtrinsicPoint(im, x).shape_numeric("eta") - expected)) < 1e-9
    assert np.max(np.abs(ExtrinsicPoint(im, x).shape_closed("minkowski_eta") - expected)) < 1e-12


def test_shape_dispatch_errors():
    grw = grw_graph(exp_model(), wavy_height)
    x = np.array([1.3, 0.5])
    with pytest.raises(ext.ShapeDispatchError):
        ExtrinsicPoint(grw, x).shape_closed("product_xi")  # warping not unit
    with pytest.raises(ext.ShapeDispatchError):
        ExtrinsicPoint(grw, x).shape_closed("minkowski_eta")
    sphere = grw_graph(product_model("sphere"), wavy_height)
    with pytest.raises(ext.ShapeDispatchError):
        ExtrinsicPoint(sphere, x).shape_closed("warped_xi")  # fiber not Euclidean
    ds = psi_f_desitter(2, 0.5, 0.5 * SQ3, component="minus")
    with pytest.raises(ext.ShapeDispatchError):
        ExtrinsicPoint(ds, x).shape_closed("time_orthogonal")
    with pytest.raises(ValueError):
        ExtrinsicPoint(grw, x).shape_closed("bogus")


# ---------------------------------------------------------------------------
# expansions, mean curvature, scalar curvature


def test_expansions_on_reference_scenes():
    im = psi_f_minkowski(2)
    pt = ExtrinsicPoint(im, [0.5, -0.3])
    theta_xi, theta_eta = pt.theta_xi, pt.theta_eta
    assert abs(theta_xi - 1.0) < 1e-12
    assert abs(theta_eta - 0.5) < 1e-9
    im3 = psi_f_minkowski(3)
    pt = ExtrinsicPoint(im3, [0.4, 0.2, -0.5])
    theta_xi, theta_eta = pt.theta_xi, pt.theta_eta
    assert abs(theta_xi - 1.0) < 1e-12
    assert abs(theta_eta - 0.5) < 1e-9
    c = 1.4
    pt = ExtrinsicPoint(slice_immersion(2, c), [1.0, 0.8])
    theta_xi, theta_eta = pt.theta_xi, pt.theta_eta
    assert abs(theta_xi - 1.0) < 1e-12
    assert abs(theta_eta + 1.0 / (2.0 * c * c)) < 1e-10


def test_expansion_traces_match_closed_forms():
    rng = np.random.default_rng(12)
    im = grw_graph(exp_model(), wavy_height)
    for x in scene_points(rng, im, 8):
        pt = ExtrinsicPoint(im, x)
        closed_eta = float(np.trace(pt.shape_closed_chart("warped_eta"))) / pt.n
        closed_xi = float(np.trace(pt.shape_closed_chart("warped_xi"))) / pt.n
        assert abs(pt.theta_eta - closed_eta) < 1e-7
        assert abs(pt.theta_xi - closed_xi) < 1e-7
        # trace of the eta branch in closed form
        f0, f1 = im.model.warping.derivatives(pt.u, order=1)
        phi = im.model.warping.conformal_time(pt.u, im.model.t0)
        n, gsq = pt.n, pt.grad_u_sq
        theta = (-n * (1.0 + gsq) + 2.0 * f0 * phi * pt.laplacian_u) / (
            2.0 * n * phi * phi
        ) + f1 * (n - (n - 2.0) * gsq) / (2.0 * n * phi)
        assert abs(pt.theta_eta - theta) < 1e-7


def test_mean_curvature_identities():
    rng = np.random.default_rng(21)
    for im in all_scenes():
        for x in scene_points(rng, im, 4):
            pt = ExtrinsicPoint(im, x)
            h, h_sq = pt.mean_curvature_vector, pt.h_sq
            assert abs(h_sq + 2.0 * pt.theta_xi * pt.theta_eta) < 1e-9
            recon = -pt.theta_xi * pt.eta - pt.theta_eta * pt.xi
            assert np.max(np.abs(h - recon)) < 1e-8


def test_mean_curvature_reference_values():
    assert abs(ExtrinsicPoint(psi_f_minkowski(2), [0.4, 0.1]).h_sq + 1.0) < 1e-10
    c = 1.3
    assert (
        abs(ExtrinsicPoint(slice_immersion(2, c), [1.2, 0.4]).h_sq - 1.0 / c**2)
        < 1e-10
    )
    marg = psi_f_minkowski(2, marginal_height_profile)
    assert abs(ExtrinsicPoint(marg, [0.5, -0.2]).h_sq) < 1e-9


def test_scalar_curvature_consistency_on_minkowski_cone():
    rng = np.random.default_rng(31)
    for f in (None, perturbed_f, marginal_height_profile):
        im = psi_f_minkowski(2, f)
        for x in scene_points(rng, im, 8):
            rep = ext.point_report(im, x)
            assert abs(rep.scal_intrinsic - rep.scal_formula) < 1e-5
            m = 2.0 * rep.u * rep.laplacian_u - 2.0 * (1.0 + rep.grad_u_sq)
            direct = -(1.0 / rep.u**2) * m
            assert abs(rep.scal_formula - direct) < 1e-9


def test_normal_connection_law():
    rng = np.random.default_rng(41)
    for im in (
        psi_f_minkowski(2, perturbed_f),
        grw_graph(exp_model(), wavy_height),
        grw_graph(cosh_model(), wavy_height),
        grw_graph(product_model("sphere"), wavy_height),
    ):
        for x in scene_points(rng, im, 5):
            assert normal_connection_residual(ExtrinsicPoint(im, x)) < 1e-6


# ---------------------------------------------------------------------------
# trapped classification


def test_trapped_classes_on_reference_scenes():
    rng = np.random.default_rng(51)
    hyper = psi_f_minkowski(2)
    marg = psi_f_minkowski(2, marginal_height_profile)
    slice_im = slice_immersion(2, 1.0)
    for x in scene_points(rng, hyper, 10):
        assert ExtrinsicPoint(hyper, x).trapped_class() == "past_trapped"
    for x in scene_points(rng, marg, 10):
        assert ExtrinsicPoint(marg, x).trapped_class() == "past_marginally_trapped"
    for x in scene_points(rng, slice_im, 10):
        assert ExtrinsicPoint(slice_im, x).trapped_class() == "untrapped"


def test_classification_matches_scalar_curvature_sign():
    rng = np.random.default_rng(61)
    for f in (None, perturbed_f, marginal_height_profile):
        im = psi_f_minkowski(2, f)
        for x in scene_points(rng, im, 10):
            rep = ext.point_report(im, x)
            if rep.trapped_class == "past_trapped":
                assert rep.scal_intrinsic < 0.0
            elif rep.trapped_class == "untrapped":
                assert rep.scal_intrinsic > 0.0
            else:
                assert abs(rep.scal_intrinsic) < 1e-5


def test_unclassified_outside_minkowski_cone():
    ds = psi_f_desitter(2, 0.5, 0.5 * SQ3, component="minus")
    assert ExtrinsicPoint(ds, [1.2, 0.7]).trapped_class() == "unclassified"
    cyl = cylinder_immersion(2, lambda t: t * t + 1.0)
    assert ExtrinsicPoint(cyl, [0.3, 1.1]).trapped_class() == "unclassified"
    grw = grw_graph(exp_model(), wavy_height)
    assert ExtrinsicPoint(grw, [1.3, 0.4]).trapped_class() == "unclassified"


def test_classification_invariant_under_chart_diffeomorphism():
    rng = np.random.default_rng(71)
    for base in (
        psi_f_minkowski(2),
        psi_f_minkowski(2, marginal_height_profile),
        slice_immersion(2, 1.0),
    ):
        a = np.array([[1.2, 0.3], [-0.2, 0.9]])
        b = np.array([0.1, -0.2])

        def phi(cs):
            lin0 = a[0, 0] * cs[0] + a[0, 1] * cs[1] + b[0]
            lin1 = a[1, 0] * cs[0] + a[1, 1] * cs[1] + b[1]
            return [lin0 + 0.05 * tm.sin(cs[1]), lin1 + 0.05 * tm.cos(cs[0])]

        reparam = imm.Immersion(
            tm.SmoothMap(lambda cs: base.map.fn(phi(cs)), 2, base.map.n_outputs),
            base.model,
            base.target_cone,
        )
        for _ in range(6):
            x = rng.uniform(-0.4, 0.4, size=2)
            y = np.array([s.val for s in tm.eval_series(tm.SmoothMap(phi, 2, 2), x, 1)])
            if base.map.name == "slice" and not all(
                lo <= yi <= hi for yi, (lo, hi) in zip(y, base.map.domain)
            ):
                continue
            want = ExtrinsicPoint(base, y).trapped_class()
            assert ExtrinsicPoint(reparam, x).trapped_class() == want


def test_report_fields():
    im = psi_f_minkowski(2)
    rep = ext.point_report(im, [0.3, -0.4])
    assert rep.trapped_class in ext.TRAPPED_CLASSES
    assert rep.scal_formula == 2.0 * rep.H_sq
    assert abs(rep.scal_intrinsic + 2.0) < 1e-9
    assert abs(rep.theta_eta - 0.5) < 1e-9
    assert abs(rep.H_sq + 1.0) < 1e-9
    u = np.sqrt(1.0 + 0.3**2 + 0.4**2)
    assert abs(rep.u - u) < 1e-12
    assert abs(rep.grad_u_sq - (u * u - 1.0)) < 1e-10
