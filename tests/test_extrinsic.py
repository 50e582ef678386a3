"""Null frames, Weingarten maps, expansions and the trapped classifier."""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from nullgeom import cli
from nullgeom import conformal as cf
from nullgeom import extrinsic as ext
from nullgeom import immersion as imm
from nullgeom import nullcone as nc
from nullgeom import spacetime as st
from nullgeom import taylor as tm
from nullgeom.extrinsic import ExtrinsicPoint

from nullgeom.scenes import builtin_scenes

from _surfaces import (
    components,
    cylinder_immersion,
    entry_christoffel,
    entry_g_inv,
    entry_null_frame,
    entry_pullback,
    evaluate_alone,
    grw_graph,
    marginal_height_profile,
    normal_connection_residual,
    order3_stages,
    point_alone,
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
    if im.map.name in ("psi_f", "hxr_cylinder"):
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
        grw_graph(exp_model(), lambda cs: 1.1),
        grw_graph(product_model("sphere"), lambda cs: 1.1),
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
            pt = point_alone(im, x)
            xi, eta, nu = pt.xi, pt.eta, pt.nu
            assert abs(frame_inner(pt, xi, xi)) < 1e-10
            assert abs(frame_inner(pt, eta, eta)) < 1e-10
            assert abs(frame_inner(pt, xi, eta) + 1.0) < 1e-10
            assert abs(frame_inner(pt, nu, nu) + 1.0) < 1e-10
            t_axis = tm.batch_first(pt.time_axis_jet[0])
            assert frame_inner(pt, xi, t_axis) < 0.0
            assert frame_inner(pt, eta, t_axis) < 0.0
            assert frame_inner(pt, nu, t_axis) < 0.0
            for i in range(pt.n):
                tan = pt.geo.tangents[:, i]
                assert abs(frame_inner(pt, xi, tan)) < 1e-9
                assert abs(frame_inner(pt, eta, tan)) < 1e-9
                assert abs(frame_inner(pt, nu, tan)) < 1e-9


def test_constant_grw_height_is_each_columns_time():
    # a height function that returns a float is the time of every column:
    # u is that time, flat along the chart, and a batch's rows are its
    # points' rows alone
    for model in (exp_model(), product_model("sphere")):
        im = grw_graph(model, lambda cs: 1.1)
        xs = sample_box(np.random.default_rng(5), sphere_box(2), 6)
        batch = ExtrinsicPoint(imm.chart_geometry(im, np.array(xs))).report()
        for b, x in enumerate(xs):
            rep = ext.point_report(im, x)
            assert rep.u == 1.1 and rep.grad_u_sq == 0.0
            assert [getattr(rep, k) for k in ext.ROW_FIELDS] == [
                getattr(batch, k)[b] for k in ext.ROW_FIELDS
            ]


POINTWISE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "pointwise.json"


def entry_frame(pt):
    """xi, nu, eta, the time axis and N of an `ExtrinsicPoint`'s batch as
    component lists of Series, by the entry-by-entry Series algebra
    (`entry_null_frame`)."""
    geo, psi = pt.geo, components(pt.geo.position)
    g, dpsi = entry_pullback(pt.im, psi, geo.f2)
    g_inv = entry_g_inv(g, geo.g0.transpose(1, 2, 0), geo.g_inv0.transpose(1, 2, 0))
    return entry_null_frame(pt.im, psi, geo.f, geo.f2, g_inv, dpsi)


def assert_values_equal(values, nested):
    """The batch-first values (B, m) of a frame field are, by `float.hex`,
    the values of the component list of Series `nested`."""
    want = [[float(v).hex() for v in comp.val] for comp in nested]
    assert [[float(v).hex() for v in comp] for comp in values.T] == want


def series_frame_residual(pt):
    """The frame residual through series inner products at the frame's
    order, of which only the values are read, with nu and eta of the entry
    algebra: the reference for the value-only residual."""
    f2 = None if pt.geo.f2 is None else pt.geo.f2.truncate(imm.FRAME_ORDER)
    dpsi = pt.geo.dpsi.truncate(imm.FRAME_ORDER)

    def inner(a, b):
        return st.ambient_inner(pt.model, f2, a, b).val

    _, nu, eta, _, _ = entry_frame(pt)
    xi, t = (tm.Series(dpsi.ctx, jet, jet.shape[1:-1]) for jet in (pt.xi_jet, pt.time_axis_jet))
    nu, eta = (tm.Series.stack(field, xi.ctx, xi.batch) for field in (nu, eta))
    worst = abs(inner(xi, xi))
    worst = max(worst, abs(inner(eta, eta)))
    worst = max(worst, abs(inner(xi, eta) + 1.0))
    worst = max(worst, abs(inner(nu, nu) + 1.0))
    for field in (xi, eta, nu):
        for j in range(pt.n):
            worst = max(worst, abs(inner(field, dpsi[j])))
    if inner(xi, nu) >= 0.0 or inner(eta, nu) >= 0.0 or inner(nu, t) >= 0.0:
        worst = max(worst, 1.0)
    return worst


# immersions of dimension 3 of the Minkowski, GRW and de Sitter families
THREE_DIMENSIONAL = {
    "mink-n3": lambda: psi_f_minkowski(3, perturbed_f),
    "grw-n3": lambda: grw_graph(exp_model(3), wavy_height),
    "ds-n3": lambda: psi_f_desitter(3, 0.5, lambda qs: 2.0 + 0.1 * tm.sin(qs[0]),
                                    component="plus"),
}
# GRW cones of product models with a curved fiber
CURVED_FIBERS = {
    "product-sphere": lambda: grw_graph(product_model("sphere"), wavy_height),
    "product-hyperbolic": lambda: grw_graph(product_model("hyperbolic"), wavy_height),
}
POOL_SCENES = [entry["config"]["name"] for entry in json.loads(POINTWISE.read_text())["scenes"]]


def immersion_points(name):
    """(immersion, chart points) of a pool scene of the pointwise workload,
    its stored pool, or of a `THREE_DIMENSIONAL` or `CURVED_FIBERS`
    immersion, 16 points drawn from its box."""
    if name in THREE_DIMENSIONAL:
        rng = np.random.default_rng(17)
        return THREE_DIMENSIONAL[name](), sample_box(rng, sphere_box(3), 16)
    if name in CURVED_FIBERS:
        rng = np.random.default_rng(17)
        return CURVED_FIBERS[name](), sample_box(rng, sphere_box(2), 16)
    with POINTWISE.open() as fh:
        entry = next(e for e in json.load(fh)["scenes"] if e["config"]["name"] == name)
    return cli.parse_scene(entry["config"]).im, entry["pool"]


@pytest.mark.parametrize("name", POOL_SCENES + list(THREE_DIMENSIONAL) + list(CURVED_FIBERS))
def test_frame_residual_matches_series_path_bitwise(name, monkeypatch):
    # the value-only residual, whose pairings are one ambient product of
    # stacked vectors that folds the ambient components in one vecdot, is
    # the residual of the Series pairings bit for bit on every model kind,
    # at n = 2 and n = 3
    im, points = immersion_points(name)
    products = []
    real_mul = tm.Series.__mul__

    def counting(self, other):
        products.append(other)
        return real_mul(self, other)

    checked = 0
    for x in points:
        try:
            pt = point_alone(im, np.asarray(x))
            want = float(np.ravel(series_frame_residual(pt))[0])
        except (nc.PointRejected, ext.FrameDegeneracyError, imm.MetricSignatureError,
                tm.DomainError):
            continue
        with monkeypatch.context() as m:
            m.setattr(tm.Series, "__mul__", counting)
            m.setattr(tm.Series, "__rmul__", counting)
            got = pt.frame_residual()
        assert got.shape == (1,)
        assert float(got[0]).hex() == want.hex(), x
        checked += 1
    assert checked >= 10
    assert products == []


def pairwise_frame_residual(pt):
    """The frame residual with one ambient product per pairing, taken in
    the order of `ExtrinsicPoint.frame_residual`: the reference of its
    stacked pairings."""

    def inner(a, b):
        return st.ambient_inner(pt.model, pt.f2, a, b)

    xi, eta, nu = pt.xi, pt.eta, pt.nu
    worst = abs(inner(xi, xi))
    for deviation in (abs(inner(eta, eta)), abs(inner(xi, eta) + 1.0), abs(inner(nu, nu) + 1.0)):
        worst = tm.column_max(worst, deviation)
    for field in (xi, eta, nu):
        for i in range(pt.n):
            worst = tm.column_max(worst, abs(inner(field, pt.geo.tangents[..., i, :])))
    t = tm.batch_first(pt.time_axis_jet[0])
    flipped = (inner(xi, nu) >= 0.0) | (inner(eta, nu) >= 0.0) | (inner(nu, t) >= 0.0)
    return np.where(flipped, tm.column_max(worst, 1.0), worst)


@pytest.mark.parametrize("name", ["mink-h2", "grw-exp", "ds-alpha05-plus"])
def test_frame_residual_pairs_once_and_keeps_the_nan_order(name, monkeypatch):
    # one ambient product pairs every vector of a batch; with a NaN in one
    # component of xi, eta, nu or a tangent at one point, the residual is
    # the pairwise one bit for bit: a NaN deviation first stays, a later one
    # is passed over, as taylor.column_max takes them in order
    im, points = immersion_points(name)
    geo, _ = imm.geometry_columns(im, np.array(points))
    pt = tm.Kept(len(geo.x)).run(ExtrinsicPoint, geo, imm.ChartGeometry.columns)
    real, calls = st.ambient_inner, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(st, "ambient_inner", counted)
        got = pt.frame_residual()
    assert len(calls) == 1
    assert got.tobytes() == pairwise_frame_residual(pt).tobytes()
    clean = (pt.xi, pt.eta, pt.nu, geo.tangents)
    for k in range(4):
        for component in (0, -1):
            vectors = [v.copy() for v in clean]
            vectors[k][(1,) + (0,) * (vectors[k].ndim - 2) + (component,)] = math.nan
            pt.xi, pt.eta, pt.nu, pt.geo.tangents = vectors
            got = pt.frame_residual()
            assert got.tobytes() == pairwise_frame_residual(pt).tobytes(), (k, component)
    pt.xi, pt.eta, pt.nu, pt.geo.tangents = clean


@pytest.mark.parametrize("name", POOL_SCENES + list(THREE_DIMENSIONAL) + list(CURVED_FIBERS))
def test_frame_matches_entry_algebra_bitwise(name, monkeypatch):
    # the null frame built on order-1 value-gradient arrays, batched: xi,
    # the time axis and N are the entry algebra's Series bit for bit and
    # nu and eta its values, on every pool scene, at n = 3 and on curved
    # fibers, and the stage makes no Series product, a curved fiber's
    # radial field r Dr included
    im, points = immersion_points(name)
    geo, _ = imm.geometry_columns(im, np.array(points))
    kept = tm.Kept(len(geo.x))
    pt = kept.run(ExtrinsicPoint, geo, imm.ChartGeometry.columns)
    assert len(kept.index) >= 10
    xi, nu, eta, axis, normal = entry_frame(pt)
    assert_frame_equal(pt, xi, nu, eta, axis, normal)
    products = []
    real_product = tm._product

    def counting(*args):
        products.append(args)
        return real_product(*args)

    monkeypatch.setattr(tm, "_product", counting)
    again = ext.null_frame(pt.geo)
    assert again[0].tobytes() == pt.xi_jet.tobytes()
    assert products == []


def assert_frame_equal(pt, xi, nu, eta, axis, normal):
    """The frame of an `ExtrinsicPoint` is the entry algebra's: its
    value-gradient arrays entry by entry, nu and eta by value."""
    assert_entries_equal(pt.xi_jet, xi)
    assert_entries_equal(pt.time_axis_jet, axis)
    assert_entries_equal(pt.time_orthogonal_jet, normal)
    assert_values_equal(pt.nu, nu)
    assert_values_equal(pt.eta, eta)


def assert_entries_equal(series, nested, index=()):
    """Each entry of a component Series, or of a value-gradient array
    (1 + n, *components, B), has the bytes of the Series at the same place
    in nested lists."""
    if isinstance(nested, tm.Series):
        got = series[index].c if isinstance(series, tm.Series) else series[(slice(None), *index)]
        assert got.tobytes() == nested.c.tobytes(), index
        return
    for k, item in enumerate(nested):
        assert_entries_equal(series, item, index + (k,))


def drawn_points(data) -> list:
    """ExtrinsicPoints at points drawn from a built-in scene's box, one at
    a time (a batch of one each) or as one batch; points the pipeline
    rejects are left out."""
    name = data.draw(hs.sampled_from(sorted(builtin_scenes())))
    scene = cli.parse_scene(builtin_scenes()[name])
    count = data.draw(hs.integers(1, 4))
    coordinate = [hs.floats(float(ax[0]), float(ax[-1])) for ax in scene.axes]
    x = np.array([[data.draw(c) for c in coordinate] for _ in range(count)])
    as_batch = data.draw(hs.booleans())
    out = []
    for point in [x] if as_batch else list(x[:, None]):
        try:
            out.append(ExtrinsicPoint(imm.chart_geometry(scene.im, point)))
        except (tm.BatchRejected, tm.DomainError, nc.PointRejected, ext.FrameDegeneracyError,
                imm.MetricSignatureError):
            continue
    return out


@settings(deadline=None, max_examples=40)
@given(hs.data())
def test_component_algebra_matches_entry_algebra_bitwise(data):
    # points of a built-in scene's box, one at a time or as one batch: the
    # component-axis metric algebra and null frame reproduce the entry by
    # entry Series algebra bit for bit, each stage at its order, signs of
    # zeros included
    for pt in drawn_points(data):
        geo, psi = pt.geo, components(pt.geo.position)
        g, dpsi = entry_pullback(pt.im, psi, geo.f2)
        g_inv = entry_g_inv(g, geo.g0.transpose(1, 2, 0), geo.g_inv0.transpose(1, 2, 0))
        xi, nu, eta, axis, normal = entry_null_frame(pt.im, psi, geo.f, geo.f2, g_inv, dpsi)
        assert_entries_equal(geo.dpsi, dpsi)
        assert_entries_equal(geo.g_series, g)
        assert_entries_equal(geo.g_inv_series, g_inv)
        assert_entries_equal(geo.christoffel_series, entry_christoffel(g, g_inv))
        assert_frame_equal(pt, xi, nu, eta, axis, normal)


@pytest.mark.parametrize("name", list(THREE_DIMENSIONAL))
def test_connection_and_pairings_make_no_series_product(name, monkeypatch):
    # at n = 3 the induced metric, whose pairs i <= j are paired once, and
    # the inverse metric and the Christoffel symbols, contractions of
    # coefficient arrays over the jet slots, are the entry algebra's Series
    # bit for bit, signs of zeros included; neither the last two, the
    # curvature, nor the Weingarten maps, II and the expansions make a
    # Series product
    im, points = immersion_points(name)
    geo, kept = imm.geometry_columns(im, np.array(points))
    assert len(kept.index) >= 12
    g, _ = entry_pullback(im, components(geo.position), geo.f2)
    assert_entries_equal(geo.g_series, g)
    g_inv = entry_g_inv(g, geo.g0.transpose(1, 2, 0), geo.g_inv0.transpose(1, 2, 0))
    gamma = entry_christoffel(g, g_inv)
    products = []
    real_product = tm._product

    def counting(*args):
        products.append(args)
        return real_product(*args)

    with monkeypatch.context() as m:
        m.setattr(tm, "_product", counting)
        assert_entries_equal(geo.g_inv_series, g_inv)
        assert_entries_equal(geo.christoffel_series, gamma)
        assert np.isfinite(geo.scal).all()
    assert products == []
    pt = ExtrinsicPoint(geo)
    with monkeypatch.context() as m:
        m.setattr(tm, "_product", counting)
        a_xi = ext.weingarten_map(geo, pt.xi_jet, pt.f2, pt.df)
        ii = ext.second_fundamental_form(geo, pt.xi, pt.eta, pt.f2, pt.df)
        _, _, h, h_sq = ext.expansions(geo, a_xi, pt.shape_maps["eta"], ii, pt.f2)
    assert products == []
    assert np.array_equal(a_xi, pt.shape_maps["xi"]) and np.array_equal(ii, pt.ii)
    assert np.array_equal(h, pt.mean_curvature_vector) and np.array_equal(h_sq, pt.h_sq)
    # II is symmetric in (i, j) bit for bit
    assert ii.tobytes() == ii.swapaxes(1, 2).tobytes()


def test_null_frame_reads_the_conformal_time_of_membership(monkeypatch):
    # on a polynomial warping the conformal time is a quadrature: a report
    # integrates it once for the chart map and once for cone membership,
    # whose values the null gradient reads, selected with the columns that
    # membership keeps; xi is bit for bit the one that integrates it again
    model = st.AmbientModel("grw_euclidean", 2,
                            warping=st.WarpingFunction("polynomial", params=(1.0, 0.0, 1.0)))
    im = grw_graph(model, lambda cs: cs[1])  # the past branch where x1 <= 0
    xs = np.array([[1.0, 0.5], [1.2, -0.4], [0.9, 0.7], [1.4, 1.1]])
    real_quadrature, calls = st.quadrature, []

    def counted(fn, lo, hi):
        calls.append(len(lo))
        return real_quadrature(fn, lo, hi)

    monkeypatch.setattr(st, "quadrature", counted)
    geo, kept = imm.geometry_columns(im, xs)
    assert list(kept.errors) == [1] and "past branch" in str(kept.errors[1])
    assert calls == [4, 4]  # the chart map's and membership's
    pt = ExtrinsicPoint(geo)
    assert calls == [4, 4]
    phi = nc.cone_time(im.target_cone, geo.psi0[:, 0])
    assert geo.cone_time.tobytes() == phi.tobytes()
    again = nc.null_gradient(im.target_cone, geo.position, geo.f)
    assert pt.xi_jet.tobytes() == again.tobytes()
    calls.clear()
    ext.point_report(im, xs[0])
    assert calls == [1, 1]


def coefficients(nested) -> np.ndarray:
    """The coefficients of nested lists of Series, laid out as those of a
    component Series: (n_terms, *components, B)."""
    if isinstance(nested, tm.Series):
        return nested.c
    return np.stack([coefficients(item) for item in nested], axis=1)


@settings(deadline=None, max_examples=60)
@given(hs.data())
def test_stage_series_are_prefixes_of_the_order3_algebra(data):
    # each stage's coefficients, cut to the order it reads, are the leading
    # coefficients of the same stage run with every Series at order 3: equal
    # as numbers, and bit for bit wherever nonzero (the dropped Neumann
    # terms of the inverse metric flip at most the signs of exact zeros);
    # xi its value-gradient array, nu and eta, values only, of order 0
    for pt in drawn_points(data):
        geo = pt.geo
        want = order3_stages(geo)
        stages = {
            "dpsi": geo.dpsi.c, "g": geo.g_series.c, "g_inv": geo.g_inv_series.c,
            "christoffel": geo.christoffel_series.c, "xi": pt.xi_jet,
            "nu": pt.nu.T[None], "eta": pt.eta.T[None],
        }
        if geo.f is not None:
            stages.update(f=geo.f.c, f2=geo.f2.c)
        for name, got in stages.items():
            prefix = coefficients(want[name])[: len(got)]
            assert got.shape == prefix.shape, name
            assert np.array_equal(got, prefix), name
            nonzero = got != 0.0
            assert got[nonzero].tobytes() == prefix[nonzero].tobytes(), name


def test_each_stage_runs_at_its_order():
    # psi at order 3; d psi, f, f^2, the metric and chart fields at order 2;
    # the inverse metric, Gamma, xi and N at order 1; nu and eta are values
    with POINTWISE.open() as fh:
        entries = json.load(fh)["scenes"]
    warped = 0
    for entry in entries:
        scene = cli.parse_scene(entry["config"])
        # one batch
        pt = ExtrinsicPoint(imm.chart_geometry(scene.im, np.asarray(entry["pool"][:8])))
        geo = pt.geo
        assert geo.position.ctx.order == 3
        assert geo.dpsi.ctx.order == geo.g_series.ctx.order == geo.ctx.order == 2
        assert geo.scalar_series(lambda cs: cs[0]).ctx.order == 2
        if geo.f is not None:
            assert geo.f.ctx.order == geo.f2.ctx.order == 2
            warped += 1
        assert geo.g_inv_series.ctx.order == geo.christoffel_series.ctx.order == 1
        # order-1 value-gradient arrays: the value and n first partials
        frame = (pt.xi_jet, pt.time_axis_jet, pt.time_orthogonal_jet)
        assert {len(jet) for jet in frame} == {1 + pt.n}
        assert pt.nu.shape == pt.eta.shape == pt.xi.shape
    assert warped


def test_mixed_stage_orders_fail_loudly(monkeypatch):
    # a stage fed Series of two orders is a programming error: it raises
    # TypeError through the grid pass, never a rejected point.  The null
    # frame reads the order-1 prefix of Series of any order; the conformal
    # curvature identities rescale the order-2 metric by the conformal
    # scale, here handed over at order 1
    real = cf._scale
    monkeypatch.setattr(cf, "_scale", lambda *args: real(*args).truncate(imm.FRAME_ORDER))
    with pytest.raises(TypeError, match="order"):
        cli.run(builtin_scenes()["mink-h2"])


def test_minkowski_xi_is_position_and_slice_pairing():
    im = psi_f_minkowski(2, perturbed_f)
    pt = point_alone(im, [0.4, -0.7])
    assert np.allclose(pt.xi, pt.geo.psi0, atol=1e-14)
    c = 1.7
    pt = point_alone(slice_immersion(2, c), [1.2, 0.6])
    assert abs(frame_inner(pt, pt.xi, pt.nu) + c) < 1e-12
    assert np.allclose(pt.nu, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_frame_requires_cone_and_guards_degeneracy(monkeypatch):
    model = st.AmbientModel("minkowski", 2)
    chart = st.sphere_chart(2)
    free = imm.Immersion(
        tm.SmoothMap(
            lambda qs: [1.0] + [q for q in chart.fn(qs)], 2, 4, domain=chart.domain
        ),
        model,
    )
    with pytest.raises(ValueError):
        point_alone(free, [1.0, 0.5])
    # a past-pointing xi makes <xi, nu> > 0, which the frame refuses
    real = nc.null_gradient
    monkeypatch.setattr(nc, "null_gradient", lambda *args: -real(*args))
    geo = imm.chart_geometry(psi_f_minkowski(2), np.array([[0.2, 0.1]]))
    with pytest.raises(tm.BatchRejected) as err:
        ExtrinsicPoint(geo)
    assert type(err.value.errors[0]) is ext.FrameDegeneracyError
    assert str(err.value.errors[0]).startswith("<xi, nu> = 1.")


def test_frame_makes_no_sqrt_or_reciprocal_composition(monkeypatch):
    # nu and eta are values, and xi and the time axis are each one vector
    # Series times at most one scalar Series: the Minkowski, cylinder and de
    # Sitter frames compose no primitive at all, and a GRW frame on a
    # Euclidean fiber composes exactly one, the reciprocal 1/f^2, per batch
    with POINTWISE.open() as fh:
        entries = json.load(fh)["scenes"]
    composed = []
    real = tm._checked

    def recorded(name, *args):
        composed.append(name)
        return real(name, *args)

    kinds = set()
    for entry in entries:
        scene = cli.parse_scene(entry["config"])
        geo = imm.chart_geometry(scene.im, np.asarray(entry["pool"][:4]))
        composed.clear()
        with monkeypatch.context() as m:
            m.setattr(tm, "_checked", recorded)
            tm.float_edges(ext.null_frame)(geo)
        kind = scene.im.model.kind
        kinds.add(kind)
        assert composed == (["reciprocal"] if kind == "grw_euclidean" else []), scene.name
    assert kinds == {"minkowski", "grw_euclidean", "desitter"}


def entered(fn, *args) -> list:
    """The code objects of the Python calls that fn(*args) makes, nested
    ones included, as `sys.setprofile` reports them (`tools/call_counts.py`
    counts them so)."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_frame_calls_do_not_grow_with_the_dimension():
    # xi and the time axis are vector Series, not one Series per ambient
    # component, and N subtracts one sum over the tangents: the frame makes
    # as many Python calls at n = 3 as at n = 2 on a Euclidean GRW cone, a
    # de Sitter section and the light cone (after a first run has filled the
    # geometry's caches)
    def builds(n):
        return (grw_graph(exp_model(n), wavy_height),
                psi_f_desitter(n, 0.5, lambda qs: 2.0 + 0.1 * tm.sin(qs[0]), component="plus"),
                psi_f_minkowski(n, perturbed_f))

    rng = np.random.default_rng(8)
    counts = []
    for n in (2, 3):
        x = np.array(sample_box(rng, sphere_box(n), 3))
        row = []
        for im in builds(n):
            geo = imm.chart_geometry(im, x)
            ext.null_frame(geo)
            row.append(len(entered(ext.null_frame, geo)))
        counts.append(row)
    assert counts[0] == counts[1]


def test_chart_map_jets_cost_the_same_in_every_dimension():
    # psi is one vector Series: its second partials are one slot read, and
    # the split map's jacobian one vector product by 1/den, so both make as
    # many Python calls at n = 3 as at n = 2 on a light-cone section and a
    # de Sitter section (after a first run has filled the caches)
    def builds(n):
        return ((psi_f_minkowski(n, perturbed_f), "lightcone_to_Hn"),
                (psi_f_desitter(n, 0.5, lambda qs: 2.0 + 0.1 * tm.sin(qs[0]), component="plus"),
                 "desitter_to_Sn"))

    second_partials = imm.ChartGeometry.psi_second_partials.func
    rng = np.random.default_rng(8)
    counts = []
    for n in (2, 3):
        x = np.array(sample_box(rng, sphere_box(n), 3))
        row = []
        for im, variant in builds(n):
            geo = imm.chart_geometry(im, x)
            jacobian = (cf.ConformalMapSpec(variant), im, geo.position.value_gradient)
            for fn, args in ((second_partials, (geo,)), (cf._map_jacobian, jacobian)):
                fn(*args)
                row.append(len(entered(fn, *args)))
        counts.append(row)
    assert counts[0] == counts[1]


def test_product_euclidean_fiber_takes_the_vector_path(monkeypatch):
    # a product model with a Euclidean fiber is a GRW cone on a Euclidean
    # fiber: xi = f^-2 (phi f, x), with no fiber_radial, and its Series (the
    # values and the first derivatives) within 1e-14 of the entry algebra's
    # times each point's largest entry
    def refused(*args):
        raise AssertionError("fiber_radial on a Euclidean fiber")

    im = grw_graph(product_model("euclidean"), wavy_height)
    x = np.array(sample_box(np.random.default_rng(9), sphere_box(2), 6))
    monkeypatch.setattr(nc, "fiber_radial", refused)
    pt = ExtrinsicPoint(imm.chart_geometry(im, x))
    got, want = pt.xi_jet, coefficients(entry_frame(pt)[0])
    assert got.shape == want.shape == (3, 4, len(x))
    scale = np.abs(want).max(axis=(0, 1))
    assert np.all(np.abs(got - want).max(axis=(0, 1)) <= 1e-14 * scale)


def test_grw_report_enters_the_warping_at_most_nine_times():
    # the chart map's conformal time (4 entries, nested ones included), the
    # membership check's (1), the metric's f (1), the frame's conformal time
    # at the points' times (1) and the float point's (f, f') (2): a grw-exp
    # report enters WarpingFunction.__call__, conformal_time and derivatives
    # at most 9 times, where a Series conformal time in the frame and a
    # separate f^2 made it 13
    with POINTWISE.open() as fh:
        entry = next(e for e in json.load(fh)["scenes"] if e["config"]["name"] == "grw-exp")
    scene = cli.parse_scene(entry["config"])
    profile = {fn.__code__ for fn in (st.WarpingFunction.__call__,
                                      st.WarpingFunction.conformal_time,
                                      st.WarpingFunction.derivatives)}
    ext.point_report(scene.im, entry["pool"][0])
    for x in entry["pool"][:4]:
        calls = entered(ext.point_report, scene.im, x)
        assert 0 < sum(code in profile for code in calls) <= 9, x


def test_frame_refusals_are_those_of_the_compositions():
    # the frame refuses a column where sqrt's derivative table at
    # v = -<N, N> > 1e-12, or the reciprocal's at w = 2c^2, is not finite,
    # as the compositions did, from the largest entries alone; the
    # reciprocals of s = sqrt(v) and of c then refuse no other column;
    # over magnitudes from the least subnormal to the largest float
    def refused(table):
        return ~np.isfinite(np.array(table)).all(axis=0)

    mags = np.concatenate([np.logspace(-324, 308, 20001), [0.0, 5e-324, 1.79e308, np.inf, np.nan]])
    with np.errstate(all="ignore"):
        v = mags[~(mags <= 1e-12)]
        w = -mags * 2.0 * -mags + 0.0
        no_sqrt, no_reciprocal = ext._table_refusals(v, np.sqrt(v), w)
        assert np.array_equal(no_sqrt, refused(tm._sqrt_table(v)))
        assert np.array_equal(no_reciprocal, refused(tm._reciprocal_table(w)))
        assert not np.any(refused(tm._reciprocal_table(0.0 + np.sqrt(v))) & ~no_sqrt)
        assert not np.any(refused(tm._reciprocal_table(-mags)) & ~no_reciprocal)


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
    # one map for each of xi and the normal part N of the time axis, and
    # A_eta from those two
    normals = {ext.CLOSED_FORMS[which] for which in scene.selectors}
    assert len(normals) == 3
    assert len(maps) == 2 and len({id(field) for field in maps}) == 2
    assert len(hessians) == 1  # Hess u, for both the Laplacian and the closed forms
    assert profiles_in_inner == []


# ---------------------------------------------------------------------------
# shape operators


def test_minkowski_xi_shape_is_identity():
    rng = np.random.default_rng(5)
    for f in (None, perturbed_f, marginal_height_profile):
        im = psi_f_minkowski(2, f)
        for x in scene_points(rng, im, 6):
            a = point_alone(im, x).shape_numeric("xi")[0]
            assert np.max(np.abs(a - np.eye(2))) < 1e-8
            assert (
                np.max(np.abs(point_alone(im, x).shape_closed("minkowski_xi")[0] - np.eye(2)))
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
            pt = point_alone(im, x)
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
            pt = point_alone(im, x)
            tr = float(np.trace(pt.shape_maps["time_orthogonal"][0]))
            expected = pt.laplacian_u + pt.warping_ratio * (pt.n + pt.grad_u_sq)
            assert abs(tr - expected) < 1e-7


def test_product_euclidean_xi_is_identity():
    im = grw_graph(product_model("euclidean"), wavy_height)
    x = np.array([1.3, 0.4])
    assert np.max(np.abs(point_alone(im, x).shape_closed("product_xi")[0] - np.eye(2))) < 1e-9
    assert np.max(np.abs(point_alone(im, x).shape_numeric("xi")[0] - np.eye(2))) < 1e-8


def test_slice_eta_shape():
    c = 1.4
    im = slice_immersion(2, c)
    x = np.array([1.1, -0.4])
    expected = -np.eye(2) / (2.0 * c * c)
    assert np.max(np.abs(point_alone(im, x).shape_numeric("eta")[0] - expected)) < 1e-9
    assert np.max(np.abs(point_alone(im, x).shape_closed("minkowski_eta")[0] - expected)) < 1e-12


def test_shape_dispatch_errors():
    grw = grw_graph(exp_model(), wavy_height)
    x = np.array([1.3, 0.5])
    with pytest.raises(ext.ShapeDispatchError):
        point_alone(grw, x).shape_closed("product_xi")[0]  # warping not unit
    with pytest.raises(ext.ShapeDispatchError):
        point_alone(grw, x).shape_closed("minkowski_eta")[0]
    sphere = grw_graph(product_model("sphere"), wavy_height)
    with pytest.raises(ext.ShapeDispatchError):
        point_alone(sphere, x).shape_closed("warped_xi")[0]  # fiber not Euclidean
    ds = psi_f_desitter(2, 0.5, 0.5 * SQ3, component="minus")
    with pytest.raises(ext.ShapeDispatchError):
        point_alone(ds, x).shape_closed("time_orthogonal")[0]
    with pytest.raises(ValueError):
        point_alone(grw, x).shape_closed("bogus")[0]


DENSE_GRID = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "dense-grid.json"


def _scene_grids() -> dict:
    with DENSE_GRID.open() as fh:
        dense = {f"dense-{s['config']['name']}": s["config"] for s in json.load(fh)["scenes"]}
    return {**builtin_scenes(), **dense}


@pytest.mark.parametrize("name", sorted(_scene_grids()))
def test_to_frame_matches_the_solve_on_scene_grids(name):
    # b^-1 A b with b^-1 = L^T, the Cholesky factor behind onf, is the solve
    # it replaced to 1e-15 relative, on every operator the shape suite
    # rewrites at the evaluated points of the scene's grid; the numeric xi
    # map is self-adjoint for g, so its frame form is symmetric to that bound
    config = _scene_grids()[name]
    scene = cli.parse_scene(config)
    points = np.array([row["point"] for row in cli.run(config)["rows"]])
    pt = tm.float_edges(lambda xs: ExtrinsicPoint(imm.chart_geometry(scene.im, xs)))(points)
    b = pt.geo.onf
    assert np.allclose(pt.geo.cholesky.swapaxes(-1, -2) @ b, np.eye(pt.n), rtol=0.0, atol=1e-15)
    operators = [pt.shape_maps[normal] for normal in ("xi", "eta", "time_orthogonal")
                 if normal != "time_orthogonal" or "time_orthogonal" in scene.selectors]
    operators += [pt.shape_closed_chart(which) for which in scene.selectors]
    for a in operators:
        want = np.linalg.solve(b, a @ b)
        assert np.all(np.abs(pt.to_frame(a) - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))
    a_xi = pt.shape_numeric("xi")
    asymmetry = np.abs(a_xi - a_xi.swapaxes(-1, -2))
    assert np.all(asymmetry <= 1e-15 * np.maximum(1.0, np.abs(a_xi)))


@pytest.mark.parametrize("name", sorted(_scene_grids()))
def test_eta_map_is_linear_in_the_normal_field(name):
    # A_eta = a A_xi + (b/s) A_N is the map of the entry algebra's eta
    # Series, whose derivatives hold the terms in da and db that pairing
    # with the tangents drops, and the map of a xi + b N is a A_xi + b A_N
    # for random per-point a and b; both within 1e-14 times each point's
    # largest entry (at least 1), at the pool points of a built-in scene or
    # the points of a dense grid (measured worst: 4.9e-15, mink-bowl's pool)
    scene = cli.parse_scene(_scene_grids()[name])
    if name.startswith("dense-"):
        points = list(itertools.product(*scene.axes))
    else:
        with POINTWISE.open() as fh:
            (points,) = [e["pool"] for e in json.load(fh)["scenes"] if e["config"]["name"] == name]
    kept = tm.Kept(len(points))
    pt = tm.float_edges(kept.run)(
        lambda xs: ExtrinsicPoint(imm.chart_geometry(scene.im, xs)), np.array(points)
    )
    assert len(kept.index) >= 0.9 * len(points)
    xi, normal = pt.xi_jet, pt.time_orthogonal_jet
    batch = xi.shape[-1]
    a, b = np.random.default_rng(3).uniform(-2.0, 2.0, size=(2, batch))
    combined = a[:, None, None] * pt.shape_maps["xi"] + b[:, None, None] * pt.shape_maps[
        "time_orthogonal"]
    eta = tm.Series.stack(entry_frame(pt)[2], tm.get_context(pt.n, 1), batch).c
    for got, field in ((pt.shape_maps["eta"], eta), (combined, xi * a + normal * b)):
        want = ext.weingarten_map(pt.geo, field, pt.f2, pt.df)
        scale = np.maximum(1.0, np.abs(want).max(axis=(-2, -1)))
        assert np.all(np.abs(got - want).max(axis=(-2, -1)) <= 1e-14 * scale)


# ---------------------------------------------------------------------------
# expansions, mean curvature, scalar curvature


def test_expansions_on_reference_scenes():
    im = psi_f_minkowski(2)
    pt = point_alone(im, [0.5, -0.3])
    theta_xi, theta_eta = pt.theta_xi, pt.theta_eta
    assert abs(theta_xi - 1.0) < 1e-12
    assert abs(theta_eta - 0.5) < 1e-9
    im3 = psi_f_minkowski(3)
    pt = point_alone(im3, [0.4, 0.2, -0.5])
    theta_xi, theta_eta = pt.theta_xi, pt.theta_eta
    assert abs(theta_xi - 1.0) < 1e-12
    assert abs(theta_eta - 0.5) < 1e-9
    c = 1.4
    pt = point_alone(slice_immersion(2, c), [1.0, 0.8])
    theta_xi, theta_eta = pt.theta_xi, pt.theta_eta
    assert abs(theta_xi - 1.0) < 1e-12
    assert abs(theta_eta + 1.0 / (2.0 * c * c)) < 1e-10


def test_expansion_traces_match_closed_forms():
    rng = np.random.default_rng(12)
    im = grw_graph(exp_model(), wavy_height)
    for x in scene_points(rng, im, 8):
        pt = point_alone(im, x)
        closed_eta = float(np.trace(pt.shape_closed_chart("warped_eta")[0])) / pt.n
        closed_xi = float(np.trace(pt.shape_closed_chart("warped_xi")[0])) / pt.n
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
            pt = point_alone(im, x)
            h, h_sq = pt.mean_curvature_vector, pt.h_sq
            assert abs(h_sq + 2.0 * pt.theta_xi * pt.theta_eta) < 1e-9
            recon = -pt.theta_xi * pt.eta - pt.theta_eta * pt.xi
            assert np.max(np.abs(h - recon)) < 1e-8


def test_mean_curvature_reference_values():
    assert abs(point_alone(psi_f_minkowski(2), [0.4, 0.1]).h_sq + 1.0) < 1e-10
    c = 1.3
    assert (
        abs(point_alone(slice_immersion(2, c), [1.2, 0.4]).h_sq - 1.0 / c**2)
        < 1e-10
    )
    marg = psi_f_minkowski(2, marginal_height_profile)
    assert abs(point_alone(marg, [0.5, -0.2]).h_sq) < 1e-9


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
            assert normal_connection_residual(point_alone(im, x)) < 1e-6


# ---------------------------------------------------------------------------
# trapped classification


def test_trapped_classes_on_reference_scenes():
    rng = np.random.default_rng(51)
    hyper = psi_f_minkowski(2)
    marg = psi_f_minkowski(2, marginal_height_profile)
    slice_im = slice_immersion(2, 1.0)
    for x in scene_points(rng, hyper, 10):
        assert point_alone(hyper, x).trapped_class() == "past_trapped"
    for x in scene_points(rng, marg, 10):
        assert point_alone(marg, x).trapped_class() == "past_marginally_trapped"
    for x in scene_points(rng, slice_im, 10):
        assert point_alone(slice_im, x).trapped_class() == "untrapped"


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
    assert point_alone(ds, [1.2, 0.7]).trapped_class() == "unclassified"
    cyl = cylinder_immersion(2, lambda t: t * t + 1.0)
    assert point_alone(cyl, [0.3, 1.1]).trapped_class() == "unclassified"
    grw = grw_graph(exp_model(), wavy_height)
    assert point_alone(grw, [1.3, 0.4]).trapped_class() == "unclassified"


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
            y = tm.eval_series(tm.SmoothMap(phi, 2, 2), x[None], 1).val[:, 0]
            if base.map.name == "slice" and not all(
                lo <= yi <= hi for yi, (lo, hi) in zip(y, base.map.domain)
            ):
                continue
            want = point_alone(base, y).trapped_class()
            assert point_alone(reparam, x).trapped_class() == want


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
