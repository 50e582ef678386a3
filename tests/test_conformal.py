"""Split maps, embedding factorizations and two-metric curvature identities."""

import math

import numpy as np
import pytest

from nullgeom import conformal as cf
from nullgeom import spacetime as st
from nullgeom import taylor as tm
from nullgeom.conformal import (
    ConformalMapSpec,
    DegeneracyError,
    EmbeddingFamily,
    EmbeddingRangeError,
    build_embedding,
)
from nullgeom.immersion import (
    ChartGeometry,
    Immersion,
    MetricChart,
    chart_geometry,
    pullback_metric_chart,
)
from nullgeom.nullcone import NullconeSpec
from nullgeom.taylor import SmoothMap

from _surfaces import (
    hxr_immersion,
    psi_f_desitter,
    random_metric_chart,
    random_positive_field,
    sample_box,
    slice_immersion,
    sphere_box,
)

BETA_HALF = math.sqrt(3.0) / 2.0  # sqrt(1 - alpha^2) at alpha = 1/2


def varying_f(ys):
    return 1.0 + 0.3 * ys[0] * ys[0]


def sphere_f(qs):
    c = tm.cos(qs[0])
    return 1.0 + 0.3 * c * c


def minkowski_family(n=2, f=varying_f):
    return build_embedding(EmbeddingFamily("psi_f_minkowski", f=f, n=n))


def desitter_family(alpha, f, component=None, n=2):
    return build_embedding(
        EmbeddingFamily(
            "psi_f_desitter_alpha", f=f, alpha=alpha, n=n, component=component
        )
    )


def cylinder_family(n=2):
    return build_embedding(
        EmbeddingFamily("cylinder_warped", f=lambda t: t * t + 1.0, n=n)
    )


def sloped_cylinder():
    """Cylinder-cone surface whose line coordinate is not a chart axis."""
    model = st.AmbientModel("minkowski", 2)
    cone = NullconeSpec(model, "cylinder")

    def fn(cs):
        a, b = cs
        t = a + 0.3 * tm.sin(b)
        fv = 1.0 + t * t
        return [fv, fv * tm.cos(b), fv * tm.sin(b), t]

    return Immersion(SmoothMap(fn, 2, 4, "sloped"), model, cone)


def chart_values(chart, x):
    return tm.jet_eval(chart, np.asarray(x, dtype=float), 0).value


# -- construction validation --------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(variant="nope", f=1.0),
        dict(variant="psi_f_desitter_alpha", f=1.0),
        dict(variant="psi_f_desitter_alpha", f=1.0, alpha=1.5),
        dict(variant="psi_f_desitter_alpha", f=1.0, alpha=0.5),
        dict(variant="psi_f_desitter_alpha", f=1.0, alpha=0.0, component="minus"),
        dict(variant="psi_f_minkowski", f=1.0, alpha=0.3),
        dict(variant="cylinder_warped", f=1.0, component="plus"),
    ],
)
def test_family_validation(kwargs):
    with pytest.raises(ValueError):
        EmbeddingFamily(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(variant="nope"),
        dict(variant="lightcone_to_Hn"),
        dict(variant="lightcone_to_Hn", coordinate_index=0),
        dict(variant="cylinder_to_SxR"),
        dict(variant="cylinder_to_HxR"),
    ],
)
def test_map_spec_validation(kwargs):
    with pytest.raises(ValueError):
        ConformalMapSpec(**kwargs)


def test_range_enforcement():
    # the split component pins f strictly between 0 and sqrt(1-a^2)/a
    minus_big = desitter_family(0.5, 2.0, component="minus")
    with pytest.raises(EmbeddingRangeError):
        chart_geometry(minus_big, (1.2, 0.4))
    plus_small = desitter_family(0.5, 1.0, component="plus")
    with pytest.raises(EmbeddingRangeError):
        chart_geometry(plus_small, (1.2, 0.4))
    negative = minkowski_family(f=lambda ys: -1.0 + 0.0 * ys[0])
    with pytest.raises(EmbeddingRangeError):
        chart_geometry(negative, (0.2, 0.1))


# -- split-map values ----------------------------------------------------------


def test_lightcone_split_inverts_graph_embedding():
    # the split map undoes (f p, f): it returns the hyperboloid point itself
    n = 2
    im = minkowski_family(n=n)
    spec = ConformalMapSpec("lightcone_to_Hn", coordinate_index=n + 1)
    chart = st.hyperbolic_chart(n)
    rng = np.random.default_rng(7)
    for x in sample_box(rng, ((-1.2, 1.2),) * n, 8):
        y = cf.conformal_map(spec, im, x)
        assert np.max(np.abs(y - chart_values(chart, x))) < 1e-12
        assert abs(-y[0] ** 2 + y[1:] @ y[1:] + 1.0) < 1e-12


def test_desitter_split_inverts_graph_embedding():
    # alpha = 0 family is (f, -q, f); dividing by R = -1 recovers q
    n = 2
    im = desitter_family(0.0, sphere_f, n=n)
    spec = ConformalMapSpec("desitter_to_Sn")
    chart = st.sphere_chart(n)
    rng = np.random.default_rng(11)
    for x in sample_box(rng, sphere_box(n), 8):
        q = chart_values(chart, x)
        geo = chart_geometry(im, x)
        fv = geo.psi0[0]
        assert np.max(np.abs(geo.psi0 - np.concatenate([[fv], -q, [fv]]))) < 1e-12
        assert np.max(np.abs(cf.conformal_map(spec, im, x) - q)) < 1e-12


def test_cylinder_split_primitive_is_arctan():
    im = cylinder_family()
    spec = ConformalMapSpec("cylinder_to_SxR", base_point=(0.0, 0.5))
    rng = np.random.default_rng(13)
    for x in sample_box(rng, ((-1.4, 1.6), (0.4, 2.6)), 8):
        img = cf.conformal_map(spec, im, x)
        t, th = x
        assert np.max(np.abs(img[:2] - [math.cos(th), math.sin(th)])) < 1e-12
        assert abs(img[2] - math.atan(t)) < 1e-9


def test_hxr_split_values():
    im = hxr_immersion(lambda s: s * s + 1.0)
    spec = ConformalMapSpec("cylinder_to_HxR", base_point=(0.0, 0.0))
    rng = np.random.default_rng(17)
    for x in sample_box(rng, ((-1.0, 1.0), (-1.0, 1.0)), 8):
        img = cf.conformal_map(spec, im, x)
        s, y = x
        expected = [math.cosh(y), math.sinh(y), math.atan(s)]
        assert np.max(np.abs(img - expected)) < 1e-9


def test_future_sheet_guard():
    # a negative denominator coordinate flips the image off the upper sheet
    im = slice_immersion(2, 2.0)
    spec = ConformalMapSpec("lightcone_to_Hn", coordinate_index=3)
    assert cf.conformal_map(spec, im, (1.2, 2.0))[0] > 0.0
    with pytest.raises(DegeneracyError):
        cf.conformal_map(spec, im, (1.2, -2.0))


def test_denominator_degeneracy():
    split = math.sqrt(3.0)
    im = psi_f_desitter(2, 0.5, split - 1e-10, component="minus")
    spec = ConformalMapSpec("desitter_to_Sn")
    with pytest.raises(DegeneracyError):
        cf.conformal_map(spec, im, (1.2, 0.4))


# -- conformal factor ----------------------------------------------------------


def factor_cases():
    rng = np.random.default_rng(23)
    cases = []

    im = minkowski_family(n=2)
    spec = ConformalMapSpec("lightcone_to_Hn", coordinate_index=3)
    cases.append(("mink2", spec, im, None, sample_box(rng, ((-1.2, 1.2),) * 2, 6)))

    im = minkowski_family(n=3, f=lambda ys: 1.0 + 0.2 * ys[1] * ys[1])
    spec = ConformalMapSpec("lightcone_to_Hn", coordinate_index=4)
    cases.append(("mink3", spec, im, None, sample_box(rng, ((-1.0, 1.0),) * 3, 6)))

    im = cylinder_family()
    spec = ConformalMapSpec("cylinder_to_SxR", base_point=(0.0, 0.5))
    lam = lambda x: x[0] ** 2 + 1.0
    cases.append(("cyl", spec, im, lam, sample_box(rng, ((-1.3, 1.5), (0.4, 2.6)), 6)))

    im = hxr_immersion(lambda s: s * s + 1.0)
    spec = ConformalMapSpec("cylinder_to_HxR", base_point=(0.0, 0.0))
    lam = lambda x: x[0] ** 2 + 1.0
    cases.append(("hxr", spec, im, lam, sample_box(rng, ((-1.0, 1.0),) * 2, 6)))

    spec = ConformalMapSpec("desitter_to_Sn")
    im = desitter_family(0.0, sphere_f)
    cases.append(("ds0", spec, im, lambda x: 1.0, sample_box(rng, sphere_box(2), 6)))

    im = desitter_family(0.5, BETA_HALF, component="minus")
    lam = lambda x: BETA_HALF - 0.5 * BETA_HALF
    cases.append(("ds05m", spec, im, lam, sample_box(rng, sphere_box(2), 6)))

    im = desitter_family(0.5, lambda qs: 2.0 + 0.1 * tm.sin(qs[0]), component="plus")
    cases.append(("ds05p", spec, im, None, sample_box(rng, sphere_box(2), 6)))

    im = desitter_family(1.0, sphere_f)
    cases.append(("ds1", spec, im, None, sample_box(rng, sphere_box(2), 6)))

    return cases


@pytest.mark.parametrize(
    "spec,im,lam,samples", [c[1:] for c in factor_cases()], ids=[c[0] for c in factor_cases()]
)
def test_conformal_factor_identity(spec, im, lam, samples):
    assert cf.conformal_factor_check(spec, im, samples, lam) < 1e-8
    assert all(cf.pullback_residual(spec, chart_geometry(im, x))[1] for x in samples)


def test_constant_family_factor_value():
    # f = sqrt(3)/2 on the minus component: the scale is beta - alpha f
    im = desitter_family(0.5, BETA_HALF, component="minus")
    spec = ConformalMapSpec("desitter_to_Sn")
    expected = BETA_HALF - 0.5 * BETA_HALF
    for x in [(1.2, 0.4), (1.8, -0.9)]:
        assert abs(cf.conformal_factor(spec, im, x) - expected) < 1e-12


def test_desitter_sign_coherence():
    rng = np.random.default_rng(29)
    samples = sample_box(rng, sphere_box(2), 5)
    assert cf.desitter_r_sign(desitter_family(0.0, sphere_f), samples) == -1.0
    minus = desitter_family(0.5, BETA_HALF, component="minus")
    assert cf.desitter_r_sign(minus, samples) == -1.0
    plus = desitter_family(0.5, 2.0, component="plus")
    assert cf.desitter_r_sign(plus, samples) == 1.0
    near = psi_f_desitter(2, 0.5, math.sqrt(3.0) - 1e-10, component="minus")
    with pytest.raises(DegeneracyError):
        cf.desitter_r_sign(near, samples)
    with pytest.raises(ValueError):
        cf.desitter_r_sign(minkowski_family(), samples)


# -- primitive exactness -------------------------------------------------------


def test_exactness_loops():
    spec = ConformalMapSpec("cylinder_to_SxR", base_point=(0.0, 0.5))
    assert cf.exactness_residual(
        spec, cylinder_family(), (0, 1), ((-0.8, 1.2), (0.7, 1.9))
    ) < 1e-8

    sloped = sloped_cylinder()
    spec = ConformalMapSpec("cylinder_to_SxR", base_point=(0.0, 0.25))
    assert cf.exactness_residual(
        spec, sloped, (0, 1), ((-0.7, 0.9), (0.25, 1.4))
    ) < 1e-8

    spec = ConformalMapSpec("cylinder_to_HxR", base_point=(0.0, 0.0))
    assert cf.exactness_residual(
        spec, hxr_immersion(lambda s: s * s + 1.0), (0, 1), ((-0.9, 0.8), (-0.5, 1.1))
    ) < 1e-8


def test_sloped_primitive_matches_closed_form():
    # dw/u = d(arctan t) on this surface, so g only sees the endpoint times
    im = sloped_cylinder()
    base = (0.0, 0.25)
    spec = ConformalMapSpec("cylinder_to_SxR", base_point=base)
    t0 = base[0] + 0.3 * math.sin(base[1])
    rng = np.random.default_rng(31)
    for x in sample_box(rng, ((-0.8, 0.9), (0.2, 1.5)), 5):
        t = x[0] + 0.3 * math.sin(x[1])
        expected = math.atan(t) - math.atan(t0)
        assert abs(cf.primitive_g(spec, im, x) - expected) < 1e-9


# -- factorization -------------------------------------------------------------


def test_local_inverse_recovers_chart_point():
    im = minkowski_family(n=2)
    spec = ConformalMapSpec("lightcone_to_Hn", coordinate_index=3)
    x0 = np.array([0.4, -0.7])
    target = cf.conformal_map(spec, im, x0)
    x_hat = cf.local_inverse(spec, im, target, seed=(0.1, -0.2))
    assert np.max(np.abs(x_hat - x0)) < 1e-9


@pytest.mark.parametrize(
    "im,spec,box",
    [
        (
            minkowski_family(n=2),
            ConformalMapSpec("lightcone_to_Hn", coordinate_index=3),
            ((-0.9, 0.9), (-0.9, 0.9)),
        ),
        (
            minkowski_family(n=2, f=lambda ys: 1.0 + 0.1 * ys[0] + 0.2 * ys[1] * ys[1]),
            ConformalMapSpec("lightcone_to_Hn", coordinate_index=1),
            ((0.3, 1.1), (-0.8, 0.8)),
        ),
        (
            desitter_family(0.0, sphere_f),
            ConformalMapSpec("desitter_to_Sn"),
            ((1.0, 2.0), (-0.8, 0.8)),
        ),
        (
            desitter_family(
                0.5, lambda qs: BETA_HALF * (1.0 - 0.1 * tm.cos(qs[0])), component="minus"
            ),
            ConformalMapSpec("desitter_to_Sn"),
            ((1.0, 2.0), (-0.8, 0.8)),
        ),
        (
            desitter_family(0.5, lambda qs: 2.0 + 0.1 * tm.sin(qs[0]), component="plus"),
            ConformalMapSpec("desitter_to_Sn"),
            ((1.0, 2.0), (-0.8, 0.8)),
        ),
    ],
    ids=["mink-last", "mink-mid", "ds0", "ds05-minus", "ds05-plus"],
)
def test_factorization_round_trip(im, spec, box):
    rng = np.random.default_rng(37)
    samples = sample_box(rng, box, 6)
    assert cf.factorization_check(im, spec, samples) < 1e-7


def test_factorization_builds_no_chart_geometry(monkeypatch):
    # the forward map, the local inverse and f read psi at order 1 or 0;
    # none of them needs the induced metric
    built = []
    real_init = ChartGeometry.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ChartGeometry, "__init__", counting_init)
    im = minkowski_family(n=2)
    spec = ConformalMapSpec("lightcone_to_Hn", coordinate_index=3)
    samples = sample_box(np.random.default_rng(37), ((-0.9, 0.9), (-0.9, 0.9)), 6)
    assert cf.factorization_check(im, spec, samples) < 1e-7
    assert built == []
    chart_geometry(im, samples[0])
    assert len(built) == 1


# -- conformal curvature -------------------------------------------------------

FLAT2 = MetricChart(lambda coords: [[1.0, 0.0], [0.0, 1.0]], 2, "flat2")


def test_scaled_metric_chart_values():
    lam = lambda coords: 1.0 + coords[0] * coords[0]
    scaled = cf.scaled_metric_chart(FLAT2, lam)
    x = (0.7, -0.4)
    geo = chart_geometry(scaled, x)
    assert np.max(np.abs(geo.g0 - (1.0 + 0.49) ** 2 * np.eye(2))) < 1e-12


def test_sectional_anchors():
    sphere = pullback_metric_chart(st.sphere_chart(2), name="round")
    k = cf.sectional_curvatures(chart_geometry(sphere, (1.1, 0.6)))
    assert abs(k[0, 1] - 1.0) < 1e-10
    hyper = pullback_metric_chart(
        st.hyperbolic_chart(2), signs=(-1.0, 1.0, 1.0), name="hyperbolic"
    )
    k = cf.sectional_curvatures(chart_geometry(hyper, (0.4, -0.8)))
    assert abs(k[0, 1] + 1.0) < 1e-10
    sphere3 = pullback_metric_chart(st.sphere_chart(3), name="round3")
    k = cf.sectional_curvatures(chart_geometry(sphere3, (1.2, 0.9, 0.5)))
    for a in range(3):
        for c in range(a + 1, 3):
            assert abs(k[a, c] - 1.0) < 1e-10


def test_stereographic_factor_gives_round_sphere():
    lam = lambda xs: 2.0 / (1.0 + xs[0] * xs[0] + xs[1] * xs[1])
    scaled = cf.scaled_metric_chart(FLAT2, lam)
    rng = np.random.default_rng(41)
    samples = sample_box(rng, ((-1.5, 1.5),) * 2, 6)
    for x in samples:
        k = cf.sectional_curvatures(chart_geometry(scaled, x))[0, 1]
        assert abs(k - 1.0) < 1e-6
    res = cf.conformal_curvature_check(FLAT2, lam, samples)
    assert max(res.values()) < 1e-8


def test_exponential_factor_stays_flat():
    # e^{2x}(dx^2 + dy^2) is flat: substitute u = e^x
    lam = lambda xs: tm.exp(xs[0])
    scaled = cf.scaled_metric_chart(FLAT2, lam)
    for x in [(0.0, 0.0), (0.4, -0.6), (-0.8, 0.3)]:
        k = cf.sectional_curvatures(chart_geometry(scaled, x))[0, 1]
        assert abs(k) < 1e-9
    res = cf.conformal_curvature_check(FLAT2, lam, [(0.4, -0.6), (-0.8, 0.3)])
    assert max(res.values()) < 1e-8


def test_immersion_input_curvature_check():
    im = minkowski_family(n=2, f=1.1)
    lam = lambda ys: 1.0 + 0.2 * tm.norm_sq(ys)
    res = cf.conformal_curvature_check(im, lam, [(0.3, -0.5), (-0.7, 0.2)])
    assert max(res.values()) < 1e-8


def test_rescaled_geometry_matches_scaled_metric_chart():
    # lambda^2 g from the base geometry's own metric jet, against the metric
    # chart of lambda^2 g built from scratch
    lam = lambda xs: tm.exp(0.3 * xs[0] - 0.2 * xs[1])
    im = minkowski_family()
    cases = [
        (im, pullback_metric_chart(im.map, signs=im.model.signature)),
        (FLAT2, FLAT2),
    ]
    for obj, base in cases:
        scaled = cf.scaled_metric_chart(base, lam)
        for x in [(0.3, -0.5), (-0.7, 0.2)]:
            geo = chart_geometry(obj, x)
            got = geo.rescaled(geo.scalar_series(lam))
            want = chart_geometry(scaled, x)
            assert np.max(np.abs(got.g0 - want.g0)) < 1e-12
            assert abs(got.scal - want.scal) < 1e-12


def test_curvature_check_outside_immersion_domain_is_typed():
    im = desitter_family(0.0, sphere_f)
    with pytest.raises(tm.ChartDomainError):
        cf.conformal_curvature_check(im, lambda qs: 1.0 + 0.0 * qs[0], [(-0.5, 0.2)])


def test_nonpositive_factor_rejected():
    lam = lambda xs: xs[0]  # vanishes and changes sign
    with pytest.raises(ValueError):
        cf.conformal_curvature_check(FLAT2, lam, [(-0.5, 0.2)])


def test_random_conformal_identities():
    rng = np.random.default_rng(43)
    worst = {"sectional": 0.0, "scalar": 0.0, "gauss": 0.0}
    for trial in range(50):
        n = 2 if trial % 2 == 0 else 3
        chart = random_metric_chart(rng, n)
        lam = random_positive_field(rng, n)
        samples = sample_box(rng, ((-0.8, 0.8),) * n, 2)
        res = cf.conformal_curvature_check(chart, lam, samples)
        for key in worst:
            worst[key] = max(worst[key], res[key])
    assert worst["sectional"] < 1e-5
    assert worst["scalar"] < 1e-5
    assert worst["gauss"] < 1e-5
