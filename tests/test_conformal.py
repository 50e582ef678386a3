"""Split maps, embedding factorizations and two-metric curvature identities."""

import itertools
import math

import numpy as np
import pytest

from nullgeom import cli
from nullgeom import conformal as cf
from nullgeom import immersion
from nullgeom import spacetime as st
from nullgeom import taylor as tm
from nullgeom.cli import parse_scene
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
)
from nullgeom.nullcone import NullconeSpec, PointRejected
from nullgeom.scenes import builtin_scenes
from nullgeom.taylor import SmoothMap

from _jets import jet_eval
from _surfaces import (
    factorization_alone,
    hxr_immersion,
    local_inverse_alone,
    psi_f_desitter,
    pullback_alone,
    pullback_metric_chart,
    random_metric_chart,
    random_positive_field,
    sample_box,
    scaled_metric_chart,
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
    return jet_eval(chart, np.asarray(x, dtype=float), 0).value


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
    # lambda is the variant's denominator, or the case's independent one
    for x in samples:
        geo = chart_geometry(im, x)
        assert pullback_alone(spec, geo, lam)[0] < 1e-8
        assert pullback_alone(spec, geo)[1]


def test_constant_family_factor_value():
    # f = sqrt(3)/2 on the minus component: the scale is beta - alpha f
    im = desitter_family(0.5, BETA_HALF, component="minus")
    spec = ConformalMapSpec("desitter_to_Sn")
    expected = BETA_HALF - 0.5 * BETA_HALF
    lam = cf.factor_field(spec, im)
    for x in [(1.2, 0.4), (1.8, -0.9)]:
        assert abs(lam(list(x)) - expected) < 1e-12


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
    targets = cf.conformal_map(spec, im, x0[None])
    (x_hat,) = cf.local_inverse(spec, im, targets, seeds=[(0.1, -0.2)])
    assert np.max(np.abs(x_hat - x0)) < 1e-9


def test_local_inverse_does_not_swallow_programming_errors(monkeypatch):
    # the line search halves the step on a trial's typed failure only; a
    # plain ValueError is a programming error and escapes
    im = minkowski_family(n=2)
    spec = ConformalMapSpec("lightcone_to_Hn", coordinate_index=3)
    targets = cf.conformal_map(spec, im, np.array([(0.4, -0.7)]))
    real = cf._map_values
    calls = []

    def broken_trials(*args):
        calls.append(args[2])
        if len(calls) > 1:  # every trial after the seed's own evaluation
            raise ValueError("programming error in a trial")
        return real(*args)

    monkeypatch.setattr(cf, "_map_values", broken_trials)
    with pytest.raises(ValueError, match="programming error in a trial"):
        cf.local_inverse(spec, im, targets, seeds=[(0.1, -0.2)])
    assert len(calls) == 2


def test_local_inverse_evaluates_each_accepted_point_once(monkeypatch):
    # the accepted trial's psi and residual carry over to the next step
    im = minkowski_family(n=2)
    spec = ConformalMapSpec("lightcone_to_Hn", coordinate_index=3)
    targets = cf.conformal_map(spec, im, np.array([(0.4, -0.7)]))
    real = cf._map_values
    points = []

    def recorded(*args):
        points.append(args[2].tobytes())
        return real(*args)

    monkeypatch.setattr(cf, "_map_values", recorded)
    cf.local_inverse(spec, im, targets, seeds=[(0.1, -0.2)])
    assert len(points) == len(set(points))


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


def _outcome(fn, *args, **kwargs):
    """fn's result as bytes, or the type and message of what it raised."""
    try:
        return "returned", np.asarray(fn(*args, **kwargs)).tobytes()
    except Exception as err:
        return "raised", type(err), str(err)


def _loop(inverse):
    """Local inverses of stacked targets and seeds taken one at a time."""

    def each(spec, im, targets, seeds, **kwargs):
        return [inverse(spec, im, t, s, **kwargs) for t, s in zip(targets, seeds)]

    return each


@pytest.mark.parametrize(
    "family,spec,box,seed_box,rng_seed",
    [
        (minkowski_family(), ConformalMapSpec("lightcone_to_Hn", coordinate_index=3),
         ((-0.9, 0.9), (-0.9, 0.9)), None, 5),
        (desitter_family(0.0, sphere_f), ConformalMapSpec("desitter_to_Sn"),
         ((1.0, 2.0), (-0.8, 0.8)), None, 5),
        # the image ends in the primitive g, integrated at each point
        (sloped_cylinder(), ConformalMapSpec("cylinder_to_SxR", base_point=(0.0, 0.25)),
         ((-0.8, 0.9), (0.2, 1.5)), None, 5),
        # seeds far from targets near the pole: some full steps leave the
        # chart, so trial batches are refused and evaluated point by point
        (desitter_family(0.0, sphere_f), ConformalMapSpec("desitter_to_Sn"),
         ((0.05, 0.4), (-3.0, 3.0)), ((0.3, 2.8), (-3.0, 3.0)), 24),
        (desitter_family(0.0, sphere_f), ConformalMapSpec("desitter_to_Sn"),
         ((0.05, 0.4), (-3.0, 3.0)), ((0.3, 2.8), (-3.0, 3.0)), 38),
        # ... and some samples find no descent step
        (desitter_family(0.0, sphere_f), ConformalMapSpec("desitter_to_Sn"),
         ((0.05, 0.4), (-3.0, 3.0)), ((0.3, 2.8), (-3.0, 3.0)), 0),
    ],
    ids=["mink", "ds0", "cyl-primitive", "ds0-far-24", "ds0-far-38", "ds0-far-fails"],
)
def test_stacked_local_inverse_matches_calls_alone(
    monkeypatch, family, spec, box, seed_box, rng_seed
):
    # every sample of a stack takes the steps it takes alone, to the bit;
    # a stack raises what the first failing sample raises alone
    rng = np.random.default_rng(rng_seed)
    xs = np.array(sample_box(rng, box, 6 if seed_box else 8))
    seeds = xs[::-1] if seed_box is None else np.array(sample_box(rng, seed_box, len(xs)))
    targets = np.array([cf.conformal_map(spec, family, x) for x in xs])
    refused = []
    real = cf._inverse_residuals

    def spy(spec, im, points, targets):
        out = real(spec, im, points, targets)
        if points.ndim == 2 and any(isinstance(r, Exception) for r in out):
            refused.append(len(points))
        return out

    monkeypatch.setattr(cf, "_inverse_residuals", spy)
    stacked = _outcome(cf.local_inverse, spec, family, targets, seeds)
    monkeypatch.undo()
    assert bool(refused) == (seed_box is not None)
    assert stacked == _outcome(_loop(local_inverse_alone), spec, family, targets, seeds)
    assert stacked[0] == ("raised" if rng_seed == 0 else "returned")


@pytest.mark.parametrize("max_iter", [2, 60])
def test_stacked_local_inverse_raises_for_the_first_failing_sample(max_iter):
    # sample 2's seed lies off the chart; with 2 iterations sample 0 stalls
    # first, with 60 samples 0 and 1 converge and sample 2 raises
    im = desitter_family(0.0, sphere_f)
    spec = ConformalMapSpec("desitter_to_Sn")
    xs = np.array(sample_box(np.random.default_rng(3), ((1.0, 2.0), (-0.8, 0.8)), 4))
    targets = np.array([cf.conformal_map(spec, im, x) for x in xs])
    seeds = xs[::-1].copy()
    seeds[2] = (3.5, 0.0)
    stacked = _outcome(cf.local_inverse, spec, im, targets, seeds, max_iter=max_iter)
    alone = _outcome(_loop(local_inverse_alone), spec, im, targets, seeds, max_iter=max_iter)
    assert stacked == alone
    expected = cf.InverseError if max_iter == 2 else tm.ChartDomainError
    assert stacked[1] is expected


@pytest.mark.parametrize("bad,neighbor", [(0, None), (2, None), (5, None), (5, 1)])
def test_factorization_failing_sample_raises_as_the_loop(bad, neighbor):
    # a sample off the chart fails its own image; a neighbor whose nearest
    # other sample it is fails earlier in sample order, in its local
    # inverse, which starts off the chart
    im = desitter_family(0.0, sphere_f)
    spec = ConformalMapSpec("desitter_to_Sn")
    samples = sample_box(np.random.default_rng(37), ((1.0, 2.0), (-0.8, 0.8)), 6)
    samples[bad] = np.array([3.3, samples[bad][1]])
    if neighbor is not None:
        samples[neighbor] = samples[bad] - (0.3, 0.0)
    got = _outcome(cf.factorization_check, im, spec, samples)
    assert got[0] == "raised"
    assert got == _outcome(factorization_alone, im, spec, samples)


def test_factorization_matches_the_loop_on_builtin_scenes(monkeypatch):
    # the suite's factorization round trip on every built-in scene that has
    # one gives, to the bit, what the samples give one at a time
    calls = []
    real = cf.factorization_check

    def recorded(im, spec, samples):
        calls.append((im, spec, samples, real(im, spec, samples)))
        return calls[-1][-1]

    monkeypatch.setattr(cf, "factorization_check", recorded)
    with_factorization = set()
    for name, doc in sorted(builtin_scenes().items()):
        report = cli.run(doc)
        conformal_suite = report["suites"].get("conformal")
        if conformal_suite and "factorization" in conformal_suite["residuals"]:
            with_factorization.add(name)
    assert len(calls) == len(with_factorization) > 0
    for im, spec, samples, got in calls:
        assert got.hex() == factorization_alone(im, spec, samples).hex()


# -- conformal curvature -------------------------------------------------------

FLAT2 = MetricChart(lambda coords: [[1.0, 0.0], [0.0, 1.0]], 2)


def test_scaled_metric_chart_values():
    lam = lambda coords: 1.0 + coords[0] * coords[0]
    scaled = scaled_metric_chart(FLAT2, lam)
    x = (0.7, -0.4)
    geo = chart_geometry(scaled, x)
    assert np.max(np.abs(geo.g0 - (1.0 + 0.49) ** 2 * np.eye(2))) < 1e-12


def test_sectional_anchors():
    sphere = pullback_metric_chart(st.sphere_chart(2))
    k = cf.sectional_curvatures(chart_geometry(sphere, (1.1, 0.6)))
    assert abs(k[0, 1] - 1.0) < 1e-10
    hyper = pullback_metric_chart(st.hyperbolic_chart(2), signs=(-1.0, 1.0, 1.0))
    k = cf.sectional_curvatures(chart_geometry(hyper, (0.4, -0.8)))
    assert abs(k[0, 1] + 1.0) < 1e-10
    sphere3 = pullback_metric_chart(st.sphere_chart(3))
    k = cf.sectional_curvatures(chart_geometry(sphere3, (1.2, 0.9, 0.5)))
    for a in range(3):
        for c in range(a + 1, 3):
            assert abs(k[a, c] - 1.0) < 1e-10


def test_stereographic_factor_gives_round_sphere():
    lam = lambda xs: 2.0 / (1.0 + xs[0] * xs[0] + xs[1] * xs[1])
    scaled = scaled_metric_chart(FLAT2, lam)
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
    scaled = scaled_metric_chart(FLAT2, lam)
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
        scaled = scaled_metric_chart(base, lam)
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


# -- batched samples against the per-sample loops -------------------------------
#
# The oracles below evaluate one sample at a time with one-point arithmetic:
# every batched result must equal theirs bit for bit, and a failing sample
# must raise the same type with the same message.


def r_sign_loop(im, samples):
    cone = im.target_cone
    signs = set()
    for x in samples:
        r = cone.scale(im.series(x, 0, check_membership=False)[0].val)
        if abs(r) <= cf.DENOMINATOR_FLOOR:
            raise DegeneracyError(f"scale R = {r:.3e} vanishes at {tm.format_point(x)}")
        signs.add(1.0 if r > 0.0 else -1.0)
    if len(signs) != 1:
        raise DegeneracyError("scale R changes sign across the samples")
    return signs.pop()


def curvature_check_loop(metric_obj, lam, samples):
    res_sect = res_scal = res_gauss = 0.0
    for x in samples:
        geo = chart_geometry(metric_obj, x, check_membership=False)
        n = geo.dim
        s = geo.scalar_series(lam)
        geo_s = geo.rescaled(s)
        lam0 = s.val
        if lam0 <= 0.0:
            raise ValueError(f"conformal factor nonpositive at {tm.format_point(x)}")
        _, grad_sq = geo.gradient(s)
        hess = geo.covariant_hessian(s)
        lap = float(np.einsum("ij,ij->", geo.g_inv0, hess))
        b = geo.onf
        hess_onf = b.T @ hess @ b
        dlam_onf = b.T @ geo.partials(s)
        k_base = cf.sectional_curvatures(geo)
        k_scaled = cf.sectional_curvatures(geo_s)
        for a in range(n):
            for c in range(a + 1, n):
                lhs = lam0**4 * k_scaled[a, c]
                rhs = (
                    lam0**2 * k_base[a, c]
                    + 2.0 * (dlam_onf[a] ** 2 + dlam_onf[c] ** 2)
                    - lam0 * (hess_onf[a, a] + hess_onf[c, c])
                    - grad_sq
                )
                res_sect = max(res_sect, abs(lhs - rhs))
        lhs = lam0**2 * geo_s.scal
        rhs = geo.scal - 2.0 * (n - 1) * lap / lam0 - (n - 1) * (n - 4) * grad_sq / lam0**2
        res_scal = max(res_scal, abs(lhs - rhs))
        if n == 2:
            log_lap = geo.laplacian(tm.log(s))
            lhs = lam0**2 * k_scaled[0, 1]
            res_gauss = max(res_gauss, abs(lhs - (k_base[0, 1] - log_lap)))
    return {"sectional": res_sect, "scalar": res_scal, "gauss": res_gauss}


def outcome(fn, *args):
    """fn's result with every float as its exact bits, or its error's type
    and message."""
    try:
        out = fn(*args)
    except Exception as err:  # noqa: BLE001 - the error is the outcome compared
        return type(err), str(err)
    if isinstance(out, dict):
        return {key: float(v).hex() for key, v in out.items()}
    if isinstance(out, tuple):  # pullback (deviation, spd)
        return float(out[0]).hex(), bool(out[1])
    return float(out).hex()


def appendix_scenes():
    docs = builtin_scenes()
    out = [parse_scene(docs[name]) for name in sorted(docs)]
    return [sc for sc in out if "appendix" in sc.checks]


def grid_samples(scene, seed, count=5):
    """count grid points of the scene drawn by the seed."""
    points = np.array(list(itertools.product(*scene.axes)))
    picks = np.random.default_rng(seed).choice(len(points), size=count, replace=False)
    return [points[i] for i in picks]


def chart_geometry_calls(monkeypatch):
    calls = []
    real = immersion.chart_geometry

    def counted(obj, x, *args, **kwargs):
        calls.append(np.shape(x))
        return real(obj, x, *args, **kwargs)

    monkeypatch.setattr(cf, "chart_geometry", counted)
    return calls


def test_curvature_check_batch_matches_samples_alone(monkeypatch):
    scenes = appendix_scenes()
    assert len(scenes) == 9
    calls = chart_geometry_calls(monkeypatch)
    batched = 0
    for scene in scenes:
        lam = cf.factor_field(scene.cspec, scene.im)
        for seed in range(4):
            samples = grid_samples(scene, seed)
            calls.clear()
            want = outcome(curvature_check_loop, scene.im, lam, samples)
            calls.clear()
            assert outcome(cf.conformal_curvature_check, scene.im, lam, samples) == want
            batched += calls == [(5, 2)]
    assert batched == 4 * len(scenes)  # each set is one batch, not the fallback loop
    # a failing sample in the middle of the list: the loop's error, the loop's order
    flat = MetricChart(lambda coords: [[1.0, 0.0], [0.0, 1.0]], 2)
    lam = lambda xs: xs[0]  # noqa: E731 - vanishes at x0 = 0, negative below
    for samples in (
        [(0.5, 0.2), (-0.5, 0.2), (0.3, 0.1)],
        [(0.5, 0.2), (0.0, 0.2), (-0.3, 0.1)],
    ):
        want = outcome(curvature_check_loop, flat, lam, samples)
        assert want[0] in (ValueError, immersion.MetricSignatureError)
        assert outcome(cf.conformal_curvature_check, flat, lam, samples) == want
    im = desitter_family(0.0, sphere_f)
    samples = [(0.5, 0.2), (-0.5, 0.2)]  # the second is off the sphere chart
    want = outcome(curvature_check_loop, im, lambda qs: 1.0 + 0.0 * qs[0], samples)
    assert want[0] is tm.ChartDomainError
    assert outcome(cf.conformal_curvature_check, im, lambda qs: 1.0 + 0.0 * qs[0], samples) == want
    rng = np.random.default_rng(47)
    for trial in range(20):
        n = 2 + trial % 2
        chart, lam = random_metric_chart(rng, n), random_positive_field(rng, n)
        samples = sample_box(rng, ((-0.8, 0.8),) * n, 4)
        want = outcome(curvature_check_loop, chart, lam, samples)
        assert outcome(cf.conformal_curvature_check, chart, lam, samples) == want


def test_pullback_columns_match_points_alone():
    cases = [(sc.cspec, sc.im, itertools.product(*sc.axes)) for sc in appendix_scenes()]
    # mink-slice with half of its grid below x1 = 0, where the image lands on
    # the lower hyperboloid sheet: columns off the model space in a batch
    doc = builtin_scenes()["mink-slice"]
    doc["grid"][1] = {"min": -1.0, "max": 1.0, "count": 12}
    off = parse_scene(doc)
    cases.append((off.cspec, off.im, itertools.product(*off.axes)))
    # one sample on the lower sheet between good ones, and a section whose
    # denominator lies inside the floor at every sample
    lightcone = ConformalMapSpec("lightcone_to_Hn", coordinate_index=3)
    slice_samples = [(1.2, 2.0), (1.2, -2.0), (0.8, 1.5)]
    cases.append((lightcone, slice_immersion(2, 2.0), slice_samples))
    near = psi_f_desitter(2, 0.5, math.sqrt(3.0) - 1e-10, component="minus")
    cases.append((ConformalMapSpec("desitter_to_Sn"), near, [(1.2, 0.4), (1.8, -0.9)]))
    refusals = set()
    for spec, im, points in cases:
        good = []
        for x in map(np.array, points):
            try:
                chart_geometry(im, x)
            except (tm.DomainError, immersion.MetricSignatureError, PointRejected):
                continue
            good.append(x)
        geo = chart_geometry(im, np.array(good))
        deviation, spd, on_model = cf.pullback_columns(spec, geo)
        for b, x in enumerate(good):
            one = chart_geometry(im, x)
            want = outcome(pullback_alone, spec, one)
            assert cf.pullback_columns(spec, one)[2] == on_model[b]
            if on_model[b]:
                assert want == (float(deviation[b]).hex(), bool(spd[b]))
                assert outcome(cf.pullback_columns, spec, one) == want
            else:
                refusals.add(want[1].split()[1])
                assert want[0] is DegeneracyError
                assert np.isnan(deviation[b]) and not spd[b]
                assert math.isnan(cf.pullback_columns(spec, one)[0])
    assert refusals == {"denominator", "image"}


@pytest.mark.parametrize(
    "spec,im,samples", [c[1:3] + c[4:] for c in factor_cases()], ids=[c[0] for c in factor_cases()]
)
def test_factor_check_batch_matches_samples_alone(spec, im, samples):
    # the conformal suite's factor check, the pullback identity over the
    # samples as one batch and at each sample alone, is the one-point
    # oracle's to the bit
    deviation, spd, on_model = cf.pullback_columns(spec, chart_geometry(im, np.array(samples)))
    assert on_model.all()
    for b, x in enumerate(samples):
        want = outcome(pullback_alone, spec, chart_geometry(im, x))
        assert isinstance(want[0], str)
        assert (float(deviation[b]).hex(), bool(spd[b])) == want
        assert outcome(cf.pullback_columns, spec, chart_geometry(im, x)) == want


def test_desitter_r_sign_batch_matches_samples_alone():
    desitter = [sc for sc in appendix_scenes() if sc.cspec.variant == "desitter_to_Sn"]
    assert len(desitter) == 4
    for scene in desitter:
        for seed in range(4):
            samples = grid_samples(scene, seed, 8)
            assert outcome(cf.desitter_r_sign, scene.im, samples) == outcome(
                r_sign_loop, scene.im, samples
            )
    rng = np.random.default_rng(29)
    samples = sample_box(rng, sphere_box(2), 5)
    near = psi_f_desitter(2, 0.5, math.sqrt(3.0) - 1e-10, component="minus")
    outside = samples[:2] + [(-0.5, 0.2)] + samples[2:]  # off the sphere chart
    for im, pts in ((near, samples), (desitter_family(0.0, sphere_f), outside), (near, [])):
        want = outcome(r_sign_loop, im, pts)
        assert want[0] in (DegeneracyError, tm.ChartDomainError)
        assert outcome(cf.desitter_r_sign, im, pts) == want
