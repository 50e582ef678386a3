"""Whole-engine gates, each at its contracted tolerance: frame identities,
closed-form shape operators, expansion constants, the curvature identity,
trapped classification, conformal splits, the appendix curvature lemma, the
differentiation oracle, and CLI determinism."""

import math
import time

import numpy as np
import pytest

from _composites import (
    REL_TOL,
    jet_fd_max_rel_error,
    random_composite,
    random_point,
)
from _surfaces import (
    marginal_height_profile,
    geometry_alone,
    point_alone,
    pullback_alone,
    random_metric_chart,
    random_positive_field,
    sample_box,
    scaled_metric_chart,
    sphere_box,
)
from nullgeom import spacetime as st
from nullgeom import taylor as tm
from nullgeom.cli import EXIT_PASS, emit_json, run
from nullgeom.conformal import (
    ConformalMapSpec,
    conformal_curvature_check,
    conformal_map,
    factorization_check,
    sectional_curvatures,
)
from nullgeom.immersion import MetricChart
from nullgeom.scenes import (
    builtin_scenes,
    cylinder_immersion,
    grw_graph,
    hxr_immersion,
    psi_f_desitter,
    psi_f_minkowski,
    slice_immersion,
)

BOX2 = ((-1.2, 1.2), (-1.2, 1.2))

FRAME_SCENES = (
    "mink-h2",
    "mink-bowl",
    "mink-marginal",
    "grw-exp",
    "grw-cosh",
    "cyl-arctan",
    "ds-alpha0",
    "ds-alpha05-minus",
    "ds-alpha1",
)

MINKOWSKI_SCENES = ("mink-h2", "mink-bowl", "mink-marginal", "mink-slice")


def bowl(ys):
    return 1.0 + 0.3 * ys[0] ** 2


def product_model(fiber):
    return st.AmbientModel(
        "product", 2, warping=st.WarpingFunction("constant", params=(1.0,)), fiber=fiber
    )


# 1. Frame identities hold at every sampled point of every cone family.


def test_frame_residuals_under_budget():
    catalog = builtin_scenes()
    start = time.monotonic()
    for name in FRAME_SCENES:
        report = run(catalog[name], checks=["frame"])
        assert len(report["rows"]) >= 100, name
        assert report["suites"]["frame"]["residuals"]["frame"] < 1e-9, name
        assert report["suites"]["frame"]["passed"], name
    assert time.monotonic() - start < 10.0


# 2. Minkowski-cone constants: unit xi-expansion, identity Weingarten map.


def test_minkowski_xi_is_identity_everywhere():
    rng = np.random.default_rng(5)
    cases = [
        (psi_f_minkowski(2), BOX2),
        (psi_f_minkowski(2, bowl), BOX2),
        (psi_f_minkowski(2, marginal_height_profile), BOX2),
        (slice_immersion(2, 2.0), sphere_box(2)),
    ]
    eye = np.eye(2)
    for im, box in cases:
        for x in sample_box(rng, box, 30):
            pt = point_alone(im, x)
            assert abs(pt.theta_xi - 1.0) < 1e-10
            assert np.linalg.norm(pt.shape_numeric("xi") - eye) < 1e-8


# 3. Closed-form shape operators match the numeric Weingarten maps on all
#    four dispatch branches.


def test_shape_operator_branches_under_budget():
    rng = np.random.default_rng(11)
    exp_model = st.AmbientModel("grw_euclidean", 2, warping=st.WarpingFunction("exp"))
    cosh_model = st.AmbientModel("grw_euclidean", 2, warping=st.WarpingFunction("cosh"))
    height = lambda cs: 1.1 + 0.1 * tm.sin(cs[0]) * tm.cos(cs[1])  # noqa: E731
    cases = [
        (psi_f_minkowski(2, bowl), BOX2, 50),
        (psi_f_minkowski(2), BOX2, 50),
        (grw_graph(exp_model, height), sphere_box(2), 50),
        (grw_graph(cosh_model, height), sphere_box(2), 50),
        (grw_graph(product_model("euclidean"), height), sphere_box(2), 35),
        (grw_graph(product_model("sphere"), height), sphere_box(2), 35),
        (grw_graph(product_model("hyperbolic"), height), sphere_box(2), 35),
        (cylinder_immersion(2, lambda t: t * t + 1.0), ((-1.2, 1.4), (0.5, 2.6)), 30),
    ]
    selector_of = {
        "minkowski": ("minkowski_xi", "minkowski_eta"),
        "warped": ("warped_xi", "warped_eta"),
        "product": ("product_xi", "product_eta"),
        "time_orthogonal": ("time_orthogonal",),
    }
    counts = dict.fromkeys(selector_of, 0)
    start = time.monotonic()
    for im, box, n_pts in cases:
        probe = point_alone(im, np.array([(lo + hi) / 2 for lo, hi in box]))
        branches = []
        for branch, names in selector_of.items():
            try:
                probe.shape_closed_chart(names[0])
            except ValueError:
                continue
            branches.append(branch)
        assert branches, "every case must exercise at least one branch"
        for x in sample_box(rng, box, n_pts):
            pt = point_alone(im, x)
            numeric = {}
            for branch in branches:
                for which in selector_of[branch]:
                    base = (
                        "time_orthogonal"
                        if which == "time_orthogonal"
                        else ("xi" if which.endswith("_xi") else "eta")
                    )
                    if base not in numeric:
                        numeric[base] = pt.shape_numeric(base)
                    diff = pt.shape_closed(which) - numeric[base]
                    assert np.linalg.norm(diff) < 1e-6, (branch, which)
                counts[branch] += 1
    assert all(v >= 100 for v in counts.values()), counts
    assert time.monotonic() - start < 30.0


# 4. Intrinsic scalar curvature is pinned to the mean curvature on the cone.


def test_curvature_identity_on_minkowski_cone():
    catalog = builtin_scenes()
    for name in MINKOWSKI_SCENES:
        report = run(catalog[name], checks=[])
        assert report["rows"]
        for row in report["rows"]:
            assert abs(row["scal_intrinsic"] - row["scal_formula"]) < 1e-5, name


def test_hyperbolic_plane_constants():
    report = run(builtin_scenes()["mink-h2"], checks=[])
    for row in report["rows"]:
        assert abs(row["scal_intrinsic"] + 2.0) < 1e-5
        assert abs(row["theta_eta"] - 0.5) < 1e-6


# 5. Trapped classification, and its agreement with the curvature sign.


def test_trapped_classes_by_construction():
    catalog = builtin_scenes()
    expected = {
        "mink-h2": "past_trapped",
        "mink-slice": "untrapped",
        "mink-marginal": "past_marginally_trapped",
    }
    for name, cls in expected.items():
        report = run(catalog[name], checks=[])
        assert report["rows"]
        assert all(r["trapped_class"] == cls for r in report["rows"]), name


def test_hyperboloid_slices_trapped_in_higher_dimension():
    rng = np.random.default_rng(23)
    im = psi_f_minkowski(3)
    for x in sample_box(rng, ((-1.0, 1.0),) * 3, 15):
        assert point_alone(im, x).trapped_class() == "past_trapped"


def test_classification_agrees_with_curvature_sign():
    catalog = builtin_scenes()
    for name in MINKOWSKI_SCENES:
        report = run(catalog[name], checks=["trapped"])
        suite = report["suites"]["trapped"]
        assert suite["residuals"]["sign_mismatch_fraction"] == 0.0, name
        assert suite["passed"], name


# 6. Conformal split maps carry the advertised factors on every variant.


def test_conformal_factor_deviations_all_variants():
    catalog = builtin_scenes()
    for name in (
        "mink-h2",
        "mink-bowl",
        "cyl-arctan",
        "ds-alpha0",
        "ds-alpha05-minus",
        "ds-alpha05-plus",
        "ds-alpha1",
    ):
        report = run(catalog[name], checks=["conformal"])
        assert report["suites"]["conformal"]["residuals"]["factor"] < 1e-8, name
        assert report["suites"]["conformal"]["passed"], name
    rng = np.random.default_rng(31)
    im = hxr_immersion(lambda s: 1.0 + 0.3 * s * s)
    spec = ConformalMapSpec("cylinder_to_HxR", base_point=(0.2, -0.4))
    samples = sample_box(rng, ((-0.8, 0.8), (-0.9, 0.9)), 12)
    for x in samples:
        assert pullback_alone(spec, geometry_alone(im, x))[0] < 1e-8


def test_cylinder_primitive_matches_arctan():
    im = cylinder_immersion(2, lambda t: t * t + 1.0)
    base = (0.1, 1.55)
    spec = ConformalMapSpec("cylinder_to_SxR", base_point=base)
    rng = np.random.default_rng(37)
    for x in sample_box(rng, ((-1.1, 1.3), (0.6, 2.5)), 8):
        g = conformal_map(spec, im, x)[-1]
        assert abs(g - (math.atan(x[0]) - math.atan(base[0]))) < 1e-9


def test_desitter_zero_metric_is_round():
    im = psi_f_desitter(2, 0.0, lambda qs: 1.0 + 0.3 * tm.cos(qs[0]) ** 2)
    spec = ConformalMapSpec("desitter_to_Sn")
    rng = np.random.default_rng(41)
    samples = sample_box(rng, sphere_box(2), 12)
    for x in samples:
        geo = geometry_alone(im, x)
        round_metric = np.diag([1.0, math.sin(x[0]) ** 2])
        assert np.max(np.abs(geo.g0 - round_metric)) < 1e-10
    for x in samples:
        assert pullback_alone(spec, geometry_alone(im, x), lambda x: 1.0)[0] < 1e-10


# 7. The graph factorization inverts in ambient coordinates.


def test_factorization_round_trips():
    rng = np.random.default_rng(43)
    beta = math.sqrt(3.0) / 2.0
    cases = [
        (
            psi_f_minkowski(2, bowl),
            ConformalMapSpec("lightcone_to_Hn"),
            BOX2,
        ),
        (
            psi_f_desitter(2, 0.5, lambda qs: beta * (1.0 - 0.1 * tm.cos(qs[0])), "minus"),
            ConformalMapSpec("desitter_to_Sn"),
            sphere_box(2),
        ),
        (
            psi_f_desitter(2, 0.5, lambda qs: 2.0 + 0.1 * tm.sin(qs[0]), "plus"),
            ConformalMapSpec("desitter_to_Sn"),
            sphere_box(2),
        ),
    ]
    for im, spec, box in cases:
        samples = sample_box(rng, box, 6)
        assert factorization_check(im, spec, samples) < 1e-7


# 8. Conformal curvature identities, stereographic anchor and random fields.


def test_stereographic_sphere_curvature():
    flat = MetricChart(metric=lambda xs: [[1.0, 0.0], [0.0, 1.0]], dim=2)

    def lam(xs):
        return 2.0 / (1.0 + tm.norm_sq(xs))

    scaled = scaled_metric_chart(flat, lam)
    rng = np.random.default_rng(47)
    for x in sample_box(rng, BOX2, 6):
        (ks,) = sectional_curvatures(geometry_alone(scaled, x))
        assert abs(ks[0, 1] - 1.0) < 1e-6
        assert abs(ks[1, 0] - 1.0) < 1e-6


def test_random_conformal_identities_fifty_trials():
    rng = np.random.default_rng(53)
    for trial in range(50):
        n = 2 + trial % 2
        chart = random_metric_chart(rng, n)
        lam = random_positive_field(rng, n)
        samples = sample_box(rng, ((-0.8, 0.8),) * n, 2)
        residuals = conformal_curvature_check(chart, lam, samples)
        assert max(residuals.values()) < 1e-5, (trial, residuals)


# 9. The jet engine agrees with the finite-difference oracle on random
#    composites at every supported order.


@pytest.mark.parametrize("deg", [1, 2, 3])
def test_jet_oracle_hundred_composites(deg):
    rng = np.random.default_rng(59 + deg)
    for _ in range(100):
        fn = random_composite(rng, 2)
        x = random_point(rng, 2)
        assert jet_fd_max_rel_error(fn, x, deg) < REL_TOL[deg]


# 10. The CLI is deterministic and the whole built-in suite is fast.


def test_cli_golden_bytes_every_scene_under_budget():
    start = time.monotonic()
    for name, doc in builtin_scenes().items():
        first = run(doc)
        assert first["exit_status"] == EXIT_PASS, name
        second = run(doc)
        assert emit_json(first) == emit_json(second), name
    assert time.monotonic() - start < 60.0
