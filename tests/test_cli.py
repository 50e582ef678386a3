"""Command-line layer: configuration validation, grid runs, suite verdicts,
report emission, determinism, exit codes."""

import copy
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from nullgeom import cli, conformal, extrinsic, immersion, spacetime
from nullgeom.cli import (
    ConfigError,
    DEFAULT_TOLERANCES,
    EXIT_CONFIG_ERROR,
    EXIT_DEGENERATE,
    EXIT_PASS,
    EXIT_SUITE_FAILURE,
    emit_csv,
    emit_json,
    parse_scene,
    run,
)
from nullgeom.conformal import MAP_VARIANTS
from nullgeom.nullcone import CONE_RULES
from nullgeom.scenes import builtin_scenes

from _surfaces import evaluate_alone


def small(doc, count=4):
    """Shrink a scene's grid so validation tests stay fast."""
    doc = copy.deepcopy(doc)
    for axis in doc["grid"]:
        axis["count"] = count
    return doc


def slice_doc(count=4):
    return small(builtin_scenes()["mink-slice"], count)


OFF_CONE_DOC = {
    "name": "off-cone",
    "spacetime": {"kind": "minkowski", "n": 2},
    "nullcone": {"variant": "minkowski_cone"},
    "immersion": {"chart": ["1", "x0", "x1", "3"]},
    "grid": [
        {"min": -0.5, "max": 0.5, "count": 3},
        {"min": -0.5, "max": 0.5, "count": 3},
    ],
    "checks": ["frame"],
}


# -- configuration validation -------------------------------------------------


def break_grid_count(doc):
    doc["grid"][0]["count"] = 1


def break_grid_bounds(doc):
    doc["grid"][0]["min"] = doc["grid"][0]["max"]


def break_unknown_suite(doc):
    doc["checks"] = ["frame", "bogus"]


def break_unknown_key(doc):
    doc["physics"] = True


def break_unknown_tolerance(doc):
    doc["tolerances"] = {"framez": 1e-9}


def break_negative_tolerance(doc):
    doc["tolerances"] = {"frame": -1.0}


def break_missing_param(doc):
    doc["immersion"] = {"family": "psi_f_minkowski"}


def break_unknown_family(doc):
    doc["immersion"] = {"family": "moebius"}


def break_expression(doc):
    doc["immersion"] = {"family": "sphere_slice", "c": 2.0}
    doc["immersion"]["c"] = "__import__('os')"


def break_expect_field(doc):
    doc["expect"] = {"torsion": 0.0}


def break_expect_class(doc):
    doc["expect"] = {"trapped_class": "sideways_trapped"}


def break_seed(doc):
    doc["seed"] = -1


def break_nan_expect(doc):
    # json.loads reads NaN; a NaN pin would compare as a zero residual
    doc["expect"] = {"theta_xi": float("nan")}


def break_infinite_expect(doc):
    doc["expect"] = {"H_sq": float("-inf")}


def break_nan_tolerance(doc):
    doc["tolerances"] = {"frame": float("nan")}


def break_infinite_tolerance(doc):
    doc["tolerances"] = {"shape": float("inf")}


def with_warping(doc, warping):
    """Turn doc into the small grw-exp scene with the given warping."""
    doc.clear()
    doc.update(small(builtin_scenes()["grw-exp"]))
    doc["spacetime"]["warping"] = warping


def break_warping_expression(doc):
    # refused when the scene is parsed, not at the first grid point
    with_warping(doc, {"kind": "custom", "expr": "t+"})


def break_warping_param_overflow(doc):
    # a JSON integer beyond the float range
    with_warping(doc, {"kind": "polynomial", "params": [1.0, 10**400]})


def break_grid_overflow(doc):
    doc["grid"][0]["max"] = 10**400


@pytest.mark.parametrize(
    "mutate",
    [
        break_grid_count,
        break_grid_bounds,
        break_unknown_suite,
        break_unknown_key,
        break_unknown_tolerance,
        break_negative_tolerance,
        break_missing_param,
        break_unknown_family,
        break_expression,
        break_expect_field,
        break_expect_class,
        break_seed,
        break_nan_expect,
        break_infinite_expect,
        break_nan_tolerance,
        break_infinite_tolerance,
        break_warping_expression,
        break_warping_param_overflow,
        break_grid_overflow,
    ],
)
def test_config_errors(mutate):
    doc = slice_doc()
    mutate(doc)
    with pytest.raises(ConfigError):
        parse_scene(doc)


def malformed_doc(where, value):
    if where == "immersion.domain":
        doc = copy.deepcopy(OFF_CONE_DOC)
        doc["immersion"]["domain"] = value
    else:
        doc = small(builtin_scenes()["grw-exp"])
        doc["spacetime"]["warping"][where.rsplit(".", 1)[1]] = value
    return doc


@pytest.mark.parametrize(
    "where, value",
    [
        ("spacetime.warping.domain", 5),
        ("spacetime.warping.domain", [0, 1, 2]),
        ("spacetime.warping.domain", ["a", "b"]),
        ("spacetime.warping.params", 5),
        ("immersion.domain", [[0, 1], [2]]),
        ("immersion.domain", [["a", "b"], [0, 1]]),
        ("immersion.domain", [5, [0, 1]]),
    ],
)
def test_malformed_pairs_and_params_are_config_errors(where, value, tmp_path, capsys):
    doc = malformed_doc(where, value)
    with pytest.raises(ConfigError, match=where):
        parse_scene(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert "config error" in capsys.readouterr().err


def test_inapplicable_suite_rejected():
    doc = small(builtin_scenes()["ds-alpha0"])
    doc["checks"] = ["trapped"]
    with pytest.raises(ConfigError, match="not applicable"):
        parse_scene(doc)
    doc["checks"] = ["shape"]
    with pytest.raises(ConfigError, match="not applicable"):
        parse_scene(doc)


def test_family_cone_mismatch_rejected():
    doc = slice_doc()
    doc["nullcone"] = {"variant": "cylinder"}
    with pytest.raises(ConfigError):
        parse_scene(doc)


def test_chart_needs_all_components():
    doc = slice_doc()
    doc["immersion"] = {"chart": ["1", "x0", "x1"]}
    with pytest.raises(ConfigError, match="4 component"):
        parse_scene(doc)


HXR_DOC = {
    "name": "hxr",
    "spacetime": {"kind": "minkowski", "n": 2},
    "nullcone": {"variant": "cylinder"},
    "immersion": {"family": "hxr", "profile": "1 + 0.1*x0"},
    "grid": [{"min": -1.0, "max": 1.0, "count": 3}, {"min": -1.0, "max": 1.0, "count": 3}],
}


def test_checks_all_expands_to_applicable():
    # one case per nullcone variant, and the hxr family's own cylinder map:
    # (config, suites of "all", Gauss shift, split map)
    catalog = builtin_scenes()
    cases = [
        (catalog["grw-exp"], ("frame", "shape", "expansions"), None, None),
        (
            catalog["mink-slice"],
            ("frame", "shape", "expansions", "trapped", "conformal", "appendix"),
            0.0,
            "lightcone_to_Hn",
        ),
        (
            catalog["cyl-arctan"],
            ("frame", "shape", "expansions", "conformal", "appendix"),
            None,
            "cylinder_to_SxR",
        ),
        (
            HXR_DOC,
            ("frame", "shape", "expansions", "conformal", "appendix"),
            None,
            "cylinder_to_HxR",
        ),
        (
            catalog["ds-alpha0"],
            ("frame", "expansions", "conformal", "appendix"),
            2.0,
            "desitter_to_Sn",
        ),
    ]
    for doc, checks, gauss_shift, split in cases:
        scene = parse_scene(small(doc))
        assert scene.checks == checks, doc["name"]
        assert scene.gauss_shift == gauss_shift, doc["name"]
        assert (scene.cspec and scene.cspec.variant) == split, doc["name"]


def test_cone_rules_table():
    # the built-in scenes cover every nullcone variant, each split map exists,
    # and rows are unclassified exactly where the trapped rule does not apply
    catalog = builtin_scenes()
    variants = set()
    for name, doc in catalog.items():
        scene = parse_scene(doc)
        variants.add(scene.cone.variant)
        report = run(small(doc), checks=[])
        assert report["rows"], name
        for row in report["rows"]:
            unclassified = row["trapped_class"] == "unclassified"
            assert unclassified == (not scene.cone.rules.trapped), name
    assert variants == set(CONE_RULES)
    for rules in CONE_RULES.values():
        assert rules.split is None or rules.split in MAP_VARIANTS


# -- exit codes through main() --------------------------------------------------


def test_main_missing_config_file(capsys):
    assert cli.main(["check", "--config", "/nonexistent/x.json"]) == EXIT_CONFIG_ERROR
    assert "config error" in capsys.readouterr().err


def test_main_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["check", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert "cannot parse" in capsys.readouterr().err


def test_main_grid_count_one(tmp_path, capsys):
    doc = slice_doc()
    doc["grid"][0]["count"] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "--config", str(path)]) == EXIT_CONFIG_ERROR
    capsys.readouterr()


def test_main_unknown_scene(capsys):
    assert cli.main(["suite", "nope"]) == EXIT_CONFIG_ERROR
    capsys.readouterr()


def test_non_finite_tolerance_and_expect_exit_as_config_errors(tmp_path, capsys):
    assert cli.main(["suite", "mink-h2", "--tol", "frame=nan"]) == EXIT_CONFIG_ERROR
    assert "--tol.frame must be positive and finite" in capsys.readouterr().err
    doc = small(builtin_scenes()["mink-h2"])
    doc["expect"]["theta_xi"] = float("nan")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert "NaN" in path.read_text()
    assert cli.main(["check", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert "expect.theta_xi must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate", [break_warping_expression, break_warping_param_overflow, break_grid_overflow]
)
def test_bad_expression_and_huge_number_exit_as_config_errors(mutate, tmp_path, capsys):
    control = {}
    with_warping(control, {"kind": "custom", "expr": "exp(t)"})
    parse_scene(control)  # the same scene with a profile that compiles
    doc = slice_doc()
    mutate(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("config error: ")


def test_float_overflow_is_a_chart_singularity(tmp_path, capsys):
    # exp(800 x0) overflows a float for x0 > 0.9: at one point the primitive
    # raises its domain error, and the grid batch flags those columns only
    doc = {
        "name": "overflow",
        "spacetime": {"kind": "minkowski", "n": 2},
        "nullcone": {"variant": "minkowski_cone"},
        "immersion": {"family": "psi_f_minkowski", "f": "exp(800*x0)"},
        "grid": [{"min": -1.5, "max": 1.5, "count": 3}] * 2,
        "checks": ["frame"],
    }
    scene = parse_scene(doc)
    with pytest.raises(extrinsic.taylor.PrimitiveDomainError, match="'exp'"):
        extrinsic.point_report(scene.im, [1.0, 0.0])
    kind, payload, _ = evaluate_alone(scene, (1.5, 0.0))
    assert kind == "rejected" and payload["reason"] == "chart_singularity"
    report = run(doc)
    reasons = {tuple(r["point"]): r["reason"] for r in report["rejections"]}
    assert [tuple(r["point"]) for r in report["rows"]] == [(0.0, -1.5), (0.0, 0.0), (0.0, 1.5)]
    assert all(reasons[(1.5, y)] == "chart_singularity" for y in (-1.5, 0.0, 1.5))
    # the batch gives every point what evaluating it alone gives
    rows, diags, rejections = cli._evaluate_grid(scene)
    got_rows, got_rejections = iter(zip(rows, diags)), iter(rejections)
    for x in itertools.product(*scene.axes):
        kind, payload, diag = evaluate_alone(scene, x)
        if kind == "row":
            assert repr(next(got_rows)) == repr((payload, diag))
        else:
            got = next(got_rejections)
            assert (got["point"], got["reason"]) == (payload["point"], payload["reason"])
            assert str(got["detail"]) == str(payload["detail"])
    assert next(got_rows, None) is None and next(got_rejections, None) is None
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "--config", str(path), "--out", str(tmp_path / "r.json")]) in (
        EXIT_PASS, EXIT_SUITE_FAILURE
    )
    capsys.readouterr()
    # a constant that overflows to inf is math's domain error in sin, at
    # every point alike: every point is a chart singularity and the check
    # exits 3, with no traceback
    doc["immersion"]["f"] = "1 + 0.1*sin(1e308*10)"
    report = run(doc)
    assert report["rows"] == [] and report["exit_status"] == EXIT_DEGENERATE
    assert len(report["rejections"]) == 9
    for entry in report["rejections"]:
        assert entry["reason"] == "chart_singularity"
        assert entry["detail"] == (
            f"primitive 'sin' undefined at value inf (evaluation point {tuple(entry['point'])})"
        )
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "--config", str(path), "--out", str(tmp_path / "r.json")]) == (
        EXIT_DEGENERATE
    )
    assert "Traceback" not in capsys.readouterr().err


# the grid pass of these configurations overflows inside numpy, in the
# columns it then rejects, which the package's RuntimeWarning filter would
# turn into errors
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_rows_are_chart_singularities():
    # f = 1 + 1e-200 sin(1e200 x0) has jets beyond the float range: the
    # row fields come out NaN, and with 1e-150 the jets are finite but the
    # intrinsic curvature is not; each point is rejected, naming the field
    for scale, field in (("200", "laplacian_u"), ("150", "scal_intrinsic")):
        doc = dict(OFF_CONE_DOC, checks=["frame"], immersion={
            "family": "psi_f_minkowski", "f": f"1 + 1e-{scale}*sin(1e{scale}*x0)",
        })
        report = run(doc)
        assert report["rows"] == [] and report["exit_status"] == EXIT_DEGENERATE
        assert len(report["rejections"]) == 9
        for entry in report["rejections"]:
            assert entry["reason"] == "chart_singularity"
            assert entry["detail"] == (
                f"{field} = nan is not finite at {tuple(entry['point'])}"
            )
        scene = parse_scene(doc)
        with pytest.raises(extrinsic.taylor.ChartDomainError, match=f"^{field} = nan"):
            extrinsic.point_report(scene.im, [0.5, 0.5])


def test_tolerance_override_forces_failure(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(slice_doc()))
    rc = cli.main(
        ["check", "--config", str(path), "--tol", "frame=1e-18", "--out",
         str(tmp_path / "r.json")]
    )
    assert rc == EXIT_SUITE_FAILURE
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["suites"]["frame"]["passed"] is False
    assert report["exit_status"] == EXIT_SUITE_FAILURE
    capsys.readouterr()


def test_all_points_rejected_is_degenerate():
    report = run(OFF_CONE_DOC)
    assert report["exit_status"] == EXIT_DEGENERATE
    assert report["rows"] == []
    assert len(report["rejections"]) == 9
    assert all(r["reason"] == "off_cone" for r in report["rejections"])
    assert "unevaluable" in report["suites"]["frame"]


@pytest.mark.parametrize("seed", range(4))
def test_appendix_samples_evaluated_rows_only(seed):
    # f < 0 on part of the box: those grid points are off-cone rejections,
    # and the appendix samples only the evaluated rows
    doc = builtin_scenes()["mink-bowl"]
    doc["immersion"]["f"] = "0.6 + 0.5*x0"
    doc["grid"] = [{"min": -2.0, "max": 2.0, "count": 20}] * 2
    report = run(doc, seed=seed, checks=["appendix"])
    assert len(report["rows"]) == 320
    assert len(report["rejections"]) == 80
    assert all(r["reason"] == "off_cone" for r in report["rejections"])
    assert report["suites"]["appendix"]["passed"]
    assert report["suites"]["appendix"]["points"] == 5
    assert report["exit_status"] == EXIT_PASS


def test_untyped_value_error_escapes_run(monkeypatch):
    # only typed domain errors become rejections; anything else is a bug
    def broken(self, eps):
        raise ValueError("not a domain error")

    monkeypatch.setattr(cli.ExtrinsicPoint, "report", broken)
    with pytest.raises(ValueError, match="not a domain error"):
        run(slice_doc(), checks=["frame"])


def test_singular_metric_and_warping_domain_are_chart_singularities():
    # the polar axis x0 = 0 of the sphere chart has a singular induced metric
    doc = slice_doc(3)
    doc["grid"][0] = {"min": 0.0, "max": 1.0, "count": 3}
    report = run(doc, checks=["frame"])
    assert [r["point"][0] for r in report["rejections"]] == [0.0] * 3
    for entry in report["rejections"]:
        assert entry["reason"] == "chart_singularity"
        assert "singular" in entry["detail"]
        # the point reads as plain floats, not as "np.float64(0.0)"
        assert str(tuple(entry["point"])) in entry["detail"]
        assert "np." not in entry["detail"]
    # the height 1.2 + 0.1 cos(x0) leaves the warping domain where cos(x0) > 0.5
    doc = small(builtin_scenes()["grw-cosh"], 3)
    doc["spacetime"]["warping"]["domain"] = [-2.0, 1.25]
    report = run(doc, checks=["frame"])
    assert report["rows"] and report["rejections"]
    for entry in report["rejections"]:
        assert entry["reason"] == "chart_singularity"
        assert "warping domain" in entry["detail"]


def test_exactness_quadrature_error_is_unevaluable(monkeypatch):
    # a loop integral whose own error estimate is too large is no evidence
    # conformal integrates through its binding of the entry point
    assert conformal.quad is spacetime.quadrature
    real_quad = spacetime.quadrature

    def sloppy(func, a, b, **kwargs):
        return real_quad(func, a, b, **kwargs)[0], 1e-6

    monkeypatch.setattr(conformal, "quad", sloppy)
    report = run(small(builtin_scenes()["cyl-arctan"]), checks=["conformal"])
    assert "quadrature error" in report["suites"]["conformal"]["unevaluable"]
    assert report["exit_status"] == EXIT_DEGENERATE


_COLD_START = """
import json, sys
from nullgeom import cli, extrinsic, scenes

docs = scenes.builtin_scenes()
for doc in docs.values():
    cli.parse_scene(doc)
cli.emit_json(cli.run(docs["mink-h2"]))
before = "scipy" in sys.modules
report = cli.run(docs["cyl-arctan"])
cli.emit_json(report)
print(json.dumps({
    "before": before,
    "after": "scipy" in sys.modules,
    "status": report["exit_status"],
    "passed": [suite["passed"] for suite in report["suites"].values()],
}))
"""


def test_scipy_is_imported_only_by_a_quadrature():
    # a fresh interpreter: the test session itself has scipy loaded already
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert not seen["before"], "scipy loaded without any quadrature"
    # cyl-arctan's primitive and exactness loop integrate
    assert seen["after"]
    assert seen["status"] == EXIT_PASS
    assert seen["passed"] and all(seen["passed"])


def test_conformal_suite_drops_samples_off_the_model_space():
    # mink-slice's lightcone split divides by the last coordinate, which is
    # negative for x1 < 0: there the image lands on the lower hyperboloid
    # sheet, and the sample is dropped
    doc = builtin_scenes()["mink-slice"]
    doc["grid"][1] = {"min": -1.0, "max": 1.0, "count": 12}
    report = run(doc)
    assert report["suites"]["conformal"]["passed"]
    assert report["suites"]["conformal"]["points"] == 18  # of the first 40 rows
    assert report["exit_status"] == EXIT_PASS
    doc["grid"][1] = {"min": -2.7, "max": -0.45, "count": 12}
    report = run(doc)
    assert (
        report["suites"]["conformal"]["unevaluable"]
        == "the split map is degenerate at every sampled point"
    )
    assert report["exit_status"] == EXIT_DEGENERATE


def test_grid_geometries_are_not_rebuilt(monkeypatch):
    # one chart geometry per grid point and one per appendix sample: the
    # conformal suite reads the pullback identity the grid pass evaluated.
    # A call builds the geometries of one point or of a batch of points;
    # each point counts
    real = immersion.chart_geometry
    calls = []

    def counted(*args, **kwargs):
        calls.extend(np.atleast_2d(args[1]))
        return real(*args, **kwargs)

    for module in (immersion, extrinsic, conformal):
        monkeypatch.setattr(module, "chart_geometry", counted)
    report = run(builtin_scenes()["mink-h2"])
    assert len(report["rows"]) == 400
    assert report["suites"]["appendix"]["points"] == 5
    assert report["suites"]["conformal"]["points"] == 40
    assert len(calls) == 405


def edge_scenes():
    """Built-in scenes changed so that their boxes reach rejection sites
    that no built-in grid reaches: a primitive's domain (sqrt and log of a
    coordinate), a warping domain, a de Sitter component range, and a
    constant that overflows to inf, which fails every point alike."""
    catalog = builtin_scenes()

    def changed(name, section, **entries):
        doc = copy.deepcopy(catalog[name])
        doc[section].update(entries)
        return doc

    return {
        "primitive-domain": changed(
            "mink-bowl", "immersion", f="1 + 0.3*sqrt(x0) + 0.1*log(x1 + 1)"
        ),
        "warping-domain": changed(
            "grw-exp", "spacetime", warping={"kind": "exp", "domain": [-1.0, 1.15]}
        ),
        "component-range": changed("ds-alpha05-minus", "immersion", f="1.5 + 0.3*cos(x1)"),
        "overflow-to-inf": changed("mink-h2", "immersion", f="1 + 0.1*sin(1e308*10)"),
    }


@settings(deadline=None, max_examples=40)
@given(hs.data())
def test_batched_grid_matches_points_alone(data):
    # a grid of 1-70 points drawn from the box of a built-in scene or of an
    # edge scene, its polar row x0 = 0 sometimes included, in chunks of
    # 1-16 points so that a grid spans several chunks and a rejected row
    # can straddle a chunk boundary: the chunked batch pass must give every
    # point exactly what evaluating it alone gives, rejections and their
    # typed errors' details included
    chunk = data.draw(hs.integers(1, 16))
    catalog = {**builtin_scenes(), **edge_scenes()}
    name = data.draw(hs.sampled_from(sorted(catalog)))
    scene = parse_scene(catalog[name])
    (lo0, hi0), (lo1, hi1) = [(float(ax[0]), float(ax[-1])) for ax in scene.axes]
    n0, n1 = data.draw(hs.integers(1, 7)), data.draw(hs.integers(1, 10))
    first = data.draw(hs.lists(hs.floats(lo0, hi0), min_size=n0, max_size=n0))
    if data.draw(hs.booleans()):
        first[data.draw(hs.integers(0, n0 - 1))] = 0.0
    second = data.draw(hs.lists(hs.floats(lo1, hi1), min_size=n1, max_size=n1))
    scene.axes = [np.array(first), np.array(second)]
    with mock.patch.object(cli, "GRID_CHUNK", chunk):
        rows, diags, rejections = cli._evaluate_grid(scene)
    got_rows, got_rejections = iter(zip(rows, diags)), iter(rejections)
    for x in itertools.product(*scene.axes):
        kind, payload, diag = evaluate_alone(scene, x)
        if kind == "row":
            row, got = next(got_rows)
            assert repr(row) == repr(payload)
            # the per-row diag, the conformal pullback (deviation, spd) included
            assert ("conformal" in got) == ("conformal" in scene.checks)
            assert repr(got) == repr(diag)
        else:
            got = next(got_rejections)
            assert got["point"] == payload["point"]
            assert got["reason"] == payload["reason"]
            assert str(got["detail"]) == str(payload["detail"])
    assert next(got_rows, None) is None and next(got_rejections, None) is None


def test_builtin_scenes_evaluate_their_grid_as_one_batch(monkeypatch):
    # no built-in grid has a rejected point or outgrows GRID_CHUNK, so each
    # scene's grid pass is one batch of all its points
    batches = []
    real = cli._evaluate

    def counted(scene, x):
        batches.append(len(x))
        return real(scene, x)

    monkeypatch.setattr(cli, "_evaluate", counted)
    for name, doc in sorted(builtin_scenes().items()):
        batches.clear()
        report = run(doc)
        assert report["rejections"] == [], name
        assert batches == [len(report["rows"])], name


def test_no_grid_point_is_evaluated_twice(monkeypatch):
    # the mink-slice grid regridded 20 x 20 with its polar axis from 0: the
    # batch rejects the 20 points of the polar row, each with its own typed
    # error, and the 380 others are evaluated again as one batch; no point
    # is evaluated alone
    doc = builtin_scenes()["mink-slice"]
    doc["grid"] = [dict(doc["grid"][0], min=0.0, count=20), dict(doc["grid"][1], count=20)]
    batches = []
    real = cli._evaluate

    def counted(scene, x):
        batches.append(np.shape(x))
        return real(scene, x)

    monkeypatch.setattr(cli, "_evaluate", counted)
    report = run(doc)
    assert batches == [(400, 2), (380, 2)]
    assert len(report["rows"]) == 380 and len(report["rejections"]) == 20
    assert {entry["point"][0] for entry in report["rejections"]} == {0.0}


def test_scene_wide_failures_are_rejected_point_by_point():
    # a failure that no single point owns (a constant chart component off a
    # primitive's domain, a constant profile off its range) fails the whole
    # batch alike; each point is rejected for itself, with its own point
    doc = dict(OFF_CONE_DOC, immersion={"chart": ["sqrt(-1)", "x0", "x1", "3"]})
    report = run(doc)
    assert report["rows"] == [] and len(report["rejections"]) == 9
    for entry in report["rejections"]:
        assert entry["reason"] == "chart_singularity"
        assert entry["detail"].startswith("primitive 'sqrt' undefined at value -1.0")
        assert str(tuple(entry["point"])) in entry["detail"]
    doc = builtin_scenes()["ds-alpha05-minus"]
    doc["immersion"]["f"] = "3"
    report = run(small(doc, 3), checks=["frame"])
    assert report["rows"] == [] and len(report["rejections"]) == 9
    for entry in report["rejections"]:
        assert entry["reason"] == "off_cone"
        assert entry["detail"] == "f = 3 outside the admissible range (0, 1.73205)"


# -- scene behavior ---------------------------------------------------------------


def test_h2_scene_passes_everywhere():
    report = run(builtin_scenes()["mink-h2"])
    assert report["exit_status"] == EXIT_PASS
    assert len(report["rows"]) == 400
    assert report["rejections"] == []
    for row in report["rows"]:
        assert abs(row["theta_xi"] - 1.0) < 1e-10
        assert row["trapped_class"] == "past_trapped"
    assert all(v["passed"] for v in report["suites"].values())


def test_desitter_half_minus_conformal_factor():
    doc = builtin_scenes()["ds-alpha05-minus"]
    report = run(doc)
    assert report["exit_status"] == EXIT_PASS
    assert report["suites"]["conformal"]["passed"]
    assert report["suites"]["conformal"]["residuals"]["factor"] < 1e-8
    scene = parse_scene(doc)
    x = np.asarray(report["rows"][0]["point"])
    lam = conformal.factor_field(scene.cspec, scene.im)(list(x))
    expected = math.sqrt(3.0) / 2.0 - 0.5 * math.sqrt(3.0) / 2.0
    assert abs(lam - expected) < 1e-12


def test_rejections_carry_one_reason_each():
    doc = slice_doc(6)
    doc["grid"][0] = {"min": -0.5, "max": 2.6, "count": 6}  # crosses the chart edge
    report = run(doc, checks=["frame"])
    assert len(report["rows"]) + len(report["rejections"]) == 36
    assert report["rejections"], "the widened grid must clip the chart domain"
    for entry in report["rejections"]:
        assert entry["reason"] == "chart_singularity"
        assert isinstance(entry["detail"], str)
    assert report["exit_status"] == EXIT_PASS


def test_classify_rows_only(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(slice_doc()))
    out = tmp_path / "rows.json"
    rc = cli.main(["classify", "--config", str(path), "--out", str(out)])
    assert rc == EXIT_PASS
    report = json.loads(out.read_text())
    assert report["suites"] == {}
    assert report["config"]["checks"] == []
    assert len(report["rows"]) == 16
    assert all(r["trapped_class"] == "untrapped" for r in report["rows"])
    capsys.readouterr()


def test_classify_empty_grid_is_degenerate(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(OFF_CONE_DOC))
    rc = cli.main(["classify", "--config", str(path), "--out", str(tmp_path / "o.json")])
    assert rc == EXIT_DEGENERATE
    capsys.readouterr()


def test_grw_scene_passes_without_gauss_gate():
    report = run(small(builtin_scenes()["grw-exp"], 5))
    assert report["exit_status"] == EXIT_PASS
    assert "gauss" not in report["suites"]["expansions"]["residuals"]
    assert report["suites"]["shape"]["residuals"]["branches"] == 3.0


def test_desitter_gauss_shift_is_exact():
    report = run(small(builtin_scenes()["ds-alpha1"], 5))
    assert report["exit_status"] == EXIT_PASS
    assert report["suites"]["expansions"]["residuals"]["gauss"] < 1e-10
    row = report["rows"][0]
    assert abs(row["scal_intrinsic"] - row["scal_formula"] - 2.0) < 1e-10


# -- emission ---------------------------------------------------------------------


def test_csv_header_only_when_no_rows():
    report = run(OFF_CONE_DOC)
    text = emit_csv(report)
    lines = text.splitlines()
    assert len(lines) == 1
    assert lines[0] == (
        "x0,x1,u,grad_u_sq,laplacian_u,theta_xi,theta_eta,H_sq,"
        "scal_formula,scal_intrinsic,trapped_class"
    )


def test_csv_fixed_columns_and_precision():
    report = run(slice_doc(), checks=["frame"])
    text = emit_csv(report)
    lines = text.splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["x0", "x1"]
    assert header[-1] == "trapped_class"
    row = report["rows"][0]
    cells = lines[1].split(",")
    assert float(cells[2]) == row["u"]
    assert float(cells[-2]) == row["scal_intrinsic"]
    assert cells[-1] == row["trapped_class"]


def test_json_round_trip_three_rows():
    report = run(slice_doc(), checks=["frame"])
    report["rows"] = report["rows"][:3]
    again = json.loads(emit_json(report))
    assert again == report


def test_json_handles_infinity():
    assert json.loads(emit_json({"residual": math.inf})) == {"residual": math.inf}


def _oracle_float(value):
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return format(float(value), ".17g")


def _oracle_value(obj, indent, out):
    """The emitter as a plain isinstance chain, kept as the byte oracle."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append("  " * (indent + 1))
            out.append(json.dumps(str(key)))
            out.append(": ")
            _oracle_value(value, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append("  " * (indent + 1))
            _oracle_value(value, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_oracle_float(float(obj)))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot emit {type(obj).__name__} into a report")


def _oracle_json(report):
    out = []
    _oracle_value(report, 0, out)
    out.append("\n")
    return "".join(out)


class _Label(str):
    pass


def test_emit_json_matches_isinstance_chain():
    for name, doc in builtin_scenes().items():
        report = run(doc)
        assert emit_json(report) == _oracle_json(report), name
    mixed = {
        "f64": np.float64(0.1),
        "f32": np.float32(1.5),
        "bools": [True, False, np.bool_(True), np.bool_(False)],
        "ints": (0, -3, np.int64(7), np.int32(-2)),
        "specials": [math.nan, math.inf, -math.inf, np.float64(math.nan), -0.0],
        "empty": [{}, [], ()],
        "label": _Label("café \"quoted\"\n"),
        7: None,
        "nested": {"a": {"b": {"c": (1.0, [2.5e-300, {"d": ()}])}}},
    }
    assert emit_json(mixed) == _oracle_json(mixed)
    with pytest.raises(TypeError, match="cannot emit set"):
        emit_json({"bad": {1.0}})


def test_report_echo_carries_resolved_config():
    report = run(slice_doc(), seed=7)
    echo = report["config"]
    assert echo["seed"] == 7
    assert echo["checks"][0] == "frame"
    assert echo["tolerances"] == DEFAULT_TOLERANCES
    assert echo["expect"]["trapped_class"] == "untrapped"


# -- determinism -------------------------------------------------------------------


def test_golden_byte_equality(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(slice_doc(6)))
    outs = []
    for name in ("a.json", "b.json"):
        rc = cli.main(["check", "--config", str(path), "--out", str(tmp_path / name)])
        assert rc == EXIT_PASS
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]
    for name in ("a.csv", "b.csv"):
        rc = cli.main(
            ["check", "--config", str(path), "--format", "csv", "--out",
             str(tmp_path / name)]
        )
        assert rc == EXIT_PASS
        outs.append((tmp_path / name).read_bytes())
    assert outs[2] == outs[3]
    capsys.readouterr()


def test_seed_controls_appendix_sampling():
    doc = small(builtin_scenes()["mink-bowl"], 5)
    doc["checks"] = ["appendix"]
    one = emit_json(run(doc, seed=11))
    two = emit_json(run(doc, seed=11))
    assert one == two


def test_suite_subcommand_writes_reports(tmp_path, capsys):
    rc = cli.main(
        ["suite", "mink-marginal", "--out", str(tmp_path), "--format", "csv"]
    )
    assert rc == EXIT_PASS
    text = (tmp_path / "mink-marginal.csv").read_text()
    assert text.startswith("x0,x1,u,")
    assert "past_marginally_trapped" in text
    assert "PASS" in capsys.readouterr().out


def test_config_output_block_honored(tmp_path, capsys):
    doc = slice_doc()
    doc["checks"] = ["frame"]
    out = tmp_path / "via_config.csv"
    doc["output"] = {"path": str(out), "format": "csv"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "--config", str(path)]) == EXIT_PASS
    assert out.read_text().startswith("x0,")
    capsys.readouterr()
