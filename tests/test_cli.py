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

from nullgeom import cli, conformal, extrinsic, immersion, spacetime, taylor
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
from nullgeom.scenes import FAMILIES, builtin_scenes

import _surfaces
from _surfaces import (
    emit_csv_reference,
    emit_json_reference,
    evaluate_alone,
    geometry_alone,
    row_diags,
    suite_samples,
)


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


def break_variable_exponent(doc):
    # a Series has no Series-valued exponent: refused when the scene is parsed
    doc.clear()
    doc.update(small(builtin_scenes()["mink-h2"]))
    doc["immersion"]["f"] = "1 + 0.1*x0**x1"


def break_warping_variable_exponent(doc):
    with_warping(doc, {"kind": "custom", "expr": "t**t"})


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


def untyped_doc(where):
    """A small configuration whose value at `where` has the wrong type, one
    that a float(), str() or Path() of it would take."""
    if where == "immersion.name":
        doc = copy.deepcopy(OFF_CONE_DOC)
        doc["immersion"]["name"] = 3
        return doc
    doc = small(builtin_scenes()["grw-exp"])
    if where == "spacetime.t0":
        doc["spacetime"]["t0"] = "0.1"
    elif where == "output.path":
        doc["output"] = {"path": 3}
    else:
        with_warping(doc, {"kind": "constant", "params": [True]})
    return doc


@pytest.mark.parametrize(
    "where", ["spacetime.t0", "spacetime.warping.params", "immersion.name", "output.path"]
)
def test_untyped_config_values_exit_as_config_errors(where, tmp_path, capsys):
    # refused while the configuration is parsed, before any grid point is
    # evaluated: output.path was a TypeError traceback from the writer
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(untyped_doc(where)))
    assert cli.main(["check", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert f"config error: {where}" in capsys.readouterr().err


@pytest.mark.parametrize("warping", [
    {"kind": "exp", "params": [1.0, 2.0]},
    {"kind": "exp", "expr": "t"},
    {"kind": "cosh", "params": [1.0]},
    {"kind": "constant", "params": [1.0], "expr": "t"},
    {"kind": "polynomial", "params": [1.0, 0.5], "expr": "1 + t"},
    {"kind": "custom", "params": [2.0], "expr": "1 + 0.5*sin(t)"},
])
def test_warping_values_the_kind_does_not_read_are_config_errors(warping, tmp_path, capsys):
    # an unread params or expr ran with exit 0, echoed in the report's config
    doc = small(builtin_scenes()["grw-exp"])
    doc["spacetime"]["warping"] = warping
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert "config error: spacetime.warping: " in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "base, where, key",
    [
        ("mink-slice", (), "grids"),
        ("mink-slice", ("spacetime",), "dim"),
        ("grw-exp", ("spacetime", "warping"), "param"),
        ("ds-alpha05-minus", ("nullcone",), "components"),
        ("mink-slice", ("immersion",), "cc"),
        ("mink-h2", ("immersion",), "c"),  # a parameter the family does not take
        ("off-cone", ("immersion",), "domian"),
        ("mink-slice", ("grid", 1), "cnt"),
        ("mink-slice", ("output",), "fromat"),
    ],
)
def test_misspelled_key_is_config_error(base, where, key, tmp_path, capsys):
    doc = small({**builtin_scenes(), "off-cone": OFF_CONE_DOC}[base])
    doc["output"] = {"format": "json"}
    obj = doc
    for step in where:
        obj = obj[step]
    obj[key] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert f"unknown keys ['{key}']" in capsys.readouterr().err


def family_doc(name, value):
    """A small configuration of the table family `name`, its parameter set
    to `value`, on the model, cone and grid of a built-in scene on its cone."""
    family = FAMILIES[name]
    base = next(
        doc for doc in builtin_scenes().values()
        if doc["nullcone"]["variant"] == family.cone
        and doc["spacetime"]["kind"] in family.kinds
    )
    doc = small(base)
    doc["immersion"] = {"family": name, family.param: value}
    return doc


def test_every_table_family_parses():
    # each family with a number and with an expression, on its own cone and
    # split map; a constant expression builds what the number builds
    point = np.array([1.1, 0.7])
    for name, family in FAMILIES.items():
        number = parse_scene(family_doc(name, 1.5))
        assert number.im.target_cone == number.cone, name
        split = family.split or number.cone.rules.split
        assert (number.cspec and number.cspec.variant) == split, name
        if family.over == "number":
            with pytest.raises(ConfigError, match="must be a number"):
                parse_scene(family_doc(name, "1.5 + 0.1*x0"))
            continue
        parse_scene(family_doc(name, "1.5 + 0.1*x0"))
        constant = parse_scene(family_doc(name, "1.5"))
        assert constant.im.series(point[None], 1).val.tolist() == (
            number.im.series(point[None], 1).val.tolist()
        ), name


def test_family_on_another_cone_or_model_rejected():
    catalog = builtin_scenes()
    for name, family in FAMILIES.items():
        for other in catalog.values():
            if (other["nullcone"]["variant"] == family.cone
                    and other["spacetime"]["kind"] in family.kinds):
                continue
            doc = small(other)
            doc["immersion"] = {"family": name, family.param: 1.5}
            with pytest.raises(ConfigError, match="lands on"):
                parse_scene(doc)
    # the cylinder cone of a Minkowski model of another dimension or vertex time
    hxr = family_doc("hxr", 1.5)
    hxr["spacetime"]["n"] = 3
    warped = family_doc("cylinder_warped", 1.5)
    warped["spacetime"]["t0"] = 1.0
    for doc in (hxr, warped):
        with pytest.raises(ConfigError, match="different spacetime"):
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
    "mutate", [
        break_warping_expression, break_warping_param_overflow, break_grid_overflow,
        break_variable_exponent, break_warping_variable_exponent,
    ]
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
    grid = cli._evaluate_grid(scene)
    rows, diags, rejections = grid.rows, row_diags(grid), grid.rejections
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
    # a constant division by zero is numpy's inf, as x0/0 is, not Python's
    # ZeroDivisionError: f leaves the family's range (0, inf) at every point
    doc["immersion"]["f"] = "1 + 1/0"
    report = run(doc)
    assert report["rows"] == [] and report["exit_status"] == EXIT_DEGENERATE
    assert len(report["rejections"]) == 9
    for entry in report["rejections"]:
        assert entry["reason"] == "off_cone"
        assert entry["detail"] == "f = inf outside the admissible range (0, inf)"
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

    def sloppy(func, lo, hi):
        val, err = real_quad(func, lo, hi)
        return val, np.full_like(err, 1e-6)

    monkeypatch.setattr(conformal, "quad", sloppy)
    report = run(small(builtin_scenes()["cyl-arctan"]), checks=["conformal"])
    assert "quadrature error" in report["suites"]["conformal"]["unevaluable"]
    assert report["exit_status"] == EXIT_DEGENERATE


@pytest.mark.parametrize("f", ["x0", "x0**2", "1/x0"])
def test_exactness_loop_through_a_refused_region_is_unevaluable(f):
    # f <= 0 for x0 <= 0: those grid rows are rejected, and the exactness
    # rectangle, which crosses x0 = 0, leaves the family's range or the
    # split map's domain; that is no evidence either way, not a crash
    doc = small(builtin_scenes()["cyl-arctan"], 6)
    doc["immersion"]["f"] = f
    doc["grid"][0] = {"min": -1.0, "max": 1.0, "count": 6}
    report = run(doc)
    assert report["rows"]
    assert report["suites"]["conformal"]["unevaluable"]
    assert report["exit_status"] == EXIT_DEGENERATE


_COLD_START = """
import json, sys
import numpy as np
from nullgeom import cli, scenes, spacetime

docs = scenes.builtin_scenes()
for doc in docs.values():
    cli.parse_scene(doc)
cli.emit_json(cli.run(docs["mink-h2"]))
before = "numpy.polynomial" in sys.modules
statuses = {}
for name, doc in docs.items():
    report = cli.run(doc)
    cli.emit_json(report)
    statuses[name] = report["exit_status"]
profile = spacetime.WarpingFunction("polynomial", (1.0, 0.0, 1.0))
print(json.dumps({
    "before": before,
    "statuses": statuses,
    "arctan": profile.conformal_time(np.array([1.0]), 0.0).tolist(),
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def test_package_never_imports_scipy():
    # a fresh interpreter: the test session itself has scipy loaded already
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    # the Gauss nodes are built at the first integral, not on import
    assert not seen["before"], "numpy.polynomial loaded without any quadrature"
    assert len(seen["statuses"]) == 11
    assert set(seen["statuses"].values()) == {EXIT_PASS}
    # the integral of 1/(1 + t^2) over [0, 1]
    assert seen["arctan"] == pytest.approx([math.pi / 4], rel=1e-15)
    assert seen["scipy"] == []


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
    # one chart geometry per grid point: the conformal suite reads the
    # pullback identity the grid pass evaluated, and the appendix reads the
    # grid's geometry of its samples.  A call builds the geometries of one
    # point or of a batch of points; each point counts.  The dense grids
    # drop their refused polar rows from the geometry of their one chunk,
    # so no kept point's geometry is built again
    real = immersion.geometry_columns
    calls = []

    def counted(*args, **kwargs):
        calls.extend(np.atleast_2d(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(immersion, "geometry_columns", counted)
    report = run(builtin_scenes()["mink-h2"])
    assert len(report["rows"]) == 400
    assert report["suites"]["appendix"]["points"] == 5
    assert report["suites"]["conformal"]["points"] == 40
    assert len(calls) == 400
    for name, doc in sorted(dense_grid_configs().items()):
        calls.clear()
        report = run(doc)
        assert len(report["rows"]) == 380 and len(report["rejections"]) == 20, name
        assert len(calls) == 400, name


def test_psi_checks_gather_only_what_they_read(monkeypatch):
    # the factorization round trip and the de Sitter scale sign read the
    # immersion, x and psi of their samples, and the gather brings only
    # those; the appendix's gather brings every quantity the grid holds,
    # none of which is a list: psi is the one vector Series `position`
    held = {}
    for name in ("factorization_at", "scale_sign_at", "curvature_check_at"):
        def spy(*args, _real=getattr(conformal, name), _name=name):
            held[_name] = dict(vars(args[-1]))
            return _real(*args)

        monkeypatch.setattr(conformal, name, spy)
    report = run(builtin_scenes()["ds-alpha1"])
    assert report["exit_status"] == EXIT_PASS
    assert set(held["factorization_at"]) == set(held["scale_sign_at"]) == set(conformal.PSI_KEYS)
    assert {"g0", "g_inv0", "position", "christoffel_series"} <= set(held["curvature_check_at"])
    assert not any(isinstance(v, list) for geo in held.values() for v in geo.values())


def test_suites_make_no_per_matrix_lapack_calls(monkeypatch):
    # over the built-in catalog, the shape operators reach the frame by
    # matmuls and the local inverses take one stacked solve per round: no
    # lstsq, and no solve outside the local inverse's steps
    callers = []

    def recorded(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            callers.append((name, sys._getframe(1).f_code.co_name))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, call)

    recorded("lstsq")
    recorded("solve")
    for name, doc in sorted(builtin_scenes().items()):
        assert run(doc)["exit_status"] == EXIT_PASS, name
    assert callers and set(callers) == {("solve", "_steps")}


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
        grid = cli._evaluate_grid(scene)
    rows, diags, rejections = grid.rows, row_diags(grid), grid.rejections
    got_rows, got_rejections = iter(zip(rows, diags)), iter(rejections)
    for x in itertools.product(*scene.axes):
        kind, payload, diag = evaluate_alone(scene, x)
        if kind == "row":
            row, got = next(got_rows)
            assert repr(row) == repr(payload)
            # each row's diagnostics, the conformal pullback's included
            assert ("on_model" in got) == ("conformal" in scene.checks)
            assert repr(got) == repr(diag)
        else:
            got = next(got_rejections)
            assert got["point"] == payload["point"]
            assert got["reason"] == payload["reason"]
            assert str(got["detail"]) == str(payload["detail"])
    assert next(got_rows, None) is None and next(got_rejections, None) is None


DENSE_GRID = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "dense-grid.json"


def dense_grid_configs() -> dict:
    with DENSE_GRID.open() as fh:
        return {s["config"]["name"]: s["config"] for s in json.load(fh)["scenes"]}


@taylor.float_edges
def chunk_outcomes(scene, points) -> list:
    """Each point's (row, diag) or typed error where the grid pass takes
    the points as one chunk: its chart geometry, then the extrinsic stages
    on the columns it keeps, run again on the others where they refuse
    some."""
    geo, kept = immersion.geometry_columns(scene.im, points)
    batch = kept.run(lambda g: cli._evaluate(scene, g), geo, immersion.ChartGeometry.columns)
    out = dict(kept.errors)
    if batch is not None:
        rows, diag, _ = batch
        for i, b in enumerate(kept.index.tolist()):
            out[b] = (rows[i], {name: v[i] for name, v in diag.items()})
    return [out[b] for b in range(len(points))]


def test_columns_do_not_interact_across_product_blocks():
    # order-3 scalar products of a batch run in blocks of 16384 // 35 = 468
    # columns: on a 30x20 grid of mink-h2 with one point refused in the
    # second block, every row, diag and typed error is the point's in a
    # batch of its own, bit for bit
    scene = parse_scene(builtin_scenes()["mink-h2"])
    assert taylor._BLOCK_TERMS // len(taylor.get_context(2, 3).mul_ti) == 468
    axes = [np.linspace(-1.5, 1.5, 30), np.linspace(-1.5, 1.5, 20)]
    points = np.array(list(itertools.product(*axes)))
    points[500] = (1e155, 0.3)  # x0**2 overflows: sqrt refuses the column
    results = chunk_outcomes(scene, points)
    assert [b for b, r in enumerate(results) if isinstance(r, Exception)] == [500]
    for x, got in zip(points, results):
        kind, payload, diag = evaluate_alone(scene, x)
        if kind == "row":
            assert repr(got) == repr((payload, diag))
        else:
            assert cli._rejection(x, got) == payload


def refused_chunks() -> dict:
    """Scenes, each with one chunk of points that the pipeline refuses at
    several stages, evaluable points among them, and the error types of
    the refusals.  On mink-h2: a primitive partway through the chart map,
    and, at coordinates of 1e10, cone membership, the metric's eigenvalue
    floor and both null-frame checks, which rounding fails there.  On the
    dense ds-alpha0 grid, its f plus 0.01 sqrt(x1 + 2.4): the domain box,
    that primitive, and the sphere chart's pole, whose metric is singular."""
    corners = list(itertools.product(np.linspace(-1.5, 1.5, 4), repeat=2))
    h2 = corners[:8] + [
        (1e155, 0.3),  # x0**2 overflows: sqrt refuses the column
        (-1e10, -1e10),  # off the cone
        (-1e10, 0.0),  # not positive definite
        (-8e9, -1e10),  # the time axis's normal part is not timelike
        (-6e9, -5e9),  # <xi, nu> = 0
    ] + corners[8:]
    doc = copy.deepcopy(dense_grid_configs()["ds-alpha0"])
    doc["immersion"]["f"] += " + 0.01*sqrt(x1 + 2.4)"
    ds = [(1.0, -1.0), (0.0, -1.0), (3.5, 0.5), (1.0, -2.45), (2.0, 0.0), (0.0, 2.0), (0.5, 0.5)]
    return {
        "mink-h2": (builtin_scenes()["mink-h2"], h2, {
            "PrimitiveDomainError", "PointRejected", "MetricSignatureError",
            "FrameDegeneracyError",
        }),
        "ds-alpha0-sqrt": (doc, ds, {
            "ChartDomainError", "PrimitiveDomainError", "MetricSignatureError",
        }),
    }


@pytest.mark.parametrize("name", sorted(refused_chunks()))
def test_refusals_at_every_stage_match_points_alone(monkeypatch, name):
    # one chunk refused at several stages gives each point the row, diag
    # or rejection entry of the point alone, by repr.  The chart map runs
    # again only after a refusal inside it; the checks of evaluated values
    # drop their columns, and the extrinsic stages run again, on the kept
    # columns, only after a refusal of their own
    doc, points, kinds = refused_chunks()[name]
    scene = parse_scene(doc)
    points = np.array(points)
    batches = []
    real = cli._evaluate

    def counted(scene, geo):
        batches.append(len(geo.x))
        return real(scene, geo)

    monkeypatch.setattr(cli, "_evaluate", counted)
    jets = order3_columns(monkeypatch)
    results = chunk_outcomes(scene, points)
    refused = [type(r).__name__ for r in results if isinstance(r, Exception)]
    assert set(refused) == kinds
    # the map runs again after the domain box and after the primitive, on
    # one column fewer each time
    assert jets == [len(points) - k for k in range(len(jets))] and len(jets) <= 3
    # the extrinsic stages start on the columns the geometry keeps, and run
    # once more, on the others, where the null frame refuses columns: both
    # of its checks run before either raises
    frame_refused = refused.count("FrameDegeneracyError")
    kept = len(points) - len(refused)
    assert batches == ([kept + frame_refused, kept] if frame_refused else [kept])
    assert name != "mink-h2" or batches == [18, 16]
    monkeypatch.undo()
    for x, got in zip(points, results):
        kind, payload, diag = evaluate_alone(scene, x)
        if kind == "row":
            assert repr(got) == repr((payload, diag))
        else:
            assert repr(cli._rejection(x, got)) == repr(payload)


def test_single_point_entries_raise_their_typed_errors():
    # point_report and conformal_map take one point as a batch of one: a
    # refused point raises its own typed error, never BatchRejected, whose
    # message is the detail the grid pass reports for the point (the polar
    # rows of the dense grids), or the error its column carries in the
    # grid's batched split map (mink-slice's vanishing denominators)
    configs = dense_grid_configs()
    for name in ("grw-cosh", "mink-slice", "ds-alpha0"):
        scene = parse_scene(configs[name])
        rejections = cli._evaluate_grid(scene).rejections
        assert len(rejections) == 20, name
        for rejection in rejections:
            with pytest.raises(immersion.MetricSignatureError) as err:
                extrinsic.point_report(scene.im, np.array(rejection["point"]))
            assert cli._rejection(rejection["point"], err.value) == rejection
    scene = parse_scene(configs["mink-slice"])
    points = np.array(list(itertools.product(*scene.axes)))
    columns = taylor.column_results(
        lambda xs: conformal._map_values(scene.cspec, scene.im, xs, scene.im.series(xs, 1)),
        points,
    )
    refused = [(x, e) for x, e in zip(points, columns) if isinstance(e, Exception)]
    assert len(refused) == 20
    for x, error in refused:
        with pytest.raises(conformal.DegeneracyError) as err:
            conformal.conformal_map(scene.cspec, scene.im, x)
        assert type(error) is conformal.DegeneracyError and str(err.value) == str(error)


def test_overflowing_jets_are_the_same_typed_rejection_batched_and_alone():
    # the order-3 jets of sqrt(x0) at this polar coordinate overflow in the
    # products of the induced metric; under pyproject's error::RuntimeWarning
    # filter, an overflow warning would escape instead of the typed rejection
    scene = parse_scene(edge_scenes()["primitive-domain"])
    x = (5.84790378351203e-117, 0.0)
    scene.axes = [np.array([x[0], 0.5]), np.array([x[1]])]
    grid = cli._evaluate_grid(scene)
    rows, rejections = grid.rows, grid.rejections
    kind, alone, _ = evaluate_alone(scene, x)
    assert len(rows) == 1 and kind == "rejected"
    assert rejections == [alone]
    assert alone == {
        "point": list(x),
        "reason": "chart_singularity",
        "detail": f"induced metric at {x} is singular",
    }


def test_engine_entry_points_restore_the_error_state():
    # the engine's floating-point scope is entered and left per call, never
    # set for the process, also when the call ends in a typed rejection
    before = np.geterr()
    scene = parse_scene(edge_scenes()["primitive-domain"])
    run(small(builtin_scenes()["mink-slice"]))
    assert np.geterr() == before
    x = np.array([5.84790378351203e-117, 0.0])
    with pytest.raises(immersion.MetricSignatureError):
        extrinsic.point_report(scene.im, x)
    assert np.geterr() == before
    extrinsic.point_report(scene.im, np.array([0.5, 0.3]))
    assert np.geterr() == before
    slice_scene = parse_scene(slice_doc())
    lam = conformal.factor_field(slice_scene.cspec, slice_scene.im)
    points = [np.array(row) for row in itertools.product(*slice_scene.axes)][:3]
    conformal.conformal_curvature_check(slice_scene.im, lam, points)
    assert np.geterr() == before
    with pytest.raises(conformal.DegeneracyError):
        conformal.conformal_map(slice_scene.cspec, slice_scene.im, np.array([0.0, 0.0]))
    assert np.geterr() == before


def test_builtin_scenes_evaluate_their_grid_as_one_batch(monkeypatch):
    # no built-in grid has a rejected point or outgrows GRID_CHUNK, so each
    # scene's grid pass is one batch of all its points
    batches = []
    real = cli._evaluate

    def counted(scene, geo):
        batches.append(len(geo.x))
        return real(scene, geo)

    monkeypatch.setattr(cli, "_evaluate", counted)
    for name, doc in sorted(builtin_scenes().items()):
        batches.clear()
        report = run(doc)
        assert report["rejections"] == [], name
        assert batches == [len(report["rows"])], name


def order3_columns(monkeypatch) -> list:
    """The batch sizes of the order-3 jets of psi that `taylor.eval_series`
    evaluates from now on, as a list that fills as they run."""
    sizes = []
    real = taylor.eval_series

    def counted(map_fn, points, order):
        if order == immersion.JET_ORDER:
            sizes.append(len(points))
        return real(map_fn, points, order)

    monkeypatch.setattr(taylor, "eval_series", counted)
    return sizes


def test_no_grid_point_is_evaluated_twice(monkeypatch):
    # the mink-slice grid regridded 20 x 20 with its polar axis from 0: the
    # chart geometry of the 400 points is evaluated once, order-3 psi
    # included, and drops the 20 points of the polar row, each with its own
    # typed error, at the metric's singular-inverse test; the extrinsic
    # stages then run once on the 380 others.  No point is evaluated alone
    doc = builtin_scenes()["mink-slice"]
    doc["grid"] = [dict(doc["grid"][0], min=0.0, count=20), dict(doc["grid"][1], count=20)]
    geometries, batches = [], []
    real_geometry, real_evaluate = immersion.geometry_columns, cli._evaluate

    def geometry(obj, x, *args):
        geometries.append(np.shape(x))
        return real_geometry(obj, x, *args)

    def counted(scene, geo):
        batches.append(np.shape(geo.x))
        return real_evaluate(scene, geo)

    monkeypatch.setattr(immersion, "geometry_columns", geometry)
    monkeypatch.setattr(cli, "_evaluate", counted)
    jets = order3_columns(monkeypatch)
    report = run(doc)
    assert geometries == [(400, 2)] and jets == [400]
    assert batches == [(380, 2)]
    assert len(report["rows"]) == 380 and len(report["rejections"]) == 20
    assert {entry["point"][0] for entry in report["rejections"]} == {0.0}


def test_dense_grids_evaluate_each_point_once(monkeypatch):
    # each dense configuration's grid pass computes order-3 psi, the
    # metric's eigenvalues and its inverse once per point: one stack of 400
    # columns each, where evaluating the 380 kept points again took 780
    jets = order3_columns(monkeypatch)
    stacks = {"eigvalsh_lo": [], "inv": [], "cholesky_lo": []}
    real = immersion._lapack

    def lapack(gufunc, a):
        stacks[gufunc.__name__].append(len(a))
        return real(gufunc, a)

    monkeypatch.setattr(immersion, "_lapack", lapack)
    for name, doc in sorted(dense_grid_configs().items()):
        jets.clear()
        for sizes in stacks.values():
            sizes.clear()
        scene = parse_scene(doc)
        grid = cli._evaluate_grid(scene)
        assert len(grid.rows) == 380 and len(grid.rejections) == 20, name
        assert jets == [400], name
        # the metric's stacks come first; the shape suite's Cholesky factors
        # are computed and inverted on the kept points
        assert stacks["eigvalsh_lo"] == [400] and stacks["inv"][0] == 400, name
        assert set(stacks["inv"][1:]) <= {380} and set(stacks["cholesky_lo"]) <= {380}, name


def _outcome(fn, *args):
    """fn(*args) with every float as its exact bits, or its error's type and
    message."""
    try:
        out = fn(*args)
    except Exception as err:  # noqa: BLE001 - the error is the outcome compared
        return type(err).__name__, str(err)
    if isinstance(out, dict):
        return {key: float(v).hex() for key, v in out.items()}
    return float(out).hex()


def test_sample_checks_read_the_grid_as_the_public_checks_evaluate():
    # the suites' factorization, appendix and scale sign read the grid
    # pass's jets and geometry; on every built-in scene and dense grid at run
    # seeds 0-7 they give, to the bit, what the public checks and the
    # one-sample oracle give on the same samples.  The dense grids drop
    # their polar rows from the chart geometry of their one chunk, so their
    # rows are columns gathered from it
    configs = {**builtin_scenes(), **{f"dense-{k}": v for k, v in dense_grid_configs().items()}}
    seen = set()
    for name, doc in sorted(configs.items()):
        factorization = None
        for seed in range(8):
            scene = parse_scene(doc, seed=seed)
            if scene.cspec is None:
                continue
            report = run(doc, seed=seed)
            evaluable, first, drawn = suite_samples(scene, seed)
            if "appendix" in scene.checks:
                lam = conformal.factor_field(scene.cspec, scene.im)
                want = _outcome(conformal.conformal_curvature_check, scene.im, lam, drawn)
                appendix = report["suites"]["appendix"]
                got = appendix.get("unevaluable") or _outcome(dict, appendix["residuals"])
                assert got == (want[1] if isinstance(want, tuple) else want), (name, seed)
                seen.add("appendix")
            residuals = report["suites"]["conformal"]["residuals"]
            if scene.cspec.variant == "desitter_to_Sn":
                geo = immersion.chart_geometry(scene.im, np.array(evaluable), check_membership=False)
                sign = _outcome(conformal.scale_sign_at, geo)
                assert residuals["scale_sign"] == (1.0 if isinstance(sign, tuple) else 0.0)
                seen.add("scale_sign")
            if not scene.cspec.primitive:
                if factorization is None:  # the samples do not depend on the seed
                    factorization = _outcome(_surfaces.factorization_alone, scene.im,
                                             scene.cspec, first)
                assert float(residuals["factorization"]).hex() == factorization, (name, seed)
                seen.add("factorization")
    assert seen == {"appendix", "scale_sign", "factorization"}


@pytest.mark.parametrize("chunk", [5, 7, 64])
def test_sample_checks_gather_columns_across_grid_chunks(chunk):
    # with the grid in chunks, the suites' samples come from several
    # evaluated batches, in the appendix's drawn order: every report is the
    # one of the grid evaluated as one batch, byte for byte
    for name in ("ds-alpha0", "grw-exp", "mink-slice"):
        doc = builtin_scenes()[name]
        for seed in range(3):
            whole = emit_json(run(doc, seed=seed))
            with mock.patch.object(cli, "GRID_CHUNK", chunk):
                assert emit_json(run(doc, seed=seed)) == whole, (name, seed)


def test_suites_evaluate_the_immersion_only_at_trials_and_quadrature(monkeypatch):
    # in cli.run of each built-in scene the grid pass builds the one chart
    # geometry of its batch; the suites read it and evaluate the immersion
    # only at the trial points of the local inverse's damped steps and at
    # the nodes of the cylinder maps' exactness quadrature
    stray, builds = [], []
    real_series, real_build = immersion.Immersion.series, immersion._geometry_from_immersion

    def callers():
        frame, names = sys._getframe(2), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        return names

    def series(self, x, order, check_membership=True):
        if not callers() & {"_evaluate_grid", "_descend", "exactness_residual"}:
            stray.append(("series", order, len(x)))
        return real_series(self, x, order, check_membership)

    def build(im, x, *args):
        builds.append("_evaluate_grid" in callers())
        return real_build(im, x, *args)

    monkeypatch.setattr(immersion.Immersion, "series", series)
    monkeypatch.setattr(immersion, "_geometry_from_immersion", build)
    suites = set()
    for name, doc in sorted(builtin_scenes().items()):
        builds.clear()
        report = run(doc)
        assert report["exit_status"] == EXIT_PASS, name
        assert builds == [True], name
        for suite, result in report["suites"].items():
            suites.update(f"{suite}.{key}" for key in result["residuals"])
    assert stray == []
    assert {"conformal.factorization", "conformal.scale_sign", "conformal.exactness",
            "appendix.sectional"} <= suites


@pytest.mark.parametrize("seed,message", [
    (0, None),
    (1, "conformal scale 0.000e+00 is inside the floor 1.0e-08"),
    (2, "conformal scale 0.000e+00 is inside the floor 1.0e-08"),
])
def test_appendix_sample_inside_the_floor_is_unevaluable(seed, message):
    # mink-slice's conformal scale is its last coordinate, 0 on the grid row
    # x1 = 0: an appendix draw of such a row leaves the suite unevaluable
    # with the error of the first such sample, as the public check raises it
    doc = builtin_scenes()["mink-slice"]
    doc["grid"][1] = {"min": -0.45, "max": 0.45, "count": 3}
    report = run(doc, seed=seed)
    appendix = report["suites"]["appendix"]
    assert appendix.get("unevaluable") == message
    assert report["suites"]["conformal"]["passed"]
    assert report["exit_status"] == (EXIT_PASS if message is None else EXIT_DEGENERATE)
    scene = parse_scene(doc, seed=seed)
    lam = conformal.factor_field(scene.cspec, scene.im)
    drawn = suite_samples(scene, seed)[2]
    if message is None:
        assert appendix["passed"]
        return
    with pytest.raises(conformal.DegeneracyError) as err:
        conformal.conformal_curvature_check(scene.im, lam, drawn)
    assert str(err.value) == message


def test_scale_sign_change_fails_the_conformal_suite(monkeypatch):
    # R = x1 on ds-alpha1; a sample geometry whose last column has x1 < 0
    # (a copy of the grid's columns) straddles the split plane: the scale
    # sign check raises, and the suite reports scale_sign 1.0 and fails
    real = conformal.scale_sign_at
    raised = []

    def straddling(geo):
        geo.position.c[0, 0, -1] *= -1.0
        try:
            return real(geo)
        except conformal.DegeneracyError as err:
            raised.append(str(err))
            raise

    monkeypatch.setattr(conformal, "scale_sign_at", straddling)
    report = run(builtin_scenes()["ds-alpha1"])
    suite = report["suites"]["conformal"]
    assert raised == ["scale R changes sign across the samples"]
    assert suite["residuals"]["scale_sign"] == 1.0
    assert not suite["passed"] and report["exit_status"] == EXIT_SUITE_FAILURE
    assert json.loads(emit_json(report))["suites"]["conformal"]["residuals"]["scale_sign"] == 1.0


def test_inverse_error_gives_infinite_factorization(monkeypatch):
    # every trial point of the damped steps refused: the local inverse finds
    # no descent step, and the suite reports the round trip as Infinity
    def refused(spec, im, points, targets):
        coeffs = np.full((len(points), im.model.coord_count, points.shape[1] + 1), np.nan)
        errors = dict.fromkeys(range(len(points)), conformal.DegeneracyError("refused trial"))
        return coeffs, np.full(targets.shape, np.nan), errors

    monkeypatch.setattr(conformal, "_inverse_residuals", refused)
    report = run(builtin_scenes()["mink-bowl"])
    suite = report["suites"]["conformal"]
    assert suite["residuals"]["factorization"] == math.inf
    assert not suite["passed"] and report["exit_status"] == EXIT_SUITE_FAILURE
    assert '"factorization": Infinity' in emit_json(report)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_jacobian_gives_infinite_factorization(monkeypatch, value):
    # a local inverse whose jacobians are not finite ends in its own
    # InverseError, neither in a LinAlgError (lstsq on NaN) nor in a NaN
    # step: the suite reports the round trip as Infinity and cli.run returns
    real = conformal._map_jacobian

    def non_finite(spec, im, psi):
        jac = real(spec, im, psi)
        if sys._getframe(1).f_code.co_name == "_descend":
            jac[..., 0] = value
        return jac

    monkeypatch.setattr(conformal, "_map_jacobian", non_finite)
    report = run(builtin_scenes()["mink-bowl"])
    suite = report["suites"]["conformal"]
    assert suite["residuals"]["factorization"] == math.inf
    assert suite["residuals"]["factor"] < 1e-12
    assert not suite["passed"] and report["exit_status"] == EXIT_SUITE_FAILURE


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
    lam = conformal.factor_field(scene.cspec, scene.im)
    lam = geometry_alone(scene.im, x).scalar_series(lam).val[0]
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


class _Label(str):
    pass


def test_emit_json_matches_isinstance_chain():
    for name, doc in builtin_scenes().items():
        report = run(doc)
        assert emit_json(report) == emit_json_reference(report), name
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
    assert emit_json(mixed) == emit_json_reference(mixed)
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


def test_emit_json_matches_reference_emitter_bytes():
    # every built-in scene report, the dense-grid reports (whose polar rows
    # are rejections), and values of each kind the emitter meets
    rejected = 0
    for config in [*builtin_scenes().values(), *dense_grid_configs().values()]:
        report = cli.run(config, seed=3)
        assert cli.emit_json(report) == emit_json_reference(report)
        rejected += len(report["rejections"])
    assert rejected == 60
    odd = {
        "floats": [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-310, 0.1, 1e300],
        "numpy": [np.float64(-0.0), np.float32(0.1), np.float64(np.inf), np.int64(-3),
                  np.bool_(True), np.bool_(False), np.float64(np.nan)],
        "plain": [True, False, None, 0, -7, 2**70, "", "é \"quoted\"\n", ("a", "a")],
        "empty": {"dict": {}, "list": [], "tuple": ()},
        3: "a non-string key", "a": "a", "nested": [{"a": [{"a": "a"}]}],
    }
    assert cli.emit_json(odd) == emit_json_reference(odd)
    assert cli.emit_json({}) == emit_json_reference({}) == "{}\n"


def test_report_rows_read_as_a_list_of_dicts():
    # a report's rows are the grid pass's columns behind a read-only
    # sequence: they index, slice, iterate, compare and emit as the list of
    # row dicts that each point's own report spells
    doc = slice_doc()
    scene = parse_scene(doc)
    report = run(doc)
    rows = report["rows"]
    want = []
    for x in itertools.product(*scene.axes):
        rep = extrinsic.point_report(scene.im, x)
        row = {"point": [float(v) for v in x]}
        row.update((key, getattr(rep, key)) for key in extrinsic.ROW_FIELDS)
        row["trapped_class"] = rep.trapped_class
        want.append(row)
    assert type(rows) is cli.Rows and len(rows) == len(want) == 16
    assert rows == want and want == rows and rows != want[:-1] and list(rows) == want
    assert type(rows[0]) is dict and rows[0] == want[0] and rows[-1] == want[-1]
    assert rows[:3] == want[:3] and type(rows[:3]) is list
    assert [row for row in rows] == want
    with pytest.raises(IndexError):
        rows[len(rows)]
    assert json.loads(emit_json(report)) == report
    assert emit_csv(report) == emit_csv_reference(report)
    empty = run(OFF_CONE_DOC)
    assert empty["rows"] == [] and [] == empty["rows"] and len(empty["rows"]) == 0
    assert not empty["rows"] and list(empty["rows"]) == []
    assert '"rows": [],' in emit_json(empty) and json.loads(emit_json(empty)) == empty
    assert emit_csv(empty) == emit_csv_reference(empty)


@pytest.mark.parametrize("f", ["1", "1 + 0.5*x0**2 - 0.4*x1**2"])
def test_failing_expect_pins_reduce_over_the_rows(f):
    # a theta_xi pin that no row meets and a class that some or all rows
    # miss: the expect residual is the largest |value - pin| over the
    # numeric pins and rows, and the mismatches count the rows of another
    # class, as reduced over the row dicts
    doc = small(builtin_scenes()["mink-h2"])
    doc["immersion"]["f"] = f
    doc["expect"].update(theta_xi=2.0, trapped_class="untrapped")
    report = run(doc)
    rows, pins = list(report["rows"]), report["config"]["expect"]
    numeric = max(abs(row[key] - want) for key, want in pins.items()
                  if key != "trapped_class" for row in rows)
    mismatches = sum(row["trapped_class"] != "untrapped" for row in rows)
    suite = report["suites"]["expansions"]
    assert suite["residuals"]["expect"] == numeric >= 1.0
    assert suite["residuals"]["expect_class_mismatches"] == float(mismatches) > 0.0
    assert suite["passed"] is False and report["exit_status"] == EXIT_SUITE_FAILURE
    assert (mismatches, len(rows)) == ((16, 16) if f == "1" else (8, 16))


def _row(point, fill=0.25, klass="untrapped"):
    row = {"point": list(point)}
    row.update((key, fill) for key in extrinsic.ROW_FIELDS)
    row["trapped_class"] = klass
    return row


def test_emit_json_records_match_reference_emitter_bytes():
    # each list below takes the record path for some of its rows and the
    # value-by-value path for the others
    middle = [_row([0.5, -1.0]) for _ in range(5)]
    middle[2]["theta_eta"] = math.nan
    middle[3]["H_sq"] = -math.inf
    middle[4]["point"] = [math.inf, -0.0]
    reordered = _row([1.0, 2.0])
    reordered = {key: reordered[key] for key in reversed(reordered)}
    renamed = _row([1.0, 2.0])
    renamed["u%s"] = renamed.pop("u")
    kinds = [_row([0.1, 0.2]) for _ in range(6)]
    kinds[1]["u"] = np.float64(0.1)
    kinds[2]["theta_xi"] = True
    kinds[3]["trapped_class"] = _Label("past_trapped")
    kinds[4]["point"] = [np.float64(0.1), 0.2]
    kinds[5]["point"] = (0.1, 0.2)
    lengths = [_row([0.1]), _row([0.1, 0.2, 0.3]), _row([]), _row([0.1, 0.2, 0.3])]
    report = {
        "middle": middle,
        "keys": [_row([1.0, 2.0]), reordered, renamed, {"u": 1.0}, _row([1.0, 2.0])],
        "empty_first": [{}, _row([1.0, 2.0]), {}, [], ()],
        "kinds": kinds,
        "lengths": lengths,
        "overflow": [{"a": 1e308, "b": 1e308}, {"a": [1e308, 1e308]}, {"a": 1e308, "b": -1e308}],
        "ints": [{"count": 3, "min": -1.5}, {"count": 2**70, "min": 0.0}],
        "strings": [{"s": "é \"quoted\"\n", "t": "50% off", "u": ""}] * 2,
        "nested": [{"a": 1.0, "b": {"c": 2.0}}, {"a": [1.0, [2.0]]}, {"a": None}],
        "keyed": [{3: 1.0}, {"a": 1.0, 3: 2.0}],
    }
    assert emit_json(report) == emit_json_reference(report)
    assert json.loads(emit_json(report))["middle"][3]["H_sq"] == -math.inf


def test_emit_csv_matches_reference_emitter_bytes():
    for name, config in builtin_scenes().items():
        report = run(config)
        assert emit_csv(report) == emit_csv_reference(report), name
    rows = [_row([0.5, -1.0]) for _ in range(6)]
    rows[1]["u"] = math.nan
    rows[2]["theta_xi"] = math.inf
    rows[3]["H_sq"] = -math.inf
    rows[4]["point"] = [-0.0, 0.0]
    rows[4]["laplacian_u"] = -0.0
    rows[5]["point"] = [1e308, 1e308]
    report = {"config": {"grid": [{}, {}]}, "rows": rows}
    text = emit_csv(report)
    assert text == emit_csv_reference(report)
    lines = text.splitlines()
    assert lines[2].split(",")[2] == "NaN"
    assert lines[3].split(",")[2 + extrinsic.ROW_FIELDS.index("theta_xi")] == "Infinity"
    assert lines[4].split(",")[2 + extrinsic.ROW_FIELDS.index("H_sq")] == "-Infinity"
    assert lines[5].startswith("-0,0,")
