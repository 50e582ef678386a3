"""Drift check: scene reports against the stored benchmark reports.

`perfbench/reference/suite-all.json` holds, for every built-in scene, the
rows, rejections and suite verdicts of an earlier build;
`perfbench/reference/dense-grid.json` holds the same for three scenes
regridded 20x20 with the polar axis from 0, where the chart is singular;
`perfbench/reference/pointwise.json` holds `extrinsic.point_report` at 48
pool points of every built-in scene.  Comparing fresh seed-0 runs with
them catches numeric drift across changes, which comparing two runs of one
build cannot.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from nullgeom.cli import ROW_FIELDS, emit_json, parse_scene, run
from nullgeom.extrinsic import point_report

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
ATOL = 1e-8


def close(got, want):
    return got == want or abs(got - want) <= ATOL * max(1.0, abs(want))


def stored(workload):
    with (REFERENCE_DIR / f"{workload}.json").open() as fh:
        return json.load(fh)["scenes"]


SCENES = stored("suite-all")
DENSE_SCENES = stored("dense-grid")
POOLS = stored("pointwise")


def check_against(ref):
    rep = json.loads(emit_json(run(ref["config"], seed=0)))
    want = ref["runs"][0]
    assert rep["exit_status"] == want["exit_status"]
    assert [[r["point"], r["reason"]] for r in rep["rejections"]] == ref["rejections"]
    assert len(rep["rows"]) == len(ref["rows"])
    for row, (point, values, klass) in zip(rep["rows"], ref["rows"]):
        assert row["point"] == point
        assert row["trapped_class"] == klass
        for key, value in zip(ROW_FIELDS, values):
            assert close(row[key], value), (point, key, row[key], value)
    assert list(rep["suites"]) == list(want["suites"])
    for name, w in want["suites"].items():
        g = rep["suites"][name]
        assert g.get("passed") == w.get("passed"), name
        assert g.get("points") == w.get("points"), name
        assert ("unevaluable" in g) == ("unevaluable" in w), name
        gr, wr = g.get("residuals", {}), w.get("residuals", {})
        assert list(gr) == list(wr), name
        for key in wr:
            assert close(gr[key], wr[key]), (name, key, gr[key], wr[key])


@pytest.mark.parametrize("ref", SCENES, ids=[s["config"]["name"] for s in SCENES])
def test_scene_matches_stored_reference(ref):
    check_against(ref)


@pytest.mark.parametrize("ref", DENSE_SCENES, ids=[s["config"]["name"] for s in DENSE_SCENES])
def test_dense_grid_matches_stored_reference(ref):
    check_against(ref)


@pytest.mark.parametrize("ref", POOLS, ids=[s["config"]["name"] for s in POOLS])
def test_point_reports_match_stored_pool(ref):
    im = parse_scene(ref["config"]).im
    assert len(ref["pool"]) == len(ref["reports"])
    for x, (values, klass) in zip(ref["pool"], ref["reports"]):
        rep = point_report(im, np.asarray(x, dtype=float))
        assert rep.trapped_class == klass, x
        for key, value in zip(ROW_FIELDS, values):
            assert close(getattr(rep, key), value), (x, key, getattr(rep, key), value)
