"""Drift check: the built-in scenes against the stored benchmark reports.

`perfbench/reference/suite-all.json` holds, for every built-in scene, the
rows, rejections and suite verdicts of an earlier build.  Comparing a fresh
seed-0 run with it catches numeric drift across changes, which comparing two
runs of one build cannot.
"""

import json
from pathlib import Path

import pytest

from nullgeom.cli import ROW_FIELDS, emit_json, run

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "suite-all.json"
ATOL = 1e-8


def close(got, want):
    return got == want or abs(got - want) <= ATOL * max(1.0, abs(want))


with REFERENCE.open() as fh:
    SCENES = json.load(fh)["scenes"]


@pytest.mark.parametrize("ref", SCENES, ids=[s["config"]["name"] for s in SCENES])
def test_scene_matches_stored_reference(ref):
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
