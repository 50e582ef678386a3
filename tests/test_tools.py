"""The repository tools that compare report digests across source trees."""

import importlib.util
import json
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name="digest_drift"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hex(*values):
    return " ".join(float(v).hex() for v in values)


POINT_FIELDS = (0.5, 0.25, -1.0, 1.0, 2.0, -4.0, -8.0, 0.0)

OLD = [
    "scene mink-h2 seed 0 " + "a" * 64,
    "scene mink-h2 seed 1 " + "b" * 64,
    "csv mink-h2 seed 0 " + "c" * 64,
    f"point grw-exp 0 {_hex(*POINT_FIELDS)} past_trapped",
    f"point grw-exp 1 {_hex(*POINT_FIELDS)} past_trapped",
    "point grw-exp 2 rejected ChartDomainError: x0 = 3.0 outside the chart",
    f"curvature ds-alpha0 0 sectional={_hex(1e-15)} scalar={_hex(0.0)} gauss={_hex(2e-15)}",
    f"map cyl-arctan 0 {_hex(0.6, 0.8, 3.0)}",
    f"factorization mink-bowl {_hex(4e-16)}",
]


def _new():
    new = list(OLD)
    new[1] = "scene mink-h2 seed 1 " + "d" * 64
    fields = list(POINT_FIELDS)
    fields[3] = 1.0 + 2.0**-52  # theta_xi moves by one ulp
    fields[6] = -8.0 * (1.0 + 2.0**-51)  # scal_formula by two ulps of 8
    new[3] = f"point grw-exp 0 {_hex(*fields)} past_trapped"
    new[4] = f"point grw-exp 1 {_hex(*POINT_FIELDS)} untrapped"
    new[6] = f"curvature ds-alpha0 0 sectional={_hex(3e-15)} scalar={_hex(0.0)} gauss={_hex(2e-15)}"
    new[7] = f"map cyl-arctan 0 {_hex(0.6, 0.8, 3.0 + 3e-15)}"
    return new


def test_digest_drift_counts_and_measures_each_kind():
    kinds = _tool().compare(OLD, _new())
    assert {kind: (e["lines"], e["differ"]) for kind, e in kinds.items()} == {
        "scene": (2, 1), "csv": (1, 0), "point": (3, 2), "curvature": (1, 1), "map": (1, 1),
        "factorization": (1, 0),
    }
    point = kinds["point"]
    # the class change is an outcome, not a drift; a rejection that stays is no change
    assert point["outcomes"] == 1
    # drift is relative to max(1, |old|): one ulp of 1, and 2**-51 of 8
    assert point["drift"] == {**dict.fromkeys(
        ("u", "grad_u_sq", "laplacian_u", "theta_eta", "H_sq", "scal_intrinsic"), 0.0),
        "theta_xi": 2.0**-52, "scal_formula": 2.0**-51}
    assert kinds["curvature"]["drift"] == {"sectional": 3e-15 - 1e-15, "scalar": 0.0, "gauss": 0.0}
    assert kinds["map"]["drift"] == {"0": 0.0, "1": 0.0, "2": ((3.0 + 3e-15) - 3.0) / 3.0}
    assert kinds["factorization"]["drift"] == {}
    text = _tool().report(kinds)
    assert "scene: 2 lines, 1 differ" in text.splitlines()
    assert "point: 3 lines, 2 differ, 1 outcomes changed" in text.splitlines()
    assert "  scal_formula: 4.44e-16" in text.splitlines()


def test_digest_drift_exit_status(tmp_path, capsys):
    tool = _tool()
    old, new, short = tmp_path / "old.txt", tmp_path / "new.txt", tmp_path / "short.txt"
    old.write_text("\n".join(OLD) + "\n")
    new.write_text("\n".join(_new()) + "\n")
    short.write_text("\n".join(OLD[:-1]) + "\n")
    assert tool.main(["digest_drift.py", str(old), str(old)]) == 0
    assert tool.main(["digest_drift.py", str(old), str(new)]) == 1
    assert tool.main(["digest_drift.py", str(old), str(short)]) == 2
    # lines in another order do not pair
    shuffled = tmp_path / "shuffled.txt"
    shuffled.write_text("\n".join(OLD[1::-1] + OLD[2:]) + "\n")
    assert tool.main(["digest_drift.py", str(old), str(shuffled)]) == 2
    assert "does not pair" in capsys.readouterr().err


def test_call_counts_per_stage(capsys):
    # the counts of one point_report per stage, and of each conformal
    # operation and each suite run, are the same on every run, every
    # pipeline stage makes calls, the connection among them, and a scene's
    # total is their sum; the connection composes no primitive, the chart
    # maps compose theirs in their own stage, the geometry composes one (the
    # warping profile) and the null frame one (the reciprocal of f^2, on its
    # order-1 array) on the GRW cones and none elsewhere
    tool = _tool("call_counts")
    with tool.POOLS.open() as fh:
        entry = json.load(fh)["scenes"][0]
    scene = tool.cli.parse_scene(entry["config"])
    pool = np.array(entry["pool"])
    points = pool[:2]
    counts = tool.stage_counts(scene, points)
    assert counts == tool.stage_counts(scene, points)
    operations = tool.operation_counts(scene, points, pool, entry["config"])
    assert operations == tool.operation_counts(scene, points, pool, entry["config"])
    assert list(operations)[-1] == "suite"
    assert list(counts) == list(tool.STAGES)
    assert all(python > 0 for python, _, _ in counts.values())
    assert tool.main(["--points", "1"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert {len(line) for line in lines} == {5}
    blocks = {}
    for name, *row in lines:
        blocks.setdefault(name, []).append(row)
    assert len(blocks) == 11
    for name, block in blocks.items():
        stages = block[:len(tool.STAGES) + 1]
        assert [stage for stage, *_ in stages] == [*tool.STAGES, "total"]
        for column in (1, 2, 3):
            total = sum(float(row[column]) for row in stages[:-1])
            assert abs(float(stages[-1][column]) - total) < 0.5
        primitives = {row[0]: float(row[3]) for row in stages}
        assert primitives["chart_map"] > 0.0
        assert primitives["geometry"] == (1.0 if name.startswith("grw") else 0.0), name
        assert primitives["connection"] == 0.0, name  # contractions, no composition
        assert primitives["null_frame"] == (1.0 if name.startswith("grw") else 0.0), name
        # then the conformal operations of a scene with a split map: its
        # map and the two checks, the cylinder map having no factorization;
        # last the suite run of every scene, whose chart maps compose
        operations = [row[0] for row in block[len(stages):]]
        if name.startswith("grw"):
            assert operations == ["suite"], name
        elif name.startswith("cyl"):
            assert operations == ["conformal_map", "conformal_curvature_check", "suite"], name
        else:
            assert operations == ["conformal_map", "factorization_check",
                                  "conformal_curvature_check", "suite"], name
        assert all(float(row[1]) > 0.0 and float(row[3]) > 0.0 for row in block[len(stages):])
        suite = block[-1]
        assert float(suite[1]) > float(stages[-1][1]), name  # a grid pass, not one report


