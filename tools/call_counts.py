"""Count the calls one `extrinsic.point_report` makes, per pipeline stage,
and the calls of each conformal operation of the `pointwise` workload.

    python3 tools/call_counts.py              # every point of each pool
    python3 tools/call_counts.py --points 4   # the first 4 points of each

Run from the repository root; it imports the package from `src/` and reads
the stored point pools of the `pointwise` workload from
`perfbench/reference/pointwise.json` without changing them.  For each pool
scene it runs `point_report` at the pool's points under `sys.setprofile`
and prints, per stage, the mean number per report of Python calls (`call`
events), of C calls (`c_call` events: builtins and numpy functions, not
operators or ufuncs) and of primitives (calls of `taylor._checked`: each
composition of a Series with a primitive such as sqrt or the reciprocal,
and each primitive of an array), then their totals:

    SCENE STAGE PYTHON C PRIMITIVE

A pool scene with a split map then gets one line per conformal operation,
with the mean of the same three counts per call:

    SCENE OPERATION PYTHON C PRIMITIVE

- `conformal_map` at each of the pool's points;
- `factorization_check` of the pool's first 6 points, on the split maps
  that have the graph-embedding factorization (not the cylinder maps);
- `conformal_curvature_check` of the pool's first 5 points, with the
  conformal scale (`conformal.factor_field`) as the factor;

the sample counts are those of the workload's checks.

A call counts toward the innermost stage running when it is made:

- `chart_map`: `taylor.eval_series`, the Taylor jets of the chart map psi,
  its primitives of the chart coordinates among them;
- `geometry`: `immersion.chart_geometry` and every `ChartGeometry` method,
  the lazily cached quantities included, whichever stage reads them first,
  apart from the chart map;
- `connection`: the `ChartGeometry` quantities of the Levi-Civita
  connection (`CONNECTION`: the inverse metric and Christoffel Series, the
  Christoffel values, the curvature tensor and the scalar curvature);
- `height`, `null_frame`, `weingarten_map`, `second_fundamental_form`,
  `expansions`: the `extrinsic` stage functions;
- `report`: `ExtrinsicPoint.report`, the rows and their finiteness check;
- `other`: the rest, such as the batch-of-one wrapper and the constructor.

The counts depend on the code path alone, not on the machine or its load,
so two source trees compare by them where a timing on a shared machine is
noisy.  Points that the pipeline refuses count as well, up to their error;
the caches that the first call of a process fills are filled first.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import cached_property, partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nullgeom import cli, conformal, extrinsic, immersion, taylor  # noqa: E402

POOLS = ROOT / "perfbench" / "reference" / "pointwise.json"
EXTRINSIC_STAGES = ("height", "null_frame", "weingarten_map", "second_fundamental_form",
                    "expansions")
CONNECTION = ("g_inv_series", "christoffel_series", "christoffel", "riemann", "scal")
STAGES = ("chart_map", "geometry", "connection", *EXTRINSIC_STAGES, "report", "other")
KINDS = ("python", "c", "primitive")
# the samples of the pointwise workload's checks
FACTORIZATION_SAMPLES = 6
CURVATURE_SAMPLES = 5


def _stage_codes() -> dict:
    """{code object: stage} of the functions that open a stage."""
    members = [immersion.chart_geometry]
    for member in vars(immersion.ChartGeometry).values():
        member = member.func if isinstance(member, cached_property) else member
        member = getattr(member, "__func__", member)  # a classmethod's function
        if callable(member) and hasattr(member, "__code__"):
            members.append(member)
    codes = {fn.__code__: "geometry" for fn in members}
    codes[taylor.eval_series.__code__] = "chart_map"
    for name in CONNECTION:
        codes[vars(immersion.ChartGeometry)[name].func.__code__] = "connection"
    for name in EXTRINSIC_STAGES:
        codes[getattr(extrinsic, name).__code__] = name
    codes[extrinsic.ExtrinsicPoint.report.__code__] = "report"
    return codes


def _call(fn, *args):
    try:
        fn(*args)
    except ValueError:  # a typed rejection; its calls count
        pass


def _tally(calls, codes) -> Counter:
    """{(stage, kind): count} over the calls, each a callable of no
    argument, after the first of them has filled the caches (jet contexts,
    product slots) that only a first call builds; a call counts toward the
    innermost stage of codes ({code object: stage}) running, else `other`."""
    primitive = taylor._checked.__code__
    tally = Counter()
    running = [(None, "other")]  # (frame, stage) of each stage entered

    def profile(frame, event, arg):
        if event == "call":
            stage = codes.get(frame.f_code)
            if stage is not None:
                running.append((frame, stage))
            tally[running[-1][1], "python"] += 1
            if frame.f_code is primitive:
                tally[running[-1][1], "primitive"] += 1
        elif event == "return":
            if running[-1][0] is frame:
                running.pop()
        elif event == "c_call":
            tally[running[-1][1], "c"] += 1

    calls[0]()
    for call in calls:
        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
    return tally


def stage_counts(scene, points) -> dict:
    """{stage: (python calls, C calls, primitives)} per `point_report` at
    the points."""
    tally = _tally([partial(_call, extrinsic.point_report, scene.im, x) for x in points],
                   _stage_codes())
    return {stage: tuple(tally[stage, kind] / len(points) for kind in KINDS) for stage in STAGES}


def operation_counts(scene, points, pool) -> dict:
    """{operation: (python calls, C calls, primitives)} per call of the
    conformal operations of a scene with a split map: `conformal_map` at
    the points, and the checks of the first samples of the pool."""
    spec, im = scene.cspec, scene.im
    calls = {
        "conformal_map": [partial(_call, conformal.conformal_map, spec, im, x) for x in points],
        "factorization_check": [partial(_call, conformal.factorization_check, im, spec,
                                        pool[:FACTORIZATION_SAMPLES])],
        "conformal_curvature_check": [partial(_call, conformal.conformal_curvature_check, im,
                                              conformal.factor_field(spec, im),
                                              pool[:CURVATURE_SAMPLES])],
    }
    if spec.primitive:  # a cylinder map has no graph-embedding factorization
        del calls["factorization_check"]
    counts = {}
    for name, ops in calls.items():
        tally = _tally(ops, {})
        counts[name] = tuple(tally["other", kind] / len(ops) for kind in KINDS)
    return counts


def lines(limit=None):
    with POOLS.open() as fh:
        entries = json.load(fh)["scenes"]
    for entry in entries:
        scene = cli.parse_scene(entry["config"])
        pool = np.array(entry["pool"], dtype=float)
        counts = stage_counts(scene, pool[:limit])
        rows = [*counts.items(), ("total", map(sum, zip(*counts.values())))]
        if scene.cspec is not None:
            rows += operation_counts(scene, pool[:limit], pool).items()
        for stage, values in rows:
            yield f"{scene.name} {stage} " + " ".join(f"{v:.1f}" for v in values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", type=int, default=None,
                        help="count at the first POINTS points of each pool only")
    args = parser.parse_args(argv)
    for line in lines(args.points):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
