"""Print one digest line per engine output, to show two source trees agree.

    python3 tools/report_digests.py > digests.txt

Run from the repository root; it imports the package from `src/` and reads
the benchmark's stored inputs from `perfbench/reference/` without changing
them.  It prints, one per line:

- `scene NAME seed S SHA256`: the sha256 of `cli.emit_json` of every
  built-in scene, every dense-grid configuration, the two refusal grids
  and the four curved-fiber grids below, at run seeds 0-7;
- `csv NAME seed S SHA256`: the sha256 of `cli.emit_csv` of the same
  report, after its `scene` line;
- `point NAME I FIELDS CLASS`: `extrinsic.point_report` at every point of
  the stored pools and at every grid point of each dense-grid and
  curved-fiber configuration, each row field as `float.hex`, or the typed
  error (`rejected TYPE: MESSAGE`) of a point that is refused;
- `curvature NAME I SAMPLES`: `conformal.conformal_curvature_check` of each
  run of 6 consecutive pool points of a scene with a split map, each
  residual as `float.hex`;
- `map NAME I IMAGE`: `conformal.conformal_map` at every pool point of the
  scene whose stored reference has split-map images, and at every grid
  point of each dense-grid configuration with a split map, each coordinate
  as `float.hex`;
- `factorization NAME RESIDUAL`: `conformal.factorization_check` of the
  first 6 pool points of each scene whose stored reference has a
  factorization residual, as `float.hex`;
- `curvature NAME-grid-mixed S SAMPLES` and
  `factorization NAME-grid-mixed-S RESIDUAL`: the two checks over a set of
  6 grid points drawn by the seed S (0-7) on each dense-grid configuration
  with a split map, one or two of them on the polar row x0 = 0, whose
  metric is singular, the others off it, in drawn order; or the typed
  error of the first refused sample.

Between them these cover every operation of the `pointwise` workload, the
one-point refusals of the dense grids, whose messages are the details of
the grid pass's rejections, and sample checks whose batch holds refused
samples among evaluated ones.  The refusal grids put several kinds of
refused point in one chunk: `mink-bowl-off-cone` (f = 0.6 + 0.5 x0 on
[-2, 2]^2, whose 80 points with f <= 0 the chart map refuses partway) and
`grw-cosh-overflow` (the dense grw-cosh grid, its height plus
1e-300 exp(100 x1 + 461), which overflows inside the map on the 20 points
with x1 = 2.5, next to the polar points x0 = 0, which the metric's
eigenvalue tests refuse as singular or ill-conditioned).  The
curved-fiber grids reach the branch of the null gradient and of the
`product_xi` closed form that no built-in scene reaches: `grw_graph` on a
`product` model with a sphere or a hyperbolic fiber, warped by the
constant 1 or by cosh, on the 12x12 grid x0 in [0.3, 2.8], x1 in [-3, 3].

Output is deterministic, so running it on two trees and diffing the output
shows whether their reports are byte-identical.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nullgeom import cli, conformal, extrinsic  # noqa: E402
from nullgeom.scenes import builtin_scenes  # noqa: E402

REFERENCE = ROOT / "perfbench" / "reference"
SEEDS = range(8)
CURVATURE_SAMPLES = 6
FACTORIZATION_SAMPLES = 6
MIXED_SAMPLES = 6


def _stored(workload: str) -> list:
    with (REFERENCE / f"{workload}.json").open() as fh:
        return json.load(fh)["scenes"]


def _hex(value) -> str:
    return float(value).hex()


def refusal_configs() -> list:
    """The two refusal grids of the module docstring."""
    bowl = copy.deepcopy(builtin_scenes()["mink-bowl"])
    bowl["name"] = "mink-bowl-off-cone"
    bowl["immersion"]["f"] = "0.6 + 0.5*x0"
    bowl["grid"] = [{"min": -2.0, "max": 2.0, "count": 20}] * 2
    (cosh,) = [s["config"] for s in _stored("dense-grid") if s["config"]["name"] == "grw-cosh"]
    cosh = copy.deepcopy(cosh)
    cosh["name"] = "grw-cosh-overflow"
    cosh["immersion"]["height"] += " + 1e-300*exp(100*x1 + 461)"
    return [bowl, cosh]


def curved_fiber_configs() -> list:
    """The four curved-fiber grids of the module docstring."""
    warpings = {"unit": {"kind": "constant", "params": [1.0]}, "cosh": {"kind": "cosh"}}
    return [
        {
            "name": f"grw-{fiber}-{name}",
            "spacetime": {"kind": "product", "n": 2, "fiber": fiber, "warping": warping},
            "nullcone": {"variant": "grw_cone"},
            "immersion": {"family": "grw_graph", "height": "0.8 + 0.1*cos(x0)*sin(x1)"},
            "grid": [{"min": 0.3, "max": 2.8, "count": 12},
                     {"min": -3.0, "max": 3.0, "count": 12}],
            "checks": ["all"],
        }
        for fiber in ("sphere", "hyperbolic")
        for name, warping in warpings.items()
    ]


def scene_lines():
    configs = list(builtin_scenes().values()) + [s["config"] for s in _stored("dense-grid")]
    configs += refusal_configs() + curved_fiber_configs()
    for config in configs:
        for seed in SEEDS:
            report = cli.run(config, seed=seed)
            for kind, emit in (("scene", cli.emit_json), ("csv", cli.emit_csv)):
                digest = hashlib.sha256(emit(report).encode()).hexdigest()
                yield f"{kind} {config['name']} seed {seed} {digest}"


def _outcome(fn, *args) -> str:
    """fn(*args), or the typed error it raises."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError, conformal.InverseError) as err:  # a typed rejection
        return f"rejected {type(err).__name__}: {err}"


def _report(scene, x) -> str:
    rep = extrinsic.point_report(scene.im, x)
    fields = " ".join(_hex(getattr(rep, k)) for k in extrinsic.ROW_FIELDS)
    return f"{fields} {rep.trapped_class}"


def _curvature(scene, lam, samples) -> str:
    res = conformal.conformal_curvature_check(scene.im, lam, samples)
    return " ".join(f"{k}={_hex(v)}" for k, v in res.items())


def _map(scene, x) -> str:
    return " ".join(_hex(v) for v in conformal.conformal_map(scene.cspec, scene.im, x))


def _factorization(scene, samples) -> str:
    return _hex(conformal.factorization_check(scene.im, scene.cspec, samples))


def pointwise_lines():
    for entry in _stored("pointwise"):
        scene = cli.parse_scene(entry["config"])
        name, pool = entry["config"]["name"], np.array(entry["pool"], dtype=float)
        for i, x in enumerate(pool):
            yield f"point {name} {i} {_outcome(_report, scene, x)}"
        if scene.cspec is None:
            continue
        lam = conformal.factor_field(scene.cspec, scene.im)
        for i in range(0, len(pool), CURVATURE_SAMPLES):
            samples = list(pool[i:i + CURVATURE_SAMPLES])
            yield f"curvature {name} {i} {_outcome(_curvature, scene, lam, samples)}"
        if entry["maps"] is not None:
            for i, x in enumerate(pool):
                yield f"map {name} {i} {_outcome(_map, scene, x)}"
        if entry["factorization"] is not None:
            samples = list(pool[:FACTORIZATION_SAMPLES])
            yield f"factorization {name} {_outcome(_factorization, scene, samples)}"


def mixed_samples(points, seed) -> list:
    """The sample set of the seed in the module docstring, from the grid
    points (N, n)."""
    rng = np.random.default_rng(seed)
    polar = np.flatnonzero(points[:, 0] == 0.0)
    polar = rng.choice(polar, size=1 + seed % 2, replace=False)
    others = np.flatnonzero(points[:, 0] != 0.0)
    others = rng.choice(others, size=MIXED_SAMPLES - len(polar), replace=False)
    return list(points[rng.permutation(np.concatenate([polar, others]))])


def _grid_report_lines(scene, points):
    for i, x in enumerate(points):
        yield f"point {scene.name}-grid {i} {_outcome(_report, scene, np.array(x))}"


def grid_point_lines():
    for entry in _stored("dense-grid"):
        scene = cli.parse_scene(entry["config"])
        name = f"{scene.name}-grid"
        points = list(itertools.product(*scene.axes))
        yield from _grid_report_lines(scene, points)
        if scene.cspec is None:
            continue
        for i, x in enumerate(points):
            yield f"map {name} {i} {_outcome(_map, scene, np.array(x))}"
        lam = conformal.factor_field(scene.cspec, scene.im)
        for seed in SEEDS:
            samples = mixed_samples(np.array(points), seed)
            yield f"curvature {name}-mixed {seed} {_outcome(_curvature, scene, lam, samples)}"
            yield f"factorization {name}-mixed-{seed} {_outcome(_factorization, scene, samples)}"


def curved_fiber_lines():
    for config in curved_fiber_configs():
        scene = cli.parse_scene(config)
        yield from _grid_report_lines(scene, list(itertools.product(*scene.axes)))


def main() -> int:
    for lines in (scene_lines(), pointwise_lines(), grid_point_lines(), curved_fiber_lines()):
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
