"""Write the benchmark's reference outputs from the current source tree.

    python3 perfbench/make_reference.py [--workload NAME]

The references pin both the inputs (scene configurations, point pools) and
the outputs the engine gave for them, using the repository's own ``cli.run``
and public functions.  Regenerate them only in a change that redefines the
benchmark, never in one that claims a speed-up.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as w  # noqa: E402
from nullgeom import cli, conformal, extrinsic, scenes  # noqa: E402


def grid_reference(configs):
    out = []
    for config in configs:
        runs, first = [], None
        for seed in range(w.REF_SEEDS):
            rep = json.loads(cli.emit_json(cli.run(config, seed=seed)))
            rows, rejections, run = w.scene_summary(rep)
            if first is None:
                first = (rows, rejections)
            elif (rows, rejections) != first:
                raise RuntimeError(f"{config['name']}: rows depend on the seed")
            runs.append(run)
        out.append({"config": config, "rows": first[0], "rejections": first[1], "runs": runs})
        print(f"{config['name']}: {len(first[0])} rows, {len(first[1])} rejections, "
              f"exit {[r['exit_status'] for r in runs]}")
    return out


def pointwise_reference(configs):
    rng = np.random.default_rng(w.POOL_SEED)
    out = []
    for config in configs:
        sc = cli.parse_scene(config)
        lo = [axis["min"] for axis in config["grid"]]
        hi = [axis["max"] for axis in config["grid"]]
        pool = [rng.uniform(lo, hi) for _ in range(w.POOL_SIZE)]
        reports = []
        for x in pool:
            rep = extrinsic.point_report(sc.im, x)
            reports.append([[float(getattr(rep, k)) for k in w.ROW_FIELDS], rep.trapped_class])
        entry = {
            "config": config,
            "pool": [x.tolist() for x in pool],
            "reports": reports,
            "maps": None,
            "curvature": None,
            "factorization": None,
        }
        if config["name"] == w.MAP_SCENE:
            entry["maps"] = [
                np.ravel(conformal.conformal_map(sc.cspec, sc.im, x)).tolist() for x in pool
            ]
        if sc.cspec is not None:
            lam = conformal.factor_field(sc.cspec, sc.im)
            entry["curvature"] = [
                conformal.conformal_curvature_check(sc.im, lam, [x]) for x in pool
            ]
        if sc.cone.variant in w.FACTORIZATION_CONES:
            samples = pool[: w.FACTORIZATION_SAMPLES]
            entry["factorization"] = conformal.factorization_check(sc.im, sc.cspec, samples)
        out.append(entry)
        print(f"{config['name']}: pool of {len(pool)} points")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=w.WORKLOADS)
    args = parser.parse_args()
    catalog = list(scenes.builtin_scenes().values())
    for name in [args.workload] if args.workload else w.WORKLOADS:
        if name == "pointwise":
            data = pointwise_reference(catalog)
        elif name == "dense-grid":
            data = grid_reference(w.dense_grid_configs(scenes.builtin_scenes()))
        else:
            data = grid_reference(catalog)
        w.REFERENCE_DIR.mkdir(exist_ok=True)
        with (w.REFERENCE_DIR / f"{name}.json").open("w") as fh:
            json.dump({"scenes": data}, fh, separators=(",", ":"))
            fh.write("\n")


if __name__ == "__main__":
    main()
