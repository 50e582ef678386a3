"""Check that the traced counts repeat exactly and do not follow the seed.

    python3 perfbench/check_seeds.py [--seeds 1 2]

Runs ``run.py --trace 1`` (with the shortest measurement) per workload: the
count metrics must be identical when the same seed runs twice.  On the grid
workloads the counts fixed by the grid -- series products and ambient inner
products per point, rejections per reason -- must also be identical under two
different seeds, which move only the appendix samples.  Exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
GRID_FIXED = (
    "taylor.mul_per_point",
    "spacetime.ambient_inner_per_point",
    *(f"nullcone.rejected.{r}" for r in workloads.REJECTION_REASONS),
)


def counts(workload, seed):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    a, b = parser.parse_args().seeds
    ok = True
    for workload in workloads.WORKLOADS:
        first, again = counts(workload, a), counts(workload, a)
        if first != again:
            ok = False
            print(f"{workload}: counts differ between two runs of seed {a}")
        if workload != "pointwise":
            other = counts(workload, b)
            for name in GRID_FIXED:
                if first[name] != other[name]:
                    ok = False
                    print(f"{workload}: {name} = {first[name]} (seed {a}), "
                          f"{other[name]} (seed {b})")
        print(f"{workload}: " + ", ".join(f"{k}={v:g}" for k, v in first.items()))
    print("counts repeat exactly" if ok else "counts differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
