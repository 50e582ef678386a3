"""Benchmark of the nullgeom engine: one workload, measured end to end or traced.

Run from the root of a checkout, which holds the package under ``src/``:

    python3 perfbench/run.py --workload suite-all --seed 1 --seconds 30 --trace 0

Workloads (see README.md next to this file for why each exists):

    suite-all   the 11 built-in scenes through cli.run and cli.emit_json
    dense-grid  three built-in scenes regridded 20x20, polar axis from 0
    pointwise   single-point point_report and conformal calls, seeded order

The loop is closed and serial: one process, one caller, each call waiting
for the previous one, and the engine's grid evaluation left at one thread.
Passes over the workload repeat for ``--seconds`` (at least one pass), each
running the same sequence of operations.  Every operation's output is
compared with the stored references; an operation that raises or differs
counts as failed and the run goes on.  Times are scaled to a reference host
speed measured by probes taken while the operations run (see ``gauge.py``),
and each operation counts at its median over the passes.

With ``--trace 0`` the last line of output carries the end-to-end metrics.
With ``--trace 1`` the same untraced passes run, then one more pass with
hooks around every module's public calls, and the last line carries the
per-layer metrics; the spans go to ``.perfbench-out/``.  Lines before the
last one give the environment, every metric with its unit and sample
count, and the failures by kind.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-out"

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(SRC))
import gauge  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_RUNS = 5

# a fresh interpreter does what every command-line call does before any
# grid point: import the front end and parse the scene configurations
SETUP_CODE = """\
import json, sys
from nullgeom import cli
for doc in json.load(sys.stdin):
    cli.parse_scene(doc)
"""
# Importing is CPU work of another kind than the engine's, and on a shared
# host its speed varies more than the gauge probe's (the same import took
# about 0.6 s and 1 s half an hour apart, while the probe moved by 15%).  So
# each set-up interpreter is scaled by a fresh interpreter run just after it
# that imports the same libraries and none of the repository's code.
REFERENCE_SETUP_CODE = "import numpy, scipy.integrate"
REFERENCE_SETUP_S = 0.6


def environment():
    import numpy
    import scipy
    from nullgeom import taylor

    backend = getattr(taylor, "backend_name", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": backend() if backend else "n/a",
        "machine": platform.machine(),
    }


class SetupTimer:
    """Times fresh interpreters that import the front end and parse configs."""

    def __init__(self, configs):
        self.payload = json.dumps(configs)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")])
        )
        self.times = []
        self._interpreter()  # the first one also writes the bytecode caches

    def _interpreter(self, code=SETUP_CODE) -> float:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code],
            input=self.payload,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        took = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{done.stderr}")
        return took

    def sample(self) -> float:
        """Time one more interpreter, scaled by the reference one run just
        after it; returns the wall time of both in s."""
        took = self._interpreter()
        reference = self._interpreter(REFERENCE_SETUP_CODE)
        self.times.append(took * REFERENCE_SETUP_S / reference)
        return took + reference


def run_passes(wl, seconds, setup=None):
    """Passes until the next one would end more than half a pass late.

    The set-up interpreters run before the first passes, spread over the run
    like the passes themselves; the time they take does not count against
    ``seconds``.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not passes or time.perf_counter() + last / 2 < deadline:
        if setup is not None and len(setup.times) < SETUP_RUNS:
            deadline += setup.sample()
        start = time.perf_counter()
        passes.append(wl.run_pass())
        last = time.perf_counter() - start
    while setup is not None and len(setup.times) < SETUP_RUNS:
        setup.sample()
    return passes


def quantile(values, q):
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_times(passes):
    """Each operation's time, in s: its median over the passes of its
    measured time scaled to reference host speed (see ``gauge``)."""
    return [statistics.median(ts) / 1e9 for ts in zip(*(p.scaled_ns() for p in passes))]


def end_to_end(passes, setup, rss_mb):
    ops = op_times(passes)
    reports = [ops[i] for i in passes[0].report_at]
    latencies = [t * 1e6 for t in reports]
    n, k = len(passes), len(latencies)
    per_op = f"each of {len(ops)} operations at its median of {n} passes"
    return [
        ("setup_s", statistics.median(setup.times), "s", f"median of {SETUP_RUNS} fresh interpreters"),
        ("wall_s", sum(ops), "s", per_op),
        ("points_per_s", passes[0].points / sum(reports), "1/s", per_op),
        ("report_us.p50", quantile(latencies, 50), "us", f"{k} reports, median of {n}"),
        ("report_us.p99", quantile(latencies, 99), "us", f"{k} reports, median of {n}"),
        ("peak_rss_mb", rss_mb, "MB", "workload process"),
    ]


def per_layer(tracer, traced, untraced_wall_s):
    """Per-layer metrics of one traced pass; per point = per attempted point."""
    t, points = tracer, traced.points

    def per_point(ns):
        return ns / 1e3 / points

    def mean(name, scale, kind="total"):
        calls = t.calls(name)
        return t.time_ns(name, kind) / scale / calls if calls else 0.0

    metrics = [
        ("taylor.mul_per_point", t.calls("taylor.mul") / points, "count"),
        ("taylor.mul_us", mean("taylor.mul", 1e3), "us"),
        ("taylor.eval_series_us_per_point", per_point(t.time_ns("taylor.eval_series")), "us"),
        ("taylor.jet_eval_calls", t.calls("taylor.jet_eval"), "count"),
        ("taylor.jet_eval_us", mean("taylor.jet_eval", 1e3), "us"),
        ("spacetime.ambient_inner_per_point", t.calls("spacetime.ambient_inner") / points, "count"),
        (
            "spacetime.ambient_inner_us_per_point",
            per_point(t.time_ns("spacetime.ambient_inner", "self")),
            "us",
        ),
        (
            "nullcone.require_on_cone_us_per_point",
            per_point(t.time_ns("nullcone.require_on_cone")),
            "us",
        ),
        *[
            (f"nullcone.rejected.{reason}", traced.rejected[reason], "count")
            for reason in workloads.REJECTION_REASONS
        ],
        ("nullcone.useful_ratio", traced.useful / points, "ratio"),
        (
            "immersion.chart_geometry_us_per_point",
            per_point(t.time_ns("immersion.chart_geometry", "self")),
            "us",
        ),
        ("immersion.scal_us_per_point", per_point(t.time_ns("immersion.scal", "stage")), "us"),
        ("immersion.chart_geometry_calls", t.calls("immersion.chart_geometry"), "count"),
        *[
            (f"extrinsic.{stage}_us_per_point", per_point(t.time_ns(f"extrinsic.{stage}", "stage")), "us")
            for stage in ("frame", "expansions", "frame_residual", "shape_residual")
        ],
        ("conformal.map_ms", mean("conformal.map", 1e6), "ms"),
        ("conformal.quad_evals", t.quad_evals, "count"),
        ("conformal.factorization_ms", mean("conformal.factorization", 1e6), "ms"),
        (
            "conformal.inverse_iterations",
            t.under.get(("immersion.chart_geometry", "conformal.local_inverse"), 0),
            "count",
        ),
        ("conformal.curvature_check_ms", mean("conformal.curvature_check", 1e6), "ms"),
        ("conformal.factor_check_ms", mean("conformal.factor_check", 1e6), "ms"),
        ("cli.parse_ms", mean("cli.parse", 1e6), "ms"),
        ("cli.run_self_ms", mean("cli.run", 1e6, "self"), "ms"),
        ("cli.emit_ms", mean("cli.emit", 1e6), "ms"),
        ("trace.overhead_ratio", sum(traced.scaled_ns()) / 1e9 / untraced_wall_s, "ratio"),
    ]
    note = f"one traced pass, {points} points"
    return [(name, value, unit, note) for name, value, unit in metrics]


def traced_pass(wl, tracer):
    tracer.install()
    try:
        wl.prepare()
        return wl.run_pass(on_op=tracer.next_op)
    finally:
        tracer.uninstall()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "nullgeom" / "__init__.py").is_file():
        print(f"error: no nullgeom package under {SRC}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed)
    env = environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))

    setup = None if args.trace else SetupTimer(wl.configs)
    wl.prepare()
    with gauge.sampler:
        passes = run_passes(wl, args.seconds, setup)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = Tracer()
            traced = traced_pass(wl, tracer)
            passes.append(traced)
    if args.trace:
        rows = per_layer(tracer, traced, sum(op_times(passes[:-1])))
        out = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(out, {"workload": args.workload, "seed": args.seed, "environment": env})
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
        if tracer.missing:
            print("hooks without a target: " + ", ".join(tracer.missing))
    else:
        rows = end_to_end(passes, setup, rss_mb)

    attempted = sum(p.attempted for p in passes)
    failures = Counter()
    for p in passes:
        failures.update(p.failures)
    failed = sum(failures.values())
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} passes={len(passes)}"
    )
    probe_us = statistics.median(gauge.sampler.probe_ns) / 1e3
    raw_s = statistics.median(sum(p.op_ns) for p in passes) / 1e9
    print(f"  host: median probe {probe_us:.1f} us against {gauge.REFERENCE_NS / 1e3:.1f} us "
          f"of reference; unscaled median pass {raw_s:.4f} s")
    for name, value, unit, note in rows:
        print(f"  {name:<40} {value:>16.6f} {unit:<6} {note}")
    print(f"  {'failed_ratio':<40} {failed / attempted:>16.6f} {'ratio':<6} "
          f"{failed} of {attempted} operations")
    for kind, count in sorted(failures.items()):
        print(f"  failure: {kind} x{count}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
