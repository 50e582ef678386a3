"""Inputs, operations and reference checks of the three benchmark workloads.

Every input is generated here and handed to the program through its public
API: scene configurations go to ``cli.run`` and ``cli.emit_json``, chart
points go to ``extrinsic.point_report`` and the ``conformal`` checks.  The
configurations and the point pools are stored in ``reference/`` next to the
outputs they produced at the commit that defined the benchmark, so the inputs
stay fixed while the program changes.

Outputs are compared with the references as follows.  Exact: exit status,
suite verdicts and point counts, rejection reasons and points, trapped
classes, the set of suites and residual names.  Within ``ATOL`` (scaled by
``max(1, |reference|)``): row fields, suite residuals, and the values the
pointwise calls return.  Bit identity is not required, because a change of
summation order or of ``math`` against numpy elementary functions may move
the last ulp.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import gauge

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("suite-all", "dense-grid", "pointwise")

# cli.run receives seed % REF_SEEDS; the references hold one suite verdict
# set per such run seed (only the appendix samples depend on it)
REF_SEEDS = 8
ATOL = 1e-8

ROW_FIELDS = (
    "u",
    "grad_u_sq",
    "laplacian_u",
    "theta_xi",
    "theta_eta",
    "H_sq",
    "scal_formula",
    "scal_intrinsic",
)
REJECTION_REASONS = (
    "vertex_exclusion",
    "denominator_zero",
    "off_cone",
    "chart_singularity",
)

# dense-grid: one scene per ambient family, regridded 20x20 with the polar
# axis widened to start at 0, where the chart is singular
DENSE_SCENES = ("grw-cosh", "mink-slice", "ds-alpha0")
DENSE_COUNT = 20

# pointwise: points per scene in the stored pool, and the calls of one pass
POOL_SIZE = 48
POOL_SEED = 20250818
REPORTS_PER_SCENE = 100
MAPS_PER_PASS = 40
MAP_SCENE = "cyl-arctan"
CURVATURE_SAMPLES = 5
FACTORIZATION_SAMPLES = 6
FACTORIZATION_CONES = ("minkowski_cone", "desitter_alpha")


def close(got: float, want: float) -> bool:
    if got == want or (math.isnan(got) and math.isnan(want)):
        return True
    return abs(got - want) <= ATOL * max(1.0, abs(want))


def close_all(got, want) -> bool:
    got, want = list(got), list(want)
    return len(got) == len(want) and all(
        close(float(g), float(w)) for g, w in zip(got, want)
    )


def dense_grid_configs(catalog):
    """The dense-grid scenes, derived from the built-in catalog."""
    out = []
    for name in DENSE_SCENES:
        cfg = catalog[name]
        polar, other = cfg["grid"]
        cfg["grid"] = [
            {"min": 0.0, "max": polar["max"], "count": DENSE_COUNT},
            {"min": other["min"], "max": other["max"], "count": DENSE_COUNT},
        ]
        out.append(cfg)
    return out


def load_reference(workload):
    path = REFERENCE_DIR / f"{workload}.json"
    with path.open() as fh:
        return json.load(fh)


@dataclass
class PassResult:
    """What one pass did, and how long each of its operations took.

    ``op_ns`` leaves out the host probes that ran inside an operation (see
    ``gauge``); ``spans`` holds each operation's start and end.
    """

    op_ns: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    report_at: list = field(default_factory=list)  # indices of report operations
    points: int = 0
    useful: int = 0
    rejected: Counter = field(default_factory=Counter)
    failures: Counter = field(default_factory=Counter)
    on_op: object = None

    @property
    def attempted(self) -> int:
        return len(self.op_ns)

    def timed(self, fn, *args, report=False):
        """Run one operation; returns its outcome, None if it raised."""
        if report:
            self.report_at.append(len(self.op_ns))
        if self.on_op is not None:
            self.on_op()
        error = None
        probed = gauge.sampler.spent
        start = perf_counter_ns()
        try:
            out = fn(*args)
        except Exception as err:  # one failed operation must not end the run
            out, error = None, err
        end = perf_counter_ns()
        self.op_ns.append(end - start - (gauge.sampler.spent - probed))
        self.spans.append((start, end))
        if error is not None:
            self.failures[f"raised {type(error).__name__}"] += 1
        return out

    def scaled_ns(self) -> list:
        """Each operation's time at reference host speed, in ns."""
        return [gauge.sampler.scale(ns, *span) for ns, span in zip(self.op_ns, self.spans)]

    def check(self, problem):
        if problem is not None:
            self.failures[problem] += 1


# -- grid workloads ------------------------------------------------------------


def _scene_problem(rep, ref, run_seed):
    """None when a parsed report matches its reference, else what differs."""
    want = ref["runs"][run_seed]
    if rep["exit_status"] != want["exit_status"]:
        return "mismatch exit_status"
    rows = rep["rows"]
    if len(rows) != len(ref["rows"]):
        return "mismatch row count"
    for row, (point, values, klass) in zip(rows, ref["rows"]):
        if row["point"] != point or row["trapped_class"] != klass:
            return "mismatch row point or class"
        if not close_all((row[k] for k in ROW_FIELDS), values):
            return "mismatch row fields"
    rejections = [[r["point"], r["reason"]] for r in rep["rejections"]]
    if rejections != ref["rejections"]:
        return "mismatch rejections"
    return _suites_problem(rep["suites"], want["suites"])


def _suites_problem(got, want):
    if list(got) != list(want):
        return "mismatch suite names"
    for name, w in want.items():
        g = got[name]
        same = (
            g.get("passed") == w.get("passed")
            and g.get("points") == w.get("points")
            and ("unevaluable" in g) == ("unevaluable" in w)
        )
        gr, wr = g.get("residuals", {}), w.get("residuals", {})
        if not same or list(gr) != list(wr) or not close_all(gr.values(), wr.values()):
            return f"mismatch suite {name}"
    return None


def scene_summary(rep):
    """Rows, rejections and suites of a parsed report, as stored."""
    rows = [
        [r["point"], [r[k] for k in ROW_FIELDS], r["trapped_class"]]
        for r in rep["rows"]
    ]
    rejections = [[r["point"], r["reason"]] for r in rep["rejections"]]
    run = {"exit_status": rep["exit_status"], "suites": rep["suites"]}
    return rows, rejections, run


class GridWorkload:
    """Scene reports, as ``nullgeom suite`` makes them: run, then emit JSON."""

    def __init__(self, name, seed):
        self.ref = load_reference(name)
        self.configs = [s["config"] for s in self.ref["scenes"]]
        self.run_seed = seed % REF_SEEDS
        # reports are byte-deterministic: a text seen before needs no new check
        self.checked = {}  # scene index -> (text, problem, rows, rejections)

    def prepare(self):
        from nullgeom import cli

        self.cli = cli

    def run_pass(self, on_op=None) -> PassResult:
        cli, res = self.cli, PassResult(on_op=on_op)
        for i, (config, ref) in enumerate(zip(self.configs, self.ref["scenes"])):
            text = res.timed(self._scene, cli, config, report=True)
            res.points += math.prod(axis["count"] for axis in config["grid"])
            if text is None:
                continue
            seen = self.checked.get(i)
            if seen is None or seen[0] != text:
                rep = json.loads(text)
                reasons = Counter(r["reason"] for r in rep["rejections"])
                seen = (text, _scene_problem(rep, ref, self.run_seed), len(rep["rows"]), reasons)
                self.checked[i] = seen
            res.check(seen[1])
            res.useful += seen[2]
            res.rejected.update(seen[3])
        return res

    def _scene(self, cli, config):
        return cli.emit_json(cli.run(config, seed=self.run_seed))


# -- pointwise -------------------------------------------------------------------


class PointwiseWorkload:
    """Single-point calls in a seeded order over the stored point pools.

    A pass is the same sequence every time: ``point_report`` at pool points
    of every built-in scene, ``conformal_map`` on the quadrature-driven
    cylinder scene, one ``conformal_curvature_check`` of seeded pool samples
    per scene with a split map, and one ``factorization_check`` per scene
    whose cone has the graph-embedding factorization.
    """

    def __init__(self, name, seed):
        self.ref = load_reference(name)
        self.configs = [s["config"] for s in self.ref["scenes"]]
        self.pools = [
            [np.array(p, dtype=float) for p in s["pool"]] for s in self.ref["scenes"]
        ]
        self.ops = self._sequence(np.random.default_rng(seed))

    def _sequence(self, rng):
        scenes = self.ref["scenes"]
        ops = []
        for s, sc in enumerate(scenes):
            ops += [("report", s, int(i)) for i in rng.integers(POOL_SIZE, size=REPORTS_PER_SCENE)]
            if sc["curvature"] is not None:
                pick = rng.choice(POOL_SIZE, size=CURVATURE_SAMPLES, replace=False)
                ops.append(("curvature", s, tuple(sorted(int(i) for i in pick))))
            if sc["factorization"] is not None:
                ops.append(("factorization", s, None))
            if sc["maps"] is not None:
                ops += [("map", s, int(i)) for i in rng.integers(POOL_SIZE, size=MAPS_PER_PASS)]
        return [ops[i] for i in rng.permutation(len(ops))]

    def prepare(self):
        from nullgeom import cli, conformal, extrinsic

        self.conformal, self.extrinsic = conformal, extrinsic
        self.scenes = [cli.parse_scene(cfg) for cfg in self.configs]
        self.factors = [
            None if sc.cspec is None else conformal.factor_field(sc.cspec, sc.im)
            for sc in self.scenes
        ]

    def run_pass(self, on_op=None) -> PassResult:
        res = PassResult(on_op=on_op)
        for kind, s, arg in self.ops:
            ref = self.ref["scenes"][s]
            fn, args = self._call(kind, s, arg)
            out = res.timed(fn, *args, report=kind == "report")
            if kind == "report":
                res.points += 1
            if out is None:
                continue
            if kind == "report":
                res.useful += 1
                values = [getattr(out, k) for k in ROW_FIELDS]
                want_values, want_class = ref["reports"][arg]
                ok = out.trapped_class == want_class and close_all(values, want_values)
            elif kind == "map":
                ok = close_all(np.ravel(out), ref["maps"][arg])
            elif kind == "curvature":
                want = {
                    key: max(ref["curvature"][i][key] for i in arg)
                    for key in ref["curvature"][arg[0]]
                }
                ok = list(out) == list(want) and close_all(out.values(), want.values())
            else:
                ok = close(float(out), float(ref["factorization"]))
            res.check(None if ok else f"mismatch {kind}")
        return res

    def _call(self, kind, s, arg):
        sc, pool = self.scenes[s], self.pools[s]
        conformal = self.conformal
        if kind == "report":
            return self.extrinsic.point_report, (sc.im, pool[arg])
        if kind == "map":
            return conformal.conformal_map, (sc.cspec, sc.im, pool[arg])
        if kind == "curvature":
            samples = [pool[i] for i in arg]
            return conformal.conformal_curvature_check, (sc.im, self.factors[s], samples)
        samples = pool[:FACTORIZATION_SAMPLES]
        return conformal.factorization_check, (sc.im, sc.cspec, samples)


def make(name, seed):
    if name == "pointwise":
        return PointwiseWorkload(name, seed)
    return GridWorkload(name, seed)
