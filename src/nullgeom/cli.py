"""Command-line front end: scene configuration, grid runs, check suites,
and deterministic report emission.

A scene configuration is a JSON object:

    {
      "name": "mink-h2",
      "spacetime": {"kind": "minkowski", "n": 2},
      "nullcone":  {"variant": "minkowski_cone"},
      "immersion": {"family": "psi_f_minkowski", "f": "1 + 0.3*x0**2"},
      "grid":      [{"min": -1.5, "max": 1.5, "count": 20}, ...],
      "checks":    ["all"],
      "tolerances": {"frame": 1e-9},            # optional overrides
      "expect":    {"theta_xi": 1.0},           # optional per-row pins
      "seed":      0,                           # optional, default 0
      "output":    {"path": "out.json", "format": "json"}   # optional
    }

Immersion families: psi_f_minkowski (f), psi_f_desitter_alpha (f),
cylinder_warped (f), sphere_slice (c), grw_graph (height), hxr (profile).
Scalar parameters are numbers or expression strings in x0..x{n-1} over the
jet vocabulary.  Alternatively "chart" gives one expression per ambient
coordinate, with an optional "domain" of per-axis bounds.

"checks" lists suite names (frame, shape, expansions, trapped, conformal,
appendix); "all" expands to every suite applicable to the scene's model and
cone (`nullcone.CONE_RULES` holds the per-cone facts), and requesting an
inapplicable suite by name is a configuration error.  When the conformal
suite is requested, the grid pass evaluates the pullback identity of the
split map for every row, from the chart geometry the row was built on, and
flags the rows whose split-map image leaves the model space; the suite
reads that per-row diagnostic for its first 40 evaluated points and drops
the flagged ones.  The appendix checks the conformal curvature identities
at up to five evaluated grid points, drawn without replacement by the
scene's seed and evaluated as one batch.  The grid is
evaluated on the calling thread as one batch through the same pipeline that
evaluates a single point, in chunks of `GRID_CHUNK` points only where it is
larger (the bound on a batch's memory; every built-in grid fits in one).
A point the batch rejects keeps its column's typed error, and the others
are evaluated again as one batch; no point is evaluated alone, and
every point comes out exactly as it would alone.  Rows and rejections
are reported in grid order, so identical configurations produce
byte-identical output.

Reports are plain JSON (or CSV rows); `json.loads` reads a JSON report
back, infinities included.

Exit codes: 0 every requested suite passed, 1 a suite exceeded its
tolerance, 2 configuration error (an expression that does not compile and
a number too large for a float among them, caught before any grid point
is evaluated), 3 runtime degeneracy left a requested suite with nothing
to evaluate.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import conformal, extrinsic, scenes
from .conformal import ConformalMapSpec, DegeneracyError, EmbeddingRangeError, InverseError
from .extrinsic import (ROW_FIELDS, TRAPPED_CLASSES, ExtrinsicPoint, FrameDegeneracyError,
                        closed_forms)
from .immersion import Immersion, MetricSignatureError
from .nullcone import NullconeSpec, PointRejected
from .spacetime import AmbientModel, WarpingFunction
from .taylor import DomainError, SmoothMap, as_value, column_max, column_results, parse_expression

__all__ = [
    "ConfigError",
    "SuiteUnevaluable",
    "DEFAULT_TOLERANCES",
    "SUITE_NAMES",
    "parse_scene",
    "run",
    "emit_json",
    "emit_csv",
    "main",
]

EXIT_PASS = 0
EXIT_SUITE_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_DEGENERATE = 3

SUITE_NAMES = ("frame", "shape", "expansions", "trapped", "conformal", "appendix")

DEFAULT_TOLERANCES = {
    "frame": 1e-9,
    "shape": 1e-6,
    "expansions": 1e-8,
    "gauss": 1e-5,
    "trapped_eps": extrinsic.MARGINAL_EPS,
    "factor": 1e-8,
    "factorization": 1e-7,
    "exactness": 1e-8,
    "appendix": 1e-5,
    "expect": 1e-6,
}

_CONFIG_KEYS = frozenset(
    {
        "name",
        "spacetime",
        "nullcone",
        "immersion",
        "grid",
        "checks",
        "tolerances",
        "expect",
        "seed",
        "output",
    }
)

_IMMERSION_KEYS = frozenset(
    {"family", "f", "c", "height", "profile", "chart", "domain", "name"}
)

# at most this many evaluated grid points feed the conformal factor check;
# the factorization round trip runs on the first few of them
_CONFORMAL_SAMPLE_CAP = 40
_FACTORIZATION_SAMPLES = 6
_APPENDIX_SAMPLES = 5

# at most this many grid points are evaluated together as one batch; it
# bounds the memory of a large grid, and every built-in grid fits in one
GRID_CHUNK = 512

class ConfigError(ValueError):
    """A scene configuration that cannot be run as requested."""


class SuiteUnevaluable(RuntimeError):
    """A requested suite had nothing left to evaluate at runtime."""


@dataclass
class Scene:
    """A parsed, validated scene ready to run."""

    name: str
    model: AmbientModel
    cone: NullconeSpec
    im: Immersion
    family: Optional[str]
    axes: list
    checks: tuple
    selectors: tuple
    gauss_shift: Optional[float]
    cspec: Optional[ConformalMapSpec]
    tolerances: dict
    expect: dict
    seed: int
    echo: dict


# -- configuration parsing --------------------------------------------------


def _expect_mapping(doc, where):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    return doc


def _expect_number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ConfigError(f"{where} is too large for a float") from None


def _expect_interval(value, where):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where} must be a [lo, hi] pair")
    return (_expect_number(value[0], f"{where}[0]"), _expect_number(value[1], f"{where}[1]"))


def _parse_spacetime(doc) -> AmbientModel:
    doc = _expect_mapping(doc, "spacetime")
    kind = doc.get("kind")
    n = doc.get("n")
    if not isinstance(kind, str):
        raise ConfigError("spacetime.kind must be a string")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ConfigError("spacetime.n must be an integer")
    warping = None
    wdoc = doc.get("warping")
    if wdoc is not None:
        wdoc = _expect_mapping(wdoc, "spacetime.warping")
        kwargs = {}
        if "params" in wdoc:
            if not isinstance(wdoc["params"], (list, tuple)):
                raise ConfigError("spacetime.warping.params must be a list of numbers")
            kwargs["params"] = tuple(wdoc["params"])
        if "domain" in wdoc:
            kwargs["domain"] = _expect_interval(wdoc["domain"], "spacetime.warping.domain")
        if "expr" in wdoc:
            kwargs["expr"] = wdoc["expr"]
        try:
            warping = WarpingFunction(wdoc.get("kind"), **kwargs)
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"spacetime.warping: {err}") from None
    try:
        return AmbientModel(
            kind, n, warping=warping, t0=doc.get("t0"), fiber=doc.get("fiber")
        )
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"spacetime: {err}") from None


def _parse_nullcone(model: AmbientModel, doc) -> NullconeSpec:
    doc = _expect_mapping(doc, "nullcone")
    variant = doc.get("variant")
    if not isinstance(variant, str):
        raise ConfigError("nullcone.variant must be a string")
    kwargs = {}
    if doc.get("alpha") is not None:
        kwargs["alpha"] = _expect_number(doc["alpha"], "nullcone.alpha")
    if doc.get("branch") is not None:
        kwargs["branch"] = doc["branch"]
    if doc.get("component") is not None:
        kwargs["component"] = doc["component"]
    try:
        return NullconeSpec(model, variant, **kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"nullcone: {err}") from None


def _scalar_param(doc, key, n_vars):
    """A family parameter: number, or expression string in x0..x{n_vars-1}."""
    if key not in doc:
        raise ConfigError(f"immersion family needs the parameter {key!r}")
    value = doc[key]
    if isinstance(value, bool):
        raise ConfigError(f"immersion.{key} must be a number or expression string")
    if isinstance(value, (int, float)):
        return _expect_number(value, f"immersion.{key}")
    if isinstance(value, str):
        names = [f"x{i}" for i in range(n_vars)]
        try:
            return parse_expression(value, names)
        except ValueError as err:
            raise ConfigError(f"immersion.{key}: {err}") from None
    raise ConfigError(f"immersion.{key} must be a number or expression string")


def _build_immersion(model: AmbientModel, cone: NullconeSpec, doc):
    doc = _expect_mapping(doc, "immersion")
    unknown = set(doc) - _IMMERSION_KEYS
    if unknown:
        raise ConfigError(f"immersion has unknown keys {sorted(unknown)}")
    family = doc.get("family")
    if family is None and "chart" not in doc:
        raise ConfigError("immersion needs either a family or a chart")
    if family is not None:
        if family == "psi_f_minkowski":
            im = scenes.psi_f_minkowski(model.n, _scalar_param(doc, "f", model.n))
        elif family == "psi_f_desitter_alpha":
            if cone.variant != "desitter_alpha":
                raise ConfigError(
                    "psi_f_desitter_alpha needs the desitter_alpha nullcone"
                )
            im = scenes.psi_f_desitter(
                model.n, cone.alpha, _scalar_param(doc, "f", model.n), cone.component
            )
        elif family == "cylinder_warped":
            fn = _scalar_param(doc, "f", 1)
            profile = fn if isinstance(fn, float) else (lambda t, _fn=fn: _fn([t]))
            im = scenes.cylinder_immersion(model.n, profile)
        elif family == "sphere_slice":
            c = _expect_number(doc.get("c"), "immersion.c")
            im = scenes.slice_immersion(model.n, c)
        elif family == "grw_graph":
            height = _scalar_param(doc, "height", model.n)
            if isinstance(height, float):
                value = height
                height = lambda cs, _v=value: _v  # noqa: E731
            im = scenes.grw_graph(model, height)
        elif family == "hxr":
            fn = _scalar_param(doc, "profile", 1)
            if isinstance(fn, float):
                profile = lambda s, _v=fn: _v  # noqa: E731
            else:
                profile = lambda s, _fn=fn: _fn([s])  # noqa: E731
            im = scenes.hxr_immersion(profile)
        else:
            raise ConfigError(f"unknown immersion family {family!r}")
        if im.model != model:
            raise ConfigError(
                f"family {family!r} builds over a different spacetime "
                f"than the configured {model.kind!r}"
            )
        if im.target_cone != cone:
            raise ConfigError(
                f"family {family!r} lands on a different nullcone "
                f"than the configured {cone.variant!r}"
            )
        return im, family
    exprs = doc["chart"]
    if not isinstance(exprs, list) or not all(isinstance(s, str) for s in exprs):
        raise ConfigError("immersion.chart must be a list of expression strings")
    if len(exprs) != model.coord_count:
        raise ConfigError(
            f"immersion.chart needs {model.coord_count} component expressions"
        )
    names = [f"x{i}" for i in range(model.n)]
    try:
        fns = [parse_expression(s, names) for s in exprs]
    except ValueError as err:
        raise ConfigError(f"immersion.chart: {err}") from None
    domain = None
    if doc.get("domain") is not None:
        bounds = doc["domain"]
        if not isinstance(bounds, list) or len(bounds) != model.n:
            raise ConfigError(f"immersion.domain needs {model.n} [lo, hi] pairs")
        domain = tuple(
            _expect_interval(pair, f"immersion.domain[{i}]") for i, pair in enumerate(bounds)
        )

    def fn(xs, _fns=fns):
        return [f(xs) for f in _fns]

    map_fn = SmoothMap(
        fn, model.n, model.coord_count, doc.get("name", "chart"), domain=domain
    )
    return Immersion(map_fn, model, cone), None


def _parse_grid(doc, dim):
    if not isinstance(doc, list) or len(doc) != dim:
        raise ConfigError(f"grid needs one axis object per chart coordinate ({dim})")
    axes = []
    for i, axis in enumerate(doc):
        axis = _expect_mapping(axis, f"grid[{i}]")
        lo = _expect_number(axis.get("min"), f"grid[{i}].min")
        hi = _expect_number(axis.get("max"), f"grid[{i}].max")
        count = axis.get("count")
        if isinstance(count, bool) or not isinstance(count, int):
            raise ConfigError(f"grid[{i}].count must be an integer")
        if count < 2:
            raise ConfigError(f"grid[{i}].count must be at least 2")
        if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
            raise ConfigError(f"grid[{i}] needs finite min < max")
        axes.append(np.linspace(lo, hi, count))
    return axes


def _applicable_suites(model: AmbientModel, cone: NullconeSpec):
    rules = cone.rules
    names = {"frame", "expansions"}
    if closed_forms(model, cone):
        names.add("shape")
    if rules.trapped:
        names.add("trapped")
    if rules.split is not None:
        names.update(("conformal", "appendix"))
    return tuple(s for s in SUITE_NAMES if s in names)


def _resolve_checks(requested, model, cone):
    if requested is None:
        requested = ["all"]
    if not isinstance(requested, list) or not all(
        isinstance(s, str) for s in requested
    ):
        raise ConfigError("checks must be a list of suite names")
    applicable = _applicable_suites(model, cone)
    chosen = set()
    for name in requested:
        if name == "all":
            chosen.update(applicable)
            continue
        if name not in SUITE_NAMES:
            raise ConfigError(f"unknown check suite {name!r}")
        if name not in applicable:
            raise ConfigError(
                f"suite {name!r} is not applicable to {model.kind}/{cone.variant}"
            )
        chosen.add(name)
    return tuple(s for s in SUITE_NAMES if s in chosen)


def _resolve_tolerances(doc, overrides):
    tols = dict(DEFAULT_TOLERANCES)
    for source, where in ((doc, "tolerances"), (overrides, "--tol")):
        if not source:
            continue
        mapping = _expect_mapping(source, where)
        for key, value in mapping.items():
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance {key!r}")
            value = _expect_number(value, f"{where}.{key}")
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{where}.{key} must be positive and finite")
            tols[key] = value
    return tols


def _parse_expect(doc):
    if doc is None:
        return {}
    doc = _expect_mapping(doc, "expect")
    expect = {}
    for key, value in doc.items():
        if key == "trapped_class":
            if value not in TRAPPED_CLASSES:
                raise ConfigError(f"expect.trapped_class {value!r} is not a class")
            expect[key] = value
        elif key in ROW_FIELDS:
            expect[key] = _expect_number(value, f"expect.{key}")
            if not math.isfinite(expect[key]):
                raise ConfigError(f"expect.{key} must be finite")
        else:
            raise ConfigError(f"unknown expect field {key!r}")
    return expect


def _gauss_shift(model, cone) -> Optional[float]:
    """Constant offset n(n-1)c in Scal = n(n-1)<H,H> + shift, where it is a theorem."""
    c = cone.rules.curvature
    return None if c is None else model.n * (model.n - 1) * c


def _conformal_spec(model, cone, family, axes):
    variant = cone.rules.split
    if family == "hxr":
        variant = "cylinder_to_HxR"  # a cylinder section over a hyperbola
    if variant is None:
        return None
    if variant == "lightcone_to_Hn":
        return ConformalMapSpec(variant, coordinate_index=model.coord_count - 1)
    if variant == "desitter_to_Sn":
        return ConformalMapSpec(variant)
    base = tuple(float(0.5 * (ax[0] + ax[-1])) for ax in axes)
    return ConformalMapSpec(variant, base_point=base)


def parse_scene(doc, tol_overrides=None, seed=None, checks=None) -> Scene:
    """Validate a configuration document and build the runnable scene."""
    doc = _expect_mapping(doc, "config")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"config has unknown keys {sorted(unknown)}")
    for key in ("spacetime", "nullcone", "immersion", "grid"):
        if key not in doc:
            raise ConfigError(f"config needs the key {key!r}")
    name = doc.get("name", "scene")
    if not isinstance(name, str):
        raise ConfigError("name must be a string")
    model = _parse_spacetime(doc["spacetime"])
    cone = _parse_nullcone(model, doc["nullcone"])
    im, family = _build_immersion(model, cone, doc["immersion"])
    axes = _parse_grid(doc["grid"], model.n)
    requested = doc.get("checks") if checks is None else checks
    resolved = _resolve_checks(requested, model, cone)
    tolerances = _resolve_tolerances(doc.get("tolerances"), tol_overrides)
    expect = _parse_expect(doc.get("expect"))
    if seed is None:
        seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError("seed must be an unsigned 64-bit integer")
    odoc = doc.get("output")
    if odoc is not None:
        if _expect_mapping(odoc, "output").get("format", "json") not in ("json", "csv"):
            raise ConfigError("output.format must be json or csv")
    echo = {
        "name": name,
        "spacetime": doc["spacetime"],
        "nullcone": doc["nullcone"],
        "immersion": doc["immersion"],
        "grid": doc["grid"],
        "checks": list(resolved),
        "tolerances": {k: tolerances[k] for k in DEFAULT_TOLERANCES},
        "expect": {k: expect[k] for k in sorted(expect)},
        "seed": seed,
    }
    return Scene(
        name=name,
        model=model,
        cone=cone,
        im=im,
        family=family,
        axes=axes,
        checks=resolved,
        selectors=closed_forms(model, cone),
        gauss_shift=_gauss_shift(model, cone),
        cspec=_conformal_spec(model, cone, family, axes),
        tolerances=tolerances,
        expect=expect,
        seed=seed,
        echo=echo,
    )


# -- grid evaluation ---------------------------------------------------------


def _frobenius(a):
    """np.linalg.norm of each (n, n) matrix, the batch axis first."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat))


def _shape_residual(pt: ExtrinsicPoint, selectors):
    worst = 0.0
    numeric = {}
    for which in selectors:
        normal = extrinsic.CLOSED_FORMS[which]
        if normal not in numeric:
            numeric[normal] = pt.shape_numeric(normal)
        diff = pt.shape_closed(which) - numeric[normal]
        worst = column_max(worst, _frobenius(diff))
    return as_value(worst)


def _expansion_residuals(pt: ExtrinsicPoint, rep, gauss_shift) -> dict:
    theta_xi, theta_eta = np.expand_dims(rep.theta_xi, -1), np.expand_dims(rep.theta_eta, -1)
    expected = -(theta_xi * pt.eta + theta_eta * pt.xi)
    vec = np.max(np.abs(pt.mean_curvature_vector - expected), axis=-1)
    sq = abs(rep.H_sq + 2.0 * rep.theta_xi * rep.theta_eta)
    out = {"identity": as_value(column_max(vec, sq))}
    if gauss_shift is not None:
        out["gauss"] = abs(rep.scal_intrinsic - rep.scal_formula - gauss_shift)
    return out


def _trapped_mismatch(pt: ExtrinsicPoint, rep, tolerances):
    """1.0 when the class contradicts the sign of the intrinsic curvature."""
    band = (pt.n - 1) * tolerances["trapped_eps"] / (rep.u * rep.u)
    band += tolerances["gauss"]
    s = rep.scal_intrinsic
    klass = rep.trapped_class
    ok = np.where(
        klass == "past_trapped",
        s < band,
        np.where(klass == "untrapped", s > -band, abs(s) <= band),
    )
    return as_value(np.where(ok, 0.0, 1.0))


def _evaluate(scene: Scene, x) -> list:
    """(row, diag) for the point x (n,), or for each point of a batch
    x (B, n); raises the typed error, or `BatchRejected`, of a point the
    pipeline refuses."""
    pt = ExtrinsicPoint(scene.im, x)
    rep = pt.report(scene.tolerances["trapped_eps"])
    fields = {key: np.atleast_1d(getattr(rep, key)) for key in ROW_FIELDS}
    classes = np.atleast_1d(rep.trapped_class)
    residuals, expansion = {}, {}
    if "frame" in scene.checks:
        residuals["frame"] = pt.frame_residual()
    if "shape" in scene.checks:
        residuals["shape"] = _shape_residual(pt, scene.selectors)
    if "trapped" in scene.checks:
        residuals["trapped"] = _trapped_mismatch(pt, rep, scene.tolerances)
    if "expansions" in scene.checks:
        expansion = _expansion_residuals(pt, rep, scene.gauss_shift)
    if "conformal" in scene.checks:
        deviation, spd, on_model = (
            np.atleast_1d(v) for v in conformal.pullback_columns(scene.cspec, pt.geo)
        )
    residuals = {name: np.atleast_1d(v) for name, v in residuals.items()}
    expansion = {name: np.atleast_1d(v) for name, v in expansion.items()}
    out = []
    for b, point in enumerate(np.atleast_2d(x)):
        row = {"point": [float(v) for v in point]}
        row.update((key, float(v[b])) for key, v in fields.items())
        row["trapped_class"] = str(classes[b])
        diag = {name: float(v[b]) for name, v in residuals.items()}
        if expansion:
            diag["expansions"] = {key: float(v[b]) for key, v in expansion.items()}
        if "conformal" in scene.checks:
            # (deviation, spd) of the pullback identity, None off the model space
            diag["conformal"] = (float(deviation[b]), bool(spd[b])) if on_model[b] else None
        out.append((row, diag))
    return out


def _rejection(point, err) -> dict:
    """The rejection entry of a point whose evaluation raised the typed
    error err; any other error is raised again, since a programming error
    is no rejected point."""
    if isinstance(err, PointRejected):
        reason, detail = err.reason.value, err.detail
    elif isinstance(err, FrameDegeneracyError):
        reason, detail = "denominator_zero", str(err)
    elif isinstance(err, (MetricSignatureError, DomainError)):
        reason, detail = "chart_singularity", str(err)
    elif isinstance(err, EmbeddingRangeError):
        reason, detail = "off_cone", str(err)
    else:
        raise err
    return {"point": [float(v) for v in point], "reason": reason, "detail": detail}


def _evaluate_grid(scene: Scene):
    """Rows, their diags and rejections of the grid points, each chunk
    evaluated as one batch: a point the batch rejects keeps its column's
    typed error, and the rest are evaluated again as a batch."""
    points = np.array(list(itertools.product(*scene.axes)), dtype=float)
    rows, diags, rejections = [], [], []
    for start in range(0, len(points), GRID_CHUNK):
        chunk = points[start:start + GRID_CHUNK]
        for x, result in zip(chunk, column_results(lambda xs: _evaluate(scene, xs), chunk)):
            if isinstance(result, Exception):
                rejections.append(_rejection(x, result))
            else:
                rows.append(result[0])
                diags.append(result[1])
    return rows, diags, rejections


# -- suites -------------------------------------------------------------------


def _require_rows(rows, name):
    if not rows:
        raise SuiteUnevaluable(f"suite {name!r} has no evaluable grid points")


def _suite_frame(scene, rows, diags):
    _require_rows(rows, "frame")
    worst = max(d["frame"] for d in diags)
    return {
        "passed": worst < scene.tolerances["frame"],
        "residuals": {"frame": worst},
        "points": len(rows),
    }


def _suite_shape(scene, rows, diags):
    _require_rows(rows, "shape")
    worst = max(d["shape"] for d in diags)
    return {
        "passed": worst < scene.tolerances["shape"],
        "residuals": {"shape": worst, "branches": float(len(scene.selectors))},
        "points": len(rows),
    }


def _suite_expansions(scene, rows, diags):
    _require_rows(rows, "expansions")
    identity = max(d["expansions"]["identity"] for d in diags)
    residuals = {"identity": identity}
    passed = identity < scene.tolerances["expansions"]
    if scene.gauss_shift is not None:
        gauss = max(d["expansions"]["gauss"] for d in diags)
        residuals["gauss"] = gauss
        passed = passed and gauss < scene.tolerances["gauss"]
    if scene.expect:
        numeric = 0.0
        mismatches = 0
        for key, want in scene.expect.items():
            if key == "trapped_class":
                mismatches = sum(1 for r in rows if r["trapped_class"] != want)
            else:
                numeric = max(numeric, max(abs(r[key] - want) for r in rows))
        residuals["expect"] = numeric
        residuals["expect_class_mismatches"] = float(mismatches)
        passed = passed and numeric < scene.tolerances["expect"] and mismatches == 0
    return {"passed": passed, "residuals": residuals, "points": len(rows)}


def _suite_trapped(scene, rows, diags):
    _require_rows(rows, "trapped")
    mismatches = sum(d["trapped"] for d in diags)
    fraction = mismatches / len(rows)
    return {
        "passed": fraction == 0.0,
        "residuals": {"sign_mismatch_fraction": fraction},
        "points": len(rows),
    }


def _suite_conformal(scene, rows, diags):
    _require_rows(rows, "conformal")
    spec, im = scene.cspec, scene.im
    evaluable, factor, spd_failures = [], 0.0, 0.0
    for row, d in zip(rows[:_CONFORMAL_SAMPLE_CAP], diags):
        if d["conformal"] is None:
            continue  # the image left the model space: not a sample
        deviation, spd = d["conformal"]
        evaluable.append(np.asarray(row["point"]))
        factor = max(factor, deviation)
        spd_failures += 0.0 if spd else 1.0
    if not evaluable:
        raise SuiteUnevaluable("the split map is degenerate at every sampled point")
    tols = scene.tolerances
    residuals = {"factor": factor, "pullback_spd_failures": spd_failures}
    passed = factor < tols["factor"] and spd_failures == 0.0
    if spec.variant == "desitter_to_Sn":
        try:
            conformal.desitter_r_sign(im, evaluable)
            residuals["scale_sign"] = 0.0
        except DegeneracyError:
            residuals["scale_sign"] = 1.0
            passed = False
    if spec.primitive:
        # the map ends in the primitive g of dw/u: check that dw/u is exact
        bounds = []
        for ax in scene.axes[:2]:
            lo, hi = float(ax[0]), float(ax[-1])
            span = hi - lo
            bounds.append((lo + 0.25 * span, hi - 0.25 * span))
        try:
            residuals["exactness"] = conformal.exactness_residual(
                spec, im, (0, 1), tuple(bounds)
            )
        except ArithmeticError as err:
            raise SuiteUnevaluable(str(err)) from None
        passed = passed and residuals["exactness"] < tols["exactness"]
    elif len(evaluable) >= 2:
        # the map factors through a graph embedding: close the round trip
        try:
            residuals["factorization"] = conformal.factorization_check(
                im, spec, evaluable[:_FACTORIZATION_SAMPLES]
            )
        except InverseError:
            residuals["factorization"] = math.inf
        passed = passed and residuals["factorization"] < tols["factorization"]
    return {"passed": passed, "residuals": residuals, "points": len(evaluable)}


def _suite_appendix(scene, rows, diags):
    _require_rows(rows, "appendix")
    lam = conformal.factor_field(scene.cspec, scene.im)
    rng = np.random.default_rng(scene.seed)
    picks = rng.choice(len(rows), size=min(_APPENDIX_SAMPLES, len(rows)), replace=False)
    samples = [np.asarray(rows[i]["point"]) for i in picks]
    try:
        residuals = conformal.conformal_curvature_check(scene.im, lam, samples)
    except (DegeneracyError, ArithmeticError) as err:
        raise SuiteUnevaluable(str(err)) from None
    worst = max(residuals.values())
    return {
        "passed": worst < scene.tolerances["appendix"],
        "residuals": dict(residuals),
        "points": len(samples),
    }


_SUITE_RUNNERS = {
    "frame": _suite_frame,
    "shape": _suite_shape,
    "expansions": _suite_expansions,
    "trapped": _suite_trapped,
    "conformal": _suite_conformal,
    "appendix": _suite_appendix,
}


# -- report assembly and emission ---------------------------------------------


def run(config, tol_overrides=None, seed=None, checks=None) -> dict:
    """Run a scene configuration and return the full report dictionary.

    The report carries the normalized configuration echo, one row per
    evaluated grid point (grid order), the rejected points with reasons,
    the per-suite verdicts, and the process exit status.
    """
    scene = parse_scene(config, tol_overrides=tol_overrides, seed=seed, checks=checks)
    rows, diags, rejections = _evaluate_grid(scene)
    suites = {}
    status = EXIT_PASS
    for name in scene.checks:
        try:
            result = _SUITE_RUNNERS[name](scene, rows, diags)
        except SuiteUnevaluable as err:
            suites[name] = {"passed": False, "unevaluable": str(err)}
            status = max(status, EXIT_DEGENERATE)
            continue
        suites[name] = result
        if not result["passed"]:
            status = max(status, EXIT_SUITE_FAILURE)
    if not scene.checks and not rows:
        status = max(status, EXIT_DEGENERATE)
    return {
        "config": scene.echo,
        "rows": rows,
        "rejections": rejections,
        "suites": suites,
        "exit_status": status,
    }


def _format_float(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return format(float(value), ".17g")


def _emit_json_value(obj, indent, out):
    # exact floats and strings, most of a report, skip the isinstance chain;
    # bool, numpy scalars and subclasses go through it in its order
    kind = type(obj)
    if kind is float:
        out.append(_format_float(obj))
    elif kind is str:
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner, last = "  " * (indent + 1), len(obj) - 1
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(inner)
            out.append(json.dumps(str(key)))
            out.append(": ")
            _emit_json_value(value, indent + 1, out)
            out.append(",\n" if i < last else "\n")
        out.append("  " * indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner, last = "  " * (indent + 1), len(obj) - 1
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(inner)
            _emit_json_value(value, indent + 1, out)
            out.append(",\n" if i < last else "\n")
        out.append("  " * indent + "]")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot emit {type(obj).__name__} into a report")


def emit_json(report: dict) -> str:
    """Serialize a report with 17-significant-digit floats, stable layout."""
    out = []
    _emit_json_value(report, 0, out)
    out.append("\n")
    return "".join(out)


def emit_csv(report: dict) -> str:
    """Rows only, fixed column order; floats carry 17 significant digits."""
    dim = len(report["config"]["grid"])
    header = [f"x{i}" for i in range(dim)] + list(ROW_FIELDS) + ["trapped_class"]
    lines = [",".join(header)]
    for row in report["rows"]:
        cells = [_format_float(v) for v in row["point"]]
        cells += [_format_float(row[key]) for key in ROW_FIELDS]
        cells.append(row["trapped_class"])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _emit(report: dict, fmt: str) -> str:
    return emit_csv(report) if fmt == "csv" else emit_json(report)


# -- command line ---------------------------------------------------------------


def _add_common_flags(parser):
    parser.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override one tolerance",
    )
    parser.add_argument("--out", help="output path (a directory for `suite`)")
    parser.add_argument("--format", choices=("json", "csv"), help="output format")
    parser.add_argument("--seed", type=int, help="sampling seed (unsigned 64-bit)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nullgeom",
        description="Null-hypersurface geometry checks over configured scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="run a scene's requested check suites")
    check.add_argument("--config", required=True, help="scene configuration file")
    _add_common_flags(check)
    classify = sub.add_parser(
        "classify", help="emit per-point extrinsic rows, no suites"
    )
    classify.add_argument("--config", required=True, help="scene configuration file")
    _add_common_flags(classify)
    suite = sub.add_parser("suite", help="run one built-in scene, or all of them")
    suite.add_argument("name", help="a built-in scene name, or `all`")
    _add_common_flags(suite)
    return parser


def _parse_tol_flags(flags):
    overrides = {}
    for flag in flags:
        key, sep, value = flag.partition("=")
        if not sep:
            raise ConfigError(f"--tol needs NAME=VALUE, got {flag!r}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise ConfigError(f"--tol {key}: {value!r} is not a number") from None
    return overrides


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"cannot parse {path}: {err}") from None


def _write_output(path: str, text: str):
    try:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err}") from None


def _cmd_check(args, classify: bool) -> int:
    config = _load_config(args.config)
    overrides = _parse_tol_flags(args.tol)
    report = run(
        config, tol_overrides=overrides, seed=args.seed, checks=[] if classify else None
    )
    odoc = config.get("output") or {}
    fmt = args.format or odoc.get("format") or "json"
    out_path = args.out if args.out is not None else odoc.get("path")
    text = _emit(report, fmt)
    if out_path:
        _write_output(out_path, text)
    else:
        sys.stdout.write(text)
    name = report["config"]["name"]
    print(
        f"{name}: rows={len(report['rows'])} rejections={len(report['rejections'])}"
        f" exit={report['exit_status']}",
        file=sys.stderr,
    )
    return report["exit_status"]


def _cmd_suite(args) -> int:
    catalog = scenes.builtin_scenes()
    if args.name != "all" and args.name not in catalog:
        raise ConfigError(
            f"unknown scene {args.name!r}; built-ins: {', '.join(catalog)} or all"
        )
    names = list(catalog) if args.name == "all" else [args.name]
    overrides = _parse_tol_flags(args.tol)
    fmt = args.format or "json"
    worst = EXIT_PASS
    for name in names:
        report = run(catalog[name], tol_overrides=overrides, seed=args.seed)
        status = report["exit_status"]
        worst = max(worst, status)
        if args.out:
            _write_output(str(Path(args.out) / f"{name}.{fmt}"), _emit(report, fmt))
        verdict = "PASS" if status == EXIT_PASS else "FAIL"
        print(f"{name}: {verdict} (exit {status})")
    return worst


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args, classify=False)
        if args.command == "classify":
            return _cmd_check(args, classify=True)
        return _cmd_suite(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
