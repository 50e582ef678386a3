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

Immersion families: the entries of `scenes.FAMILIES`, the one place that
names each family's cone, parameter and split map.  Expression parameters
are numbers or strings in x0..x{n-1} over the jet vocabulary.  Alternatively
"chart" gives one expression per ambient coordinate, with an optional
"domain" of per-axis bounds.  Every object rejects a key it does not know.

"checks" lists suite names (frame, shape, expansions, trapped, conformal,
appendix); "all" expands to every suite applicable to the scene's model
and cone (`nullcone.CONE_RULES` holds the per-cone facts), and requesting
an inapplicable suite by name is a configuration error.  When the
conformal suite is requested, the grid pass evaluates the pullback
identity of the split map for every row, from the chart geometry the row
was built on, and flags the rows whose split-map image leaves the model
space; the suite reads that diagnostic for its first 40 evaluated points
and drops the flagged ones.  The grid pass keeps each suite diagnostic as
one list over its rows, extended once per evaluated batch, and each suite
reduces its lists with Python's `max` or `sum`.  The appendix checks the
conformal curvature identities at up to five evaluated grid points, drawn
without replacement by the scene's seed.  These sample checks ride the
grid pass, which keeps the chart geometry of each evaluated batch
(`Grid`): the factorization round trip reads psi at the first 6 sampled
rows, and the de Sitter scale sign at all of them; the appendix reads its
rows' columns of the geometry, curvature included, and takes the conformal
scale from their psi.  Only the local inverse's trial points and the
cylinder maps' exactness quadrature evaluate the immersion again.  The
grid is evaluated on the calling thread as one batch through the one
pipeline, which evaluates a single point as a batch of one, in chunks of
`GRID_CHUNK` points only where it is larger (the bound on a batch's
memory; every built-in grid fits in one).  A point the batch rejects keeps
its column's typed error in the chunk's one `taylor.Kept` and is dropped
where it is found: the chart geometry of a chunk is evaluated once
(`immersion.geometry_columns`, where a check of evaluated values selects
the other columns and only a refusal inside the chart map runs the map
again), and its `Kept` goes on to the extrinsic stages: after a refusal
of theirs, only they run again, on the gathered geometry of the other
points.  No point is evaluated alone, and every point comes out exactly
as it would in a batch of its own.  A chunk's rows and its rejections are
each in grid order, so identical configurations produce byte-identical
output.

Reports are plain JSON (or CSV rows).  A float is spelled with 17
significant digits (`format(v, ".17g")`), and a non-finite one as `NaN`,
`Infinity` or `-Infinity`, which `json.loads` reads back.  A report's rows
stay the grid pass's columns (`Rows`), which read as the list of row dicts;
in JSON they are one `%` of the row template repeated once per row, every
field of which is finite, and everything else is spelled value by value.
In CSV each row is one `%` of the report's template, and a row holding a
non-finite float, or of another shape, is spelled cell by cell.

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
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Optional

import numpy as np

from . import conformal, extrinsic, immersion, scenes, taylor
from .conformal import ConformalMapSpec, DegeneracyError, InverseError
from .extrinsic import (ROW_FIELDS, TRAPPED_CLASSES, ExtrinsicPoint, FrameDegeneracyError,
                        closed_forms)
from .immersion import ChartGeometry, Immersion, MetricSignatureError
from .nullcone import EmbeddingRangeError, NullconeSpec, PointRejected
from .spacetime import AmbientModel, WarpingFunction
from .taylor import DomainError, SmoothMap, column_max, parse_expression

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


def _expect_mapping(doc, where, keys=None):
    """doc, an object, after checking that it has no key outside `keys`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(doc) - set(doc if keys is None else keys)
    if unknown:
        raise ConfigError(f"{where} has unknown keys {sorted(unknown)}")
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
    doc = _expect_mapping(doc, "spacetime", ("kind", "n", "warping", "t0", "fiber"))
    kind = doc.get("kind")
    n = doc.get("n")
    if not isinstance(kind, str):
        raise ConfigError("spacetime.kind must be a string")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ConfigError("spacetime.n must be an integer")
    warping = None
    wdoc = doc.get("warping")
    if wdoc is not None:
        wdoc = _expect_mapping(wdoc, "spacetime.warping", ("kind", "params", "domain", "expr"))
        kwargs = {}
        if "params" in wdoc:
            if not isinstance(wdoc["params"], (list, tuple)):
                raise ConfigError("spacetime.warping.params must be a list of numbers")
            kwargs["params"] = tuple(_expect_number(v, f"spacetime.warping.params[{i}]")
                                     for i, v in enumerate(wdoc["params"]))
        if "domain" in wdoc:
            kwargs["domain"] = _expect_interval(wdoc["domain"], "spacetime.warping.domain")
        if "expr" in wdoc:
            kwargs["expr"] = wdoc["expr"]
        try:
            warping = WarpingFunction(wdoc.get("kind"), **kwargs)
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"spacetime.warping: {err}") from None
    t0 = doc.get("t0")
    if t0 is not None:
        t0 = _expect_number(t0, "spacetime.t0")
    try:
        return AmbientModel(kind, n, warping=warping, t0=t0, fiber=doc.get("fiber"))
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"spacetime: {err}") from None


def _parse_nullcone(model: AmbientModel, doc) -> NullconeSpec:
    doc = _expect_mapping(doc, "nullcone", ("variant", "alpha", "branch", "component"))
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


def _family_param(doc, family: scenes.Family, n: int):
    """The family's parameter: a number, or an expression string in x0..x{n-1}
    or in x0 alone, as a callable of the coordinates or of the one variable."""
    key, over = family.param, family.over
    if key not in doc:
        raise ConfigError(f"immersion family needs the parameter {key!r}")
    value = doc[key]
    if over == "number":
        return _expect_number(value, f"immersion.{key}")
    if isinstance(value, str):
        names = [f"x{i}" for i in range(n if over == "chart" else 1)]
        try:
            fn = parse_expression(value, names)
        except ValueError as err:
            raise ConfigError(f"immersion.{key}: {err}") from None
        return fn if over == "chart" else (lambda t: fn([t]))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"immersion.{key} must be a number or expression string")
    number = _expect_number(value, f"immersion.{key}")
    return lambda _: number


def _build_immersion(model: AmbientModel, cone: NullconeSpec, doc):
    """The configured immersion, and its split map: its family's own, else the cone's."""
    doc = _expect_mapping(doc, "immersion")
    name = doc.get("family")
    if name is None and "chart" not in doc:
        raise ConfigError("immersion needs either a family or a chart")
    if name is not None:
        family = scenes.FAMILIES.get(name) if isinstance(name, str) else None
        if family is None:
            raise ConfigError(f"unknown immersion family {name!r}")
        _expect_mapping(doc, "immersion", ("family", family.param))
        if model.kind not in family.kinds or cone.variant != family.cone:
            raise ConfigError(f"family {name!r} lands on the {family.cone} nullcone of a "
                              f"{' or '.join(family.kinds)} model, not on {cone.variant}")
        im = family.build(cone, _family_param(doc, family, model.n))
        if im.target_cone != cone:
            raise ConfigError(f"family {name!r} builds over a different spacetime than configured")
        return im, family.split or cone.rules.split
    # a chart; a null "family" names none
    _expect_mapping(doc, "immersion", ("family", "chart", "domain", "name"))
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

    name = doc.get("name", "chart")
    if not isinstance(name, str):
        raise ConfigError("immersion.name must be a string")
    map_fn = SmoothMap(fn, model.n, model.coord_count, name, domain=domain)
    return Immersion(map_fn, model, cone), cone.rules.split


def _parse_grid(doc, dim):
    if not isinstance(doc, list) or len(doc) != dim:
        raise ConfigError(f"grid needs one axis object per chart coordinate ({dim})")
    axes = []
    for i, axis in enumerate(doc):
        axis = _expect_mapping(axis, f"grid[{i}]", ("min", "max", "count"))
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
        for key, value in _expect_mapping(source, where, DEFAULT_TOLERANCES).items():
            value = _expect_number(value, f"{where}.{key}")
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{where}.{key} must be positive and finite")
            tols[key] = value
    return tols


def _parse_expect(doc):
    if doc is None:
        return {}
    doc = _expect_mapping(doc, "expect", ROW_FIELDS + ("trapped_class",))
    expect = {}
    for key, value in doc.items():
        if key == "trapped_class":
            if value not in TRAPPED_CLASSES:
                raise ConfigError(f"expect.trapped_class {value!r} is not a class")
            expect[key] = value
        else:
            expect[key] = _expect_number(value, f"expect.{key}")
            if not math.isfinite(expect[key]):
                raise ConfigError(f"expect.{key} must be finite")
    return expect


def _gauss_shift(model, cone) -> Optional[float]:
    """Constant offset n(n-1)c in Scal = n(n-1)<H,H> + shift, where it is a theorem."""
    c = cone.rules.curvature
    return None if c is None else model.n * (model.n - 1) * c


def _conformal_spec(variant, axes):
    """The spec of the split map `variant`, None where there is none."""
    if variant is None:
        return None
    if variant in ("lightcone_to_Hn", "desitter_to_Sn"):
        return ConformalMapSpec(variant)
    base = tuple(float(0.5 * (ax[0] + ax[-1])) for ax in axes)
    return ConformalMapSpec(variant, base_point=base)


def parse_scene(doc, tol_overrides=None, seed=None, checks=None) -> Scene:
    """Validate a configuration document and build the runnable scene."""
    doc = _expect_mapping(doc, "config", _CONFIG_KEYS)
    for key in ("spacetime", "nullcone", "immersion", "grid"):
        if key not in doc:
            raise ConfigError(f"config needs the key {key!r}")
    name = doc.get("name", "scene")
    if not isinstance(name, str):
        raise ConfigError("name must be a string")
    model = _parse_spacetime(doc["spacetime"])
    cone = _parse_nullcone(model, doc["nullcone"])
    im, split = _build_immersion(model, cone, doc["immersion"])
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
        odoc = _expect_mapping(odoc, "output", ("path", "format"))
        if not isinstance(odoc.get("path"), (str, type(None))):
            raise ConfigError("output.path must be a string")
        if odoc.get("format", "json") not in ("json", "csv"):
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
        axes=axes,
        checks=resolved,
        selectors=closed_forms(model, cone),
        gauss_shift=_gauss_shift(model, cone),
        cspec=_conformal_spec(split, axes),
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
    return worst


def _expansion_residuals(pt: ExtrinsicPoint, rep, gauss_shift) -> dict:
    theta_xi, theta_eta = np.expand_dims(rep.theta_xi, -1), np.expand_dims(rep.theta_eta, -1)
    expected = -(theta_xi * pt.eta + theta_eta * pt.xi)
    vec = np.max(np.abs(pt.mean_curvature_vector - expected), axis=-1)
    sq = abs(rep.H_sq + 2.0 * rep.theta_xi * rep.theta_eta)
    out = {"identity": column_max(vec, sq)}
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
    return np.where(ok, 0.0, 1.0)


# the keys of a report row, in their order
ROW_KEYS = ("point",) + ROW_FIELDS + ("trapped_class",)


class Rows(Sequence):
    """The rows of a grid pass, kept as its columns: one list per entry of
    `ROW_KEYS`.  A row, read by index or by iteration, is the dict of its
    values in key order, a slice is the list of those dicts, and `==`
    compares as that list; `emit_json` formats the columns directly."""

    def __init__(self, columns=None):
        self.columns = columns if columns is not None else {key: [] for key in ROW_KEYS}

    def __len__(self):
        return len(self.columns["point"])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        return {key: column[i] for key, column in self.columns.items()}

    def __iter__(self):
        keys = tuple(self.columns)
        return (dict(zip(keys, values)) for values in zip(*self.columns.values()))

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (Rows, list)) else NotImplemented

    def __repr__(self):
        return repr(list(self))

    def extend(self, rows: "Rows"):
        """Append the rows of another batch, column by column."""
        for key, column in self.columns.items():
            column.extend(rows.columns[key])


def _evaluate(scene: Scene, geo: ChartGeometry) -> tuple:
    """(rows, diag, geo) of the immersion's chart geometry geo of a batch:
    the batch's `Rows`, one list per diagnostic over the batch, and the
    geometry of the kept columns; raises `BatchRejected` for the points
    the extrinsic stages refuse."""
    pt = ExtrinsicPoint(geo)
    x = geo.x
    rep = pt.report(scene.tolerances["trapped_eps"])
    diag = {}
    if "frame" in scene.checks:
        diag["frame"] = pt.frame_residual()
    if "shape" in scene.checks:
        diag["shape"] = _shape_residual(pt, scene.selectors)
    if "trapped" in scene.checks:
        diag["trapped"] = _trapped_mismatch(pt, rep, scene.tolerances)
    if "expansions" in scene.checks:
        diag.update(_expansion_residuals(pt, rep, scene.gauss_shift))
    if "conformal" in scene.checks:
        pullback = conformal.pullback_columns(scene.cspec, pt.geo)
        diag.update(zip(("deviation", "spd", "on_model"), pullback))
    columns = {"point": x.tolist()}
    columns.update((key, getattr(rep, key).tolist()) for key in ROW_FIELDS)
    columns["trapped_class"] = rep.trapped_class.tolist()
    return Rows(columns), {name: v.tolist() for name, v in diag.items()}, pt.geo


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


@dataclass
class Grid:
    """The grid pass of a scene: its rows (one `Rows`, extended by each
    batch's columns) and rejections in grid order, its diagnostics as one
    list per name over the rows, and the chart geometry of each evaluated
    batch with the index of its first row, since a batch's columns are
    consecutive rows."""

    rows: Rows
    diag: dict
    rejections: list
    batches: list

    def geometry(self, picks, keys=None) -> ChartGeometry:
        """The chart geometry of the rows `picks`, in that order, gathered
        from the batches that evaluated them (only `keys`, if given)."""
        starts = [start for start, _ in self.batches]
        which = np.searchsorted(starts, picks, side="right") - 1
        parts = []
        for k, run in itertools.groupby(zip(which.tolist(), picks), key=itemgetter(0)):
            start, geo = self.batches[k]
            parts.append((geo, np.array([i for _, i in run]) - start))
        return ChartGeometry.gather(parts, keys)


@taylor.float_edges
def _evaluate_grid(scene: Scene) -> Grid:
    """The grid pass, its one floating-point scope: each chunk's chart
    geometry is evaluated once (`immersion.geometry_columns`), and the
    extrinsic stages run over its kept columns as one batch, again on the
    others where they refuse some (`taylor.Kept.run`).  A chunk's rows and
    its rejections, each in grid order, extend the grid's."""
    points = np.array(list(itertools.product(*scene.axes)), dtype=float)
    grid = Grid(Rows(), {}, [], [])
    for start in range(0, len(points), GRID_CHUNK):
        chunk = points[start:start + GRID_CHUNK]
        geo, kept = immersion.geometry_columns(scene.im, chunk)
        batch = kept.run(lambda g: _evaluate(scene, g), geo, ChartGeometry.columns)
        if batch is not None:
            rows, diag, geo = batch
            grid.batches.append((len(grid.rows), geo))
            grid.rows.extend(rows)
            for name, values in diag.items():
                grid.diag.setdefault(name, []).extend(values)
        grid.rejections.extend(_rejection(chunk[b], err) for b, err in kept.errors.items())
    return grid


# -- suites -------------------------------------------------------------------


def _require_rows(rows, name):
    if not rows:
        raise SuiteUnevaluable(f"suite {name!r} has no evaluable grid points")


def _suite_frame(scene, grid):
    _require_rows(grid.rows, "frame")
    worst = max(grid.diag["frame"])
    return {
        "passed": worst < scene.tolerances["frame"],
        "residuals": {"frame": worst},
        "points": len(grid.rows),
    }


def _suite_shape(scene, grid):
    _require_rows(grid.rows, "shape")
    worst = max(grid.diag["shape"])
    return {
        "passed": worst < scene.tolerances["shape"],
        "residuals": {"shape": worst, "branches": float(len(scene.selectors))},
        "points": len(grid.rows),
    }


def _suite_expansions(scene, grid):
    rows = grid.rows
    _require_rows(rows, "expansions")
    identity = max(grid.diag["identity"])
    residuals = {"identity": identity}
    passed = identity < scene.tolerances["expansions"]
    if scene.gauss_shift is not None:
        gauss = max(grid.diag["gauss"])
        residuals["gauss"] = gauss
        passed = passed and gauss < scene.tolerances["gauss"]
    if scene.expect:
        numeric = 0.0
        mismatches = 0
        for key, want in scene.expect.items():
            column = rows.columns[key]
            if key == "trapped_class":
                mismatches = len(column) - column.count(want)
            else:
                numeric = max(numeric, max(abs(v - want) for v in column))
        residuals["expect"] = numeric
        residuals["expect_class_mismatches"] = float(mismatches)
        passed = passed and numeric < scene.tolerances["expect"] and mismatches == 0
    return {"passed": passed, "residuals": residuals, "points": len(rows)}


def _suite_trapped(scene, grid):
    _require_rows(grid.rows, "trapped")
    mismatches = sum(grid.diag["trapped"])
    fraction = mismatches / len(grid.rows)
    return {
        "passed": fraction == 0.0,
        "residuals": {"sign_mismatch_fraction": fraction},
        "points": len(grid.rows),
    }


def _suite_conformal(scene, grid):
    _require_rows(grid.rows, "conformal")
    spec, diag = scene.cspec, grid.diag
    # a row whose image left the model space is not a sample
    evaluable = [i for i, on in enumerate(diag["on_model"][:_CONFORMAL_SAMPLE_CAP]) if on]
    if not evaluable:
        raise SuiteUnevaluable("the split map is degenerate at every sampled point")
    factor = max([0.0] + [diag["deviation"][i] for i in evaluable])
    spd_failures = float(sum(not diag["spd"][i] for i in evaluable))
    tols = scene.tolerances
    residuals = {"factor": factor, "pullback_spd_failures": spd_failures}
    passed = factor < tols["factor"] and spd_failures == 0.0
    if spec.variant == "desitter_to_Sn":
        try:
            conformal.scale_sign_at(grid.geometry(evaluable, conformal.PSI_KEYS))
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
                spec, scene.im, (0, 1), tuple(bounds))
        except (DomainError, EmbeddingRangeError, DegeneracyError, ArithmeticError) as err:
            # a refused leg of the rectangle is no evidence either way
            raise SuiteUnevaluable(str(err)) from None
        passed = passed and residuals["exactness"] < tols["exactness"]
    elif len(evaluable) >= 2:
        # the map factors through a graph embedding: close the round trip
        samples = grid.geometry(evaluable[:_FACTORIZATION_SAMPLES], conformal.PSI_KEYS)
        try:
            residuals["factorization"] = conformal.factorization_at(spec, samples)
        except InverseError:
            residuals["factorization"] = math.inf
        passed = passed and residuals["factorization"] < tols["factorization"]
    return {"passed": passed, "residuals": residuals, "points": len(evaluable)}


def _suite_appendix(scene, grid):
    _require_rows(grid.rows, "appendix")
    rng = np.random.default_rng(scene.seed)
    picks = rng.choice(len(grid.rows), size=min(_APPENDIX_SAMPLES, len(grid.rows)), replace=False)
    try:
        residuals = conformal.curvature_check_at(scene.cspec, grid.geometry(picks))
    except (DegeneracyError, ArithmeticError) as err:
        raise SuiteUnevaluable(str(err)) from None
    worst = max(residuals.values())
    return {
        "passed": worst < scene.tolerances["appendix"],
        "residuals": dict(residuals),
        "points": len(picks),
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
    evaluated grid point (grid order, as `Rows`), the rejected points with
    reasons, the per-suite verdicts, and the process exit status.
    """
    scene = parse_scene(config, tol_overrides=tol_overrides, seed=seed, checks=checks)
    grid = _evaluate_grid(scene)
    suites = {}
    status = EXIT_PASS
    for name in scene.checks:
        try:
            result = _SUITE_RUNNERS[name](scene, grid)
        except SuiteUnevaluable as err:
            suites[name] = {"passed": False, "unevaluable": str(err)}
            status = max(status, EXIT_DEGENERATE)
            continue
        suites[name] = result
        if not result["passed"]:
            status = max(status, EXIT_SUITE_FAILURE)
    if not scene.checks and not grid.rows:
        status = max(status, EXIT_DEGENERATE)
    return {
        "config": scene.echo,
        "rows": grid.rows,
        "rejections": grid.rejections,
        "suites": suites,
        "exit_status": status,
    }


# the words JSON readers take for the floats that `format` spells nan, inf, -inf
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _format_float(value: float) -> str:
    text = format(value, ".17g")
    return _NONFINITE.get(text, text)


def _emit_string(text: str, strings: dict) -> str:
    """The JSON of a string, encoded once per report in `strings`."""
    out = strings.get(text)
    if out is None:
        out = strings[text] = json.dumps(text)
    return out


def _emit_json_value(obj, indent, out, strings):
    # exact floats, strings and rows skip the isinstance chain; bool, numpy
    # scalars and subclasses go through it in its order
    kind = type(obj)
    if kind is float:
        out.append(_format_float(obj))
    elif kind is str:
        out.append(_emit_string(obj, strings))
    elif kind is Rows:
        _emit_rows(obj, indent, out, strings)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner, last = "  " * (indent + 1), len(obj) - 1
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            key = _emit_string(key, strings) if type(key) is str else json.dumps(str(key))
            end = ",\n" if i < last else "\n"
            out.append(f"{inner}{key}: ")
            _emit_json_value(value, indent + 1, out, strings)
            out.append(end)
        out.append("  " * indent + "}")
    elif isinstance(obj, (list, tuple)):
        _emit_list(obj, indent, out, strings)
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


def _emit_list(items, indent, out, strings):
    """A JSON array, value by value."""
    if not items:
        out.append("[]")
        return
    inner, last = "  " * (indent + 1), len(items) - 1
    out.append("[\n")
    for i, value in enumerate(items):
        out.append(inner)
        _emit_json_value(value, indent + 1, out, strings)
        out.append(",\n" if i < last else "\n")
    out.append("  " * indent + "]")


def _emit_rows(rows: Rows, indent, out, strings):
    """The JSON array of a grid pass's rows, as `_emit_list` spells their
    dicts: one `%` of the row template repeated once per row.  Every value
    but the class is a finite float: the grid's bounds are finite, and
    `ExtrinsicPoint.report` refuses a point with a non-finite field."""
    if not rows:
        out.append("[]")
        return
    columns = rows.columns
    outer, inner = "  " * (indent + 1), "  " * (indent + 2)
    point = ",\n".join([f"{inner}  %.17g"] * len(columns["point"][0]))
    fields = [f'{inner}"point": [\n{point}\n{inner}]']
    fields += [f"{inner}{_emit_string(key, strings)}: %.17g" for key in ROW_FIELDS]
    fields.append(f'{inner}"trapped_class": %s')
    template = ",\n".join([f"{outer}{{\n" + ",\n".join(fields) + f"\n{outer}}}"] * len(rows))
    classes = [_emit_string(k, strings) for k in columns["trapped_class"]]
    cells = zip(*zip(*columns["point"]), *(columns[key] for key in ROW_FIELDS), classes)
    out.append(f"[\n{template % tuple(itertools.chain.from_iterable(cells))}\n{'  ' * indent}]")


def emit_json(report: dict) -> str:
    """Serialize a report with 17-significant-digit floats, stable layout."""
    out = []
    _emit_json_value(report, 0, out, {})
    out.append("\n")
    return "".join(out)


def emit_csv(report: dict) -> str:
    """Rows only, fixed column order; floats carry 17 significant digits.
    Each row is one `%` of the report's template; a row with a non-finite
    float, or of another shape, is formatted cell by cell."""
    dim = len(report["config"]["grid"])
    header = [f"x{i}" for i in range(dim)] + list(ROW_FIELDS) + ["trapped_class"]
    template = ",".join(["%.17g"] * (dim + len(ROW_FIELDS)) + ["%s"])
    fields = itemgetter(*ROW_FIELDS)
    lines = [",".join(header)]
    for row in report["rows"]:
        floats = (*row["point"], *fields(row))
        klass = row["trapped_class"]
        if len(floats) == dim + len(ROW_FIELDS) and type(klass) is str \
                and math.isfinite(sum(floats)):
            lines.append(template % (*floats, klass))
        else:
            lines.append(",".join([_format_float(v) for v in floats] + [klass]))
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
