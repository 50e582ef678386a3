"""Canonical immersions, the immersion families and the built-in scenes.

The builders return Immersion objects for the reference surfaces the engine
exercises end to end: graph embeddings over the hyperboloid and the sphere,
constant-time slices, warped-product cone graphs, and cylinder cross
sections.  `FAMILIES` is the one place that names the immersion families a
configuration asks for, each with its cone, parameter, split map and
builder.  builtin_scenes() packs ready-to-run configurations over these
surfaces, keyed by scene name, in the JSON-compatible shape the command
line consumes.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import spacetime as st
from . import taylor as tm
from .immersion import Immersion
from .nullcone import NullconeSpec
from .taylor import SmoothMap

__all__ = [
    "psi_f_minkowski",
    "slice_immersion",
    "psi_f_desitter",
    "cylinder_immersion",
    "hxr_immersion",
    "grw_graph",
    "Family",
    "FAMILIES",
    "builtin_scenes",
]


def _graph_value(cone: NullconeSpec, f, arg, batch: int):
    """The graph function f (a callable, or a constant) at arg, in the cone's
    range: a Series, or a constant's (B,) array over the batch."""
    fv = f(arg) if callable(f) else f
    if not isinstance(fv, tm.Series):
        fv = np.full(batch, fv, dtype=np.float64)
    return cone.check_range(fv)


def psi_f_minkowski(n, f=None):
    """(f p, f) over the hyperboloid chart; lands on the Minkowski cone."""
    f = 1.0 if f is None else f
    model = st.AmbientModel("minkowski", n)
    cone = NullconeSpec(model, "minkowski_cone")
    chart = st.hyperbolic_chart(n)

    def fn(ys):
        p = chart.fn(ys)
        fv = _graph_value(cone, f, ys, ys[0].batch)
        return [fv * c for c in p] + [fv]

    return Immersion(SmoothMap(fn, n, n + 2, "psi_f"), model, cone)


def psi_f_desitter(n, alpha, f, component=None):
    """(f, R(f) q, alpha + sqrt(1-alpha^2) f) over the sphere chart."""
    model = st.AmbientModel("desitter", n)
    cone = NullconeSpec(model, "desitter_alpha", alpha=alpha, component=component)
    chart = st.sphere_chart(n)

    def fn(qs):
        q = chart.fn(qs)
        fv = _graph_value(cone, f, qs, qs[0].batch)
        r = cone.scale(fv)
        return [fv] + [r * qi for qi in q] + [cone.alpha + cone.beta * fv]

    return Immersion(
        SmoothMap(fn, n, n + 3, "psi_f_alpha", domain=chart.domain), model, cone
    )


def cylinder_immersion(n, profile):
    """(f(t), f(t) q, t) over (t, sphere chart of S^{n-1})."""
    model = st.AmbientModel("minkowski", n)
    cone = NullconeSpec(model, "cylinder")
    chart = st.sphere_chart(n - 1)

    def fn(cs):
        t = cs[0]
        fv = _graph_value(cone, profile, t, t.batch)
        q = chart.fn(cs[1:])
        return [fv] + [fv * qi for qi in q] + [t]

    domain = ((-math.inf, math.inf),) + chart.domain
    return Immersion(SmoothMap(fn, n, n + 2, "cylinder", domain=domain), model, cone)


def slice_immersion(n, c):
    """t = c sphere slice of the Minkowski cone."""
    model = st.AmbientModel("minkowski", n)
    cone = NullconeSpec(model, "minkowski_cone")
    chart = st.sphere_chart(n)

    def fn(qs):
        q = chart.fn(qs)
        return [c] + [c * qi for qi in q]

    return Immersion(
        SmoothMap(fn, n, n + 2, "slice", domain=chart.domain), model, cone
    )


def hxr_immersion(profile):
    """(V cosh y, V sinh y, V, s): a cylinder-cone surface with a spacelike
    coordinate bounded away from zero, used by the hyperbolic split map."""
    model = st.AmbientModel("minkowski", 2)
    cone = NullconeSpec(model, "cylinder")

    def fn(cs):
        s, y = cs
        v = profile(s)
        return [v * tm.cosh(y), v * tm.sinh(y), v, s]

    return Immersion(SmoothMap(fn, 2, 4, "hxr_cylinder"), model, cone)


def grw_graph(model, height):
    """Graph over the sphere of radial directions, inside the GRW cone.

    `height` maps the direction-chart coordinates to the time value t; the
    fiber point sits at radius Phi(t) from the cone's base point.
    """
    n = model.n
    cone = NullconeSpec(model, "grw_cone")
    chart = st.sphere_chart(n)

    def fn(cs):
        t = height(cs)
        if not isinstance(t, tm.Series):  # a constant height, each column's
            t = np.full(cs[0].batch, t, dtype=np.float64)
        phi = model.warping.conformal_time(t, model.t0)
        om = chart.fn(cs)
        kind = model.fiber_kind
        if kind == "euclidean":
            x = [phi * o for o in om]
        elif kind == "sphere":
            x = [tm.cos(phi)] + [tm.sin(phi) * o for o in om]
        else:
            x = [tm.cosh(phi)] + [tm.sinh(phi) * o for o in om]
        return [t] + x

    return Immersion(
        SmoothMap(fn, n, model.coord_count, "grw_cone_graph", domain=chart.domain),
        model,
        cone,
    )


@dataclass(frozen=True)
class Family:
    """One immersion family: the nullcone variant `cone` of a model of one
    of `kinds` it lands on; its one parameter `param`, a number only (`over`
    "number") or also an expression in the chart coordinates ("chart") or in
    one variable ("line"); `build(cone, value)`, its immersion; and `split`,
    its split map where it differs from the cone's."""

    kinds: tuple
    cone: str
    param: str
    over: str
    build: Callable
    split: Optional[str] = None


FAMILIES = {
    "psi_f_minkowski": Family(("minkowski",), "minkowski_cone", "f", "chart",
                              lambda cone, f: psi_f_minkowski(cone.model.n, f)),
    "sphere_slice": Family(("minkowski",), "minkowski_cone", "c", "number",
                           lambda cone, c: slice_immersion(cone.model.n, c)),
    "psi_f_desitter_alpha": Family(
        ("desitter",), "desitter_alpha", "f", "chart",
        lambda cone, f: psi_f_desitter(cone.model.n, cone.alpha, f, cone.component)),
    "cylinder_warped": Family(("minkowski",), "cylinder", "f", "line",
                              lambda cone, f: cylinder_immersion(cone.model.n, f)),
    # a cylinder section over a hyperbola
    "hxr": Family(("minkowski",), "cylinder", "profile", "line",
                  lambda cone, profile: hxr_immersion(profile), split="cylinder_to_HxR"),
    "grw_graph": Family(("product", "grw_euclidean"), "grw_cone", "height", "chart",
                        lambda cone, height: grw_graph(cone.model, height)),
}


def _axis(lo, hi, count):
    return {"min": lo, "max": hi, "count": count}


def builtin_scenes():
    """Ready-to-run scene configurations, keyed by name.

    Every call builds fresh dictionaries, so callers may annotate or extend
    a configuration without touching the catalog.
    """
    square = [_axis(-1.2, 1.2, 12), _axis(-1.2, 1.2, 12)]
    # sphere-chart boxes stay clear of the polar edges; the slice grid also
    # keeps the last coordinate positive for the hyperbolic split map
    sphere_grid = [_axis(0.6, 2.5, 12), _axis(-2.5, 2.5, 12)]
    half_sphere_grid = [_axis(0.5, 2.6, 12), _axis(0.45, 2.7, 12)]
    scenes = {
        "mink-h2": {
            "name": "mink-h2",
            "spacetime": {"kind": "minkowski", "n": 2},
            "nullcone": {"variant": "minkowski_cone"},
            "immersion": {"family": "psi_f_minkowski", "f": "1"},
            "grid": [_axis(-1.5, 1.5, 20), _axis(-1.5, 1.5, 20)],
            "checks": ["all"],
            "expect": {
                "theta_xi": 1.0,
                "theta_eta": 0.5,
                "H_sq": -1.0,
                "scal_intrinsic": -2.0,
                "trapped_class": "past_trapped",
            },
        },
        "mink-bowl": {
            "name": "mink-bowl",
            "spacetime": {"kind": "minkowski", "n": 2},
            "nullcone": {"variant": "minkowski_cone"},
            "immersion": {"family": "psi_f_minkowski", "f": "1 + 0.3*x0**2"},
            "grid": square,
            "checks": ["all"],
            "expect": {"theta_xi": 1.0},
        },
        "mink-marginal": {
            "name": "mink-marginal",
            "spacetime": {"kind": "minkowski", "n": 2},
            "nullcone": {"variant": "minkowski_cone"},
            "immersion": {
                "family": "psi_f_minkowski",
                "f": "2/(1 + sqrt(1 + x0**2 + x1**2))",
            },
            "grid": square,
            "checks": ["all"],
            "expect": {
                "theta_xi": 1.0,
                "theta_eta": 0.0,
                "H_sq": 0.0,
                "scal_intrinsic": 0.0,
                "trapped_class": "past_marginally_trapped",
            },
        },
        "mink-slice": {
            "name": "mink-slice",
            "spacetime": {"kind": "minkowski", "n": 2},
            "nullcone": {"variant": "minkowski_cone"},
            "immersion": {"family": "sphere_slice", "c": 2.0},
            "grid": half_sphere_grid,
            "checks": ["all"],
            "expect": {
                "theta_xi": 1.0,
                "theta_eta": -0.125,
                "H_sq": 0.25,
                "scal_intrinsic": 0.5,
                "trapped_class": "untrapped",
            },
        },
        "grw-exp": {
            "name": "grw-exp",
            "spacetime": {
                "kind": "grw_euclidean",
                "n": 2,
                "warping": {"kind": "exp"},
            },
            "nullcone": {"variant": "grw_cone"},
            "immersion": {
                "family": "grw_graph",
                "height": "1.1 + 0.1*sin(x0)*cos(x1)",
            },
            "grid": sphere_grid,
            "checks": ["all"],
        },
        "grw-cosh": {
            "name": "grw-cosh",
            "spacetime": {
                "kind": "grw_euclidean",
                "n": 2,
                "warping": {"kind": "cosh"},
            },
            "nullcone": {"variant": "grw_cone"},
            "immersion": {"family": "grw_graph", "height": "1.2 + 0.1*cos(x0)"},
            "grid": sphere_grid,
            "checks": ["all"],
        },
        "cyl-arctan": {
            "name": "cyl-arctan",
            "spacetime": {"kind": "minkowski", "n": 2},
            "nullcone": {"variant": "cylinder"},
            "immersion": {"family": "cylinder_warped", "f": "x0**2 + 1"},
            "grid": [_axis(-1.2, 1.4, 12), _axis(0.5, 2.6, 12)],
            "checks": ["all"],
        },
        "ds-alpha0": {
            "name": "ds-alpha0",
            "spacetime": {"kind": "desitter", "n": 2},
            "nullcone": {"variant": "desitter_alpha", "alpha": 0.0},
            "immersion": {
                "family": "psi_f_desitter_alpha",
                "f": "1 + 0.3*cos(x0)**2",
            },
            "grid": sphere_grid,
            "checks": ["all"],
        },
        "ds-alpha05-minus": {
            "name": "ds-alpha05-minus",
            "spacetime": {"kind": "desitter", "n": 2},
            "nullcone": {
                "variant": "desitter_alpha",
                "alpha": 0.5,
                "component": "minus",
            },
            "immersion": {"family": "psi_f_desitter_alpha", "f": "sqrt(3)/2"},
            "grid": sphere_grid,
            "checks": ["all"],
        },
        "ds-alpha05-plus": {
            "name": "ds-alpha05-plus",
            "spacetime": {"kind": "desitter", "n": 2},
            "nullcone": {
                "variant": "desitter_alpha",
                "alpha": 0.5,
                "component": "plus",
            },
            "immersion": {
                "family": "psi_f_desitter_alpha",
                "f": "2 + 0.1*sin(x0)",
            },
            "grid": sphere_grid,
            "checks": ["all"],
        },
        "ds-alpha1": {
            "name": "ds-alpha1",
            "spacetime": {"kind": "desitter", "n": 2},
            "nullcone": {"variant": "desitter_alpha", "alpha": 1.0},
            "immersion": {
                "family": "psi_f_desitter_alpha",
                "f": "1 + 0.3*cos(x0)**2",
            },
            "grid": sphere_grid,
            "checks": ["all"],
        },
    }
    return copy.deepcopy(scenes)
