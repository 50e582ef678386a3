"""Spans around the calls into each nullgeom module, made from outside it.

A hook replaces a function (or a method or cached property of a class) with
a wrapper that times the call.  A function is replaced in every loaded
nullgeom module that holds it, because modules import some names directly
(``immersion.require_on_cone``, ``extrinsic.chart_geometry``): patching
only the defining module would miss those calls.  Hooks whose target no
longer exists are skipped and listed in ``Tracer.missing``.

Every hooked call accumulates, per hook name: calls, total time, self time
(total minus the time of hooked calls made directly inside it), and stage
time (total minus nested calls of *stage* hooks, so that the stages of one
grid point partition its time while the leaf layers they call, such as
series products, stay inside them).  Calls of hooks marked ``keep`` are
also stored as spans -- id, parent id, operation id, name, start, end -- in
memory and written out when the run ends.  The leaf hooks (series products,
ambient inner products) run hundreds of times per point and are counted and
timed but not stored one by one.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
from time import perf_counter_ns


def _order_is(pred, position):
    """Call filter on the jet order argument of eval_series and jet_eval."""

    def when(args, kwargs):
        order = kwargs["order"] if "order" in kwargs else args[position]
        return pred(order)

    return when


def _series_by_series(args, kwargs):
    """Call filter of Series.__mul__: products of two series, not scalings."""
    return type(args[1]) is type(args[0])


# (module, attribute, hook name, stage, keep, call filter)
HOOKS = [
    ("taylor", "Series.__mul__", "taylor.mul", False, False, _series_by_series),
    ("taylor", "eval_series", "taylor.eval_series", False, True, _order_is(lambda k: k == 3, 2)),
    ("taylor", "jet_eval", "taylor.jet_eval", False, True, _order_is(lambda k: k <= 1, 2)),
    ("spacetime", "ambient_inner", "spacetime.ambient_inner", False, False, None),
    ("nullcone", "require_on_cone", "nullcone.require_on_cone", False, True, None),
    ("immersion", "chart_geometry", "immersion.chart_geometry", True, True, None),
    ("immersion", "ChartGeometry.scal", "immersion.scal", True, True, None),
    *[
        ("extrinsic", f"ExtrinsicPoint.{attr}", "extrinsic.frame", True, True, None)
        for attr in (
            "xi_series",
            "time_axis_series",
            "time_orthogonal_series",
            "nu_series",
            "xi_dot_nu",
            "eta_series",
        )
    ],
    *[
        ("extrinsic", f"ExtrinsicPoint.{attr}", "extrinsic.expansions", True, True, None)
        for attr in ("theta_xi", "theta_eta", "mean_curvature_vector", "h_sq", "laplacian_u")
    ],
    ("extrinsic", "ExtrinsicPoint.frame_residual", "extrinsic.frame_residual", True, True, None),
    ("extrinsic", "ExtrinsicPoint.shape_numeric", "extrinsic.shape_residual", True, True, None),
    ("extrinsic", "ExtrinsicPoint.shape_closed", "extrinsic.shape_residual", True, True, None),
    ("extrinsic", "point_report", "extrinsic.point_report", False, True, None),
    ("conformal", "conformal_map", "conformal.map", False, True, None),
    ("conformal", "conformal_factor_check", "conformal.factor_check", False, True, None),
    ("conformal", "factorization_check", "conformal.factorization", False, True, None),
    ("conformal", "local_inverse", "conformal.local_inverse", False, True, None),
    ("conformal", "conformal_curvature_check", "conformal.curvature_check", False, True, None),
    ("cli", "parse_scene", "cli.parse", False, True, None),
    ("cli", "run", "cli.run", False, True, None),
    ("cli", "emit_json", "cli.emit", False, True, None),
]


class Tracer:
    """Installs the hooks, accounts for every hooked call, removes the hooks."""

    def __init__(self):
        self.stats = {}  # hook name -> [calls, total ns, self ns, stage ns]
        self.under = {}  # (hook name, parent hook name) -> calls, kept spans only
        self.spans = []  # (id, parent id, operation id, name, start ns, end ns)
        self.quad_evals = 0  # integrand evaluations of conformal's quadrature
        self.op = 0
        self.missing = []
        self._stack = []  # open hooked calls: [name, span id, child ns]
        self._stages = []  # open stage calls: [nested stage ns]
        self._ids = itertools.count(1)
        self._undo = []

    # -- accounting -------------------------------------------------------

    def next_op(self):
        """Start the next operation: later spans carry its id."""
        self.op += 1

    def _wrap(self, fn, name, stage, keep, when):
        stack, stages, stats, spans, under = (
            self._stack,
            self._stages,
            self.stats,
            self.spans,
            self.under,
        )
        ids, clock, tracer = self._ids, perf_counter_ns, self

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, next(ids), 0]
            stack.append(frame)
            if stage:
                stages.append([0])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                took = end - start
                stack.pop()
                nested = 0
                if stage:
                    nested = stages.pop()[0]
                    if stages:
                        stages[-1][0] += took
                if parent is not None:
                    parent[2] += took
                s = stats.get(name)
                if s is None:
                    s = stats[name] = [0, 0, 0, 0]
                s[0] += 1
                s[1] += took
                s[2] += took - frame[2]
                s[3] += took - nested
                if keep:
                    pname = parent[0] if parent is not None else None
                    spans.append(
                        (frame[1], parent[1] if parent else 0, tracer.op, name, start, end)
                    )
                    under[name, pname] = under.get((name, pname), 0) + 1

        return hooked

    # -- installation -----------------------------------------------------

    def install(self):
        # load every module first: one imported after a hook went in would
        # copy the wrapper, and keep it after uninstall()
        for modname in {hook[0] for hook in HOOKS}:
            try:
                importlib.import_module(f"nullgeom.{modname}")
            except ImportError:
                pass  # its hooks are listed as missing below
        for modname, attr, name, stage, keep, when in HOOKS:
            try:
                module = sys.modules[f"nullgeom.{modname}"]
                if "." in attr:
                    self._hook_member(module, attr, name, stage, keep, when)
                else:
                    self._hook_function(module, attr, name, stage, keep, when)
            except (AttributeError, KeyError):
                self.missing.append(f"{modname}.{attr}")
        self._hook_quad()

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _hook_function(self, module, attr, name, stage, keep, when):
        original = getattr(module, attr)
        hooked = self._wrap(original, name, stage, keep, when)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "nullgeom" or modname.startswith("nullgeom.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, hooked)

    def _hook_member(self, module, dotted, name, stage, keep, when):
        clsname, attr = dotted.split(".")
        cls = getattr(module, clsname)
        raw = cls.__dict__[attr]
        if isinstance(raw, functools.cached_property):
            new = functools.cached_property(self._wrap(raw.func, name, stage, keep, when))
            new.__set_name__(cls, attr)
        elif isinstance(raw, property):
            new = property(self._wrap(raw.fget, name, stage, keep, when))
        else:
            new = self._wrap(raw, name, stage, keep, when)
        self._replace(cls, attr, new)

    def _hook_quad(self):
        try:
            conformal = importlib.import_module("nullgeom.conformal")
            original = conformal.quad
        except (ImportError, AttributeError):
            self.missing.append("conformal.quad")
            return
        tracer = self

        def counted_quad(func, *args, **kwargs):
            def integrand(*xs):
                tracer.quad_evals += 1
                return func(*xs)

            return original(integrand, *args, **kwargs)

        self._replace(conformal, "quad", counted_quad)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def calls(self, name) -> int:
        return self.stats.get(name, [0])[0]

    def time_ns(self, name, kind="total") -> int:
        s = self.stats.get(name)
        if s is None:
            return 0
        return s[{"total": 1, "self": 2, "stage": 3}[kind]]

    def write(self, path, header):
        """Header line, then one JSON line per kept span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "op": op, "name": name,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )
