"""Shared immersions, metric charts and sample boxes for the geometry
test-suite, and the oracles that only the tests use."""

import json
import math

import numpy as np

from nullgeom import cli
from nullgeom import conformal as cf
from nullgeom import extrinsic as ext
from nullgeom import immersion as imm
from nullgeom import nullcone as nc
from nullgeom import spacetime as st
from nullgeom import taylor as tm
from nullgeom.immersion import MetricChart, chart_geometry
from nullgeom.scenes import (
    cylinder_immersion,
    grw_graph,
    hxr_immersion,
    psi_f_desitter,
    psi_f_minkowski,
    slice_immersion,
)

__all__ = [
    "psi_f_minkowski",
    "slice_immersion",
    "psi_f_desitter",
    "cylinder_immersion",
    "hxr_immersion",
    "grw_graph",
    "marginal_height_profile",
    "sphere_box",
    "sample_box",
    "random_metric_chart",
    "pullback_metric_chart",
    "scaled_metric_chart",
    "random_positive_field",
    "profile_at",
    "inner_at",
    "series_alone",
    "components",
    "geometry_alone",
    "point_alone",
    "intrinsic_gradient",
    "hessian_laplacian",
    "desitter_embed",
    "desitter_graph_height",
    "normal_connection_residual",
    "emit_json_reference",
    "emit_csv_reference",
    "evaluate_alone",
    "row_diags",
    "suite_samples",
    "pullback_alone",
    "gauss_newton_step_alone",
    "stacked_local_inverse",
    "local_inverse_alone",
    "factorization_alone",
    "series_map_jacobian",
    "entry_inner",
    "entry_pullback",
    "entry_g_inv",
    "entry_christoffel",
    "entry_fiber_radial",
    "entry_null_gradient",
    "entry_time_axis",
    "entry_null_frame",
    "order3_stages",
]


def marginal_height_profile(ys):
    """f with (f p, f) inside the null hyperplane t + x_last = 2."""
    p0 = tm.sqrt(1.0 + tm.norm_sq(ys))
    return 2.0 / (1.0 + p0)


def sphere_box(n, pad=0.5):
    """Axis bounds keeping sphere-chart angles clear of their singular edges."""
    return tuple(
        (pad, np.pi - pad) if i < n - 1 else (-np.pi + pad, np.pi - pad)
        for i in range(n)
    )


def sample_box(rng, box, count):
    return [
        np.array([rng.uniform(lo, hi) for lo, hi in box]) for _ in range(count)
    ]


def random_metric_chart(rng, n):
    """Smooth SPD metric chart: g = L^T L, L a sinusoidal perturbation of I."""
    amp = rng.uniform(0.05, 0.15, size=(n, n))
    freq = rng.uniform(0.4, 1.2, size=(n, n, n))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n, n))

    def metric(coords):
        l = [
            [
                (1.0 if i == j else 0.0)
                + amp[i, j] * tm.sin(tm.dot(freq[i, j], coords) + phase[i, j])
                for j in range(n)
            ]
            for i in range(n)
        ]
        return [
            [sum(l[k][i] * l[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    return MetricChart(metric=metric, dim=n)


def pullback_metric_chart(chart_map: tm.SmoothMap, signs=None) -> MetricChart:
    """Metric chart obtained by pulling a (pseudo)flat ambient metric back
    through `chart_map`; `signs` lists the ambient signature, default all +1."""
    if signs is not None and len(signs) != chart_map.n_outputs:
        raise ValueError("signature length must match the map's output arity")

    def metric(coords):
        ys = chart_map.fn(coords)
        if isinstance(ys, tm.Series):
            ys = [ys]
        sg = signs if signs is not None else (1.0,) * len(ys)
        k = len(coords)
        d = [[comp.gradient()[i] for comp in ys] for i in range(k)]
        return [
            [
                sum(s * a * b for s, a, b in zip(sg, d[i], d[j]))
                for j in range(k)
            ]
            for i in range(k)
        ]

    return MetricChart(metric=metric, dim=chart_map.n_inputs)


def scaled_metric_chart(base: MetricChart, lam) -> MetricChart:
    """The chart metric lambda^2 g for a positive scalar field lambda."""

    def metric(coords):
        factor = lam(coords)
        factor = factor * factor
        return [[factor * entry for entry in row] for row in base.metric(coords)]

    return MetricChart(metric=metric, dim=base.dim)


def random_positive_field(rng, n):
    """A smooth scalar field bounded away from zero, for conformal factors."""
    amp = rng.uniform(0.2, 0.45)
    freq = rng.uniform(0.4, 1.2, size=n)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    floor = rng.uniform(1.0, 1.6)

    def lam(coords):
        return floor + amp * tm.sin(tm.dot(freq, coords) + phase)

    return lam


def profile_at(warping, t) -> float:
    """The warping profile f at the float time t, a batch of one on the
    array path; a refused time raises its typed error."""
    (f,) = tm.per_sample(warping, [t])
    return float(f)


def inner_at(model, p, v, w):
    """<v, w> at the point p, through the fiber scale f(t)^2 of its time."""
    v, w = np.asarray(v, dtype=float), np.asarray(w, dtype=float)
    f2 = None
    if model.warped:
        f = profile_at(model.warping, p[0])
        f2 = f * f
    return st.ambient_inner(model, f2, v, w)


def components(s):
    """The list of the components of a vector Series, views of its
    coefficients: the psi of the per-component oracles."""
    return [s[a] for a in range(s.shape[0])]


def series_alone(im, x, order, check_membership=True):
    """The psi Series of the chart point x (n,), a batch of one; a refused
    point raises its typed error."""
    (psi,) = tm.per_sample(lambda xs: [im.series(xs, order, check_membership)], [x])
    return psi


def geometry_alone(obj, x, check_membership=True):
    """The chart geometry of the point x (n,), a batch of one; a refused
    point raises its typed error."""
    (geo,) = tm.per_sample(lambda xs: [chart_geometry(obj, xs, check_membership)], [x])
    return geo


def point_alone(im, x):
    """The `ExtrinsicPoint` of the chart point x (n,), a batch of one; a
    refused point raises its typed error."""
    (pt,) = tm.per_sample(lambda xs: [ext.ExtrinsicPoint(chart_geometry(im, xs))], [x])
    return pt


def intrinsic_gradient(obj, h, x):
    """Gradient of a chart scalar field at the point x: (contravariant
    components, |grad h|^2)."""
    geo = geometry_alone(obj, x)
    comps, norm_sq = geo.gradient(geo.scalar_series(h))
    return comps[0], float(norm_sq[0])


def hessian_laplacian(obj, h, x):
    """Covariant Hessian in the orthonormal tangent frame and the Laplacian
    at the point x."""
    geo = geometry_alone(obj, x)
    hess = geo.covariant_hessian(geo.scalar_series(h))[0]
    b = geo.onf[0]
    hess_onf = b.T @ hess @ b
    return hess_onf, float(np.trace(hess_onf))


def desitter_embed(t, q):
    """(t, q) on -R x_cosh S^{n+1} -> point of the unit hyperquadric."""
    if not any(isinstance(x, tm.Series) for x in [t, *q]):
        qa = np.asarray(q, dtype=float)
        if abs(math.sqrt(float(np.dot(qa, qa))) - 1.0) > 1e-12:
            raise ValueError("q must be a unit vector")
        return np.concatenate(([math.sinh(float(t))], math.cosh(float(t)) * qa))
    ch = tm.cosh(t)
    return [tm.sinh(t)] + [ch * x for x in q]


def desitter_graph_height(theta0: float, q) -> float:
    """Height t making the warped-product graph point land on the plane cut.

    The plane is the alpha = cos(theta0) member of the de Sitter family; q
    is a unit vector of the spatial sphere, measured against its last axis.
    """
    q = np.asarray(q, dtype=float)
    if abs(math.sqrt(float(np.dot(q, q))) - 1.0) > 1e-12:
        raise ValueError("q must be a unit vector")
    arg = theta0 - math.acos(float(np.clip(q[-1], -1.0, 1.0)))
    if not abs(arg) < math.pi / 2.0 - 1e-12:
        raise ValueError("graph is singular: signed distance reaches a quarter turn")
    return math.asinh(math.tan(arg))


def normal_connection_residual(pt):
    """Residual of the propagation law for the normal part of the time axis
    at the `ExtrinsicPoint` of one point:
    nabla^perp_X dt^perp = -(f'/f) <X, grad u> dt^perp - II(X, grad u).
    """
    model = pt.model
    if model.kind == "desitter":
        raise ext.ShapeDispatchError("the propagation law needs a warped-product model")
    ratio = pt.warping_ratio[0]
    f2 = None if pt.f2 is None else pt.f2[0]
    xi0, eta0 = pt.xi[0], pt.eta[0]
    n0 = tm.batch_first(pt.time_orthogonal_jet[0])[0]
    worst = 0.0
    for j, dn in enumerate(ext._directional(pt.geo, pt.time_orthogonal_jet, pt.df)):
        a = -st.ambient_inner(model, f2, dn[0], eta0)
        b = -st.ambient_inner(model, f2, dn[0], xi0)
        lhs = a * xi0 + b * eta0
        ii = np.zeros(len(n0))
        for i in range(pt.n):
            ii += pt.grad_u[0, i] * pt.ii[0, j, i]
        rhs = -ratio * pt.du[0, j] * n0 - ii
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _format_float_reference(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return format(float(value), ".17g")


def _emit_value_reference(obj, indent, out):
    kind = type(obj)
    if kind is float:
        out.append(_format_float_reference(obj))
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
            _emit_value_reference(value, indent + 1, out)
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
            _emit_value_reference(value, indent + 1, out)
            out.append(",\n" if i < last else "\n")
        out.append("  " * indent + "]")
    elif isinstance(obj, cli.Rows):  # the plain list of its rows
        _emit_value_reference(list(obj), indent, out)
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float_reference(float(obj)))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot emit {type(obj).__name__} into a report")


def emit_json_reference(report: dict) -> str:
    """A report's JSON with each key and string encoded where it occurs and
    each float tested for nan and inf first: the oracle of `cli.emit_json`."""
    out = []
    _emit_value_reference(report, 0, out)
    out.append("\n")
    return "".join(out)


def emit_csv_reference(report: dict) -> str:
    """A report's CSV with each cell formatted on its own, nan and inf
    tested first: the oracle of `cli.emit_csv`."""
    dim = len(report["config"]["grid"])
    header = [f"x{i}" for i in range(dim)] + list(ext.ROW_FIELDS) + ["trapped_class"]
    lines = [",".join(header)]
    for row in report["rows"]:
        cells = [_format_float_reference(v) for v in row["point"]]
        cells += [_format_float_reference(row[key]) for key in ext.ROW_FIELDS]
        cells.append(row["trapped_class"])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def evaluate_alone(scene, x):
    """The grid pass's row or rejection of the point x evaluated alone, as a
    batch of one: the oracle of the batched grid pass."""
    x = np.asarray(x, dtype=float)
    try:
        (row,), diag, _ = tm.per_sample(
            tm.float_edges(lambda xs: cli._evaluate(scene, chart_geometry(scene.im, xs))), [x]
        )
    except Exception as err:  # a typed rejection, or raised again
        return "rejected", cli._rejection(x, err), None
    return "row", row, {name: v for name, (v,) in diag.items()}


def row_diags(grid):
    """The diagnostics of each row of a grid pass, one dict per row as
    `evaluate_alone` gives them."""
    return [{name: v[i] for name, v in grid.diag.items()} for i in range(len(grid.rows))]


def suite_samples(scene, seed):
    """The chart points the conformal suite samples (its first evaluated
    rows on the model space), the first of them that its factorization
    round trip takes, and the rows the appendix draws by the seed, each as
    the cli docstring states the rule: the oracle of the suites' choice."""
    grid = cli._evaluate_grid(scene)
    points = [np.array(row["point"]) for row in grid.rows]
    on_model = [
        x for x, on in zip(points[:cli._CONFORMAL_SAMPLE_CAP], grid.diag.get("on_model", []))
        if on
    ]
    count = min(cli._APPENDIX_SAMPLES, len(points))
    picks = np.random.default_rng(seed).choice(len(points), size=count, replace=False)
    return on_model, on_model[:cli._FACTORIZATION_SAMPLES], [points[i] for i in picks]


def pullback_alone(spec, geo, expected_factor=None):
    """(deviation, spd) of the split map's pullback identity at the
    geometry of one point, with lambda the variant's denominator or
    `expected_factor` (a callable of the chart point): the oracle of
    `conformal.pullback_columns`, and the check of the conformal factor
    against an independent lambda."""
    im, x, psi = geo.immersion, geo.x[0], geo.position
    _, keep = cf._split_layout(spec, im)
    denom = cf._denominator(spec, im, psi)
    d = denom.val[0]
    if abs(d) <= cf.DENOMINATOR_FLOOR:
        raise cf.DegeneracyError(f"split-map denominator {d:.3e} at {tm.format_point(x)}")
    y = np.array([psi[a].val[0] for a in keep]) / d
    if spec.hyperbolic:
        on_model = abs(-y[0] ** 2 + y[1:] @ y[1:] + 1.0) < cf.MODEL_MEMBERSHIP_TOL and y[0] > 0.0
    else:
        on_model = abs(y @ y - 1.0) < cf.MODEL_MEMBERSHIP_TOL
    if not on_model:
        raise cf.DegeneracyError(f"split-map image {np.asarray(y)} left the model space")
    n = len(x)
    jac = np.array([[(psi[a] / denom).gradient()[i].val[0] for i in range(n)] for a in keep])
    if spec.primitive:
        w = psi[-1]
        jac = np.vstack([jac, np.array([w.gradient()[i].val[0] for i in range(n)]) / d])
    signs = np.ones(jac.shape[0])
    if spec.hyperbolic:
        signs[0] = -1.0
    pulled = np.einsum("a,ai,aj->ij", signs, jac, jac)
    lam = abs(d) if expected_factor is None else float(expected_factor(x))
    deviation = float(np.max(np.abs(pulled - geo.g0[0] / lam**2)))
    spd = np.allclose(pulled, pulled.T, atol=1e-12) and np.linalg.eigvalsh(pulled)[0] > 0.0
    return deviation, bool(spd)


def _map_values_alone(spec, im, x, psi):
    """The split map's image of psi at one chart point (a batch of one),
    membership enforced."""
    (denom,), (y,), (on_model,) = cf._model_image(spec, im, psi)
    if abs(denom) <= cf.DENOMINATOR_FLOOR:
        raise cf.DegeneracyError(f"split-map denominator {denom:.3e} at {tm.format_point(x)}")
    if not on_model:
        raise cf.DegeneracyError(f"split-map image {y} left the model space")
    if spec.primitive:
        return np.concatenate([y, tm.per_sample(lambda xs: cf._primitive(spec, im, xs), [x])])
    return y


def gauss_newton_step_alone(jac, r):
    """The least-squares step of jac s = r (m, n) for one sample: the
    normal equations (J^T J) s = J^T r, each sum over m left to right, or
    where LU finds J^T J singular, lstsq's minimum-norm step, NaN for a
    jacobian that is not finite.  The oracle of `conformal._steps`, in the
    engine's scope of floating-point errors."""
    with np.errstate(over="ignore", invalid="ignore"):
        jtj = sum(jac[a, :, None] * jac[a, None, :] for a in range(len(jac)))
        jtr = sum(jac[a] * r[a] for a in range(len(jac)))
    try:
        return np.linalg.solve(jtj, jtr)
    except np.linalg.LinAlgError:
        if np.isfinite(jac).all():
            return np.linalg.lstsq(jac, r, rcond=None)[0]
        return np.full(jac.shape[1], np.nan)


@tm.float_edges
def stacked_local_inverse(spec, im, targets, seeds, max_iter=60):
    """The local inverses of the split map at the stacked targets (S, m)
    from the stacked seeds (S, n), as the factorization round trip runs
    them: `conformal._inverse_residuals` of the seeds, then
    `conformal._descend`, in the engine's floating-point scope."""
    targets = np.asarray(targets, dtype=float)
    xs = np.array(seeds, dtype=float)
    start = cf._inverse_residuals(spec, im, xs, targets)
    return cf._descend(spec, im, targets, xs, *start, max_iter=max_iter)[0]


def local_inverse_alone(spec, im, target, seed, tol=1e-12, max_iter=60,
                        step_alone=gauss_newton_step_alone):
    """Damped Gauss-Newton local inverse of the split map at one target, one
    point and one trial at a time, each a batch of one, each step that
    step_alone(jac, r) gives: the oracle of `stacked_local_inverse`."""
    x = np.asarray(seed, dtype=float).copy()
    target = np.asarray(target, dtype=float)
    psi = series_alone(im, x, 1, check_membership=False)
    r = _map_values_alone(spec, im, x, psi) - target
    for _ in range(max_iter):
        if np.max(np.abs(r)) < tol:
            return x
        (jac,) = cf._map_jacobian(spec, im, psi.value_gradient)
        step = step_alone(jac, r)
        if not np.isfinite(step).all():
            raise cf.InverseError(f"no finite step at {tm.format_point(x)}")
        base_norm = float(np.vecdot(r, r))
        damping = 1.0
        for _ in range(30):
            trial = x - damping * step
            try:
                trial_psi = series_alone(im, trial, 1, check_membership=False)
                trial_r = _map_values_alone(spec, im, trial, trial_psi) - target
            except (tm.DomainError, nc.EmbeddingRangeError, cf.DegeneracyError):
                damping *= 0.5
                continue
            if float(np.vecdot(trial_r, trial_r)) < base_norm:
                x, psi, r = trial, trial_psi, trial_r
                break
            damping *= 0.5
        else:
            raise cf.InverseError(f"no descent step at {tm.format_point(x)}")
    if np.max(np.abs(r)) < tol:
        return x
    raise cf.InverseError(
        f"iteration stalled near {tm.format_point(x)} for target {tm.format_point(target)}"
    )


def series_map_jacobian(spec, im, psi):
    """The split map's jacobian by the Series quotient
    (psi[keep] * (1.0 / denom)).c[first], each partial a first-order
    coefficient, batch first: the oracle of `conformal._map_jacobian`."""
    denom = cf._denominator(spec, im, psi)
    _, keep = cf._split_layout(spec, im)
    first = psi.ctx.first
    jac = tm.batch_first((psi[keep] * (1.0 / denom)).c[first].swapaxes(0, 1))
    if spec.primitive:
        dg = tm.batch_first(psi.c[first, -1]) / denom.val[:, None]
        jac = np.concatenate([jac, dg[..., None, :]], axis=-2)
    return jac


def factorization_alone(im, spec, samples):
    """The factorization round trip one sample at a time, each through
    `local_inverse_alone`: the oracle of `conformal.factorization_check`."""
    samples = [np.asarray(s, dtype=float) for s in samples]
    idx, _ = cf._split_layout(spec, im)
    worst = 0.0
    for k, x in enumerate(samples):
        psi = series_alone(im, x, 1)
        y = _map_values_alone(spec, im, x, psi)
        others = [s for j, s in enumerate(samples) if j != k]
        seed = min(others, key=lambda s: float(np.sum((s - x) ** 2)))
        x_hat = local_inverse_alone(spec, im, y, seed)
        f_val = float(series_alone(im, x_hat, 0, check_membership=False)[idx].val[0])
        ambient = cf._psi_f_at_model_point(spec, im, idx, y, f_val)
        psi0 = psi.val[:, 0]
        worst = max(worst, float(np.max(np.abs(ambient - psi0))))
    return worst


# -- the list-of-Series metric algebra, one Series per entry: the bit-for-bit
# oracle of the component-axis algebra in `immersion` and `extrinsic`


def entry_inner(model, f2, v, w):
    """`spacetime.ambient_inner` of component lists of scalar Series."""
    if not model.warped:
        acc = -(v[0] * w[0])
        for a, b in zip(v[1:], w[1:]):
            acc = acc + a * b
        return acc
    acc = None
    for s, a, b in zip(model.signature[1:], v[1:], w[1:]):
        term = a * b if s > 0 else -(a * b)
        acc = term if acc is None else acc + term
    return -(v[0] * w[0]) + f2 * acc


def entry_pullback(im, psi, f2, order=imm.METRIC_ORDER):
    """The induced metric [i][j] and d_i psi^a as nested lists of Series of
    `order`, from the order-3 psi and f2 of `order`."""
    n = im.dim
    dpsi = [[comp.gradient()[i].truncate(order) for comp in psi] for i in range(n)]
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = entry_inner(im.model, f2, dpsi[i], dpsi[j])
    return g, dpsi


def _smat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][l] * b[l][j] for l in range(n)) for j in range(n)]
        for i in range(n)
    ]


def entry_g_inv(g, g0, g_inv0, order=imm.FRAME_ORDER):
    """The Neumann series of the inverse metric to `order`, entry by entry:
    (I - m + m^2 - ...) A0inv through m^order; g0 and g_inv0 are values
    with the batch axis last."""
    n = len(g)
    e = [[g[i][j].truncate(order) - g0[i, j] for j in range(n)] for i in range(n)]
    m = [
        [sum(g_inv0[i, l] * e[l][j] for l in range(n)) for j in range(n)]
        for i in range(n)
    ]
    x = [[(1.0 if i == j else 0.0) - m[i][j] for j in range(n)] for i in range(n)]
    power = m
    for k in range(2, order + 1):
        power = _smat_mul(power, m)
        even = k % 2 == 0
        x = [
            [x[i][j] + power[i][j] if even else x[i][j] - power[i][j] for j in range(n)]
            for i in range(n)
        ]
    return [
        [sum(x[i][l] * g_inv0[l, j] for l in range(n)) for j in range(n)]
        for i in range(n)
    ]


def entry_christoffel(g, ginv, order=imm.FRAME_ORDER):
    """Gamma^k_ij as Series of `order` indexed [k][i][j], from the metric
    entries and the inverse metric of `order`."""
    n = len(g)
    dg = [
        [[g[i][j].gradient()[k].truncate(order) for j in range(n)] for i in range(n)]
        for k in range(n)
    ]
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                acc = None
                for l in range(n):
                    term = ginv[k][l] * (dg[i][l][j] + dg[j][l][i] - dg[l][i][j])
                    acc = term if acc is None else acc + term
                gamma[k][i][j] = gamma[k][j][i] = 0.5 * acc
    return gamma


def entry_fiber_radial(model, x):
    """(r, Dr), the distance from the fiber base point and the unit radial
    field as a component list, of the component list x of the fiber
    embedding coordinates (scalar Series), one composition or product per
    component: the oracle of `spacetime.fiber_radial`."""
    kind = model.fiber_kind
    if kind == "euclidean":
        r = tm.sqrt(tm.norm_sq(x))
        rinv = 1.0 / r
        return r, [rinv * a for a in x]
    c = x[0]
    if kind == "sphere":
        r = tm.arccos(c)
        s = tm.sqrt(1.0 - c * c)
        ratio = c / s
        return r, [-s] + [ratio * a for a in x[1:]]
    r = tm.arccosh(c)
    s = tm.sqrt(c * c - 1.0)
    ratio = c / s
    return r, [s] + [ratio * a for a in x[1:]]


def entry_null_gradient(cone, psi, f):
    """Half the gradient of F as a component list of Series, one product
    per component: psi on the light cone, psi with its line component zero
    on the cylinder, 1/2 (-(x_last - beta x_1) psi + beta e_1 + e_last) on a
    de Sitter section, f^-2 (phi f, r Dr) on a GRW cone, with the conformal
    time phi composed to the order of psi."""
    model = cone.model
    if cone.variant == "minkowski_cone":
        return list(psi)
    if cone.variant == "cylinder":
        return list(psi[: model.n + 1]) + [0.0 * psi[0]]
    if cone.variant == "desitter_alpha":
        scale = psi[-1] - cone.beta * psi[0]
        comps = [-scale * x for x in psi]
        comps[0] = comps[0] + cone.beta
        comps[-1] = comps[-1] + 1.0
        return [0.5 * c for c in comps]
    phi = model.warping.conformal_time(psi[0], model.t0)
    if model.fiber_kind == "euclidean":
        radial = psi[1:]
    else:
        r, dr = entry_fiber_radial(model, psi[1:])
        radial = [r * d for d in dr]
    inv = 1.0 / (f * f)
    return [inv * (phi * f)] + [inv * x for x in radial]


def entry_time_axis(model, psi):
    """The time axis as a component list: (1, 0, ..., 0), or on the de
    Sitter quadric (1 + x_1^2, x_1 x_2, ..., x_1 x_last), cosh t times the
    pushforward of the unit axis of -dt^2 + cosh^2 t g_S."""
    if model.kind != "desitter":
        return [1.0] + [0.0] * (len(psi) - 1)
    return [psi[0] * psi[0] + 1.0] + [psi[0] * x for x in psi[1:]]


def entry_null_frame(im, psi, f, f2, ginv, dpsi, order=imm.FRAME_ORDER):
    """xi, nu, eta, the time axis and its normal part N as component lists
    of Series of `order`, from the entry lists of the inverse metric (of
    `order`) and of d_i psi, with psi, f, f2 and d_i psi cut to `order`."""
    model, cone, n = im.model, im.target_cone, im.dim

    def cut(s):
        return None if s is None else s.truncate(order)

    psi, f, f2 = [cut(s) for s in psi], cut(f), cut(f2)
    dpsi = [[cut(s) for s in row] for row in dpsi]
    ctx, batch = psi[0].ctx, psi[0].batch
    xi = entry_null_gradient(cone, psi, f)
    if cone.variant == "desitter_alpha":
        sign = np.where(cone.scale(psi[0].val) > 0.0, -1.0, 1.0)
        xi = [c * sign for c in xi]
    axis = [tm.as_series(c, ctx, batch) for c in entry_time_axis(model, psi)]
    if model.kind == "desitter":
        b = [entry_inner(model, f2, axis, dpsi[j]) for j in range(n)]
    else:
        b = [tm.Series(ctx, 0.0 - dpsi[j][0].c) for j in range(n)]
    coeff = [sum(ginv[i][j] * b[j] for j in range(n)) for i in range(n)]
    normal = []
    for a in range(len(psi)):
        steps = coeff[0] * dpsi[0][a]
        for i in range(1, n):
            steps = steps + coeff[i] * dpsi[i][a]
        normal.append(axis[a] - steps)
    scale = 1.0 / tm.sqrt(-entry_inner(model, f2, normal, normal))
    nu = [scale * comp for comp in normal]
    c = entry_inner(model, f2, xi, nu)
    a, b = -1.0 / (2.0 * c * c), -1.0 / c
    eta = [a * x + b * v for x, v in zip(xi, nu)]
    return xi, nu, eta, axis, normal


def order3_stages(geo):
    """The stages of a chart geometry's immersion with every Series at
    order 3, by the entry algebra with the Neumann series through m^3, as
    the pipeline ran them before each stage was cut to the order it reads:
    a dict of nested lists of Series, each stage's reference prefix."""
    im, order = geo.immersion, imm.JET_ORDER
    psi = components(geo.position)
    f = im.model.warping(psi[0]) if im.model.warped else None
    f2 = None if f is None else f * f
    g, dpsi = entry_pullback(im, psi, f2, order)
    g_inv = entry_g_inv(g, geo.g0.transpose(1, 2, 0), geo.g_inv0.transpose(1, 2, 0), order)
    xi, nu, eta, _, _ = entry_null_frame(im, psi, f, f2, g_inv, dpsi, order)
    return {
        "f": f, "f2": f2, "dpsi": dpsi, "g": g, "g_inv": g_inv,
        "christoffel": entry_christoffel(g, g_inv, order), "xi": xi, "nu": nu, "eta": eta,
    }
