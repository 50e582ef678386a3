"""Shared immersions, metric charts and sample boxes for the geometry
test-suite, and the oracles that only the tests use."""

import math

import numpy as np

from nullgeom import cli
from nullgeom import conformal as cf
from nullgeom import extrinsic as ext
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
    "inner_at",
    "intrinsic_gradient",
    "hessian_laplacian",
    "desitter_embed",
    "desitter_graph_height",
    "normal_connection_residual",
    "evaluate_alone",
    "pullback_alone",
    "local_inverse_alone",
    "factorization_alone",
    "entry_inner",
    "entry_pullback",
    "entry_g_inv",
    "entry_christoffel",
    "entry_null_frame",
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
        d = [[comp.derivative(i) for comp in ys] for i in range(k)]
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


def inner_at(model, p, v, w):
    """<v, w> at the point p, through the fiber scale of its time."""
    v, w = np.asarray(v, dtype=float), np.asarray(w, dtype=float)
    return st.ambient_inner(model, st.fiber_scale(model, p[0]), v, w)


def intrinsic_gradient(obj, h, x):
    """Gradient of a chart scalar field: (contravariant components, |grad h|^2)."""
    geo = chart_geometry(obj, x)
    return geo.gradient(geo.scalar_series(h))


def hessian_laplacian(obj, h, x):
    """Covariant Hessian in the orthonormal tangent frame and the Laplacian."""
    geo = chart_geometry(obj, x)
    hess = geo.covariant_hessian(geo.scalar_series(h))
    b = geo.onf
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
    at an `ExtrinsicPoint`:
    nabla^perp_X dt^perp = -(f'/f) <X, grad u> dt^perp - II(X, grad u).
    """
    model = pt.model
    if model.kind == "desitter":
        raise ext.ShapeDispatchError("the propagation law needs a warped-product model")
    ratio = pt.warping_ratio
    xi0, eta0 = pt.xi, pt.eta
    n0 = np.array([s.val for s in pt.time_orthogonal_series])
    worst = 0.0
    for j, dn in enumerate(ext._directional(pt.geo, pt.time_orthogonal_series, pt.df)):
        a = -st.ambient_inner(model, pt.f2, dn, eta0)
        b = -st.ambient_inner(model, pt.f2, dn, xi0)
        lhs = a * xi0 + b * eta0
        ii = np.zeros(len(n0))
        for i in range(pt.n):
            ii += pt.grad_u[i] * pt.ii[j, i]
        rhs = -ratio * pt.du[j] * n0 - ii
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def evaluate_alone(scene, x):
    """The grid pass's row or rejection of the point x evaluated alone, on
    the one-point path: the oracle of the batched grid pass."""
    x = np.asarray(x, dtype=float)
    try:
        ((row, diag),) = cli._evaluate(scene, x)
    except Exception as err:  # a typed rejection, or raised again
        return "rejected", cli._rejection(x, err), None
    return "row", row, diag


def pullback_alone(spec, geo, expected_factor=None):
    """(deviation, spd) of the split map's pullback identity at one evaluated
    point, with lambda the variant's denominator or `expected_factor` (a
    callable of the chart point): the oracle of `conformal.pullback_columns`,
    and the check of the conformal factor against an independent lambda."""
    im, x, psi = geo.immersion, geo.x, geo.psi
    _, keep = cf._split_layout(spec, im)
    denom = cf._denominator_series(spec, im, psi)
    if abs(denom.val) <= cf.DENOMINATOR_FLOOR:
        raise cf.DegeneracyError(
            f"split-map denominator {denom.val:.3e} at {tm.format_point(x)}"
        )
    y = np.array([psi[a].val for a in keep]) / denom.val
    if spec.hyperbolic:
        on_model = abs(-y[0] ** 2 + y[1:] @ y[1:] + 1.0) < cf.MODEL_MEMBERSHIP_TOL and y[0] > 0.0
    else:
        on_model = abs(y @ y - 1.0) < cf.MODEL_MEMBERSHIP_TOL
    if not on_model:
        raise cf.DegeneracyError(f"split-map image {np.asarray(y)} left the model space")
    n = len(x)
    jac = np.array([[(psi[a] / denom).derivative(i).val for i in range(n)] for a in keep])
    if spec.primitive:
        w = psi[-1]
        jac = np.vstack([jac, np.array([w.derivative(i).val for i in range(n)]) / denom.val])
    signs = np.ones(jac.shape[0])
    if spec.hyperbolic:
        signs[0] = -1.0
    pulled = np.einsum("a,ai,aj->ij", signs, jac, jac)
    lam = abs(denom.val) if expected_factor is None else float(expected_factor(x))
    deviation = float(np.max(np.abs(pulled - geo.g0 / lam**2)))
    spd = np.allclose(pulled, pulled.T, atol=1e-12) and np.linalg.eigvalsh(pulled)[0] > 0.0
    return deviation, bool(spd)


def _map_values_alone(spec, im, x, psi):
    """The split map's image of psi at one chart point, membership enforced."""
    denom, y, on_model = cf._model_image(spec, im, psi)
    if abs(denom) <= cf.DENOMINATOR_FLOOR:
        raise cf.DegeneracyError(f"split-map denominator {denom:.3e} at {tm.format_point(x)}")
    if not on_model:
        raise cf.DegeneracyError(f"split-map image {y} left the model space")
    if spec.primitive:
        return np.concatenate([y, [cf.primitive_g(spec, im, x)]])
    return y


def local_inverse_alone(spec, im, target, seed, tol=1e-12, max_iter=60):
    """Damped Gauss-Newton local inverse of the split map at one target, one
    point and one trial at a time: the oracle of `conformal.local_inverse`."""
    x = np.asarray(seed, dtype=float).copy()
    target = np.asarray(target, dtype=float)
    psi = im.series(x, 1, check_membership=False)
    r = _map_values_alone(spec, im, x, psi) - target
    for _ in range(max_iter):
        if np.max(np.abs(r)) < tol:
            return x
        jac = cf._map_jacobian(spec, im, psi)
        step, *_ = np.linalg.lstsq(jac, r, rcond=None)
        base_norm = float(r @ r)
        damping = 1.0
        for _ in range(30):
            trial = x - damping * step
            try:
                trial_psi = im.series(trial, 1, check_membership=False)
                trial_r = _map_values_alone(spec, im, trial, trial_psi) - target
            except (tm.DomainError, cf.EmbeddingRangeError, cf.DegeneracyError):
                damping *= 0.5
                continue
            if float(trial_r @ trial_r) < base_norm:
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


def factorization_alone(im, spec, samples):
    """The factorization round trip one sample at a time, each through
    `local_inverse_alone`: the oracle of `conformal.factorization_check`."""
    samples = [np.asarray(s, dtype=float) for s in samples]
    idx, _ = cf._split_layout(spec, im)
    worst = 0.0
    for k, x in enumerate(samples):
        psi = im.series(x, 1)
        y = _map_values_alone(spec, im, x, psi)
        others = [s for j, s in enumerate(samples) if j != k]
        seed = min(others, key=lambda s: float(np.sum((s - x) ** 2)))
        x_hat = local_inverse_alone(spec, im, y, seed)
        f_val = im.series(x_hat, 0, check_membership=False)[idx].val
        ambient = cf._psi_f_at_model_point(spec, im, idx, y, f_val)
        psi0 = np.array([s.val for s in psi])
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


def entry_pullback(im, psi, f2):
    """The induced metric [i][j] and d_i psi^a as nested lists of Series."""
    n = im.dim
    dpsi = [[comp.derivative(i) for comp in psi] for i in range(n)]
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


def entry_g_inv(g, g0, g_inv0):
    """The Neumann series of the inverse metric, entry by entry; g0 and
    g_inv0 are values with any batch axis last."""
    n = len(g)
    e = [[g[i][j] - g0[i, j] for j in range(n)] for i in range(n)]
    m = [
        [sum(g_inv0[i, l] * e[l][j] for l in range(n)) for j in range(n)]
        for i in range(n)
    ]
    m2 = _smat_mul(m, m)
    m3 = _smat_mul(m2, m)
    x = [
        [(1.0 if i == j else 0.0) - m[i][j] + m2[i][j] - m3[i][j] for j in range(n)]
        for i in range(n)
    ]
    return [
        [sum(x[i][l] * g_inv0[l, j] for l in range(n)) for j in range(n)]
        for i in range(n)
    ]


def entry_christoffel(g, ginv):
    """Gamma^k_ij as Series indexed [k][i][j]."""
    n = len(g)
    dg = [[[g[i][j].derivative(k) for j in range(n)] for i in range(n)] for k in range(n)]
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


def entry_null_frame(geo, ginv, dpsi):
    """xi, nu and eta as component lists of Series, from the entry lists
    of the inverse metric and of d_i psi."""
    model, cone = geo.immersion.model, geo.immersion.target_cone
    psi, n, f2 = geo.psi, geo.dim, geo.f2
    xi = nc.grad_F_components(cone, psi, geo.f)
    if cone.variant == "desitter_alpha":
        sign = np.where(cone.scale(geo.psi0[..., 0]) > 0.0, -1.0, 1.0)
        xi = [c * tm.as_value(sign) for c in xi]
    axis = [tm.as_series(c, geo.ctx, geo.batch) for c in st.time_axis(model, psi)]
    if model.kind == "desitter":
        b = [entry_inner(model, f2, axis, dpsi[j]) for j in range(n)]
    else:
        b = [tm.Series(geo.ctx, 0.0 - dpsi[j][0].c) for j in range(n)]
    coeff = [sum(ginv[i][j] * b[j] for j in range(n)) for i in range(n)]
    normal = []
    for a in range(len(psi)):
        s = axis[a]
        for i in range(n):
            s = s - coeff[i] * dpsi[i][a]
        normal.append(s)
    scale = 1.0 / tm.sqrt(-entry_inner(model, f2, normal, normal))
    nu = [scale * comp for comp in normal]
    c = entry_inner(model, f2, xi, nu)
    a, b = -1.0 / (2.0 * c * c), -1.0 / c
    eta = [a * x + b * v for x, v in zip(xi, nu)]
    return xi, nu, eta
