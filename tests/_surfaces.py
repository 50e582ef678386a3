"""Shared immersions, metric charts and sample boxes for the geometry
test-suite, and the oracles that only the tests use."""

import math

import numpy as np

from nullgeom import extrinsic as ext
from nullgeom import spacetime as st
from nullgeom import taylor as tm
from nullgeom.immersion import MetricChart, chart_geometry
from nullgeom.scenes import (
    cylinder_immersion,
    grw_graph,
    hxr_immersion,
    marginal_height_profile,
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
    "random_positive_field",
    "inner_at",
    "intrinsic_gradient",
    "hessian_laplacian",
    "desitter_embed",
    "normal_connection_residual",
]


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

    return MetricChart(metric=metric, dim=n, name="random")


def pullback_metric_chart(chart_map: tm.SmoothMap, signs=None, name="") -> MetricChart:
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

    return MetricChart(metric=metric, dim=chart_map.n_inputs, name=name)


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
