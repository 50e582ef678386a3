"""Immersed charts: induced metrics, connection and intrinsic curvature.

A submanifold enters the engine as a chart map into an ambient model's
coordinates.  All differentiation happens through order-3 Taylor jets at a
single base point, from which the induced metric is exact to order 2, the
Christoffel symbols to order 1, and the curvature tensor at order 0 --
enough for every intrinsic quantity reported downstream.

A metric can also be handed over directly in chart coordinates
(`MetricChart`) when there is no ambient picture, e.g. model-space metrics
or conformally rescaled ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import spacetime, taylor
from .nullcone import NullconeSpec, require_on_cone
from .spacetime import AmbientModel
from .taylor import ChartDomainError, Series, SmoothMap, format_point

JET_ORDER = 3

# induced metrics must be Riemannian; eigenvalues below this are a signature defect
_EIG_FLOOR = -1e-12


class MetricSignatureError(ValueError):
    """The induced metric failed the positive-definite eigenvalue test, or is singular."""


@dataclass(frozen=True)
class Immersion:
    """A chart-parametrized spacelike submanifold of an ambient model.

    `map` sends chart coordinates to ambient coordinates; its output arity
    must match the model.  `target_cone`, when set, declares that the image
    must lie on that null hypersurface, which is enforced whenever a chart
    point is evaluated.  `chart_domain` is a per-axis (low, high) box;
    defaults to the map's own declared domain.
    """

    map: SmoothMap
    model: AmbientModel
    target_cone: Optional[NullconeSpec] = None
    chart_domain: Optional[tuple] = None

    def __post_init__(self):
        if self.map.n_outputs != self.model.coord_count:
            raise ValueError(
                f"map has {self.map.n_outputs} outputs, model needs "
                f"{self.model.coord_count} coordinates"
            )
        if self.map.n_inputs != self.model.n:
            raise ValueError(
                f"chart dimension {self.map.n_inputs} != submanifold "
                f"dimension {self.model.n}"
            )
        if self.target_cone is not None and self.target_cone.model != self.model:
            raise ValueError("target cone lives in a different ambient model")
        if self.chart_domain is None:
            object.__setattr__(self, "chart_domain", self.map.domain)
        elif len(self.chart_domain) != self.map.n_inputs:
            raise ValueError("chart_domain arity mismatch")

    @property
    def dim(self) -> int:
        return self.map.n_inputs

    def contains(self, x) -> bool:
        if self.chart_domain is None:
            return True
        return all(lo <= xi <= hi for xi, (lo, hi) in zip(x, self.chart_domain))

    def series(self, x, order: int, check_membership=True) -> list:
        """The ambient coordinates psi at a chart point, as Series of `order`.

        Raises `ChartDomainError` outside the chart domain and, unless
        `check_membership` is off, `PointRejected` off the target cone.
        """
        x = np.asarray(x, dtype=np.float64)
        if not self.contains(x):
            raise ChartDomainError(f"chart point {format_point(x)} outside the immersion's domain")
        psi = taylor.eval_series(self.map, x, order)
        if check_membership and self.target_cone is not None:
            require_on_cone(self.target_cone, np.array([s.val for s in psi]))
        return psi


@dataclass(frozen=True)
class MetricChart:
    """A Riemannian metric given directly in chart coordinates.

    `metric` receives the chart coordinates as a list of Series and returns
    an n-by-n nested sequence of scalars (Series or floats).
    """

    metric: Callable
    dim: int
    name: str = ""


def _smat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][l] * b[l][j] for l in range(n)) for j in range(n)]
        for i in range(n)
    ]


class ChartGeometry:
    """Order-3 metric jet at one chart point and everything derived from it.

    Built either from an immersion (metric pulled back through the ambient
    inner product of the derivative series `dpsi`, at the fiber scale `f2`
    of the Series time psi^0) or from a metric chart.  Quantities are
    computed lazily and cached.
    """

    def __init__(self, x, g_series, psi=None, dpsi=None, f2=None, immersion=None, name=""):
        self.x = np.asarray(x, dtype=np.float64)
        self.g_series = g_series
        self.dim = len(g_series)
        self.ctx = g_series[0][0].ctx
        self.coords = [Series.variable(self.ctx, i, self.x[i]) for i in range(self.dim)]
        self.psi = psi
        self.dpsi = dpsi
        self.f2 = f2
        self.immersion = immersion
        self.name = name
        g0 = np.array([[g_series[i][j].val for j in range(self.dim)] for i in range(self.dim)])
        g0 = 0.5 * (g0 + g0.T)
        eigs = np.linalg.eigvalsh(g0)
        if eigs[0] <= _EIG_FLOOR:
            raise MetricSignatureError(
                f"induced metric at {format_point(self.x)} is not positive definite "
                f"(min eigenvalue {eigs[0]:.3e})"
            )
        self.g0 = g0
        try:
            self.g_inv0 = np.linalg.inv(g0)
        except np.linalg.LinAlgError:
            raise MetricSignatureError(
                f"induced metric at {format_point(self.x)} is singular"
            ) from None

    def rescaled(self, lam: Series) -> "ChartGeometry":
        """Geometry of the conformal metric lam^2 g at the same point."""
        factor = lam * lam
        n = self.dim
        g = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = factor * self.g_series[i][j]
        return ChartGeometry(self.x, g, name=f"scaled({self.name})")

    # -- ambient side (immersions only) --------------------------------

    @cached_property
    def psi0(self) -> np.ndarray:
        return np.array([s.val for s in self.psi])

    @cached_property
    def tangents(self) -> np.ndarray:
        """Coordinate tangent vectors d_i psi, shape (dim, ambient)."""
        return np.stack([self.partials(s) for s in self.psi], axis=1)

    @cached_property
    def psi_second_partials(self) -> np.ndarray:
        """d_i d_j psi values, shape (dim, dim, ambient)."""
        return np.stack([self.second_partials(s) for s in self.psi], axis=-1)

    # -- metric jet algebra ---------------------------------------------

    @cached_property
    def g_inv_series(self):
        # Neumann series around the point value: (I + A0inv E)^-1 A0inv
        n = self.dim
        a0inv = self.g_inv0
        e = [[self.g_series[i][j] - self.g0[i, j] for j in range(n)] for i in range(n)]
        m = [
            [sum(a0inv[i, l] * e[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        m2 = _smat_mul(m, m)
        m3 = _smat_mul(m2, m)
        x = [
            [
                (1.0 if i == j else 0.0) - m[i][j] + m2[i][j] - m3[i][j]
                for j in range(n)
            ]
            for i in range(n)
        ]
        return [
            [sum(x[i][l] * a0inv[l, j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]

    @cached_property
    def christoffel_series(self):
        """Gamma^k_ij as Series, indexed [k][i][j]; exact to order 1."""
        n = self.dim
        dg = [
            [[self.g_series[i][j].derivative(k) for j in range(n)] for i in range(n)]
            for k in range(n)
        ]
        ginv = self.g_inv_series
        gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    acc = None
                    for l in range(n):
                        term = ginv[k][l] * (dg[i][l][j] + dg[j][l][i] - dg[l][i][j])
                        acc = term if acc is None else acc + term
                    s = 0.5 * acc
                    gamma[k][i][j] = s
                    gamma[k][j][i] = s
        return gamma

    @cached_property
    def christoffel(self) -> np.ndarray:
        n = self.dim
        out = np.zeros((n, n, n))
        gs = self.christoffel_series
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    out[k, i, j] = gs[k][i][j].val
        return out

    @cached_property
    def riemann(self) -> np.ndarray:
        """R^l_ijk = <chart components of R(d_i, d_j) d_k>, value only."""
        n = self.dim
        gs = self.christoffel_series
        gamma = self.christoffel
        dgamma = np.zeros((n, n, n, n))  # [i, l, j, k] = d_i Gamma^l_jk
        for i in range(n):
            for l in range(n):
                for j in range(n):
                    for k in range(j, n):
                        v = gs[l][j][k].derivative(i).val
                        dgamma[i, l, j, k] = v
                        dgamma[i, l, k, j] = v
        r = np.zeros((n, n, n, n))
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        v = dgamma[i, l, j, k] - dgamma[j, l, i, k]
                        v += np.dot(gamma[l, i, :], gamma[:, j, k])
                        v -= np.dot(gamma[l, j, :], gamma[:, i, k])
                        r[l, i, j, k] = v
        return r

    @cached_property
    def scal(self) -> float:
        # Ricci as the trace over the first slot; sign fixed by Scal(S^n) = +n(n-1)
        n = self.dim
        r = self.riemann
        ric = np.einsum("iijk->jk", r.reshape(n, n, n, n))
        return float(np.einsum("jk,jk->", self.g_inv0, ric))

    @cached_property
    def onf(self) -> np.ndarray:
        """Columns are g-orthonormal tangent frame vectors in chart components.

        Cholesky of the metric, i.e. Gram-Schmidt on the coordinate basis.
        """
        l = np.linalg.cholesky(self.g0)
        return np.linalg.solve(l, np.eye(self.dim)).T

    # -- scalar fields on the chart --------------------------------------

    def scalar_series(self, h) -> Series:
        fn = h.fn if isinstance(h, SmoothMap) else h
        return taylor.as_series(fn(self.coords), self.ctx)

    def partials(self, s: Series) -> np.ndarray:
        return s.c[s.ctx.first]

    def second_partials(self, s: Series) -> np.ndarray:
        return s.c[s.ctx.second] * s.ctx.second_fac

    def gradient(self, s: Series):
        """Contravariant gradient components and its squared norm."""
        dh = self.partials(s)
        comps = self.g_inv0 @ dh
        return comps, float(dh @ comps)

    def covariant_hessian(self, s: Series) -> np.ndarray:
        """Hess_ij = d_i d_j h - Gamma^k_ij d_k h, chart components."""
        dh = self.partials(s)
        return self.second_partials(s) - np.einsum("kij,k->ij", self.christoffel, dh)

    def laplacian(self, s: Series) -> float:
        return float(np.einsum("ij,ij->", self.g_inv0, self.covariant_hessian(s)))


def _geometry_from_immersion(im: Immersion, x, check_membership=True) -> ChartGeometry:
    psi = im.series(x, JET_ORDER, check_membership)
    n = im.dim
    dpsi = [[comp.derivative(i) for comp in psi] for i in range(n)]
    f2 = spacetime.fiber_scale(im.model, psi[0])
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = spacetime.ambient_inner(im.model, f2, dpsi[i], dpsi[j])
            g[i][j] = s
            g[j][i] = s
    return ChartGeometry(x, g, psi=psi, dpsi=dpsi, f2=f2, immersion=im, name=im.map.name)


def _geometry_from_metric(chart: MetricChart, x) -> ChartGeometry:
    x = np.asarray(x, dtype=np.float64)
    ctx = taylor.get_context(chart.dim, JET_ORDER)
    coords = [Series.variable(ctx, i, x[i]) for i in range(chart.dim)]
    raw = chart.metric(coords)
    n = chart.dim
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = 0.5 * (taylor.as_series(raw[i][j], ctx) + taylor.as_series(raw[j][i], ctx))
            g[i][j] = s
            g[j][i] = s
    return ChartGeometry(x, g, name=chart.name)


def chart_geometry(obj, x, check_membership=True) -> ChartGeometry:
    """Metric jet of an `Immersion` or a `MetricChart` at a chart point."""
    if isinstance(obj, Immersion):
        return _geometry_from_immersion(obj, x, check_membership=check_membership)
    if isinstance(obj, MetricChart):
        return _geometry_from_metric(obj, x)
    raise TypeError(f"expected Immersion or MetricChart, got {type(obj).__name__}")


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


def pullback_metric_chart(chart_map: SmoothMap, signs=None, name="") -> MetricChart:
    """Metric chart obtained by pulling a (pseudo)flat ambient metric back
    through `chart_map`; `signs` lists the ambient signature, default all +1."""
    if signs is not None and len(signs) != chart_map.n_outputs:
        raise ValueError("signature length must match the map's output arity")

    def metric(coords):
        ys = chart_map.fn(coords)
        if isinstance(ys, Series):
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
