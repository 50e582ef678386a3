"""Immersed charts: induced metrics, connection and intrinsic curvature.

A submanifold enters the engine as a chart map into an ambient model's
coordinates.  All differentiation happens through order-3 Taylor jets at a
base point, from which the induced metric is exact to order 2, the
Christoffel symbols to order 1, and the curvature tensor at order 0 --
enough for every intrinsic quantity reported downstream.  The same code
evaluates one point or a batch of points, the batch riding along as the
trailing axis of every Series and the leading axis of every array.

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
from .nullcone import NullconeSpec, PointRejected, require_on_cone
from .spacetime import AmbientModel
from .taylor import BatchRejected, ChartDomainError, DomainError, Series, SmoothMap, format_point

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

    def contains(self, x):
        """Whether x lies in the chart domain; a (B,) mask for a (B, n) batch."""
        return taylor.in_box(x, self.chart_domain)

    def series(self, x, order: int, check_membership=True) -> list:
        """The ambient coordinates psi at a chart point (n,), or at each point
        of a batch (B, n), as Series of `order`.

        Raises `ChartDomainError` outside the chart domain and, unless
        `check_membership` is off, `PointRejected` off the target cone; on a
        batch, `BatchRejected` with the failing columns.
        """
        x = np.asarray(x, dtype=np.float64)
        taylor.require(
            self.contains(x),
            lambda: ChartDomainError(
                f"chart point {format_point(x)} outside the immersion's domain"
            ),
        )
        psi = taylor.eval_series(self.map, x, order)
        if check_membership and self.target_cone is not None:
            psi0 = taylor.batch_first([s.val for s in psi])
            if psi0.ndim == 1:
                require_on_cone(self.target_cone, psi0)
            else:
                taylor.reject(_off_cone(self.target_cone, psi0), None)
        return psi


def _off_cone(cone: NullconeSpec, psi0) -> np.ndarray:
    """The columns of a batch of psi values (B, ambient) that
    `require_on_cone` refuses, tested one float point at a time."""
    bad = np.zeros(len(psi0), dtype=bool)
    for b, p in enumerate(psi0):
        try:
            require_on_cone(cone, p)
        except (PointRejected, DomainError):
            bad[b] = True
    return bad


def _stacked(op, a, *args):
    """A numpy.linalg `op` over a matrix or a stack of them; on a stack,
    `LinAlgError` (which fails the whole stack) becomes `BatchRejected` for
    the matrices that fail alone."""
    try:
        return op(a, *args)
    except np.linalg.LinAlgError:
        if a.ndim == 2:
            raise
        bad = np.zeros(len(a), dtype=bool)
        for b in range(len(a)):
            try:
                op(a[b], *(arg[b] for arg in args))
            except np.linalg.LinAlgError:
                bad[b] = True
        if not bad.any():
            raise
        raise BatchRejected(bad) from None


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
    """Order-3 metric jet at a chart point, or at each point of a batch, and
    everything derived from it.

    Built either from an immersion (metric pulled back through the ambient
    inner product of the derivative series `dpsi`, at the fiber scale
    `f2 = f * f` of the warping profile f of the Series time psi^0) or from
    a metric chart.  At one point `x` has shape (n,) and arrays the shapes
    noted below; on a batch `x` is (B, n), every Series carries B columns
    and every array a leading batch axis.  Quantities are computed lazily
    and cached.
    """

    def __init__(self, x, g_series, psi=None, dpsi=None, f=None, f2=None, immersion=None,
                 name=""):
        self.x = np.asarray(x, dtype=np.float64)
        self.g_series = g_series
        self.dim = n = len(g_series)
        self.ctx = g_series[0][0].ctx
        self.batch = g_series[0][0].batch
        self.coords = [Series.variable(self.ctx, i, self.x[..., i]) for i in range(n)]
        self.psi = psi
        self.dpsi = dpsi
        self.f = f
        self.f2 = f2
        self.immersion = immersion
        self.name = name
        g0 = taylor.batch_first([[s.val for s in row] for row in g_series], 2)
        g0 = 0.5 * (g0 + np.swapaxes(g0, -1, -2))
        lowest = _stacked(np.linalg.eigvalsh, g0)[..., 0]
        taylor.reject(
            lowest <= _EIG_FLOOR,
            lambda: MetricSignatureError(
                f"induced metric at {format_point(self.x)} is not positive definite "
                f"(min eigenvalue {lowest:.3e})"
            ),
        )
        self.g0 = g0
        try:
            self.g_inv0 = _stacked(np.linalg.inv, g0)
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
        return taylor.batch_first([s.val for s in self.psi])

    @cached_property
    def tangents(self) -> np.ndarray:
        """Coordinate tangent vectors d_i psi, shape (dim, ambient)."""
        return np.stack([self.partials(s) for s in self.psi], axis=-1)

    @cached_property
    def psi_second_partials(self) -> np.ndarray:
        """d_i d_j psi values, shape (dim, dim, ambient)."""
        return np.stack([self.second_partials(s) for s in self.psi], axis=-1)

    # -- metric jet algebra ---------------------------------------------

    def _entries(self, a: np.ndarray) -> np.ndarray:
        """a with any batch axis moved last, so a[i, j] is an entry's value
        at the point or its (B,) values over the batch."""
        return a if self.batch is None else np.moveaxis(a, 0, -1)

    @cached_property
    def g_inv_series(self):
        # Neumann series around the point value: (I + A0inv E)^-1 A0inv
        n = self.dim
        a0inv, g0 = self._entries(self.g_inv0), self._entries(self.g0)
        e = [[self.g_series[i][j] - g0[i, j] for j in range(n)] for i in range(n)]
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
        """Gamma^k_ij values, shape (dim, dim, dim)."""
        gs = self.christoffel_series
        return taylor.batch_first([[[s.val for s in row] for row in plane] for plane in gs], 3)

    @cached_property
    def riemann(self) -> np.ndarray:
        """R^l_ijk = <chart components of R(d_i, d_j) d_k>, value only."""
        n = self.dim
        gs = self.christoffel_series
        gamma = self.christoffel
        first = self.ctx.first
        # d_i Gamma^l_jk, indexed [l, j, k, i]: the first partials of the series
        dgamma = taylor.batch_first(
            [[[gs[l][j][k].c[first] for k in range(n)] for j in range(n)] for l in range(n)], 4
        )
        # [l, i, j, k] = d_i Gamma^l_jk and d_j Gamma^l_ik
        d_i = dgamma.swapaxes(-1, -2).swapaxes(-2, -3)
        d_j = dgamma.swapaxes(-1, -2)
        # [l, i, j, k] = Gamma^l_im Gamma^m_jk, summed over m as np.dot sums
        g_lim = gamma[..., :, :, None, None, :]
        g_mjk = gamma.swapaxes(-3, -2).swapaxes(-2, -1)[..., None, None, :, :, :]
        quad = np.vecdot(g_lim, g_mjk)
        return d_i - d_j + quad - quad.swapaxes(-3, -2)

    @cached_property
    def scal(self):
        # Ricci as the trace over the first slot; sign fixed by Scal(S^n) = +n(n-1)
        ric = np.einsum("...iijk->...jk", self.riemann)
        return taylor.as_value(np.einsum("...jk,...jk->...", self.g_inv0, ric))

    @cached_property
    def onf(self) -> np.ndarray:
        """Columns are g-orthonormal tangent frame vectors in chart components.

        Cholesky of the metric, i.e. Gram-Schmidt on the coordinate basis.
        """
        l = _stacked(np.linalg.cholesky, self.g0)
        eye = np.broadcast_to(np.eye(self.dim), l.shape)
        return np.swapaxes(_stacked(np.linalg.solve, l, eye), -1, -2)

    # -- scalar fields on the chart --------------------------------------

    def scalar_series(self, h) -> Series:
        fn = h.fn if isinstance(h, SmoothMap) else h
        return taylor.as_series(fn(self.coords), self.ctx, self.batch)

    def partials(self, s: Series) -> np.ndarray:
        return s.slots(s.ctx.first)

    def second_partials(self, s: Series) -> np.ndarray:
        return s.slots(s.ctx.second) * s.ctx.second_fac

    def gradient(self, s: Series):
        """Contravariant gradient components and its squared norm."""
        dh = self.partials(s)
        comps = np.matvec(self.g_inv0, dh)
        return comps, taylor.as_value(np.vecdot(dh, comps))

    def covariant_hessian(self, s: Series) -> np.ndarray:
        """Hess_ij = d_i d_j h - Gamma^k_ij d_k h, chart components."""
        dh = self.partials(s)
        return self.second_partials(s) - np.einsum("...kij,...k->...ij", self.christoffel, dh)

    def laplacian(self, s: Series):
        return taylor.as_value(
            np.einsum("...ij,...ij->...", self.g_inv0, self.covariant_hessian(s))
        )


def _geometry_from_immersion(im: Immersion, x, check_membership=True) -> ChartGeometry:
    psi = im.series(x, JET_ORDER, check_membership)
    n = im.dim
    dpsi = [[comp.derivative(i) for comp in psi] for i in range(n)]
    # the profile f at the Series time, kept for the cone gradient; f^2 is
    # `spacetime.fiber_scale` of the same time
    f = im.model.warping(psi[0]) if im.model.warped else None
    f2 = None if f is None else f * f
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = spacetime.ambient_inner(im.model, f2, dpsi[i], dpsi[j])
            g[i][j] = s
            g[j][i] = s
    return ChartGeometry(
        x, g, psi=psi, dpsi=dpsi, f=f, f2=f2, immersion=im, name=im.map.name
    )


def _geometry_from_metric(chart: MetricChart, x) -> ChartGeometry:
    x = np.asarray(x, dtype=np.float64)
    ctx = taylor.get_context(chart.dim, JET_ORDER)
    batch = len(x) if x.ndim == 2 else None
    coords = [Series.variable(ctx, i, x[..., i]) for i in range(chart.dim)]
    raw = chart.metric(coords)
    n = chart.dim
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            upper = taylor.as_series(raw[i][j], ctx, batch)
            s = 0.5 * (upper + taylor.as_series(raw[j][i], ctx, batch))
            g[i][j] = s
            g[j][i] = s
    return ChartGeometry(x, g, name=chart.name)


def chart_geometry(obj, x, check_membership=True) -> ChartGeometry:
    """Metric jet of an `Immersion` or a `MetricChart` at a chart point (n,)
    or at each point of a batch (B, n)."""
    if isinstance(obj, Immersion):
        return _geometry_from_immersion(obj, x, check_membership=check_membership)
    if isinstance(obj, MetricChart):
        return _geometry_from_metric(obj, x)
    raise TypeError(f"expected Immersion or MetricChart, got {type(obj).__name__}")
