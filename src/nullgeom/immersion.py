"""Immersed charts: induced metrics, connection and intrinsic curvature.

A submanifold enters the engine as a chart map into an ambient model's
coordinates.  All differentiation happens through order-3 Taylor jets at a
base point, from which the induced metric is exact to order 2, the
Christoffel symbols to order 1, and the curvature tensor at order 0 --
enough for every intrinsic quantity reported downstream.  The metric
algebra runs on matrix and vector Series (`taylor`'s component axes), one
product per matrix rather than one per entry.  The same code evaluates one
point or a batch of points, the batch riding along as the trailing axis of
every Series and the leading axis of every array.

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
from .taylor import BatchRejected, DomainError, Series, SmoothMap, format_point

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
    point is evaluated.  The chart domain is the map's declared domain.
    """

    map: SmoothMap
    model: AmbientModel
    target_cone: Optional[NullconeSpec] = None

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

    @property
    def dim(self) -> int:
        return self.map.n_inputs

    def series(self, x, order: int, check_membership=True) -> list:
        """The ambient coordinates psi at a chart point (n,), or at each point
        of a batch (B, n), as Series of `order`.

        Raises `ChartDomainError` outside the chart domain and, unless
        `check_membership` is off, `PointRejected` off the target cone; on a
        batch, `BatchRejected` with each failing column's error.
        """
        psi = taylor.eval_series(self.map, x, order)
        if check_membership and self.target_cone is not None:
            _require_on_cone(self.target_cone, taylor.batch_first([s.val for s in psi]))
        return psi


def _require_on_cone(cone: NullconeSpec, psi0):
    """`require_on_cone` of the psi values (ambient,) of one point, or of
    each column of a batch (B, ambient), tested one float point at a time."""
    if psi0.ndim == 1:
        return require_on_cone(cone, psi0)
    errors = {}
    for b, p in enumerate(psi0):
        try:
            require_on_cone(cone, p)
        except (PointRejected, DomainError) as err:
            errors[b] = err
    if errors:
        raise BatchRejected(errors)


def _stacked(op, error, a, *args):
    """A numpy.linalg `op` over a matrix or a stack of them; a `LinAlgError`,
    which fails a stack as a whole, is `taylor.reject`'s `error` for each
    matrix that fails alone."""
    try:
        return op(a, *args)
    except np.linalg.LinAlgError:
        bad = True
        if a.ndim > 2:
            bad = np.zeros(len(a), dtype=bool)
            for b in range(len(a)):
                try:
                    op(a[b], *(arg[b] for arg in args))
                except np.linalg.LinAlgError:
                    bad[b] = True
        taylor.reject(bad, error)
        raise  # no matrix of the stack fails alone


@dataclass(frozen=True)
class MetricChart:
    """A Riemannian metric given directly in chart coordinates.

    `metric` receives the chart coordinates as a list of Series and returns
    an n-by-n nested sequence of scalars (Series or floats).
    """

    metric: Callable
    dim: int


def _mirrored(g: Series) -> Series:
    """The (n, n) Series g with each entry below the diagonal replaced by
    its mirror above it, which is the entry computed with (i, j) in order."""
    c = g.c.copy()
    for i in range(g.shape[0]):
        for j in range(i):
            c[:, i, j] = c[:, j, i]
    return Series(g.ctx, c, g.shape)


def _matmul(a: Series, b: Series) -> Series:
    """The matrix product of (n, n) Series, each entry summed left to right
    from Python's start 0, as `sum` over l of a[i][l] * b[l][j] gives it."""
    return (a[:, :, None] * b[None, :, :]).sum(axis=1, start=0.0)


class ChartGeometry:
    """Order-3 metric jet at a chart point, or at each point of a batch, and
    everything derived from it.

    Built either from an immersion (metric pulled back through the ambient
    inner product of the derivative series `dpsi`, at the fiber scale
    `f2 = f * f` of the warping profile f of the Series time psi^0) or from
    a metric chart.  `g_series` is the (n, n) Series of the metric and
    `dpsi` the (n, ambient) Series of the d_i psi^a.  At one point `x` has
    shape (n,) and arrays the shapes noted below; on a batch `x` is (B, n),
    every Series carries B columns and every array a leading batch axis.
    Quantities are computed lazily and cached.
    """

    def __init__(self, x, g_series: Series, psi=None, dpsi=None, f=None, f2=None,
                 immersion=None):
        self.x = np.asarray(x, dtype=np.float64)
        self.g_series = g_series
        self.dim = g_series.shape[0]
        self.ctx = g_series.ctx
        self.batch = None if self.x.ndim == 1 else len(self.x)
        self.psi = psi
        self.dpsi = dpsi
        self.f = f
        self.f2 = f2
        self.immersion = immersion
        g0 = taylor.batch_first(g_series.val, 2)
        g0 = 0.5 * (g0 + np.swapaxes(g0, -1, -2))
        lowest = _stacked(np.linalg.eigvalsh, self._defect("has no eigenvalues"), g0)[..., 0]
        taylor.reject(
            lowest <= _EIG_FLOOR,
            lambda at: MetricSignatureError(
                f"induced metric at {format_point(at(self.x))} is not positive definite "
                f"(min eigenvalue {at(lowest):.3e})"
            ),
        )
        self.g0 = g0
        self.g_inv0 = _stacked(np.linalg.inv, self._defect("is singular"), g0)

    def _defect(self, what: str):
        """The error factory of a defect of the induced metric: it `what`."""
        return lambda at: MetricSignatureError(
            f"induced metric at {format_point(at(self.x))} {what}"
        )

    @cached_property
    def coords(self) -> list:
        """The chart coordinates as Series, for fields on the chart."""
        return [Series.variable(self.ctx, i, self.x[..., i]) for i in range(self.dim)]

    def rescaled(self, lam: Series) -> "ChartGeometry":
        """Geometry of the conformal metric lam^2 g at the same point."""
        return ChartGeometry(self.x, (lam * lam) * self.g_series)

    # -- ambient side (immersions only) --------------------------------

    @cached_property
    def psi0(self) -> np.ndarray:
        return taylor.batch_first([s.val for s in self.psi])

    @cached_property
    def tangents(self) -> np.ndarray:
        """Coordinate tangent vectors d_i psi, shape (dim, ambient)."""
        return taylor.batch_first(self.dpsi.val, 2)

    @cached_property
    def psi_second_partials(self) -> np.ndarray:
        """d_i d_j psi values, shape (dim, dim, ambient)."""
        return np.stack([self.second_partials(s) for s in self.psi], axis=-1)

    # -- metric jet algebra ---------------------------------------------

    def _entries(self, a: np.ndarray) -> np.ndarray:
        """a with any batch axis moved last, as values over the component
        and batch axes of a Series."""
        return a if self.batch is None else np.moveaxis(a, 0, -1)

    @cached_property
    def g_inv_series(self) -> Series:
        """The inverse metric (n, n): the Neumann series around the point
        value, (I + A0inv E)^-1 A0inv with E = g - g(x), to order 3."""
        n = self.dim
        a0inv = self._entries(self.g_inv0)
        e = self.g_series - self._entries(self.g0)
        # m[i, j] = sum over l of a0inv[i, l] * e[l, j]
        m = (e[None, :, :] * a0inv[:, :, None]).sum(axis=1, start=0.0)
        m2 = _matmul(m, m)
        m3 = _matmul(m2, m)
        eye = np.eye(n) if self.batch is None else np.eye(n)[:, :, None]
        x = eye - m + m2 - m3
        return (x[:, :, None] * a0inv[None, :, :]).sum(axis=1, start=0.0)

    @cached_property
    def christoffel_series(self) -> Series:
        """Gamma^k_ij as a (k, i, j) Series; exact to order 1."""
        dg = self.g_series.gradient()  # [k, i, j] = d_k g_ij
        # [i, j, l] = d_i g_lj + d_j g_li - d_l g_ij
        s = dg.transpose(0, 2, 1) + dg.transpose(2, 0, 1) - dg.transpose(1, 2, 0)
        terms = self.g_inv_series[:, None, None, :] * s[None]
        return 0.5 * terms.sum(axis=-1)

    @cached_property
    def christoffel(self) -> np.ndarray:
        """Gamma^k_ij values, shape (dim, dim, dim)."""
        return taylor.batch_first(self.christoffel_series.val, 3)

    @cached_property
    def riemann(self) -> np.ndarray:
        """R^l_ijk = <chart components of R(d_i, d_j) d_k>, value only."""
        gamma = self.christoffel
        # d_i Gamma^l_jk, indexed [l, j, k, i]: the first partials of the series
        dgamma = taylor.batch_first(
            np.moveaxis(self.christoffel_series.c[self.ctx.first], 0, 3), 4
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
        l = _stacked(np.linalg.cholesky, self._defect("has no Cholesky factor"), self.g0)
        eye = np.broadcast_to(np.eye(self.dim), l.shape)
        solved = _stacked(np.linalg.solve, self._defect("has a singular Cholesky factor"), l, eye)
        return np.swapaxes(solved, -1, -2)

    # -- scalar fields on the chart --------------------------------------

    def scalar_series(self, h) -> Series:
        """The chart field h, a callable of the coordinate list, as a Series."""
        return taylor.as_series(h(self.coords), self.ctx, self.batch)

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
    # [i, a] = d_i psi^a
    dpsi = Series.stack(psi, psi[0].ctx).gradient()
    # the profile f at the Series time, kept for the cone gradient; f^2 is
    # `spacetime.fiber_scale` of the same time
    f = im.model.warping(psi[0]) if im.model.warped else None
    f2 = None if f is None else f * f
    g = _mirrored(spacetime.ambient_inner(im.model, f2, dpsi[:, None, :], dpsi[None, :, :]))
    return ChartGeometry(x, g, psi=psi, dpsi=dpsi, f=f, f2=f2, immersion=im)


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
    return ChartGeometry(x, Series.stack([Series.stack(row, ctx) for row in g], ctx))


def chart_geometry(obj, x, check_membership=True) -> ChartGeometry:
    """Metric jet of an `Immersion` or a `MetricChart` at a chart point (n,)
    or at each point of a batch (B, n)."""
    if isinstance(obj, Immersion):
        return _geometry_from_immersion(obj, x, check_membership=check_membership)
    if isinstance(obj, MetricChart):
        return _geometry_from_metric(obj, x)
    raise TypeError(f"expected Immersion or MetricChart, got {type(obj).__name__}")
