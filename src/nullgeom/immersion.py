"""Immersed charts: induced metrics, connection and intrinsic curvature.

A submanifold enters the engine as a chart map into an ambient model's
coordinates.  All differentiation happens through Taylor jets at a base
point, and each stage carries only the order it reads: the chart map psi
at order 3 (`JET_ORDER`), its first partials, the fiber scale and the
induced metric at order 2 (`METRIC_ORDER`), and the inverse metric and the
Christoffel symbols at order 1 (`FRAME_ORDER`), from which the curvature
tensor follows at order 0 -- enough for every intrinsic quantity reported
downstream.  A stage cuts the Series it is handed with `Series.truncate`,
a prefix of the coefficients.  The metric algebra runs on matrix and
vector Series (`taylor`'s component axes), one product per matrix rather
than one per entry.  It evaluates a batch of chart points (one point is a
batch of one), the batch riding along as the trailing axis of every Series
and the leading axis of every array.

A metric can also be handed over directly in chart coordinates
(`MetricChart`) when there is no ambient picture, e.g. model-space metrics
or conformally rescaled ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.linalg import _umath_linalg

from . import spacetime, taylor
from .nullcone import NullconeSpec, cone_time, require_on_cone
from .spacetime import AmbientModel
from .taylor import BatchRejected, Series, SmoothMap, format_point

# the jet order of each stage: psi; d psi, f, f^2 and the metric; the
# inverse metric, the Christoffel symbols and the null frame
JET_ORDER = 3
METRIC_ORDER = 2
FRAME_ORDER = 1

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

    def series(self, x, order: int, check_membership=True) -> Series:
        """The ambient coordinates psi at each point of a batch (B, n), as
        one (ambient,) vector Series of `order`.

        Raises `BatchRejected` whose failing columns carry
        `ChartDomainError` outside the chart domain and, unless
        `check_membership` is off, `PointRejected` off the target cone.
        """
        psi = taylor.eval_series(self.map, x, order)
        if check_membership and self.target_cone is not None:
            require_on_cone(self.target_cone, taylor.batch_first(psi.val))
        return psi


def _recorded(gufunc, a):
    """(result, whether it flagged an error) of the gufunc behind a
    numpy.linalg call over the matrices a, recording the error that
    numpy.linalg raises for them as a whole instead of raising it."""
    flagged = []
    with np.errstate(call=lambda *_: flagged.append(True), invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        out = gufunc(a, signature="d->d")
    return out, bool(flagged)


def _lapack(gufunc, a):
    """(result, refused) of the gufunc behind a numpy.linalg call over a
    stack of matrices a (B, n, n): each matrix's result as the call computes
    it, and the (B,) mask of the matrices that the call refuses alone, whose
    results are NaN.  The stack runs once; a matrix is tried alone only where
    the stack was flagged and left its result NaN."""
    out, flagged = _recorded(gufunc, a)
    refused = np.zeros(len(a), dtype=bool)
    if flagged:
        for b in np.flatnonzero(np.isnan(out.reshape(len(a), -1)).any(axis=1)).tolist():
            refused[b] = _recorded(gufunc, a[b])[1]
    return out, refused


@dataclass(frozen=True)
class MetricChart:
    """A Riemannian metric given directly in chart coordinates.

    `metric` receives the chart coordinates as a list of Series and returns
    an n-by-n nested sequence of scalars (Series or floats).
    """

    metric: Callable
    dim: int


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple:
    """(i, j, entry) of the n(n+1)/2 index pairs i <= j in row order:
    entry[i, j] and entry[j, i] are the position of the pair (i, j)."""
    i, j = np.triu_indices(n)
    entry = np.zeros((n, n), dtype=np.intp)
    entry[i, j] = entry[j, i] = np.arange(len(i))
    return i, j, entry


class ChartGeometry:
    """Order-2 metric jet at each point of a batch, and everything derived
    from it.

    Built either from an immersion (metric pulled back through the ambient
    inner product of the derivative series `dpsi`, at the fiber scale
    `f2 = f * f` of the warping profile f of the Series time psi^0) or from
    a metric chart.  `g_series` is the (n, n) Series of the metric and
    `dpsi` the (n, ambient) Series of the d_i psi^a, both of order 2 like
    f and f2; `position`, the (ambient,) vector Series of the ambient
    coordinates psi, keeps order 3: it is the one psi every reader reads.
    `cone_time` holds the conformal time of the points on a GRW target cone
    as cone membership computed it (`nullcone.cone_time`), else None.
    `x` is the batch (B, n), every Series carries B columns, and every
    array has a leading batch axis before the shapes noted below.  The
    constructor checks nothing: the metric of a geometry the engine hands
    out has passed `_metric_checked`, which sets its inverse `g_inv0`.
    Other quantities are computed lazily and cached.
    """

    def __init__(self, x, g_series: Series, position=None, dpsi=None, f=None, f2=None,
                 immersion=None, cone_time=None):
        self.x = np.asarray(x, dtype=np.float64)
        self.g_series = g_series
        self.dim = g_series.shape[0]
        self.ctx = g_series.ctx
        self.position = position
        self.dpsi = dpsi
        self.f = f
        self.f2 = f2
        self.immersion = immersion
        self.cone_time = cone_time
        g0 = taylor.batch_first(g_series.val)
        self.g0 = 0.5 * (g0 + g0.swapaxes(-1, -2))

    @classmethod
    def gather(cls, parts, keys=None) -> "ChartGeometry":
        """The geometry of columns of evaluated geometries: `parts` lists
        (geometry, column index array) pairs, whose columns follow one
        another in that order.  Every quantity that all of them hold comes
        along, the cached ones too, so nothing is evaluated again; with
        `keys`, only those of the quantities named there."""
        held = [vars(geo) for geo, _ in parts]
        indices = [index for _, index in parts]
        out = cls.__new__(cls)
        for key in held[0] if keys is None else keys:
            if all(key in h for h in held):
                out.__dict__[key] = _gathered([h[key] for h in held], indices)
        return out

    def columns(self, index) -> "ChartGeometry":
        """The geometry of the columns `index` of the batch."""
        return ChartGeometry.gather([(self, index)])

    def _defect(self, what: str):
        """The error factory of a defect of the induced metric: it `what`."""
        return lambda at: MetricSignatureError(
            f"induced metric at {format_point(at(self.x))} {what}"
        )

    def rescaled(self, lam: Series) -> "ChartGeometry":
        """Geometry of the conformal metric lam^2 g at the same point;
        raises `BatchRejected` where that metric fails its checks."""
        kept = taylor.Kept(len(self.x))
        geo = _metric_checked(ChartGeometry(self.x, (lam * lam) * self.g_series), kept)
        if kept.errors:
            raise BatchRejected(kept.errors)
        return geo

    # -- ambient side (immersions only) --------------------------------

    @cached_property
    def psi0(self) -> np.ndarray:
        return taylor.batch_first(self.position.val)

    @cached_property
    def tangents(self) -> np.ndarray:
        """Coordinate tangent vectors d_i psi, shape (dim, ambient)."""
        return taylor.batch_first(self.dpsi.val)

    @cached_property
    def psi_second_partials(self) -> np.ndarray:
        """d_i d_j psi values, shape (dim, dim, ambient)."""
        ctx = self.position.ctx
        return self.position.slots(ctx.second) * ctx.second_fac[..., None]

    # -- metric jet algebra ---------------------------------------------

    @cached_property
    def g_inv_series(self) -> Series:
        """The inverse metric (n, n) to order 1: its value g^-1 and, in the
        slot of d_m, -g^-1 (d_m g) g^-1, each sum over an index running
        left to right as the Neumann series (I - g^-1 (g - g(x))) g^-1 adds
        its terms."""
        a = self.g_inv0.transpose(1, 2, 0)
        # [m, i, l] = (g^-1 d_m g)_il, then the product with g^-1 of its negation
        m = taylor.fold(self.g_series.c[1:self.dim + 1, None] * a[:, :, None], 2)
        d = taylor.fold(-m[:, :, :, None] * a, 2)
        return Series(taylor.get_context(self.dim, FRAME_ORDER), np.concatenate(
            [(a + 0.0)[None], d]), (self.dim, self.dim))

    @cached_property
    def christoffel_series(self) -> Series:
        """Gamma^k_ij as a (k, i, j) Series of order 1: 1/2 g^kl S_ijl with
        S_ijl = d_i g_lj + d_j g_li - d_l g_ij, each product as the order-1
        product rule gives it."""
        # [., k, i, j] = d_k g_ij, exact to order 1
        dg = self.g_series.gradient().c[:self.dim + 1]
        # [., i, j, l]
        s = dg.transpose(0, 1, 3, 2, 4) + dg.transpose(0, 3, 1, 2, 4) - dg.transpose(0, 2, 3, 1, 4)
        gi = self.g_inv_series.c[:, :, None, None]
        terms = gi[0] * s[:, None] + 0.0
        terms[1:] += gi[1:] * s[0]
        return Series(self.g_inv_series.ctx, 0.5 * taylor.fold(terms, 4), (self.dim,) * 3)

    @cached_property
    def christoffel(self) -> np.ndarray:
        """Gamma^k_ij values, shape (dim, dim, dim)."""
        return taylor.batch_first(self.christoffel_series.val)

    @cached_property
    def riemann(self) -> np.ndarray:
        """R^l_ijk = <chart components of R(d_i, d_j) d_k>, value only."""
        gamma, series = self.christoffel, self.christoffel_series
        # d_i Gamma^l_jk, indexed [l, j, k, i]: the first partials of the series
        dgamma = taylor.batch_first(series.c[series.ctx.first].transpose(1, 2, 3, 0, 4))
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
        return np.einsum("...jk,...jk->...", self.g_inv0, ric)

    @cached_property
    def cholesky(self) -> np.ndarray:
        """The lower Cholesky factor L of the metric, g = L L^T."""
        factor, refused = _lapack(_umath_linalg.cholesky_lo, self.g0)
        taylor.reject(refused, self._defect("has no Cholesky factor"))
        return factor

    @cached_property
    def onf(self) -> np.ndarray:
        """Columns are g-orthonormal tangent frame vectors in chart components.

        b = L^-T for the Cholesky factor L of the metric (Gram-Schmidt on the
        coordinate basis), so its inverse is L^T, with no solve.
        """
        inverse, singular = _lapack(_umath_linalg.inv, self.cholesky)
        taylor.reject(singular, self._defect("has a singular Cholesky factor"))
        return np.swapaxes(inverse, -1, -2)

    # -- scalar fields on the chart --------------------------------------

    def scalar_series(self, h) -> Series:
        """The chart field h, a callable of the coordinate Series list, as a Series."""
        coords = [Series.variable(self.ctx, i, self.x[:, i]) for i in range(self.dim)]
        return taylor.as_series(h(coords), self.ctx, len(self.x))

    def partials(self, s: Series) -> np.ndarray:
        return s.slots(s.ctx.first)

    def second_partials(self, s: Series) -> np.ndarray:
        return s.slots(s.ctx.second) * s.ctx.second_fac

    def gradient(self, s: Series):
        """Contravariant gradient components and its squared norm."""
        dh = self.partials(s)
        comps = np.matvec(self.g_inv0, dh)
        return comps, np.vecdot(dh, comps)

    def covariant_hessian(self, s: Series) -> np.ndarray:
        """Hess_ij = d_i d_j h - Gamma^k_ij d_k h, chart components."""
        dh = self.partials(s)
        return self.second_partials(s) - np.einsum("...kij,...k->...ij", self.christoffel, dh)

    def laplacian(self, s: Series):
        return np.einsum("...ij,...ij->...", self.g_inv0, self.covariant_hessian(s))


def _gathered(values, indices):
    """The columns `indices` of each of `values`, one quantity of several
    geometries, joined: arrays along their leading batch axis, Series along
    their batch columns; anything else, which does not vary by column, is
    the first one's."""
    first = values[0]
    if isinstance(first, np.ndarray):
        taken = [v[index] for v, index in zip(values, indices)]
        return taken[0] if len(taken) == 1 else np.concatenate(taken)
    if isinstance(first, Series):
        taken = [v.c[..., index] for v, index in zip(values, indices)]
        c = taken[0] if len(taken) == 1 else np.concatenate(taken, axis=-1)
        return Series(first.ctx, c, first.shape)
    return first


def _metric_checked(geo: Optional[ChartGeometry], kept: taylor.Kept) -> Optional[ChartGeometry]:
    """The geometry of the columns of geo whose induced metric has
    eigenvalues, the lowest above `_EIG_FLOOR`, an inverse and finite
    entries, with `g_inv0` set, or None when no column passes (or geo is None); each
    refused column's error goes to `kept`.  The checks read
    the eigenvalues and the inverses computed once for every column, and
    drop the refused columns from them by column selection."""
    if geo is None:
        return None
    eigenvalues, no_eigenvalues = _lapack(_umath_linalg.eigvalsh_lo, geo.g0)
    lowest = eigenvalues[..., 0]
    g_inv0, singular = _lapack(_umath_linalg.inv, geo.g0)
    try:
        taylor.reject_first([
            (no_eigenvalues, geo._defect("has no eigenvalues")),
            (lowest <= _EIG_FLOOR, lambda at: MetricSignatureError(
                f"induced metric at {format_point(at(geo.x))} is not positive definite "
                f"(min eigenvalue {at(lowest):.3e})"
            )),
            (singular, geo._defect("is singular")),
            (~np.isfinite(geo.g0).all(axis=(-2, -1)), geo._defect("is not finite")),
        ])
    except BatchRejected as err:
        positions = kept.drop(err)
        if not len(positions):
            return None
        geo, g_inv0 = geo.columns(positions), g_inv0[positions]
    geo.g_inv0 = g_inv0
    return geo


def _geometry_from_immersion(im: Immersion, x, check_membership, kept: taylor.Kept):
    # the chart map, its domain box first: a primitive refused partway runs
    # the map again on the other columns
    psi = kept.run(lambda xs: im.series(xs, JET_ORDER, check_membership=False), x)
    if psi is None:
        return None
    phi = None
    if check_membership and im.target_cone is not None:
        cone = im.target_cone
        # the conformal time (again on the others where it refuses columns), then membership
        timed = kept.run(lambda s: (s, cone_time(cone, s.val[0])), psi, Series.columns)
        if timed is None:
            return None
        psi, phi = timed
        try:
            require_on_cone(cone, taylor.batch_first(psi.val), phi)
        except BatchRejected as err:
            positions = kept.drop(err)
            if not len(positions):
                return None
            psi = psi.columns(positions)
            phi = None if phi is None else phi[positions]
    x = x[kept.index]
    # [i, a] = d_i psi^a, exact to order 2
    dpsi = psi.gradient().truncate(METRIC_ORDER)
    # the profile f at the Series time, kept for the cone gradient, and the
    # fiber scale f^2
    f = im.model.warping(psi[0].truncate(METRIC_ORDER)) if im.model.warped else None
    f2 = None if f is None else f * f
    # the pairs i <= j, each entry [j, i] read from [i, j]
    i, j, entry = _pairs(im.dim)
    g = spacetime.ambient_inner(im.model, f2, dpsi[i], dpsi[j])[entry]
    return ChartGeometry(x, g, position=psi, dpsi=dpsi, f=f, f2=f2, immersion=im,
                         cone_time=phi)


def _geometry_from_metric(chart: MetricChart, x) -> ChartGeometry:
    x = np.asarray(x, dtype=np.float64)
    ctx = taylor.get_context(chart.dim, METRIC_ORDER)
    batch = len(x)
    coords = [Series.variable(ctx, i, x[:, i]) for i in range(chart.dim)]
    raw = chart.metric(coords)
    n = chart.dim
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            upper = taylor.as_series(raw[i][j], ctx, batch)
            s = 0.5 * (upper + taylor.as_series(raw[j][i], ctx, batch))
            g[i][j] = s
            g[j][i] = s
    return ChartGeometry(x, Series.stack([Series.stack(row, ctx, batch) for row in g], ctx, batch))


def geometry_columns(obj, x, check_membership=True) -> tuple:
    """(geometry, kept) of an `Immersion` or a `MetricChart` at a batch
    x (B, n): the checked `ChartGeometry` of the columns the pipeline keeps,
    in order, or None when it keeps none, and the `taylor.Kept` of x, which
    holds their indices and the typed error of each refused column.

    A check of values already evaluated, cone membership after psi and the
    metric's eigenvalue, eigenvalue floor and singular-inverse tests, drops
    its refused columns from them by column selection (`Kept.drop`).  A
    stage refused partway, the chart map (its domain box, or a primitive
    inside it) or a metric chart's metric, runs again on the other columns
    (`Kept.run`); nothing else does."""
    x = np.asarray(x, dtype=np.float64)
    if not isinstance(obj, (Immersion, MetricChart)):
        raise TypeError(f"expected Immersion or MetricChart, got {type(obj).__name__}")
    kept = taylor.Kept(len(x))
    # the check holds the one reference to the unchecked geometry, which is
    # freed once the check has selected the kept columns
    geo = _metric_checked(
        _geometry_from_immersion(obj, x, check_membership, kept) if isinstance(obj, Immersion)
        else kept.run(lambda xs: _geometry_from_metric(obj, xs), x),
        kept,
    )
    return geo, kept


def chart_geometry(obj, x, check_membership=True) -> ChartGeometry:
    """Metric jet of an `Immersion` or a `MetricChart` at each point of a
    batch (B, n); raises `BatchRejected` of the columns that
    `geometry_columns` refuses."""
    geo, kept = geometry_columns(obj, x, check_membership)
    if kept.errors:
        raise BatchRejected(kept.errors)
    return geo
