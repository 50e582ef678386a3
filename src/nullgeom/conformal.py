"""Conformal split maps off null hypersurfaces, and their checks.

Every cone cross-section handled by the engine is conformally a standard
model space: dividing the ambient coordinates of the immersion by a
non-vanishing coordinate function lands on hyperbolic space, the round
sphere, or a model-space cylinder, with conformal factor one over that
function squared.  This module evaluates the split maps, verifies the
conformal factors against jet pullbacks, closes the factorization round
trip through the canonical graph embeddings (built in `scenes`) by a
numeric local inverse, and checks the curvature identities relating a
metric to its conformal rescalings.

Every routine reads psi as the one vector Series of `Immersion.series`
and `ChartGeometry.position`, the split map's jacobian as its order-1
array (`Series.value_gradient`).  The pullback identity reads an evaluated
chart geometry of a batch, and flags the columns whose image leaves the
model space instead of raising for them; it is the one check of the
conformal factor.  Each sample check
(factorization round trip, de Sitter scale sign, curvature identities) is
one routine over its samples' psi or chart geometry.  The suites call it
(`factorization_at`, `scale_sign_at`, `curvature_check_at`) on columns of
the chart geometry the grid pass evaluated, so their samples are not
evaluated again; the public round trip and curvature checks evaluate
their samples as one batch and call it.  Where a sample is refused, it
keeps the typed error its column carries and the other samples are taken
again as a batch (`taylor.Kept.run`); the first failing sample raises its
error.  The identities are array arithmetic over the samples.
The factorization round trip runs its samples' local inverses in lockstep
as array code: each round's jacobians are one batch and their steps one
stacked solve, and each damping halving's trial points are one batch.  A
local inverse starts from its seed's image, since the seed is another
sample, and f at the recovered point is read from the psi of its last step.
The cylinder maps' primitive g of dw/u sums integrals along axis-parallel
legs: the legs of a batch of points, or the exactness loop's four, are one
quadrature, each of whose rounds evaluates the immersion as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import taylor
from .immersion import ChartGeometry, Immersion, chart_geometry
from .nullcone import EmbeddingRangeError
# the module's one binding of the quadrature entry point: every integral
# here goes through this name, which perfbench's tracer wraps to count
# integrand calls, each one batch of nodes
from .spacetime import QUAD_ERR_MAX, quadrature as quad
from .taylor import DomainError, Series, format_point

__all__ = [
    "MAP_VARIANTS",
    "DENOMINATOR_FLOOR",
    "MODEL_MEMBERSHIP_TOL",
    "PSI_KEYS",
    "DegeneracyError",
    "InverseError",
    "ConformalMapSpec",
    "conformal_map",
    "factor_field",
    "exactness_residual",
    "pullback_columns",
    "scale_sign_at",
    "factorization_check",
    "factorization_at",
    "sectional_curvatures",
    "conformal_curvature_check",
    "curvature_check_at",
]

MAP_VARIANTS = (
    "lightcone_to_Hn",
    "cylinder_to_SxR",
    "cylinder_to_HxR",
    "desitter_to_Sn",
)

DENOMINATOR_FLOOR = 1e-8
MODEL_MEMBERSHIP_TOL = 1e-10

# all that `scale_sign_at` and `factorization_at` read of a chart geometry
PSI_KEYS = ("immersion", "x", "position")

# the local inverse's residual tolerance and iteration limit
_INVERSE_TOL = 1e-12
_INVERSE_MAX_ITER = 60


class DegeneracyError(ValueError):
    """A split-map denominator vanished, or the image left the model space."""


class InverseError(RuntimeError):
    """The local inverse of a split map failed to converge."""


@dataclass(frozen=True)
class ConformalMapSpec:
    """Which split map to apply and how it is anchored.

    Every variant has a canonical denominator (`_split_layout`).
    `base_point` anchors the primitive g of dw/u at zero for the cylinder
    variants.
    """

    variant: str
    base_point: Optional[tuple] = None

    def __post_init__(self):
        if self.variant not in MAP_VARIANTS:
            raise ValueError(f"unknown split-map variant {self.variant!r}")
        if self.primitive and self.base_point is None:
            raise ValueError(f"{self.variant} needs a base_point for the primitive")

    @property
    def primitive(self) -> bool:
        """Whether the image ends in the primitive g of dw/u (the cylinder maps)."""
        return self.variant in ("cylinder_to_SxR", "cylinder_to_HxR")

    @property
    def hyperbolic(self) -> bool:
        """Whether the model factor is a hyperboloid sheet rather than a sphere."""
        return self.variant in ("lightcone_to_Hn", "cylinder_to_HxR")


# -- split maps ---------------------------------------------------------------


def _split_layout(spec: ConformalMapSpec, im: Immersion):
    """(denominator coordinate, the coordinates the image keeps).

    The kept coordinates divided by the denominator land on the model
    factor; the cylinder maps' line coordinate w = psi[-1] enters only
    through the primitive.
    """
    m = im.model.coord_count
    if spec.variant == "lightcone_to_Hn":
        # the last coordinate, f of the graph psi_f = (f p, f)
        return m - 1, list(range(m - 1))
    if spec.variant == "cylinder_to_HxR":
        # the last cone-block coordinate, before the line factor
        return m - 2, list(range(m - 2))
    # the first coordinate: u on the S x R cylinder, the scale R's argument on de Sitter
    return 0, list(range(1, m - 1))


def _denominator(spec: ConformalMapSpec, im: Immersion, psi):
    """The split-map denominator of psi, a vector Series or its values."""
    i, _ = _split_layout(spec, im)
    if spec.variant == "desitter_to_Sn":
        return im.target_cone.scale(psi[i])
    return psi[i]


def _reject_floored(value, message):
    """Reject the columns whose denominator value lies inside the floor, each
    with the DegeneracyError of message(at), at the column picker."""
    taylor.reject(np.abs(value) <= DENOMINATOR_FLOOR, lambda at: DegeneracyError(message(at)))


def _scale(spec: ConformalMapSpec, im: Immersion, psi) -> Series:
    """The conformal scale of psi, the split-map denominator with its sign
    flipped where it is negative; a column inside the floor is rejected."""
    den = _denominator(spec, im, psi)
    value = den.val
    _reject_floored(value, lambda at: (
        f"conformal scale {at(value):.3e} is inside the floor {DENOMINATOR_FLOOR:.1e}"))
    # multiplying by -1.0 is negation, bit for bit
    return den * np.where(value < 0.0, -1.0, 1.0)


def factor_field(spec: ConformalMapSpec, im: Immersion) -> Callable:
    """The conformal scale as a smooth chart field, sign-normalized positive.

    Returns a callable over the coordinate Series of a batch, suitable for
    scalar_series and conformal_curvature_check.  Columns where the raw
    denominator is negative get a sign flip so the field stays positive
    throughout; a column inside the floor is rejected.
    """

    def lam(coords):
        first = coords[0]
        return _scale(spec, im, Series.stack(im.map.fn(list(coords)), first.ctx, first.batch))

    return lam


def _legs(spec: ConformalMapSpec, im: Immersion, starts, axes, lo, hi, what) -> np.ndarray:
    """The integrals of dw/u along axis-parallel legs from the chart points
    starts (L, n), each moving its axis of axes (L,) from lo to hi.  A leg
    with a rejected node is rejected, and then one whose error estimate
    exceeds `QUAD_ERR_MAX` (an ArithmeticError, `what` naming the leg)."""

    def integrand(j, s):
        points, rows = starts[j], np.arange(len(j))
        points[rows, axes[j]] = s
        psi = im.series(points, 1, check_membership=False).value_gradient
        denom = _denominator(spec, im, psi[0])
        _reject_floored(denom, lambda at: (
            f"split-map denominator {at(denom):.3e} vanishes near {format_point(at(points))}"))
        return psi[1 + axes[j], -1, rows] / denom

    vals, errs = quad(integrand, lo, hi)
    taylor.reject(
        errs > QUAD_ERR_MAX,
        lambda at: ArithmeticError(f"{what} {at(axes)}: quadrature error {at(errs):.3e}"),
    )
    return vals


def _primitive(spec: ConformalMapSpec, im: Immersion, x) -> np.ndarray:
    """The primitive g of dw/u at each chart point of a batch x (B, n): its
    legs from the anchor along the axes in order, summed; a point with a
    refused leg raises the error of its first one."""
    base = np.asarray(spec.base_point, dtype=float)
    if base.shape != x.shape[1:]:
        raise ValueError("base_point arity does not match the chart point")
    n = len(base)
    # leg a moves axis a, the axes before it at the point's values
    starts = np.where(np.tri(n, k=-1, dtype=bool), x[:, None, :], base).reshape(-1, n)
    axes = np.tile(np.arange(n), len(x))
    try:
        vals = _legs(spec, im, starts, axes, np.tile(base, len(x)), x.ravel(), "primitive on axis")
    except taylor.BatchRejected as err:  # each point keeps its first leg's error
        first = {leg // n: e for leg, e in sorted(err.errors.items(), reverse=True)}
        raise taylor.BatchRejected(dict(sorted(first.items()))) from None
    return sum(vals.reshape(-1, n).T)


def exactness_residual(spec: ConformalMapSpec, im: Immersion, axes, bounds) -> float:
    """Loop integral of dw/u around an axis-aligned rectangle.

    `axes` names the two chart axes spanning the rectangle, `bounds` their
    (low, high) ranges; the remaining coordinates sit at the base point.
    Exactness of the 1-form makes the loop vanish.  The four legs are one
    batch, and the first refused leg raises its error: a typed rejection,
    or an ArithmeticError where its quadrature error estimate exceeds
    `QUAD_ERR_MAX`.
    """
    a0, a1 = axes
    (lo0, hi0), (lo1, hi1) = bounds
    move = np.array([a0, a1, a0, a1])
    starts = np.tile(np.asarray(spec.base_point, dtype=float), (4, 1))
    starts[np.arange(4), move[::-1]] = (lo1, hi0, hi1, lo0)  # each leg's held axis
    try:
        vals = _legs(spec, im, starts, move, (lo0, lo1, hi0, hi1), (hi0, hi1, lo0, lo1),
                     "exactness loop along axis")
    except taylor.BatchRejected as err:
        raise err.errors[min(err.errors)] from None
    return abs(sum(vals.tolist()))


@taylor.float_edges
def conformal_map(spec: ConformalMapSpec, im: Immersion, x) -> np.ndarray:
    """Image of a chart point (n,) under the variant's split map, a batch of
    one; a refused point raises its typed error.

    Lands on the model space (hyperboloid sheet, round sphere, or a model
    cross-section paired with the primitive g); membership is enforced.
    """
    (y,) = taylor.per_sample(lambda xs: _map_values(spec, im, xs, im.series(xs, 1)), [x])
    return y


def _model_image(spec, im, psi):
    """The split map's model image of psi per column of a batch:
    (denominator values, images y (B, k), whether each column is on the
    model space).

    A column whose denominator lies inside the floor is off the model and
    is not divided by; membership is tested on values, so no column raises.
    """
    denom = _denominator(spec, im, psi.val)
    above = np.abs(denom) > DENOMINATOR_FLOOR
    _, keep = _split_layout(spec, im)
    y = taylor.batch_first(psi.val[keep]) / np.where(above, denom, 1.0)[:, None]
    if spec.hyperbolic:
        y0 = y[..., 0]
        lorentz = -np.float_power(y0, 2) + np.vecdot(y[..., 1:], y[..., 1:])
        on_model = (np.abs(lorentz + 1.0) < MODEL_MEMBERSHIP_TOL) & (y0 > 0.0)
    else:
        on_model = np.abs(np.vecdot(y, y) - 1.0) < MODEL_MEMBERSHIP_TOL
    return denom, y, above & on_model


def _map_values(spec, im, x, psi) -> np.ndarray:
    """Image of psi per row of a batch: on the model factor (hyperboloid
    sheet or round sphere), membership enforced, followed by the primitive
    g on the cylinder maps."""
    denom, y, on_model = _model_image(spec, im, psi)
    _reject_floored(denom, lambda at: (
        f"split-map denominator {at(denom):.3e} at {format_point(at(x))}"))
    taylor.require(
        on_model, lambda at: DegeneracyError(f"split-map image {at(y)} left the model space")
    )
    if spec.primitive:
        return np.concatenate([y, _primitive(spec, im, x)[:, None]], axis=-1)
    return y


def _map_jacobian(spec, im, psi) -> np.ndarray:
    """d(split map) rows per model component, columns per chart axis, the
    batch axis first, of psi's order-1 value-gradient array (1 + n,
    ambient, B).

    The quotient rule: psi / denom is psi * (1 / denom), by
    `taylor.reciprocal_rule` and `taylor.product_rule`, whose slot k is
    the partial along x_k.  The primitive's differential is dg = dw/u
    exactly, so no quadrature enters the jacobian.
    """
    i, keep = _split_layout(spec, im)
    denom = psi[:, i]
    if spec.variant == "desitter_to_Sn":  # R = alpha x1 - beta, beta in the value alone
        denom = im.target_cone.alpha * denom
        denom[0] -= im.target_cone.beta
    _reject_floored(denom[0], lambda at: f"split-map denominator {at(denom[0]):.3e}")
    quotient = taylor.product_rule(psi[:, keep], taylor.reciprocal_rule(denom)[:, None])
    jac = taylor.batch_first(quotient[1:].swapaxes(0, 1))
    if spec.primitive:
        dg = taylor.batch_first(psi[1:, -1]) / denom[0][:, None]
        jac = np.concatenate([jac, dg[..., None, :]], axis=-2)
    return jac


def pullback_columns(spec: ConformalMapSpec, geo: ChartGeometry):
    """(deviation, spd, on_model) of the pullback identity at an evaluated
    immersion geometry, (B,) arrays over its batch.

    The deviation compares the model inner products of the split map's jet
    columns against lambda^-2 times the induced metric, entrywise in the
    chart basis, with lambda the variant's own denominator |den|; spd says
    whether that pullback is symmetric positive definite.  A column whose
    image leaves the model space is flagged off the model, with deviation
    NaN and spd False; nothing is raised for it.
    """
    # the jacobian reads first derivatives only
    im, psi, g0 = geo.immersion, geo.position.value_gradient, geo.g0
    denom, _, on_model = _model_image(spec, im, geo.position)
    deviation = np.full(len(g0), np.nan)
    spd = np.zeros(len(g0), dtype=bool)
    if on_model.any():
        if not on_model.all():  # the jacobian divides: keep the columns on the model
            psi = psi[..., on_model]
        jac = _map_jacobian(spec, im, psi)
        signs = np.ones(jac.shape[-2])
        if spec.hyperbolic:
            signs[0] = -1.0
        pulled = np.einsum("a,...ai,...aj->...ij", signs, jac, jac)
        lam_sq = np.float_power(np.abs(denom[on_model]), 2)
        scaled = g0[on_model] / lam_sq[:, None, None]
        deviation[on_model] = np.max(np.abs(pulled - scaled), axis=(-2, -1))
        symmetric = np.isclose(pulled, np.swapaxes(pulled, -1, -2), atol=1e-12).all(axis=(-2, -1))
        spd[on_model] = symmetric & (np.linalg.eigvalsh(pulled)[:, 0] > 0.0)
    return deviation, spd, on_model


@taylor.float_edges
def scale_sign_at(geo: ChartGeometry) -> float:
    """Common sign of the de Sitter scale R at the columns of an evaluated
    immersion geometry, read from its psi values.

    Raises when R changes sign or nearly vanishes, which would mean the
    immersion straddles the two components of a split plane section.
    """
    cone, x = geo.immersion.target_cone, geo.x
    if cone is None or cone.variant != "desitter_alpha":
        raise ValueError("sign coherence applies to de Sitter plane sections")

    def scale(ks):
        r = cone.scale(geo.position.val[0, ks])
        _reject_floored(r, lambda at: (
            f"scale R = {at(r):.3e} vanishes at {format_point(at(x[ks]))}"))
        return r.tolist()

    signs = {1.0 if r > 0.0 else -1.0 for r in taylor.per_index(scale, len(x))}
    if len(signs) != 1:
        raise DegeneracyError("scale R changes sign across the samples")
    return signs.pop()


# -- factorization ------------------------------------------------------------


# what a trial point of the local inverse fails with: it left the chart, the
# family's range or the model space
_TRIAL_REFUSALS = (DomainError, EmbeddingRangeError, DegeneracyError)


def _inverse_residuals(spec, im, points, targets):
    """(psi's value-gradient arrays (S, ambient, 1 + n), residuals (S, m),
    {sample: typed error}) of a stack of points (S, n) against targets
    (S, m), evaluated as one batch; a refused point has NaN rows."""
    coeffs = np.full((len(points), im.model.coord_count, points.shape[1] + 1), np.nan)
    r = np.full(targets.shape, np.nan)

    def residuals(ks):
        psi = im.series(points[ks], 1, check_membership=False)
        r[ks] = _map_values(spec, im, points[ks], psi) - targets[ks]
        coeffs[ks] = psi.value_gradient.T
        return ks

    out = taylor.column_results(residuals, np.arange(len(points)))
    errors = {k: err for k, err in enumerate(out) if isinstance(err, Exception)}
    for err in errors.values():
        if not isinstance(err, _TRIAL_REFUSALS):
            raise err
    return coeffs, r, errors


def _steps(jac, r) -> np.ndarray:
    """The Gauss-Newton steps of stacked jacobians (S, m, n) and residuals
    (S, m): one stacked solve of the normal equations (J^T J) s = J^T r,
    each sum over m left to right.  Where LU finds some J^T J singular, each
    sample is solved alone, and a singular one takes lstsq's minimum-norm
    step, or NaN where its jacobian is not finite."""
    jtj = (jac[:, :, :, None] * jac[:, :, None, :]).sum(axis=1)
    jtr = (jac * r[:, :, None]).sum(axis=1)
    try:
        return np.linalg.solve(jtj, jtr[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(jac) > 1:
            return np.concatenate([_steps(jac[k:k + 1], r[k:k + 1]) for k in range(len(jac))])
        if np.isfinite(jac).all():
            return np.linalg.lstsq(jac[0], r[0], rcond=None)[0][None]
        return np.full(jtr.shape[:-1], np.nan)


def _descend(spec, im, targets, xs, coeffs, r, errors, tol=_INVERSE_TOL,
             max_iter=_INVERSE_MAX_ITER):
    """The local inverses of the split map at the stacked targets (S, m),
    from the seeds xs (S, n), changed in place, whose psi value-gradient
    arrays, residuals and typed errors are as `_inverse_residuals` gives
    them: (the recovered points, the psi arrays of each at its last
    accepted step).

    Damped Gauss-Newton on the forward map, overdetermined by the model
    constraint: each step solves the normal equations (J^T J) s = J^T r.
    The stack iterates in lockstep, each round's jacobians one batch and
    their steps one stacked solve, each damping halving's trial points one
    batch; norms, damping and iteration limits are per sample, so every
    sample takes the steps it takes alone, and the stack raises the error
    of its first failing sample."""
    def unconverged():
        # a sample after a failed one cannot change what is raised
        first = min(errors, default=len(xs))
        return np.flatnonzero(~(np.max(np.abs(r[:first]), axis=-1) < tol))

    def fail(ks, message):
        errors.update((k, InverseError(message(k))) for k in ks.tolist())

    for _ in range(max_iter):
        active = unconverged()
        if not len(active):
            break
        jac = _map_jacobian(spec, im, coeffs[active].T)
        steps = _steps(jac, r[active])
        finite = np.isfinite(steps).all(axis=-1)
        fail(active[~finite], lambda k: f"no finite step at {format_point(xs[k])}")
        searching, steps = active[finite], steps[finite]
        base, damping = np.vecdot(r[searching], r[searching]), np.ones(len(searching))
        for _ in range(30):
            if not len(searching):
                break
            trials = xs[searching] - damping[:, None] * steps
            c, trial_r, _ = _inverse_residuals(spec, im, trials, targets[searching])
            # a refused trial's NaN norm is no descent
            better = np.vecdot(trial_r, trial_r) < base
            done = searching[better]
            xs[done], coeffs[done], r[done] = trials[better], c[better], trial_r[better]
            searching, steps, base, damping = (
                a[~better] for a in (searching, steps, base, 0.5 * damping))
        fail(searching, lambda k: f"no descent step at {format_point(xs[k])}")
    fail(unconverged(), lambda k: (
        f"iteration stalled near {format_point(xs[k])} for target {format_point(targets[k])}"))
    if errors:
        raise errors[min(errors)]
    return xs, coeffs


def _psi_f_at_model_point(spec, im, i, y, f_val) -> np.ndarray:
    """The family embedding psi_f at model points y (..., k) with f values
    f_val (...)."""
    f = np.asarray(f_val)[..., None]
    if spec.hyperbolic:
        # the image has 1 in the denominator slot i; rescaling by f restores psi
        return f * np.insert(y, i, 1.0, axis=-1)
    cone = im.target_cone
    return np.concatenate([f, cone.scale(f) * y, cone.alpha + cone.beta * f], axis=-1)


def _round_trip(spec, im, x, psi_at) -> float:
    """`factorization_check` at the chart points x (S, n), psi_at(ks)
    giving psi, of order 1 or more, at the points ks."""
    if spec.primitive:
        raise ValueError(f"{spec.variant} has no graph-embedding factorization")
    if len(x) < 2:
        raise ValueError("factorization check needs at least two samples")
    idx, keep = _split_layout(spec, im)
    # each sample's seed is its nearest other sample, the first of equals
    distance = np.sum((x[None, :, :] - x[:, None, :]) ** 2, axis=-1)
    np.fill_diagonal(distance, np.inf)
    seeds = np.argmin(distance, axis=-1)
    targets = np.empty((len(x), len(keep)))
    held = np.empty((len(x), im.model.coord_count, x.shape[1] + 1))

    def image(ks):
        psi = psi_at(ks)
        targets[ks] = _map_values(spec, im, x[ks], psi)
        held[ks] = psi.value_gradient.T

    images = taylor.Kept(len(x))
    images.run(image, np.arange(len(x)))
    # the samples after the first one whose image fails cannot change the outcome
    first = min(images.errors, default=len(x))
    worst = 0.0
    if first:
        targets, held, seeds = targets[:first], held[:first], seeds[:first]
        # a seed is another sample, whose image and psi start its local
        # inverse; if one is past the first failing sample, the seeds are evaluated
        if seeds.max() < first:
            starts = held[seeds], targets[seeds] - targets, {}
        else:
            starts = _inverse_residuals(spec, im, x[seeds], targets)
        _, coeffs = _descend(spec, im, targets, x[seeds], *starts)
        # f is the denominator coordinate of psi at each recovered point
        ambient = _psi_f_at_model_point(spec, im, idx, targets, coeffs[:, idx, 0])
        deviation = np.max(np.abs(ambient - held[..., 0]), axis=-1)
        # a NaN deviation is skipped, as Python's max skips it
        worst = float(np.fmax.reduce(deviation, initial=0.0))
    if images.errors:
        raise images.errors[first]
    return worst


@taylor.float_edges
def factorization_check(im: Immersion, spec: ConformalMapSpec, samples) -> float:
    """Max ambient deviation of psi from (family embedding) o (split map).

    f is reconstructed at each image point as the denominator coordinate
    composed with a local inverse seeded from the nearest *other* sample, so
    the round trip genuinely exercises invertibility.  The samples' images
    are evaluated as one batch, at order 1; each local inverse starts from
    its seed's image, and f at a recovered point is the value of the psi of
    its last accepted step.  A failure raises the error of the first failing
    sample, as taking the samples one at a time would.
    """
    x = np.array([np.asarray(s, dtype=float) for s in samples])
    return _round_trip(spec, im, x, lambda ks: im.series(x[ks], 1))


@taylor.float_edges
def factorization_at(spec: ConformalMapSpec, geo: ChartGeometry) -> float:
    """`factorization_check` at the columns of an evaluated immersion
    geometry, whose psi, cut to order 1, gives their images."""
    return _round_trip(spec, geo.immersion, geo.x, lambda ks: geo.position.columns(ks))


# -- conformal curvature ------------------------------------------------------


def sectional_curvatures(geo: ChartGeometry) -> np.ndarray:
    """K(E_a, E_b) for every orthonormal-frame pair, as a symmetric matrix;
    (B, n, n) on a batch."""
    n = geo.dim
    b = geo.onf
    low = np.einsum("...lm,...lijk->...mijk", geo.g0, geo.riemann)
    out = np.zeros(b.shape[:-2] + (n, n))
    for a in range(n):
        for c in range(a + 1, n):
            ea, ec = b[..., :, a], b[..., :, c]
            k = np.einsum("...mijk,...m,...i,...j,...k->...", low, ea, ea, ec, ec)
            out[..., a, c] = out[..., c, a] = k
    return out


def _curvature_residuals(geo: ChartGeometry, s: Series) -> np.ndarray:
    """The (S, 3) residuals of the sectional identity (its worst frame pair),
    the scalar identity and the Gauss identity (0 outside dimension two)
    over the batch of a chart geometry, s the Series of the factor lambda
    on its chart.  The powers are `np.float_power`, Python's float power
    taken elementwise, so each residual is the one of the sample's own
    floats."""
    n = geo.dim
    geo_s = geo.rescaled(s)
    lam0 = s.val
    taylor.reject(
        lam0 <= 0.0,
        lambda at: ValueError(f"conformal factor nonpositive at {format_point(at(geo.x))}"),
    )
    _, grad_sq = geo.gradient(s)
    hess = geo.covariant_hessian(s)
    lap = np.einsum("...ij,...ij->...", geo.g_inv0, hess)
    b_t = np.swapaxes(geo.onf, -1, -2)
    hess_onf = b_t @ hess @ geo.onf
    dlam2 = np.float_power((b_t @ geo.partials(s)[..., None])[..., 0], 2)
    k_base, k_scaled = sectional_curvatures(geo), sectional_curvatures(geo_s)
    lam2, lam4 = np.float_power(lam0, 2), np.float_power(lam0, 4)
    sect = [
        np.abs(lam4 * k_scaled[:, a, c] - (
            lam2 * k_base[:, a, c]
            + 2.0 * (dlam2[:, a] + dlam2[:, c])
            - lam0 * (hess_onf[:, a, a] + hess_onf[:, c, c])
            - grad_sq
        ))
        for a in range(n)
        for c in range(a + 1, n)
    ]
    scal = np.abs(lam2 * geo_s.scal - (
        geo.scal - 2.0 * (n - 1) * lap / lam0 - (n - 1) * (n - 4) * grad_sq / lam2
    ))
    gauss = np.zeros_like(scal)
    if n == 2:
        log_lap = geo.laplacian(taylor.log(s))
        gauss = np.abs(lam2 * k_scaled[:, 0, 1] - (k_base[:, 0, 1] - log_lap))
    return np.stack([np.fmax.reduce(sect, initial=0.0), scal, gauss], axis=-1)


def _curvature_check(evaluate, count: int) -> dict:
    """`conformal_curvature_check` of `count` samples, evaluate(ks) giving
    the chart geometry and the factor's Series at the samples ks."""
    rows = taylor.per_index(lambda ks: _curvature_residuals(*evaluate(ks)), count)
    # the worst of each identity, a NaN residual skipped as Python's max skips it
    worst = np.fmax.reduce(np.reshape(rows, (-1, 3)), axis=0, initial=0.0)
    return dict(zip(("sectional", "scalar", "gauss"), worst.tolist()))


@taylor.float_edges
def conformal_curvature_check(metric_obj, lam: Callable, samples) -> dict:
    """Residuals of the curvature identities between g and lambda^2 g.

    `metric_obj` is an `Immersion` or a `MetricChart`.  The rescaled
    curvatures are computed independently, from the jet of lambda^2 g, then
    three identities are evaluated: the sectional relation over all
    orthonormal frame pairs, the scalar relation, and (in dimension two) the
    Gauss logarithmic form.  Returns per-identity max residuals.  The
    samples are evaluated as one batch, each identity on its own sample's
    values; the first failing sample raises its typed error.
    """
    x = np.array(list(samples), dtype=np.float64)

    def evaluate(ks):
        geo = chart_geometry(metric_obj, x[ks], check_membership=False)
        return geo, geo.scalar_series(lam)

    return _curvature_check(evaluate, len(x))


@taylor.float_edges
def curvature_check_at(spec: ConformalMapSpec, geo: ChartGeometry) -> dict:
    """`conformal_curvature_check` of the conformal scale (`factor_field`)
    at the columns of an evaluated immersion geometry: its chart geometry
    with every quantity it holds, and the scale from its psi, cut to the
    metric's order."""

    def evaluate(ks):
        # the first evaluation takes every sample, a later one fewer
        part = geo if len(ks) == len(geo.x) else geo.columns(ks)
        psi = part.position.truncate(part.ctx.order)
        return part, _scale(spec, part.immersion, psi)

    return _curvature_check(evaluate, len(geo.x))
