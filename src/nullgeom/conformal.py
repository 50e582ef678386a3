"""Conformal split maps off null hypersurfaces and the embedding families
they factor through.

Every cone cross-section handled by the engine is conformally a standard
model space: dividing the ambient coordinates of the immersion by a
non-vanishing coordinate function lands on hyperbolic space, the round
sphere, or a model-space cylinder, with conformal factor one over that
function squared.  This module builds the canonical graph embeddings,
evaluates the split maps, verifies the conformal factors against jet
pullbacks, closes the factorization round trip through a numeric local
inverse, and checks the curvature identities relating a metric to its
conformal rescalings.

The pullback identity reads an evaluated chart geometry, of one point or of
a batch, and flags the columns whose image leaves the model space instead
of raising for them; it is the one check of the conformal factor.  The
sample checks (de Sitter scale sign, curvature identities) evaluate their
samples as one batch; where the batch is refused, the samples before the
first failing one are evaluated again as a batch, and that sample raises
the typed error its column carries.  Each identity's final
arithmetic runs on one sample's Python floats, exactly as at one point.
The factorization round trip runs its samples' local inverses in lockstep,
each round's jacobians and each damping halving's trial points as one
batch, and each sample's solve and line search on its own values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import spacetime, taylor
from .immersion import ChartGeometry, Immersion, chart_geometry
from .nullcone import NullconeSpec
from .spacetime import AmbientModel
# the module's one binding of the quadrature entry point: every integral
# here goes through this name, which perfbench's tracer wraps to count
# integrand evaluations
from .spacetime import quadrature as quad
from .taylor import DomainError, Series, SmoothMap, format_point

__all__ = [
    "MAP_VARIANTS",
    "DENOMINATOR_FLOOR",
    "MODEL_MEMBERSHIP_TOL",
    "DegeneracyError",
    "EmbeddingRangeError",
    "InverseError",
    "ConformalMapSpec",
    "EmbeddingFamily",
    "build_embedding",
    "conformal_map",
    "factor_field",
    "primitive_g",
    "exactness_residual",
    "pullback_columns",
    "desitter_r_sign",
    "local_inverse",
    "factorization_check",
    "sectional_curvatures",
    "conformal_curvature_check",
]

MAP_VARIANTS = (
    "lightcone_to_Hn",
    "cylinder_to_SxR",
    "cylinder_to_HxR",
    "desitter_to_Sn",
)

# each embedding family and the (ambient kind, nullcone variant) it lands on
_FAMILY_CONES = {
    "psi_f_minkowski": ("minkowski", "minkowski_cone"),
    "psi_f_desitter_alpha": ("desitter", "desitter_alpha"),
    "cylinder_warped": ("minkowski", "cylinder"),
}

DENOMINATOR_FLOOR = 1e-8
MODEL_MEMBERSHIP_TOL = 1e-10
# a quadrature whose own error estimate exceeds this is refused
_QUAD_ERR_MAX = 1e-9


class DegeneracyError(ValueError):
    """A split-map denominator vanished, or the image left the model space."""


class EmbeddingRangeError(ValueError):
    """The graph function left the range its family admits."""


class InverseError(RuntimeError):
    """The local inverse of a split map failed to converge."""


@dataclass(frozen=True)
class ConformalMapSpec:
    """Which split map to apply and how it is anchored.

    `coordinate_index` picks the ambient coordinate playing the denominator
    for the lightcone variant (any spacelike index); the cylinder and de
    Sitter variants have canonical denominators and ignore it.  `base_point`
    anchors the primitive g of dw/u at zero for the cylinder variants.
    """

    variant: str
    coordinate_index: Optional[int] = None
    base_point: Optional[tuple] = None

    def __post_init__(self):
        if self.variant not in MAP_VARIANTS:
            raise ValueError(f"unknown split-map variant {self.variant!r}")
        if self.variant == "lightcone_to_Hn":
            if self.coordinate_index is None:
                raise ValueError("lightcone_to_Hn needs a coordinate_index")
            if self.coordinate_index < 1:
                raise ValueError("the denominator must be a spacelike coordinate")
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


@dataclass(frozen=True)
class EmbeddingFamily:
    """A graph embedding family over a model space.

    `f` is a positive scalar field: a callable of the chart coordinate list
    for the hyperboloid and sphere families, a callable of the axis
    coordinate for the warped cylinder, or a constant.  On the split de
    Sitter planes (0 < alpha < 1) its range is further pinned by the
    component: below the split radius on `minus`, above it on `plus`.
    `cone` is the null hypersurface the family lands on; building it
    validates alpha and component.
    """

    variant: str
    f: Callable | float
    alpha: Optional[float] = None
    n: int = 2
    component: Optional[str] = None
    cone: NullconeSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variant not in _FAMILY_CONES:
            raise ValueError(f"unknown embedding family {self.variant!r}")
        kind, variant = _FAMILY_CONES[self.variant]
        cone = NullconeSpec(
            AmbientModel(kind, self.n), variant, alpha=self.alpha, component=self.component
        )
        object.__setattr__(self, "cone", cone)

    def f_range(self):
        cone = self.cone
        if cone.component is None:
            return 0.0, math.inf
        split = cone.split_radius
        return (0.0, split) if cone.component == "minus" else (split, math.inf)

    def check_range(self, value):
        v = value.val if isinstance(value, Series) else float(value)
        lo, hi = self.f_range()
        taylor.require(
            (lo < v) & (v < hi),
            lambda at: EmbeddingRangeError(
                f"f = {at(v):.6g} outside the admissible range ({lo:.6g}, {hi:.6g})"
            ),
        )
        return value

    def evaluate(self, arg):
        return self.check_range(self.f(arg) if callable(self.f) else float(self.f))


def build_embedding(family: EmbeddingFamily) -> Immersion:
    """The family's canonical immersion into its target null hypersurface."""
    n, cone = family.n, family.cone
    model = cone.model
    if family.variant == "psi_f_minkowski":
        chart = spacetime.hyperbolic_chart(n)

        def fn(ys):
            p = chart.fn(ys)
            fv = family.evaluate(ys)
            return [fv * c for c in p] + [fv]

        return Immersion(SmoothMap(fn, n, n + 2, "psi_f"), model, cone)

    if family.variant == "psi_f_desitter_alpha":
        chart = spacetime.sphere_chart(n)

        def fn(qs):
            q = chart.fn(qs)
            fv = family.evaluate(qs)
            r = cone.scale(fv)
            return [fv] + [r * qi for qi in q] + [cone.alpha + cone.beta * fv]

        return Immersion(
            SmoothMap(fn, n, n + 3, "psi_f_alpha", domain=chart.domain), model, cone
        )

    # cylinder_warped: (f(t), f(t) q, t) over (t, sphere chart of S^{n-1})
    chart = spacetime.sphere_chart(n - 1)

    def fn(cs):
        t = cs[0]
        fv = family.evaluate(t)
        q = chart.fn(cs[1:])
        return [fv] + [fv * qi for qi in q] + [t]

    domain = ((-math.inf, math.inf),) + chart.domain
    return Immersion(SmoothMap(fn, n, n + 2, "cylinder", domain=domain), model, cone)


# -- split maps ---------------------------------------------------------------


def _split_layout(spec: ConformalMapSpec, im: Immersion):
    """(denominator coordinate, the coordinates the image keeps).

    The kept coordinates divided by the denominator land on the model
    factor; the cylinder maps' line coordinate w = psi[-1] enters only
    through the primitive.
    """
    m = im.model.coord_count
    if spec.variant == "lightcone_to_Hn":
        i = spec.coordinate_index
        if i >= m:
            raise ValueError(f"coordinate_index {i} out of range for a {m}-coordinate model")
        return i, [a for a in range(m) if a != i]
    if spec.variant == "cylinder_to_HxR":
        # the last cone-block coordinate, before the line factor
        return m - 2, list(range(m - 2))
    # the first coordinate: u on the S x R cylinder, the scale R's argument on de Sitter
    return 0, list(range(1, m - 1))


def _denominator_series(spec: ConformalMapSpec, im: Immersion, psi):
    i, _ = _split_layout(spec, im)
    if spec.variant == "desitter_to_Sn":
        return im.target_cone.scale(psi[i])
    return psi[i]


def factor_field(spec: ConformalMapSpec, im: Immersion) -> Callable:
    """The conformal scale as a smooth chart field, sign-normalized positive.

    Returns a callable over jet coordinates, at one point or on a batch,
    suitable for scalar_series and conformal_curvature_check.  Columns where
    the raw denominator is negative get a sign flip so the field stays
    positive throughout; a column inside the floor is rejected.
    """

    def lam(coords):
        first = coords[0]
        psi = list(im.map.fn(list(coords)))
        if isinstance(first, Series):
            psi = [taylor.as_series(c, first.ctx, first.batch) for c in psi]
        den = _denominator_series(spec, im, psi)
        value = den.val if isinstance(den, Series) else float(den)
        taylor.reject(
            np.abs(value) <= DENOMINATOR_FLOOR,
            lambda at: DegeneracyError(
                f"conformal scale {at(value):.3e} is inside the floor {DENOMINATOR_FLOOR:.1e}"
            ),
        )
        # multiplying by -1.0 is negation, bit for bit
        return den * taylor.as_value(np.where(value < 0.0, -1.0, 1.0))

    return lam


def _primitive_integrand(spec: ConformalMapSpec, im: Immersion):
    """Chart components of dw/u as a covector field: (point, axis) -> float."""

    def cov(point, axis):
        psi = im.series(point, 1, check_membership=False)
        denom = _denominator_series(spec, im, psi).val
        if abs(denom) <= DENOMINATOR_FLOOR:
            raise DegeneracyError(
                f"split-map denominator {denom:.3e} vanishes near {format_point(point)}"
            )
        w = psi[-1]
        return w.c[w.ctx.first[axis]] / denom

    return cov


def _checked_quad(integrand, lo, hi, what) -> float:
    """Adaptive quadrature of a 1-form leg; raises when its error estimate is too large."""
    val, err = quad(integrand, lo, hi)
    if err > _QUAD_ERR_MAX:
        raise ArithmeticError(f"{what}: quadrature error {err:.3e}")
    return val


def primitive_g(spec: ConformalMapSpec, im: Immersion, x) -> float:
    """The primitive of dw/u along axis-parallel segments from the anchor.

    Normalized to vanish at the spec's base point; adaptive quadrature per
    segment.  Exactness of dw/u makes the value path-independent.
    """
    base = np.asarray(spec.base_point, dtype=float)
    x = np.asarray(x, dtype=float)
    if base.shape != x.shape:
        raise ValueError("base_point arity does not match the chart point")
    cov = _primitive_integrand(spec, im)
    total = 0.0
    current = base.copy()
    for axis in range(len(x)):
        lo, hi = current[axis], x[axis]
        if lo != hi:

            def integrand(s, axis=axis, frozen=current.copy()):
                pt = frozen
                pt[axis] = s
                return cov(pt, axis)

            total += _checked_quad(integrand, lo, hi, f"primitive on axis {axis}")
        current[axis] = x[axis]
    return total


def exactness_residual(spec: ConformalMapSpec, im: Immersion, axes, bounds) -> float:
    """Loop integral of dw/u around an axis-aligned rectangle.

    `axes` names the two chart axes spanning the rectangle, `bounds` their
    (low, high) ranges; the remaining coordinates sit at the base point.
    Exactness of the 1-form makes the loop vanish.  Like `primitive_g`,
    raises ArithmeticError when a leg's quadrature error estimate exceeds
    1e-9.
    """
    a0, a1 = axes
    (lo0, hi0), (lo1, hi1) = bounds
    base = np.asarray(spec.base_point, dtype=float)
    cov = _primitive_integrand(spec, im)

    def leg(move_axis, frm, to, held_axis, held_value):
        def integrand(s):
            q = base.copy()
            q[move_axis] = s
            q[held_axis] = held_value
            return cov(q, move_axis)

        return _checked_quad(integrand, frm, to, f"exactness loop along axis {move_axis}")

    loop = leg(a0, lo0, hi0, a1, lo1)
    loop += leg(a1, lo1, hi1, a0, hi0)
    loop += leg(a0, hi0, lo0, a1, hi1)
    loop += leg(a1, hi1, lo1, a0, lo0)
    return abs(loop)


def conformal_map(spec: ConformalMapSpec, im: Immersion, x) -> np.ndarray:
    """Image of a chart point under the variant's split map.

    Lands on the model space (hyperboloid sheet, round sphere, or a model
    cross-section paired with the primitive g); membership is enforced.
    """
    x = np.asarray(x, dtype=np.float64)
    return _map_values(spec, im, x, im.series(x, 1))


def _square(v):
    # Python's float power, as at one point; numpy's array square differs
    # from it in the last bit
    return v**2


def _model_image(spec, im, psi):
    """The split map's model image of psi at one point, or per column of a
    batch: (denominator value, image y (..., k), whether the column is on
    the model space).

    A column whose denominator lies inside the floor is off the model and
    is not divided by; membership is tested on values, so no column raises.
    """
    denom = _denominator_series(spec, im, psi).val
    above = np.abs(denom) > DENOMINATOR_FLOOR
    _, keep = _split_layout(spec, im)
    vals = taylor.batch_first([psi[a].val for a in keep])
    y = vals / np.where(above, denom, 1.0)[..., None]
    if spec.hyperbolic:
        y0 = y[..., 0]
        lorentz = -taylor.column_map(_square, taylor.as_value(y0)) + np.vecdot(
            y[..., 1:], y[..., 1:]
        )
        on_model = (np.abs(lorentz + 1.0) < MODEL_MEMBERSHIP_TOL) & (y0 > 0.0)
    else:
        on_model = np.abs(np.vecdot(y, y) - 1.0) < MODEL_MEMBERSHIP_TOL
    return denom, y, above & on_model


def _model_values(spec, im, x, psi) -> np.ndarray:
    """Image of psi on the model factor (hyperboloid sheet or round sphere),
    without the cylinder maps' primitive g, at one point or per row of a
    batch; membership is enforced."""
    denom, y, on_model = _model_image(spec, im, psi)
    taylor.reject(
        np.abs(denom) <= DENOMINATOR_FLOOR,
        lambda at: DegeneracyError(
            f"split-map denominator {at(denom):.3e} at {format_point(at(x))}"
        ),
    )
    taylor.require(
        on_model, lambda at: DegeneracyError(f"split-map image {at(y)} left the model space")
    )
    return y


def _map_values(spec, im, x, psi) -> np.ndarray:
    """The model image, followed by the primitive g on the cylinder maps."""
    y = _model_values(spec, im, x, psi)
    if spec.primitive:
        if x.ndim == 1:
            g = [primitive_g(spec, im, x)]
        else:  # a point whose quadrature fails rejects its own column
            g = taylor.column_map(lambda p: primitive_g(spec, im, p), x)
        return np.concatenate([y, np.reshape(g, y.shape[:-1] + (1,))], axis=-1)
    return y


def _map_jacobian(spec, im, psi) -> np.ndarray:
    """d(split map) rows per model component, columns per chart axis; the
    batch axis first on a batch.

    The primitive's differential is dg = dw/u exactly, so no quadrature
    enters the jacobian.
    """
    denom = _denominator_series(spec, im, psi)
    taylor.reject(
        np.abs(denom.val) <= DENOMINATOR_FLOOR,
        lambda at: DegeneracyError(f"split-map denominator {at(denom.val):.3e}"),
    )
    _, keep = _split_layout(spec, im)
    n = denom.ctx.n
    comps = [psi[a] / denom for a in keep]
    jac = taylor.batch_first([[c.derivative(i).val for i in range(n)] for c in comps], 2)
    if spec.primitive:
        w = psi[-1]
        dg = taylor.batch_first([w.derivative(i).val for i in range(n)])
        dg = dg / np.asarray(denom.val)[..., None]
        jac = np.concatenate([jac, dg[..., None, :]], axis=-2)
    return jac


def _pullback(spec, im, psi):
    jac = _map_jacobian(spec, im, psi)
    signs = np.ones(jac.shape[-2])
    if spec.hyperbolic:
        signs[0] = -1.0
    return np.einsum("a,...ai,...aj->...ij", signs, jac, jac)


def pullback_columns(spec: ConformalMapSpec, geo: ChartGeometry):
    """(deviation, spd, on_model) of the pullback identity at an evaluated
    immersion geometry: values at one point, (B,) arrays over a batch.

    The deviation compares the model inner products of the split map's jet
    columns against lambda^-2 times the induced metric, entrywise in the
    chart basis, with lambda the variant's own denominator |den|; spd says
    whether that pullback is symmetric positive definite.  A column whose
    image leaves the model space is flagged off the model, with deviation
    NaN and spd False; nothing is raised for it.
    """
    im, psi, g0 = geo.immersion, geo.psi, geo.g0
    one_point = geo.batch is None
    if one_point:  # a batch of one column
        psi = [Series(s.ctx, s.c[:, None]) for s in psi]
        g0 = g0[None]
    denom, _, on_model = _model_image(spec, im, psi)
    deviation = np.full(len(g0), np.nan)
    spd = np.zeros(len(g0), dtype=bool)
    if on_model.any():
        if not on_model.all():  # the jacobian divides: keep the columns on the model
            psi = [Series(s.ctx, s.c[:, on_model]) for s in psi]
        pulled = _pullback(spec, im, psi)
        lam_sq = np.array([_square(v) for v in np.abs(denom[on_model]).tolist()])
        scaled = g0[on_model] / lam_sq[:, None, None]
        deviation[on_model] = np.max(np.abs(pulled - scaled), axis=(-2, -1))
        symmetric = np.isclose(pulled, np.swapaxes(pulled, -1, -2), atol=1e-12).all(axis=(-2, -1))
        spd[on_model] = symmetric & (np.linalg.eigvalsh(pulled)[:, 0] > 0.0)
    if one_point:
        return float(deviation[0]), bool(spd[0]), bool(on_model[0])
    return deviation, spd, on_model


def _per_sample(fn, samples) -> list:
    """fn's per-sample results, fn evaluating the samples stacked as one
    batch (S, n); the first failing sample raises its own typed error."""
    results = taylor.column_results(fn, np.array(list(samples), dtype=np.float64), first=True)
    if results and isinstance(results[-1], Exception):
        raise results[-1]
    return results


def desitter_r_sign(im: Immersion, samples) -> float:
    """Common sign of the de Sitter scale R along the samples.

    Raises when R changes sign or nearly vanishes, which would mean the
    immersion straddles the two components of a split plane section.
    """
    cone = im.target_cone
    if cone is None or cone.variant != "desitter_alpha":
        raise ValueError("sign coherence applies to de Sitter plane sections")

    def scale(x):
        r = cone.scale(im.series(x, 0, check_membership=False)[0].val)
        taylor.reject(
            np.abs(r) <= DENOMINATOR_FLOOR,
            lambda at: DegeneracyError(f"scale R = {at(r):.3e} vanishes at {format_point(at(x))}"),
        )
        return r.tolist()

    signs = {1.0 if r > 0.0 else -1.0 for r in _per_sample(scale, samples)}
    if len(signs) != 1:
        raise DegeneracyError("scale R changes sign across the samples")
    return signs.pop()


# -- factorization ------------------------------------------------------------


# what a trial point of the local inverse fails with: it left the chart, the
# family's range or the model space
_TRIAL_REFUSALS = (DomainError, EmbeddingRangeError, DegeneracyError)


def _inverse_residuals(spec, im, points, targets) -> list:
    """(order-1 psi coefficients, residual against the target) per point of
    a stack (S, n) against targets (S, m), evaluated as one batch; a point
    that leaves the chart, the family's range or the model space gives its
    typed error instead."""

    def residuals(ks):
        psi = im.series(points[ks], 1, check_membership=False)
        r = _map_values(spec, im, points[ks], psi) - targets[ks]
        coeffs = np.stack([s.c for s in psi])
        return [(coeffs[..., b], r[b]) for b in range(len(ks))]

    out = taylor.column_results(residuals, np.arange(len(points)))
    for res in out:
        if isinstance(res, Exception) and not isinstance(res, _TRIAL_REFUSALS):
            raise res
    return out


def local_inverse(
    spec: ConformalMapSpec,
    im: Immersion,
    targets: np.ndarray,
    seeds,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> np.ndarray:
    """The chart points (S, n) mapping to the stacked targets (S, m) under
    the split map, seeded from the stacked seeds (S, n).

    Damped Gauss-Newton on the forward map; the system is overdetermined by
    the model constraint, so each step solves the least squares normal
    equations.  The stack iterates in lockstep: each round evaluates the
    jacobians of the samples still iterating as one batch, and each damping
    halving the trial points of the samples still searching as one batch.
    The solve, the norms, the damping and the iteration limits stay per
    sample, so every sample takes the steps it takes alone; the stack
    raises the error of its first failing sample.
    """
    targets = np.asarray(targets, dtype=float)
    xs = np.array(seeds, dtype=float)
    ctx = taylor.get_context(xs.shape[1], 1)
    psis, rs = [None] * len(xs), [None] * len(xs)
    errors = {}  # sample -> its error; the first failing sample's is raised

    def live(ks):
        # a sample after a failed one cannot change what is raised
        first = min(errors, default=len(xs))
        return [k for k in ks if k < first]

    active = []
    for k, res in enumerate(_inverse_residuals(spec, im, xs, targets)):
        if isinstance(res, Exception):
            errors[k] = res
        else:
            psis[k], rs[k] = res
            active.append(k)
    for _ in range(max_iter):
        active = [k for k in live(active) if not np.max(np.abs(rs[k])) < tol]
        if not active:
            break
        coeffs = np.stack([psis[k] for k in active], axis=-1)
        jacs = _map_jacobian(spec, im, [Series(ctx, c) for c in coeffs])
        steps, base_norms = {}, {}
        for k, jac in zip(active, jacs):
            steps[k], *_ = np.linalg.lstsq(jac, rs[k], rcond=None)
            base_norms[k] = float(rs[k] @ rs[k])
        damping = dict.fromkeys(active, 1.0)
        searching = active
        for _ in range(30):
            if not searching:
                break
            trials = np.array([xs[k] - damping[k] * steps[k] for k in searching])
            results = _inverse_residuals(spec, im, trials, targets[searching])
            failed = []
            for k, trial, res in zip(searching, trials, results):
                if not isinstance(res, Exception) and float(res[1] @ res[1]) < base_norms[k]:
                    xs[k], (psis[k], rs[k]) = trial, res
                else:
                    damping[k] *= 0.5
                    failed.append(k)
            searching = failed
        for k in searching:
            errors[k] = InverseError(f"no descent step at {format_point(xs[k])}")
    for k in live(active):
        if not np.max(np.abs(rs[k])) < tol:
            errors[k] = InverseError(
                f"iteration stalled near {format_point(xs[k])} "
                f"for target {format_point(targets[k])}"
            )
    if errors:
        raise errors[min(errors)]
    return xs


def _psi_f_at_model_point(spec, im, i, y, f_val) -> np.ndarray:
    if spec.hyperbolic:
        # the image has 1 in the denominator slot i; rescaling by f restores psi
        return f_val * np.insert(y, i, 1.0)
    cone = im.target_cone
    return np.concatenate([[f_val], cone.scale(f_val) * y, [cone.alpha + cone.beta * f_val]])


def factorization_check(im: Immersion, spec: ConformalMapSpec, samples) -> float:
    """Max ambient deviation of psi from (family embedding) o (split map).

    f is reconstructed at each image point as the denominator coordinate
    composed with a local inverse seeded from the nearest *other* sample, so
    the round trip genuinely exercises invertibility.  The samples' images,
    their local inverses and f at the recovered points are each evaluated
    as one batch; a failure raises the error of the first failing sample,
    as taking the samples one at a time would.
    """
    if spec.primitive:
        raise ValueError(f"{spec.variant} has no graph-embedding factorization")
    samples = [np.asarray(s, dtype=float) for s in samples]
    if len(samples) < 2:
        raise ValueError("factorization check needs at least two samples")
    idx, _ = _split_layout(spec, im)
    seeds = []
    for k, x in enumerate(samples):
        others = [s for j, s in enumerate(samples) if j != k]
        seeds.append(min(others, key=lambda s: float(np.sum((s - x) ** 2))))

    def image(x):
        psi = im.series(x, 1)
        y, psi0 = _map_values(spec, im, x, psi), taylor.batch_first([s.val for s in psi])
        return list(zip(y, psi0))

    def f_at(x):
        f_val = im.series(x, 0, check_membership=False)[idx].val
        return f_val.tolist()

    # the samples after the first one whose image fails cannot change the outcome
    images = taylor.column_results(image, np.array(samples), first=True)
    error = images.pop() if images and isinstance(images[-1], Exception) else None
    worst = 0.0
    if images:
        ys = np.array([y for y, _ in images])
        x_hats = local_inverse(spec, im, ys, np.array(seeds[: len(images)]))
        for (y, psi0), f_val in zip(images, _per_sample(f_at, x_hats)):
            ambient = _psi_f_at_model_point(spec, im, idx, y, f_val)
            worst = max(worst, float(np.max(np.abs(ambient - psi0))))
    if error is not None:
        raise error
    return worst


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


def _curvature_residuals(metric_obj, lam: Callable, x):
    """The list of (sectional residuals per frame pair, scalar residual,
    Gauss residual or None) over a batch of points (S, n), whose geometries
    are built once for all of them."""
    geo = chart_geometry(metric_obj, x, check_membership=False)
    n = geo.dim
    s = geo.scalar_series(lam)
    geo_s = geo.rescaled(s)
    lam0s = s.val
    taylor.reject(
        lam0s <= 0.0,
        lambda at: ValueError(f"conformal factor nonpositive at {format_point(at(x))}"),
    )
    _, grad_sqs = geo.gradient(s)
    hess = geo.covariant_hessian(s)
    partials = geo.partials(s)
    k_bases = sectional_curvatures(geo)
    k_scaleds = sectional_curvatures(geo_s)
    log_laps = geo.laplacian(taylor.log(s)) if n == 2 else None

    def residuals(at):
        # one sample's identities: `at` picks its value or array, laid out
        # as at one point, and the arithmetic runs on Python floats, as
        # numpy's array powers differ from Python's in the last bit
        lam0, grad_sq = float(at(lam0s)), float(at(grad_sqs))
        b, hess_k = at(geo.onf), at(hess)
        lap = float(np.einsum("ij,ij->", at(geo.g_inv0), hess_k))
        hess_onf = b.T @ hess_k @ b
        dlam_onf = b.T @ np.ascontiguousarray(at(partials))
        k_base, k_scaled = at(k_bases), at(k_scaleds)
        sect = []
        for a in range(n):
            for c in range(a + 1, n):
                lhs = lam0**4 * k_scaled[a, c]
                rhs = (
                    lam0**2 * k_base[a, c]
                    + 2.0 * (dlam_onf[a] ** 2 + dlam_onf[c] ** 2)
                    - lam0 * (hess_onf[a, a] + hess_onf[c, c])
                    - grad_sq
                )
                sect.append(abs(lhs - rhs))
        lhs = lam0**2 * float(at(geo_s.scal))
        rhs = (
            float(at(geo.scal))
            - 2.0 * (n - 1) * lap / lam0
            - (n - 1) * (n - 4) * grad_sq / lam0**2
        )
        gauss = None
        if log_laps is not None:
            lhs_gauss = lam0**2 * k_scaled[0, 1]
            gauss = abs(lhs_gauss - (k_base[0, 1] - float(at(log_laps))))
        return sect, abs(lhs - rhs), gauss

    return [residuals(taylor.column(k)) for k in range(geo.batch)]


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
    res_sect = res_scal = res_gauss = 0.0
    for sect, scal, gauss in _per_sample(
        lambda x: _curvature_residuals(metric_obj, lam, x), samples
    ):
        for value in sect:
            res_sect = max(res_sect, value)
        res_scal = max(res_scal, scal)
        if gauss is not None:
            res_gauss = max(res_gauss, gauss)
    return {"sectional": res_sect, "scalar": res_scal, "gauss": res_gauss}
