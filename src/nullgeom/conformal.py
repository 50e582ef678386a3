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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from . import spacetime, taylor
from .immersion import (
    ChartGeometry,
    Immersion,
    MetricChart,
    chart_geometry,
)
from .nullcone import NullconeSpec
from .spacetime import AmbientModel
from .taylor import Series, SmoothMap, format_point

__all__ = [
    "MAP_VARIANTS",
    "FAMILY_VARIANTS",
    "DENOMINATOR_FLOOR",
    "MODEL_MEMBERSHIP_TOL",
    "DegeneracyError",
    "EmbeddingRangeError",
    "InverseError",
    "ConformalMapSpec",
    "EmbeddingFamily",
    "build_embedding",
    "conformal_map",
    "conformal_factor",
    "factor_field",
    "primitive_g",
    "exactness_residual",
    "pullback_residual",
    "conformal_factor_check",
    "desitter_r_sign",
    "local_inverse",
    "factorization_check",
    "scaled_metric_chart",
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
FAMILY_VARIANTS = tuple(_FAMILY_CONES)

DENOMINATOR_FLOOR = 1e-8
MODEL_MEMBERSHIP_TOL = 1e-10
_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=200)
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
            lambda: EmbeddingRangeError(
                f"f = {v:.6g} outside the admissible range ({lo:.6g}, {hi:.6g})"
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


def conformal_factor(spec: ConformalMapSpec, im: Immersion, x) -> float:
    """The variant's conformal scale |denominator| at a chart point."""
    return abs(_denominator_series(spec, im, im.series(x, 0)).val)


def factor_field(spec: ConformalMapSpec, im: Immersion) -> Callable:
    """The conformal scale as a smooth chart field, sign-normalized positive.

    Returns a callable over jet coordinates, suitable for scalar_series and
    conformal_curvature_check.  Components where the raw denominator is
    negative get a sign flip so the field stays positive throughout.
    """

    def lam(coords):
        first = coords[0]
        psi = list(im.map.fn(list(coords)))
        if isinstance(first, Series):
            psi = [taylor.as_series(c, first.ctx) for c in psi]
        den = _denominator_series(spec, im, psi)
        value = den.val if isinstance(den, Series) else float(den)
        if abs(value) <= DENOMINATOR_FLOOR:
            raise DegeneracyError(
                f"conformal scale {value:.3e} is inside the floor {DENOMINATOR_FLOOR:.1e}"
            )
        return -den if value < 0.0 else den

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
    val, err = quad(integrand, lo, hi, **_QUAD_OPTS)
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


def _model_values(spec, im, x, psi) -> np.ndarray:
    """Image of psi on the model factor (hyperboloid sheet or round sphere),
    without the cylinder maps' primitive g; membership is enforced."""
    denom = _denominator_series(spec, im, psi).val
    if abs(denom) <= DENOMINATOR_FLOOR:
        raise DegeneracyError(f"split-map denominator {denom:.3e} at {format_point(x)}")
    _, keep = _split_layout(spec, im)
    y = np.array([psi[a].val for a in keep]) / denom
    if spec.hyperbolic:
        _require(abs(-y[0] ** 2 + y[1:] @ y[1:] + 1.0) < MODEL_MEMBERSHIP_TOL, y)
        _require(y[0] > 0.0, y)
    else:
        _require(abs(y @ y - 1.0) < MODEL_MEMBERSHIP_TOL, y)
    return y


def _map_values(spec, im, x, psi) -> np.ndarray:
    """The model image, followed by the primitive g on the cylinder maps."""
    y = _model_values(spec, im, x, psi)
    if spec.primitive:
        return np.concatenate([y, [primitive_g(spec, im, x)]])
    return y


def _require(cond: bool, y):
    if not cond:
        raise DegeneracyError(f"split-map image {np.asarray(y)} left the model space")


def _map_jacobian(spec, im, x, psi) -> np.ndarray:
    """d(split map) rows per model component, columns per chart axis.

    The primitive's differential is dg = dw/u exactly, so no quadrature
    enters the jacobian.
    """
    denom = _denominator_series(spec, im, psi)
    if abs(denom.val) <= DENOMINATOR_FLOOR:
        raise DegeneracyError(f"split-map denominator {denom.val:.3e}")
    _, keep = _split_layout(spec, im)
    n = len(x)
    comps = [psi[a] / denom for a in keep]
    jac = np.array([[c.derivative(i).val for i in range(n)] for c in comps])
    if spec.primitive:
        w = psi[-1]
        dg = np.array([w.derivative(i).val for i in range(n)]) / denom.val
        jac = np.vstack([jac, dg])
    return jac


def _pullback(spec, im, x, psi):
    jac = _map_jacobian(spec, im, x, psi)
    signs = np.ones(jac.shape[0])
    if spec.hyperbolic:
        signs[0] = -1.0
    return np.einsum("a,ai,aj->ij", signs, jac, jac)


def pullback_residual(spec: ConformalMapSpec, geo: ChartGeometry, expected_factor=None):
    """(deviation, spd) of the pullback identity at an evaluated immersion point.

    The deviation compares the model inner products of the split map's jet
    columns against lambda^-2 times the induced metric, entrywise in the
    chart basis, with lambda given by `expected_factor` (a callable of the
    chart point) or the variant's own denominator when omitted; spd says
    whether that pullback is symmetric positive definite.  Raises
    DegeneracyError where the image leaves the model space.
    """
    im, x, psi = geo.immersion, geo.x, geo.psi
    _model_values(spec, im, x, psi)  # raises off the model space
    pulled = _pullback(spec, im, x, psi)
    if expected_factor is None:
        lam = abs(_denominator_series(spec, im, psi).val)
    else:
        lam = float(expected_factor(x))
    deviation = float(np.max(np.abs(pulled - geo.g0 / lam**2)))
    spd = np.allclose(pulled, pulled.T, atol=1e-12) and np.linalg.eigvalsh(pulled)[0] > 0.0
    return deviation, bool(spd)


def conformal_factor_check(
    spec: ConformalMapSpec, im: Immersion, samples, expected_factor=None
) -> float:
    """Max `pullback_residual` deviation over the samples."""
    worst = 0.0
    for x in samples:
        worst = max(worst, pullback_residual(spec, chart_geometry(im, x), expected_factor)[0])
    return worst


def desitter_r_sign(im: Immersion, samples) -> float:
    """Common sign of the de Sitter scale R along the samples.

    Raises when R changes sign or nearly vanishes, which would mean the
    immersion straddles the two components of a split plane section.
    """
    cone = im.target_cone
    if cone is None or cone.variant != "desitter_alpha":
        raise ValueError("sign coherence applies to de Sitter plane sections")
    signs = set()
    for x in samples:
        r = cone.scale(im.series(x, 0, check_membership=False)[0].val)
        if abs(r) <= DENOMINATOR_FLOOR:
            raise DegeneracyError(f"scale R = {r:.3e} vanishes at {format_point(x)}")
        signs.add(1.0 if r > 0.0 else -1.0)
    if len(signs) != 1:
        raise DegeneracyError("scale R changes sign across the samples")
    return signs.pop()


# -- factorization ------------------------------------------------------------


def local_inverse(
    spec: ConformalMapSpec,
    im: Immersion,
    target: np.ndarray,
    seed,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> np.ndarray:
    """Chart point mapping to `target` under the split map.

    Damped Gauss-Newton on the forward map seeded from `seed`; the system is
    overdetermined by the model constraint, so each step solves the least
    squares normal equations.
    """
    x = np.asarray(seed, dtype=float).copy()
    target = np.asarray(target, dtype=float)
    for _ in range(max_iter):
        psi = im.series(x, 1, check_membership=False)
        r = _map_values(spec, im, x, psi) - target
        if np.max(np.abs(r)) < tol:
            return x
        jac = _map_jacobian(spec, im, x, psi)
        step, *_ = np.linalg.lstsq(jac, r, rcond=None)
        base_norm = float(r @ r)
        damping = 1.0
        for _ in range(30):
            trial = x - damping * step
            try:
                trial_psi = im.series(trial, 1, check_membership=False)
                trial_r = _map_values(spec, im, trial, trial_psi) - target
            except (ValueError, DegeneracyError):
                damping *= 0.5
                continue
            if float(trial_r @ trial_r) < base_norm:
                x = trial
                break
            damping *= 0.5
        else:
            raise InverseError(f"no descent step at {format_point(x)}")
    psi = im.series(x, 1, check_membership=False)
    if np.max(np.abs(_map_values(spec, im, x, psi) - target)) < tol:
        return x
    raise InverseError(
        f"iteration stalled near {format_point(x)} for target {format_point(target)}"
    )


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
    the round trip genuinely exercises invertibility.
    """
    if spec.primitive:
        raise ValueError(f"{spec.variant} has no graph-embedding factorization")
    samples = [np.asarray(s, dtype=float) for s in samples]
    if len(samples) < 2:
        raise ValueError("factorization check needs at least two samples")
    idx, _ = _split_layout(spec, im)
    worst = 0.0
    for k, x in enumerate(samples):
        psi = im.series(x, 1)
        y = _map_values(spec, im, x, psi)
        others = [s for j, s in enumerate(samples) if j != k]
        seed = min(others, key=lambda s: float(np.sum((s - x) ** 2)))
        x_hat = local_inverse(spec, im, y, seed)
        f_val = im.series(x_hat, 0, check_membership=False)[idx].val
        ambient = _psi_f_at_model_point(spec, im, idx, y, f_val)
        psi0 = np.array([s.val for s in psi])
        worst = max(worst, float(np.max(np.abs(ambient - psi0))))
    return worst


# -- conformal curvature ------------------------------------------------------


def scaled_metric_chart(base: MetricChart, lam: Callable, name="") -> MetricChart:
    """The chart metric lambda^2 g for a positive scalar field lambda."""

    def metric(coords):
        factor = lam(coords)
        factor = factor * factor
        return [[factor * entry for entry in row] for row in base.metric(coords)]

    return MetricChart(metric=metric, dim=base.dim, name=name or f"scaled({base.name})")


def sectional_curvatures(geo: ChartGeometry) -> np.ndarray:
    """K(E_a, E_b) for every orthonormal-frame pair, as a symmetric matrix."""
    n = geo.dim
    b = geo.onf
    low = np.einsum("lm,lijk->mijk", geo.g0, geo.riemann)
    out = np.zeros((n, n))
    for a in range(n):
        for c in range(a + 1, n):
            ea, ec = b[:, a], b[:, c]
            k = float(np.einsum("mijk,m,i,j,k->", low, ea, ea, ec, ec))
            out[a, c] = out[c, a] = k
    return out


def conformal_curvature_check(metric_obj, lam: Callable, samples) -> dict:
    """Residuals of the curvature identities between g and lambda^2 g.

    `metric_obj` is an `Immersion` or a `MetricChart`.  The rescaled
    curvatures are computed independently, from the jet of lambda^2 g, then
    three identities are evaluated: the sectional relation over all
    orthonormal frame pairs, the scalar relation, and (in dimension two) the
    Gauss logarithmic form.  Returns per-identity max residuals.
    """
    res_sect = res_scal = res_gauss = 0.0
    for x in samples:
        geo = chart_geometry(metric_obj, x, check_membership=False)
        n = geo.dim
        s = geo.scalar_series(lam)
        geo_s = geo.rescaled(s)
        lam0 = s.val
        if lam0 <= 0.0:
            raise ValueError(f"conformal factor nonpositive at {format_point(x)}")
        _, grad_sq = geo.gradient(s)
        hess = geo.covariant_hessian(s)
        lap = float(np.einsum("ij,ij->", geo.g_inv0, hess))
        b = geo.onf
        hess_onf = b.T @ hess @ b
        dlam_onf = b.T @ geo.partials(s)
        k_base = sectional_curvatures(geo)
        k_scaled = sectional_curvatures(geo_s)
        for a in range(n):
            for c in range(a + 1, n):
                lhs = lam0**4 * k_scaled[a, c]
                rhs = (
                    lam0**2 * k_base[a, c]
                    + 2.0 * (dlam_onf[a] ** 2 + dlam_onf[c] ** 2)
                    - lam0 * (hess_onf[a, a] + hess_onf[c, c])
                    - grad_sq
                )
                res_sect = max(res_sect, abs(lhs - rhs))
        lhs = lam0**2 * geo_s.scal
        rhs = (
            geo.scal
            - 2.0 * (n - 1) * lap / lam0
            - (n - 1) * (n - 4) * grad_sq / lam0**2
        )
        res_scal = max(res_scal, abs(lhs - rhs))
        if n == 2:
            log_lap = geo.laplacian(taylor.log(s))
            lhs = lam0**2 * k_scaled[0, 1]
            res_gauss = max(res_gauss, abs(lhs - (k_base[0, 1] - log_lap)))
    return {"sectional": res_sect, "scalar": res_scal, "gauss": res_gauss}
