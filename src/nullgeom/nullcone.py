"""Null hypersurfaces cut out by a scalar function F.

Four variants: the nullcone of a cosmological product (vanishing of the
squared conformal-time / fiber-distance difference), the flat light cone,
the light cone crossed with a line, and the plane sections of the de Sitter
quadric.  Each supplies F, its ambient gradient, and a membership test for
the future branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import taylor
from .taylor import BatchRejected, PrimitiveDomainError, Series
from .spacetime import (
    AmbientModel,
    fiber_constraint,
    fiber_radial,
    fiber_radius_sq,
)

__all__ = [
    "VERTEX_EPS",
    "MEMBERSHIP_TOL",
    "ConeRules",
    "CONE_RULES",
    "RejectionReason",
    "PointRejected",
    "EmbeddingRangeError",
    "NullconeSpec",
    "eval_F",
    "cone_time",
    "null_gradient",
    "require_on_cone",
]

# conformal time below this is treated as the cone vertex; the normalized
# frame divides by its square
VERTEX_EPS = 1e-8
MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class ConeRules:
    """What holds on the cross sections of one kind of nullcone.

    `curvature`: the ambient curvature c of the Gauss identity
    Scal = n(n-1)(<H,H> + c), None where that is no theorem; `trapped`:
    whether the trapped classification applies; `split`: the split map
    onto the model space, if any (a `conformal.MAP_VARIANTS` name).
    """

    curvature: Optional[float]
    trapped: bool
    split: Optional[str]


# the nullcone variants and their rules; only cones from a point, flat or on
# the unit de Sitter quadric, have the Gauss identity
CONE_RULES = {
    "grw_cone": ConeRules(curvature=None, trapped=False, split=None),
    "minkowski_cone": ConeRules(curvature=0.0, trapped=True, split="lightcone_to_Hn"),
    "cylinder": ConeRules(curvature=None, trapped=False, split="cylinder_to_SxR"),
    "desitter_alpha": ConeRules(curvature=1.0, trapped=False, split="desitter_to_Sn"),
}


class RejectionReason(Enum):
    VERTEX_EXCLUSION = "vertex_exclusion"
    DENOMINATOR_ZERO = "denominator_zero"
    OFF_CONE = "off_cone"
    CHART_SINGULARITY = "chart_singularity"


class PointRejected(Exception):
    """A sample point the engine refuses to evaluate, with the reason why."""

    def __init__(self, reason: RejectionReason, detail: str = ""):
        self.reason = reason
        self.detail = detail
        text = reason.value if not detail else f"{reason.value}: {detail}"
        super().__init__(text)


class EmbeddingRangeError(ValueError):
    """The graph function left the range its family admits."""


@dataclass(frozen=True)
class NullconeSpec:
    """Selects a null hypersurface inside an ambient model.

    The de Sitter plane sections x_last = alpha + beta x1, beta =
    sqrt(1 - alpha^2), carry the radial scale R = alpha x1 - beta;
    component splits the 0 < alpha < 1 planes at x1 = beta/alpha, where R
    changes sign.
    """

    model: AmbientModel
    variant: str
    alpha: float = None
    branch: str = "future"
    component: str = None

    def __post_init__(self):
        if self.variant not in CONE_RULES:
            raise ValueError(f"unknown nullcone variant {self.variant!r}")
        if self.branch != "future":
            raise ValueError("only the future branch is supported")
        kind = self.model.kind
        if self.variant == "grw_cone" and kind not in ("product", "grw_euclidean"):
            raise ValueError("grw_cone needs a product or grw_euclidean model")
        if self.variant == "minkowski_cone":
            if kind != "minkowski":
                raise ValueError("minkowski_cone needs a minkowski model")
            if self.model.t0 != 0.0:
                raise ValueError("the flat light cone has its vertex at time 0")
        if self.variant == "cylinder" and kind != "minkowski":
            raise ValueError("cylinder needs a minkowski model")
        if self.variant == "desitter_alpha":
            if kind != "desitter":
                raise ValueError("desitter_alpha needs a desitter model")
            if self.alpha is None or not 0.0 <= float(self.alpha) <= 1.0:
                raise ValueError("alpha must lie in [0, 1]")
            object.__setattr__(self, "alpha", float(self.alpha))
            if 0.0 < self.alpha < 1.0:
                if self.component not in ("minus", "plus"):
                    raise ValueError("0 < alpha < 1 needs component minus | plus")
            elif self.component is not None:
                raise ValueError("component only applies for 0 < alpha < 1")
        elif self.alpha is not None or self.component is not None:
            raise ValueError(f"{self.variant} takes no alpha or component")

    @property
    def rules(self) -> ConeRules:
        return CONE_RULES[self.variant]

    @property
    def beta(self) -> float:
        """Slope sqrt(1 - alpha^2) of the de Sitter plane section."""
        return math.sqrt(1.0 - self.alpha * self.alpha)

    def scale(self, x1):
        """The de Sitter radial scale R = alpha x1 - beta (floats or Series)."""
        return self.alpha * x1 - self.beta

    @property
    def split_radius(self) -> float:
        """The x1 value separating the two de Sitter components, where R = 0."""
        return self.beta / self.alpha

    def check_range(self, f):
        """f, a graph function's value (a Series, or the (B,) array of a
        constant), checked to be positive and, on a split de Sitter plane,
        below the split radius on `minus`, above on `plus`."""
        v = f.val if isinstance(f, Series) else f
        lo = self.split_radius if self.component == "plus" else 0.0
        hi = self.split_radius if self.component == "minus" else math.inf
        taylor.require(
            (lo < v) & (v < hi),
            lambda at: EmbeddingRangeError(
                f"f = {at(v):.6g} outside the admissible range ({lo:.6g}, {hi:.6g})"
            ),
        )
        return f


def eval_F(spec: NullconeSpec, p, phi=None):
    """The defining function; zero (with the branch conditions) on the cone.
    On a GRW cone, `phi` is p's conformal time when the caller holds it."""
    m = spec.model
    if len(p) != m.coord_count:
        raise ValueError("point dimension does not match the model")
    if spec.variant == "minkowski_cone":
        return -(p[0] * p[0]) + taylor.norm_sq(p[1:])
    if spec.variant == "cylinder":
        block = p[: m.n + 1]
        return -(p[0] * p[0]) + taylor.norm_sq(block[1:])
    if spec.variant == "desitter_alpha":
        return p[-1] - spec.alpha - spec.beta * p[0]
    phi = m.warping.conformal_time(p[0], m.t0) if phi is None else phi
    return -(phi * phi) + fiber_radius_sq(m, p[1:])


def _reject_radial(exc):
    if not isinstance(exc, PrimitiveDomainError):
        return exc
    if exc.primitive == "arccos" and exc.value <= -1.0:
        return PointRejected(RejectionReason.CHART_SINGULARITY,
                             "fiber antipode: radial direction undefined")
    return PointRejected(RejectionReason.DENOMINATOR_ZERO,
                         "fiber base point: radial direction undefined")


def cone_time(spec: NullconeSpec, t):
    """The conformal time of a GRW cone at the (B,) array of times t, which
    F, its vertex check and the null gradient read; None on the other cones."""
    m = spec.model
    return m.warping.conformal_time(t, m.t0) if spec.variant == "grw_cone" else None


def null_gradient(spec: NullconeSpec, x: Series, f: Series = None, phi=None) -> np.ndarray:
    """Half the ambient gradient of F at the points of a batch, as the
    order-1 value-gradient array (1 + n, ambient, B) of its ambient
    components, from x, their position vector Series, read through
    `Series.value_gradient` whatever its order, by `taylor.product_rule`
    and the primitives' order-1 rules.  It is x on the light cone, x with
    its line component zero on the cylinder, 1/2 (-(x_last - beta x_1) x +
    beta e_1 + e_last) on a de Sitter section and f^-2 (phi f, r Dr) on a
    GRW cone, with phi the conformal time, entered as its tangent line
    phi(t0) + (t - t0) / f(t0) at each point's time t0, and r Dr the fiber
    distance times its unit radial field (`fiber_radial`), on a Euclidean
    fiber the fiber part of x, with one reciprocal
    (`taylor.reciprocal_rule`) and no sqrt.  `f` is the warping profile and
    `phi` the conformal time (`cone_time`) at x's time when the caller
    already holds them (the chart geometry does).
    """
    m = spec.model
    if x.shape != (m.coord_count,):
        raise ValueError("point dimension does not match the model")
    c = x.value_gradient
    if spec.variant == "minkowski_cone":
        return c
    if spec.variant == "cylinder":
        v = c.copy()
        v[:, -1] = c[:, 0] * 0.0
        return v
    if spec.variant == "desitter_alpha":
        v = taylor.product_rule(-(c[:, -1:] - c[:, :1] * spec.beta), c)
        v[0, 0] += spec.beta
        v[0, -1] += 1.0
        return v * 0.5
    t = c[:, 0]
    phi = cone_time(spec, t[0]) if phi is None else phi
    taylor.reject(
        phi < VERTEX_EPS,
        lambda at: PointRejected(RejectionReason.VERTEX_EXCLUSION,
                                 f"conformal time {at(phi):.3e} below {VERTEX_EPS:.0e}"),
    )
    f = (m.warping(x[0]) if f is None else f).value_gradient
    phi_f = taylor.product_rule(taylor.compose_rule(t, (phi, 1.0 / f[0])), f)
    if m.fiber_kind == "euclidean":
        v = c.copy()
        v[:, 0] = phi_f
    else:
        try:
            r, dr = fiber_radial(m, c[:, 1:])
        except BatchRejected as err:
            raise BatchRejected({b: _reject_radial(e) for b, e in err.errors.items()}) from None
        v = np.concatenate((phi_f[:, None], taylor.product_rule(r[:, None], dr)), axis=1)
    inverse = taylor.reciprocal_rule(taylor.product_rule(f, f))
    return taylor.product_rule(inverse[:, None], v)


def require_on_cone(spec: NullconeSpec, p, phi=None):
    """Reject the points of a batch p (B, ambient) that are not admissible
    points of the cone, with |F| and any quadric residual within
    `MEMBERSHIP_TOL`: one `BatchRejected` gives each failing column the
    `PointRejected` of the first check it fails; a domain error of F comes
    first.  `phi` is the GRW cone's conformal time (`cone_time`) at the
    points when the caller holds it."""
    m = spec.model
    off, vertex = RejectionReason.OFF_CONE, RejectionReason.VERTEX_EXCLUSION
    p = np.asarray(p, dtype=float)
    q = list(p.T)  # the components, (B,) arrays
    t = q[0]
    phi = cone_time(spec, t) if phi is None else phi
    F = np.abs(eval_F(spec, q, phi))
    checks = [(F > MEMBERSHIP_TOL, lambda at: PointRejected(off, f"|F| = {at(F):.3e}"))]
    if spec.variant == "desitter_alpha":
        quad = np.abs(-(t * t) + taylor.norm_sq(q[1:]) - 1.0)
        checks += [
            (quad > MEMBERSHIP_TOL, lambda at: PointRejected(
                off, f"off the unit hyperquadric by {at(quad):.3e}")),
            (t <= 0.0, lambda at: PointRejected(off, "past branch (x1 <= 0)")),
        ]
        if spec.component == "minus":
            checks.append((~(t < spec.split_radius), lambda at: PointRejected(
                off, "beyond the component split radius")))
        if spec.component == "plus":
            checks.append((~(t > spec.split_radius), lambda at: PointRejected(
                off, "below the component split radius")))
    elif spec.variant == "cylinder":
        checks.append((t <= 0.0, lambda at: PointRejected(off, "past branch (x1 <= 0)")))
    elif spec.variant == "minkowski_cone":
        checks += [
            (t <= 0.0, lambda at: PointRejected(off, "past branch (t <= 0)")),
            (t < VERTEX_EPS, lambda at: PointRejected(
                vertex, f"time {at(t):.3e} below {VERTEX_EPS:.0e}")),
        ]
    else:
        checks.append((t <= m.t0, lambda at: PointRejected(off, "past branch (t <= t0)")))
        if m.kind == "product":
            resid = np.abs(fiber_constraint(m, q[1:]))
            checks.append((resid > MEMBERSHIP_TOL, lambda at: PointRejected(
                off, f"off the fiber quadric by {at(resid):.3e}")))
        checks.append((phi < VERTEX_EPS, lambda at: PointRejected(
            vertex, f"conformal time below {VERTEX_EPS:.0e}")))
    taylor.reject_first(checks)
