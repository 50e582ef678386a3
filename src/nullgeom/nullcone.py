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
    "NullconeSpec",
    "eval_F",
    "grad_F_components",
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


def eval_F(spec: NullconeSpec, p):
    """The defining function; zero (with the branch conditions) on the cone."""
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
    phi = m.warping.conformal_time(p[0], m.t0)
    return -(phi * phi) + fiber_radius_sq(m, p[1:])


def _reject_radial(exc):
    if not isinstance(exc, PrimitiveDomainError):
        return exc
    if exc.primitive == "arccos" and exc.value <= -1.0:
        return PointRejected(RejectionReason.CHART_SINGULARITY,
                             "fiber antipode: radial direction undefined")
    return PointRejected(RejectionReason.DENOMINATOR_ZERO,
                         "fiber base point: radial direction undefined")


def grad_F_components(spec: NullconeSpec, p, f=None):
    """Half the ambient gradient of F, as a component list (Series-capable).

    On a GRW cone, `f` is the warping profile at p's time when the caller
    already holds it (the chart geometry does), so it is not evaluated twice.
    """
    m = spec.model
    if len(p) != m.coord_count:
        raise ValueError("point dimension does not match the model")
    is_series = any(isinstance(x, Series) for x in p)
    if spec.variant == "minkowski_cone":
        return list(p)
    if spec.variant == "cylinder":
        zero = 0.0 * p[0] if is_series else 0.0
        return list(p[: m.n + 1]) + [zero]
    if spec.variant == "desitter_alpha":
        scale = eval_F(spec, p) + spec.alpha
        comps = [-scale * x for x in p]
        comps[0] = comps[0] + spec.beta
        comps[-1] = comps[-1] + 1.0
        return [0.5 * c for c in comps]
    t = p[0]
    phi = m.warping.conformal_time(t, m.t0)
    phi_val = phi.val if isinstance(phi, Series) else phi
    taylor.reject(
        phi_val < VERTEX_EPS,
        lambda at: PointRejected(RejectionReason.VERTEX_EXCLUSION,
                                 f"conformal time {at(phi_val):.3e} below {VERTEX_EPS:.0e}"),
    )
    if f is None:
        f = m.warping(t)
    try:
        r, dr = fiber_radial(m, p[1:])
    except PrimitiveDomainError as exc:
        raise _reject_radial(exc) from exc
    except BatchRejected as err:
        raise BatchRejected({b: _reject_radial(e) for b, e in err.errors.items()}) from None
    scale = r / (f * f)
    return [phi / f] + [scale * d for d in dr]


def require_on_cone(spec: NullconeSpec, p):
    """Raise PointRejected unless p is an admissible point of the cone, with
    |F| and any quadric residual within `MEMBERSHIP_TOL`."""
    m = spec.model
    p = np.asarray(p, dtype=float)
    F = float(eval_F(spec, p))
    if abs(F) > MEMBERSHIP_TOL:
        raise PointRejected(RejectionReason.OFF_CONE, f"|F| = {abs(F):.3e}")
    if spec.variant == "desitter_alpha":
        quad = -p[0] * p[0] + float(np.dot(p[1:], p[1:])) - 1.0
        if abs(quad) > MEMBERSHIP_TOL:
            raise PointRejected(RejectionReason.OFF_CONE,
                                f"off the unit hyperquadric by {abs(quad):.3e}")
        if p[0] <= 0.0:
            raise PointRejected(RejectionReason.OFF_CONE, "past branch (x1 <= 0)")
        if 0.0 < spec.alpha < 1.0:
            split = spec.split_radius
            if spec.component == "minus" and not p[0] < split:
                raise PointRejected(RejectionReason.OFF_CONE, "beyond the component split radius")
            if spec.component == "plus" and not p[0] > split:
                raise PointRejected(RejectionReason.OFF_CONE, "below the component split radius")
        return
    if spec.variant == "cylinder":
        if p[0] <= 0.0:
            raise PointRejected(RejectionReason.OFF_CONE, "past branch (x1 <= 0)")
        return
    if spec.variant == "minkowski_cone":
        if p[0] <= 0.0:
            raise PointRejected(RejectionReason.OFF_CONE, "past branch (t <= 0)")
        if p[0] < VERTEX_EPS:
            raise PointRejected(RejectionReason.VERTEX_EXCLUSION,
                                f"time {p[0]:.3e} below {VERTEX_EPS:.0e}")
        return
    t = float(p[0])
    if t <= m.t0:
        raise PointRejected(RejectionReason.OFF_CONE, "past branch (t <= t0)")
    if m.kind == "product":
        resid = abs(float(fiber_constraint(m, p[1:])))
        if resid > MEMBERSHIP_TOL:
            raise PointRejected(RejectionReason.OFF_CONE, f"off the fiber quadric by {resid:.3e}")
    if m.warping.conformal_time(t, m.t0) < VERTEX_EPS:
        raise PointRejected(RejectionReason.VERTEX_EXCLUSION,
                            f"conformal time below {VERTEX_EPS:.0e}")
