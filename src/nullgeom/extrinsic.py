"""Null frames, shape operators, expansions and trapped-ness classification.

Conventions are the general-relativity ones throughout: the Gauss formula
reads nabla^amb_X Y = nabla_X Y - II(X, Y) and the Weingarten map is
A_N X = (nabla^amb_X N)^tangent with no extra minus sign.  The null normal
frame {xi, eta} is scaled so <xi, xi> = <eta, eta> = 0 and <xi, eta> = -1,
with both vectors future-pointing; xi is the cone's own null gradient.

Two implementation notes that keep the ambient bookkeeping small:

- Normal projection in Lorentzian signature is always done by solving
  against the frame Gram matrix [[0, -1], [-1, 0]], never by Euclidean
  orthogonalization.
- Ambient covariant derivatives are formed from flat coordinate derivatives
  plus the warped-product connection terms.  Corrections proportional to a
  quadric normal (the de Sitter position vector, or the fiber position of a
  curved GRW fiber) are omitted: they are metrically orthogonal to every
  spacetime tangent, so tangential solves and frame pairings never see them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import nullcone, spacetime, taylor
from .immersion import ChartGeometry, Immersion, chart_geometry
from .spacetime import AmbientVector
from .taylor import Series, format_point

MARGINAL_EPS = 1e-7

NORMAL_FIELDS = ("xi", "eta", "nu", "time_orthogonal")

# each closed-form Weingarten map, and the normal field it describes
CLOSED_FORMS = {
    "time_orthogonal": "time_orthogonal",
    "product_xi": "xi",
    "product_eta": "eta",
    "minkowski_xi": "xi",
    "minkowski_eta": "eta",
    "warped_xi": "xi",
    "warped_eta": "eta",
}

# trapped_class never yields "past_weakly_trapped"; the name stays so that
# configurations expecting it keep validating
TRAPPED_CLASSES = (
    "past_trapped",
    "past_marginally_trapped",
    "past_weakly_trapped",
    "untrapped",
    "unclassified",
)


class FrameDegeneracyError(ValueError):
    """The null frame could not be normalized at this point."""


class ShapeDispatchError(ValueError):
    """A closed-form shape operator was requested outside its model class."""


@dataclass(frozen=True)
class NullFrame:
    """Future null normals xi, eta and the unit timelike normal nu."""

    xi: AmbientVector
    eta: AmbientVector
    nu: AmbientVector


@dataclass(frozen=True)
class ExtrinsicReport:
    """Per-point extrinsic summary, the row format of the suite reports."""

    point: np.ndarray
    u: float
    grad_u_sq: float
    laplacian_u: float
    theta_xi: float
    theta_eta: float
    H_sq: float
    scal_formula: float
    scal_intrinsic: float
    trapped_class: str


def _is_unit_warping(model) -> bool:
    if model.kind == "minkowski":
        return True
    w = model.warping
    return w is not None and w.kind == "constant" and w.value(model.t0) == 1.0


def _euclidean_fiber(model) -> bool:
    return model.kind in ("minkowski", "grw_euclidean") or (
        model.kind == "product" and model.fiber_kind == "euclidean"
    )


def closed_forms(model, cone) -> tuple:
    """The closed-form shape operators that apply on `cone`, in CLOSED_FORMS order."""
    product_cone = cone.variant in ("grw_cone", "minkowski_cone")
    applies = set()
    if model.kind != "desitter":
        applies.add("time_orthogonal")
    if product_cone and _is_unit_warping(model):
        applies.update(("product_xi", "product_eta"))
    if cone.variant == "minkowski_cone":
        applies.update(("minkowski_xi", "minkowski_eta"))
    if product_cone and _euclidean_fiber(model):
        applies.update(("warped_xi", "warped_eta"))
    return tuple(which for which in CLOSED_FORMS if which in applies)


class ExtrinsicPoint:
    """All extrinsic data of an immersion at one chart point.

    Frames are carried as ambient-component Series so that one more
    coordinate derivative (the Weingarten map) stays exact; everything is
    cached, so building a full report costs one jet evaluation.
    """

    def __init__(self, im: Immersion, x):
        if im.target_cone is None:
            raise ValueError("extrinsic geometry needs an immersion with a target cone")
        self.im = im
        self.model = im.model
        self.cone = im.target_cone
        self.geo: ChartGeometry = chart_geometry(im, x)
        self.n = im.dim

    # -- scalar height --------------------------------------------------

    @cached_property
    def u_series(self) -> Series:
        # the cone height function is the first ambient coordinate in
        # every model: t for cones and cylinders, x_1 on the de Sitter cone
        return self.geo.psi[0]

    @cached_property
    def u(self) -> float:
        return self.u_series.val

    @cached_property
    def du(self) -> np.ndarray:
        return self.geo.partials(self.u_series)

    @cached_property
    def grad_u(self) -> np.ndarray:
        return self.geo.g_inv0 @ self.du

    @cached_property
    def grad_u_sq(self) -> float:
        return float(self.du @ self.grad_u)

    @cached_property
    def laplacian_u(self) -> float:
        return self.geo.laplacian(self.u_series)

    @cached_property
    def hess_u_mixed(self) -> np.ndarray:
        """Hess u with one index raised: g^{ik} Hess_kj."""
        return self.geo.g_inv0 @ self.geo.covariant_hessian(self.u_series)

    # -- frame fields as Series ------------------------------------------

    @cached_property
    def xi_series(self):
        comps = nullcone.grad_F_components(self.cone, self.geo.psi)
        # future-normalize on the R > 0 component of a de Sitter section
        if self.cone.variant == "desitter_alpha" and self.cone.scale(self.geo.psi0[0]) > 0.0:
            comps = [-c for c in comps]
        return comps

    @cached_property
    def warping_ratio(self) -> float:
        """f'(u) / f(u), zero in the Minkowski model."""
        if self.model.kind == "minkowski":
            return 0.0
        f0, f1 = self.model.warping.derivatives(self.u, order=1)
        return f1 / f0

    @cached_property
    def time_axis_series(self):
        raw = spacetime.time_axis(self.model, self.geo.psi)
        return [taylor.as_series(c, self.geo.ctx) for c in raw]

    @cached_property
    def time_orthogonal_series(self):
        """Normal part of the time axis, unnormalized."""
        psi, dpsi = self.geo.psi, self.geo.dpsi
        b = [
            spacetime.ambient_inner(self.model, psi, self.time_axis_series, dpsi[j])
            for j in range(self.n)
        ]
        ginv = self.geo.g_inv_series
        coeff = [
            sum(ginv[i][j] * b[j] for j in range(self.n)) for i in range(self.n)
        ]
        m = len(psi)
        out = []
        for a in range(m):
            s = self.time_axis_series[a]
            for i in range(self.n):
                s = s - coeff[i] * dpsi[i][a]
            out.append(s)
        return out

    @cached_property
    def nu_series(self):
        psi = self.geo.psi
        w = self.time_orthogonal_series
        nn = spacetime.ambient_inner(self.model, psi, w, w)
        if nn.val >= -1e-12:
            raise FrameDegeneracyError(
                f"time axis projects to a non-timelike normal at {format_point(self.geo.x)}"
            )
        scale = 1.0 / taylor.sqrt(-nn)
        return [scale * comp for comp in w]

    @cached_property
    def xi_dot_nu(self) -> Series:
        return spacetime.ambient_inner(
            self.model, self.geo.psi, self.xi_series, self.nu_series
        )

    @cached_property
    def eta_series(self):
        c = self.xi_dot_nu
        if c.val >= 0.0:
            raise FrameDegeneracyError(
                f"<xi, nu> = {c.val:.3e} >= 0 at {format_point(self.geo.x)}"
            )
        a = -1.0 / (2.0 * c * c)
        b = -1.0 / c
        return [
            a * x + b * v for x, v in zip(self.xi_series, self.nu_series)
        ]

    def _values(self, series_list) -> np.ndarray:
        return np.array([s.val for s in series_list])

    @cached_property
    def frame(self) -> NullFrame:
        p = self.geo.psi0
        return NullFrame(
            xi=AmbientVector(self._values(self.xi_series), p),
            eta=AmbientVector(self._values(self.eta_series), p),
            nu=AmbientVector(self._values(self.nu_series), p),
        )

    def normal_series(self, name: str):
        if name == "xi":
            return self.xi_series
        if name == "eta":
            return self.eta_series
        if name == "nu":
            return self.nu_series
        if name == "time_orthogonal":
            return self.time_orthogonal_series
        raise ValueError(f"unknown normal field {name!r}; expected one of {NORMAL_FIELDS}")

    def frame_residual(self) -> float:
        """Max deviation of the frame identities at this point.

        Checks <xi,xi> = <eta,eta> = 0, <xi,eta> = -1, <nu,nu> = -1,
        orthogonality of all three fields to the tangents, and the shared
        time orientation; a wrong orientation counts as residual 1.
        """
        p = self.geo.psi0

        def inner(a, b):
            return spacetime.ambient_inner(self.model, p, a, b)

        frame = self.frame
        xi, eta, nu = frame.xi.components, frame.eta.components, frame.nu.components
        worst = abs(inner(xi, xi))
        worst = max(worst, abs(inner(eta, eta)))
        worst = max(worst, abs(inner(xi, eta) + 1.0))
        worst = max(worst, abs(inner(nu, nu) + 1.0))
        for field in (xi, eta, nu):
            for tangent in self.geo.tangents:
                worst = max(worst, abs(inner(field, tangent)))
        t = self._values(self.time_axis_series)
        if inner(xi, nu) >= 0.0 or inner(eta, nu) >= 0.0 or inner(nu, t) >= 0.0:
            worst = max(worst, 1.0)
        return float(worst)

    # -- Weingarten maps --------------------------------------------------

    def _ambient_directional(self, j: int, field_series) -> np.ndarray:
        """Components of nabla^amb_{d_j psi} N, modulo quadric normals."""
        vals = np.array([s.derivative(j).val for s in field_series])
        n0 = self._values(field_series)
        vals += spacetime.warped_connection_term(
            self.model, self.geo.psi0, self.geo.tangents[j], n0
        )
        return vals

    def shape_chart(self, name: str) -> np.ndarray:
        """Numeric Weingarten map of a normal field, chart basis (A^i_j)."""
        series = self.normal_series(name)
        p = self.geo.psi0
        m = np.zeros((self.n, self.n))
        for j in range(self.n):
            dn = self._ambient_directional(j, series)
            for i in range(self.n):
                m[i, j] = spacetime.ambient_inner(
                    self.model, p, dn, self.geo.tangents[i]
                )
        return self.geo.g_inv0 @ m

    def to_frame(self, a_chart: np.ndarray) -> np.ndarray:
        """Rewrite a (1,1) chart-basis operator in the orthonormal frame."""
        b = self.geo.onf
        return np.linalg.solve(b, a_chart @ b)

    def shape_numeric(self, name: str) -> np.ndarray:
        return self.to_frame(self.shape_chart(name))

    def shape_closed_chart(self, which: str) -> np.ndarray:
        model = self.model
        if which not in CLOSED_FORMS:
            raise ValueError(
                f"unknown closed form {which!r}; expected one of {tuple(CLOSED_FORMS)}"
            )
        applicable = closed_forms(model, self.cone)
        if which not in applicable:
            raise ShapeDispatchError(
                f"{which} does not apply on a {self.cone.variant} cone of a "
                f"{model.kind} model; applicable: {applicable}"
            )
        eye = np.eye(self.n)
        outer = np.outer(self.grad_u, self.du)
        if which == "time_orthogonal":
            return self.hess_u_mixed + self.warping_ratio * (eye + outer)
        if which in ("minkowski_xi", "minkowski_eta"):
            if which == "minkowski_xi":
                return eye
            u = self.u
            return (
                -((1.0 + self.grad_u_sq) / (2.0 * u * u)) * eye
                + self.hess_u_mixed / u
            )
        if which in ("warped_xi", "warped_eta"):
            if model.kind == "minkowski":
                f0, f1, phi = 1.0, 0.0, self.u
            else:
                f0, f1 = model.warping.derivatives(self.u, order=1)
                phi = model.warping.conformal_time(self.u, model.t0)
            if which == "warped_xi":
                return ((f1 * phi + 1.0) / (f0 * f0)) * eye
            gsq = self.grad_u_sq
            c0 = -((1.0 + gsq) / (2.0 * phi * phi) + f1 * (gsq - 1.0) / (2.0 * phi))
            return c0 * eye + (f1 / phi) * outer + (f0 / phi) * self.hess_u_mixed
        a_xi = self._product_xi_chart()
        if which == "product_xi":
            return a_xi
        p = self.u - (model.t0 or 0.0)
        return (
            -((1.0 + self.grad_u_sq) / (2.0 * p * p)) * a_xi
            + self.hess_u_mixed / p
        )

    def _product_xi_chart(self) -> np.ndarray:
        """A_xi X = -<X, grad u> grad u + (nabla^M_{Xhat}(r Dr))^tangent."""
        model = self.model
        p = self.geo.psi0
        x_fib = p[1:]
        r, dr = spacetime.fiber_radial(model, x_fib)
        rc = spacetime.radial_tangential_factor(model, r)
        signs = model.fiber_signs if model.kind == "product" else np.ones(len(x_fib))
        cols = []
        for j in range(self.n):
            xhat = self.geo.tangents[j][1:]  # fiber part of Xhat = X - <X, grad u> dt
            radial = float(np.sum(signs * xhat * dr))
            v = radial * np.asarray(dr) + rc * (xhat - radial * np.asarray(dr))
            v_amb = np.concatenate(([0.0], v))
            m = np.array(
                [
                    spacetime.ambient_inner(model, p, v_amb, self.geo.tangents[i])
                    for i in range(self.n)
                ]
            )
            cols.append(-self.du[j] * self.grad_u + self.geo.g_inv0 @ m)
        return np.column_stack(cols)

    def shape_closed(self, which: str) -> np.ndarray:
        return self.to_frame(self.shape_closed_chart(which))

    # -- traces and curvature ---------------------------------------------

    @cached_property
    def theta_xi(self) -> float:
        return float(np.trace(self.shape_chart("xi"))) / self.n

    @cached_property
    def theta_eta(self) -> float:
        return float(np.trace(self.shape_chart("eta"))) / self.n

    def second_fundamental_tangent_pair(self, i: int, j: int) -> np.ndarray:
        """II(d_i psi, d_j psi) as an ambient vector in the {xi, eta} span."""
        model = self.model
        p = self.geo.psi0
        w = self.geo.psi_second_partials[i, j] + spacetime.warped_connection_term(
            model, p, self.geo.tangents[i], self.geo.tangents[j]
        )
        xi0, eta0 = self.frame.xi.components, self.frame.eta.components
        a = -spacetime.ambient_inner(model, p, w, eta0)
        b = -spacetime.ambient_inner(model, p, w, xi0)
        # II(X, Y) = -(amb derivative)^normal
        return -(a * xi0 + b * eta0)

    @cached_property
    def mean_curvature_vector(self) -> np.ndarray:
        h = np.zeros(len(self.geo.psi0))
        for i in range(self.n):
            for j in range(self.n):
                h += self.geo.g_inv0[i, j] * self.second_fundamental_tangent_pair(i, j)
        return h / self.n

    @cached_property
    def h_sq(self) -> float:
        h = self.mean_curvature_vector
        return float(spacetime.ambient_inner(self.model, self.geo.psi0, h, h))

    def trapped_class(self, eps: float = MARGINAL_EPS) -> str:
        if not self.cone.rules.trapped:
            return "unclassified"
        m = 2.0 * self.u * self.laplacian_u - self.n * (1.0 + self.grad_u_sq)
        if m > eps:
            return "past_trapped"
        if abs(m) <= eps:
            return "past_marginally_trapped"
        return "untrapped"

    def report(self, eps: float = MARGINAL_EPS) -> ExtrinsicReport:
        h_sq = self.h_sq
        return ExtrinsicReport(
            point=self.geo.x.copy(),
            u=self.u,
            grad_u_sq=self.grad_u_sq,
            laplacian_u=self.laplacian_u,
            theta_xi=self.theta_xi,
            theta_eta=self.theta_eta,
            H_sq=h_sq,
            scal_formula=self.n * (self.n - 1) * h_sq,
            scal_intrinsic=self.geo.scal,
            trapped_class=self.trapped_class(eps),
        )

    # -- normal connection -------------------------------------------------

    def normal_connection_residual(self) -> float:
        """Residual of the propagation law for the normal part of the time
        axis: nabla^perp_X dt^perp = -(f'/f) <X, grad u> dt^perp - II(X, grad u).
        """
        model = self.model
        if model.kind == "desitter":
            raise ShapeDispatchError("the propagation law needs a warped-product model")
        ratio = self.warping_ratio
        p = self.geo.psi0
        xi0, eta0 = self.frame.xi.components, self.frame.eta.components
        n0 = self._values(self.time_orthogonal_series)
        worst = 0.0
        for j in range(self.n):
            dn = self._ambient_directional(j, self.time_orthogonal_series)
            a = -spacetime.ambient_inner(model, p, dn, eta0)
            b = -spacetime.ambient_inner(model, p, dn, xi0)
            lhs = a * xi0 + b * eta0
            ii = np.zeros(len(p))
            for i in range(self.n):
                ii += self.grad_u[i] * self.second_fundamental_tangent_pair(j, i)
            rhs = -ratio * self.du[j] * n0 - ii
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        return worst


# -- public operations ------------------------------------------------------


def point_report(im: Immersion, x, eps: float = MARGINAL_EPS) -> ExtrinsicReport:
    """Full extrinsic row for one chart point."""
    return ExtrinsicPoint(im, x).report(eps)
