"""Null frames, shape operators, expansions and trapped-ness classification.

A batch of chart points runs through plain stage functions, in this
order, each taking the `ChartGeometry` and the arrays of the stages
before it:

1. `height`: the cone height u = psi^0, its gradient and its Hessian;
2. `null_frame`: xi and the normal part N of the time axis at order 1,
   whose first derivatives, all the Weingarten maps read, are exact:
   order-1 value-gradient arrays (1 + n, ambient, B), the value and the n
   first partials, built from those of psi, d psi, f and the inverse metric
   (`Series.value_gradient`) by `taylor.product_rule`, the primitives'
   order-1 rules and `taylor.fold` with no Series product, and handed on as
   those arrays; as values only, nu = N / s with s = sqrt(-<N, N>), and
   eta = a xi + (b/s) N with c = <xi, nu>, a = -1/(2c^2) and b = -1/c;
3. `weingarten_map` of xi and N.  A shape operator is linear over
   functions in its normal field, so A_eta = a A_xi + (b/s) A_N;
4. `second_fundamental_form` and `expansions`: theta_xi, theta_eta, the
   mean curvature vector H and <H, H>.

`ExtrinsicPoint` runs them once over a batch and keeps the results;
`point_report` is the one-point facade, a batch of one.  Every Series
and value-gradient array carries one column per point on its last axis,
and every other array a leading batch axis; vectors keep their ambient
components last, as `spacetime.ambient_inner` reads them.

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

import functools
from dataclasses import dataclass

import numpy as np

from . import nullcone, spacetime, taylor
from .immersion import ChartGeometry, Immersion, chart_geometry
from .taylor import format_point

MARGINAL_EPS = 1e-7

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

# the numeric fields of a report row, each finite at an evaluated point
ROW_FIELDS = ("u", "grad_u_sq", "laplacian_u", "theta_xi", "theta_eta", "H_sq",
              "scal_formula", "scal_intrinsic")

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
class ExtrinsicReport:
    """Per-point extrinsic summary, the row format of the suite reports: of
    one point (`point_report`), or one value per point of a batch."""

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
    return w is not None and w.kind == "constant" and w.params[0] == 1.0


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


# -- pipeline stages ---------------------------------------------------------


def height(geo: ChartGeometry):
    """The cone height u with du, grad u, |grad u|^2 and Hess u (chart components).

    u is the first ambient coordinate in every model: t for cones and
    cylinders, x_1 on the de Sitter cone.
    """
    u = geo.position[0]
    grad_u, grad_u_sq = geo.gradient(u)
    return u.val, geo.partials(u), grad_u, grad_u_sq, geo.covariant_hessian(u)


def _table_refusals(v, r, w) -> tuple:
    """The columns that a composition with sqrt at v > 1e-12 (r = sqrt(v)),
    and one with the reciprocal at w >= 0, refuse: where the largest entry
    of the derivative table, r v^2, or w^4 or 6/w^4, is not finite."""
    w4 = w * w * w * w
    return ~np.isfinite(r * v * v), ~np.isfinite(w4 + 6.0 / w4)


def null_frame(geo: ChartGeometry):
    """xi, the time axis and its normal part N as order-1 value-gradient
    arrays (1 + n, ambient, B), nu = N / s and eta as values, batch first,
    and eta's coefficients a and b/s on xi and N; xi is the cone's null
    gradient, future-normalized.  The arrays are built from those of the
    position psi, d psi, f and the inverse metric (`Series.value_gradient`)
    by `taylor.product_rule`, the primitives' order-1 rules and
    `taylor.fold`, with no Series product (`nullcone.null_gradient`,
    `spacetime.time_axis`).  Raises `FrameDegeneracyError` where N is not
    timelike, or else unless c = <xi, nu> < 0, i.e. unless xi and nu share
    a time orientation."""
    model, cone = geo.immersion.model, geo.immersion.target_cone
    dpsi = geo.dpsi.value_gradient
    f2 = None if geo.f2 is None else geo.f2.val  # only <., .> reads it, by value
    axis = spacetime.time_axis(model, geo.position)
    if model.kind == "desitter":
        # [., j] = <axis, d_j psi>, de Sitter being unwarped: the signed sum
        # over the components, left to right
        proj = taylor.fold(taylor.product_rule(axis[:, None], dpsi) * model.signature[:, None], 2)
    else:
        # the constant axis (1, 0, ..., 0), so <axis, d_j psi> = -d_j psi^0; 0 - c
        # gives what the ambient product gives, signs of zeros included
        proj = 0.0 - dpsi[:, :, 0]
    # [., i] = g^ij <axis, d_j psi>; N = axis - [., i] d_i psi
    coeff = taylor.fold(taylor.product_rule(geo.g_inv_series.value_gradient, proj[:, None]), 2)
    normal = axis - taylor.fold(taylor.product_rule(coeff[:, :, None], dpsi), 1)
    xi = nullcone.null_gradient(cone, geo.position, geo.f, geo.cone_time)
    if cone.variant == "desitter_alpha":
        # future-normalize on the R > 0 component of a de Sitter section;
        # scaling by -1 or 1 is negation or a copy, bit for bit
        xi = xi * np.where(cone.scale(geo.psi0[:, 0]) > 0.0, -1.0, 1.0)
    # the values the Series arithmetic gave: a bincount adds each product,
    # and a composition (sqrt, reciprocal) its value, to +0.0; the pairings
    # differ from the Series ones at most in the sign of a zero, which the
    # checks below refuse
    nn = spacetime.ambient_inner(model, f2, normal[0].T, normal[0].T)
    r = np.sqrt(-nn)
    inv_s = 0.0 + 1.0 / (0.0 + r)
    nu = inv_s * normal[0] + 0.0
    c = spacetime.ambient_inner(model, f2, xi[0].T, nu.T)
    w = c * 2.0 * c + 0.0
    # each column refused as the compositions refused it; the reciprocals
    # of s and of c refuse none that these checks pass
    no_sqrt, no_reciprocal = _table_refusals(-nn, r, w)
    taylor.reject_first([
        (nn >= -1e-12, lambda at: FrameDegeneracyError(
            f"time axis projects to a non-timelike normal at {format_point(at(geo.x))}"
        )),
        (no_sqrt, lambda at: taylor.PrimitiveDomainError("sqrt", -at(nn))),
        (c >= 0.0, lambda at: FrameDegeneracyError(
            f"<xi, nu> = {at(c):.3e} >= 0 at {format_point(at(geo.x))}"
        )),
        (no_reciprocal, lambda at: taylor.PrimitiveDomainError("reciprocal", float(at(w)))),
    ])
    a = (0.0 + 1.0 / w) * -1.0
    b = (0.0 + 1.0 / c) * -1.0
    eta = (a * xi[0] + 0.0) + (b * nu + 0.0)
    return xi, axis, normal, taylor.batch_first(nu), taylor.batch_first(eta), a, b * inv_s


def _directional(geo: ChartGeometry, field: np.ndarray, df) -> np.ndarray:
    """Components of nabla^amb_{d_j psi} N, modulo quadric normals, [..., j, :]."""
    model = geo.immersion.model
    n0 = taylor.batch_first(field[0])
    # [j, a] = d_j N^a
    d = taylor.batch_first(field[1:])
    return d + spacetime.warped_connection_term(model, df, geo.tangents, n0[:, None, :])


def weingarten_map(geo: ChartGeometry, field: np.ndarray, f2, df) -> np.ndarray:
    """Numeric Weingarten map (A^i_j, chart basis) of a normal field's
    order-1 value-gradient array (1 + n, ambient, B).

    f2 and df are the fiber scale and (f, f') at the float point (see
    `spacetime.ambient_inner` and `spacetime.warped_connection_term`).
    """
    # [..., j, :] = nabla^amb_{d_j psi} N, paired with [..., i, :] = d_i psi
    dn = _directional(geo, field, df)
    m = spacetime.ambient_inner(
        geo.immersion.model, f2, dn[..., None, :, :], geo.tangents[..., :, None, :]
    )
    return geo.g_inv0 @ m


def second_fundamental_form(geo: ChartGeometry, xi, eta, f2, df) -> np.ndarray:
    """II(d_i psi, d_j psi) as ambient vectors in the {xi, eta} span, [i, j, :].

    II(X, Y) = -(ambient derivative)^normal, over all n x n pairs at once:
    both the second partials of psi and the warped connection term are
    symmetric in (i, j) bit for bit, so II is too.
    """
    model, tangents = geo.immersion.model, geo.tangents
    w = geo.psi_second_partials + spacetime.warped_connection_term(
        model, df, tangents[:, :, None, :], tangents[:, None, :, :]
    )
    xi, eta = xi[:, None, None, :], eta[:, None, None, :]
    a = -spacetime.ambient_inner(model, f2, w, eta)
    b = -spacetime.ambient_inner(model, f2, w, xi)
    return -(a[..., None] * xi + b[..., None] * eta)


def expansions(geo: ChartGeometry, a_xi, a_eta, ii, f2):
    """theta_xi and theta_eta (the traces of the xi and eta Weingarten maps
    over n), the mean curvature vector H = tr II / n and <H, H>."""
    n = geo.dim
    h = np.einsum("...ij,...ija->...a", geo.g_inv0, ii) / n
    h_sq = spacetime.ambient_inner(geo.immersion.model, f2, h, h)
    theta_xi = a_xi.trace(axis1=-2, axis2=-1) / n
    theta_eta = a_eta.trace(axis1=-2, axis2=-1) / n
    return theta_xi, theta_eta, h, h_sq


class ExtrinsicPoint:
    """All extrinsic data of an immersion at each point of a batch, from
    the immersion's chart geometry `geo` of that batch.

    The constructor runs the stages once, in pipeline order: `height`,
    `null_frame`, the xi and N `weingarten_map`s, from which the eta map
    follows, `second_fundamental_form` and `expansions`, and keeps every
    result as a plain attribute, an array with a leading batch axis; xi, the
    time axis and N keep their order-1 value-gradient arrays (1 + n,
    ambient, B) as well, `xi_jet`, `time_axis_jet` and `time_orthogonal_jet`.
    """

    def __init__(self, geo: ChartGeometry):
        im = geo.immersion
        if im is None or im.target_cone is None:
            raise ValueError("extrinsic geometry needs an immersion with a target cone")
        self.im = im
        self.model = model = im.model
        self.cone = im.target_cone
        self.geo = geo
        self.n = im.dim
        self.u, self.du, self.grad_u, self.grad_u_sq, hess = height(geo)
        self.laplacian_u = np.einsum("...ij,...ij->...", geo.g_inv0, hess)
        self.hess_u_mixed = geo.g_inv0 @ hess  # g^{ik} Hess_kj
        (self.xi_jet, self.time_axis_jet, self.time_orthogonal_jet, self.nu,
         self.eta, a, b_s) = null_frame(geo)
        self.xi = taylor.batch_first(self.xi_jet[0])
        # the float point's warping factors, apart from the Series ones of
        # geo.f2, from one evaluation: (f, f') enter the connection, f^2
        # scales the metric
        self.df = model.warping.derivatives(geo.psi0[:, 0], 1) if model.warped else None
        self.f2 = None if self.df is None else self.df[0] * self.df[0]
        self.warping_ratio = np.zeros_like(self.u) if self.df is None else self.df[1] / self.df[0]
        a_xi = weingarten_map(geo, self.xi_jet, self.f2, self.df)
        a_n = weingarten_map(geo, self.time_orthogonal_jet, self.f2, self.df)
        # A_eta = a A_xi + (b/s) A_N, linear over functions in the normal
        self.shape_maps = {"xi": a_xi, "time_orthogonal": a_n,
                           "eta": a[:, None, None] * a_xi + b_s[:, None, None] * a_n}
        self.ii = second_fundamental_form(geo, self.xi, self.eta, self.f2, self.df)
        self.theta_xi, self.theta_eta, self.mean_curvature_vector, self.h_sq = expansions(
            geo, self.shape_maps["xi"], self.shape_maps["eta"], self.ii, self.f2
        )

    def frame_residual(self) -> np.ndarray:
        """Max deviation of the frame identities at each point.

        Checks <xi,xi> = <eta,eta> = 0, <xi,eta> = -1, <nu,nu> = -1,
        orthogonality of all three fields to the tangents, and the shared
        time orientation; a wrong orientation counts as residual 1.  Every
        pairing is one `spacetime.ambient_inner` of stacked vectors, and the
        deviations are taken in that order by `taylor.column_max`.
        """
        n, t = self.n, taylor.batch_first(self.time_axis_jet[0])
        # [., k] = xi, eta, nu, the time axis, d_0 psi, ..., d_{n-1} psi
        vectors = np.concatenate((np.stack((self.xi, self.eta, self.nu, t), axis=1),
                                  self.geo.tangents), axis=1)
        tangents = list(range(4, 4 + n))
        left = [0, 1, 0, 2] + [0] * n + [1] * n + [2] * n + [0, 1, 2]
        right = [0, 1, 1, 2] + tangents * 3 + [2, 2, 3]
        pairs = spacetime.ambient_inner(self.model, self.f2, vectors[:, left], vectors[:, right])
        identities = len(left) - 3  # then the orientations <xi, nu>, <eta, nu>, <nu, t>
        shifts = np.zeros(identities)
        shifts[2:4] = 1.0  # <xi, eta> + 1 and <nu, nu> + 1
        worst = functools.reduce(taylor.column_max, abs(pairs[:, :identities] + shifts).T)
        flipped = (pairs[:, identities:] >= 0.0).any(axis=1)
        return np.where(flipped, taylor.column_max(worst, 1.0), worst)

    # -- Weingarten maps --------------------------------------------------

    def to_frame(self, a_chart: np.ndarray) -> np.ndarray:
        """Rewrite a (1,1) chart-basis operator in the orthonormal frame b =
        `geo.onf`: b^-1 A b, with b^-1 = L^T for the metric's Cholesky factor
        L, so two stacked matmuls and no solve."""
        return np.swapaxes(self.geo.cholesky, -1, -2) @ a_chart @ self.geo.onf

    def shape_numeric(self, name: str) -> np.ndarray:
        """Numeric Weingarten map of the normal field xi, eta or
        time_orthogonal (a CLOSED_FORMS value) in the orthonormal frame."""
        return self.to_frame(self.shape_maps[name])

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
        outer = self.grad_u[..., :, None] * self.du[..., None, :]
        if which == "time_orthogonal":
            return self.hess_u_mixed + self.warping_ratio[:, None, None] * (eye + outer)
        if which in ("warped_xi", "warped_eta"):
            if model.kind == "minkowski":
                f0, f1, phi = 1.0, 0.0, self.u
            else:
                f0, f1 = self.df
                phi = model.warping.conformal_time(self.u, model.t0)
            if which == "warped_xi":
                return ((f1 * phi + 1.0) / (f0 * f0))[:, None, None] * eye
            gsq = self.grad_u_sq
            c0 = -((1.0 + gsq) / (2.0 * phi * phi) + f1 * (gsq - 1.0) / (2.0 * phi))
            return (c0[:, None, None] * eye + (f1 / phi)[:, None, None] * outer
                    + (f0 / phi)[:, None, None] * self.hess_u_mixed)
        # the light cone and the product cones: A_eta from A_xi and Hess u
        if which.startswith("minkowski"):
            a_xi, p = np.broadcast_to(eye, self.hess_u_mixed.shape), self.u
        else:
            a_xi, p = self._product_xi_chart, self.u - (model.t0 or 0.0)
        if which.endswith("_xi"):
            return a_xi
        return ((-((1.0 + self.grad_u_sq) / (2.0 * p * p)))[:, None, None] * a_xi
                + self.hess_u_mixed / p[:, None, None])

    @functools.cached_property
    def _product_xi_chart(self) -> np.ndarray:
        """A_xi X = -<X, grad u> grad u + (nabla^M_{Xhat}(r Dr))^tangent,
        for all the coordinate fields X = d_j psi at once; computed once,
        for the `product_xi` and the `product_eta` closed forms."""
        model, tangents = self.model, self.geo.tangents
        r, dr = spacetime.fiber_radial(model, self.geo.psi0.T[None, 1:])
        dr = dr[0].T[:, None, :]
        rc = spacetime.radial_tangential_factor(model, r[0])[:, None, None]
        xhat = tangents[..., 1:]  # [., j, :], the fiber part of Xhat = X - <X, grad u> dt
        radial = np.sum(model.signature[1:] * xhat * dr, axis=-1)[..., None]
        v = radial * dr + rc * (xhat - radial * dr)
        v_amb = np.concatenate((np.zeros(v.shape[:-1] + (1,)), v), axis=-1)
        # [., j, i] = <v_j, d_i psi>, then [., j, k] = column j of A_xi
        m = spacetime.ambient_inner(model, self.f2, v_amb[:, :, None, :], tangents[:, None])
        cols = -self.du[..., None] * self.grad_u[:, None] + np.matvec(self.geo.g_inv0[:, None], m)
        return np.ascontiguousarray(cols.swapaxes(-1, -2))

    def shape_closed(self, which: str) -> np.ndarray:
        return self.to_frame(self.shape_closed_chart(which))

    # -- classification -----------------------------------------------------

    def trapped_class(self, eps: float = MARGINAL_EPS) -> np.ndarray:
        """The points' classes: trapped where m exceeds eps, marginal within it."""
        if not self.cone.rules.trapped:
            return np.full(len(self.u), "unclassified")
        m = 2.0 * self.u * self.laplacian_u - self.n * (1.0 + self.grad_u_sq)
        marginal = np.where(np.abs(m) <= eps, "past_marginally_trapped", "untrapped")
        return np.where(m > eps, "past_trapped", marginal)

    def report(self, eps: float = MARGINAL_EPS) -> ExtrinsicReport:
        """The rows of the points, one value per point in each field; a
        point with a `ROW_FIELDS` value that is not finite is a
        `ChartDomainError`."""
        h_sq = self.h_sq
        values = (self.u, self.grad_u_sq, self.laplacian_u, self.theta_xi, self.theta_eta,
                  h_sq, self.n * (self.n - 1) * h_sq, self.geo.scal)  # ROW_FIELDS
        row = taylor.batch_first(values)
        finite = np.isfinite(row)

        def not_finite(at):
            k = int(np.argmin(at(finite)))  # the first non-finite field
            return taylor.ChartDomainError(
                f"{ROW_FIELDS[k]} = {float(at(row)[k])} is not finite "
                f"at {format_point(at(self.geo.x))}"
            )

        taylor.require(finite.all(axis=-1), not_finite)
        return ExtrinsicReport(
            self.geo.x.copy(), *values, trapped_class=self.trapped_class(eps)
        )


# -- public operations ------------------------------------------------------


@taylor.float_edges
def point_report(im: Immersion, x, eps: float = MARGINAL_EPS) -> ExtrinsicReport:
    """Full extrinsic row for one chart point (n,), a batch of one, its
    fields Python floats; a refused point raises its typed error."""

    # the report of the batch of one, whose (1,) fields are the point's
    (rep,) = taylor.per_sample(
        lambda xs: [ExtrinsicPoint(chart_geometry(im, xs)).report(eps)], [x]
    )
    fields = (getattr(rep, key).item() for key in ROW_FIELDS)
    return ExtrinsicReport(rep.point[0], *fields, trapped_class=str(rep.trapped_class[0]))
