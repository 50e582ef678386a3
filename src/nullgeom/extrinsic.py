"""Null frames, shape operators, expansions and trapped-ness classification.

One chart point, or a batch of them, runs through plain stage functions,
in this order, each taking the `ChartGeometry` and the arrays or Series
lists of the stages before it:

1. `height`: the cone height u = psi^0, its gradient and its Hessian;
2. `null_frame`: xi, the time axis and its normal part, nu and eta, as
   vector Series of the ambient components, so that one more coordinate
   derivative stays exact (`null_partner` is its last step, eta from xi,
   nu and <xi, nu>);
3. `weingarten_map` of the xi and eta fields;
4. `second_fundamental_form` and `expansions`: theta_xi, theta_eta, the
   mean curvature vector H and <H, H>.

`ExtrinsicPoint` runs them once and keeps the results; `point_report` is
the one-point facade.  On a batch every Series carries one column per
point and every array a leading batch axis; vectors keep their ambient
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

from dataclasses import dataclass

import numpy as np

from . import nullcone, spacetime, taylor
from .immersion import ChartGeometry, Immersion, chart_geometry
from .taylor import Series, format_point

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
    """Per-point extrinsic summary, the row format of the suite reports;
    each field holds one value per point on a batch."""

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


# -- pipeline stages ---------------------------------------------------------


def _values(series: Series) -> np.ndarray:
    """Values of a vector Series, components last."""
    return taylor.batch_first(series.val)


def _col(a):
    """Per-point scalars shaped to scale component arrays."""
    return a[..., None] if isinstance(a, np.ndarray) else a


def _mat(a):
    """Per-point scalars shaped to scale (n, n) matrices."""
    return a[..., None, None] if isinstance(a, np.ndarray) else a


def height(geo: ChartGeometry):
    """The cone height u with du, grad u, |grad u|^2 and Hess u (chart components).

    u is the first ambient coordinate in every model: t for cones and
    cylinders, x_1 on the de Sitter cone.
    """
    u = geo.psi[0]
    grad_u, grad_u_sq = geo.gradient(u)
    return u.val, geo.partials(u), grad_u, grad_u_sq, geo.covariant_hessian(u)


def null_frame(geo: ChartGeometry):
    """Vector Series of xi, the time axis, its normal part, nu and eta.

    xi is the cone's null gradient, future-normalized; the normal part of
    the time axis is left unnormalized, and nu is its unit multiple.
    Raises `FrameDegeneracyError` where that part is not timelike.
    """
    model, cone = geo.immersion.model, geo.immersion.target_cone
    psi, dpsi, ctx, batch = geo.psi, geo.dpsi, geo.ctx, geo.batch
    xi = Series.stack(nullcone.grad_F_components(cone, psi, geo.f), ctx, batch)
    if cone.variant == "desitter_alpha":
        # future-normalize on the R > 0 component of a de Sitter section;
        # scaling by -1 or 1 is negation or a copy, bit for bit
        xi = xi * taylor.as_value(np.where(cone.scale(geo.psi0[..., 0]) > 0.0, -1.0, 1.0))
    axis = Series.stack(spacetime.time_axis(model, psi), ctx, batch)
    if model.kind == "desitter":
        b = spacetime.ambient_inner(model, geo.f2, axis, dpsi)
    else:
        # the axis is (1, 0, ..., 0), so <axis, d_j psi> = -d_j psi^0; 0 - c
        # gives what the ambient product gives, signs of zeros included
        b = Series(ctx, 0.0 - dpsi[:, 0].c, (geo.dim,))
    coeff = (geo.g_inv_series * b).sum(axis=-1, start=0.0)
    steps = coeff[:, None] * dpsi
    normal = axis
    for i in range(geo.dim):
        normal = normal - steps[i]
    nn = spacetime.ambient_inner(model, geo.f2, normal, normal)
    taylor.reject(
        nn.val >= -1e-12,
        lambda at: FrameDegeneracyError(
            f"time axis projects to a non-timelike normal at {format_point(at(geo.x))}"
        ),
    )
    nu = (1.0 / taylor.sqrt(-nn)) * normal
    eta = null_partner(geo, xi, nu, spacetime.ambient_inner(model, geo.f2, xi, nu))
    return xi, axis, normal, nu, eta


def null_partner(geo: ChartGeometry, xi: Series, nu: Series, xi_dot_nu: Series) -> Series:
    """eta = -xi / (2c^2) - nu / c with c = <xi, nu>, so <xi, eta> = -1.

    Raises `FrameDegeneracyError` unless c < 0, i.e. unless xi and nu
    share a time orientation.
    """
    c = xi_dot_nu
    taylor.reject(
        c.val >= 0.0,
        lambda at: FrameDegeneracyError(
            f"<xi, nu> = {at(c.val):.3e} >= 0 at {format_point(at(geo.x))}"
        ),
    )
    return (-1.0 / (2.0 * c * c)) * xi + (-1.0 / c) * nu


def _directional(geo: ChartGeometry, field: Series, df) -> list:
    """Components of nabla^amb_{d_j psi} N for each j, modulo quadric normals."""
    model = geo.immersion.model
    n0 = _values(field)
    # [a, j] = d_j N^a
    d = taylor.batch_first(np.moveaxis(field.c[geo.ctx.first], 0, 1), 2)
    return [
        d[..., j] + spacetime.warped_connection_term(model, df, geo.tangents[..., j, :], n0)
        for j in range(geo.dim)
    ]


def weingarten_map(geo: ChartGeometry, field: Series, f2, df) -> np.ndarray:
    """Numeric Weingarten map (A^i_j, chart basis) of a normal field's Series.

    f2 and df are the fiber scale and (f, f') at the float point (see
    `spacetime.ambient_inner` and `spacetime.warped_connection_term`).
    """
    # [..., j, :] = nabla^amb_{d_j psi} N, paired with [..., i, :] = d_i psi
    dn = np.stack(_directional(geo, field, df), axis=-2)
    m = spacetime.ambient_inner(
        geo.immersion.model, _mat(f2), dn[..., None, :, :], geo.tangents[..., :, None, :]
    )
    return geo.g_inv0 @ m


def second_fundamental_form(geo: ChartGeometry, xi, eta, f2, df) -> np.ndarray:
    """II(d_i psi, d_j psi) as ambient vectors in the {xi, eta} span, [i, j, :].

    II(X, Y) = -(ambient derivative)^normal.  Both the second partials of
    psi and the warped connection term are symmetric in (i, j), so each
    unordered pair is computed once.
    """
    model, n = geo.immersion.model, geo.dim
    tangents = geo.tangents
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    w = np.stack(
        [
            geo.psi_second_partials[..., i, j, :]
            + spacetime.warped_connection_term(model, df, tangents[..., i, :], tangents[..., j, :])
            for i, j in pairs
        ],
        axis=-2,
    )
    a = -spacetime.ambient_inner(model, _col(f2), w, eta[..., None, :])
    b = -spacetime.ambient_inner(model, _col(f2), w, xi[..., None, :])
    # [..., pair, :] = -(a xi + b eta)
    ab = -(a[..., None] * xi[..., None, :] + b[..., None] * eta[..., None, :])
    ii = np.zeros(xi.shape[:-1] + (n, n, xi.shape[-1]))
    for p, (i, j) in enumerate(pairs):
        ii[..., i, j, :] = ii[..., j, i, :] = ab[..., p, :]
    return ii


def expansions(geo: ChartGeometry, a_xi, a_eta, ii, f2):
    """theta_xi and theta_eta (the traces of the xi and eta Weingarten maps
    over n), the mean curvature vector H = tr II / n and <H, H>."""
    n = geo.dim
    h = np.zeros(ii.shape[:-3] + ii.shape[-1:])
    for i in range(n):
        for j in range(n):
            h += _col(geo.g_inv0[..., i, j]) * ii[..., i, j, :]
    h = h / n
    h_sq = taylor.as_value(spacetime.ambient_inner(geo.immersion.model, f2, h, h))
    theta_xi = taylor.as_value(np.trace(a_xi, axis1=-2, axis2=-1)) / n
    theta_eta = taylor.as_value(np.trace(a_eta, axis1=-2, axis2=-1)) / n
    return theta_xi, theta_eta, h, h_sq


def _classify(m: float, eps: float) -> str:
    """The trapped class of the mean-curvature sign quantity m."""
    if m > eps:
        return "past_trapped"
    if abs(m) <= eps:
        return "past_marginally_trapped"
    return "untrapped"


class ExtrinsicPoint:
    """All extrinsic data of an immersion at one chart point (n,), or at
    each point of a batch (B, n).

    The constructor runs the stages once, in pipeline order: chart
    geometry, `height`, `null_frame`, the xi and eta `weingarten_map`s,
    `second_fundamental_form` and `expansions`, and keeps every result as
    a plain attribute: floats and arrays at one point, with a leading batch
    axis on a batch.  The time-orthogonal Weingarten map, which only the
    shape checks read, is built on first request and kept.
    """

    def __init__(self, im: Immersion, x):
        if im.target_cone is None:
            raise ValueError("extrinsic geometry needs an immersion with a target cone")
        self.im = im
        self.model = model = im.model
        self.cone = im.target_cone
        self.geo = geo = chart_geometry(im, x)
        self.n = im.dim
        self.u, self.du, self.grad_u, self.grad_u_sq, hess = height(geo)
        self.laplacian_u = taylor.as_value(np.einsum("...ij,...ij->...", geo.g_inv0, hess))
        self.hess_u_mixed = geo.g_inv0 @ hess  # g^{ik} Hess_kj
        (
            self.xi_series,
            self.time_axis_series,
            self.time_orthogonal_series,
            self.nu_series,
            self.eta_series,
        ) = null_frame(geo)
        self.xi = _values(self.xi_series)
        self.eta = _values(self.eta_series)
        self.nu = _values(self.nu_series)
        # the float point's warping factors, apart from the Series ones of
        # geo.f2: f^2 scales the metric, (f, f') enter the connection
        t = geo.psi0[..., 0]
        self.f2 = spacetime.fiber_scale(model, t)
        self.df = model.warping.derivatives(t, 1) if model.warped else None
        self.warping_ratio = 0.0 if self.df is None else self.df[1] / self.df[0]
        self.shape_maps = {
            "xi": weingarten_map(geo, self.xi_series, self.f2, self.df),
            "eta": weingarten_map(geo, self.eta_series, self.f2, self.df),
        }
        self.ii = second_fundamental_form(geo, self.xi, self.eta, self.f2, self.df)
        self.theta_xi, self.theta_eta, self.mean_curvature_vector, self.h_sq = expansions(
            geo, self.shape_maps["xi"], self.shape_maps["eta"], self.ii, self.f2
        )

    def frame_residual(self) -> float:
        """Max deviation of the frame identities at this point.

        Checks <xi,xi> = <eta,eta> = 0, <xi,eta> = -1, <nu,nu> = -1,
        orthogonality of all three fields to the tangents, and the shared
        time orientation; a wrong orientation counts as residual 1.
        """

        def inner(a, b):
            return spacetime.ambient_inner(self.model, self.f2, a, b)

        xi, eta, nu = self.xi, self.eta, self.nu
        worst = abs(inner(xi, xi))
        worst = taylor.column_max(worst, abs(inner(eta, eta)))
        worst = taylor.column_max(worst, abs(inner(xi, eta) + 1.0))
        worst = taylor.column_max(worst, abs(inner(nu, nu) + 1.0))
        for field in (xi, eta, nu):
            for i in range(self.n):
                tangent = self.geo.tangents[..., i, :]
                worst = taylor.column_max(worst, abs(inner(field, tangent)))
        t = _values(self.time_axis_series)
        flipped = (inner(xi, nu) >= 0.0) | (inner(eta, nu) >= 0.0) | (inner(nu, t) >= 0.0)
        return taylor.as_value(np.where(flipped, taylor.column_max(worst, 1.0), worst))

    # -- Weingarten maps --------------------------------------------------

    def shape_chart(self, name: str) -> np.ndarray:
        """Numeric Weingarten map of the normal field xi, eta or
        time_orthogonal (a CLOSED_FORMS value), chart basis (A^i_j)."""
        if name == "time_orthogonal" and name not in self.shape_maps:
            self.shape_maps[name] = weingarten_map(
                self.geo, self.time_orthogonal_series, self.f2, self.df
            )
        return self.shape_maps[name]

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
        outer = self.grad_u[..., :, None] * self.du[..., None, :]
        if which == "time_orthogonal":
            return self.hess_u_mixed + _mat(self.warping_ratio) * (eye + outer)
        if which in ("minkowski_xi", "minkowski_eta"):
            if which == "minkowski_xi":
                return np.broadcast_to(eye, self.hess_u_mixed.shape)
            u = self.u
            return (
                _mat(-((1.0 + self.grad_u_sq) / (2.0 * u * u))) * eye
                + self.hess_u_mixed / _mat(u)
            )
        if which in ("warped_xi", "warped_eta"):
            if model.kind == "minkowski":
                f0, f1, phi = 1.0, 0.0, self.u
            else:
                f0, f1 = self.df
                phi = model.warping.conformal_time(self.u, model.t0)
            if which == "warped_xi":
                return _mat((f1 * phi + 1.0) / (f0 * f0)) * eye
            gsq = self.grad_u_sq
            c0 = -((1.0 + gsq) / (2.0 * phi * phi) + f1 * (gsq - 1.0) / (2.0 * phi))
            return _mat(c0) * eye + _mat(f1 / phi) * outer + _mat(f0 / phi) * self.hess_u_mixed
        a_xi = self._product_xi_chart()
        if which == "product_xi":
            return a_xi
        p = self.u - (model.t0 or 0.0)
        return (
            _mat(-((1.0 + self.grad_u_sq) / (2.0 * p * p))) * a_xi
            + self.hess_u_mixed / _mat(p)
        )

    def _product_xi_chart(self) -> np.ndarray:
        """A_xi X = -<X, grad u> grad u + (nabla^M_{Xhat}(r Dr))^tangent."""
        model, tangents = self.model, self.geo.tangents
        r, dr = spacetime.fiber_radial(model, self.geo.psi0.T[1:])
        dr = np.stack(dr, axis=-1)
        rc = _col(spacetime.radial_tangential_factor(model, r))
        signs = model.signature[1:]
        cols = []
        for j in range(self.n):
            xhat = tangents[..., j, 1:]  # fiber part of Xhat = X - <X, grad u> dt
            radial = _col(np.sum(signs * xhat * dr, axis=-1))
            v = radial * dr + rc * (xhat - radial * dr)
            v_amb = np.concatenate((np.zeros(v.shape[:-1] + (1,)), v), axis=-1)
            m = np.stack(
                [
                    spacetime.ambient_inner(model, self.f2, v_amb, tangents[..., i, :])
                    for i in range(self.n)
                ],
                axis=-1,
            )
            cols.append(-_col(self.du[..., j]) * self.grad_u + np.matvec(self.geo.g_inv0, m))
        return np.stack(cols, axis=-1)

    def shape_closed(self, which: str) -> np.ndarray:
        return self.to_frame(self.shape_closed_chart(which))

    # -- classification -----------------------------------------------------

    def trapped_class(self, eps: float = MARGINAL_EPS):
        """The class at the point, or an array of classes over a batch."""
        if self.cone.rules.trapped:
            m = 2.0 * self.u * self.laplacian_u - self.n * (1.0 + self.grad_u_sq)
            return taylor.column_map(lambda v: _classify(v, eps), m)
        return taylor.column_map(lambda v: "unclassified", self.u)

    def report(self, eps: float = MARGINAL_EPS) -> ExtrinsicReport:
        """The row of the point, or of each point of a batch; a point with a
        `ROW_FIELDS` value that is not finite is a `ChartDomainError`."""
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


def point_report(im: Immersion, x, eps: float = MARGINAL_EPS) -> ExtrinsicReport:
    """Full extrinsic row for one chart point."""
    return ExtrinsicPoint(im, x).report(eps)
