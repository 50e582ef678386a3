import math

import numpy as np
import pytest
from scipy.integrate import quad

from nullgeom import taylor as tm
from nullgeom import spacetime as st
from nullgeom import nullcone as nc

from _jets import jet_eval
from _surfaces import desitter_embed, desitter_graph_height, inner_at


def mk_warping(kind, params=(), expr=None):
    return st.WarpingFunction(kind=kind, params=params, expr=expr)


MINK = st.AmbientModel(kind="minkowski", n=2)
GRW_EXP = st.AmbientModel(kind="grw_euclidean", n=2, warping=mk_warping("exp"), t0=0.0)
PROD_SPH = st.AmbientModel(kind="product", n=2, warping=mk_warping("constant", (1.0,)),
                           t0=0.0, fiber="sphere")
PROD_HYP = st.AmbientModel(kind="product", n=2, warping=mk_warping("cosh"),
                           t0=0.0, fiber="hyperbolic")
DS = st.AmbientModel(kind="desitter", n=2)

MINK_CONE = nc.NullconeSpec(model=MINK, variant="minkowski_cone")
GRW_CONE = nc.NullconeSpec(model=GRW_EXP, variant="grw_cone")
SPH_CONE = nc.NullconeSpec(model=PROD_SPH, variant="grw_cone")
HYP_CONE = nc.NullconeSpec(model=PROD_HYP, variant="grw_cone")
CYL = nc.NullconeSpec(model=MINK, variant="cylinder")
DS0 = nc.NullconeSpec(model=DS, variant="desitter_alpha", alpha=0.0)
DS1 = nc.NullconeSpec(model=DS, variant="desitter_alpha", alpha=1.0)
DS_MINUS = nc.NullconeSpec(model=DS, variant="desitter_alpha", alpha=0.5, component="minus")
DS_PLUS = nc.NullconeSpec(model=DS, variant="desitter_alpha", alpha=0.5, component="plus")


def F_at(spec, p):
    """F at the ambient point p, a batch of one."""
    (out,) = tm.per_sample(lambda ps: [nc.eval_F(spec, list(ps.T))], [p])
    return float(out[0])


def at_point(field, p):
    """The components of a vector field of the position's Series, `field`,
    which gives its value-gradient array, at the ambient point p, a batch
    of one, from the constant Series of p; a refused point raises its typed
    error."""
    ctx = tm.get_context(1, 0)
    (out,) = tm.per_sample(lambda ps: [field(tm.Series(ctx, ps.T[None], (len(p),)))[0]], [p])
    return np.ravel(out)


def grad_at(spec, p):
    """Half the gradient of F at the ambient point p."""
    return at_point(lambda x: nc.null_gradient(spec, x), p)


def on_cone(spec, p):
    """require_on_cone of the ambient point p, a batch of one: a refused
    point raises its `PointRejected`."""
    tm.per_sample(lambda ps: [nc.require_on_cone(spec, ps)], [p])


def unit(rng, k):
    d = rng.standard_normal(k)
    return d / np.linalg.norm(d)


def on_cone_point(spec, rng):
    """A random point satisfying F = 0 and the branch conditions."""
    if spec.variant == "minkowski_cone":
        t = rng.uniform(0.3, 2.0)
        return np.concatenate(([t], t * unit(rng, 3)))
    if spec.variant == "cylinder":
        s = rng.uniform(0.3, 2.0)
        th = rng.uniform(-math.pi, math.pi)
        y = rng.uniform(-2.0, 2.0)
        return np.array([s, s * math.cos(th), s * math.sin(th), y])
    if spec.variant == "desitter_alpha":
        a = spec.alpha
        if a == 0.0:
            s = rng.uniform(0.2, 2.0)
        elif a == 1.0:
            s = rng.uniform(0.2, 2.0)
        elif spec.component == "minus":
            s = rng.uniform(0.1, 0.9) * spec.split_radius
        else:
            s = spec.split_radius + rng.uniform(0.2, 2.0)
        q = unit(rng, 3)
        R = a * s - math.sqrt(1.0 - a * a)
        return np.concatenate(([s], R * q, [a + math.sqrt(1.0 - a * a) * s]))
    m = spec.model
    t = rng.uniform(0.3, 1.4)
    r = float(m.warping.conformal_time(np.array([t]), m.t0)[0])
    if m.fiber_kind == "euclidean":
        x = r * unit(rng, 3)
    elif m.fiber_kind == "sphere":
        d = unit(rng, 3)
        x = np.concatenate(([math.cos(r)], math.sin(r) * d))
    else:
        d = unit(rng, 3)
        x = np.concatenate(([math.cosh(r)], math.sinh(r) * d))
    return np.concatenate(([t], x))


ALL_SPECS = [MINK_CONE, GRW_CONE, SPH_CONE, HYP_CONE, CYL, DS0, DS1, DS_MINUS, DS_PLUS]


# ---------------------------------------------------------------- spec validation


def test_spec_validation():
    with pytest.raises(ValueError):
        nc.NullconeSpec(model=MINK, variant="grw_cone")
    with pytest.raises(ValueError):
        nc.NullconeSpec(model=GRW_EXP, variant="minkowski_cone")
    with pytest.raises(ValueError):
        nc.NullconeSpec(model=DS, variant="cylinder")
    with pytest.raises(ValueError):
        nc.NullconeSpec(model=MINK, variant="minkowski_cone", branch="past")
    with pytest.raises(ValueError):
        nc.NullconeSpec(model=DS, variant="desitter_alpha")  # missing alpha
    with pytest.raises(ValueError):
        nc.NullconeSpec(model=DS, variant="desitter_alpha", alpha=1.5)
    with pytest.raises(ValueError):
        nc.NullconeSpec(model=DS, variant="desitter_alpha", alpha=0.5)  # no component
    with pytest.raises(ValueError):
        nc.NullconeSpec(model=DS, variant="desitter_alpha", alpha=0.0, component="minus")
    with pytest.raises(ValueError):
        nc.NullconeSpec(model=MINK, variant="cylinder", alpha=0.3)
    with pytest.raises(ValueError):
        shifted = st.AmbientModel(kind="minkowski", n=2, t0=1.0)
        nc.NullconeSpec(model=shifted, variant="minkowski_cone")
    assert DS_MINUS.split_radius == pytest.approx(math.sqrt(3.0), rel=1e-15)
    # the radial scale R vanishes at the split, below it on minus, above on plus
    assert DS_MINUS.scale(DS_MINUS.split_radius) == 0.0
    rng = np.random.default_rng(7)
    for _ in range(20):
        assert DS_MINUS.scale(on_cone_point(DS_MINUS, rng)[0]) < 0.0
        assert DS_PLUS.scale(on_cone_point(DS_PLUS, rng)[0]) > 0.0


# ---------------------------------------------------------------- F


def test_eval_F_examples():
    assert F_at(MINK_CONE, np.array([1.0, 1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=0.0)

    t = math.log(2.0)
    oracle, _ = quad(lambda s: math.exp(-s), 0.0, t, epsabs=1e-13)
    assert oracle == pytest.approx(0.5, abs=1e-12)
    p = np.array([t, 0.5, 0.0, 0.0])
    assert F_at(GRW_CONE, p) == pytest.approx(0.0, abs=1e-12)

    c = 0.7
    x = np.array([c, 1.0, 0.0, 0.0, c])
    assert F_at(DS0, x) == pytest.approx(0.0, abs=0.0)


def test_eval_F_zero_on_generated_points():
    rng = np.random.default_rng(21)
    for spec in ALL_SPECS:
        for _ in range(100):
            p = on_cone_point(spec, rng)
            assert abs(F_at(spec, p)) < 1e-10


def test_grad_F_examples():
    p = np.array([1.3, 0.4, -0.2, 1.1])
    g = grad_at(MINK_CONE, p)
    assert np.allclose(g, p, atol=0.0)

    static = st.AmbientModel(kind="grw_euclidean", n=2,
                             warping=mk_warping("constant", (1.0,)), t0=0.0)
    cone = nc.NullconeSpec(model=static, variant="grw_cone")
    p = np.array([0.9, 0.3, 0.0, -0.6])
    g = grad_at(cone, p)
    assert np.allclose(g, p, atol=1e-14)  # t dt + r Dr collapses to (t, x)

    p = on_cone_point(CYL, np.random.default_rng(0))
    g = grad_at(CYL, p)
    assert np.allclose(g, np.concatenate((p[:3], [0.0])), atol=0.0)


def test_grad_F_null_on_cone():
    rng = np.random.default_rng(22)
    for spec in ALL_SPECS:
        for _ in range(100):
            p = on_cone_point(spec, rng)
            g = grad_at(spec, p)
            norm = inner_at(spec.model, p, g, g)
            assert -1e-9 < norm < 1e-9


def test_grad_F_future_pointing_on_grw_variants():
    rng = np.random.default_rng(23)
    for spec in (MINK_CONE, GRW_CONE, SPH_CONE, HYP_CONE):
        for _ in range(25):
            p = on_cone_point(spec, rng)
            g = grad_at(spec, p)
            axis = at_point(lambda x: st.time_axis(spec.model, x), p)
            assert inner_at(spec.model, p, g, axis) < 0.0


def _patch(spec):
    """A 2-parameter patch inside the cone, as a jettable map."""
    m = spec.model

    if spec.variant == "minkowski_cone":
        def psi(xs):
            s, th = xs
            return [s, s * tm.cos(th), s * tm.sin(th), 0.0 * s]
        return psi, [0.8, 0.4]
    if spec.variant == "cylinder":
        def psi(xs):
            s, y = xs
            return [s, s * math.cos(0.6), s * math.sin(0.6), y]
        return psi, [1.1, -0.3]
    if spec.variant == "desitter_alpha":
        a = spec.alpha
        base = 1.2 if a != 0.5 else (spec.split_radius * (0.5 if spec.component == "minus" else 1.5))

        def psi(xs):
            s, th = xs
            R = a * s - math.sqrt(1.0 - a * a)
            return [s, R * tm.cos(th), R * tm.sin(th), 0.0 * s,
                    a + math.sqrt(1.0 - a * a) * s]
        return psi, [base, 0.7]

    def psi(xs):
        t, th = xs
        r = m.warping.conformal_time(t, m.t0)
        if m.fiber_kind == "euclidean":
            return [t, r * tm.cos(th), r * tm.sin(th), 0.0 * t]
        if m.fiber_kind == "sphere":
            return [t, tm.cos(r), tm.sin(r) * tm.cos(th), tm.sin(r) * tm.sin(th), 0.0 * t]
        return [t, tm.cosh(r), tm.sinh(r) * tm.cos(th), tm.sinh(r) * tm.sin(th), 0.0 * t]
    return psi, [0.9, 0.5]


def test_grad_F_orthogonal_to_cone_tangents():
    for spec in ALL_SPECS:
        psi, y0 = _patch(spec)
        jet = jet_eval(psi, y0, 1)
        p = jet.value
        on_cone(spec, p)
        g = grad_at(spec, p)
        for j in range(2):
            tangent = jet.jacobian[:, j]
            val = inner_at(spec.model, p, g, tangent)
            assert abs(val) < 1e-9


def test_frame_fields_of_any_order_are_those_of_the_order_one_truncation():
    # the null gradient and the time axis read the position's order-1
    # value-gradient array whatever its order: of the order-3 position they
    # are, bit for bit, those of its order-1 truncation, on all four cone
    # variants and both curved fibers (f, on a GRW cone, the same Series)
    rng = np.random.default_rng(12)
    for spec in ALL_SPECS:
        psi, y0 = _patch(spec)
        k = spec.model.coord_count
        ys = y0 + rng.uniform(-0.05, 0.05, size=(4, 2))
        x = tm.eval_series(tm.SmoothMap(psi, 2, k), ys, 3)
        cut = x.truncate(1)
        f = spec.model.warping(cut[0]) if spec.variant == "grw_cone" else None
        for field in (lambda s: nc.null_gradient(spec, s, f), lambda s: st.time_axis(spec.model, s)):
            got, want = field(x), field(cut)
            assert got.shape == want.shape == (3, k, len(ys))
            assert got.tobytes() == want.tobytes(), spec


def test_grad_F_series_matches_float_path():
    # at the frame's order, the one a GRW cone's linear conformal time reaches
    for spec in ALL_SPECS:
        psi, y0 = _patch(spec)
        ctx = tm.get_context(2, 1)
        xs = [tm.Series.variable(ctx, i, np.array([y0[i]])) for i in range(2)]
        got = nc.null_gradient(spec, tm.Series.stack(psi(xs), ctx, 1))[0, :, 0]
        jet = jet_eval(psi, y0, 1)
        g = grad_at(spec, jet.value)
        assert np.allclose(got, g, atol=1e-12)


# ---------------------------------------------------------------- rejection


def test_vertex_exclusion():
    p = np.array([1e-12, 1e-12, 0.0, 0.0])
    with pytest.raises(nc.PointRejected) as err:
        grad_at(GRW_CONE, p)
    assert err.value.reason is nc.RejectionReason.VERTEX_EXCLUSION
    with pytest.raises(nc.PointRejected):
        on_cone(GRW_CONE, p)

    with pytest.raises(nc.PointRejected) as err:
        on_cone(MINK_CONE, np.array([1e-10, 1e-10, 0.0, 0.0]))
    assert err.value.reason is nc.RejectionReason.VERTEX_EXCLUSION


def test_radial_singularities():
    # on a Euclidean fiber r Dr is the fiber point x, so the gradient is
    # smooth at the base point: f^-2 (phi f, 0) = (phi / f, 0)
    phi, f = 1.0 - math.exp(-0.5), math.exp(0.5)
    g = grad_at(GRW_CONE, np.array([0.5, 0.0, 0.0, 0.0]))
    assert np.allclose(g, [phi / f, 0.0, 0.0, 0.0], rtol=1e-15, atol=0.0)

    # a curved fiber's radial field is undefined at its base point and antipode
    with pytest.raises(nc.PointRejected) as err:
        grad_at(SPH_CONE, np.array([0.5, -1.0, 0.0, 0.0, 0.0]))
    assert err.value.reason is nc.RejectionReason.CHART_SINGULARITY

    with pytest.raises(nc.PointRejected) as err:
        grad_at(SPH_CONE, np.array([0.5, 1.0, 0.0, 0.0, 0.0]))
    assert err.value.reason is nc.RejectionReason.DENOMINATOR_ZERO


def test_membership_rejects_off_cone_and_wrong_branch():
    rng = np.random.default_rng(31)
    p = on_cone_point(MINK_CONE, rng)
    q = p.copy()
    q[0] += 1e-3
    on_cone(MINK_CONE, p)
    with pytest.raises(nc.PointRejected) as err:
        on_cone(MINK_CONE, q)
    assert err.value.reason is nc.RejectionReason.OFF_CONE

    past = -p
    with pytest.raises(nc.PointRejected):
        on_cone(MINK_CONE, past)

    p = on_cone_point(DS_MINUS, rng)
    on_cone(DS_MINUS, p)
    with pytest.raises(nc.PointRejected):
        on_cone(DS_PLUS, p)

    off_quadric = p * 1.001
    with pytest.raises(nc.PointRejected):
        on_cone(DS_MINUS, off_quadric)

    p = on_cone_point(HYP_CONE, rng)
    q = p.copy()
    q[1] *= 1.01
    with pytest.raises(nc.PointRejected):
        on_cone(HYP_CONE, q)


def off_cone_detail(spec, p):
    """The detail of the off-cone refusal of the ambient point p."""
    with pytest.raises(nc.PointRejected) as err:
        on_cone(spec, p)
    assert err.value.reason is nc.RejectionReason.OFF_CONE
    return err.value.detail


def test_membership_checks_after_F_have_their_messages():
    # each point is on F = 0 and passes every check before the one it fails
    # on the plane x_last = x1 of DS0, off the unit hyperquadric
    p = np.array([1.0, 0.5, 0.0, 0.0, 1.0])
    assert F_at(DS0, p) == 0.0
    assert off_cone_detail(DS0, p) == "off the unit hyperquadric by 7.500e-01"
    # on the plane and the hyperquadric of DS_MINUS, at x1 = 2 past its
    # split radius sqrt(3)
    t = 2.0
    last = DS_MINUS.alpha + DS_MINUS.beta * t
    p = np.array([t, math.sqrt(1.0 + t * t - last * last), 0.0, 0.0, last])
    assert t > DS_MINUS.split_radius and abs(F_at(DS_MINUS, p)) <= nc.MEMBERSHIP_TOL
    assert off_cone_detail(DS_MINUS, p) == "beyond the component split radius"
    # on SPH_CONE's F, which reads the fiber distance from the first fiber
    # coordinate alone, with the fiber point off the unit sphere
    p = np.array([0.5, math.cos(0.5), 2.0 * math.sin(0.5), 0.0, 0.0])
    assert abs(F_at(SPH_CONE, p)) <= nc.MEMBERSHIP_TOL
    resid = abs(np.sum(p[1:] ** 2) - 1.0)
    assert off_cone_detail(SPH_CONE, p) == f"off the fiber quadric by {resid:.3e}"


@pytest.mark.parametrize("fiber", ["sphere", "hyperbolic"])
def test_fiber_base_point_near_the_vertex_is_a_vertex_exclusion(fiber):
    # the fiber distance is 0 at the base point, outside the open domain of
    # arccos and arccosh: F reads it without either primitive, so a point
    # this near the cone's vertex is a vertex exclusion, not a chart
    # singularity of the primitive
    model = st.AmbientModel(kind="product", n=2, warping=mk_warping("constant", (1.0,)),
                            t0=0.0, fiber=fiber)
    spec = nc.NullconeSpec(model=model, variant="grw_cone")
    with pytest.raises(nc.PointRejected) as err:
        on_cone(spec, np.array([1e-9, 1.0, 0.0, 0.0, 0.0]))
    assert err.value.reason is nc.RejectionReason.VERTEX_EXCLUSION
    assert err.value.detail == f"conformal time below {nc.VERTEX_EPS:.0e}"


# ---------------------------------------------------------------- de Sitter graphs


def test_desitter_graph_height_examples():
    theta0 = 1.1
    q = np.array([0.0, math.sin(theta0), 0.0, math.cos(theta0)])
    assert desitter_graph_height(theta0, q) == pytest.approx(0.0, abs=1e-15)

    q = np.array([0.0, math.sin(math.pi / 4), 0.0, math.cos(math.pi / 4)])
    t = desitter_graph_height(math.pi / 2, q)
    assert t == pytest.approx(math.asinh(1.0), rel=1e-14)

    with pytest.raises(ValueError):
        desitter_graph_height(0.3, np.array([0.0, 0.0, 0.0, -1.0]))
    with pytest.raises(ValueError):
        desitter_graph_height(0.3, np.array([0.0, 0.0, 0.0, 1.1]))


def test_desitter_graph_lands_on_plane_cut():
    rng = np.random.default_rng(41)
    for _ in range(50):
        theta0 = rng.uniform(0.3, math.pi / 2)
        alpha = math.cos(theta0)
        # pick q with signed distance safely inside a quarter turn
        band = rng.uniform(theta0 - 1.2, theta0 + 1.2)
        band = float(np.clip(band, 0.05, math.pi - 0.05))
        if abs(theta0 - band) >= math.pi / 2 - 0.05:
            continue
        d = unit(rng, 3)
        q = np.concatenate((math.sin(band) * d, [math.cos(band)]))
        t = desitter_graph_height(theta0, q)
        x = desitter_embed(t, q)
        assert x[-1] == pytest.approx(alpha + math.sqrt(1.0 - alpha ** 2) * x[0], abs=1e-10)
        assert -x[0] ** 2 + np.dot(x[1:], x[1:]) == pytest.approx(1.0, abs=1e-10)


def test_desitter_parametrization_lies_in_quadric():
    rng = np.random.default_rng(43)
    for spec in (DS0, DS1, DS_MINUS, DS_PLUS):
        for _ in range(25):
            p = on_cone_point(spec, rng)
            assert -p[0] ** 2 + np.dot(p[1:], p[1:]) == pytest.approx(1.0, abs=1e-10)
            on_cone(spec, p)


def test_membership_integrates_the_conformal_time_once(monkeypatch):
    # F and the vertex check of a GRW cone read one conformal time: a
    # polynomial profile's batch is one quadrature, and the checks keep
    # their order: a point on F = 0 before the vertex time is past the
    # branch before its conformal time is below the vertex bound
    model = st.AmbientModel(kind="grw_euclidean", n=2,
                            warping=mk_warping("polynomial", (1.0, 0.0, 1.0)), t0=0.0)
    spec = nc.NullconeSpec(model=model, variant="grw_cone")
    rng = np.random.default_rng(41)
    points = np.array([on_cone_point(spec, rng) for _ in range(5)])
    real, calls = st.quadrature, []

    def counted(fn, lo, hi):
        calls.append(len(lo))
        return real(fn, lo, hi)

    monkeypatch.setattr(st, "quadrature", counted)
    nc.require_on_cone(spec, points)
    assert calls == [5]
    points[2] = [-0.2, math.atan(0.2), 0.0, 0.0]
    with pytest.raises(tm.BatchRejected) as err:
        nc.require_on_cone(spec, points)
    assert list(err.value.errors) == [2]
    assert "past branch" in str(err.value.errors[2])
