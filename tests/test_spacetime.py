import math

import numpy as np
import pytest
from scipy.integrate import quad

from nullgeom import taylor as tm
from nullgeom import spacetime as st

from _jets import FdScheme, fd_derivative, jet_eval
from _surfaces import desitter_embed, entry_fiber_radial, inner_at, profile_at


def mk_warping(kind, params=(), domain=(-math.inf, math.inf), expr=None):
    return st.WarpingFunction(kind=kind, params=params, domain=domain, expr=expr)


def minkowski(n=2):
    return st.AmbientModel(kind="minkowski", n=n)


def grw_exp(n=2):
    return st.AmbientModel(kind="grw_euclidean", n=n, warping=mk_warping("exp"), t0=0.0)


def product_model(fiber, n=2, warping=None, t0=0.0):
    w = warping or mk_warping("constant", (1.0,))
    return st.AmbientModel(kind="product", n=n, warping=w, t0=t0, fiber=fiber)


def desitter(n=2):
    return st.AmbientModel(kind="desitter", n=n)


# ---------------------------------------------------------------- warping


def test_warping_families_values_and_slopes():
    f = mk_warping("exp")
    assert profile_at(f, 0.3) == pytest.approx(math.exp(0.3), rel=1e-15)
    assert f.derivatives(np.array([0.3]), 1)[1] == pytest.approx(math.exp(0.3), rel=1e-12)

    f = mk_warping("cosh")
    v, d1, d2 = f.derivatives(np.array([0.7]), 2)
    assert v == pytest.approx(math.cosh(0.7), rel=1e-15)
    assert d1 == pytest.approx(math.sinh(0.7), rel=1e-12)
    assert d2 == pytest.approx(math.cosh(0.7), rel=1e-12)

    f = mk_warping("polynomial", (1.0, 0.0, 1.0))  # 1 + t^2
    assert profile_at(f, 2.0) == pytest.approx(5.0, abs=1e-14)
    assert f.derivatives(np.array([2.0]), 1)[1] == pytest.approx(4.0, abs=1e-12)

    f = mk_warping("custom", expr="1 + 0.5*sin(t)")
    assert profile_at(f, 0.2) == pytest.approx(1.0 + 0.5 * math.sin(0.2), rel=1e-15)
    assert f.derivatives(np.array([0.2]), 1)[1] == pytest.approx(0.5 * math.cos(0.2), rel=1e-12)


def test_warping_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mk_warping("constant", (0.0,))
    with pytest.raises(ValueError):
        mk_warping("constant", (1.0, 2.0))
    with pytest.raises(ValueError):
        mk_warping("polynomial")
    with pytest.raises(ValueError):
        mk_warping("custom")
    with pytest.raises(ValueError):
        mk_warping("spline")
    with pytest.raises(ValueError):
        mk_warping("exp", domain=(1.0, 1.0))
    f = mk_warping("polynomial", (1.0, -1.0))  # 1 - t
    with pytest.raises(ValueError):
        profile_at(f, 2.0)  # nonpositive value
    f = mk_warping("exp", domain=(-1.0, 1.0))
    with pytest.raises(ValueError):
        profile_at(f, 1.5)  # outside the declared interval
    with pytest.raises(ValueError):
        f.conformal_time(np.array([0.5]), 1.5)  # a vertex time outside it


def test_conformal_time_closed_forms_match_quadrature():
    # quadrature of 1/f is the oracle for every closed form
    cases = [
        (mk_warping("constant", (2.0,)), 0.1, 1.7),
        (mk_warping("exp"), 0.0, math.log(2.0)),
        (mk_warping("exp"), -0.4, 1.2),
        (mk_warping("cosh"), 0.0, 0.9),
        (mk_warping("cosh"), -0.3, 2.1),
        (mk_warping("polynomial", (1.0, 0.0, 1.0)), 0.0, 1.3),
        (mk_warping("custom", expr="exp(0.5*t) + 0.1"), -0.2, 0.8),
    ]
    for f, t0, t in cases:
        oracle, _ = quad(lambda s: 1.0 / profile_at(f, s), t0, t, epsabs=1e-13, epsrel=1e-13)
        assert f.conformal_time(np.array([t]), t0) == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_conformal_time_series_batch_matches_columns_alone():
    # the batch's derivative table of every warping kind is each column's in
    # a batch of one, bit for bit; the time outside the warping domain keeps
    # its error
    ctx = tm.get_context(1, 3)
    # 64 times in the domain (-1, 1.5), and 1.7 outside it
    times = np.insert(np.random.default_rng(5).uniform(-0.9, 1.4, 64), 9, 1.7)
    kinds = [
        ("constant", (2.0,), None),
        ("exp", (), None),
        ("cosh", (), None),
        ("polynomial", (1.0, 0.2, 0.3), None),
        ("custom", (), "1 + 0.5*sin(t)"),
    ]
    for kind, params, expr in kinds:
        f = mk_warping(kind, params, domain=(-1.0, 1.5), expr=expr)

        def batch(ts):
            s = f.conformal_time(tm.Series.variable(ctx, 0, ts), 0.0)
            return [s.c[:, b] for b in range(len(ts))]

        rejected = 0
        for t, got in zip(times, tm.column_results(batch, times)):
            try:
                (want,) = tm.per_sample(batch, [t])
            except st.WarpingDomainError as err:
                assert type(got) is st.WarpingDomainError and str(got) == str(err), kind
                rejected += 1
                continue
            assert got.tobytes() == want.tobytes(), (kind, t)
        assert rejected == 1, kind


def test_warping_of_a_time_array_is_each_floats():
    # f and the conformal time of a (B,) array of times are each float's in
    # a batch of one, bit for bit (a custom profile's powers included); a
    # time outside the warping domain rejects its own column with the error
    # it raises alone
    times = np.insert(np.random.default_rng(6).uniform(-0.9, 1.4, 48), 9, 1.7)
    kinds = [
        ("constant", (2.0,), None),
        ("exp", (), None),
        ("cosh", (), None),
        ("polynomial", (1.0, 0.2, 0.3), None),
        ("custom", (), "(2 + t)**4.5 / (2 + t)**3"),
    ]
    for kind, params, expr in kinds:
        f = mk_warping(kind, params, domain=(-1.0, 1.5), expr=expr)
        for fn in (f, lambda ts: f.conformal_time(ts, 0.0)):

            def columns(ts):
                return np.broadcast_to(fn(ts), ts.shape)

            batch = tm.column_results(columns, times)
            for t, got in zip(times, batch):
                try:
                    (want,) = tm.per_sample(columns, [t])
                except st.WarpingDomainError as err:
                    assert type(got) is st.WarpingDomainError and str(got) == str(err), kind
                    continue
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (kind, t)


def _quadrature_profiles():
    """The profiles of the conformal-time tests, each with the integrand 1/f
    of a batch of nodes."""
    profiles = [
        mk_warping("constant", (2.0,)),
        mk_warping("exp"),
        mk_warping("cosh"),
        mk_warping("polynomial", (1.0, 0.0, 1.0)),
        mk_warping("polynomial", (1.0, 0.2, 0.3)),
        mk_warping("custom", expr="exp(0.5*t) + 0.1"),
        mk_warping("custom", expr="1 + 0.5*sin(t)"),
    ]
    return [(f, lambda j, s, f=f: 1.0 / f(s)) for f in profiles]


def test_quadrature_matches_scipy_quad():
    # forward, reversed and empty intervals against QUADPACK's adaptive rule
    bounds = [(0.0, 1.3), (-0.2, 0.8), (0.9, -0.4), (2.5, 0.0), (0.7, 0.7), (-3.0, 4.0)]
    lo, hi = np.array(bounds).T
    for f, fn in _quadrature_profiles():
        val, err = st.quadrature(fn, lo, hi)
        for (a, b), v, e in zip(bounds, val, err):
            oracle, _ = quad(lambda s: 1.0 / profile_at(f, s), a, b, epsabs=1e-13, epsrel=1e-13)
            assert v == pytest.approx(oracle, rel=1e-13, abs=1e-14), (f, a, b)
            assert 0.0 <= e < st.QUAD_ERR_MAX
        # the reversed integral is the ascending one negated, bit for bit,
        # and the empty one is +0.0 either way
        back, _ = st.quadrature(fn, hi, lo)
        assert back.tobytes() == np.where(lo == hi, 0.0, -val).tobytes()
    val, err = st.quadrature(lambda j, s: np.ones_like(s), np.array([0.3]), np.array([0.3]))
    assert val.tolist() == [0.0] and err.tolist() == [0.0]


def test_quadrature_batch_equals_each_integral_alone():
    # each integral's value and error are the ones it has alone, to the bit,
    # whatever else the batch holds and however many rounds it takes
    rng = np.random.default_rng(11)
    lo = rng.uniform(-2.0, 1.0, 40)
    hi = lo + rng.uniform(-1.5, 3.0, 40)
    hi[7] = lo[7]
    for _, fn in _quadrature_profiles():
        val, err = st.quadrature(fn, lo, hi)
        for k in range(len(lo)):
            alone = st.quadrature(fn, lo[k:k + 1], hi[k:k + 1])
            assert val[k].tobytes() == alone[0][0].tobytes()
            assert err[k].tobytes() == alone[1][0].tobytes()


def test_quadrature_integrand_sees_each_round_as_one_batch():
    calls = []

    def fn(j, s):
        calls.append(len(s))
        return 1.0 / (1.0 + s * s)

    val, _ = st.quadrature(fn, np.zeros(3), np.array([0.5, 1.0, 1.5]))
    assert val == pytest.approx(np.arctan([0.5, 1.0, 1.5]), rel=1e-15)
    # every integral's nodes of a round are in one call: the first round
    # sums each integral over its interval, the next over its halves
    assert 2 <= len(calls) <= 4
    assert calls[:2] == [3 * st._QUAD_NODES, 3 * 2 * st._QUAD_NODES]


def test_quadrature_rejects_an_integral_at_its_first_rejected_node():
    # 1/f of a profile nonpositive beyond t = 1: the integrals that reach it
    # are rejected, each with the error of its first node beyond, alone too
    f = mk_warping("polynomial", (1.0, -1.0))

    def fn(j, s):
        return 1.0 / f(s)

    lo, hi = np.zeros(4), np.array([0.5, 1.5, 0.8, 2.0])
    with pytest.raises(tm.BatchRejected) as err:
        st.quadrature(fn, lo, hi)
    assert sorted(err.value.errors) == [1, 3]
    for k, e in err.value.errors.items():
        assert isinstance(e, st.WarpingDomainError) and "nonpositive" in str(e)
        with pytest.raises(tm.BatchRejected) as alone:
            st.quadrature(fn, lo[k:k + 1], hi[k:k + 1])
        assert str(alone.value.errors[0]) == str(e)
    # so is the conformal time that integrates through t = 1
    with pytest.raises(st.WarpingDomainError, match="nonpositive"):
        tm.per_sample(lambda ts: f.conformal_time(ts, 0.0), [1.5])


def test_quadrature_of_a_nan_integrand_is_refused_within_its_interval_cap():
    nodes = []

    def fn(j, s):
        nodes.append(len(s))
        return np.where(s > 0.3, np.where(j == 2, np.inf, np.nan), 1.0)

    # a NaN and an infinite integrand, neither with a warning
    val, err = st.quadrature(fn, np.zeros(3), np.array([1.0, 0.2, 1.0]))
    assert math.isinf(err[0]) and err[1] < 1e-12 and math.isinf(err[2])
    assert val[1] == pytest.approx(0.2, rel=1e-15)
    # at most the cap's intervals per integral are open, and a round
    # evaluates their halves
    assert max(nodes) <= 3 * 2 * st._QUAD_LIMIT * st._QUAD_NODES
    assert len(nodes) < 12


def test_conformal_time_series_derivatives_match_fd():
    f = mk_warping("cosh")
    t0, t = -0.2, 0.85
    ctx = tm.get_context(1, 3)
    series = f.conformal_time(tm.Series.variable(ctx, 0, np.array([t])), t0)

    def profile(xs):
        return float(f.conformal_time(np.array([xs[0]]), t0)[0])

    for k, scheme in ((1, FdScheme(1e-4, 2, True)),
                      (2, FdScheme(1e-3, 2, True)),
                      (3, FdScheme(8e-3, 2, True))):
        fd = fd_derivative(profile, [t], (k,), scheme)
        jet_val = series.c[k] * math.factorial(k)
        assert jet_val == pytest.approx(fd, rel=1e-6, abs=1e-8)


# ---------------------------------------------------------------- models


def test_model_validation():
    with pytest.raises(ValueError):
        st.AmbientModel(kind="minkowski", n=1)
    with pytest.raises(ValueError):
        st.AmbientModel(kind="minkowski", n=2, warping=mk_warping("exp"))
    with pytest.raises(ValueError):
        st.AmbientModel(kind="product", n=2, warping=mk_warping("exp"))  # no fiber
    with pytest.raises(ValueError):
        st.AmbientModel(kind="grw_euclidean", n=2)  # no warping
    with pytest.raises(ValueError):
        st.AmbientModel(kind="desitter", n=2, t0=0.0)
    with pytest.raises(ValueError):
        st.AmbientModel(kind="grw_euclidean", n=2,
                        warping=mk_warping("exp", domain=(0.0, 1.0)), t0=2.0)

    assert minkowski(2).coord_count == 4
    assert grw_exp(2).coord_count == 4
    assert product_model("sphere").coord_count == 5
    assert product_model("hyperbolic").coord_count == 5
    assert desitter(2).coord_count == 5
    assert list(product_model("hyperbolic").signature) == [-1.0, -1.0, 1.0, 1.0, 1.0]
    assert list(desitter(2).signature) == [-1.0, 1.0, 1.0, 1.0, 1.0]
    # the derived fields take no part in model equality
    assert grw_exp(2) == grw_exp(2) and hash(grw_exp(2)) == hash(grw_exp(2))


def test_ambient_inner_examples():
    m = minkowski(2)
    p = np.zeros(4)
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    assert inner_at(m, p, e1, e1) == pytest.approx(-1.0, abs=0.0)

    m = st.AmbientModel(kind="grw_euclidean", n=2, warping=mk_warping("cosh"), t0=0.0)
    p = np.array([0.0, 0.3, -0.2, 0.5])
    v = np.array([0.0, 1.0, 0.0, 0.0])
    assert inner_at(m, p, v, v) == pytest.approx(1.0, abs=1e-15)

    m = desitter(2)
    alpha = 0.6
    q = np.array([2.0, -1.0, 2.0]) / 3.0
    p = np.array([0.0, 1.0, 0.0, 0.0, 1.0])
    v = np.concatenate(([1.0], alpha * q, [math.sqrt(1 - alpha ** 2)]))
    assert inner_at(m, p, v, v) == pytest.approx(0.0, abs=1e-15)


def test_ambient_inner_symmetric_bilinear():
    rng = np.random.default_rng(7)
    models = [
        minkowski(2),
        grw_exp(2),
        product_model("sphere", warping=mk_warping("cosh")),
        product_model("hyperbolic"),
        desitter(2),
    ]
    for m in models:
        d = m.coord_count
        for _ in range(20):
            p = np.zeros(d)
            p[0] = rng.uniform(-0.5, 0.5)
            v, w, z = rng.standard_normal((3, d))
            a, b = rng.standard_normal(2)
            s1 = inner_at(m, p, v, w)
            s2 = inner_at(m, p, w, v)
            assert s1 == pytest.approx(s2, abs=0.0)
            lhs = inner_at(m, p, a * v + b * w, z)
            rhs = a * inner_at(m, p, v, z) + b * inner_at(m, p, w, z)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_ambient_inner_guards():
    m = minkowski(2)
    p = np.zeros(4)
    with pytest.raises(ValueError):
        inner_at(m, p, np.ones(5), np.ones(5))
    m = st.AmbientModel(kind="grw_euclidean", n=2,
                        warping=mk_warping("exp", domain=(-1.0, 1.0)), t0=0.0)
    with pytest.raises(ValueError):
        inner_at(m, np.array([2.0, 0, 0, 0]), np.ones(4), np.ones(4))


# ---------------------------------------------------------------- de Sitter embed


def test_desitter_embed_examples():
    q = np.array([0.0, 0.0, 0.0, 1.0])
    x = desitter_embed(0.0, q)
    assert np.allclose(x, np.concatenate(([0.0], q)), atol=0.0)
    x = desitter_embed(1.0, q)
    assert np.allclose(x, [math.sinh(1.0), 0.0, 0.0, 0.0, math.cosh(1.0)], atol=1e-15)
    assert -x[0] ** 2 + np.dot(x[1:], x[1:]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        desitter_embed(0.5, np.array([0.0, 0.0, 0.0, 1.0 + 1e-9]))


def test_desitter_time_axis_pushforward():
    rng = np.random.default_rng(3)
    m = desitter(2)
    for _ in range(10):
        t = rng.uniform(-1.0, 1.0)
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)

        def curve(xs):
            return desitter_embed(xs[0], list(q))

        jet = jet_eval(curve, [t], 1)
        tangent = jet.jacobian[:, 0]
        x = jet.value
        # cosh t times the unit axis, the polynomial field x_1 x + e_1
        ctx = tm.get_context(1, 0)
        axis = st.time_axis(m, tm.Series(ctx, x[None, :, None], (len(x),)))[0, :, 0]
        ch = math.cosh(t)
        assert np.allclose(axis, ch * tangent, atol=1e-12)
        assert inner_at(m, x, axis, axis) == pytest.approx(-ch * ch, abs=1e-12)


def test_warped_product_pullback_is_desitter_metric():
    # induced metric of (t, angles) -> embed(t, sphere_chart(angles)) must be
    # diag(-1, cosh(t)^2 * (round metric of the angle chart))
    rng = np.random.default_rng(11)
    chart = st.sphere_chart(3)
    flat = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])

    def full(xs):
        return desitter_embed(xs[0], chart.fn(xs[1:]))

    for _ in range(100):
        t = rng.uniform(-1.2, 1.2)
        th = [rng.uniform(0.3, math.pi - 0.3), rng.uniform(0.3, math.pi - 0.3),
              rng.uniform(-2.8, 2.8)]
        J = jet_eval(full, [t] + th, 1).jacobian
        G = J.T @ flat @ J
        Js = jet_eval(chart, th, 1).jacobian
        Gs = Js.T @ Js
        expect = np.zeros((4, 4))
        expect[0, 0] = -1.0
        expect[1:, 1:] = math.cosh(t) ** 2 * Gs
        assert np.allclose(G, expect, atol=1e-10)


# ---------------------------------------------------------------- fibers


def values_radial(model, x):
    """`spacetime.fiber_radial` of the values alone of one fiber point x:
    r and Dr as a float and an array."""
    r, dr = st.fiber_radial(model, x[None, :, None])
    return r[0, 0], dr[0, :, 0]


def test_fiber_radial_sphere_matches_polar_form():
    rng = np.random.default_rng(5)
    m = product_model("sphere")
    for _ in range(20):
        r = rng.uniform(0.2, math.pi - 0.2)
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        x = np.concatenate(([math.cos(r)], math.sin(r) * d))
        rr, dr = values_radial(m, x)
        assert rr == pytest.approx(r, rel=1e-13)
        assert np.allclose(dr, np.concatenate(([-math.sin(r)], math.cos(r) * d)), atol=1e-12)
        assert st.fiber_radius_sq(m, x) == pytest.approx(r * r, rel=1e-12)


def test_fiber_radial_hyperbolic_matches_polar_form():
    rng = np.random.default_rng(6)
    m = product_model("hyperbolic")
    for _ in range(20):
        r = rng.uniform(0.2, 2.0)
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        x = np.concatenate(([math.cosh(r)], math.sinh(r) * d))
        rr, dr = values_radial(m, x)
        assert rr == pytest.approx(r, rel=1e-13)
        assert np.allclose(dr, np.concatenate(([math.sinh(r)], math.cosh(r) * d)), atol=1e-11)
        assert st.fiber_constraint(m, x) == pytest.approx(0.0, abs=1e-12)


def test_fiber_radial_euclidean():
    m = grw_exp(2)
    x = np.array([3.0, 0.0, 4.0])
    r, dr = values_radial(m, x)
    assert r == pytest.approx(5.0, abs=0.0)
    assert np.allclose(dr, x / 5.0, atol=0.0)
    assert st.radial_tangential_factor(m, 1.7) == 1.0


def fiber_points(kind, ys):
    """The fiber embedding coordinates of the chart points ys (B, 3) as one
    map, with no domain: a sphere's spherical angles, whose first angle 0
    is the base point and pi the antipode; a hyperboloid's graph chart,
    whose origin is the base point; a Euclidean fiber's coordinates."""

    def sphere(th):
        s0, s1 = tm.sin(th[0]), tm.sin(th[1])
        return [tm.cos(th[0]), s0 * tm.cos(th[1]), s0 * s1 * tm.cos(th[2]),
                s0 * s1 * tm.sin(th[2])]

    fn = {"sphere": sphere, "hyperbolic": st.hyperbolic_chart(3).fn, "euclidean": list}[kind]
    return tm.SmoothMap(fn, 3, 3 if kind == "euclidean" else 4)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("fiber", ["sphere", "hyperbolic", "euclidean"])
def test_fiber_radial_arrays_match_the_component_oracle_bitwise(fiber, order):
    # fiber_radial of a value-gradient array (order 1), or of values alone
    # (order 0), is bit for bit the component-list Series algebra of the
    # same order (`entry_fiber_radial`); a batch holding the base point or
    # the antipode raises the errors the Series raise
    m = grw_exp() if fiber == "euclidean" else product_model(fiber)
    rng = np.random.default_rng(order)
    ys = rng.uniform(-1.2, 1.2, size=(12, 3))
    if fiber == "sphere":
        ys[:, :2] = rng.uniform(0.2, math.pi - 0.2, size=(12, 2))
    singular = {"sphere": [[0.0, 1.0, 0.5], [math.pi, 1.0, 0.5]],
                "hyperbolic": [[0.0, 0.0, 0.0]], "euclidean": [[0.0, 0.0, 0.0]]}[fiber]
    for points in (ys, np.concatenate([ys[:5], singular, ys[5:]])):
        x = tm.eval_series(fiber_points(fiber, points), points, order)
        with np.errstate(all="ignore"):
            try:
                r, dr = entry_fiber_radial(m, [x[k] for k in range(x.shape[0])])
            except tm.BatchRejected as err:
                with pytest.raises(tm.BatchRejected) as got:
                    st.fiber_radial(m, x.value_gradient)
                assert {b: str(e) for b, e in got.value.errors.items()} == {
                    b: str(e) for b, e in err.errors.items()}
                assert len(points) > len(ys)
                continue
            got_r, got_dr = st.fiber_radial(m, x.value_gradient)
        assert got_r.shape == (1 + 3 * order, len(points))
        assert got_r.tobytes() == r.c.tobytes()
        assert got_dr.tobytes() == tm.Series.stack(dr, x.ctx, x.batch).c.tobytes()
        assert len(points) == len(ys)


def test_radial_hessian_factor_against_jets():
    # flat derivative of r*Dr along chart tangents, projected back to the
    # quadric, must equal <V,Dr>Dr + (r c(r)) (V - <V,Dr>Dr)
    for fiber, chart, params in (
        ("sphere", st.sphere_chart(3), [0.9, 1.2, 0.4]),
        ("hyperbolic", st.hyperbolic_chart(3), [0.4, -0.3, 0.8]),
    ):
        m = product_model(fiber)
        x = tm.eval_series(chart, np.array([params]), 1).value_gradient
        r, dr = st.fiber_radial(m, x)
        field = tm.product_rule(r[:, None], dr)
        signs = m.signature[1:]
        x0, dr0 = x[0, :, 0], dr[0, :, 0]
        factor = st.radial_tangential_factor(m, r[0])[0]
        quad_sign = 1.0 if fiber == "sphere" else -1.0
        for j in range(3):
            # slot 1 + j of a value-gradient array is the partial along y_j
            V, flat_d = x[1 + j, :, 0], field[1 + j, :, 0]
            # remove the quadric-normal component (normal is the position)
            coef = float(np.sum(signs * flat_d * x0)) / quad_sign
            tangential = flat_d - coef * x0
            v_dot_dr = float(np.sum(signs * V * dr0))
            expect = v_dot_dr * dr0 + factor * (V - v_dot_dr * dr0)
            assert np.allclose(tangential, expect, atol=1e-10)


def test_warped_connection_term_against_fd_symbols():
    rng = np.random.default_rng(9)
    models = [
        st.AmbientModel(kind="grw_euclidean", n=2, warping=mk_warping("exp"), t0=0.0),
        product_model("hyperbolic", warping=mk_warping("cosh")),
        product_model("sphere", warping=mk_warping("polynomial", (1.0, 0.0, 0.5))),
    ]
    h = 1e-5
    for m in models:
        d = m.coord_count
        signs = m.signature

        def metric(pt):
            f = profile_at(m.warping, pt[0])
            g = np.diag(signs.copy())
            g[1:, 1:] *= f * f
            return g

        p = np.zeros(d)
        p[0] = 0.4
        p[1:] = rng.standard_normal(d - 1)
        G = metric(p)
        Ginv = np.linalg.inv(G)
        dG = np.zeros((d, d, d))
        for c in range(d):
            pp, pm = p.copy(), p.copy()
            pp[c] += h
            pm[c] -= h
            dG[c] = (metric(pp) - metric(pm)) / (2 * h)
        gamma = np.zeros((d, d, d))
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    acc = 0.0
                    for e in range(d):
                        acc += Ginv[a, e] * (dG[b][e, c] + dG[c][e, b] - dG[e][b, c])
                    gamma[a, b, c] = 0.5 * acc
        for _ in range(5):
            v, w = rng.standard_normal((2, d))
            expect = np.einsum("abc,b,c->a", gamma, v, w)
            df = m.warping.derivatives(np.array([p[0]]), 1)
            (got,) = st.warped_connection_term(m, df, v[None], w[None])
            assert np.allclose(got, expect, atol=1e-6)
        flatk = st.warped_connection_term(minkowski(2), None, np.ones(4), np.ones(4))
        assert np.allclose(flatk, 0.0, atol=0.0)


# ---------------------------------------------------------------- charts


def test_charts_land_on_their_quadrics():
    rng = np.random.default_rng(13)
    sph = st.sphere_chart(3)
    hyp = st.hyperbolic_chart(3)
    for _ in range(25):
        th = [rng.uniform(0.2, math.pi - 0.2), rng.uniform(0.2, math.pi - 0.2),
              rng.uniform(-3.0, 3.0)]
        x = np.array(sph.fn(th))
        assert np.dot(x, x) == pytest.approx(1.0, rel=1e-14)
        y = rng.standard_normal(3)
        z = np.array(hyp.fn(y))
        assert -z[0] ** 2 + np.dot(z[1:], z[1:]) == pytest.approx(-1.0, abs=1e-12)

