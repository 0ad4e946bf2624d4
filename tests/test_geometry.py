import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cutlab.geometry import (GeometryError, ImplicitSurface, PeriodicChart,
                             ZERO_FIELD, ambient_scalar_field,
                             blended_chart_field, chart_metric_field,
                             chart_scalar_field, conformal_chart_field,
                             conformal_family, level_surface, linear_blend,
                             row_sum, wrap_periodic)
from cutlab.submanifold import chart_curve, surface_curve

from oracles import (adjugate_surface_curvature, dense_jet, dense_metric,
                     diag_metric_christoffel_action, einsum_gamma2,
                     einsum_surface_gamma2, fd_gamma2, fd_gauss_curvature,
                     full_hessian,
                     reference_aux_gap, reference_retract, reference_wrap,
                     warped_curvature)

pts2 = st.tuples(st.floats(0, 1), st.floats(0, 1)).map(np.array)
vecs2 = st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(np.array)


def flat():
    return PeriodicChart((1.0, 1.0), chart_metric_field("flat", (1.0, 1.0)))


def warped(a=0.2):
    return PeriodicChart((1.0, 1.0),
                         chart_metric_field("warped-diag", (1.0, 1.0),
                                            amplitude=a))


def sphere(r=1.0, psi=ZERO_FIELD):
    return ImplicitSurface(level_surface("sphere", radius=r), psi=psi)


# -- metric evaluation ------------------------------------------------------

def test_flat_orthonormal_pairing():
    b = flat()
    p = np.array([0.3, 0.7])
    assert b.inner(p, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert b.inner(p, np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 25.0


def test_sphere_induced_metric_is_ambient_dot():
    b = sphere()
    p = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    assert b.inner(p, v, v) == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=25, deadline=None)
@given(p=pts2, v=vecs2, w=vecs2)
def test_metric_symmetric_bilinear(p, v, w):
    b = warped()
    gvw = b.inner(p, v, w)
    assert gvw == pytest.approx(b.inner(p, w, v), abs=1e-12)
    assert b.inner(p, 2 * v, w) == pytest.approx(2 * gvw, rel=1e-12,
                                                  abs=1e-12)


def test_metric_periodicity_at_identified_boundary():
    b = warped()
    g0 = dense_metric(b, np.array([[0.0, 0.3]]))
    g1 = dense_metric(b, np.array([[1.0, 0.3]]))
    assert np.max(np.abs(g0 - g1)) <= 1e-12


def test_metric_spd_rejects_bad_field():
    bad = chart_metric_field("warped-diag-g22", (1.0, 1.0), amplitude=2.0)
    b = PeriodicChart((1.0, 1.0), bad)
    with pytest.raises(GeometryError):
        b.metric(np.array([[0.75, 0.0]]))  # g22 = 1 - 2 < 0 there


# -- Christoffel action -----------------------------------------------------

def test_flat_christoffels_vanish():
    b = flat()
    v = np.array([[0.3, -1.2]])
    assert np.max(np.abs(b.gamma2(np.array([[0.2, 0.9]]), v))) <= 1e-10


@pytest.mark.parametrize("x", [0.1, 0.25, 0.6, 0.9])
def test_warped_christoffels_match_closed_form(x):
    a = 0.2
    b = warped(a)
    w = 2 * np.pi
    bx = 1 + a * np.sin(w * x)
    dbx = a * w * np.cos(w * x)
    v = np.array([0.7, -0.4])
    want = diag_metric_christoffel_action(1.0, 0.0, bx ** 2, 2 * bx * dbx, v)
    got = b.gamma2(np.array([[x, 0.33]]), v[None, :])[0]
    assert np.max(np.abs(got - want)) <= 1e-12


def test_christoffel_mixed_polarization():
    b = warped()
    p = np.array([[0.37, 0.11]])
    u = np.array([[0.5, 1.0]])
    w = np.array([[-1.0, 0.25]])
    lhs = b.christoffel_mixed(p, u, w)
    quad = lambda vv: b.gamma2(p, vv)
    rhs = 0.5 * (quad(u + w) - quad(u) - quad(w))
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def _chart(name, **params):
    return PeriodicChart((1.0, 1.0),
                         chart_metric_field(name, (1.0, 1.0), **params))


_GAMMA2_BACKENDS = {
    "flat": lambda: _chart("flat"),
    "warped-diag": lambda: _chart("warped-diag", amplitude=0.2),
    "warped-diag-g22": lambda: _chart("warped-diag-g22", amplitude=0.1),
    "conformal-bump": lambda: _chart("conformal-bump", amplitude=0.1),
    "conformal-family": lambda: conformal_family(
        warped(), chart_scalar_field("sine-y", (1.0, 1.0), amplitude=1.0),
        0.2),
    "linear-blend": lambda: linear_blend(
        warped(), _chart("conformal-bump", amplitude=0.1), 0.3),
}


def _gamma2_inputs(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 2.0, (n, 2))
    v = rng.normal(size=(n, 2))
    v[::3, 0] = 0.0         # axis-aligned and sign-mixed velocities
    v[1::3] = -np.abs(v[1::3])
    return pts, v


def _rel_dev(got, want):
    """max |got - want| over max |want|; 0 where both vanish."""
    dev = np.max(np.abs(got - want))
    return dev / np.max(np.abs(want)) if dev else 0.0


@pytest.mark.parametrize("n", [1, 5, 128])
@pytest.mark.parametrize("name", sorted(_GAMMA2_BACKENDS))
def test_gamma2_matches_einsum_oracle_bitwise(name, n):
    # the einsums contract the same metric jet, but the package sums
    # (v . d)(g v) - 1/2 d g(v, v) in another order and inverts g by its
    # adjugate, so agreement is held to a relative 1e-13; the stencil
    # reference checks the jet's derivatives against differences of the
    # metric's values
    b = _GAMMA2_BACKENDS[name]()
    pts, v = _gamma2_inputs(n, n)
    got = b.gamma2(pts, v)
    assert _rel_dev(got, einsum_gamma2(b, pts, v)) <= 1e-13
    assert _rel_dev(got, fd_gamma2(b, pts, v)) <= 1e-6


def test_gamma2_checks_the_metric_at_every_call():
    bad = _chart("warped-diag-g22", amplitude=2.0)
    pts = np.array([[0.1, 0.0], [0.75, 0.0]])   # g22 = 1 - 2 < 0 at x = 0.75
    with pytest.raises(GeometryError, match="not positive definite"):
        bad.gamma2(pts, np.ones((2, 2)))


def test_chart_metric_of_one_point_equals_its_batch_row():
    # a point evaluated alone reads the same metric as inside a batch
    b = warped()
    pts = np.random.default_rng(5).uniform(0.0, 1.0, (20000, 2))
    one = np.stack([dense_metric(b, p) for p in pts])
    assert one.tobytes() == dense_metric(b, pts).tobytes()


# -- Gauss curvature --------------------------------------------------------

def test_flat_curvature_zero():
    assert abs(float(flat().gauss_curvature(np.array([[0.4, 0.8]]))[0])) <= 1e-7


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_sphere_curvature(r):
    b = sphere(r)
    p = b.project(np.array([[0.3, -0.5, 0.7]]))
    assert float(b.gauss_curvature(p)[0]) == pytest.approx(1 / r ** 2, abs=2e-4)


@pytest.mark.parametrize("x", [0.1, 0.25, 0.5, 0.75])
def test_warped_curvature_closed_form(x):
    b = warped(0.2)
    got = float(b.gauss_curvature(np.array([[x, 0.2]]))[0])
    assert got == pytest.approx(warped_curvature(0.2, x), abs=1e-10)


def test_conformal_curvature_relation():
    # g_tau = e^{2 tau phi} delta on the torus: K_tau = -tau * Lap(phi)
    # * e^{-2 tau phi}; with phi = sin(2 pi x) sin(2 pi y), Lap(phi) =
    # -8 pi^2 phi.
    tau = 0.1
    phi = chart_scalar_field("bump-xy", (1.0, 1.0), amplitude=1.0)
    b = conformal_family(flat(), phi, tau)
    p = np.array([[0.2, 0.35]])
    ph = float(phi(p)[0])
    want = tau * 8 * np.pi ** 2 * ph * np.exp(-2 * tau * ph)
    assert float(b.gauss_curvature(p)[0]) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("name", sorted(_GAMMA2_BACKENDS))
def test_chart_curvature_matches_second_differences(name):
    b = _GAMMA2_BACKENDS[name]()
    pts, _ = _gamma2_inputs(128, 11)
    K = b.gauss_curvature(pts)
    assert _rel_dev(K, fd_gauss_curvature(b, pts)) <= 1e-5


def test_conformal_sphere_curvature_closed_form(sphere_psi_backend, rng):
    # psi = 0.3 z on the unit sphere: z is a first spherical harmonic, so
    # Lap_S psi = -0.6 z and K = (K_induced - Lap_S psi) e^{-2 psi}
    # = (1 + 0.6 z) e^{-0.6 z}
    b = sphere_psi_backend
    p = b.project(rng.standard_normal((200, 3)))
    z = p[:, 2]
    want = (1.0 + 0.6 * z) * np.exp(-0.6 * z)
    np.testing.assert_allclose(b.gauss_curvature(p), want, rtol=1e-10)


# -- jets: every named field's derivatives against differences of its values --

_L = (1.0, 1.3)
_SINE_Y = chart_scalar_field("sine-y", _L, amplitude=0.7, harmonic=2)
_WARPED = chart_metric_field("warped-diag", _L, amplitude=0.3, harmonic=2)
_BUMP = chart_metric_field("conformal-bump", _L, amplitude=0.2)
_JET_FIELDS = {
    "chart-constant": chart_scalar_field("constant", _L, value=0.4),
    "sine-x": chart_scalar_field("sine-x", _L, amplitude=0.7, harmonic=2),
    "sine-y": _SINE_Y,
    "bump-xy": chart_scalar_field("bump-xy", _L, amplitude=0.6),
    "ambient-constant": ambient_scalar_field("constant", value=-0.3),
    "linear-z": ambient_scalar_field("linear-z", amplitude=0.8),
    "sine-z": ambient_scalar_field("sine-z", amplitude=0.5, wavenumber=3.0),
    "flat": chart_metric_field("flat", _L),
    "warped-diag": _WARPED,
    "warped-diag-g22": chart_metric_field("warped-diag-g22", _L,
                                          amplitude=0.4, harmonic=3),
    "conformal-bump": _BUMP,
    "conformal": conformal_chart_field(_WARPED, _SINE_Y, 0.3),
    "blend": blended_chart_field(_WARPED, _BUMP, 0.35),
    "surface-psi": conformal_family(
        sphere(psi=ambient_scalar_field("linear-z", amplitude=0.4)),
        ambient_scalar_field("sine-z", amplitude=0.5, wavenumber=2.0),
        0.7).psi,
}


@pytest.mark.parametrize("name", sorted(_JET_FIELDS))
def test_jet_matches_differences_of_its_values(name, rng):
    fld = _JET_FIELDS[name]
    dim = 3 if name in ("ambient-constant", "linear-z", "sine-z",
                        "surface-psi") else 2
    p = rng.uniform(-1.0, 2.0, (64, dim))
    np.testing.assert_equal(fld(p), fld.jet(p, 2).val)
    # a chart metric's entries are read in the dense (2, 2) layout
    val = lambda q: dense_jet(fld.jet(q, 0)).val
    jet = dense_jet(fld.jet(p, 2))
    np.testing.assert_array_equal(jet.val, val(p))
    for order in (0, 1):
        low = dense_jet(fld.jet(p, order))
        np.testing.assert_array_equal(low.val, jet.val)
        assert (low.d1 is None) == (order == 0) and low.d2 is None
    np.testing.assert_array_equal(dense_jet(fld.jet(p, 1)).d1, jet.d1)
    # central differences with O(h^2) truncation, about (w h)^2 / 6 of the
    # derivative for a wavenumber w <= 6 pi here; the bounds are a few times
    # that, relative to the size of the derivative
    E = np.eye(dim)
    h = 1e-4
    for l in range(dim):
        fd = (val(p + h * E[l]) - val(p - h * E[l])) / (2 * h)
        assert np.max(np.abs(jet.d1[l] - fd)) <= 5e-6 * (
            1.0 + np.max(np.abs(fd)))
    h = 1e-3
    for l in range(dim):
        for m in range(dim):
            e, f = h * E[l], h * E[m]
            fd = (val(p + e + f) - val(p + e - f) - val(p - e + f)
                  + val(p - e - f)) / (4 * h * h)
            assert np.max(np.abs(jet.d2[l, m] - fd)) <= 5e-4 * (
                1.0 + np.max(np.abs(fd)))


# -- the wraparound -----------------------------------------------------------

def _wrap_inputs(L, seed):
    """Per column of period L: signed zeros, +-1e-17, exact multiples of L
    and their neighbours, points up to 5 periods away, and the periods
    themselves in both directions; with origins on the chart for the gaps."""
    rng = np.random.default_rng(seed)
    cols = []
    for Lc in L:
        k = np.arange(-5.0, 6.0) * Lc
        cols.append(np.concatenate([
            [-0.0, 0.0, 1e-17, -1e-17], k, np.nextafter(k, np.inf),
            np.nextafter(k, -np.inf), 0.5 * Lc + k,
            rng.uniform(-5.0, 6.0, 4000) * Lc]))
    x = np.stack(cols, axis=-1)
    origins = np.concatenate([np.zeros((len(x) // 2, 2)),
                              rng.random((len(x) - len(x) // 2, 2)) * L])
    return x, origins


@pytest.mark.parametrize("L", [(1.0, 1.0), (2.0, 0.5)])
def test_wraparound_equals_np_mod_at_power_of_two_periods(L):
    b = PeriodicChart(L, chart_metric_field("flat", L))
    x, p = _wrap_inputs(L, 3)
    got, want = b.wrap(x), reference_wrap(b, x)
    # the documented exception: at L > 1 the quotient of a negative
    # subnormal underflows to -0, and it stays itself where np.mod gives L
    odd = (x < 0.0) & (x > -np.finfo(float).tiny) & (np.array(L) > 1.0)
    assert got[~odd].tobytes() == want[~odd].tobytes()
    assert got[odd].tobytes() == x[odd].tobytes()
    assert np.count_nonzero(odd) == (L[0] > 1.0)
    assert b.aux_gap(p, x).tobytes() == reference_aux_gap(b, p, x).tobytes()
    # a scalar and a column of the same period reduce as a chart column
    s = x[:, 1]
    assert wrap_periodic(s, L[1]).tobytes() == np.mod(s, L[1]).tobytes()


def test_wraparound_within_one_ulp_of_np_mod_elsewhere():
    # off a power of two the floor and the product round: the result may
    # sit a hair below 0 where np.mod's sits a hair below L, so the two are
    # compared as points of the circle of length L
    L = (0.7, 1.3)
    b = PeriodicChart(L, chart_metric_field("flat", L))
    x, p = _wrap_inputs(L, 4)
    for got, want in ((b.wrap(x), reference_wrap(b, x)),
                      (b.aux_gap(p, x), reference_aux_gap(b, p, x))):
        dev = np.abs(got - want)
        dev = np.minimum(dev, np.array(L) - dev)
        assert np.all(dev <= np.spacing(np.array(L)))
        assert np.count_nonzero(dev) > 0     # the case is not vacuous


# -- families ---------------------------------------------------------------

def test_conformal_family_tau_zero_is_same_object():
    b = flat()
    phi = chart_scalar_field("sine-x", (1.0, 1.0))
    assert conformal_family(b, phi, 0.0) is b


def test_homothety_scales_metric():
    phi = chart_scalar_field("constant", (1.0, 1.0), value=1.0)
    b = conformal_family(flat(), phi, 0.3)
    p = np.array([0.5, 0.5])
    v = np.array([1.0, 0.0])
    assert b.inner(p, v, v) == pytest.approx(np.exp(0.6), rel=1e-12)


def test_linear_blend_endpoints_and_midpoint():
    b0, b1 = flat(), warped()
    assert linear_blend(b0, b1, 0.0) is b0
    assert linear_blend(b0, b1, 1.0) is b1
    bm = linear_blend(b0, b1, 0.5)
    p = np.array([[0.25, 0.0]])
    want = 0.5 * (dense_metric(b0, p) + dense_metric(b1, p))
    assert np.max(np.abs(dense_metric(bm, p) - want)) <= 1e-14


def test_conformal_family_on_surface():
    phi = ambient_scalar_field("linear-z", amplitude=1.0)
    b = conformal_family(sphere(), phi, 0.2)
    p = np.array([0.0, 0.0, 1.0])
    v = np.array([1.0, 0.0, 0.0])
    assert b.inner(p, v, v) == pytest.approx(np.exp(0.4), rel=1e-12)


# -- auxiliary distance and constraints -------------------------------------

def test_chart_aux_distance_wraparound():
    b = flat()
    d = float(b.aux_distance(np.array([0.95, 0.1]), np.array([0.05, 0.9])))
    assert d == pytest.approx(np.hypot(0.1, 0.2), abs=1e-14)


@settings(max_examples=25, deadline=None)
@given(p=pts2, q=pts2, r=pts2)
def test_chart_aux_triangle_inequality(p, q, r):
    b = flat()
    dpq = float(b.aux_distance(p, q))
    assert dpq <= float(b.aux_distance(p, r)) + float(b.aux_distance(r, q)) + 1e-12


def test_implicit_projection_invariant():
    b = sphere(2.0)
    x = b.project(np.array([[1.0, 2.0, -0.5], [3.0, 0.1, 0.1]]))
    assert np.max(np.abs(b.surface.h(x))) <= b.proj_tol


def test_implicit_tangency_after_constrain():
    b = sphere()
    p = b.project(np.array([[0.5, 0.5, 0.5]]))
    v = b.constrain_velocity(p, np.array([[1.0, 0.2, -0.3]]))
    n = b.unit_surface_normal(p)
    assert abs(float(np.sum(v * n))) <= 1e-12


# -- named constructors ------------------------------------------------------

@pytest.mark.parametrize("build, name, other", [
    (lambda n, **kw: chart_metric_field(n, (1.0, 1.0), **kw), "flat",
     "amplitude"),
    (lambda n, **kw: chart_scalar_field(n, (1.0, 1.0), **kw), "constant",
     "amplitude"),
    (ambient_scalar_field, "constant", "amplitude"),
    (level_surface, "sphere", "semi_axes"),
    (lambda n, **kw: chart_curve(n, (1.0, 1.0), **kw), "horizontal-circle",
     "r"),
    (surface_curve, "equator", "z0"),
], ids=["chart-metric", "chart-scalar", "ambient-scalar", "level-surface",
        "chart-curve", "surface-curve"])
def test_named_constructors_reject_unknown_parameters_by_name(build, name,
                                                              other):
    build(name)
    with pytest.raises(GeometryError, match="unknown parameter 'amplitud'"):
        build(name, amplitud=0.5)
    # other is read by another name of the same constructor, not by this one
    with pytest.raises(GeometryError, match=f"'{name}': .*'{other}'"):
        build(name, **{other: 1.0})
    with pytest.raises(GeometryError, match="unknown .*'no-such'"):
        build("no-such")


# -- rounding rules of the batched kernels -----------------------------------

@pytest.mark.parametrize("width", [2, 3])
def test_row_sum_equals_numpy_sum_bitwise(width, rng):
    n = 100_000
    a = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-8, 9,
                                                              (n, width))
    special = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, np.inf, -np.inf]
    a[:2000] = rng.choice(special, (2000, width))
    a[:8] = -0.0                                 # a -0.0 sum reads +0.0
    with np.errstate(invalid="ignore"):          # inf - inf
        want = np.sum(a, axis=-1)
        got = row_sum(a)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    a = a[2000:]
    want = want[2000:]
    np.testing.assert_array_equal(row_sum(a.reshape(100, -1, width)),
                                  want.reshape(100, -1))
    assert row_sum(a[9]) == np.sum(a[9])


@pytest.mark.parametrize("name", ["sphere", "ellipsoid", "sphere_psi"])
def test_rowwise_projection_matches_one_point_projections_bitwise(
        name, rng, sphere_psi_backend):
    b = {"sphere": sphere(),
         "ellipsoid": ImplicitSurface(level_surface(
             "ellipsoid", semi_axes=(1.4, 1.0, 0.7))),
         "sphere_psi": sphere_psi_backend}[name]
    u = rng.standard_normal((400, 3))
    # from on the surface to 0.3 off it: from 0 to several Newton steps
    P = b.project(u) * (1.0 + 10.0 ** rng.uniform(-13.0, -0.5, (400, 1)))
    want = np.array([b.project(p) for p in P])
    np.testing.assert_array_equal(b.project(P), want)


# -- the implicit-surface RK4 step against its einsum form --------------------

def _ellipsoid():
    return ImplicitSurface(level_surface("ellipsoid",
                                         semi_axes=(1.4, 1.0, 0.7)))


_SURFACES = {
    "sphere": sphere, "sphere-r2.5": lambda: sphere(2.5),
    "ellipsoid": _ellipsoid,
    "sphere-sine-z": lambda: sphere(psi=ambient_scalar_field(
        "sine-z", amplitude=0.3))}


def _bits(a):
    return np.asarray(a).view(np.int64)


@pytest.mark.parametrize("name", ["sphere", "ellipsoid"])
def test_hess_form_rounds_as_the_hessian_einsum(name, rng):
    # (d * v) * v, not d * (v * v): the latter differs on about a fifth of
    # the ellipsoid's rows
    b = _SURFACES[name]()
    p = rng.standard_normal((100_000, 3))
    v = rng.standard_normal((100_000, 3)) * 10.0 ** rng.integers(
        -6, 7, (100_000, 1))
    v[:8] = [0.0, -0.0, 1.0]
    want = np.einsum("...ij,...i,...j->...", full_hessian(b, p), v, v)
    np.testing.assert_array_equal(_bits(b.surface.hess_form(p, v)),
                                  _bits(want))


@pytest.mark.parametrize("name", ["sphere", "sphere-r2.3", "ellipsoid"])
@pytest.mark.parametrize("psi", ["zero", "sine-z"])
def test_surface_curvature_matches_the_adjugate_oracle_bitwise(name, psi,
                                                               rng):
    # the diagonal Hessian's adjugate and tangent trace as row sums round
    # as the full-matrix adjugate, einsum and np.trace do
    surf = {"sphere": sphere(), "sphere-r2.3": sphere(2.3),
            "ellipsoid": _ellipsoid()}[name].surface
    b = ImplicitSurface(surf, ZERO_FIELD if psi == "zero" else
                        ambient_scalar_field("sine-z", amplitude=0.3))
    p = b.project(rng.standard_normal((20_000, 3)))
    p[:1000] = rng.standard_normal((1000, 3))     # off the surface as well
    np.testing.assert_array_equal(_bits(b._curvature(p)),
                                  _bits(adjugate_surface_curvature(b, p)))


@pytest.mark.parametrize("name", sorted(_SURFACES))
def test_surface_step_matches_einsum_oracle_bitwise(name, rng):
    b = _SURFACES[name]()
    x = b.project(rng.standard_normal((2000, 3)))
    v = b.constrain_velocity(x, rng.standard_normal((2000, 3)))
    np.testing.assert_array_equal(_bits(b.gamma2(x, v)),
                                  _bits(einsum_surface_gamma2(b, x, v)))
    # a state after an RK4 step: slightly off the surface and its tangents
    xs = x + 1e-3 * rng.standard_normal(x.shape)
    vs = v + 1e-3 * rng.standard_normal(v.shape)
    for got, want in zip(b.retract(xs, vs), reference_retract(b, xs, vs)):
        np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("params, word", [
    ({"radius": 0}, "radius"), ({"radius": -1.0}, "radius"),
    ({"radius": float("inf")}, "radius"), ({"radius": "x"}, "radius"),
    ({"semi_axes": [1, 1]}, "semi_axes"),
    ({"semi_axes": [1, -1, 1]}, "semi_axes"),
    ({"semi_axes": [1, 0, 1]}, "semi_axes"),
    ({"semi_axes": [1, float("nan"), 1]}, "semi_axes")])
def test_level_surface_rejects_bad_lengths_by_name(params, word):
    name = "sphere" if "radius" in params else "ellipsoid"
    with pytest.raises(ValueError, match=f"{word} must be .* > 0"):
        level_surface(name, **params)
