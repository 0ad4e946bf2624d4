import numpy as np
import pytest

from cutlab.geodesics import (IntegrationError, hermite_batch,
                              hermite_sample, integrate_batch)
from cutlab.geometry import ImplicitSurface, level_surface
from cutlab.submanifold import (curve_submanifold, chart_curve,
                                point_submanifold, surface_curve,
                                unit_normals)
from cutlab.wavefront import normal_starts

from oracles import (dense_metric, einsum_surface_gamma2, great_circle,
                     normal_exp_jacobian, reference_integrate)


def test_flat_torus_geodesics_are_straight(flat_backend):
    path = integrate_batch(flat_backend, [[0.1, 0.2]], [[0.6, 0.8]], 1.0,
                           1e-3)
    want = np.array([0.1, 0.2]) + 0.7 * np.array([0.6, 0.8])
    got = hermite_sample(path.t, path.pos[0], path.vel[0], 0.7)[0]
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert path.drift[0] <= 1e-12


def test_great_circle_closed_form(sphere_backend):
    b = sphere_backend
    p0 = np.array([1.0, 0.0, 0.0])
    v0 = np.array([0.0, 0.6, 0.8])
    path = integrate_batch(b, p0, v0, 6.0, 1e-3)
    for t in (0.5, 2.0, np.pi, 5.5):
        got, vel = hermite_sample(path.t, path.pos[0], path.vel[0], t)
        np.testing.assert_allclose(got, great_circle(p0, v0, t), atol=1e-7)
        assert abs(np.linalg.norm(vel) - 1.0) <= 1e-7
    assert abs(b.surface.h(path.pos[0]).max()) <= 1e-10


def test_unit_speed_drift_budget(warped_backend):
    path = integrate_batch(warped_backend, [[0.3, 0.1]], [[1.0, 0.0]], 1.0,
                           1e-3)
    assert path.drift[0] <= 1e-6


# -- conserved quantities: each metric below has a Killing field ------------

_ANGLES = 2.0 * np.pi * np.arange(16) / 16


def _chart_starts(b):
    p0 = np.stack([np.linspace(0.0, 1.0, 16, endpoint=False),
                   np.full(16, 0.3)], axis=-1)
    v0 = np.stack([np.cos(_ANGLES), np.sin(_ANGLES)], axis=-1)
    return p0, v0 / b.norm(p0, v0)[:, None]


def _clairaut_drift(b, dt):
    # g = diag(1, b(x)^2) does not depend on y: p_y = b(x)^2 y' is constant
    B = integrate_batch(b, *_chart_starts(b), 1.5, dt)
    p_y = dense_metric(b, B.pos)[..., 1, 1] * B.vel[..., 1]
    return np.max(np.abs(p_y - p_y[:, :1]))


@pytest.mark.parametrize("dt", [1e-3, 2e-3, 4e-3])
def test_warped_clairaut_momentum_is_conserved(warped_backend, dt):
    assert _clairaut_drift(warped_backend, dt) <= 1e-9


def test_warped_clairaut_drift_scales_as_rk4(warped_backend):
    # with exact Christoffel symbols the only drift is RK4's O(dt^4)
    # truncation: 4x the step gives 256x the drift, and at least 50x
    assert (_clairaut_drift(warped_backend, 4e-3)
            >= 50.0 * _clairaut_drift(warped_backend, 1e-3))


@pytest.mark.parametrize("dt", [1e-3, 4e-3])
def test_flat_torus_momenta_are_exact(flat_backend, dt):
    B = integrate_batch(flat_backend, *_chart_starts(flat_backend), 1.5, dt)
    assert np.array_equal(B.vel, np.broadcast_to(B.vel[:, :1], B.vel.shape))


@pytest.mark.parametrize("dt", [1e-3, 2e-3, 4e-3])
def test_sphere_axial_angular_momentum_is_conserved(sphere_backend, dt):
    # rotations about the z axis are isometries: x y' - y x' is constant
    z = np.linspace(-0.8, 0.8, 16)
    r = np.sqrt(1.0 - z * z)
    p0 = np.stack([r * np.cos(_ANGLES), r * np.sin(_ANGLES), z], axis=-1)
    e_phi = np.stack([-np.sin(_ANGLES), np.cos(_ANGLES), np.zeros(16)], -1)
    e_up = np.cross(p0, e_phi)
    v0 = (np.cos(3 * _ANGLES)[:, None] * e_phi
          + np.sin(3 * _ANGLES)[:, None] * e_up)
    B = integrate_batch(sphere_backend, p0, v0, 3.0, dt)
    L = B.pos[..., 0] * B.vel[..., 1] - B.pos[..., 1] * B.vel[..., 0]
    assert np.max(np.abs(L - L[:, :1])) <= 1e-12


def test_oversized_step_trips_drift_audit(sphere_backend):
    with pytest.raises(IntegrationError):
        integrate_batch(sphere_backend, [[1.0, 0.0, 0.0]],
                        [[0.0, 1.0, 0.0]], 3.0, 0.75)


def test_rk4_refinement_order(warped_backend):
    # endpoint error should fall ~2^4 per halving; accept [12, 20]
    b = warped_backend
    p0, v0 = [[0.1, 0.2]], [[0.8, 0.6]]
    ref = integrate_batch(b, p0, v0, 1.0, 1e-4).pos[0, -1]
    e = {dt: np.linalg.norm(integrate_batch(b, p0, v0, 1.0, dt).pos[0, -1]
                            - ref)
         for dt in (4e-3, 2e-3)}
    ratio = e[4e-3] / e[2e-3]
    assert 12.0 <= ratio <= 20.0


def test_batch_matches_single(warped_backend):
    b = warped_backend
    p0 = np.array([[0.1, 0.2], [0.5, 0.9]])
    v0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    batch = integrate_batch(b, p0, v0, 0.8, 1e-3)
    for i in range(2):
        single = integrate_batch(b, p0[i:i + 1], v0[i:i + 1], 0.8, 1e-3)
        np.testing.assert_array_equal(batch.pos[i], single.pos[0])


def test_ellipsoid_batch_rows_match_each_row_alone_bitwise(rng):
    # off a sphere every step's projection takes Newton steps, as many as
    # the row needs: a row ends where integrating it alone ends
    b = ImplicitSurface(level_surface("ellipsoid", semi_axes=(1.4, 1.0, 0.7)))
    p0 = b.project(rng.standard_normal((12, 3)))
    v0 = b.tangent_project(p0, rng.standard_normal((12, 3)))
    v0 /= b.norm(p0, v0)[:, None]
    batch = integrate_batch(b, p0, v0, 0.6, 1e-2)
    for i in range(len(p0)):
        alone = integrate_batch(b, p0[i:i + 1], v0[i:i + 1], 0.6, 1e-2)
        np.testing.assert_array_equal(batch.pos[i], alone.pos[0])
        np.testing.assert_array_equal(batch.vel[i], alone.vel[0])


def test_final_grid_point_is_exactly_t_max(flat_backend):
    path = integrate_batch(flat_backend, [[0, 0]], [[1, 0]], 0.7771, 1e-3)
    assert path.t[-1] == 0.7771


def test_hermite_sample_reproduces_grid_and_interpolates():
    t = np.linspace(0.0, 1.0, 11)
    pos = np.stack([np.sin(t), np.cos(t)], axis=-1)
    vel = np.stack([np.cos(t), -np.sin(t)], axis=-1)
    p, v = hermite_sample(t, pos, vel, t[4])
    np.testing.assert_allclose(p, pos[4], atol=1e-15)
    p, _ = hermite_sample(t, pos, vel, 0.437)
    np.testing.assert_allclose(p, [np.sin(0.437), np.cos(0.437)], atol=1e-6)


def test_normal_exp_flat_line(flat_backend):
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0), y0=0.0))
    base, n = unit_normals(flat_backend, N, [0.25], ["+"])
    got = integrate_batch(flat_backend, base, n, 0.3, 1e-3).pos[0, -1]
    np.testing.assert_allclose(got, [0.25, 0.3], atol=1e-10)


# -- normal-exponential Jacobian --------------------------------------------

def test_jacobian_det_positive_before_focal_flat(flat_backend):
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0), y0=0.0))
    jac = normal_exp_jacobian(flat_backend, N, 0.25, 1, 0.9, 1e-3)
    assert np.all(jac.det > 0.0)
    assert jac.first_zero() is None


def test_jacobian_first_zero_sphere_equator(sphere_backend):
    from cutlab.submanifold import surface_curve
    N = curve_submanifold(surface_curve("equator", radius=1.0))
    jac = normal_exp_jacobian(sphere_backend, N, 0.125, 1, 2.0, 1e-3)
    assert jac.first_zero() == pytest.approx(np.pi / 2, abs=1e-6)
    assert not jac.fd_warning


def test_jacobian_richardson_consistency(sphere_backend):
    # halving the s-step changes the FD derivative ~4x less (2nd order)
    from cutlab.submanifold import surface_curve
    N = curve_submanifold(surface_curve("equator", radius=1.0))
    j1 = normal_exp_jacobian(sphere_backend, N, 0.1, 1, 1.0, 1e-3, fd=2e-4)
    j2 = normal_exp_jacobian(sphere_backend, N, 0.1, 1, 1.0, 1e-3, fd=1e-4)
    # det = |c'(s)| cos t = 2 pi cos t on the unit sphere equator
    ref = 2.0 * np.pi * np.cos(np.linspace(0, 1.0, len(j1.det)))
    e1 = np.max(np.abs(j1.det - ref))
    e2 = np.max(np.abs(j2.det - ref))
    assert e2 <= e1 + 1e-9


def _reference_hermite(tg, pos, vel, t):
    """The scalar cubic Hermite formula, written out with float64 scalars."""
    if t <= tg[0]:
        return pos[0], vel[0]
    if t >= tg[-1]:
        return pos[-1], vel[-1]
    i = int(np.searchsorted(tg, t, side="right")) - 1
    h = tg[i + 1] - tg[i]
    s = (t - tg[i]) / h
    p0, p1, m0, m1 = pos[i], pos[i + 1], vel[i] * h, vel[i + 1] * h
    p = ((2 * s**3 - 3 * s**2 + 1) * p0 + (s**3 - 2 * s**2 + s) * m0
         + (-2 * s**3 + 3 * s**2) * p1 + (s**3 - s**2) * m1)
    v = ((6 * s**2 - 6 * s) / h * p0 + (3 * s**2 - 4 * s + 1) / h * m0
         + (-6 * s**2 + 6 * s) / h * p1 + (3 * s**2 - 2 * s) / h * m1)
    return p, v


def test_hermite_batch_matches_hermite_sample_bitwise(warped_backend):
    batch = integrate_batch(warped_backend, [[0.1, 0.2], [0.3, 0.4]],
                            [[0.6, 0.8], [-0.8, 0.6]], 0.3, 1e-2)
    tg = batch.t
    ts = np.concatenate([tg, 0.5 * (tg[:-1] + tg[1:]),
                         np.linspace(0.0, 0.3, 1001),
                         [-1.0, -1e-12, tg[-1], 0.3 + 1e-12, 5.0]])
    J = np.arange(ts.size) % 2
    P, V = hermite_batch(tg, batch.pos, batch.vel, J, ts)
    for j, t, p, v in zip(J, ts, P, V):
        p1, v1 = hermite_sample(tg, batch.pos[j], batch.vel[j], t)
        p2, v2 = _reference_hermite(tg, batch.pos[j], batch.vel[j], t)
        np.testing.assert_array_equal(p, p1)
        np.testing.assert_array_equal(v, v1)
        np.testing.assert_array_equal(p, p2)
        np.testing.assert_array_equal(v, v2)
    # at and beyond both ends the first/last node comes back exactly
    for t, i in ((-1.0, 0), (tg[0], 0), (tg[-1], -1), (5.0, -1)):
        p, v = hermite_batch(tg, batch.pos, batch.vel, [1], [t])
        np.testing.assert_array_equal(p[0], batch.pos[1, i])
        np.testing.assert_array_equal(v[0], batch.vel[1, i])


# -- backend steps against the bodies that branched on the backend kind -----

_STARTS = {"warped": ([[0.1, 0.2], [0.5, 0.9]], [[0.6, 0.8], [0.0, 1.0]]),
           "sphere_psi": ([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]],
                          [[0.0, 0.6, 0.8], [1.0, 0.0, 0.0]])}


@pytest.mark.parametrize("name", ["warped", "sphere_psi"])
def test_integrate_batch_matches_reference_bitwise(name, request):
    b = request.getfixturevalue(name + "_backend")
    p0, v0 = _STARTS[name]
    batch = integrate_batch(b, p0, v0, 0.6, 2e-3)
    pos, vel = reference_integrate(b, p0, v0, 0.6, 2e-3)
    np.testing.assert_array_equal(batch.pos, pos)
    np.testing.assert_array_equal(batch.vel, vel)


@pytest.mark.parametrize("name", ["sphere-equator", "ellipsoid-point"])
def test_surface_paths_match_einsum_step_bitwise(name, sphere_backend):
    if name == "sphere-equator":
        b, N = sphere_backend, curve_submanifold(surface_curve("equator"))
    else:
        b = ImplicitSurface(level_surface("ellipsoid",
                                          semi_axes=(1.4, 1.0, 0.7)))
        N = point_submanifold(b.project(np.array([0.3, 0.2, 0.6])))
    _, p0, v0 = normal_starts(b, N, 16)
    batch = integrate_batch(b, p0, v0, 0.8, 4e-3)
    pos, vel = reference_integrate(b, p0, v0, 0.8, 4e-3,
                                   einsum_surface_gamma2)
    np.testing.assert_array_equal(batch.pos, pos)
    np.testing.assert_array_equal(batch.vel, vel)
