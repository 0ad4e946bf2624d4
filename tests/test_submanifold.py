import numpy as np
import pytest

from cutlab.geometry import (GeometryError, ImplicitSurface, PeriodicChart,
                             ambient_scalar_field, chart_metric_field,
                             conformal_family, level_surface)
from cutlab.submanifold import (TUBE_RADIUS, CurveSpec, chart_curve,
                                curve_submanifold, embedding_family,
                                foot_point, foot_points, frames_for,
                                golden_section, point_submanifold,
                                principal_curvature_bound, shape_operators,
                                surface_curve, unit_normals)

from oracles import (reference_direction_frame, reference_foot_points,
                     reference_interpolate, reference_shape_operator,
                     reference_unit_normal)


@pytest.fixture(scope="module")
def chart_circle():
    return curve_submanifold(
        chart_curve("chart-circle", (1.0, 1.0), center=(0.5, 0.5), r=0.2))


def test_curve_periodicity():
    c = chart_curve("horizontal-circle", (1.0, 1.0), y0=0.3)
    np.testing.assert_allclose(c(np.array([0.0])), c(np.array([1.0])),
                               atol=1e-15)


def test_curve_velocity_smooth_across_seam():
    c = chart_curve("horizontal-circle", (1.0, 1.0), y0=0.3)
    v = c.velocity(np.array([0.0, 0.5, 0.999999]))
    np.testing.assert_allclose(v, np.tile([1.0, 0.0], (3, 1)), atol=1e-6)


def _normal(b, N, s, side):
    """``unit_normals`` at the one parameter s on one side: (base, n)."""
    base, n = unit_normals(b, N, [s], [side])
    return base[0], n[0]


def _kappa(b, N, s, side):
    return float(shape_operators(b, N, [s], [side])[0])


def test_unit_normal_is_unit_and_orthogonal(warped_backend, chart_circle):
    b, N = warped_backend, chart_circle
    for s in (0.0, 0.13, 0.5, 0.77):
        for side in (1, -1):
            base, n = _normal(b, N, s, side)
            tan = N.curve.velocity(np.array([s]))[0]
            assert float(b.norm(base, n)) == pytest.approx(1.0, abs=1e-9)
            assert abs(float(b.inner(base, n, tan))) <= 1e-8


def test_unit_normal_sides_are_opposite(flat_backend, chart_circle):
    _, n_plus = _normal(flat_backend, chart_circle, 0.3, "+")
    _, n_minus = _normal(flat_backend, chart_circle, 0.3, "-")
    np.testing.assert_allclose(n_plus, -n_minus, atol=1e-14)


def test_unit_normal_orientation_flat_circle(flat_backend, chart_circle):
    # side + is left of c'; for a counterclockwise circle that is inward
    base, n = _normal(flat_backend, chart_circle, 0.0, "+")
    np.testing.assert_allclose(base, [0.7, 0.5], atol=1e-14)
    np.testing.assert_allclose(n, [-1.0, 0.0], atol=1e-9)


def test_shape_operator_flat_line_is_zero(flat_backend):
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0), y0=0.2))
    for side in (1, -1):
        assert abs(_kappa(flat_backend, N, 0.4, side)) <= 1e-8


def test_shape_operator_flat_circle(flat_backend, chart_circle):
    # inward normal: focal point at the center, t = r, so kappa = -1/r
    assert _kappa(flat_backend, chart_circle, 0.2, "+") == \
        pytest.approx(-5.0, rel=1e-5)
    assert _kappa(flat_backend, chart_circle, 0.2, "-") == \
        pytest.approx(5.0, rel=1e-5)


def test_shape_operator_sphere_equator(sphere_backend):
    N = curve_submanifold(surface_curve("equator", radius=1.0))
    for side in (1, -1):
        assert abs(_kappa(sphere_backend, N, 0.1, side)) <= 1e-6


def test_shape_operator_sphere_latitude(sphere_backend):
    z0 = 0.6
    N = curve_submanifold(surface_curve("latitude", radius=1.0, z0=z0))
    want = z0 / np.sqrt(1.0 - z0 * z0)
    got = {side: _kappa(sphere_backend, N, 0.25, side)
           for side in (1, -1)}
    assert sorted(abs(v) for v in got.values()) == \
        pytest.approx([want, want], rel=1e-4)
    assert got[1] * got[-1] < 0.0


def test_principal_curvature_bound(flat_backend, chart_circle):
    assert principal_curvature_bound(flat_backend, chart_circle) == \
        pytest.approx(1.1 * 5.0, rel=1e-4)
    assert principal_curvature_bound(
        flat_backend, point_submanifold([0.5, 0.5])) == 0.0


def _ellipsoid_latitude(a, b, c, z0):
    """The curve {z = z0} on the ellipsoid with semi-axes (a, b, c)."""
    rho = np.sqrt(1.0 - (z0 / c) ** 2)

    def fn(s):
        t = 2.0 * np.pi * s
        return np.stack([a * rho * np.cos(t), b * rho * np.sin(t),
                         np.full_like(s, z0)], axis=-1)

    return curve_submanifold(CurveSpec(fn))


def _frame_case(name):
    L = (1.0, 1.0)
    sphere = ImplicitSurface(level_surface("sphere", radius=1.0))
    if name == "warped-circle":
        return (PeriodicChart(L, chart_metric_field("warped-diag", L,
                                                    amplitude=0.2)),
                curve_submanifold(chart_curve("chart-circle", L,
                                              center=(0.4, 0.6), r=0.2)))
    if name == "bump-line":
        return (PeriodicChart(L, chart_metric_field("conformal-bump", L,
                                                    amplitude=0.1)),
                curve_submanifold(chart_curve("horizontal-circle", L,
                                              y0=0.3)))
    if name == "sphere-latitude":
        return sphere, curve_submanifold(surface_curve("latitude", z0=0.3))
    if name == "ellipsoid":
        return (ImplicitSurface(level_surface("ellipsoid",
                                              semi_axes=(1.4, 1.0, 0.7))),
                _ellipsoid_latitude(1.4, 1.0, 0.7, 0.3))
    psi = ambient_scalar_field("sine-z", amplitude=0.5, wavenumber=2.0)
    return (conformal_family(sphere, psi, 0.7),
            curve_submanifold(surface_curve("latitude", z0=0.3)))


@pytest.mark.parametrize("name", ["warped-circle", "bump-line",
                                  "sphere-latitude", "ellipsoid",
                                  "sphere-psi"])
def test_batched_normals_and_shape_operators_match_scalar_bodies(name):
    b, N = _frame_case(name)
    s = np.concatenate([N.sample_params(64),
                        np.random.default_rng(3).uniform(-1.0, 2.0, 16)])
    s = np.repeat(s, 2)
    sides = np.tile([1, -1], len(s) // 2)
    base, n = unit_normals(b, N, s, sides)
    kappa = shape_operators(b, N, s, sides)
    for i in range(len(s)):
        ref_base, ref_n = reference_unit_normal(b, N, s[i], sides[i])
        assert base[i].tobytes() == ref_base.tobytes()
        assert n[i].tobytes() == ref_n.tobytes()
        ref_kappa = reference_shape_operator(b, N, s[i], sides[i])
        assert kappa[i] == ref_kappa
    assert principal_curvature_bound(b, N) == 1.1 * max(
        abs(reference_shape_operator(b, N, si, side))
        for si in N.sample_params() for side in (1, -1))


def test_degenerate_row_raises_the_scalar_loop_message(sphere_backend):
    # c(s) = (0, 0, 1.2 + 0.2 cos 2 pi s) moves along the surface normal:
    # its normal is degenerate wherever it moves and its velocity vanishes
    # at s = 0 (the central difference is exactly symmetric there)
    def fn(s):
        z = 1.2 + 0.2 * np.cos(2.0 * np.pi * s)
        return np.stack([np.zeros_like(s), np.zeros_like(s), z], axis=-1)

    N = curve_submanifold(CurveSpec(fn))
    for rows, want in (([0.3, 0.0], "degenerate normal at s=0.3"),
                       ([0.0, 0.3], "degenerate curve velocity at s=0.0")):
        for batched, scalar in ((unit_normals, reference_unit_normal),
                                (shape_operators, reference_shape_operator)):
            with pytest.raises(GeometryError) as got:
                batched(sphere_backend, N, rows, [1, -1])
            with pytest.raises(GeometryError) as ref:
                for si, side in zip(rows, [1, -1]):
                    scalar(sphere_backend, N, si, side)
            assert str(got.value) == str(ref.value) == want


def test_latitude_requires_interior_height():
    with pytest.raises(GeometryError):
        surface_curve("latitude", radius=1.0, z0=1.0)


def test_frames_for_counts_and_order(flat_backend, chart_circle):
    frames = frames_for(flat_backend, chart_circle, 8)
    assert len(frames) == 16
    assert [f.side for f in frames] == [1] * 8 + [-1] * 8
    pt = frames_for(flat_backend, point_submanifold([0.2, 0.3]), 8)
    assert len(pt) == 8
    _, n = unit_normals(flat_backend, point_submanifold([0.2, 0.3]),
                        [pt[3].s], [1])
    np.testing.assert_array_equal(pt[3].n, n[0])


def test_foot_point_flat_line(flat_backend):
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0), y0=0.0))
    s, d_est = foot_point(flat_backend, N, [0.37, 0.04])
    assert s == pytest.approx(0.37, abs=1e-6)
    assert d_est == pytest.approx(0.04, abs=1e-6)


def test_foot_point_wraparound(flat_backend):
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0), y0=0.0))
    _, d_est = foot_point(flat_backend, N, [0.999, 0.98])
    assert d_est == pytest.approx(0.02, abs=1e-6)


def test_foot_point_beyond_tube_is_coarse(warped_backend):
    # beyond TUBE_RADIUS d_est is the raw aux distance, not the g-length of
    # the gap, which is 1.2 times longer here (sqrt G = 1.2 at x = 0.25)
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0), y0=0.0))
    q = np.array([0.25, 0.4])
    s, d_est = foot_point(warped_backend, N, q)
    foot = N.curve(np.array([s]))
    assert d_est > TUBE_RADIUS
    assert d_est == warped_backend.aux_distance(foot, q)[0]
    assert warped_backend.gap_length(foot, q)[0] == \
        pytest.approx(1.2 * d_est, rel=1e-6)


def test_foot_point_of_point_submanifold(flat_backend):
    _, d_est = foot_point(flat_backend, point_submanifold([0.25, 0.25]),
                          [0.25, 0.3])
    assert d_est == pytest.approx(0.05, abs=1e-9)


def test_foot_points_match_foot_point_row_by_row(warped_backend):
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0), y0=0.0))
    Q = np.array([[0.37, 0.04], [0.999, 0.98], [0.5, 0.4], [0.0, 0.0]])
    s, d_est = foot_points(warped_backend, N, Q)
    for i, q in enumerate(Q):
        assert foot_point(warped_backend, N, q) == (s[i], d_est[i])


def test_golden_section_per_element_brackets():
    # f_i(x) = (x - x_i)^2 on brackets of different widths; the last bracket
    # starts converged and must never be evaluated again
    x_star = np.array([0.3, -2.0, 7.25, 1.0])
    lo = np.array([0.0, -3.0, 7.0, 0.9])
    hi = np.array([1.0, 5.0, 7.5, 0.9 + 1e-10])
    seen = []

    def f(x, idx):
        seen.append(idx.copy())
        return (x - x_star[idx]) ** 2

    got = golden_section(f, lo, hi, 1e-9)
    np.testing.assert_allclose(got[:3], x_star[:3], atol=1e-8)
    assert got[3] == 0.5 * (lo[3] + hi[3])
    assert all(3 not in idx for idx in seen[1:])
    # narrower brackets converge sooner and drop out of later evaluations
    assert 2 in seen[1] and 2 not in seen[-1] and 1 in seen[-1]


def test_embedding_family_endpoints_chart(flat_backend):
    N0 = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0),
                                       y0=0.0))
    N1 = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0),
                                       y0=0.1))
    assert embedding_family(flat_backend, N0, N1, 0.0) is N0
    s = np.array([0.0, 0.3, 0.8])
    for tau, y in ((1.0, 0.1), (0.5, 0.05)):
        Nt = embedding_family(flat_backend, N0, N1, tau)
        np.testing.assert_allclose(Nt.curve(s)[:, 1], y, atol=1e-12)


def test_embedding_family_surface_stays_on_surface(sphere_backend):
    N0 = curve_submanifold(surface_curve("equator", radius=1.0))
    N1 = curve_submanifold(surface_curve("latitude", radius=1.0, z0=0.3))
    Nt = embedding_family(sphere_backend, N0, N1, 0.5)
    pts = Nt.sample_points(64)
    assert np.max(np.abs(sphere_backend.surface.h(pts))) <= 1e-10


def test_embedding_family_dim_mismatch(flat_backend):
    N0 = point_submanifold([0.2, 0.2])
    N1 = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0)))
    with pytest.raises(GeometryError):
        embedding_family(flat_backend, N0, N1, 0.5)


# -- backend steps against the bodies that branched on the backend kind -----

@pytest.mark.parametrize("name", ["warped", "sphere", "sphere_psi"])
def test_foot_points_match_reference_bitwise(name, request, rng):
    b = request.getfixturevalue(name + "_backend")
    if name == "warped":
        curve = chart_curve("chart-circle", (1.0, 1.0), center=(0.4, 0.6),
                            r=0.2)
        point = [0.95, 0.25]
    else:
        curve = surface_curve("latitude", z0=0.3)
        point = [0.0, 0.6, 0.8]
    for N in (curve_submanifold(curve, m_N=64), point_submanifold(point)):
        # queries scattered about N, inside and beyond the tube
        near = N.sample_points(40) if N.dim else np.tile(N.point, (40, 1))
        Q = near + rng.normal(scale=0.1, size=near.shape)
        if b.periods is None:
            Q = b.project(Q)
        got = foot_points(b, N, Q)
        *want, beyond = reference_foot_points(b, N, Q)
        assert not beyond.all() and beyond.any()    # both branches taken
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("name", ["warped", "sphere", "sphere_psi"])
def test_direction_circle_matches_reference_bitwise(name, request):
    b = request.getfixturevalue(name + "_backend")
    p = [0.3, 0.7] if name == "warped" else [0.0, 0.6, 0.8]
    for j, f in enumerate(frames_for(b, point_submanifold(p), 32)):
        ref = reference_direction_frame(b, p, 2.0 * np.pi * j / 32)
        assert f.s == 2.0 * np.pi * j / 32
        assert f.n.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", ["warped", "sphere"])
def test_embedding_family_matches_reference_bitwise(name, request):
    b = request.getfixturevalue(name + "_backend")
    if name == "warped":
        L = (1.0, 1.0)
        points = [0.9, 0.2], [0.1, 0.35]         # across the seam
        curves = (chart_curve("horizontal-circle", L, y0=0.95),
                  chart_curve("chart-circle", L, center=(0.5, 0.1), r=0.2))
    else:
        points = [0.0, 0.6, 0.8], [0.6, 0.0, -0.8]
        curves = (surface_curve("equator"), surface_curve("latitude", z0=0.3))
    s = np.linspace(-0.5, 1.5, 41)
    for tau in (0.3, 0.7, 1.0):
        Nt = embedding_family(b, point_submanifold(points[0]),
                              point_submanifold(points[1]), tau)
        ref = reference_interpolate(b, np.array(points[0]),
                                    np.array(points[1]), tau)
        assert Nt.point.tobytes() == ref.tobytes()
        Ct = embedding_family(b, curve_submanifold(curves[0]),
                              curve_submanifold(curves[1]), tau)
        np.testing.assert_array_equal(
            Ct.curve(s),
            reference_interpolate(b, curves[0](s), curves[1](s), tau))
