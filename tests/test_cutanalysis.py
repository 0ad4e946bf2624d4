import math

import numpy as np
import pytest

from cutlab import cutanalysis
from cutlab.config import build_family_field, scenario
from cutlab.cutanalysis import (ANGLE_TOL, CAPTURE_RADIUS, _clusters,
                                compute_profiles, cut_time, cut_times,
                                cut_locus_cloud, f_min, focal_times_batch,
                                injectivity_radius_char,
                                injectivity_radius_direct, loop_scan,
                                separating_points, warner_bound)
from cutlab.geodesics import hermite_batch, hermite_sample
from cutlab.geometry import ImplicitSurface, conformal_family, level_surface
from cutlab.submanifold import chart_curve, curve_submanifold, \
    frames_for, point_submanifold, surface_curve
from cutlab.stability import Resolution, run_case
from cutlab.wavefront import build_atlas, distance

from oracles import (axis_loop_length, fine_scan_cut_time,
                     flat_torus_point_distance, jacobi_first_zero_const_K,
                     mirror_axis_times, normal_exp_jacobian,
                     reference_crossing_times, reference_focal_times)


@pytest.fixture(scope="module")
def point_atlas(flat_backend):
    return build_atlas(flat_backend, point_submanifold([0.25, 0.25]), 128,
                       0.78, 1e-3)


def test_excess_zero_before_cut(point_atlas):
    batch = point_atlas.batch
    p, _ = hermite_sample(batch.t, batch.pos[0], batch.vel[0], 0.3)
    assert abs(0.3 - distance(point_atlas, p).d) <= 2e-3


def test_cut_time_flat_point_axis_direction(point_atlas):
    # direction (1, 0): cut at the antipodal line x = 0.75, rho = 0.5
    rho, method = cut_time(point_atlas, 0)
    assert rho == pytest.approx(0.5, abs=3e-3)
    assert method == "crossing"


def test_cut_time_matches_fine_scan_oracle(flat_backend, point_atlas):
    p = np.array([0.25, 0.25])
    for j in (0, 10, 32, 80):
        a = 2.0 * np.pi * j / 128

        def path(t, a=a):
            return p + t * np.array([np.cos(a), np.sin(a)])

        want = fine_scan_cut_time(
            lambda q: flat_torus_point_distance(p, q), path, 0.78, 1e-4)
        rho, _ = cut_time(point_atlas, j)
        assert rho == pytest.approx(want, abs=3e-3)


def test_cut_time_no_cut_flag(flat_backend):
    # front too short to reach any cut point
    atlas = build_atlas(flat_backend, point_submanifold([0.25, 0.25]), 128,
                        0.4, 1e-3)
    rho, method = cut_time(atlas, 0)
    assert method == "none"
    assert rho >= 0.3


def _atlas(name, m, t_max, dt):
    cfg = scenario(name)
    b = cfg.build_backend()
    return build_atlas(b, cfg.build_submanifold(b), m, t_max, dt)


@pytest.mark.parametrize("name, m, t_max, dt", [
    ("flat-torus-line", 64, 0.8, 1e-3),
    ("flat-torus-point", 64, 0.78, 2e-3),
    ("warped-torus-bump-sweep", 64, 1.6, 4e-3),
    ("sphere-equator", 64, 3.4, 4e-3),
    ("ellipsoid-equator", 32, 3.6, 1e-2),
])
def test_cut_times_match_scalar_search_bitwise(name, m, t_max, dt):
    # the boxes and blocks only prune: the scan of every pair at every step
    # finds the same crossings (the ellipsoid's on a surface; every sphere
    # direction is cut at its focal time)
    if name == "ellipsoid-equator":
        b = ImplicitSurface(level_surface("ellipsoid",
                                          semi_axes=(1.4, 1.0, 0.7)))
        atlas = build_atlas(b, curve_submanifold(surface_curve("equator")),
                            m, t_max, dt)
    else:
        atlas = _atlas(name, m, t_max, dt)
    focal = focal_times_batch(atlas.backend, atlas.N, atlas)
    rho, method = cut_times(atlas, focal)
    want_rho, want_method = reference_crossing_times(atlas, focal)
    assert rho.tobytes() == want_rho.tobytes()
    assert method == want_method
    assert all(type(m) is str for m in method)
    if name != "sphere-equator":    # there every direction is cut at t_f
        assert "crossing" in method
    if method[5] == "crossing":         # cut_time has no t_f
        assert cut_time(atlas, 5) == (rho[5], method[5])


# -- the crossing search against closed forms and mirror symmetry -----------

BUMP_RES = Resolution(m=64, dt=4e-3, t_max=1.6)


def _bump_run(tau):
    cfg = scenario("warped-torus-bump-sweep")
    b = cfg.build_backend()
    b_tau = conformal_family(b, build_family_field(cfg, b), tau)
    return run_case(b_tau, cfg.build_submanifold(b), BUMP_RES,
                    keep_atlas=True)


@pytest.mark.parametrize("case", [0.2, 0.1, 0.05, "warped-torus-line"])
def test_no_cut_time_passes_the_mirror_axis(case):
    # a geodesic that reaches x = 0.25 or 0.75 meets its mirror image there
    if case == "warped-torus-line":
        cfg = scenario(case)
        b = cfg.build_backend()
        r = run_case(b, cfg.build_submanifold(b),
                     Resolution(m=64, dt=4e-3, t_max=1.4), keep_atlas=True)
    else:
        r = _bump_run(case)
    rho = np.array([p.rho for p in r.profiles])
    t_axis = mirror_axis_times(r.atlas)
    reach = np.isfinite(t_axis)
    assert reach.sum() >= 120
    excess = rho[reach] - t_axis[reach]
    assert np.max(excess) <= 2.0 * r.atlas.dt, np.max(excess)


@pytest.mark.parametrize("tau", [0.2, 0.1, 0.05, 0.025])
def test_axis_cut_time_is_at_most_its_half_loop_and_focal_time(tau):
    # the up and down geodesics on an axis meet half a loop along it
    r = _bump_run(tau)
    m = BUMP_RES.m
    for j in (m // 4, 3 * m // 4, m + m // 4, m + 3 * m // 4):
        p = r.profiles[j]
        half_loop = 0.5 * axis_loop_length(r.atlas.backend, p.s)
        t_jac = normal_exp_jacobian(r.atlas.backend, r.atlas.N, p.s, p.side,
                                    1.2, BUMP_RES.dt).first_zero()
        for t_f in (p.focal_t, np.inf if t_jac is None else t_jac):
            assert p.rho <= min(t_f, half_loop) + 2.0 * BUMP_RES.dt, j


def test_flat_torus_point_cut_times_match_the_closed_form():
    # from (0.25, 0.25) the ray at angle s meets its mirror image on the
    # first line x = 0.75 or y = 0.75 it reaches
    atlas = _atlas("flat-torus-point", 64, 1.2, 2e-3)
    rho, _ = cut_times(atlas)
    s = np.array([f.s for f in atlas.frames])
    want = 0.5 / np.maximum(np.abs(np.cos(s)), np.abs(np.sin(s)))
    np.testing.assert_allclose(rho, want, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("case", ["grid-node", "vertex", "two-roots",
                                  "every-edge"])
def test_degenerate_meetings_are_found(case):
    if case == "grid-node":
        # at tau = 0 the axis pair from x = 0.75 meets at t = 0.4, a grid
        # node, where the orientation is 0.0: the sign test counts a zero
        # at a step's end
        r = _bump_run(0.0)
        assert [r.profiles[j].rho for j in (48, 112)] == \
            pytest.approx([0.4, 0.4], abs=1e-9)
    elif case == "vertex":
        # mirror pairs and head-on pairs meet at a vertex of each other's
        # front: the flat line's cut at y = 1/2, and the bump's mirror pairs
        # s and 1/2 - s alike
        atlas = _atlas("flat-torus-line", 64, 0.8, 1e-3)
        rho, _ = cut_times(atlas)
        np.testing.assert_allclose(rho, 0.5, rtol=0.0, atol=1e-12)
        r = _bump_run(0.0)
        rho = np.array([p.rho for p in r.profiles]).reshape(2, 64)
        mirror = (32 - np.arange(64)) % 64
        np.testing.assert_allclose(rho, rho[:, mirror], rtol=0, atol=1e-9)
    elif case == "two-roots":
        # near the axis at tau = 0.025, L_axis / 2 and t_f lie less than a
        # step apart: a step holding two roots counts
        rho_0 = np.array([p.rho for p in _bump_run(0.0).profiles])
        rho = np.array([p.rho for p in _bump_run(0.025).profiles])
        assert np.max(np.abs(rho - rho_0)) < 1e-2
    else:
        # every edge counts, also one whose directions are already cut
        r = _bump_run(0.2)
        assert not any(p.no_cut for p in r.profiles)
        t_axis = mirror_axis_times(r.atlas)
        rho = np.array([p.rho for p in r.profiles])
        reach = np.isfinite(t_axis)
        assert np.all(rho[reach] <= t_axis[reach] + 2.0 * BUMP_RES.dt)


# -- focal times ------------------------------------------------------------

def test_focal_times_flat_point_infinite(flat_backend, point_atlas):
    focal = focal_times_batch(flat_backend, point_submanifold([0.25, 0.25]),
                              point_atlas)
    assert np.all(np.isinf(focal))


def test_focal_time_sphere_point_matches_closed_form(sphere_backend):
    # K = 1, point source: first conjugate point at t = pi
    N = point_submanifold(sphere_backend.project(np.array([0.0, 0.0, 1.0])))
    atlas = build_atlas(sphere_backend, N, 32, 3.3, 1e-3)
    focal = focal_times_batch(sphere_backend, N, atlas)
    want = jacobi_first_zero_const_K(1.0, 0.0, 0)
    np.testing.assert_allclose(focal, want, atol=1e-5)


@pytest.mark.parametrize("name", ["sphere-equator", "warped-torus-line",
                                  "ellipsoid-point"])
def test_focal_times_match_direction_major_loop_bitwise(name):
    if name == "ellipsoid-point":
        b = ImplicitSurface(level_surface("ellipsoid",
                                          semi_axes=(1.4, 1.0, 0.7)))
        N = point_submanifold(b.project(np.array([0.3, 0.2, 0.6])))
        atlas = build_atlas(b, N, 16, 3.6, 1e-2)
    else:
        atlas = _atlas(name, 16, {"sphere-equator": 1.8}.get(name, 1.4),
                       4e-3)
        b, N = atlas.backend, atlas.N
    focal = focal_times_batch(b, N, atlas)
    assert np.isfinite(focal).any()
    np.testing.assert_array_equal(focal, reference_focal_times(b, N, atlas))


def test_focal_times_stop_once_every_direction_flips(monkeypatch):
    # every sphere-equator direction meets a pole at t = pi / 2 < t_max / 2:
    # the steps end there, and the zeros keep the bits of the full loop
    atlas = _atlas("sphere-equator", 128, 3.4, 4e-3)
    b, N = atlas.backend, atlas.N
    rows, first_zeros = [], cutanalysis._first_zeros

    def spy(tg, y, yp, start):
        rows.append(len(y))
        return first_zeros(tg, y, yp, start)

    monkeypatch.setattr(cutanalysis, "_first_zeros", spy)
    focal = focal_times_batch(b, N, atlas)
    assert np.isfinite(focal).all()
    assert rows and rows[0] < 0.5 * len(atlas.batch.t)
    np.testing.assert_array_equal(focal, reference_focal_times(b, N, atlas))


def test_focal_time_flat_circle_matches_closed_form(flat_backend):
    # inward normal of an r = 0.2 chart circle focuses at the center, t = r
    N = curve_submanifold(chart_curve("chart-circle", (1.0, 1.0),
                                      center=(0.5, 0.5), r=0.2))
    atlas = build_atlas(flat_backend, N, 32, 0.28, 1e-3)
    focal = focal_times_batch(flat_backend, N, atlas)
    inward = focal[:32]     # side + comes first and points inward
    want = jacobi_first_zero_const_K(0.0, -5.0, 1)
    assert want == pytest.approx(0.2)
    np.testing.assert_allclose(inward, want, atol=1e-4)
    assert np.all(np.isinf(focal[32:]))


def test_focal_jacobian_oracle_agrees(sphere_backend):
    from cutlab.submanifold import surface_curve
    N = curve_submanifold(surface_curve("equator", radius=1.0))
    frame = frames_for(sphere_backend, N, 5)[1]      # s = 0.2, side +
    t0 = normal_exp_jacobian(sphere_backend, N, frame.s, frame.side, 2.0,
                             1e-3).first_zero()
    assert t0 == pytest.approx(np.pi / 2, abs=1e-5)


# -- loops ------------------------------------------------------------------

def test_loop_scan_flat_line(flat_backend, flat_line):
    l_half = flat_line.result.l_half
    assert l_half == pytest.approx(0.5, abs=2e-3)


def _returns(b, atlas, per_dir):
    """The directions with a loop, and the wrapped position and g-unit
    velocity of each one's path at its return time."""
    J = np.array([j for j, t in enumerate(per_dir) if t is not None])
    t = np.array([per_dir[j] for j in J])
    p, v = hermite_batch(atlas.batch.t, atlas.batch.pos, atlas.batch.vel,
                         J, t)
    return J, b.wrap(p), v / b.norm(p, v)[:, None]


def test_loop_scan_point_flat_torus(flat_backend):
    # shortest loops through a point are the length-1 closed chart geodesics
    N = point_submanifold([0.25, 0.25])
    atlas = build_atlas(flat_backend, N, 64, 1.1, 1e-3)
    l_half, per_dir = loop_scan(flat_backend, N, atlas)
    assert l_half == pytest.approx(0.5, abs=2e-3)
    J, p, _ = _returns(flat_backend, atlas, per_dir)
    assert J.size
    # each path is back at the point when its loop closes
    assert np.max(flat_backend.aux_distance(N.point, p)) <= CAPTURE_RADIUS


def test_loop_polish_of_a_point_runs_one_golden_section(flat_backend,
                                                        monkeypatch):
    # a point N's target and brackets are fixed: a second round of the
    # polish would be the first one again, bit for bit
    golden, calls = cutanalysis.golden_section, []

    def once(*args):
        t = golden(*args)
        assert np.array_equal(golden(*args), t)
        calls.append(len(t))
        return t

    monkeypatch.setattr(cutanalysis, "golden_section", once)
    N = point_submanifold([0.25, 0.25])
    atlas = build_atlas(flat_backend, N, 64, 1.1, 1e-3)
    l_half, _ = loop_scan(flat_backend, N, atlas)
    assert l_half == pytest.approx(0.5, abs=2e-3)
    assert len(calls) == 1 and calls[0] > 0


def test_loop_scan_line_across_chart_seam(flat_backend):
    # a line hugging y = 1 has its capture tube split by the chart seam; the
    # hashed return detector must see the same loops as for a mid-chart line
    found = {}
    for y0 in (0.5, 0.9995):
        N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0),
                                          y0=y0))
        atlas = build_atlas(flat_backend, N, 64, 1.2, 2e-3)
        l_half, per_dir = loop_scan(flat_backend, N, atlas)
        found[y0] = (l_half,
                     {j for j, r in enumerate(per_dir) if r is not None})
        # each loop returns to the line, at a right angle to its tangent
        # (1, 0) up to ANGLE_TOL
        J, p, v = _returns(flat_backend, atlas, per_dir)
        on_line = np.stack([p[:, 0], np.full(len(p), y0)], axis=-1)
        assert np.max(flat_backend.aux_distance(p, on_line)) <= CAPTURE_RADIUS
        assert np.max(np.abs(v[:, 0])) <= ANGLE_TOL
    assert found[0.9995][0] == pytest.approx(found[0.5][0], abs=1e-9)
    assert found[0.9995][1] == found[0.5][1]
    assert len(found[0.5][1]) == 128


# -- assembly ---------------------------------------------------------------

def _profiles(b, N, atlas):
    focal = focal_times_batch(b, N, atlas)
    _, loops = loop_scan(b, N, atlas)
    return compute_profiles(b, atlas, focal, *cut_times(atlas, focal), loops)


def test_compute_profiles_flat_point(flat_backend, point_atlas):
    N = point_submanifold([0.25, 0.25])
    profiles = _profiles(flat_backend, N, point_atlas)
    assert len(profiles) == 128
    # one stored method per profile; no_cut and flags are read from it
    assert {p.method for p in profiles} == {"crossing"}
    assert not any(p.no_cut for p in profiles)
    assert profiles[0].flags == {"method": "crossing", "no_cut": False}
    assert "flags" not in vars(profiles[0])
    assert injectivity_radius_direct(profiles) == pytest.approx(0.5, abs=3e-3)
    cloud = cut_locus_cloud(flat_backend, profiles)
    # cut locus is the cross {x = 0.75} union {y = 0.75}
    dev = np.min(np.stack([np.abs(cloud.points[:, 0] - 0.75),
                           np.abs(cloud.points[:, 1] - 0.75)]), axis=0)
    assert np.max(dev) <= 5e-3


def test_separating_points_flat_point(flat_backend, point_atlas):
    N = point_submanifold([0.25, 0.25])
    profiles = _profiles(flat_backend, N, point_atlas)
    seps = separating_points(flat_backend, N, profiles)
    assert seps
    assert all(sp.flag == "sep" for sp in seps)
    assert all(sp.multiplicity >= 2 for sp in seps)


@pytest.mark.parametrize("name", ["flat-torus-line", "sphere-equator"])
def test_clusters_match_pair_loop(name, rng):
    # clumps of nearby points, some across the chart seam, plus stragglers
    b = scenario(name).build_backend()
    centres = rng.random((6, b.dim))
    centres[0, 0] = 0.9995
    pts = np.concatenate([centres[rng.integers(0, 6, 120)]
                          + 1e-3 * rng.standard_normal((120, b.dim)),
                          rng.random((30, b.dim))])
    pts = b.wrap(pts) if b.dim == 2 else b.project(pts)
    pair_tol = 2e-3
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if float(b.aux_distance(pts[i], pts[j])) <= pair_tol:
                parent[find(i)] = find(j)
    want: dict[int, list[int]] = {}
    for i in range(len(pts)):
        want.setdefault(find(i), []).append(i)
    got = _clusters(b, pts, pair_tol)
    assert got == list(want.values())
    assert 1 < len(got) < len(pts)


def test_injectivity_radius_char_branches():
    assert injectivity_radius_char(0.3, 0.7) == (0.3, "focal")
    assert injectivity_radius_char(0.9, 0.4) == (0.4, "loop")
    v, branch = injectivity_radius_char(0.5, 0.502)
    assert branch == "both" and v == 0.5
    v, branch = injectivity_radius_char(np.inf, np.inf)
    assert np.isinf(v) and branch.startswith("inconclusive")
    assert injectivity_radius_char(np.inf, 0.5) == (0.5, "loop")


def test_f_min():
    assert f_min(np.array([0.7, np.inf, 0.3])) == 0.3
    assert f_min(np.array([])) == np.inf


# -- focal-free length bound ------------------------------------------------

def test_warner_bound_limits_and_values():
    lim = warner_bound(4.0, 0.0)
    assert lim["eps_std"] == pytest.approx(np.pi / 4)
    assert lim["eps_paper"] == lim["eps_std"]
    w = warner_bound(1.0, 1.0)
    assert w["eps_std"] == pytest.approx(np.pi / 4)
    assert w["eps_paper"] == pytest.approx(np.pi / 4)
    w2 = warner_bound(4.0, 1.0)
    assert w2["eps_std"] == pytest.approx(math.atan(2.0) / 2.0)
    assert w2["eps_paper"] == pytest.approx(math.atan(4.0) / 2.0)
    # both decrease in Delta at fixed K
    assert warner_bound(1.0, 2.0)["eps_std"] < w["eps_std"]


def test_warner_bound_rejects_nonpositive_curvature():
    with pytest.raises(ValueError):
        warner_bound(0.0, 1.0)
    with pytest.raises(ValueError):
        warner_bound(-1.0, 1.0)
