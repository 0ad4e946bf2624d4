import math
import os

import numpy as np
import pytest

from cutlab import cutanalysis
from cutlab.config import scenario
from cutlab.cutanalysis import (_clusters, _kink_root, compute_profiles,
                                cut_time, cut_times, cut_locus_cloud, f_min,
                                focal_times_batch, injectivity_radius_char,
                                injectivity_radius_direct, loop_scan,
                                separating_points, warner_bound)
from cutlab.geodesics import hermite_sample
from cutlab.geometry import ImplicitSurface, level_surface
from cutlab.submanifold import chart_curve, curve_submanifold, \
    frames_for, point_submanifold, surface_curve
from cutlab.wavefront import CoverageError, build_atlas, distance

from oracles import (fine_scan_cut_time, flat_torus_point_distance,
                     jacobi_first_zero_const_K, normal_exp_jacobian,
                     reference_cut_time, reference_focal_times)


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
    rho, flags = cut_time(point_atlas, 0)
    assert rho == pytest.approx(0.5, abs=3e-3)
    assert not flags["no_cut"]


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
    rho, flags = cut_time(atlas, 0)
    assert flags["no_cut"]
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
])
def test_cut_times_match_scalar_search_bitwise(name, m, t_max, dt):
    atlas = _atlas(name, m, t_max, dt)
    rho, flags = cut_times(atlas)
    for j in range(atlas.batch.n_paths):
        want = reference_cut_time(atlas, j, lambda q: distance(atlas, q).d,
                                  _kink_root)
        assert (rho[j], flags[j]) == want, j
    methods = {f["method"] for f in flags}
    assert "kink" in methods
    assert cut_time(atlas, 5) == (rho[5], flags[5])


def test_cut_times_raise_the_first_failing_direction():
    # 16 directions on an ellipsoid: the coverage margin swallows the front,
    # and the directions fail with different distances
    b = ImplicitSurface(level_surface("ellipsoid", semi_axes=(1.0, 0.8, 0.6)))
    atlas = build_atlas(b, curve_submanifold(surface_curve("equator")), 16,
                        0.5, 1e-2)
    with pytest.raises(CoverageError) as ex:
        cut_times(atlas)
    failures = []
    for j in range(atlas.batch.n_paths):
        try:
            reference_cut_time(atlas, j, lambda q: distance(atlas, q).d,
                               _kink_root)
        except CoverageError as first:
            failures.append(str(first))
    assert len(set(failures)) > 1
    assert str(ex.value) == failures[0]
    assert "increase m" in failures[0]


# -- direction shares -------------------------------------------------------

def _no_child_left():
    with pytest.raises(ChildProcessError):      # none running, none unreaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", ["flat-torus-line", "warped-torus-line",
                                  "sphere-equator"])
def test_cut_time_shares_match_the_serial_search_bitwise(name):
    cfg = scenario(name)
    b = cfg.build_backend()
    atlas = build_atlas(b, cfg.build_submanifold(b), 64,
                        cfg.resolution.t_max, 4e-3)
    rho, flags = cut_times(atlas, 1e-3)
    assert {f["method"] for f in flags} >= {"kink"}
    for n in (1, 2, 3, 8):
        rho_n, flags_n = cut_times(atlas, 1e-3, workers=n)
        _no_child_left()
        assert rho_n.tobytes() == rho.tobytes(), n
        assert flags_n == flags, n


def test_cut_time_shares_raise_the_lowest_failing_direction(flat_backend,
                                                            monkeypatch):
    # the vertical geodesics x = s of the flat line, 16 per side: every probe
    # with x in [0.3, 0.7] fails at a distance that names its x, so
    # directions 5-11 and 21-27 fail, each with its own message; the lowest,
    # 5, lies in share 5 % n, not in this process's share
    atlas = build_atlas(flat_backend, curve_submanifold(chart_curve(
        "horizontal-circle", (1.0, 1.0), y0=0.0)), 16, 1.2, 1e-2)
    rows = cutanalysis._distance_rows

    def failing(atlas, Q):
        d, err, j, t, status = rows(atlas, Q)
        x = np.mod(Q[:, 0], 1.0)
        bad = (x >= 0.3) & (x <= 0.7)
        return np.where(bad, x, d), err, j, t, np.where(bad, 2, status)

    monkeypatch.setattr(cutanalysis, "_distance_rows", failing)
    messages = set()
    for n in (1, 2, 3, 8):
        with pytest.raises(CoverageError) as ex:
            cut_times(atlas, workers=n)
        _no_child_left()
        messages.add(str(ex.value))
    assert len(messages) == 1
    assert messages.pop().startswith("distance 0.3125 at coverage edge")
    # "lowest" is the position in dirs: reversed, direction 27 (x = 11/16)
    # comes first, at position 4, in share 1 of 3
    with pytest.raises(CoverageError, match="^distance 0.6875 "):
        cut_times(atlas, dirs=np.arange(32)[::-1], workers=3)
    _no_child_left()


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


def test_loop_scan_point_flat_torus(flat_backend):
    # shortest loops through a point are the length-1 closed chart geodesics
    N = point_submanifold([0.25, 0.25])
    atlas = build_atlas(flat_backend, N, 64, 1.1, 1e-3)
    l_half, per_dir = loop_scan(flat_backend, N, atlas)
    assert l_half == pytest.approx(0.5, abs=2e-3)
    hits = [r for r in per_dir if r is not None]
    assert hits
    assert all(r.angle_residual <= 1e-3 for r in hits)


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
    assert found[0.9995][0] == pytest.approx(found[0.5][0], abs=1e-9)
    assert found[0.9995][1] == found[0.5][1]
    assert len(found[0.5][1]) == 128


# -- assembly ---------------------------------------------------------------

def test_compute_profiles_flat_point(flat_backend, point_atlas):
    N = point_submanifold([0.25, 0.25])
    _, loops = loop_scan(flat_backend, N, point_atlas)
    profiles = compute_profiles(flat_backend, N, point_atlas, loops)
    assert len(profiles) == 128
    assert injectivity_radius_direct(profiles) == pytest.approx(0.5, abs=3e-3)
    cloud = cut_locus_cloud(flat_backend, profiles)
    # cut locus is the cross {x = 0.75} union {y = 0.75}
    dev = np.min(np.stack([np.abs(cloud.points[:, 0] - 0.75),
                           np.abs(cloud.points[:, 1] - 0.75)]), axis=0)
    assert np.max(dev) <= 5e-3


def test_separating_points_flat_point(flat_backend, point_atlas):
    N = point_submanifold([0.25, 0.25])
    _, loops = loop_scan(flat_backend, N, point_atlas)
    profiles = compute_profiles(flat_backend, N, point_atlas, loops)
    seps = separating_points(flat_backend, N, profiles, pair_tol=3e-3)
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
