import os

import numpy as np
import pytest

from cutlab.config import scenario
from cutlab.geodesics import hermite_sample
from cutlab.geometry import PeriodicChart, chart_metric_field
from cutlab.stability import Resolution, run_case
from cutlab.submanifold import chart_curve, curve_submanifold, \
    point_submanifold, surface_curve
from cutlab import wavefront
from cutlab.wavefront import (_near, _nearest, _sample_index, build_atlas,
                              distance, eikonal_probes, eikonal_residual,
                              validation_grid)

from oracles import (brute_distance, flat_torus_line_distance,
                     flat_torus_point_distance, reference_gradient_probes,
                     reference_eikonal_residual, reference_grad_norm,
                     reference_near, reference_nearest,
                     reference_validation_grid)


@pytest.fixture(scope="module")
def flat_line_atlas(flat_backend):
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0), y0=0.0))
    return build_atlas(flat_backend, N, 64, 0.8, 1e-3)


@pytest.fixture(scope="module")
def flat_point_atlas(flat_backend):
    return build_atlas(flat_backend, point_submanifold([0.25, 0.25]), 128,
                       0.9, 1e-3)


def _every(atlas):
    """A focal time per direction that trims no sample."""
    return np.full(atlas.batch.n_paths, np.inf)


def test_distance_flat_line_matches_closed_form(flat_line_atlas, rng):
    Q = rng.random((40, 2))
    Q = Q[np.minimum(Q[:, 1], 1.0 - Q[:, 1]) <= 0.45]  # not the cut locus
    d, err, _j, _t, status = distance(flat_line_atlas, Q,
                                      _every(flat_line_atlas))
    want = np.array([flat_torus_line_distance(q) for q in Q])
    assert np.all(status == 0)
    assert d == pytest.approx(want, abs=2e-3)
    assert np.all(np.abs(d - want) <= err)


def test_distance_flat_point_matches_closed_form(flat_point_atlas, rng):
    p = np.array([0.25, 0.25])
    Q = rng.random((40, 2))
    want = np.array([flat_torus_point_distance(p, q) for q in Q])
    keep = (want >= 0.02) & (want <= 0.62)
    d, _err, _j, _t, status = distance(flat_point_atlas, Q[keep],
                                       _every(flat_point_atlas))
    assert np.all(status == 0)
    assert d == pytest.approx(want[keep], abs=2e-3)


def test_distance_err_and_metadata(flat_line_atlas):
    d, err, j, t, status = distance(flat_line_atlas, np.array([[0.4, 0.2]]),
                                    _every(flat_line_atlas))
    assert status[0] == 0
    assert err[0] > 0.0
    assert 0 <= j[0] < len(flat_line_atlas.frames)
    assert 0.0 <= t[0] <= flat_line_atlas.t_max


def test_coverage_error_past_front(flat_backend):
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0), y0=0.0))
    short = build_atlas(flat_backend, N, 64, 0.3, 1e-3)
    # true distance 0.5 > front extent 0.3
    assert distance(short, np.array([[0.1, 0.5]]), _every(short))[4][0] != 0


def test_small_direction_count_rejected(flat_backend):
    with pytest.raises(ValueError):
        build_atlas(flat_backend,
                    point_submanifold([0.5, 0.5]), 8, 0.5, 1e-3)


def test_tie_break_is_deterministic(flat_line_atlas):
    # equidistant from both sides of the line: repeated queries must agree,
    # within one call and across calls
    Q = np.tile([0.3, 0.2], (5, 1))
    runs = [distance(flat_line_atlas, Q[:k], _every(flat_line_atlas))
            for k in (1, 5)]
    assert runs[0][4][0] == 0
    for got in runs:
        for g, base in zip(got, runs[0]):
            assert np.all(g == base[0])


def test_thread_count_does_not_change_atlas(flat_backend):
    # the atlas takes no thread count; two builds must agree exactly
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0), y0=0.0))
    a1 = build_atlas(flat_backend, N, 64, 0.8, 1e-3)
    a8 = build_atlas(flat_backend, N, 64, 0.8, 1e-3)
    np.testing.assert_array_equal(a1.sample_pos, a8.sample_pos)
    np.testing.assert_array_equal(a1.sample_t, a8.sample_t)


def test_validation_grid_chart(flat_backend):
    grid = validation_grid(flat_backend, 0.25)
    assert grid.shape == (16, 2)
    assert np.all((grid >= 0.0) & (grid < 1.0))


def test_validation_grid_surface_on_surface(sphere_backend):
    grid = validation_grid(sphere_backend, 0.3)
    assert np.max(np.abs(sphere_backend.surface.h(grid))) <= 1e-10


@pytest.mark.parametrize("spacing", [0.1, 0.05, 0.02])
@pytest.mark.parametrize("surface", ["sphere", "ellipsoid"])
def test_validation_grid_surface_matches_pointwise_net(surface, spacing):
    from cutlab.geometry import ImplicitSurface, level_surface
    params = {"radius": 1.0} if surface == "sphere" else \
        {"semi_axes": (1.4, 1.0, 0.7)}
    b = ImplicitSurface(level_surface(surface, **params))
    got = validation_grid(b, spacing)
    want = reference_validation_grid(b, spacing)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_eikonal_residual_flat_line(flat_line_atlas):
    cut = np.stack([np.linspace(0, 1, 41), np.full(41, 0.5)], axis=-1)
    rep = eikonal_residual(flat_line_atlas,
                           eikonal_probes(flat_line_atlas, 0.05,
                                          _every(flat_line_atlas)),
                           cut_points=cut)
    assert rep["count"] > 100
    assert rep["frac_below_1e2"] >= 0.95


def _ellipsoid_point():
    from cutlab.geometry import ImplicitSurface, level_surface
    b = ImplicitSurface(level_surface("ellipsoid", semi_axes=(1.4, 1.0, 0.7)))
    return b, point_submanifold(b.project(np.array([0.5, 0.6, 0.62])))


def _psi_sphere():
    from cutlab.geometry import ImplicitSurface, ambient_scalar_field, \
        level_surface
    b = ImplicitSurface(level_surface("sphere", radius=1.0),
                        psi=ambient_scalar_field("sine-z", amplitude=0.3))
    return b, curve_submanifold(surface_curve("equator", radius=1.0))


# (backend and N, resolution) of the validate scenarios the eikonal check
# is compared on
EIKONAL_CASES = {
    "sphere-equator": (None, Resolution(m=128, dt=4e-3, t_max=3.4)),
    "flat-torus-line": (None, Resolution(m=64, dt=4e-3, t_max=1.2)),
    "flat-torus-point": (None, Resolution(m=64, dt=4e-3, t_max=1.2)),
    "warped-torus-line": (None, Resolution(m=64, dt=4e-3, t_max=1.4)),
    "warped-torus-bump-sweep": (None, Resolution(m=64, dt=4e-3, t_max=1.6)),
    "ellipsoid-point": (_ellipsoid_point, Resolution(m=64, dt=4e-3,
                                                     t_max=4.0)),
    "psi-sphere-equator": (_psi_sphere, Resolution(m=64, dt=4e-3,
                                                   t_max=3.4)),
}


def _validate_eikonal(name, workers):
    """validate's eikonal check of a scenario: run_case with the probes as
    its beside job, then the cut-locus tubes masked out."""
    make, res = EIKONAL_CASES[name]
    if make is None:
        cfg = scenario(name)
        b = cfg.build_backend()
        N = cfg.build_submanifold(b)
    else:
        b, N = make()
    spacing = 0.05 if b.dim == 2 else 0.1
    r = run_case(b, N, res, keep_atlas=True, workers=workers,
                 beside=lambda atlas, focal: eikonal_probes(atlas, spacing,
                                                            focal))
    rep = eikonal_residual(r.atlas, r.beside, cut_points=r.cloud.points)
    return r, spacing, rep


def _assert_same_report(got, want):
    assert got["residuals"].tobytes() == want["residuals"].tobytes()
    assert {k: v for k, v in got.items() if k != "residuals"} == \
        {k: v for k, v in want.items() if k != "residuals"}


@pytest.mark.parametrize("name", ["sphere-equator", "flat-torus-line",
                                  "flat-torus-point", "warped-torus-line",
                                  "ellipsoid-point", "psi-sphere-equator"])
def test_focal_trimmed_eikonal_matches_the_one_pass_check_bitwise(name):
    # the probes of the points in the cut-locus tubes are queried and then
    # masked, from an index of the samples before their focal time (plus
    # cap): no pick of a kept point lies past its direction's focal time
    r, spacing, rep = _validate_eikonal(name, 1)
    want = reference_eikonal_residual(r.atlas, spacing, r.cloud.points)
    _assert_same_report(rep, want)
    assert rep["count"] > 100


@pytest.mark.parametrize("name", ["flat-torus-line",
                                  "warped-torus-bump-sweep",
                                  "sphere-equator"])
def test_eikonal_report_does_not_depend_on_workers(name):
    reports = []
    for workers in (1, 2, 3):
        reports.append(_validate_eikonal(name, workers)[2])
        with pytest.raises(ChildProcessError):      # no worker left behind
            os.waitpid(-1, os.WNOHANG)
    for rep in reports[1:]:
        _assert_same_report(rep, reports[0])


def test_the_focal_trimmed_index_drops_the_samples_past_focal_times():
    cfg = scenario("sphere-equator")
    b = cfg.build_backend()
    atlas = build_atlas(b, cfg.build_submanifold(b), 64, 3.4, 4e-3)
    focal = np.full(atlas.batch.n_paths, 0.5 * np.pi)
    trimmed = _sample_index(atlas, focal)
    kept = np.sort(trimmed.order)
    cap = np.maximum(1.5 * atlas.sample_gap, 3.0 * atlas.dt)
    np.testing.assert_array_equal(
        kept, np.flatnonzero(atlas.sample_t <= 0.5 * np.pi + cap))
    assert 0.4 < len(kept) / len(atlas.sample_t) < 0.6
    assert len(_sample_index(atlas, _every(atlas)).order) == \
        len(atlas.sample_t)


# -- batched queries against the brute-force scan ----------------------------

@pytest.fixture(scope="module")
def bump_atlas():
    # base case of the bump sweep: sample caps reach 0.89 against a 0.046 cell
    cfg = scenario("warped-torus-bump-sweep")
    b = cfg.build_backend()
    return build_atlas(b, cfg.build_submanifold(b), 64, 1.6, 4e-3)


@pytest.fixture(scope="module")
def sphere_atlas(sphere_backend):
    N = curve_submanifold(surface_curve("equator", radius=1.0))
    return build_atlas(sphere_backend, N, 64, 3.4, 4e-3)


def _queries(atlas, rng, n=80):
    """Scattered points plus points on and beside the atlas geodesics, where
    the cut-time search probes."""
    b = atlas.backend
    if b.dim == 2:
        scattered = rng.random((n, 2)) * np.array(b.periods)
    else:
        scattered = b.project(rng.standard_normal((n, 3)))
    J = rng.integers(0, atlas.batch.n_paths, n)
    T = rng.random(n) * atlas.t_max
    batch = atlas.batch
    on_paths = np.array([hermite_sample(batch.t, batch.pos[j], batch.vel[j],
                                        t)[0] for j, t in zip(J, T)])
    beside = on_paths + 1e-3 * rng.standard_normal(on_paths.shape)
    if b.dim == 3:
        beside = b.project(beside)
    return np.concatenate([scattered, on_paths, beside])


def _assert_rows_match_brute(atlas, Q):
    d, err, j, t, status = distance(atlas, Q, _every(atlas))
    want = [brute_distance(atlas, q) for q in Q]
    np.testing.assert_array_equal(status, [w[5] for w in want])
    np.testing.assert_array_equal(d, [w[0] for w in want])
    np.testing.assert_array_equal(err, [w[1] for w in want])
    np.testing.assert_array_equal(j, [w[2] for w in want])
    np.testing.assert_array_equal(t, [w[3] for w in want])
    return want


@pytest.mark.parametrize("name", ["flat_line_atlas", "flat_point_atlas",
                                  "bump_atlas", "sphere_atlas"])
def test_distance_many_matches_brute_scan_bitwise(name, request, rng):
    atlas = request.getfixturevalue(name)
    Q = _queries(atlas, rng)
    if name == "flat_line_atlas":
        Q = np.concatenate([[[0.3, 0.2]], Q])   # equidistant from both sides
    want = _assert_rows_match_brute(atlas, Q)
    ok = np.array([w[5] == 0 for w in want])
    assert ok.sum() > len(Q) // 2
    # a row's answer does not depend on the other rows
    full = distance(atlas, Q, _every(atlas))
    for rows in (np.flatnonzero(ok), np.flatnonzero(ok)[:1]):
        for g, f in zip(distance(atlas, Q[rows], _every(atlas)), full):
            np.testing.assert_array_equal(g, f[rows])


def test_distance_many_ring_ladder_matches_brute_scan(flat_backend):
    # a short front from a point under the bump metric: queries just past it
    # find no near sample in ring 1 and widen the ring
    cfg = scenario("warped-torus-bump-sweep")
    atlas = build_atlas(cfg.build_backend(), point_submanifold([0.25, 0.25]),
                        64, 0.3, 4e-3)
    x, y = np.meshgrid(np.linspace(0.5, 0.65, 16), np.linspace(0.1, 0.25, 16))
    Q = np.stack([x.ravel(), y.ravel()], axis=-1)
    want = _assert_rows_match_brute(atlas, Q)
    rings = [w[4] for w in want if w[4] is not None]
    assert max(rings) > 1 and min(rings) == 1
    assert {w[5] for w in want} == {0, 1, 2}


def test_uncertified_queries_get_the_edge_and_no_sample_status(
        flat_backend, sphere_backend):
    # the coverage margin max(5 dt, 2 median_gap) is set by dt on the first
    # atlas and by the direction spacing on the second
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0), y0=0.0))
    short = build_atlas(flat_backend, N, 64, 0.3, 1e-2)
    sparse = build_atlas(sphere_backend,
                         curve_submanifold(surface_curve("equator")), 16, 0.5,
                         1e-2)
    for atlas, by_gap in ((short, False), (sparse, True)):
        assert (2.0 * atlas.median_gap > 5.0 * atlas.dt) == by_gap
        Q = _queries(atlas, np.random.default_rng(7), 40)
        status = distance(atlas, Q, _every(atlas))[4]
        assert 2 in status
    status = distance(short, np.array([[0.1, 0.1], [0.1, 0.5]]),
                      _every(short))[4]
    assert status.tolist() == [0, 1]


def test_distance_err_squares_like_a_python_float(flat_point_atlas, rng):
    # err = (gap * lam)^2 + dt must round like the scalar float ** 2, which
    # an ndarray ** 2 misses in about one case per thousand
    atlas = flat_point_atlas
    Q = rng.random((4000, 2))
    d, err, j, t, status = distance(atlas, Q, _every(atlas))
    ok = np.flatnonzero(status == 0)
    tg = atlas.batch.t
    s = j[ok] * len(tg) + np.searchsorted(tg, t[ok])
    gaps = atlas.backend.aux_distance(atlas.sample_pos[s], Q[ok])
    want = [float(g * lam) ** 2 + atlas.dt
            for g, lam in zip(gaps, atlas.sample_lam[s])]
    np.testing.assert_array_equal(err[ok], want)


# -- backend steps against the bodies that branched on the backend kind -----

@pytest.fixture(scope="module")
def ellipsoid_backend():
    from cutlab.geometry import ImplicitSurface, level_surface
    return ImplicitSurface(level_surface("ellipsoid",
                                         semi_axes=(1.4, 1.0, 0.7)))


@pytest.mark.parametrize("name", ["warped", "sphere", "sphere_psi",
                                  "ellipsoid"])
def test_probes_and_dual_norm_match_reference_bitwise(name, request, rng):
    b = request.getfixturevalue(name + "_backend")
    pts = validation_grid(b, 0.2)
    probes, steps = b.probe_pairs(pts, 0.05)
    ref_probes, ref_steps = reference_gradient_probes(b, pts, 0.05)
    np.testing.assert_array_equal(probes, ref_probes)
    np.testing.assert_array_equal(steps, ref_steps)
    du = rng.normal(size=(len(pts), 2))
    got = b.dual_norm(pts, du)
    for q, d, g in zip(pts, du, got):
        assert g == reference_grad_norm(b, q, d)


# -- the near filter at the seam and the sort-free pick ----------------------

@pytest.fixture(scope="module")
def odd_period_atlas():
    # periods that are no powers of two, where the wraparound rounds
    L = (0.7, 1.3)
    b = PeriodicChart(L, chart_metric_field("warped-diag", L, amplitude=0.2))
    return build_atlas(b, point_submanifold([0.3, 0.6]), 128, 1.0, 2e-3)


def _seam_queries(rng, L, n=40):
    """Points within 1e-4 of the chart's seams x = 0 = L1 and y = 0 = L2."""
    side = rng.integers(0, 2, (n, 2))
    off = 1e-4 * rng.random((n, 2))
    seam = np.where(side == 0, off, L - off)
    free = rng.random((n, 2)) * L
    pick_axis = rng.integers(0, 3, n)     # seam in x, in y, or in both
    return np.where(pick_axis[:, None] == np.array([0, 1]), free, seam)


@pytest.mark.parametrize("name", ["flat_point_atlas", "bump_atlas",
                                  "odd_period_atlas"])
def test_distance_many_matches_brute_scan_at_the_seam(name, request, rng):
    # queries beside the seam and whole periods away test the wraparound
    # of the gaps and of the query cells
    atlas = request.getfixturevalue(name)
    L = np.array(atlas.backend.periods)
    base = _seam_queries(rng, L)
    shifts = np.array([[0, 0], [1, 0], [-1, 0], [0, 2], [-2, -2], [2, -1]])
    Q = np.concatenate([base + k * L for k in shifts])
    want = _assert_rows_match_brute(atlas, Q)
    assert sum(w[5] == 0 for w in want) > len(Q) // 2


def _at_cap_pairs(atlas, rng, n=1500, steps=48):
    """Queries at the cap of random samples, on a ladder of one-ulp moves
    of their x coordinate, shifted by 0, +-1 and +-2 periods: pairs on both
    sides of gap == cap at rounding resolution.  Returns Q, qi, s and the
    number of pairs whose exact gap equals the cap."""
    b = atlas.backend
    s0 = rng.integers(0, len(atlas.sample_t), n)
    caps = np.maximum(1.5 * atlas.sample_gap, 3.0 * atlas.dt)
    x, cap = atlas.sample_pos[s0], caps[s0]
    ang = rng.random(n) * 2.0 * np.pi
    q0 = x + cap[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    Q, S = [], []
    for k in (0, 1, -1, 2, -2):
        q = q0 + k * np.array(b.periods)
        for j in range(-steps, steps + 1):
            qj = q.copy()
            qj[:, 0] += j * np.spacing(qj[:, 0])
            Q.append(qj)
            S.append(s0)
    Q, s = np.concatenate(Q), np.concatenate(S)
    exact = np.sqrt(np.sum(b.aux_gap(atlas.sample_pos[s], Q) ** 2, axis=-1))
    at_cap = int(np.count_nonzero(exact == caps[s]))
    return Q, np.arange(len(Q)), s, at_cap


@pytest.mark.parametrize("name", ["flat_point_atlas", "bump_atlas",
                                  "odd_period_atlas"])
def test_near_filter_keeps_pairs_at_the_cap(name, request, rng):
    atlas = request.getfixturevalue(name)
    Q, qi, s, at_cap = _at_cap_pairs(atlas, rng)
    assert at_cap >= 20
    got = _near(atlas, Q, qi, s)
    want = reference_near(atlas, Q, qi, s)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    # queries at a cap go through the index as well
    near_q = want[0][rng.permutation(len(want[0]))[:150]]
    _assert_rows_match_brute(atlas, Q[near_q])


@pytest.mark.parametrize("name", ["flat_line_atlas", "bump_atlas"])
def test_sort_free_pick_matches_the_lexsort_pick_on_ties(name, request, rng):
    # with a zero gap each value is the sample's t, shared by every
    # direction at one time step, so most rows tie; a nonzero gap checks
    # the per-pair covectors against b.inner, on a varying metric too
    atlas = request.getfixturevalue(name)
    n_t = len(atlas.batch.t)
    n_s = len(atlas.sample_t)
    tied = 0
    for trial in range(40):
        n_q = int(rng.integers(1, 300))
        k = int(rng.integers(1, 3000))
        step = rng.integers(0, 3, k) if trial % 2 else rng.integers(0, n_t, k)
        s = rng.integers(0, n_s // n_t, k) * n_t + step
        qi = rng.integers(0, n_q, k) + int(rng.integers(0, 50))
        key = np.unique(qi * n_s + s)            # each pair once
        key = key[rng.permutation(len(key))]
        qi, s = key // n_s, key % n_s
        vec = np.zeros((len(s), 2))
        if trial % 4 == 3:
            vec = 1e-3 * rng.standard_normal(vec.shape)
        gaps = rng.random(len(s))
        out = []
        for pick_fn in (_nearest, reference_nearest):
            pick = np.full(400, -1)
            d, gap = np.full(400, np.nan), np.full(400, np.nan)
            pick_fn(atlas, qi, s, gaps, vec, pick, d, gap)
            out.append((pick, d, gap))
        for g, w in zip(*out):
            np.testing.assert_array_equal(g, w)
        t = atlas.sample_t[s]
        rows = np.unique(qi)
        tied += sum(np.count_nonzero((qi == r) & (t == out[0][1][r])) > 1
                    for r in rows[:20])
    assert tied > 100


@pytest.mark.parametrize("case", ["groups", "ladder"])
def test_distance_rows_match_the_lexsort_pick(case, flat_line_atlas,
                                              flat_backend, monkeypatch, rng):
    # small pair groups split the queries across many _nearest calls; a
    # short front from a point sends queries up the ring ladder
    if case == "groups":
        atlas = flat_line_atlas
        L = np.array(atlas.backend.periods)
        Q = np.concatenate([_queries(atlas, rng), _seam_queries(rng, L)])
    else:
        atlas = build_atlas(flat_backend, point_submanifold([0.25, 0.25]),
                            64, 0.3, 4e-3)
        x, y = np.meshgrid(np.linspace(0.5, 0.65, 12),
                           np.linspace(0.1, 0.25, 12))
        Q = np.stack([x.ravel(), y.ravel()], axis=-1)
    monkeypatch.setattr(wavefront, "_CHUNK_PAIRS", 97)
    got = distance(atlas, Q, _every(atlas))
    monkeypatch.setattr(wavefront, "_nearest", reference_nearest)
    want = distance(atlas, Q, _every(atlas))
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    if case == "ladder":
        assert {0, 1, 2} <= set(got[4].tolist())
