import json
import os
import pickle
import time

import numpy as np
import pytest

from cutlab import stability
from cutlab.cli import main
from cutlab.config import scenario
from cutlab.cutanalysis import PointCloud
from cutlab.geodesics import IntegrationError, integrate_batch
from cutlab.geometry import GeometryError, ImplicitSurface, PeriodicChart, \
    ambient_scalar_field, chart_metric_field, chart_scalar_field, \
    conformal_family, level_surface, linear_blend
from cutlab.stability import (Resolution, SweepTable, _nearest_gaps,
                              _sweep_verdicts, curvature_stats,
                              cut_time_continuity_probe,
                              hausdorff_convergence_check, hausdorff_report,
                              sweep_metric_family)
from cutlab.submanifold import chart_curve, curve_submanifold, \
    point_submanifold
from cutlab.wavefront import build_atlas, normal_starts, stacked_paths

from oracles import brute_hausdorff, chart_aux_dist, reference_hausdorff


def _cloud(pts):
    pts = np.asarray(pts, dtype=float)
    return PointCloud(pts, np.arange(len(pts)))


def test_hausdorff_identical_clouds(flat_backend, rng):
    A = _cloud(rng.random((20, 2)))
    assert hausdorff_report(A, A, flat_backend).value == 0.0


def test_hausdorff_symmetry_and_sides(flat_backend, rng):
    A = _cloud(rng.random((15, 2)))
    B = _cloud(rng.random((25, 2)))
    ra = hausdorff_report(A, B, flat_backend)
    rb = hausdorff_report(B, A, flat_backend)
    assert ra.value == rb.value
    assert ra.a_to_b == rb.b_to_a
    assert ra.value == max(ra.a_to_b, ra.b_to_a)


def test_hausdorff_triangle_inequality(flat_backend, rng):
    A = _cloud(rng.random((10, 2)))
    B = _cloud(rng.random((10, 2)))
    C = _cloud(rng.random((10, 2)))
    d = lambda X, Y: hausdorff_report(X, Y, flat_backend).value
    assert d(A, C) <= d(A, B) + d(B, C) + 1e-12


def test_hausdorff_matches_brute_oracle(flat_backend, rng):
    A = _cloud(rng.random((40, 2)))
    B = _cloud(rng.random((60, 2)))
    want = brute_hausdorff(A.points, B.points, chart_aux_dist)
    assert hausdorff_report(A, B, flat_backend).value == \
        pytest.approx(want, abs=1e-12)


def test_hausdorff_known_translation(flat_backend):
    xs = np.linspace(0.0, 1.0, 50, endpoint=False)
    A = _cloud(np.stack([xs, np.full_like(xs, 0.5)], axis=-1))
    B = _cloud(np.stack([xs, np.full_like(xs, 0.57)], axis=-1))
    assert hausdorff_report(A, B, flat_backend).value == \
        pytest.approx(0.07, abs=1e-12)


def test_hausdorff_empty_cloud_raises(flat_backend):
    A = _cloud(np.random.default_rng(0).random((5, 2)))
    E = PointCloud(np.empty((0, 2)), np.empty(0, dtype=int))
    with pytest.raises(GeometryError, match="no cut locus"):
        hausdorff_report(A, E, flat_backend)


# -- scenario runs ----------------------------------------------------------

def test_a_scenario_result_pickles():
    # a sweep's forked worker sends run_case's result back as it is
    cfg = scenario("warped-torus-line")
    b = cfg.build_backend()
    r = stability.run_case(b, cfg.build_submanifold(b),
                           Resolution(m=16, dt=2e-2, t_max=0.8))
    got = pickle.loads(pickle.dumps(r))
    rho = lambda res: np.array([p.rho for p in res.profiles]).tobytes()
    assert got.inj_direct == r.inj_direct
    assert rho(got) == rho(r)
    assert got.cloud.points.tobytes() == r.cloud.points.tobytes()
    assert np.array_equal(got.cloud.dir_idx, r.cloud.dir_idx)


def test_run_case_flat_line_summary(flat_line):
    r = flat_line.result
    assert r.inj_direct == pytest.approx(0.5, abs=5e-3)
    assert r.inj_char == pytest.approx(0.5, abs=5e-3)
    assert r.branch == "loop"
    assert np.isinf(r.fmin)
    assert r.err < 0.05


def test_curvature_stats_flat_line(flat_backend):
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0), y0=0.0))
    st = curvature_stats(flat_backend, N)
    assert st["K_max"] == pytest.approx(0.0, abs=1e-10)
    assert st["Delta"] == pytest.approx(0.0, abs=1e-8)
    assert "eps_std" not in st


def test_curvature_stats_sphere(sphere_backend):
    from cutlab.submanifold import surface_curve
    N = curve_submanifold(surface_curve("equator", radius=1.0))
    st = curvature_stats(sphere_backend, N)
    assert st["K_max"] == pytest.approx(1.0, abs=1e-3)
    assert st["eps_std"] == pytest.approx(np.pi / 2, abs=5e-3)


# -- sweeps -----------------------------------------------------------------

@pytest.fixture(scope="module")
def null_sweep(flat_backend):
    # zero-amplitude conformal factor: every tau reproduces the base case
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0), y0=0.0))
    phi = chart_scalar_field("constant", (1.0, 1.0), value=0.0)
    res = Resolution(m=64, dt=2e-3, t_max=1.2)
    return sweep_metric_family(flat_backend, N, [0.2, 0.1], res, phi=phi)


def test_null_sweep_records_vanish(null_sweep):
    for rec in null_sweep.records:
        assert "error" not in rec
        assert rec["inj_dev"] <= 1e-12
        assert rec["d_H"] <= 1e-12
        assert rec["rho_dev_max"] <= 1e-12
    assert null_sweep.verdicts["pass"]


def test_null_sweep_convergence_check(null_sweep):
    chk = hausdorff_convergence_check(null_sweep)
    assert chk["verdict"]
    assert all(v <= 1e-12 for v in chk["side_tau_to_0"])
    assert all(v <= 1e-12 for v in chk["side_0_to_tau"])


def test_probes_report_the_sweep_verdicts():
    # the final rho_dev_max, 5e-3, is below 1e-2 but above this sweep's
    # final_rho_tol of 1e-3: the probe follows the sweep's own verdict, so
    # sweep.json cannot disagree with itself
    recs = [{"tau": tau, "inj_dev": x, "d_H": x, "d_H_tau_to_0": x,
             "d_H_0_to_tau": x, "rho_dev_max": rho, "rho_dev_mean": rho / 2}
            for tau, x, rho in ((0.2, 4e-3, 2e-2), (0.1, 1e-3, 5e-3))]
    table = SweepTable("hand-made", [0.2, 0.1], {},
                       {"err": 1e-5, "focal_margin": 0.1}, recs)
    table.verdicts = _sweep_verdicts(table, 1e-5, inj_tol=1e-2, dH_tol=2e-2,
                                     rho_tol=1e-3)
    assert table.verdicts["rho_decreasing"] and not table.verdicts["rho_final"]
    assert cut_time_continuity_probe(table)["verdict"] is False
    assert hausdorff_convergence_check(table)["verdict"] is True


def test_sweep_rejects_bad_ladder(flat_backend):
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0), y0=0.0))
    phi = chart_scalar_field("constant", (1.0, 1.0), value=0.0)
    res = Resolution(m=64, dt=2e-3)
    with pytest.raises(ValueError):
        sweep_metric_family(flat_backend, N, [0.1, 0.2], res, phi=phi)
    with pytest.raises(ValueError):
        sweep_metric_family(flat_backend, N, [0.2, -0.1], res, phi=phi)
    for bad in ([], [float("nan"), 0.1], [0.2, float("nan")]):
        with pytest.raises(ValueError, match="decreasing"):
            sweep_metric_family(flat_backend, N, bad, res, phi=phi)


def test_sweep_requires_exactly_one_family(flat_backend):
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0), y0=0.0))
    with pytest.raises(ValueError):
        sweep_metric_family(flat_backend, N, [0.1], Resolution())


def test_homothety_sweep_matches_scaling_law(flat_backend):
    # g_tau = e^{2 tau} g scales every cut time by e^tau: rho_dev = (e^tau-1)/2
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0), y0=0.0))
    phi = chart_scalar_field("constant", (1.0, 1.0), value=1.0)
    res = Resolution(m=64, dt=2e-3, t_max=1.6)
    table = sweep_metric_family(flat_backend, N, [0.1, 0.05], res, phi=phi)
    for tau, rec in zip(table.taus, table.records):
        want = (np.exp(tau) - 1.0) * 0.5
        assert rec["rho_dev_max"] == pytest.approx(want, abs=3e-3)
        assert rec["inj_dev"] == pytest.approx(want, abs=3e-3)


# -- case-parallel sweeps ---------------------------------------------------

@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):      # none running, none unreaped
        os.waitpid(-1, os.WNOHANG)


LADDER = [0.4, 0.3, 0.2, 0.1]


def _fake_sweep(monkeypatch, fail=lambda tau: None, workers=2):
    """_sweep over LADDER where every case is the flat-torus line at the
    smallest resolution: each record names the process that ran it, and
    ``fail(tau)`` may raise or exit where the case is set up."""
    b = scenario("flat-torus-line").build_backend()
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0),
                                      y0=0.0))

    def N_at(tau):
        fail(tau)
        return N

    run_case = stability.run_case

    def tagged(*args, **kwargs):
        result = run_case(*args, **kwargs)
        result.pid = os.getpid()
        return result

    monkeypatch.setattr(stability, "run_case", tagged)
    monkeypatch.setattr(stability, "_case_record", lambda case, base, res, b: {
        "pid": case.pid, "inj_dev": 0.0, "d_H": 0.0, "d_H_tau_to_0": 0.0,
        "d_H_0_to_tau": 0.0, "rho_dev_max": 0.0, "rho_dev_mean": 0.0})
    return stability._sweep("fake", lambda tau: b, N_at, LADDER,
                            Resolution(m=16, dt=2e-2, t_max=0.8), workers)


@pytest.mark.parametrize("workers", [1, 2, 3, 8, None])
def test_sweep_workers_take_the_ladder_round_robin(monkeypatch, workers):
    # the tau = 0 base is the first case of the ladder, run here
    table = _fake_sweep(monkeypatch, workers=workers)
    cpus = len(os.sched_getaffinity(0))
    n = min(workers or cpus, len(LADDER) + 1)   # 8 asks for 5, not 8
    pids = [table.base["pid"]] + [r["pid"] for r in table.records]
    assert len(set(pids)) == n
    assert pids == [pids[i % n] for i in range(len(LADDER) + 1)]
    assert pids[0] == os.getpid()
    assert [r["tau"] for r in table.records] == LADDER
    assert [k for k in table.timings if k.startswith("case ")] == \
        [f"case tau={t:.12g}" for t in [0.0] + LADDER]
    assert sorted(float(t) for k in table.timings if k.startswith("rk4 ")
                  for t in k.removeprefix("rk4 tau=").split(",")) == \
        [0.0] + LADDER[::-1]
    assert table.verdicts["pass"]


def test_sweep_rejects_zero_workers(monkeypatch):
    with pytest.raises(ValueError, match="workers"):
        _fake_sweep(monkeypatch, workers=0)


@pytest.mark.parametrize("failing", [(0.4, 0.3), (0.3, 0.2), (0.0, 0.4)],
                         ids=["child-then-parent", "parent-then-child",
                              "parent-first"])
def test_sweep_raises_the_earliest_failing_tau(monkeypatch, failing):
    # with 2 workers this process runs the base, 0.3 and 0.1, the child 0.4
    # and 0.2; an error of the base is raised before any other
    def fail(tau):
        if tau in failing:
            raise IntegrationError(f"speed drift at tau={tau}")

    for workers in (1, 2):
        with pytest.raises(IntegrationError) as ex:
            _fake_sweep(monkeypatch, fail, workers)
        assert type(ex.value) is IntegrationError
        assert str(ex.value) == f"speed drift at tau={failing[0]}"


@pytest.mark.parametrize("error", [KeyError("x"), OSError(2, "no such file")],
                         ids=["KeyError", "OSError"])
def test_sweep_raises_the_stop_error_itself(monkeypatch, error):
    # with 2 workers tau = 0.4 runs in the child, which pickles the error
    def fail(tau):
        if tau == 0.4:
            raise error

    for workers in (1, 2):
        with pytest.raises(type(error)) as ex:
            _fake_sweep(monkeypatch, fail, workers)
        assert type(ex.value) is type(error)
        assert ex.value.args == error.args
        assert getattr(ex.value, "errno", None) == getattr(error, "errno",
                                                           None)


def test_sweep_geometry_error_is_the_record_at_its_tau(monkeypatch):
    def fail(tau):
        if tau == 0.3:
            raise GeometryError("metric not SPD")

    table = _fake_sweep(monkeypatch, fail)
    assert table.records[1] == {"error": "GeometryError: metric not SPD",
                                "tau": 0.3}
    assert all("error" not in r for i, r in enumerate(table.records)
               if i != 1)
    assert table.verdicts == {"pass": False, "errors_at": [0.3]}


def test_sweep_child_that_exits_without_a_result_raises(monkeypatch):
    parent = os.getpid()

    def fail(tau):
        if tau == 0.2 and os.getpid() != parent:
            os._exit(3)

    with pytest.raises(RuntimeError, match=r"tau \[0\.4, 0\.2\]"):
        _fake_sweep(monkeypatch, fail)


class _Abort(BaseException):
    pass


def test_sweep_kills_children_when_its_own_share_raises(monkeypatch):
    parent = os.getpid()

    def fail(tau):
        if os.getpid() != parent:
            time.sleep(60)              # the child would outlive the test
        elif tau == 0.3:
            raise _Abort

    t0 = time.perf_counter()
    with pytest.raises(_Abort):
        _fake_sweep(monkeypatch, fail)
    assert time.perf_counter() - t0 < 30.0


# -- stacked sweeps ---------------------------------------------------------
# A worker integrates the start states of all its cases in one RK4 batch,
# on a backend that carries each row's own tau.  Forcing the stacked RK4 to
# raise makes every case run alone, as before stacking: the per-case path.

def _per_case_only(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("stacking switched off")
    monkeypatch.setattr(stability, "stacked_paths", refuse)


def test_hausdorff_report_matches_the_per_point_loop_bitwise(
        flat_backend, sphere_backend, rng):
    sphere = rng.normal(size=(70, 3))
    sphere /= np.linalg.norm(sphere, axis=1)[:, None]
    for b, A, B in ((flat_backend, rng.random((300, 2)),
                     rng.random((41, 2)) + [0.0, 0.97]),
                    (sphere_backend, sphere[:30], sphere[30:])):
        ca, cb = _cloud(A), _cloud(B)
        na, nb = reference_hausdorff(ca, cb, b)
        assert np.array_equal(_nearest_gaps(b, ca.points, cb.points), na)
        assert np.array_equal(_nearest_gaps(b, cb.points, ca.points), nb)
        rep = hausdorff_report(ca, cb, b)
        assert (rep.a_to_b, rep.b_to_a) == (np.max(na), np.max(nb))
        assert rep.value == max(rep.a_to_b, rep.b_to_a)


@pytest.mark.parametrize("family", ["conformal", "blend", "sphere",
                                    "ellipsoid"])
def test_stacked_rows_match_per_case_integration_bitwise(family):
    cfg = scenario("warped-torus-bump-sweep")
    b = cfg.build_backend()
    N = cfg.build_submanifold(b)
    if family == "conformal":   # the tau = 0 case is the bare base backend
        phi = chart_scalar_field("sine-y", (1.0, 1.0), amplitude=1.0)
        at, taus = (lambda tau: conformal_family(b, phi, tau)), (0.0, 0.1,
                                                                  0.025)
    elif family == "blend":     # tau = 0 and tau = 1 are the two ends
        b1 = PeriodicChart((1.0, 1.0), chart_metric_field(
            "warped-diag-g22", (1.0, 1.0), amplitude=0.3))
        at, taus = (lambda tau: linear_blend(b, b1, tau)), (0.0, 1.0, 0.5)
    elif family == "sphere":    # the tau = 0 case is the bare sphere
        cfg = scenario("sphere-equator")
        b = cfg.build_backend()
        N = cfg.build_submanifold(b)
        phi = ambient_scalar_field("sine-z", amplitude=0.3)
        at, taus = (lambda tau: conformal_family(b, phi, tau)), (0.0, 0.2,
                                                                  0.1)
    else:                       # off a sphere the rows take Newton steps
        b = ImplicitSurface(level_surface("ellipsoid",
                                          semi_axes=(1.4, 1.0, 0.7)))
        N = point_submanifold(b.project(np.array([0.5, 0.6, 0.62])))
        phi = ambient_scalar_field("linear-z", amplitude=0.3)
        at, taus = (lambda tau: conformal_family(b, phi, tau)), (0.3, 0.1,
                                                                  0.05)
    cases = [(at(tau), normal_starts(at(tau), N, 16)) for tau in taus]
    rows = np.repeat(taus, [len(p0) for _, (_, p0, _) in cases])
    stacked = stacked_paths(at(rows), cases, 0.6, 1e-2)
    for (bt, (_, p0, v0)), got in zip(cases, stacked):
        want = integrate_batch(bt, p0, v0, 0.6, 1e-2)
        for name in ("t", "pos", "vel", "drift"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                name


_SWEEPS = {
    "bump": {"scenario": "warped-torus-bump-sweep"},
    "homothety": {"scenario": "torus-homothety-sweep"},
    "shift": {"scenario": "torus-line-shift-sweep"},
    "blend": {"scenario": "warped-torus-line",
              "family": {"kind": "blend", "tau": [1.0, 0.5, 0.25],
                         "metric": {"name": "warped-diag-g22",
                                    "amplitude": 0.3}}},
    # an implicit surface: its cases stack as a chart's do
    "sphere": {"scenario": "sphere-equator",
               "family": {"kind": "conformal", "tau": [0.2, 0.1],
                          "phi": {"name": "sine-z", "amplitude": 0.3}}},
}


def _cli_sweep(tmp_path, name, threads):
    cfg = {**_SWEEPS[name], "resolution": {"m": 16, "dt": 2e-2}}
    out = tmp_path / f"{name}-{threads}"
    code = main(["sweep", "--config", json.dumps(cfg), "--out", str(out),
                 "--threads", str(threads)])
    return code, out


@pytest.mark.parametrize("name", list(_SWEEPS))
def test_stacked_sweep_outputs_match_the_per_case_path(monkeypatch, tmp_path,
                                                       name):
    got = [_cli_sweep(tmp_path, name, th) for th in (1, 2, 3)]
    with monkeypatch.context() as mp:
        _per_case_only(mp)
        code, ref = _cli_sweep(tmp_path / "ref", name, 1)
    for c, out in got:
        assert c == code
        for f in ("sweep.json", "sweep.csv"):
            assert (out / f).read_bytes() == (ref / f).read_bytes(), f


def test_a_stacked_sweep_hands_every_case_its_paths(monkeypatch, tmp_path):
    given = []
    run = stability.run_case

    def spy(b, N, res, keep_atlas=False, paths=None):
        given.append(paths is not None)
        return run(b, N, res, keep_atlas, paths)

    monkeypatch.setattr(stability, "run_case", spy)
    for name in ("bump", "sphere"):
        _cli_sweep(tmp_path, name, 1)
    assert given == [True] * (5 + 3)


def _run_case_bytes(r):
    """Every output of a run_case result, as comparable values."""
    prof = [(p.dir_idx, p.s, p.side, p.rho, p.cut_point.tobytes(), p.method,
             p.focal_t, p.loop) for p in r.profiles]
    sep = [(sp.point.tobytes(), sp.dir_idx, sp.multiplicity, sp.flag)
           for sp in r.sep]
    return (prof, r.cloud.points.tobytes(), r.cloud.dir_idx.tobytes(), sep,
            r.inj_direct, r.inj_char, r.branch, r.fmin, r.l_half, r.err)


@pytest.mark.parametrize("name", ["flat-torus-line", "warped-torus-line",
                                  "sphere-equator"])
def test_run_case_does_not_depend_on_workers(name):
    # the cut-time search and the loop scan run in two processes or one
    cfg = scenario(name)
    b = cfg.build_backend()
    N = cfg.build_submanifold(b)
    res = Resolution(m=64, dt=4e-3, t_max=cfg.resolution.t_max)
    runs = []
    for workers in (1, 2, 3):
        r = stability.run_case(b, N, res, workers=workers)
        with pytest.raises(ChildProcessError):      # no worker left behind
            os.waitpid(-1, os.WNOHANG)
        assert {"rk4", "atlas", "focal", "cut_times",
                "loop_scan"} == set(r.timings)
        assert r.beside is None
        runs.append(_run_case_bytes(r))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


@pytest.mark.parametrize("threads", [1, 2])
def test_manifest_times_every_case_and_every_stack(tmp_path, threads):
    for name, ladder in (("bump", ["0", "0.2", "0.1", "0.05", "0.025"]),
                         ("sphere", ["0", "0.2", "0.1"])):
        _, out = _cli_sweep(tmp_path, name, threads)
        timings = json.loads((out / "manifest.json").read_text())["timings_s"]
        assert {f"case tau={t}" for t in ladder} <= set(timings)
        # the stage seconds each case's worker measured
        assert {f"{stage} tau={t}" for t in ladder for stage in
                ("atlas", "loop_scan", "focal", "cut_times")} <= set(timings)
        stacks = [k[len("rk4 tau="):].split(",") for k in timings
                  if k.startswith("rk4 tau=")]
        assert len(stacks) == threads, name
        assert sorted(t for s in stacks for t in s) == sorted(ladder)


def _spd_blend_sweep(workers):
    # the blend toward g22 = 1 + 0.9 sin 2 pi x leaves the SPD cone at
    # tau = 1.5 where x nears 3/4: the RK4 meets it, the frames do not
    b0 = scenario("flat-torus-line").build_backend()
    b1 = PeriodicChart((1.0, 1.0), chart_metric_field(
        "warped-diag-g22", (1.0, 1.0), amplitude=0.9))
    N = point_submanifold([0.25, 0.25])
    return sweep_metric_family(b0, N, [1.5, 0.5, 0.25],
                               Resolution(m=16, dt=1e-2, t_max=1.2), b1=b1,
                               workers=workers)


def test_spd_failure_in_a_stack_is_the_record_at_its_tau(monkeypatch):
    with monkeypatch.context() as mp:
        _per_case_only(mp)
        want = _spd_blend_sweep(1)
    assert want.records[0]["error"].startswith(
        "GeometryError: metric not positive definite")
    assert all("error" not in r for r in want.records[1:])
    for workers in (1, 2, 3):
        got = _spd_blend_sweep(workers)
        assert json.dumps(got.records) == json.dumps(want.records)
        assert json.dumps(got.base) == json.dumps(want.base)
        assert got.verdicts == {"pass": False, "errors_at": [1.5]}


def test_drift_failures_in_stacks_raise_the_earliest_tau():
    # on e^{2 tau sin 2 pi y} (flat) at dt = 2e-2, taus 1 and 0.5 overrun
    # the drift budget; with 2 workers 1.0 runs in the child, 0.5 here
    b = scenario("flat-torus-line").build_backend()
    N = curve_submanifold(chart_curve("horizontal-circle", (1.0, 1.0),
                                      y0=0.0))
    phi = chart_scalar_field("sine-y", (1.0, 1.0), amplitude=1.0)
    res = Resolution(m=16, dt=2e-2, t_max=1.2)
    with pytest.raises(IntegrationError) as alone:
        build_atlas(conformal_family(b, phi, 1.0), N, 16, 1.2, 2e-2)
    for workers in (1, 2, 3):
        with pytest.raises(IntegrationError) as ex:
            sweep_metric_family(b, N, [1.0, 0.5, 0.25], res, phi=phi,
                                workers=workers)
        assert type(ex.value) is IntegrationError
        assert str(ex.value) == str(alone.value)
