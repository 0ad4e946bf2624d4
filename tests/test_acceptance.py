"""End-to-end acceptance gate: twelve criteria with pinned tolerances.

Each test prints exactly one PASS/FAIL line.  The heavy scenario runs come
from the session-scoped fixtures in conftest.py; the sweeps run here at a
reduced direction count to stay inside their runtime budgets.
"""
import json
import time

import numpy as np
import pytest

from cutlab.cli import main as cli_main
from cutlab.config import scenario
from cutlab.stability import (Resolution, curvature_stats,
                              cut_time_continuity_probe,
                              hausdorff_convergence_check, hausdorff_report,
                              sweep_embedding_family, sweep_metric_family)
from cutlab.wavefront import eikonal_probes, eikonal_residual

from oracles import brute_hausdorff, chart_aux_dist, normal_exp_jacobian


def _report(num, desc, ok):
    print(f"\nACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"acceptance criterion {num}: {desc}"


def _line_dev(points, y0):
    return float(np.max(np.abs(points[:, 1] - y0)))


def _cross_dev(points, x0, y0):
    return float(np.max(np.min(np.stack(
        [np.abs(points[:, 0] - x0), np.abs(points[:, 1] - y0)]), axis=0)))


# -- sweep fixtures (module scope; each runs once) --------------------------

SWEEP_RES = Resolution(m=128, dt=1e-3, t_max=1.6)


@pytest.fixture(scope="module")
def bump_sweep():
    cfg = scenario("warped-torus-bump-sweep")
    b = cfg.build_backend()
    N = cfg.build_submanifold(b)
    from cutlab.config import build_family_field
    phi = build_family_field(cfg, b)
    t0 = time.perf_counter()
    table = sweep_metric_family(b, N, cfg.family["tau"], SWEEP_RES, phi=phi)
    return table, time.perf_counter() - t0


@pytest.fixture(scope="module")
def shift_sweep():
    cfg = scenario("torus-line-shift-sweep")
    b = cfg.build_backend()
    N0 = cfg.build_submanifold(b)
    from cutlab.config import build_submanifold
    N1 = build_submanifold(b, {"dim": 1, "curve": cfg.family["target"],
                               "m_N": N0.m_N})
    res = Resolution(m=128, dt=1e-3, t_max=1.2)
    return sweep_embedding_family(b, N0, N1, cfg.family["tau"], res)


@pytest.fixture(scope="module")
def homothety_sweep():
    cfg = scenario("torus-homothety-sweep")
    b = cfg.build_backend()
    N = cfg.build_submanifold(b)
    from cutlab.config import build_family_field
    phi = build_family_field(cfg, b)
    res = Resolution(m=64, dt=1e-3, t_max=1.6)
    return sweep_metric_family(b, N, cfg.family["tau"], res, phi=phi)


# -- criteria ---------------------------------------------------------------

def test_criterion_01_flat_torus_line(flat_line):
    r = flat_line.result
    sep_dirs = {d for sp in r.sep for d in sp.dir_idx}
    cut_dirs = {p.dir_idx for p in r.profiles if not p.no_cut}
    ok = (abs(r.inj_direct - 0.5) <= 1e-3
          and abs(r.inj_char - 0.5) <= 1e-3
          and _line_dev(r.cloud.points, 0.5) <= 1e-3
          and all(sp.flag == "sep" for sp in r.sep)
          and cut_dirs <= sep_dirs
          and flat_line.runtime < 30.0)
    _report(1, f"flat-torus line: inj {r.inj_direct:.5f}/{r.inj_char:.5f}, "
               f"cloud dev {_line_dev(r.cloud.points, 0.5):.2e}, "
               f"runtime {flat_line.runtime:.1f}s < 30s", ok)


def test_criterion_02_flat_torus_point(flat_point):
    r = flat_point.result
    # base point (0.25, 0.25): the cut cross sits at x = 0.75, y = 0.75
    dev = _cross_dev(r.cloud.points, 0.75, 0.75)
    ok = (abs(r.inj_direct - 0.5) <= 1e-3
          and abs(r.inj_char - 0.5) <= 1e-3
          and dev <= 2e-3)
    _report(2, f"flat-torus point: inj {r.inj_direct:.5f}, "
               f"cross dev {dev:.2e} <= 2e-3", ok)


def test_criterion_03_sphere_equator(sphere_eq):
    r = sphere_eq.result
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    gaps = np.linalg.norm(r.cloud.points[:, None, :] - poles[None, :, :],
                          axis=-1)
    dH = max(float(np.max(np.min(gaps, axis=1))),
             float(np.max(np.min(gaps, axis=0))))
    frame = r.atlas.frames[5]
    t_jac = normal_exp_jacobian(sphere_eq.backend, sphere_eq.N, frame.s,
                                frame.side, 2.0,
                                sphere_eq.res.dt).first_zero()
    focal_diff = abs(t_jac - r.profiles[5].focal_t)
    ok = (abs(r.fmin - np.pi / 2) <= 1e-3
          and abs(r.inj_char - np.pi / 2) <= 1e-3
          and r.branch == "both"
          and dH <= 1e-2
          and focal_diff <= 1e-3)
    _report(3, f"sphere equator: f_min {r.fmin:.6f}, branch {r.branch!r}, "
               f"pole d_H {dH:.2e}, focal oracle diff {focal_diff:.1e}", ok)


def test_criterion_04_estimator_cross_validation(flat_line, flat_point,
                                                 sphere_eq, warped_line):
    devs = {name: abs(c.result.inj_direct - c.result.inj_char)
            for name, c in (("flat-line", flat_line),
                            ("flat-point", flat_point),
                            ("sphere", sphere_eq),
                            ("warped", warped_line))}
    ok = all(v <= 5e-3 for v in devs.values())
    worst = max(devs, key=devs.get)
    _report(4, "direct vs characterization on all scenarios: worst "
               f"{worst} |dev| {devs[worst]:.2e} <= 5e-3", ok)


def test_criterion_05_injectivity_continuity_sweep(bump_sweep):
    table, runtime = bump_sweep
    devs = table.column("inj_dev")
    ok = (table.verdicts["inj_decreasing"] and devs[-1] < 1e-2
          and runtime < 600.0)
    _report(5, f"conformal-bump sweep: |Inj(tau)-Inj(0)| {devs} decreasing, "
               f"final {devs[-1]:.2e} < 1e-2, runtime {runtime:.0f}s", ok)


def test_criterion_06_cut_locus_continuity_sweep(bump_sweep):
    table, _ = bump_sweep
    chk = hausdorff_convergence_check(table)
    dH = table.column("d_H")
    ok = (table.verdicts["dH_decreasing"] and dH[-1] < 2e-2
          and bool(chk["verdict"]))
    _report(6, f"conformal-bump sweep: d_H {dH} decreasing, final "
               f"{dH[-1]:.2e} < 2e-2, one-sided components decreasing", ok)


def test_criterion_07_embedding_sweep_translation_oracle(shift_sweep):
    table = shift_sweep
    err = table.base["err"]
    devs = [abs(rec["d_H"] - 0.1 * tau)
            for tau, rec in zip(table.taus, table.records)]
    ok = all(d <= 2.0 * err for d in devs)
    _report(7, "embedding sweep: d_H matches translated cut locus |0.1 tau| "
               f"within 2 err ({max(devs):.2e} <= {2 * err:.2e})", ok)


def test_criterion_08_cut_time_continuity(bump_sweep, homothety_sweep):
    table, _ = bump_sweep
    probe = cut_time_continuity_probe(table)
    hom = homothety_sweep
    err = hom.base["err"]
    hom_devs = [abs(rec["rho_dev_max"] - (np.exp(tau) - 1.0) * 0.5)
                for tau, rec in zip(hom.taus, hom.records)]
    ok = bool(probe["verdict"]) and all(d <= 3.0 * err for d in hom_devs)
    _report(8, f"cut-time continuity: max dev {probe['max_dev']} -> "
               f"{probe['max_dev'][-1]:.2e} < 1e-2; homothety matches "
               f"(e^tau - 1) rho within 3 err ({max(hom_devs):.2e})", ok)


def test_criterion_09_eikonal_validation(flat_line, sphere_eq):
    fracs = {}
    for name, case, spacing in (("flat", flat_line, 0.05),
                                ("sphere", sphere_eq, 0.1)):
        r = case.result
        rep = eikonal_residual(r.atlas, eikonal_probes(r.atlas, spacing),
                               cut_points=r.cloud.points)
        fracs[name] = rep["frac_below_1e2"]
    ok = all(f >= 0.95 for f in fracs.values())
    _report(9, "eikonal residual < 1e-2 on >= 95% of grid: "
               f"flat {fracs['flat']:.3f}, sphere {fracs['sphere']:.3f}", ok)


def test_criterion_10_focal_free_lower_bound(flat_line, flat_point,
                                             sphere_eq, warped_line):
    checked, ok = [], True
    for name, case in (("flat-line", flat_line), ("flat-point", flat_point),
                       ("sphere", sphere_eq), ("warped", warped_line)):
        r = case.result
        stats = curvature_stats(case.backend, case.N)
        if stats["K_max"] <= 0.0:
            continue
        good = r.fmin >= stats["eps_std"] - 1e-3
        checked.append(f"{name}: f_min {r.fmin:.4f} >= eps_std "
                       f"{stats['eps_std']:.4f} - 1e-3 ({good})")
        ok = ok and good
    _report(10, "curvature lower bound on first focal distance: "
                + "; ".join(checked), ok and bool(checked))


def test_criterion_11_thread_determinism(tmp_path):
    names = ["flat-torus-line", "flat-torus-point", "sphere-equator",
             "warped-torus-line"]
    ok = True
    for name in names:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"scenario": name,
                                   "resolution": {"m": 64, "dt": 2e-3}}))
        outs = []
        for th in (1, 8):
            out = tmp_path / f"{name}-t{th}"
            code = cli_main(["inj", "--config", str(cfg), "--out", str(out),
                             "--threads", str(th)])
            ok = ok and code == 0
            outs.append(out)
        for f in ("inj.json", "profiles.csv"):
            ok = ok and (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
    _report(11, "identical outputs across --threads 1 and --threads 8 on "
                f"{len(names)} scenarios", ok)


def test_criterion_12_hausdorff_brute_oracle(flat_backend, rng):
    from cutlab.cutanalysis import PointCloud
    ok = True
    for _ in range(100):
        na, nb = int(rng.integers(2, 30)), int(rng.integers(2, 30))
        A = PointCloud(rng.random((na, 2)), np.arange(na))
        B = PointCloud(rng.random((nb, 2)), np.arange(nb))
        ok = ok and hausdorff_report(A, B, flat_backend).value == \
            brute_hausdorff(A.points, B.points, chart_aux_dist)
    _report(12, "exact agreement with brute-force Hausdorff oracle on 100 "
                "random cloud pairs", ok)
