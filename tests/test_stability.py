import numpy as np
import pytest

from cutlab.cutanalysis import PointCloud
from cutlab.geometry import GeometryError, chart_metric_field, \
    chart_scalar_field
from cutlab.stability import (Resolution, SweepTable, _sweep_verdicts,
                              curvature_stats, cut_time_continuity_probe,
                              hausdorff, hausdorff_convergence_check,
                              hausdorff_report, run_case, sweep_metric_family)
from cutlab.submanifold import chart_curve, curve_submanifold

from oracles import brute_hausdorff, chart_aux_dist


def _cloud(b, pts):
    pts = np.asarray(pts, dtype=float)
    return PointCloud(b, pts, np.arange(len(pts)), 1e-6)


def test_hausdorff_identical_clouds(flat_backend, rng):
    A = _cloud(flat_backend, rng.random((20, 2)))
    assert hausdorff(A, A) == 0.0


def test_hausdorff_symmetry_and_sides(flat_backend, rng):
    A = _cloud(flat_backend, rng.random((15, 2)))
    B = _cloud(flat_backend, rng.random((25, 2)))
    ra = hausdorff_report(A, B)
    rb = hausdorff_report(B, A)
    assert ra.value == rb.value
    assert ra.a_to_b == rb.b_to_a
    assert ra.value == max(ra.a_to_b, ra.b_to_a)


def test_hausdorff_triangle_inequality(flat_backend, rng):
    A = _cloud(flat_backend, rng.random((10, 2)))
    B = _cloud(flat_backend, rng.random((10, 2)))
    C = _cloud(flat_backend, rng.random((10, 2)))
    assert hausdorff(A, C) <= hausdorff(A, B) + hausdorff(B, C) + 1e-12


def test_hausdorff_matches_brute_oracle(flat_backend, rng):
    A = _cloud(flat_backend, rng.random((40, 2)))
    B = _cloud(flat_backend, rng.random((60, 2)))
    want = brute_hausdorff(A.points, B.points, chart_aux_dist)
    assert hausdorff(A, B) == pytest.approx(want, abs=1e-12)


def test_hausdorff_known_translation(flat_backend):
    xs = np.linspace(0.0, 1.0, 50, endpoint=False)
    A = _cloud(flat_backend, np.stack([xs, np.full_like(xs, 0.5)], axis=-1))
    B = _cloud(flat_backend, np.stack([xs, np.full_like(xs, 0.57)], axis=-1))
    assert hausdorff(A, B) == pytest.approx(0.07, abs=1e-12)


def test_hausdorff_empty_cloud_raises(flat_backend):
    A = _cloud(flat_backend, np.random.default_rng(0).random((5, 2)))
    E = PointCloud(flat_backend, np.empty((0, 2)), np.empty(0, dtype=int),
                   1e-6)
    with pytest.raises(GeometryError, match="no cut locus"):
        hausdorff(A, E)


def test_hausdorff_incompatible_backends(flat_backend, sphere_backend):
    A = _cloud(flat_backend, np.random.default_rng(0).random((5, 2)))
    B = PointCloud(sphere_backend, np.random.default_rng(1).random((5, 3)),
                   np.arange(5), 1e-6)
    with pytest.raises(GeometryError, match="backend"):
        hausdorff(A, B)


# -- scenario runs ----------------------------------------------------------

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
    st = curvature_stats(sphere_backend, N, grid_spacing=0.1)
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
