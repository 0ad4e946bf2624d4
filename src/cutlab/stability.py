"""Hausdorff comparison of cut-locus clouds and convergence sweeps over
metric and embedding families, with the cut-time and focal-free probes."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cutanalysis import (CutProfile, PointCloud, compute_profiles,
                          cut_locus_cloud, f_min, injectivity_radius_char,
                          injectivity_radius_direct, loop_scan,
                          separating_points, warner_bound)
from .geometry import Backend, GeometryError, conformal_family, linear_blend, \
    same_backend_family, validation_grid
from .submanifold import SubmanifoldSpec, embedding_family, \
    principal_curvature_bound
from .wavefront import build_atlas


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------

@dataclass
class HausdorffReport:
    value: float
    a_to_b: float               # sup over A of dist to B
    b_to_a: float
    nearest_a: np.ndarray       # per point of A, distance to B
    nearest_b: np.ndarray


def hausdorff_report(A: PointCloud, B: PointCloud) -> HausdorffReport:
    if not same_backend_family(A.backend, B.backend):
        raise GeometryError("clouds live on incomparable backends")
    if len(A.points) == 0 or len(B.points) == 0:
        raise GeometryError("no cut locus detected")
    b = A.backend
    # displacement measured from the probe point to the cloud: the wraparound
    # reduction is only ulp-symmetric under a fixed argument order
    na = np.empty(len(A.points))
    for i, p in enumerate(A.points):
        na[i] = float(np.min(b.aux_distance(p, B.points)))
    nb = np.empty(len(B.points))
    for i, q in enumerate(B.points):
        nb[i] = float(np.min(b.aux_distance(q, A.points)))
    ab, ba = float(np.max(na)), float(np.max(nb))
    return HausdorffReport(max(ab, ba), ab, ba, na, nb)


def hausdorff(A: PointCloud, B: PointCloud) -> float:
    return hausdorff_report(A, B).value


# ---------------------------------------------------------------------------
# single-resolution scenario runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Resolution:
    m: int = 256
    dt: float = 1e-3
    t_max: float = 1.2
    tol: float = 1e-3
    capture_radius: float = 1e-2
    angle_tol: float = 1e-3
    pair_tol: float = 3e-3
    dedup_radius: float = 1e-6

    def as_dict(self) -> dict:
        return {"m": self.m, "dt": self.dt, "t_max": self.t_max,
                "tol": self.tol, "capture_radius": self.capture_radius,
                "angle_tol": self.angle_tol, "pair_tol": self.pair_tol,
                "dedup_radius": self.dedup_radius}


@dataclass
class ScenarioResult:
    backend: Backend
    N: SubmanifoldSpec
    res: Resolution
    profiles: list[CutProfile]
    cloud: PointCloud
    sep: list
    inj_direct: float
    inj_char: float
    branch: str
    fmin: float
    l_half: float
    err: float                  # atlas distance-error bound
    atlas: object = None


def run_case(b: Backend, N: SubmanifoldSpec, res: Resolution,
             keep_atlas: bool = False) -> ScenarioResult:
    atlas = build_atlas(b, N, res.m, res.t_max, res.dt)
    l_half, loops = loop_scan(b, N, atlas, res.capture_radius, res.angle_tol)
    profiles = compute_profiles(b, N, atlas, res.tol, res.capture_radius,
                                res.angle_tol, loops=loops)
    focal = np.array([p.focal_t for p in profiles])
    fmin = f_min(focal)
    inj_d = injectivity_radius_direct(profiles)
    inj_c, branch = injectivity_radius_char(fmin, l_half)
    cloud = cut_locus_cloud(b, profiles, res.dedup_radius)
    sep = separating_points(b, N, profiles, res.pair_tol)
    return ScenarioResult(b, N, res, profiles, cloud, sep, inj_d, inj_c,
                          branch, fmin, l_half, atlas.err,
                          atlas if keep_atlas else None)


def curvature_stats(b: Backend, N: SubmanifoldSpec,
                    grid_spacing: float = 0.02) -> dict:
    """Curvature sup, inf, and principal-curvature bound feeding the
    focal-free comparison bound."""
    grid = validation_grid(b, grid_spacing)
    K = b.gauss_curvature(grid)
    Delta = principal_curvature_bound(b, N)
    out = {"K_max": float(np.max(K)), "K_min": float(np.min(K)),
           "Delta": Delta}
    if out["K_max"] > 0.0:
        out.update(warner_bound(out["K_max"], Delta))
    return out


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepTable:
    description: str
    taus: list[float]           # strictly decreasing ladder, excludes 0
    resolution: dict
    base: dict                  # tau = 0 record
    records: list[dict]         # per-tau, in ladder order
    verdicts: dict = field(default_factory=dict)

    def column(self, key):
        return [r.get(key) for r in self.records]


def _case_record(result: ScenarioResult, base: ScenarioResult | None,
                 res: Resolution) -> dict:
    rec = {"inj_direct": result.inj_direct, "inj_char": result.inj_char,
           "branch": result.branch, "f_min": result.fmin,
           "l_half": result.l_half, "err": result.err,
           "n_cloud": len(result.cloud.points)}
    rec.update(res.as_dict())
    rec["focal_margin"] = float(min(p.focal_t - p.rho
                                    for p in result.profiles))
    if base is not None:
        rep = hausdorff_report(result.cloud, base.cloud)
        rec["d_H"] = rep.value
        rec["d_H_tau_to_0"] = rep.a_to_b
        rec["d_H_0_to_tau"] = rep.b_to_a
        rec["inj_dev"] = abs(result.inj_direct - base.inj_direct)
        rhos = _matched_rho_dev(result.profiles, base.profiles)
        rec["rho_dev_max"] = float(np.max(rhos))
        rec["rho_dev_mean"] = float(np.mean(rhos))
    return rec


def _matched_rho_dev(profiles, base_profiles) -> np.ndarray:
    """|rho_tau - rho_0| with directions matched by (s, side) labels; the
    families preserve parametrization so labels agree index-by-index."""
    if len(profiles) != len(base_profiles):
        raise GeometryError("direction sets differ; cannot match frames")
    out = np.empty(len(profiles))
    for i, (p, q) in enumerate(zip(profiles, base_profiles)):
        if p.side != q.side or abs(p.s - q.s) > 1e-12:
            raise GeometryError(f"frame labels diverge at index {i}")
        out[i] = abs(p.rho - q.rho)
    return out


def _check_ladder(taus):
    taus = [float(t) for t in taus]
    if any(t2 >= t1 for t1, t2 in zip(taus, taus[1:])) or taus[-1] <= 0.0:
        raise ValueError("tau ladder must be strictly decreasing and positive")
    return taus


def _sweep(description, case_at_tau, taus, res: Resolution,
           final_inj_tol: float, final_dH_tol: float,
           final_rho_tol: float) -> SweepTable:
    taus = _check_ladder(taus)
    base = case_at_tau(0.0)
    base_rec = _case_record(base, None, res)
    records = []
    for tau in taus:
        try:
            r = case_at_tau(tau)
            rec = _case_record(r, base, res)
        except (GeometryError, ValueError) as ex:     # record and continue
            rec = {"error": f"{type(ex).__name__}: {ex}"}
        rec["tau"] = tau
        records.append(rec)
    table = SweepTable(description, taus, res.as_dict(), base_rec, records)
    table.verdicts = _sweep_verdicts(table, base.err, final_inj_tol,
                                     final_dH_tol, final_rho_tol)
    return table


def _decreasing(vals, slack) -> bool:
    return all(b <= a + slack for a, b in zip(vals, vals[1:]))


def _sweep_verdicts(table: SweepTable, err, inj_tol, dH_tol, rho_tol) -> dict:
    if any("error" in r for r in table.records):
        failing = [r["tau"] for r in table.records if "error" in r]
        return {"pass": False, "errors_at": failing}
    inj = table.column("inj_dev")
    dh = table.column("d_H")
    dh_a = table.column("d_H_tau_to_0")
    dh_b = table.column("d_H_0_to_tau")
    rho = table.column("rho_dev_max")
    v = {
        "inj_decreasing": _decreasing(inj, 2.0 * err),
        "inj_final": inj[-1] < inj_tol,
        "dH_decreasing": _decreasing(dh, 2.0 * err),
        "dH_final": dh[-1] < dH_tol,
        "dH_side_a_decreasing": _decreasing(dh_a, 2.0 * err),
        "dH_side_b_decreasing": _decreasing(dh_b, 2.0 * err),
        "rho_decreasing": _decreasing(rho, 2.0 * err),
        "rho_final": rho[-1] < rho_tol,
    }
    v["pass"] = all(v.values())
    return v


def sweep_metric_family(b: Backend, N: SubmanifoldSpec, taus,
                        res: Resolution, phi=None, b1: Backend | None = None,
                        final_inj_tol: float = 1e-2,
                        final_dH_tol: float = 2e-2,
                        final_rho_tol: float = 1e-2) -> SweepTable:
    """Sweep g_tau = e^{2 tau phi} g (conformal) or (1-tau) g0 + tau g1
    (blend) at fixed N, against the tau = 0 baseline."""
    if (phi is None) == (b1 is None):
        raise ValueError("give exactly one of phi (conformal) or b1 (blend)")
    if phi is not None:
        desc = f"conformal metric family: {getattr(phi, 'name', 'phi')}"

        def case(tau):
            return run_case(conformal_family(b, phi, tau), N, res)
    else:
        desc = "linear metric blend"

        def case(tau):
            return run_case(linear_blend(b, b1, tau), N, res)
    return _sweep(desc, case, taus, res, final_inj_tol, final_dH_tol,
                  final_rho_tol)


def sweep_embedding_family(b: Backend, N0: SubmanifoldSpec,
                           N1: SubmanifoldSpec, taus, res: Resolution,
                           final_inj_tol: float = 1e-2,
                           final_dH_tol: float = 2e-2,
                           final_rho_tol: float = 1e-2) -> SweepTable:
    """Sweep N_tau interpolating N0 -> N1 at fixed metric."""

    def case(tau):
        return run_case(b, embedding_family(b, N0, N1, tau), res)

    return _sweep("embedding family", case, taus, res, final_inj_tol,
                  final_dH_tol, final_rho_tol)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def cut_time_continuity_probe(table: SweepTable) -> dict:
    """Max/mean matched cut-time deviation per tau; the verdict is the
    sweep's own: rho_dev_max decreasing (2 err slack) to below its final
    tolerance."""
    if any("error" in r for r in table.records):
        return {"verdict": False, "reason": "sweep error"}
    v = table.verdicts
    return {"taus": table.taus, "max_dev": table.column("rho_dev_max"),
            "mean_dev": table.column("rho_dev_mean"),
            "verdict": v["rho_decreasing"] and v["rho_final"]}


def focal_free_persistence_probe(table: SweepTable,
                                 margin: float = 1e-2) -> dict:
    """Flags (min_n t_f - rho) > margin per tau.  When the tau = 0 case is
    focal-coincident the hypothesis fails and no verdict is issued."""
    base_margin = table.base["focal_margin"]
    out = {"taus": table.taus, "margin": margin}
    if base_margin <= margin:
        out["verdict"] = "hypothesis not satisfied"
        out["base_margin"] = base_margin
        return out
    flags = []
    for r in table.records:
        flags.append(bool(r.get("focal_margin", -math.inf) > margin))
    out["flags"] = flags
    out["base_margin"] = base_margin
    # threshold below which the flag persists, reported from the ladder
    ok_from = None
    for tau, fl in zip(table.taus, flags):
        if fl and ok_from is None:
            ok_from = tau
        elif not fl:
            ok_from = None
    out["persists_below"] = ok_from
    out["verdict"] = all(flags)
    return out


def hausdorff_convergence_check(table: SweepTable) -> dict:
    """Both one-sided Hausdorff components must decrease along the ladder
    (the sweep's dH_side_a_decreasing and dH_side_b_decreasing)."""
    if any("error" in r for r in table.records):
        return {"verdict": False, "reason": "sweep error"}
    v = table.verdicts
    return {"side_tau_to_0": table.column("d_H_tau_to_0"),
            "side_0_to_tau": table.column("d_H_0_to_tau"),
            "verdict": v["dH_side_a_decreasing"] and v["dH_side_b_decreasing"]}
