"""Hausdorff comparison of cut-locus clouds and convergence sweeps over
metric and embedding families, with the cut-time and focal-free probes."""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .cutanalysis import (CutProfile, PointCloud, compute_profiles,
                          cut_locus_cloud, f_min, injectivity_radius_char,
                          injectivity_radius_direct, loop_scan,
                          separating_points, warner_bound)
from .forking import _fork_map, _worker_count
from .geometry import Backend, GeometryError, conformal_family, linear_blend, \
    same_backend_family, validation_grid
from .submanifold import SubmanifoldSpec, embedding_family, \
    principal_curvature_bound
from .wavefront import build_atlas, normal_starts, stacked_paths


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
    na = _nearest_gaps(b, A.points, B.points)
    nb = _nearest_gaps(b, B.points, A.points)
    ab, ba = float(np.max(na)), float(np.max(nb))
    return HausdorffReport(max(ab, ba), ab, ba, na, nb)


def _nearest_gaps(b: Backend, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Auxiliary distance from each point of P to its nearest point of Q,
    256 rows at a time.  The displacement runs from the probe point p to
    the cloud: the wraparound reduction is only ulp-symmetric under a fixed
    argument order."""
    out = np.empty(len(P))
    for i in range(0, len(P), 256):
        gaps = b.aux_distance(P[i:i + 256, None, :], Q[None, :, :])
        out[i:i + 256] = np.min(gaps, axis=1)
    return out


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
             keep_atlas: bool = False, paths=None,
             workers: int | None = 1) -> ScenarioResult:
    """One scenario run; ``paths`` are the (frames, BatchPaths) of N's
    normal directions when they were integrated elsewhere.  The cut-time
    search runs on up to ``workers`` processes (None: one per CPU); the
    result does not depend on their number."""
    atlas = build_atlas(b, N, res.m, res.t_max, res.dt, paths)
    l_half, loops = loop_scan(b, N, atlas, res.capture_radius, res.angle_tol)
    profiles = compute_profiles(b, N, atlas, res.tol, res.capture_radius,
                                res.angle_tol, loops=loops, workers=workers)
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
    seconds: dict = field(default_factory=dict)     # tau -> case wall time
    rk4_seconds: dict = field(default_factory=dict)  # taus -> stacked RK4

    def column(self, key):
        return [r.get(key) for r in self.records]


@dataclass
class _Case:
    """What a sweep keeps of a run_case, in plain arrays that a worker can
    pickle: the cloud without its backend, and (s, side, rho, focal_t) per
    profile."""

    cloud: PointCloud
    profiles: np.ndarray
    inj_direct: float
    inj_char: float
    branch: str
    fmin: float
    l_half: float
    err: float


def _case_summary(r: ScenarioResult) -> _Case:
    prof = np.array([(p.s, p.side, p.rho, p.focal_t) for p in r.profiles],
                    dtype=float).reshape(-1, 4)
    return _Case(replace(r.cloud, backend=None), prof, r.inj_direct,
                 r.inj_char, r.branch, r.fmin, r.l_half, r.err)


def _case_record(case: _Case, base: _Case | None, res: Resolution) -> dict:
    rec = {"inj_direct": case.inj_direct, "inj_char": case.inj_char,
           "branch": case.branch, "f_min": case.fmin,
           "l_half": case.l_half, "err": case.err,
           "n_cloud": len(case.cloud.points)}
    rec.update(asdict(res))
    rec["focal_margin"] = float(min(case.profiles[:, 3] - case.profiles[:, 2]))
    if base is not None:
        rep = hausdorff_report(case.cloud, base.cloud)
        rec["d_H"] = rep.value
        rec["d_H_tau_to_0"] = rep.a_to_b
        rec["d_H_0_to_tau"] = rep.b_to_a
        rec["inj_dev"] = abs(case.inj_direct - base.inj_direct)
        rhos = _matched_rho_dev(case.profiles, base.profiles)
        rec["rho_dev_max"] = float(np.max(rhos))
        rec["rho_dev_mean"] = float(np.mean(rhos))
    return rec


def _matched_rho_dev(prof, base_prof) -> np.ndarray:
    """|rho_tau - rho_0| with directions matched by (s, side) labels; the
    families preserve parametrization so labels agree index-by-index."""
    if len(prof) != len(base_prof):
        raise GeometryError("direction sets differ; cannot match frames")
    bad = np.flatnonzero((prof[:, 1] != base_prof[:, 1])
                         | (np.abs(prof[:, 0] - base_prof[:, 0]) > 1e-12))
    if bad.size:
        raise GeometryError(f"frame labels diverge at index {bad[0]}")
    return np.abs(prof[:, 2] - base_prof[:, 2])


def _check_ladder(taus):
    taus = [float(t) for t in taus]
    # written so that an empty ladder and a NaN fail it
    if not (taus and all(t1 > t2 for t1, t2 in zip(taus, taus[1:]))
            and taus[-1] > 0.0):
        raise ValueError("tau ladder must be strictly decreasing and positive")
    return taus


def _failure(tau: float, ex: Exception):
    """What a case that raised ex leaves, and whether its share stops there:
    a GeometryError or ValueError at tau > 0 is the case's error record;
    any other error, and any error of the tau = 0 base, is its (type,
    message), which the sweep raises."""
    if tau != 0.0 and isinstance(ex, (GeometryError, ValueError)):
        return {"error": f"{type(ex).__name__}: {ex}"}, False
    return (type(ex), str(ex)), True


def _run_share(backend_at, N_at, res: Resolution, taus):
    """One worker's cases: ({tau: (case, seconds)}, {stacked taus: RK4
    seconds}), where a case is a _Case, an error record or (type, message).
    backend_at(tau) and N_at(tau) give a case's backend and submanifold;
    backend_at also takes one tau per point row (a stacked backend).

    The start states of every case are integrated by one RK4; each case
    then runs on its own paths.  Should the stacked RK4 raise, its cases
    run again one at a time, so each ends as it would alone.  A case that
    stops the share ends it, as the serial loop would; the seconds of a
    case leave out the shared RK4."""
    out, cases = {}, []
    for tau in taus:
        t0 = time.perf_counter()
        try:
            b, N = backend_at(tau), N_at(tau)
            cases.append((tau, b, N, normal_starts(b, N, res.m),
                          time.perf_counter() - t0))
        except Exception as ex:
            outcome, stop = _failure(tau, ex)
            out[tau] = (outcome, time.perf_counter() - t0)
            if stop:
                break
    if not cases:
        return out, {}
    key = tuple(tau for tau, *_ in cases)
    starts = [(b, st) for _, b, _, st, _ in cases]
    t0 = time.perf_counter()
    try:
        b_rows = starts[0][0] if len(cases) == 1 else backend_at(
            np.repeat(key, [len(p0) for _, (_, p0, _) in starts]))
        paths = stacked_paths(b_rows, starts, res.t_max, res.dt)
    except Exception:   # run alone, each case fails or not as it would
        paths = [None] * len(cases)
    rk4 = {key: time.perf_counter() - t0}
    for (tau, b, N, (frames, _, _), secs), batch in zip(cases, paths):
        t0 = time.perf_counter()
        stop = False
        try:
            given = None if batch is None else (frames, batch)
            case = _case_summary(run_case(b, N, res, paths=given))
        except Exception as ex:
            case, stop = _failure(tau, ex)
        out[tau] = (case, secs + time.perf_counter() - t0)
        if stop:
            break
    return out, rk4


def _sweep(description, backend_at, N_at, taus, res: Resolution,
           final_inj_tol: float, final_dH_tol: float,
           final_rho_tol: float, workers: int | None = None) -> SweepTable:
    """The tau = 0 base and the ladder's cases on n = min(workers,
    len(taus) + 1) processes (workers None: one per CPU this process may
    use): worker w runs ([0] + taus)[w::n] (_run_share), worker 0 here and
    the others in forked children.  The records are made here, against the
    base, once every worker is done.  The table does not depend on n; an
    error that is not a record is raised as the serial loop would raise
    it, from the base or else the earliest failing tau."""
    taus = _check_ladder(taus)
    ladder = [0.0] + taus
    n = _worker_count(workers, len(ladder))
    shares = _fork_map(
        lambda w: _run_share(backend_at, N_at, res, ladder[w::n]), n,
        lambda w: f"sweep worker for tau {ladder[w::n]}")
    outcomes, rk4 = {}, {}
    for share in shares:
        outcomes.update(share[0])
        rk4.update(share[1])

    def case_at(tau):
        """The case at tau with its cloud's backend, and its seconds; an
        error that is not a record is raised."""
        case, secs = outcomes[tau]
        if isinstance(case, tuple):     # (type, message) of a raised error
            etype, message = case
            raise etype(message)
        if isinstance(case, _Case):
            case.cloud = replace(case.cloud, backend=backend_at(tau))
        return case, secs

    t0 = time.perf_counter()
    base, secs = case_at(0.0)
    base_rec = _case_record(base, None, res)
    seconds = {0.0: secs + time.perf_counter() - t0}
    records = []
    for tau in taus:
        t0 = time.perf_counter()
        rec, secs = case_at(tau)
        if isinstance(rec, _Case):
            try:
                rec = _case_record(rec, base, res)
            except (GeometryError, ValueError) as ex:
                rec, _ = _failure(tau, ex)
        rec["tau"] = tau
        records.append(rec)
        seconds[tau] = secs + time.perf_counter() - t0
    table = SweepTable(description, taus, asdict(res), base_rec, records,
                       seconds=seconds, rk4_seconds=rk4)
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
                        final_rho_tol: float = 1e-2,
                        workers: int | None = None) -> SweepTable:
    """Sweep g_tau = e^{2 tau phi} g (conformal) or (1-tau) g0 + tau g1
    (blend) at fixed N, against the tau = 0 baseline, on up to ``workers``
    processes (default: one per available CPU)."""
    if (phi is None) == (b1 is None):
        raise ValueError("give exactly one of phi (conformal) or b1 (blend)")
    if phi is not None:
        desc = f"conformal metric family: {getattr(phi, 'name', 'phi')}"
        backend_at = lambda tau: conformal_family(b, phi, tau)
    else:
        desc = "linear metric blend"
        backend_at = lambda tau: linear_blend(b, b1, tau)
    return _sweep(desc, backend_at, lambda tau: N, taus, res, final_inj_tol,
                  final_dH_tol, final_rho_tol, workers)


def sweep_embedding_family(b: Backend, N0: SubmanifoldSpec,
                           N1: SubmanifoldSpec, taus, res: Resolution,
                           final_inj_tol: float = 1e-2,
                           final_dH_tol: float = 2e-2,
                           final_rho_tol: float = 1e-2,
                           workers: int | None = None) -> SweepTable:
    """Sweep N_tau interpolating N0 -> N1 at fixed metric, on up to
    ``workers`` processes (default: one per available CPU)."""
    return _sweep("embedding family", lambda tau: b,
                  lambda tau: embedding_family(b, N0, N1, tau), taus, res,
                  final_inj_tol, final_dH_tol, final_rho_tol, workers)


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
