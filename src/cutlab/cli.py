"""Command-line entry points: inj, cutlocus, sweep, validate."""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, build_curve, \
    build_family_field, parse_config, scenario as load_scenario
from .cutanalysis import warner_bound
from .forking import _fork_map, _worker_count
from .geodesics import IntegrationError, integrate_batch
from .geometry import GeometryError
from .stability import (Resolution, curvature_stats,
                        cut_time_continuity_probe,
                        focal_free_persistence_probe,
                        hausdorff_convergence_check, run_case,
                        sweep_embedding_family, sweep_metric_family)
from .submanifold import SubmanifoldSpec
from .wavefront import CoverageError, eikonal_residual, normal_starts


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


class _Emitter:
    """Collects output files and timings for the run manifest."""

    def __init__(self, cfg: RunConfig, out_dir: Path, command: str):
        self.cfg = cfg
        self.out = out_dir
        self.command = command
        self.t0 = time.perf_counter()
        self.timings: dict[str, float] = {}
        self.verdicts: dict = {}
        self.files: list[Path] = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def csv(self, name: str, header, rows) -> None:
        p = self.out / name
        _write_csv(p, header, rows)
        self.files.append(p)

    def json(self, name: str, payload: dict) -> None:
        p = self.out / name
        p.write_text(json.dumps(payload, indent=2, sort_keys=True,
                                default=_json_default) + "\n")
        self.files.append(p)

    def finish(self) -> int:
        """Write manifest.json; exit code 1, with a FAIL line naming the
        first verdict that failed, or 0."""
        inventory = {}
        for p in self.files:
            inventory[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
        payload = {
            "command": self.command,
            "config": {"scenario": self.cfg.scenario,
                       "backend": self.cfg.backend_spec,
                       "submanifold": self.cfg.submanifold_spec,
                       "resolution": asdict(self.cfg.resolution),
                       "family": self.cfg.family,
                       "seed": self.cfg.seed},
            "version": __version__,
            "wall_clock_s": time.perf_counter() - self.t0,
            "timings_s": self.timings,
            "verdicts": self.verdicts,
            "files": inventory,
        }
        (self.out / "manifest.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True,
                       default=_json_default) + "\n")
        bad = [k for k, v in self.verdicts.items() if not v]
        if bad:
            print(f"FAIL: verdict {bad[0]}", file=sys.stderr)
            return 1
        return 0


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.bool_):
        return bool(x)
    raise TypeError(f"not JSON serializable: {type(x)}")


def _profile_rows(result):
    for p in result.profiles:
        loop_t = p.loop.t if p.loop is not None else float("inf")
        yield ([p.dir_idx, p.s, p.side, p.rho, p.focal_t, p.no_cut, loop_t]
               + list(p.cut_point))


def _coord_header(b):
    return ["x", "y"] if b.dim == 2 else ["x", "y", "z"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_inj(cfg: RunConfig, out: Path) -> int:
    em = _Emitter(cfg, out, "inj")
    b = cfg.build_backend()
    N = cfg.build_submanifold(b)
    t0 = time.perf_counter()
    result = run_case(b, N, cfg.resolution, workers=cfg.threads)
    em.timings["run_case"] = time.perf_counter() - t0
    em.json("inj.json", {"inj_direct": result.inj_direct,
                         "inj_char": result.inj_char,
                         "branch": result.branch,
                         "f_min": result.fmin,
                         "l_half": result.l_half,
                         "err": result.err})
    em.csv("profiles.csv",
           ["dir_idx", "s", "side", "rho", "focal_t", "no_cut", "loop_t"]
           + [f"cut_{c}" for c in _coord_header(b)],
           _profile_rows(result))
    em.verdicts["inj_estimators_agree"] = \
        abs(result.inj_direct - result.inj_char) <= 5e-3
    return em.finish()


def cmd_cutlocus(cfg: RunConfig, out: Path) -> int:
    em = _Emitter(cfg, out, "cutlocus")
    b = cfg.build_backend()
    N = cfg.build_submanifold(b)
    t0 = time.perf_counter()
    result = run_case(b, N, cfg.resolution, workers=cfg.threads)
    em.timings["run_case"] = time.perf_counter() - t0
    ch = _coord_header(b)
    em.csv("cut_cloud.csv", ch + ["dir_idx"],
           ([*p, d] for p, d in zip(result.cloud.points, result.cloud.dir_idx)))
    em.csv("sep_points.csv", ch + ["multiplicity", "flag"],
           ([*sp.point, sp.multiplicity, sp.flag] for sp in result.sep))
    flags = sorted({sp.flag for sp in result.sep})
    covered = set()
    for sp in result.sep:
        covered.update(sp.dir_idx)
    em.json("cutlocus.json", {
        "n_cloud": len(result.cloud.points),
        "dichotomy_flags": flags,
        "n_sep_clusters": len(result.sep),
        "all_cut_dirs_in_clusters":
            covered >= set(int(d) for d in result.cloud.dir_idx),
    })
    em.verdicts["nonempty_cloud"] = len(result.cloud.points) > 0
    return em.finish()


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    if cfg.family is None:
        raise ConfigError("family: required for sweep (family.tau ladder)")
    em = _Emitter(cfg, out, "sweep")
    b = cfg.build_backend()
    N = cfg.build_submanifold(b)
    taus = cfg.family["tau"]
    kind = cfg.family.get("kind")
    t0 = time.perf_counter()
    if kind == "conformal":
        phi = build_family_field(cfg, b)
        table = sweep_metric_family(b, N, taus, cfg.resolution, phi=phi,
                                    workers=cfg.threads)
    elif kind == "blend":
        mspec = dict(cfg.family.get("metric", {}))
        b1 = cfg.build_backend() if not mspec else _blend_target(cfg, mspec)
        table = sweep_metric_family(b, N, taus, cfg.resolution, b1=b1,
                                    workers=cfg.threads)
    elif kind == "embedding":
        N1 = build_curve(b, cfg.family.get("target", {}), "family.target",
                         N.m_N)
        table = sweep_embedding_family(b, N, N1, taus, cfg.resolution,
                                       workers=cfg.threads)
    else:
        raise ConfigError(f"family.kind: unknown kind {kind!r}")
    em.timings["sweep"] = time.perf_counter() - t0
    for tau, secs in table.seconds.items():     # without the stacked RK4
        em.timings[f"case tau={tau:.12g}"] = secs
    for taus, secs in table.rk4_seconds.items():
        em.timings["rk4 tau=" + ",".join(f"{t:.12g}" for t in taus)] = secs
    probe_rho = cut_time_continuity_probe(table)
    probe_focal = focal_free_persistence_probe(table)
    probe_dh = hausdorff_convergence_check(table)

    cols = ["tau", "inj_direct", "inj_char", "branch", "f_min", "l_half",
            "inj_dev", "d_H", "d_H_tau_to_0", "d_H_0_to_tau", "rho_dev_max",
            "rho_dev_mean", "focal_margin", "err", "m", "dt", "tol"]
    em.csv("sweep.csv", cols,
           ([r.get(c, "") for c in cols] for r in table.records))
    em.json("sweep.json", {"description": table.description,
                           "taus": table.taus,
                           "resolution": table.resolution,
                           "base": table.base,
                           "records": table.records,
                           "verdicts": table.verdicts,
                           "cut_time_probe": probe_rho,
                           "focal_free_probe": probe_focal,
                           "hausdorff_check": probe_dh})
    em.verdicts["sweep"] = bool(table.verdicts.get("pass"))
    em.verdicts["cut_time_probe"] = bool(probe_rho.get("verdict"))
    fv = probe_focal.get("verdict")
    em.verdicts["focal_free_probe"] = True if isinstance(fv, str) else bool(fv)
    em.verdicts["hausdorff_check"] = bool(probe_dh.get("verdict"))
    return em.finish()


def _blend_target(cfg, mspec):
    spec = dict(cfg.backend_spec)
    spec["metric"] = mspec
    return parse_config({"backend": spec,
                         "submanifold": cfg.submanifold_spec}).build_backend()


def _checks(b, N, res: Resolution):
    """The checks of validate that do not read the run, and their seconds:
    the RK4 refinement along the first normal direction (the endpoint error
    should shrink ~16x per halving of dt) and curvature_stats."""
    t0 = time.perf_counter()
    frame = normal_starts(b, N, res.m)[0][0]
    t_ref = min(0.5, res.t_max)
    ends = {dt: integrate_batch(b, frame.base, frame.n, t_ref, dt).pos[0, -1]
            for dt in (res.dt * 4, res.dt * 2, res.dt)}
    e_coarse = float(np.linalg.norm(ends[res.dt * 4] - ends[res.dt]))
    e_fine = float(np.linalg.norm(ends[res.dt * 2] - ends[res.dt]))
    ratio = e_coarse / e_fine if e_fine > 1e-15 else float("inf")
    refinement = {"endpoint_err_coarse": e_coarse,
                  "endpoint_err_fine": e_fine, "ratio": ratio}
    return refinement, curvature_stats(b, N), time.perf_counter() - t0


def cmd_validate(cfg: RunConfig, out: Path) -> int:
    em = _Emitter(cfg, out, "validate")
    b = cfg.build_backend()
    N = cfg.build_submanifold(b)

    def run():
        t0 = time.perf_counter()
        result = run_case(b, N, cfg.resolution, keep_atlas=True,
                          workers=cfg.threads)
        em.timings["run_case"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        spacing = 0.05 if b.dim == 2 else 0.1
        eik = eikonal_residual(result.atlas, spacing,
                               cut_points=result.cloud.points,
                               workers=cfg.threads)
        em.timings["eikonal"] = time.perf_counter() - t0
        return result, eik

    # the checks run in a child beside run_case when there are two workers,
    # else after it; errors are raised in this order either way
    jobs = (run, lambda: _checks(b, N, cfg.resolution))
    n = _worker_count(cfg.threads, len(jobs))
    (result, eik), (refinement, stats, secs) = _fork_map(
        lambda w: jobs[w](), n, lambda w: "validate checks worker") + \
        [job() for job in jobs[n:]]
    em.timings["checks"] = secs
    residuals = eik.pop("residuals", None)
    if residuals is not None:
        em.csv("eikonal_residuals.csv", ["residual"],
               ([float(r)] for r in residuals))

    warner = {"K_max": stats["K_max"], "K_min": stats["K_min"],
              "Delta": stats["Delta"], "f_min": result.fmin}
    if stats["K_max"] > 0.0:
        wb = warner_bound(stats["K_max"], stats["Delta"])
        warner.update(wb)
        warner["f_min_ge_eps_std"] = result.fmin >= wb["eps_std"] - 1e-3
        warner["eps_paper_minus_eps_std"] = wb["eps_paper"] - wb["eps_std"]
    em.json("validate.json", {"eikonal": eik, "refinement": refinement,
                              "warner": warner})
    em.verdicts["eikonal_95pct"] = eik["frac_below_1e2"] >= 0.95
    em.verdicts["warner_lower_bound"] = warner.get("f_min_ge_eps_std", True)
    return em.finish()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _thread_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cutlab",
        description="cut loci, focal points and injectivity radii on "
                    "compact surfaces, with stability sweeps")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in (("inj", "injectivity radius, both estimators"),
                        ("cutlocus", "cut-locus cloud and separating set"),
                        ("sweep", "convergence sweep over a family"),
                        ("validate", "eikonal, integrator and bound checks")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", type=str, help="JSON config path")
        p.add_argument("--scenario", type=str, help="bundled scenario name")
        p.add_argument("--out", type=str, default=None,
                       help="output directory (default: config out, "
                            "else out/)")
        p.add_argument("--threads", type=_thread_count, default=None,
                       help="most processes a command runs on: a sweep's "
                            "cases, or the cut-time search, eikonal probes "
                            "and validate checks of a single run (default: "
                            "config threads, else one per CPU)")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = parse_config(args.config)
            if args.scenario and cfg.scenario not in (None, args.scenario):
                raise ConfigError("scenario: --scenario conflicts with config")
        elif args.scenario:
            cfg = load_scenario(args.scenario)
        else:
            raise ConfigError("config: give --config or --scenario")
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    if args.threads is not None:
        cfg.threads = args.threads
    out = Path(args.out if args.out is not None else (cfg.out or "out"))
    handler = {"inj": cmd_inj, "cutlocus": cmd_cutlocus,
               "sweep": cmd_sweep, "validate": cmd_validate}[args.command]
    try:
        return handler(cfg, out)
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    except (GeometryError, IntegrationError, CoverageError) as ex:
        print(f"FAIL: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(argv=None))
