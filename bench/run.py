"""Benchmark of the cutlab command line, run in-process through
``cutlab.cli.main`` against the source tree next to this directory.

    python3 bench/run.py --workload torus-line --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload all

One process, one command at a time (a closed loop with one client), program
defaults: no ``--threads`` flag and ``CUTLAB_THREADS`` unset.  With
``--trace 0`` the command repeats while the next one is expected to end
within ``--seconds`` and the end-to-end metrics are reported; with
``--trace 1`` one untraced and one traced command run and the per-layer
metrics are reported.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, evaluate, fingerprint  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "ref_err": "1"}
SETUP_REPEATS = 8
# errors below this are rounding noise (the sphere's f_min is exact to ~2e-13,
# the flat line's inj to ~1e-10); reporting them raw would turn a harmless
# change in the last digits into a relative regression of any size
REF_ERR_FLOOR = 1e-9

# set-up as a user pays it: import the package, parse the config, resolve
# the scenario into a backend and a submanifold; timed inside the child so
# interpreter start-up is left out
_SETUP = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cutlab
from cutlab.config import parse_config
cfg = parse_config(sys.argv[2])
cfg.build_submanifold(cfg.build_backend())
print(time.perf_counter() - t0)
print(cutlab.__file__)
"""


def _setup_times(cfg_path: Path, n: int) -> list[float]:
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", _SETUP, str(SRC),
                               str(cfg_path)], capture_output=True, text=True,
                              timeout=120, check=True)
        secs, where = proc.stdout.split("\n")[:2]
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported cutlab from {where}")
        out.append(float(secs))
    return out


def machine_facts() -> dict:
    import numpy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                   "HEAD"], capture_output=True, text=True,
                                  timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for p in sorted((SRC / "cutlab").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "src_sha256": digest.hexdigest()}


class Runner:
    """Runs one workload's command, cycling through its inputs, and judges
    each command's output."""

    def __init__(self, workload, seed: int, out_root: Path):
        self.w = workload
        self.out = out_root / workload.name
        out_root.mkdir(parents=True, exist_ok=True)
        self.inputs = workload.inputs(seed)
        self.cfg_paths = []
        for s in self.inputs:
            p = out_root / f"{workload.name}-input{s}.config.json"
            p.write_text(json.dumps(workload.config(s), indent=2))
            self.cfg_paths.append(p)
        self.outcomes = []
        self.fingerprints = {s: [] for s in self.inputs}

    def argv(self, i: int) -> list[str]:
        return [self.w.command, "--config", str(self.cfg_paths[i]),
                "--out", str(self.out)]

    def command(self, tracer: Tracer | None = None,
                i: int | None = None) -> float:
        """Run the command on input ``i`` (default: the next in the cycle);
        returns its wall time."""
        from cutlab.cli import main
        if i is None:
            i = len(self.outcomes) % len(self.inputs)
        shutil.rmtree(self.out, ignore_errors=True)
        call = main if tracer is None else tracer.span("cli.main", main)
        t0 = time.perf_counter()
        try:
            code = call(self.argv(i))
        except Exception:       # a crash is a failed command, not a stop
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - t0
        outcome = evaluate(self.w, self.out, self.inputs[i],
                           -1 if code is None else code)
        if code is None:
            outcome.problems.insert(0, "command raised")
        outcome.observed["input"] = self.inputs[i]
        self.outcomes.append(outcome)
        self.fingerprints[self.inputs[i]].append(
            fingerprint(self.out) if self.out.is_dir() else None)
        return wall

    @property
    def failed(self) -> int:
        return sum(bool(o.problems) for o in self.outcomes)

    @property
    def correct(self) -> bool:
        """No failed check, and every repeat of one input gave
        byte-identical output."""
        return self.failed == 0 and all(
            None not in f and len(set(f)) <= 1
            for f in self.fingerprints.values())


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    # half the set-ups before the commands and half after: the machine's
    # speed drifts over seconds, and one burst of set-ups sees one speed
    setup = _setup_times(runner.cfg_paths[0], SETUP_REPEATS // 2)
    # repeat while the next command is expected to end within the budget,
    # so a run lasts at most max(seconds, one command)
    walls = []
    t_begin = time.perf_counter()
    while not walls or (time.perf_counter() - t_begin
                        + statistics.median(walls) <= seconds):
        walls.append(runner.command())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += _setup_times(runner.cfg_paths[0], SETUP_REPEATS // 2)
    n = len(walls)
    return {
        "wall_s": (statistics.median(walls), f"median of {n} commands"),
        "setup_s": (statistics.median(setup),
                    f"median of {len(setup)} set-ups"),
        "peak_rss_mb": (rss_mb, f"process peak over {n} commands"),
        "ref_err": _ref_err(runner.outcomes, runner.inputs[0]),
    }, {"walls": walls, "setups": setup}


def _ref_err(outcomes, reference) -> tuple[float, str]:
    """Largest reference error over the commands on the reference input whose
    output could be read, floored at REF_ERR_FLOOR; 1.0 when none could (such
    a run is failed and not correct anyway)."""
    on_ref = [o for o in outcomes if o.observed["input"] == reference]
    errs = [o.ref_err for o in on_ref if math.isfinite(o.ref_err)]
    return (max(REF_ERR_FLOOR, *errs) if errs else 1.0,
            f"max over {len(errs)} of {len(on_ref)} commands on input "
            f"{reference}, floored at {REF_ERR_FLOOR:g}")


def trace(runner: Runner, out_root: Path) -> tuple[dict, dict]:
    """One untraced and one traced command on the reference input."""
    untraced = runner.command(i=0)
    tracer = Tracer()
    with tracer:
        traced = runner.command(tracer, i=0)
    dump = tracer.dump()
    (out_root / f"{runner.w.name}.trace.json").write_text(json.dumps(dump))
    miss = runner.outcomes[-1].eikonal_miss_frac
    return layer_metrics(dump, traced, untraced, miss), {
        "walls": [untraced, traced]}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 results: Path) -> int:
    w = WORKLOADS[name]
    out_root = ROOT / ".bench_out"
    runner = Runner(w, seed, out_root)
    facts = machine_facts()
    print(f"workload {name} (seed {seed}, trace {int(traced)}): "
          + "; ".join(f"cutlab {' '.join(runner.argv(i))}"
                      for i in range(len(runner.inputs))))
    print("machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    if traced:
        values, samples = trace(runner, out_root)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER}
        for k, u in PER_LAYER:
            print(f"  {k:44s} {values[k]:.6g} {u}")
    else:
        measured, samples = measure(runner, seconds)
        metrics = {}
        for k, (value, how) in measured.items():
            unit = END_TO_END_UNITS[k]
            metrics[k] = {"value": value, "unit": unit}
            print(f"  {k:12s} {value:.6g} {unit}  ({how})")
    attempted, failed = len(runner.outcomes), runner.failed
    print(f"  {'fail_frac':12s} {failed / attempted:.6g}  "
          f"({failed} of {attempted} commands failed)")
    for i, o in enumerate(runner.outcomes):
        for p in o.problems:
            print(f"  command {i}: FAILED CHECK {p}")
    for s, prints in runner.fingerprints.items():
        if prints:
            print(f"  input {s}: fingerprint {prints[-1]} "
                  f"({len(set(prints))} distinct over {len(prints)})")
    observed = [dict(o.observed, ref_err=o.ref_err) for o in runner.outcomes]
    for o in observed:
        print("  observed: " + json.dumps(o))
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "trace": int(traced),
              "seconds": seconds,
              "configs": {s: w.config(s) for s in runner.inputs},
              "machine": facts, "metrics": metrics, "samples": samples,
              "attempted": attempted, "failed": failed,
              "correct": runner.correct,
              "fingerprints": runner.fingerprints,
              "problems": [o.problems for o in runner.outcomes],
              "observed": observed}
    (results / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=2, default=str))
    print(json.dumps({"correct": runner.correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--results", str(args.results)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("summary:")
    for name, res in rows:
        frac = res["failed"] / res["attempted"]
        cells = ", ".join(f"{k} {m['value']:.6g} {m['unit']}"
                          for k, m in res["metrics"].items()
                          if not args.trace)
        print(f"  {name:16s} fail_frac {frac:.3g} ({res['failed']}/"
              f"{res['attempted']}), correct {res['correct']}"
              + (f", {cells}" if cells else ""))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path,
                    default=ROOT / ".bench_out" / "results",
                    help="directory for the per-run JSON records")
    args = ap.parse_args(argv)
    if not (SRC / "cutlab" / "__init__.py").is_file():
        print(f"no cutlab source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cutlab
    if not Path(cutlab.__file__).resolve().is_relative_to(SRC):
        print(f"cutlab imported from {cutlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    os.environ.pop("CUTLAB_THREADS", None)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.results)


if __name__ == "__main__":
    sys.exit(main())
