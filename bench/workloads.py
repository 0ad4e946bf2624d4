"""The benchmark's workloads: CLI command, config made from the seed, and the
reference checks applied to the command's output files.

Each check uses the tolerance of the acceptance criterion it mirrors, so a
workload that passes here passes the same test in ``tests/test_acceptance.py``
at the workload's resolution.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# timing fields of manifest.json; everything else a command writes is a
# scientific output and enters the fingerprint
TIMING_KEYS = ("wall_clock_s", "timings_s")


@dataclass
class Outcome:
    """What one command produced, judged against the workload's reference."""

    ref_err: float
    problems: list[str] = field(default_factory=list)
    observed: dict = field(default_factory=dict)    # recorded, not checked
    eikonal_miss_frac: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    config: Callable[[int], dict]
    evaluate: Callable[[Path, int, int], Outcome]   # (out dir, seed, exit code)
    # input seeds a run cycles through; the first one is the reference input
    # that ref_err is read from
    inputs: Callable[[int], list[int]] = lambda seed: [seed]


def _require(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# -- torus-line ---------------------------------------------------------------

_FLAT = {"kind": "periodic-chart", "periods": [1.0, 1.0],
         "metric": {"name": "flat"}}
_TORUS_RES = {"m": 64, "dt": 2e-3}


def _torus_inputs(seed: int) -> list[int]:
    """The bundled line first, then the seed's translated line.  The cut-time
    bias depends on y0 (from ~1e-5 to ~3e-4, all inside criterion 1), so
    ref_err is read from the bundled line only, which keeps it comparable
    across seeds; the translated line is still checked on every run."""
    return [0, seed] if seed else [0]


def line_height(seed: int) -> float:
    """Height y0 of the line N = {y = y0}; seed 0 is the bundled y0 = 0."""
    if seed == 0:
        return 0.0
    return round(random.Random(seed).uniform(0.0, 1.0), 6)


def _torus_config(seed: int) -> dict:
    if seed == 0:
        return {"scenario": "flat-torus-line", "resolution": dict(_TORUS_RES)}
    return {"backend": _FLAT,
            "submanifold": {"dim": 1, "m_N": 256,
                            "curve": {"name": "horizontal-circle",
                                      "y0": line_height(seed)}},
            "resolution": {**_TORUS_RES, "t_max": 1.2}}


def _periodic_gap(a: float, b: float) -> float:
    return abs((a - b + 0.5) % 1.0 - 0.5)


def _torus_evaluate(out: Path, seed: int, code: int) -> Outcome:
    """Criterion 1 (inj = 1/2, cut locus at y0 + 1/2, within 1e-3) and
    criterion 4 (estimators agree within 5e-3)."""
    inj = json.loads((out / "inj.json").read_text())
    y_cut = line_height(seed) + 0.5
    with open(out / "profiles.csv", newline="") as fh:
        cut_dev = max((_periodic_gap(float(row["cut_y"]), y_cut)
                       for row in csv.DictReader(fh)
                       if row["no_cut"] == "False"), default=math.inf)
    e_direct = abs(inj["inj_direct"] - 0.5)
    e_char = abs(inj["inj_char"] - 0.5)
    gap = abs(inj["inj_direct"] - inj["inj_char"])
    o = Outcome(max(e_direct, e_char, cut_dev))
    _require(o.problems, code == 0, f"exit code {code}")
    _require(o.problems, e_direct <= 1e-3, f"|inj_direct - 1/2| = {e_direct:.3g}")
    _require(o.problems, e_char <= 1e-3, f"|inj_char - 1/2| = {e_char:.3g}")
    _require(o.problems, cut_dev <= 1e-3, f"cut points off y0 + 1/2 by {cut_dev:.3g}")
    _require(o.problems, gap <= 5e-3, f"estimator gap {gap:.3g}")
    o.observed["y0"] = line_height(seed)
    return o


# -- sphere-validate ----------------------------------------------------------

def _sphere_config(seed: int) -> dict:
    return {"scenario": "sphere-equator",
            "resolution": {"m": 128, "dt": 4e-3}}


def _sphere_evaluate(out: Path, seed: int, code: int) -> Outcome:
    """Criterion 3 (f_min = pi/2 within 1e-3) and criterion 9 (eikonal
    residual below 1e-2 on at least 95% of the grid)."""
    val = json.loads((out / "validate.json").read_text())
    err = abs(val["warner"]["f_min"] - math.pi / 2)
    frac = val["eikonal"]["frac_below_1e2"]
    o = Outcome(err, eikonal_miss_frac=1.0 - frac)
    _require(o.problems, code == 0, f"exit code {code}")
    _require(o.problems, err <= 1e-3, f"|f_min - pi/2| = {err:.3g}")
    _require(o.problems, frac >= 0.95, f"eikonal frac_below_1e2 = {frac:.3f}")
    return o


# -- bump-sweep ---------------------------------------------------------------

def _bump_config(seed: int) -> dict:
    return {"scenario": "warped-torus-bump-sweep",
            "resolution": {"m": 64, "dt": 4e-3}}


def _bump_evaluate(out: Path, seed: int, code: int) -> Outcome:
    """Criteria 5, 6 and 8: sweep verdicts, one-sided Hausdorff decrease and
    cut-time continuity.  The sweep has no closed form, so the reference
    error is the criterion-4 cross-check |inj_direct - inj_char| over the
    base and every tau case.  The exit code and the focal-free probe are
    recorded only: the probe fails at this resolution (see README.md)."""
    sw = json.loads((out / "sweep.json").read_text())
    cases = [sw["base"], *sw["records"]]
    o = Outcome(max(abs(c["inj_direct"] - c["inj_char"]) for c in cases))
    _require(o.problems, sw["verdicts"].get("pass") is True,
             f"sweep verdicts {sw['verdicts']}")
    _require(o.problems, sw["hausdorff_check"].get("verdict") is True,
             "hausdorff_check failed")
    _require(o.problems, sw["cut_time_probe"].get("verdict") is True,
             "cut_time_probe failed")
    o.observed["exit_code"] = code
    o.observed["focal_free_probe"] = sw["focal_free_probe"].get("verdict")
    return o


WORKLOADS = {w.name: w for w in (
    Workload("torus-line", "inj",
             "flat-torus line, m=64 dt=2e-3: loop scan dominates, exact "
             "answer inj = 1/2 with the cut locus at y0 + 1/2",
             _torus_config, _torus_evaluate, _torus_inputs),
    Workload("sphere-validate", "validate",
             "sphere equator, m=128 dt=4e-3: distance queries dominate (cut "
             "times along rays, scattered eikonal grid), largest atlas",
             _sphere_config, _sphere_evaluate),
    Workload("bump-sweep", "sweep",
             "conformal bump sweep, m=64 dt=4e-3: five run_cases on a metric "
             "with exp/sin per RK4 stage, plus Hausdorff comparisons",
             _bump_config, _bump_evaluate),
)}


def evaluate(w: Workload, out: Path, seed: int, code: int) -> Outcome:
    """Judge one command; unreadable or missing output is a failed check."""
    try:
        return w.evaluate(out, seed, code)
    except (OSError, KeyError, ValueError, TypeError) as ex:
        return Outcome(math.inf, [f"output unreadable (exit code {code}): "
                                  f"{type(ex).__name__}: {ex}"])


def fingerprint(out: Path) -> str:
    """SHA-256 over every output file, with the manifest's timing fields
    removed, so equal fingerprints mean byte-identical scientific output."""
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        body = p.read_bytes()
        if p.name == "manifest.json":
            man = json.loads(body)
            for k in TIMING_KEYS:
                man.pop(k, None)
            body = json.dumps(man, sort_keys=True).encode()
        h.update(p.name.encode() + b"\0" + hashlib.sha256(body).digest())
    return h.hexdigest()
