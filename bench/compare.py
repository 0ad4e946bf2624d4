"""Compare two sets of benchmark records, e.g. a parent commit and a change.

    python3 bench/compare.py BASE_DIR HEAD_DIR

Each directory holds the JSON records that ``run.py --results DIR`` writes,
one per run.  For every workload and end-to-end metric this prints both
medians with their quartiles, the change as a share of the base median, and
the verdict against the bound in BENCHMARK.json: "better" when every head
run beats every base run, else "unresolved" when the base's own quartile
spread is wider than the bound, else "worse" beyond the bound, else "ok".  It then says whether outputs stayed byte-identical, seed by
seed, and lists the traced per-layer medians side by side.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parents[1]
                    / "BENCHMARK.json").read_text())


def load(d: Path) -> dict:
    """(workload, trace) -> list of records."""
    out = defaultdict(list)
    for p in sorted(d.glob("*.json")):
        rec = json.loads(p.read_text())
        out[rec["workload"], rec["trace"]].append(rec)
    return out


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def _prints(rec: dict) -> dict:
    """Input seed -> the set of output fingerprints its commands gave."""
    return {s: set(f) for s, f in rec["fingerprints"].items()}


def compare(base: dict, head: dict) -> list[str]:
    lines = []
    for w in sorted({w for w, _ in base} | {w for w, _ in head}):
        b, h = base.get((w, 0), []), head.get((w, 0), [])
        if not b or not h:
            lines.append(f"{w}: missing untraced runs "
                         f"(base {len(b)}, head {len(h)})")
            continue
        lines.append(f"{w}: base {len(b)} runs, head {len(h)} runs")
        for m in BENCH["end_to_end"]:
            sign = 1.0 if m["better"] == "lower" else -1.0
            bvals = [r["metrics"][m["name"]]["value"] for r in b]
            hvals = [r["metrics"][m["name"]]["value"] for r in h]
            bv, hv = spread(bvals), spread(hvals)
            change = sign * (hv[0] - bv[0]) / bv[0] if bv[0] else 0.0
            base_iqr = (bv[2] - bv[1]) / bv[0] if bv[0] else 0.0
            better = (max(sign * v for v in hvals)
                      < min(sign * v for v in bvals))
            verdict = ("better" if better
                       else "unresolved" if base_iqr > m["bound"]
                       else "worse" if change > m["bound"] else "ok")
            lines.append(
                f"  {m['name']:12s} base {bv[0]:.6g} [{bv[1]:.6g}, {bv[2]:.6g}]"
                f"  head {hv[0]:.6g} [{hv[1]:.6g}, {hv[2]:.6g}] {m['unit']}"
                f"  worse by {change:+.1%} (bound {m['bound']:.0%}): {verdict}")
        fb = {r["seed"]: _prints(r) for r in b}
        fh = {r["seed"]: _prints(r) for r in h}
        common = sorted(set(fb) & set(fh))
        same = [s for s in common if fb[s] == fh[s]]
        lines.append(f"  outputs byte-identical on {len(same)} of "
                     f"{len(common)} shared seeds"
                     + ("" if len(same) == len(common) else
                        f"; differ on seeds {sorted(set(common) - set(same))}"))
        bt, ht = base.get((w, 1), []), head.get((w, 1), [])
        if bt and ht:
            lines.append("  traced (median of runs):")
            for m in BENCH["per_layer"]:
                bm = statistics.median(r["metrics"][m["name"]]["value"]
                                       for r in bt)
                hm = statistics.median(r["metrics"][m["name"]]["value"]
                                       for r in ht)
                lines.append(f"    {m['name']:44s} {bm:12.6g} -> {hm:12.6g} "
                             f"{m['unit']}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print("\n".join(compare(load(Path(argv[0])), load(Path(argv[1])))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
