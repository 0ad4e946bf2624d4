"""Tests of the benchmark's own code.  Run with

    python3 -m pytest bench/test_bench.py
"""
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracing import (AUX_CALLERS, PER_LAYER, Span, Tracer,  # noqa: E402
                     layer_metrics, self_times)
from workloads import WORKLOADS, fingerprint, line_height  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_time_subtracts_union_of_children():
    spans = [Span("root", 0.0, 10.0, None, 0),
             Span("a", 1.0, 4.0, 0, 0),
             Span("a.child", 2.0, 3.0, 1, 0),
             Span("b", 3.0, 6.0, 0, 0),        # overlaps a: union is [1, 6]
             Span("c", 9.5, 11.0, 0, 0)]       # only [9.5, 10] inside root
    assert self_times(spans) == pytest.approx([4.5, 2.0, 1.0, 3.0, 1.5])


def test_metric_names_use_allowed_characters():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = ([m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
             + [w["name"] for w in bench["workloads"]]
             + [n for n, _ in PER_LAYER] + list(run.END_TO_END_UNITS))
    bad = [n for n in names if not NAME.match(n)]
    assert not bad


def test_benchmark_json_matches_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == PER_LAYER
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)


def _fake_inj(inj_direct):
    """Stand-in for cutlab.cli.main writing an inj result for y0 = 0."""
    def main(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        (out / "inj.json").write_text(json.dumps(
            {"inj_direct": inj_direct, "inj_char": 0.5}))
        (out / "profiles.csv").write_text(
            "dir_idx,no_cut,cut_x,cut_y\n0,False,0.0,0.5\n1,True,0.1,0.9\n")
        return 0
    return main


def test_wrong_reference_value_counts_as_failed(tmp_path, monkeypatch):
    import cutlab.cli
    runner = run.Runner(WORKLOADS["torus-line"], 0, tmp_path)
    monkeypatch.setattr(cutlab.cli, "main", _fake_inj(0.5))
    runner.command()
    assert runner.failed == 0 and runner.correct
    monkeypatch.setattr(cutlab.cli, "main", _fake_inj(0.502))
    runner.command()
    assert runner.failed == 1 and not runner.correct
    assert any("inj_direct" in p for p in runner.outcomes[-1].problems)
    assert run._ref_err(runner.outcomes, 0)[0] == pytest.approx(0.002)
    assert run._ref_err(runner.outcomes[:1], 0)[0] == run.REF_ERR_FLOOR


def test_raising_command_counts_as_failed(tmp_path, monkeypatch):
    import cutlab.cli

    def boom(argv):
        raise RuntimeError("boom")

    runner = run.Runner(WORKLOADS["sphere-validate"], 0, tmp_path)
    monkeypatch.setattr(cutlab.cli, "main", boom)
    runner.command()
    assert runner.failed == 1 and not runner.correct
    assert runner.outcomes[0].problems[0] == "command raised"


def test_fingerprint_ignores_timing_fields_only(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, wall in ((a, 1.0), (b, 2.0)):
        d.mkdir()
        (d / "inj.json").write_text('{"inj_direct": 0.5}\n')
        (d / "manifest.json").write_text(json.dumps(
            {"wall_clock_s": wall, "timings_s": {"run_case": wall},
             "verdicts": {"ok": True}}))
    assert fingerprint(a) == fingerprint(b)
    (b / "inj.json").write_text('{"inj_direct": 0.50001}\n')
    assert fingerprint(a) != fingerprint(b)


def test_seed_zero_is_the_bundled_line():
    assert line_height(0) == 0.0
    assert WORKLOADS["torus-line"].config(0)["scenario"] == "flat-torus-line"
    assert line_height(7) == line_height(7)
    assert 0.0 <= line_height(7) < 1.0


def test_tracer_covers_a_small_run_and_restores_names():
    from cutlab import cutanalysis, geometry, stability
    from cutlab.config import scenario
    originals = (stability.loop_scan, cutanalysis.distance,
                 geometry.PeriodicChart.aux_distance)
    cfg = scenario("flat-torus-line")
    b = cfg.build_backend()
    N = cfg.build_submanifold(b)
    tracer = Tracer()
    with tracer:
        for _ in range(2):
            stability.run_case(b, N, stability.Resolution(m=16, dt=1e-2))
    assert (stability.loop_scan, cutanalysis.distance,
            geometry.PeriodicChart.aux_distance) == originals
    dump = tracer.dump()
    assert {s["run"] for s in dump["spans"]} == {0, 1}
    v = layer_metrics(dump, 1.0, 1.0, 0.0)
    assert list(v) == [n for n, _ in PER_LAYER]
    assert v["stability.run_case.count"] == 2
    assert v["cutanalysis.cut_time.count"] == 64   # m per side, 2 sides, 2 runs
    assert v["wavefront.distance.count"] > 0
    parts = sum(v["geometry.aux_distance.in_" + c]
                for c in AUX_CALLERS + ("other",))
    assert parts == v["geometry.aux_distance.count"]
    assert v["geometry.aux_distance.in_loop_scan"] > 0
    assert all(s["end"] >= s["start"] for s in dump["spans"])
