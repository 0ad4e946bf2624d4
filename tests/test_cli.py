import hashlib
import json
import os

import pytest

from cutlab import cli, cutanalysis, stability
from cutlab.cli import main
from cutlab.geometry import GeometryError

FAST = {"scenario": "flat-torus-line",
        "resolution": {"m": 64, "dt": 2e-3}}


def _write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_missing_config_and_scenario_exits_2(capsys):
    assert main(["inj"]) == 2
    assert "config" in capsys.readouterr().err


def test_unknown_scenario_exits_2(capsys):
    assert main(["inj", "--scenario", "klein-bottle"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_unknown_config_key_named_in_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"scenario": "flat-torus-line", "bad_key": 1})
    assert main(["inj", "--config", cfg]) == 2
    assert "bad_key" in capsys.readouterr().err


def test_missing_tau_ladder_named_in_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {**FAST, "family": {"kind": "conformal"}})
    assert main(["sweep", "--config", cfg]) == 2
    assert "family.tau" in capsys.readouterr().err


def test_integration_error_is_one_line_fail(tmp_path, capsys):
    # dt = 0.2 on the warped torus breaks the RK4 speed-drift budget
    cfg = _write_cfg(tmp_path, {"scenario": "warped-torus-line",
                                "resolution": {"m": 16, "dt": 0.2}})
    assert main(["inj", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL: speed drift") and err.count("\n") == 1


def _no_child_left():
    with pytest.raises(ChildProcessError):      # none running, none unreaped
        os.waitpid(-1, os.WNOHANG)


def test_coverage_error_is_the_same_line_for_any_thread_count(tmp_path,
                                                              capsys):
    # the directions are searched in shares; a front too short to meet
    # itself (t_max = 0.5 < pi / 2) leaves every direction uncut and no
    # focal point, so the estimators disagree for every thread count
    cfg = _write_cfg(tmp_path, {"scenario": "sphere-equator",
                                "resolution": {"m": 16, "dt": 0.01,
                                               "t_max": 0.5}})
    for th in ("1", "2", "3"):
        assert main(["inj", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--threads", th]) == 1
        _no_child_left()
        assert capsys.readouterr().err == \
            "FAIL: verdict inj_estimators_agree\n"
        inj = json.loads((tmp_path / "o" / "inj.json").read_text())
        assert inj["cut_methods"] == {"crossing": 0, "focal": 0, "none": 32}


def test_validate_check_error_is_one_line_fail_for_any_thread_count(
        tmp_path, capsys, monkeypatch):
    # with two workers the checks run in a child; its error is raised here,
    # after run_case and the eikonal check, as a one-process run raises it
    def broken(b, N):
        raise GeometryError("curvature grid is degenerate")

    monkeypatch.setattr(cli, "curvature_stats", broken)
    cfg = _write_cfg(tmp_path, {"scenario": "flat-torus-line",
                                "resolution": {"m": 32, "dt": 1e-2}})
    for th in ("1", "2", "3"):
        assert main(["validate", "--config", cfg, "--out",
                     str(tmp_path / th), "--threads", th]) == 1
        _no_child_left()
        assert capsys.readouterr().err == \
            "FAIL: curvature grid is degenerate\n"


@pytest.mark.parametrize("command", ["inj", "validate"])
def test_loop_scan_error_is_one_line_fail_for_any_thread_count(
        tmp_path, capsys, monkeypatch, command):
    # with two workers the loop scan runs in run_case's child, beside the
    # cut-time search; its error is raised here as a one-process run raises
    # it
    def broken(b, N, atlas):
        raise GeometryError("loop scan met a degenerate return")

    monkeypatch.setattr(stability, "loop_scan", broken)
    cfg = _write_cfg(tmp_path, {"scenario": "flat-torus-line",
                                "resolution": {"m": 32, "dt": 1e-2}})
    for th in ("1", "2", "3"):
        assert main([command, "--config", cfg, "--out",
                     str(tmp_path / th), "--threads", th]) == 1
        _no_child_left()
        assert capsys.readouterr().err == \
            "FAIL: loop scan met a degenerate return\n"


def test_validate_forks_once_after_the_focal_solve(tmp_path, monkeypatch):
    # the checks fork beside the run; after the focal solve run_case forks
    # once more, its child running the loop scan and the eikonal probes,
    # which build their own index: the atlas validate keeps has none
    events, atlases = [], []
    for module in (cli, stability):
        def fork_spy(job, n, name, fork_map=module._fork_map):
            events.append(n)
            return fork_map(job, n, name)

        monkeypatch.setattr(module, "_fork_map", fork_spy)
    focal_solve, residual = cutanalysis.focal_times_batch, cli.eikonal_residual

    def focal_spy(*args):
        events.append("focal")
        return focal_solve(*args)

    def residual_spy(atlas, *args, **kwargs):
        atlases.append(atlas)
        return residual(atlas, *args, **kwargs)

    monkeypatch.setattr(cutanalysis, "focal_times_batch", focal_spy)
    monkeypatch.setattr(cli, "eikonal_residual", residual_spy)
    cfg = _write_cfg(tmp_path, {"scenario": "flat-torus-line",
                                "resolution": {"m": 32, "dt": 1e-2}})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "2"]) == 0
    _no_child_left()
    assert events == [2, "focal", 2]
    assert len(atlases) == 1 and "index" not in vars(atlases[0])


def _scientific_bytes(path):
    """A file's bytes, without the manifest's timing fields."""
    if path.name != "manifest.json":
        return path.read_bytes()
    man = json.loads(path.read_text())
    for key in ("wall_clock_s", "timings_s"):
        man.pop(key)
    return json.dumps(man, sort_keys=True).encode()


@pytest.mark.parametrize("command", ["inj", "cutlocus", "validate"])
@pytest.mark.parametrize("scenario", ["sphere-equator", "warped-torus-line"])
def test_single_run_outputs_do_not_depend_on_threads(tmp_path, scenario,
                                                     command):
    cfg = _write_cfg(tmp_path, {"scenario": scenario,
                                "resolution": {"m": 32, "dt": 1e-2}})
    outs, codes = [], set()
    for th in (1, 2, 3):
        out = tmp_path / f"t{th}"
        codes.add(main([command, "--config", cfg, "--out", str(out),
                        "--threads", str(th)]))
        _no_child_left()
        outs.append(out)
    assert len(codes) == 1
    names = sorted(p.name for p in outs[0].iterdir())
    assert "manifest.json" in names and len(names) >= 2
    for out in outs:
        assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert len({_scientific_bytes(o / name) for o in outs}) == 1, name


def test_nonzero_seed_is_a_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {**FAST, "seed": 1})
    assert main(["inj", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "seed" in capsys.readouterr().err


def test_validate_without_cut_points_reports_a_verdict(tmp_path, capsys):
    # t_max = 0.3 ends before every cut, so the eikonal check has no cut
    # points to exclude around
    cfg = _write_cfg(tmp_path, {"scenario": "flat-torus-point",
                                "resolution": {"m": 16, "dt": 0.01,
                                               "t_max": 0.3}})
    assert main(["validate", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("FAIL: verdict")


def test_out_precedence_flag_then_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write_cfg(tmp_path, {**FAST, "out": str(tmp_path / "from_cfg")})
    assert main(["inj", "--config", cfg]) == 0
    assert (tmp_path / "from_cfg" / "inj.json").exists()
    assert main(["inj", "--config", cfg, "--out",
                 str(tmp_path / "from_flag")]) == 0
    assert (tmp_path / "from_flag" / "inj.json").exists()
    assert main(["inj", "--config", _write_cfg(tmp_path, FAST, "b.json")]) == 0
    assert (tmp_path / "out" / "inj.json").exists()


def test_inj_writes_outputs_and_manifest(tmp_path):
    cfg = _write_cfg(tmp_path, FAST)
    out = tmp_path / "out"
    assert main(["inj", "--config", cfg, "--out", str(out)]) == 0
    inj = json.loads((out / "inj.json").read_text())
    assert inj["inj_direct"] == pytest.approx(0.5, abs=5e-3)
    assert inj["branch"] == "loop"
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "inj"
    assert man["verdicts"]["inj_estimators_agree"] is True
    for name, digest in man["files"].items():
        body = (out / name).read_bytes()
        assert hashlib.sha256(body).hexdigest() == digest
    header = (out / "profiles.csv").read_text().splitlines()[0]
    assert header.startswith("dir_idx,s,side,rho,focal_t")
    assert header.split(",")[7] == "method"
    assert inj["cut_methods"] == {"crossing": 128, "focal": 0, "none": 0}


def test_cutlocus_outputs(tmp_path):
    cfg = _write_cfg(tmp_path, {"scenario": "flat-torus-point",
                                "resolution": {"m": 64, "dt": 2e-3}})
    out = tmp_path / "out"
    assert main(["cutlocus", "--config", cfg, "--out", str(out)]) == 0
    for name in ("cut_cloud.csv", "sep_points.csv", "cutlocus.json",
                 "manifest.json"):
        assert (out / name).exists()
    rows = (out / "cut_cloud.csv").read_text().splitlines()
    assert len(rows) > 10
    summary = json.loads((out / "cutlocus.json").read_text())
    assert summary["cut_methods"] == {"crossing": 64, "focal": 0, "none": 0}


def test_reruns_are_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path, FAST)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["inj", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["inj", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("inj.json", "profiles.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_thread_flag_does_not_change_results(tmp_path):
    cfg = _write_cfg(tmp_path, FAST)
    out1, out2 = tmp_path / "t1", tmp_path / "t8"
    assert main(["inj", "--config", cfg, "--out", str(out1),
                 "--threads", "1"]) == 0
    assert main(["inj", "--config", cfg, "--out", str(out2),
                 "--threads", "8"]) == 0
    for name in ("inj.json", "profiles.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_bad_thread_flag_exits_2_naming_it(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as ex:
        main(["sweep", "--scenario", "torus-line-shift-sweep", "--out",
              str(tmp_path / "o"), "--threads", value])
    assert ex.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["torus-line-shift-sweep",
                                      "warped-torus-bump-sweep"])
def test_sweep_outputs_do_not_depend_on_threads(tmp_path, scenario):
    cfg = _write_cfg(tmp_path, {"scenario": scenario,
                                "resolution": {"m": 32, "dt": 1e-2}})
    outs, codes = [], set()
    for th in (1, 2, 3):
        out = tmp_path / f"t{th}"
        codes.add(main(["sweep", "--config", cfg, "--out", str(out),
                        "--threads", str(th)]))
        with pytest.raises(ChildProcessError):      # no worker left behind
            os.waitpid(-1, os.WNOHANG)
        outs.append(out)
    assert len(codes) == 1
    for name in ("sweep.json", "sweep.csv"):
        assert len({(o / name).read_bytes() for o in outs}) == 1
    timings = json.loads((outs[2] / "manifest.json").read_text())["timings_s"]
    assert {"case tau=0", "case tau=0.2", "case tau=0.1", "case tau=0.05",
            "case tau=0.025"} <= set(timings)


def test_validate_reports(tmp_path):
    cfg = _write_cfg(tmp_path, FAST)
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "validate.json").read_text())
    assert rep["eikonal"]["frac_below_1e2"] >= 0.95
    # flat-chart geodesics are exact, so the refinement ratio degenerates
    assert rep["refinement"]["ratio"] >= 12.0 or \
        rep["refinement"]["endpoint_err_fine"] <= 1e-12
    assert (out / "eikonal_residuals.csv").exists()
    timings = json.loads((out / "manifest.json").read_text())["timings_s"]
    assert {"run_case", "rk4", "atlas", "loop_scan", "focal", "cut_times",
            "eikonal", "checks"} <= set(timings)


def test_validate_refinement_ratio_warped(tmp_path):
    cfg = _write_cfg(tmp_path, {"scenario": "warped-torus-line",
                                "resolution": {"m": 64, "dt": 2e-3}})
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "validate.json").read_text())
    assert 12.0 <= rep["refinement"]["ratio"] <= 20.0


_INLINE = {"backend": {"kind": "periodic-chart", "periods": [1.0, 1.0],
                       "metric": {"name": "flat"}},
           "submanifold": {"dim": 1, "m_N": 64,
                           "curve": {"name": "horizontal-circle", "y0": 0.0}},
           "resolution": {"m": 64, "dt": 2e-3, "t_max": 1.2}}
_SMALL = {"backend": {"kind": "periodic-chart"},
          "resolution": {"m": 16, "dt": 0.02, "t_max": 0.6}}


@pytest.mark.parametrize("cfg, key", [
    ({**FAST, "threads": "abc"}, "threads"),
    ({**FAST, "threads": 0}, "threads"),
    ({**FAST, "threads": -2}, "threads"),
    ({**FAST, "threads": 1.5}, "threads"),
    ({**FAST, "seed": "x"}, "config.seed"),
    ({**FAST, "seed": 0}, "config.seed"),
    ({**FAST, "resolution": {"m": "many"}}, "resolution.m"),
    ({**FAST, "resolution": {"m_N": "x"}}, "resolution.m_N"),
    ({**FAST, "resolution": {"dt": None}}, "resolution.dt"),
    ({**FAST, "resolution": {"tol": 1e-3}}, "resolution.tol"),
    ({**FAST, "resolution": {"capture_radius": 1e-2}},
     "resolution.capture_radius"),
    ({**FAST, "resolution": {"angle_tol": 1e-3}}, "resolution.angle_tol"),
    ({**FAST, "resolution": {"pair_tol": 3e-3}}, "resolution.pair_tol"),
    ({**FAST, "resolution": {"dedup_radius": 1e-6}},
     "resolution.dedup_radius"),
    ({**FAST, "resolution": [1, 2]}, "resolution"),
    ({**FAST, "resolution": "fine"}, "resolution"),
    ({**_INLINE, "backend": {**_INLINE["backend"], "periods": [1]}},
     "backend.periods"),
    ({**_INLINE, "backend": {**_INLINE["backend"], "periods": [1, 1, 1]}},
     "backend.periods"),
    ({**_INLINE, "backend": {**_INLINE["backend"], "periods": 1}},
     "backend.periods"),
    ({**_INLINE, "backend": {**_INLINE["backend"], "periods": [1, 0]}},
     "backend.periods"),
    ({**_INLINE, "backend": {**_INLINE["backend"],
                             "periods": [1, float("inf")]}},
     "backend.periods"),
    ({**_SMALL, "submanifold": {"dim": 0, "point": [float("nan"), 0.2]}},
     "submanifold.point"),
    ({**_SMALL, "submanifold": {"dim": 0,
                                    "point": [0.5, float("inf")]}},
     "submanifold.point"),
    ({**_SMALL, "submanifold": {"dim": 1, "curve": {
        "name": "horizontal-circle", "y0": float("nan")}}},
     "submanifold.curve"),
    ({**_SMALL, "submanifold": {"dim": 1, "curve": {
        "name": "horizontal-circle", "y0": float("inf")}}},
     "submanifold.curve"),
    ({**_INLINE, "submanifold": {**_INLINE["submanifold"], "m_N": "x"}},
     "submanifold.m_N"),
    ({"backend": {"kind": "periodic-chart"}, "submanifold": [1, 2],
      "resolution": {"m_N": 64}}, "submanifold"),
    ({"backend": {"kind": "periodic-chart"}, "submanifold": "x",
      "resolution": {"m_N": 64}}, "submanifold"),
    ({**FAST, "resolution": {"m": 8}}, "resolution.m"),
    ({**FAST, "resolution": {"m": 16.7}}, "resolution.m"),
    ({**_INLINE, "backend": {**_INLINE["backend"],
                             "metric": {"name": "no-such-metric"}}},
     "backend"),
    ({**FAST, "family": {"kind": "conformal", "tau": ["b", "a"]}},
     "family.tau"),
    ({**FAST, "family": {"kind": "conformal", "tau": [0.2, None]}},
     "family.tau"),
    ({**FAST, "family": {"kind": "conformal", "tau": [[0.2], [0.1]]}},
     "family.tau"),
    ({**FAST, "family": {"kind": "conformal", "tau": [True, 0.5]}},
     "family.tau"),
    ({**FAST, "family": {"kind": "conformal", "tau": [float("nan"), 0.5]}},
     "family.tau"),
], ids=["threads", "threads-zero", "threads-negative", "threads-fraction",
        "seed", "seed-zero", "m-text", "m_N-text", "dt-null", "removed-tol",
        "removed-capture_radius", "removed-angle_tol", "removed-pair_tol",
        "removed-dedup_radius", "resolution-list", "resolution-text",
        "periods-one", "periods-three", "periods-number", "periods-zero",
        "periods-inf", "point-nan", "point-inf", "curve-nan", "curve-inf",
        "submanifold-m_N", "submanifold-list-m_N", "submanifold-text-m_N",
        "m-below-16", "m-fraction", "unknown-metric", "tau-text", "tau-null",
        "tau-nested", "tau-bool", "tau-nan"])
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, cfg, key):
    argv = ["inj", "--config", json.dumps(cfg), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["fd_step", "curv_step"])
def test_removed_step_knobs_are_rejected_by_name(tmp_path, capsys, key):
    # the metric jets are exact: no finite-difference step is left to set
    cfg = {**_INLINE, "backend": {**_INLINE["backend"], key: 1e-4}}
    argv = ["inj", "--config", json.dumps(cfg), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: backend.{key}: unknown key\n"


def test_long_inline_json_config_runs(tmp_path):
    cfg = json.dumps({**_INLINE, "threads": 1,
                      "out": str(tmp_path / "from_cfg")})
    assert len(cfg) > 300
    assert main(["inj", "--config", cfg]) == 0
    assert (tmp_path / "from_cfg" / "inj.json").exists()


def test_unreadable_config_path_exits_2(tmp_path, capsys):
    assert main(["inj", "--config", str(tmp_path / "missing.json")]) == 2
    assert "missing.json" in capsys.readouterr().err


_POINT = {**_INLINE, "submanifold": {"dim": 0, "point": [0.25, 0.25]}}
_SPHERE = {**_INLINE, "backend": {"kind": "implicit-surface",
                                  "surface": {"name": "sphere"}},
           "submanifold": {"dim": 1, "curve": {"name": "equator"}}}
_SWEEP = {**FAST, "family": {"kind": "conformal", "tau": [0.2, 0.1],
                             "phi": {"name": "sine-y", "amplitude": 1.0}}}
_SHIFT = {"scenario": "torus-line-shift-sweep",
          "family": {"kind": "embedding", "tau": [0.2, 0.1],
                     "target": {"name": "horizontal-circle", "y0": 0.1}}}


_BLEND = {"scenario": "warped-torus-line",
          "family": {"kind": "blend", "tau": [1.0, 0.5],
                     "metric": {"name": "warped-diag-g22", "amplitude": 0.3}}}


def _with(cfg, block, **change):
    """cfg with the named sub-block of ``block`` updated by change."""
    (key, sub), = change.items()
    return {**cfg, block: {**cfg[block], key: {**cfg[block][key], **sub}}}


def _add(cfg, block, **keys):
    """cfg with keys added to its block ``block``."""
    return {**cfg, block: {**cfg[block], **keys}}


@pytest.mark.parametrize("command, cfg, key, word", [
    ("inj", {**_POINT, "submanifold": {"dim": 0, "point": "abc"}},
     "submanifold.point", "abc"),
    ("inj", {**_POINT, "submanifold": {"dim": 0, "point": [0.5]}},
     "submanifold.point", "2 coordinates"),
    ("inj", {**_SPHERE, "submanifold": {"dim": 0, "point": [0, 0, 2]}},
     "submanifold.point", "projects it to [0.0, 0.0, 1.0"),
    ("inj", _with(_INLINE, "submanifold", curve={"y0": "x"}),
     "submanifold.curve", "'x'"),
    ("inj", _with(_INLINE, "submanifold", curve={"y00": 0.1}),
     "submanifold.curve", "'y00'"),
    ("inj", _with(_SPHERE, "submanifold", curve={"z0": 0.3}),
     "submanifold.curve", "'z0'"),
    ("inj", _with(_INLINE, "backend", metric={"amplitud": 0.5}), "backend",
     "'amplitud'"),
    ("inj", _with(_SPHERE, "backend", surface={"radiu": 2.0}), "backend",
     "'radiu'"),
    ("inj", {**_SPHERE, "backend": {**_SPHERE["backend"], "psi": {
        "name": "linear-z", "wavenumber": 2.0}}}, "backend", "'wavenumber'"),
    ("sweep", _with(_SWEEP, "family", phi={"amplitude": "x"}), "family.phi",
     "'x'"),
    ("sweep", _with(_SWEEP, "family", phi={"amplitud": 0.5}), "family.phi",
     "'amplitud'"),
    ("sweep", _with(_SHIFT, "family", target={"y00": 0.1}), "family.target",
     "'y00'"),
    ("sweep", _with(_SHIFT, "family", target={"y0": "x"}), "family.target",
     "'x'"),
    ("sweep", _with(_SHIFT, "family", target={"y0": float("nan")}),
     "family.target", "non-finite samples"),
    ("inj", _with(_SPHERE, "submanifold", curve={"radius": 2.0}),
     "submanifold.curve", "'equator' is off the surface"),
    ("inj", _with(_SPHERE, "submanifold", curve={"name": "latitude",
                                                 "radius": 0.5, "z0": 0.3}),
     "submanifold.curve", "'latitude' is off the surface"),
    ("sweep", {**_SPHERE, "family": {
        "kind": "embedding", "tau": [0.2, 0.1],
        "target": {"name": "latitude", "radius": 2.0, "z0": 0.3}}},
     "family.target", "'latitude' is off the surface"),
    ("inj", _with(_SPHERE, "backend", surface={"radius": 0}),
     "backend.surface", "radius must be a finite number > 0"),
    ("inj", _with(_SPHERE, "backend", surface={"name": "ellipsoid",
                                               "semi_axes": [1, 1]}),
     "backend.surface", "semi_axes must be 3 finite numbers > 0"),
    ("inj", _with(_SPHERE, "backend", surface={"name": "ellipsoid",
                                               "semi_axes": [1, -1, 1]}),
     "backend.surface", "semi_axes must be 3 finite numbers > 0"),
    ("inj", _with(_SPHERE, "backend", surface={"name": "ellipsoid",
                                               "semi_axes": [1, 0, 1]}),
     "backend.surface", "semi_axes must be 3 finite numbers > 0"),
    # a key that the block's kind does not read is rejected before the run,
    # even where the command would ignore it (inj reads no family)
    ("inj", _add(_INLINE, "backend", psi={"name": "linear-z"}),
     "backend.psi", "unknown key"),
    ("inj", _add(_INLINE, "backend", surface={"name": "sphere"}),
     "backend.surface", "unknown key"),
    ("inj", _add(_SPHERE, "backend", periods=[1.0, 1.0]), "backend.periods",
     "unknown key"),
    ("inj", _add(_SPHERE, "backend", metric={"name": "nope"}),
     "backend.metric", "unknown key"),
    ("inj", _add(_POINT, "submanifold", curve={"name": "horizontal-circle"}),
     "submanifold.curve", "unknown key"),
    ("inj", _add(_INLINE, "submanifold", point=[0.25, 0.25]),
     "submanifold.point", "unknown key"),
    ("inj", {**FAST, "submanifold": {"dim": 0, "point": [0.25, 0.25]}},
     "config.submanifold", "conflicts with scenario"),
    ("inj", {**FAST, "family": {"tau": [0.2, 0.1]}}, "family.kind",
     "unknown kind None"),
    ("inj", {**FAST, "family": {"kind": "twist", "tau": [0.2, 0.1]}},
     "family.kind", "unknown kind 'twist'"),
    ("inj", _add(_BLEND, "family", phi={"name": "sine-y"}), "family.phi",
     "unknown key"),
    ("inj", _add(_BLEND, "family", target={"name": "horizontal-circle"}),
     "family.target", "unknown key"),
    ("inj", _add(_SHIFT, "family", phi={"name": "sine-y"}), "family.phi",
     "unknown key"),
    ("inj", _add(_SHIFT, "family", metric={"name": "flat"}), "family.metric",
     "unknown key"),
    ("inj", _add(_SWEEP, "family", metric={"name": "flat"}), "family.metric",
     "unknown key"),
    ("inj", _add(_SWEEP, "family", target={"name": "nope"}), "family.target",
     "unknown key"),
    ("sweep", _with(_BLEND, "family", metric={"name": "nope"}),
     "family.metric", "unknown chart metric field 'nope'"),
    # a family that the backend or submanifold cannot carry is rejected by
    # the key that chose it, before the run
    ("sweep", {"scenario": "sphere-equator",
               "family": {"kind": "blend", "tau": [0.2, 0.1]}},
     "family.kind", "needs a periodic-chart backend"),
    ("sweep", {"scenario": "sphere-equator",
               "family": {"kind": "blend", "tau": [0.2, 0.1],
                          "metric": {"name": "flat"}}},
     "family.kind", "needs a periodic-chart backend"),
    ("sweep", {**_SHIFT, "scenario": "flat-torus-point"}, "family.target",
     "the submanifold is a point"),
], ids=["point-text", "point-length", "point-off-surface", "curve-value",
        "curve-unknown-name", "surface-curve-unknown-name",
        "metric-unknown-name",
        "surface-unknown-name", "psi-unknown-name", "phi-value",
        "phi-unknown-name", "target-unknown-name", "target-value",
        "target-nan",
        "surface-curve-off-surface", "latitude-off-surface",
        "target-off-surface", "sphere-radius-zero", "ellipsoid-two-axes",
        "ellipsoid-negative-axis", "ellipsoid-zero-axis", "chart-psi",
        "chart-surface", "surface-periods", "surface-metric",
        "point-with-curve", "curve-with-point", "submanifold-with-scenario",
        "family-without-kind", "family-unknown-kind", "blend-phi",
        "blend-target", "embedding-phi", "embedding-metric",
        "conformal-metric", "conformal-target", "blend-metric-unknown-name",
        "blend-on-surface", "blend-on-surface-with-metric",
        "embedding-on-point"])
def test_bad_named_block_exits_2_naming_the_block(tmp_path, capsys, command,
                                                  cfg, key, word):
    argv = [command, "--config", json.dumps(cfg), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1
    assert word in err
