import json
import math

import pytest

from cutlab.config import (ConfigError, SCENARIOS, build_backend,
                           build_curve, build_family_field,
                           build_submanifold, parse_config, scenario)
from cutlab.geometry import ImplicitSurface, PeriodicChart


def test_all_bundled_scenarios_construct():
    for name in SCENARIOS:
        cfg = scenario(name)
        b = cfg.build_backend()
        N = cfg.build_submanifold(b)
        assert N.dim in (0, 1)


@pytest.mark.parametrize("radius", [1.0, 2.5])
def test_bundled_surface_curves_lie_on_their_sphere(radius):
    # the on-surface check passes the equator and latitudes of any sphere
    b = build_backend({"kind": "implicit-surface",
                       "surface": {"name": "sphere", "radius": radius}})
    for spec in ({"name": "equator", "radius": radius},
                 {"name": "latitude", "radius": radius, "z0": 0.3 * radius},
                 {"name": "latitude", "radius": radius, "z0": -0.9 * radius}):
        for m_N in (64, 256, 1000):
            assert build_curve(b, spec, "submanifold.curve", m_N).m_N == m_N


def test_surface_curve_off_its_surface_names_the_key():
    b = build_backend({"kind": "implicit-surface",
                       "surface": {"name": "sphere", "radius": 1.0}})
    for key in ("submanifold.curve", "family.target"):
        with pytest.raises(ConfigError, match=rf"^{key}: curve 'equator' is "
                           r"off the surface: projection moves its sample "
                           r"at s=0 by 1 \(tolerance 1e-09\)$"):
            build_curve(b, {"name": "equator", "radius": 2.0}, key, 64)


def test_scenario_backend_kinds():
    assert isinstance(scenario("flat-torus-line").build_backend(),
                      PeriodicChart)
    assert isinstance(scenario("sphere-equator").build_backend(),
                      ImplicitSurface)


def test_unknown_scenario():
    with pytest.raises(ConfigError, match="unknown scenario"):
        scenario("klein-bottle")


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="bad_key"):
        parse_config({"scenario": "flat-torus-line", "bad_key": 1})


def test_resolution_override_merges():
    cfg = parse_config({"scenario": "flat-torus-line",
                        "resolution": {"m": 64}})
    assert cfg.resolution.m == 64
    assert cfg.resolution.dt == scenario("flat-torus-line").resolution.dt


def test_resolution_m_N_sets_submanifold_sampling():
    cfg = parse_config({"scenario": "flat-torus-line",
                        "resolution": {"m_N": 16}})
    assert cfg.build_submanifold(cfg.build_backend()).m_N == 16
    with pytest.raises(ConfigError, match="resolution.m_N"):
        parse_config({"scenario": "flat-torus-line",
                      "resolution": {"m_N": 0}})


def test_backend_conflicts_with_scenario():
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config({"scenario": "flat-torus-line",
                      "backend": {"kind": "periodic-chart"}})


def test_explicit_config_without_scenario():
    cfg = parse_config({
        "backend": {"kind": "periodic-chart", "periods": [1.0, 1.0],
                    "metric": {"name": "flat"}},
        "submanifold": {"dim": 0, "point": [0.2, 0.3]},
    })
    b = cfg.build_backend()
    N = cfg.build_submanifold(b)
    assert N.dim == 0


def test_missing_backend_rejected():
    with pytest.raises(ConfigError, match="backend"):
        parse_config({"submanifold": {"dim": 0, "point": [0.2, 0.3]}})


def test_family_requires_tau_ladder():
    base = {"scenario": "flat-torus-line"}
    with pytest.raises(ConfigError, match="family.tau"):
        parse_config({**base, "family": {"kind": "conformal"}})
    for bad in ([0.1, 0.2], [0.2, 0.1, 0.1], [0.2, 0.0], [0.1]):
        with pytest.raises(ConfigError, match="decreasing"):
            parse_config({**base, "family": {"kind": "conformal",
                                             "tau": bad}})
    for bad in (["b", "a"], [0.2, None], [[0.2], [0.1]], [True, 0.5],
                [math.nan, 0.5], [0.5, math.inf]):
        with pytest.raises(ConfigError, match="^family.tau: expected a number"):
            parse_config({**base, "family": {"kind": "conformal",
                                             "tau": bad}})


def test_json_string_and_parse_error():
    cfg = parse_config(json.dumps({"scenario": "flat-torus-point"}))
    assert cfg.scenario == "flat-torus-point"
    with pytest.raises(ConfigError, match="line"):
        parse_config("{not json")


def test_sweep_scenarios_carry_families():
    for name in ("warped-torus-bump-sweep", "torus-line-shift-sweep",
                 "torus-homothety-sweep"):
        cfg = scenario(name)
        assert cfg.family is not None
        taus = cfg.family["tau"]
        assert all(t2 < t1 for t1, t2 in zip(taus, taus[1:]))
        # the family's named field or target curve passes the strict
        # parameter check
        b = cfg.build_backend()
        if "phi" in cfg.family:
            build_family_field(cfg, b)
        if "target" in cfg.family:
            build_submanifold(b, {"dim": 1, "curve": cfg.family["target"]})


def test_nonzero_seed_rejected_by_name():
    # runs draw no random numbers: no seed, not even 0, is a key
    for seed in (3, 0):
        with pytest.raises(ConfigError, match="^config.seed: unknown key$"):
            parse_config({"scenario": "flat-torus-line", "seed": seed})
