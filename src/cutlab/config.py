"""Run configuration: JSON ingestion with strict key checking, and the
bundled scenario registry."""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .geometry import (Backend, GeometryError, ImplicitSurface, PeriodicChart,
                       ZERO_FIELD, ambient_scalar_field, chart_metric_field,
                       chart_scalar_field, level_surface)
from .stability import Resolution, _check_ladder
from .submanifold import (SubmanifoldSpec, chart_curve, curve_submanifold,
                          point_submanifold, surface_curve)


class ConfigError(Exception):
    """Malformed configuration; message names the offending key."""


def _check_keys(block: dict, allowed: set[str], where: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected an object")
    for k in block:
        if k not in allowed:
            raise ConfigError(f"{where}.{k}: unknown key")


# per block, the key that names its kind and the other keys each kind reads
_KIND_KEYS = {
    ("backend", "kind"): {"periodic-chart": {"periods", "metric"},
                          "implicit-surface": {"surface", "psi"}},
    ("submanifold", "dim"): {0: {"point", "m_N"}, 1: {"curve", "m_N"}},
    ("family", "kind"): {"conformal": {"tau", "phi"},
                         "blend": {"tau", "metric"},
                         "embedding": {"tau", "target"}},
}


def _kind_of(block, where: str, key: str):
    """block[key], once it names a kind of the block and every other key
    of the block is one that this kind reads."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected an object")
    kinds = _KIND_KEYS[where, key]
    kind = block.get(key)
    allowed = next((v for k, v in kinds.items() if k == kind), None)
    if allowed is None:
        raise ConfigError(f"{where}.{key}: unknown kind {kind!r}; choose "
                          f"one of {list(kinds)}")
    _check_keys(block, allowed | {key}, where)
    return kind


def _number(value, key: str, integer: bool = False, positive: bool = True):
    """value as a finite float, or as an int when ``integer``, above 0 when
    ``positive``; anything else is a ConfigError that names key."""
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x) or (integer and not x.is_integer()):
        want = "an integer" if integer else "a number"
        raise ConfigError(f"{key}: expected {want}, got {value!r}")
    if positive and x <= 0:
        raise ConfigError(f"{key}: must be positive")
    return int(x) if integer else x


@contextmanager
def _named(key: str, errors=(GeometryError, TypeError, ValueError)):
    """Re-raise a constructor's rejection of a config value (one of errors)
    as a ConfigError that names the key."""
    try:
        yield
    except errors as ex:
        raise ConfigError(f"{key}: {ex}") from ex


def _name_of(block, key: str):
    """The name of the config block under key and a copy of its parameters."""
    params = dict(block)
    name = params.pop("name", None)
    if name is None:
        raise ConfigError(f"{key}.name: required")
    return name, params


@dataclass
class RunConfig:
    scenario: str | None
    backend_spec: dict
    submanifold_spec: dict
    resolution: Resolution
    family: dict | None
    out: str | None = None
    # most worker processes of a command (a sweep's cases, or the cut-time
    # search, eikonal probes and validate checks of one run); None: one per CPU
    threads: int | None = None

    def build_backend(self) -> Backend:
        return build_backend(self.backend_spec)

    def build_submanifold(self, b: Backend) -> SubmanifoldSpec:
        return build_submanifold(b, self.submanifold_spec)


_TOP_KEYS = {"scenario", "backend", "submanifold", "resolution", "family",
             "out", "threads"}
_RES_KEYS = {"m", "m_N", "dt", "t_max"}


def build_backend(spec: dict) -> Backend:
    if _kind_of(spec, "backend", "kind") == "periodic-chart":
        periods = spec.get("periods", [1.0, 1.0])
        if not isinstance(periods, (list, tuple)) or len(periods) != 2:
            raise ConfigError(f"backend.periods: expected two numbers, got "
                              f"{periods!r}")
        periods = tuple(_number(v, "backend.periods") for v in periods)
        name, mspec = _name_of(spec.get("metric", {"name": "flat"}),
                               "backend.metric")
        return PeriodicChart(periods, chart_metric_field(name, periods, **mspec))
    name, sspec = _name_of(spec.get("surface", {"name": "sphere"}),
                           "backend.surface")
    # a bad value names the block; an unknown parameter, a
    # GeometryError, names the backend as for every other backend block
    with _named("backend.surface", ValueError):
        surf = level_surface(name, **sspec)
    psi = ZERO_FIELD
    if "psi" in spec:
        pname, pspec = _name_of(spec["psi"], "backend.psi")
        psi = ambient_scalar_field(pname, **pspec)
    return ImplicitSurface(surf, psi=psi)


def build_submanifold(b: Backend, spec: dict) -> SubmanifoldSpec:
    dim = _kind_of(spec, "submanifold", "dim")
    m_N = _number(spec.get("m_N", 256), "submanifold.m_N", integer=True)
    if dim == 0:
        if "point" not in spec:
            raise ConfigError("submanifold.point: required for dim 0")
        with _named("submanifold.point"):
            N = point_submanifold(spec["point"], m_N=m_N)
        if N.point.shape != (b.dim,) or not np.isfinite(N.point).all():
            raise ConfigError(f"submanifold.point: expected {b.dim} "
                              f"coordinates, each finite, got "
                              f"{spec['point']!r}")
        if isinstance(b, ImplicitSurface):
            with _named("submanifold.point"):
                on = b.project(N.point)
            if (on != N.point).any():
                raise ConfigError(f"submanifold.point: {spec['point']!r} is "
                                  f"off the surface, which projects it to "
                                  f"{on.tolist()}")
        return N
    return build_curve(b, spec.get("curve", {}), "submanifold.curve", m_N)


# how far projecting a surface curve's sample may move it (ambient length)
CURVE_ON_SURFACE_TOL = 1e-9


def build_curve(b: Backend, spec, key: str, m_N: int) -> SubmanifoldSpec:
    """The named curve of the config block ``spec``; errors name ``key``.
    A curve with a non-finite sample among its m_N is rejected, and so, on
    an implicit surface, is one whose projection moves a sample by more
    than CURVE_ON_SURFACE_TOL."""
    with _named(key):
        name, cspec = _name_of(spec, key)
        chart = isinstance(b, PeriodicChart)
        N = curve_submanifold(chart_curve(name, b.periods, **cspec) if chart
                              else surface_curve(name, **cspec), m_N=m_N)
        pts = N.sample_points()
        if not np.isfinite(pts).all():
            raise ConfigError(f"{key}: curve {name!r} has non-finite "
                              f"samples")
        if chart:
            return N
        moved = np.linalg.norm(b.project(pts) - pts, axis=-1)
    off = np.flatnonzero(~(moved <= CURVE_ON_SURFACE_TOL))
    if off.size:
        i = off[0]
        raise ConfigError(f"{key}: curve {name!r} is off the surface: "
                          f"projection moves its sample at s={i / m_N:.6g} "
                          f"by {moved[i]:.3g} (tolerance "
                          f"{CURVE_ON_SURFACE_TOL:g})")
    return N


def build_family_field(cfg: RunConfig, b: Backend):
    """Scalar field for a conformal family, from the family block."""
    with _named("family.phi"):
        name, fspec = _name_of(cfg.family.get("phi", {}), "family.phi")
        if isinstance(b, PeriodicChart):
            return chart_scalar_field(name, b.periods, **fspec)
        return ambient_scalar_field(name, **fspec)


def build_blend_target(cfg: RunConfig) -> Backend:
    """The end g1 of a blend family: the backend block with family.metric,
    when given, in place of its metric."""
    spec = dict(cfg.backend_spec)
    if "metric" in cfg.family:
        spec["metric"] = cfg.family["metric"]
    with _named("family.metric",
                (ConfigError, GeometryError, TypeError, ValueError)):
        return build_backend(spec)


def _check_family_fits(cfg: RunConfig):
    """Reject, by the key that chose it, a family that the run's backend or
    submanifold cannot carry: a blend interpolates two chart metrics, and
    the target block of an embedding family builds a curve."""
    kind = cfg.family["kind"]
    backend = cfg.backend_spec["kind"]
    if kind == "blend" and backend != "periodic-chart":
        raise ConfigError(f"family.kind: a blend family needs a "
                          f"periodic-chart backend, not {backend!r}")
    sub = cfg.submanifold_spec
    if kind == "embedding" and isinstance(sub, dict) and sub.get("dim") == 0:
        raise ConfigError("family.target: names a curve, but the "
                          "submanifold is a point (dim 0)")


def _parse_resolution(block: dict) -> Resolution:
    # m_N samples the submanifold; parse_config moves it into that spec
    kw = {k: _number(v, f"resolution.{k}", integer=k == "m")
          for k, v in block.items() if k != "m_N"}
    if kw["m"] < 16:
        raise ConfigError("resolution.m: need at least 16 directions")
    return Resolution(**kw)


def parse_config(source) -> RunConfig:
    """Parse a config dict, a JSON string (text starting with "{"), or a
    path to a JSON file."""
    if isinstance(source, (str, Path)):
        text = str(source)
        if not text.lstrip().startswith("{"):
            try:
                text = Path(text).read_text()
            except OSError as ex:
                raise ConfigError(f"config: cannot read {text!r}: "
                                  f"{ex.strerror}") from ex
        try:
            data = json.loads(text)
        except json.JSONDecodeError as ex:
            raise ConfigError(f"config JSON parse error at line {ex.lineno}, "
                              f"column {ex.colno}: {ex.msg}") from ex
    else:
        data = source
    _check_keys(data, _TOP_KEYS, "config")
    if "scenario" in data:
        cfg = scenario(data["scenario"])
    else:
        if "backend" not in data or "submanifold" not in data:
            raise ConfigError("config.backend / config.submanifold: required "
                              "when no scenario is named")
        cfg = RunConfig(None, data["backend"], data["submanifold"],
                        Resolution(), None)
        with _named("backend"):           # validate eagerly
            build_backend(cfg.backend_spec)
    for key in ("backend", "submanifold"):
        if key in data and cfg.scenario is not None:
            raise ConfigError(f"config.{key}: conflicts with scenario")
    if "resolution" in data:
        _check_keys(data["resolution"], _RES_KEYS, "resolution")
        cfg.resolution = _parse_resolution({**asdict(cfg.resolution),
                                            **data["resolution"]})
        if "m_N" in data["resolution"]:
            m_N = _number(data["resolution"]["m_N"], "resolution.m_N",
                          integer=True)
            if not isinstance(cfg.submanifold_spec, dict):
                raise ConfigError("submanifold: expected an object")
            cfg.submanifold_spec = dict(cfg.submanifold_spec, m_N=m_N)
    if "family" in data:
        fam = data["family"]
        _kind_of(fam, "family", "kind")
        cfg.family = fam
    if cfg.family is not None:
        taus = cfg.family.get("tau")
        if not isinstance(taus, (list, tuple)) or len(taus) < 2:
            raise ConfigError("family.tau: must be a strictly decreasing "
                              "positive ladder")
        with _named("family.tau"):
            _check_ladder([_number(t, "family.tau", positive=False)
                           for t in taus])
        _check_family_fits(cfg)
    if "out" in data:
        cfg.out = str(data["out"])
    if "threads" in data:
        cfg.threads = _number(data["threads"], "threads", integer=True)
    return cfg


# ---------------------------------------------------------------------------
# bundled scenarios
# ---------------------------------------------------------------------------

def scenario(name: str) -> RunConfig:
    if name not in SCENARIOS:
        raise ConfigError(f"scenario: unknown scenario {name!r}; "
                          f"choose one of {sorted(SCENARIOS)}")
    backend, sub, res, fam = SCENARIOS[name]
    return RunConfig(name, dict(backend), dict(sub), res,
                     None if fam is None else dict(fam))


_FLAT = {"kind": "periodic-chart", "periods": [1.0, 1.0],
         "metric": {"name": "flat"}}
_WARPED = {"kind": "periodic-chart", "periods": [1.0, 1.0],
           "metric": {"name": "warped-diag", "amplitude": 0.2, "harmonic": 1}}
_SPHERE = {"kind": "implicit-surface", "surface": {"name": "sphere",
                                                   "radius": 1.0}}
_LINE = {"dim": 1, "curve": {"name": "horizontal-circle", "y0": 0.0},
         "m_N": 256}

SCENARIOS: dict[str, tuple] = {
    "flat-torus-line": (_FLAT, _LINE, Resolution(t_max=1.2), None),
    "flat-torus-point": (_FLAT, {"dim": 0, "point": [0.25, 0.25]},
                         Resolution(t_max=1.2), None),
    "sphere-equator": (_SPHERE,
                       {"dim": 1, "curve": {"name": "equator", "radius": 1.0},
                        "m_N": 256},
                       Resolution(t_max=3.4), None),
    "warped-torus-line": (_WARPED, _LINE, Resolution(t_max=1.4), None),
    "warped-torus-bump-sweep": (_WARPED, _LINE, Resolution(t_max=1.6),
                                {"kind": "conformal",
                                 "phi": {"name": "sine-y", "amplitude": 1.0},
                                 "tau": [0.2, 0.1, 0.05, 0.025]}),
    "torus-line-shift-sweep": (_FLAT, _LINE, Resolution(t_max=1.2),
                               {"kind": "embedding",
                                "target": {"name": "horizontal-circle",
                                           "y0": 0.1},
                                "tau": [0.2, 0.1, 0.05, 0.025]}),
    "torus-homothety-sweep": (_FLAT, _LINE, Resolution(t_max=1.6),
                              {"kind": "conformal",
                               "phi": {"name": "constant", "value": 1.0},
                               "tau": [0.2, 0.1, 0.05, 0.025]}),
}
