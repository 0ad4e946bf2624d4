"""Package layout: one place knows whether a backend is a chart or a surface.

``geometry.py`` defines both backends, ``config.py`` builds them from a
spec's ``kind`` and ``__init__.py`` re-exports them.  Every other module
reaches the chart / surface difference only through backend methods, so a
new backend needs edits in ``geometry.py`` alone.

The benchmark's tracer (``bench/tracing.py``) patches package names and reads
atlas fields from outside; the last test keeps a refactor from dropping one.
"""
import ast
import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cutlab"
KINDS = {"PeriodicChart", "ImplicitSurface"}
ALLOWED = {"geometry.py", "config.py", "__init__.py"}


def kind_references(source: str) -> list[tuple[int, str]]:
    """(line, name) of every import of, or reference to, a backend class:
    imports, isinstance checks, annotations and calls alike."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out += [(node.lineno, a.name) for a in node.names
                    if a.name in KINDS]
        elif isinstance(node, ast.Name) and node.id in KINDS:
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in KINDS:
            out.append((node.lineno, node.attr))
    return sorted(out)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name not in ALLOWED))
def test_module_does_not_know_the_backend_kind(module):
    assert kind_references((SRC / module).read_text()) == []


def test_checker_sees_imports_and_isinstance():
    src = ("from .geometry import Backend, PeriodicChart\n"
           "import cutlab.geometry as g\n"
           "ok = isinstance(b, g.ImplicitSurface)\n")
    assert kind_references(src) == [(1, "PeriodicChart"),
                                    (3, "ImplicitSurface")]


def _bench_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_patches_and_restores_every_traced_name():
    from cutlab import stability
    from cutlab.config import scenario

    tracing = _bench_tracing()
    cfg = scenario("flat-torus-line")
    b = cfg.build_backend()
    N = cfg.build_submanifold(b)
    res = dataclasses.replace(cfg.resolution, m=16, dt=1e-2)
    tracer = tracing.Tracer().install()
    patched = list(tracer._undo)
    try:
        stability.run_case(b, N, res)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, orig in patched:
        assert owner.__dict__[attr] is orig
    metrics = tracing.layer_metrics(tracer.dump(), 1.0, 1.0, 0.0)
    assert list(metrics) == [name for name, _ in tracing.PER_LAYER]
    assert metrics["stability.run_case.count"] == 1
    assert metrics["wavefront.atlas.samples"] > 0
