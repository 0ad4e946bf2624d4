"""Package layout: one place knows whether a backend is a chart or a surface.

``geometry.py`` defines both backends, ``config.py`` builds them from a
spec's ``kind`` and ``__init__.py`` re-exports them.  Every other module
reaches the chart / surface difference only through backend methods, so a
new backend needs edits in ``geometry.py`` alone.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cutlab"
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
