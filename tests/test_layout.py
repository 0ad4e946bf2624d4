"""Package layout: one place knows whether a backend is a chart or a surface,
one module forks processes, and every defaulted parameter is set by a call.

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
import os
import subprocess
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


def test_import_loads_no_process_pool():
    # forking._fork_map forks the workers itself; the benchmark's setup_s
    # times this import, so a pool module must not ride along
    code = ("import sys, cutlab; print([m for m in ('multiprocessing', "
            "'concurrent.futures') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def fork_calls(source: str) -> list[int]:
    """Lines that reach os.fork: the attribute os.fork, or fork imported
    from os."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "fork"
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            out.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            out += [node.lineno for a in node.names if a.name == "fork"]
    return sorted(out)


def test_only_the_fork_helper_forks():
    # every fork site goes through forking._fork_map, which reaps its
    # children; the helper imports nothing of cutlab, so any module may use it
    assert fork_calls("import os\npid = os.fork()\nfrom os import fork\n") \
        == [2, 3]
    forks = {p.name: fork_calls(p.read_text()) for p in SRC.glob("*.py")}
    assert [name for name, lines in forks.items() if lines] == ["forking.py"]
    tree = ast.parse((SRC / "forking.py").read_text())
    assert not [n for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) and n.level > 0]


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


# -- every defaulted parameter is set by some call ----------------------------
# A default that no call in the package overrides is a constant under another
# name.  Calls are resolved by name: f(...) and x.f(...) reach every function
# or method called f, and C(...) reaches the constructor of class C (its
# __init__, or a dataclass's or NamedTuple's fields).  An argument that only
# forwards a value that is itself unset sets nothing: the caller's own
# defaulted parameter passed on under any name, or a constructor argument
# x.f handed to field f, which copies the field of another instance.

# defaulted parameters that only the tests set, with the reason
TEST_ONLY = {
    "geodesics.normal_exp_jacobian(fd)":
        "the Jacobian tests step the s-difference at two widths",
    "geometry.PeriodicChart.metric(check)":
        "the SPD-check tests read the metric of points outside the cone",
    "stability.curvature_stats(grid_spacing)":
        "the curvature tests sample a coarser grid than validate's",
    "submanifold.foot_point(tube_radius)":
        "the foot-point tests move the tube edge past their query points",
}


@dataclasses.dataclass
class _Def:
    name: str                   # "module.qualname", as reported
    params: list[str]           # positional parameters after self / cls
    defaults: set[str]          # the defaulted ones, keyword-only included
    fields: bool = False        # a dataclass's or NamedTuple's fields


def _is_dataclass(cls: ast.ClassDef) -> bool:
    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", getattr(node, "attr", None))
    return (any(name(d) == "dataclass" for d in cls.decorator_list)
            or any(name(b) == "NamedTuple" for b in cls.bases))


def _function_def(qual: str, fn, method: bool) -> _Def:
    a = fn.args
    pos = [p.arg for p in a.posonlyargs + a.args]
    static = any(getattr(d, "id", None) == "staticmethod"
                 for d in fn.decorator_list)
    defaults = set(pos[len(pos) - len(a.defaults):]) | {
        p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
    return _Def(qual, pos[1:] if method and not static else pos, defaults)


def _field_def(qual: str, cls: ast.ClassDef) -> _Def:
    fields = [n for n in cls.body if isinstance(n, ast.AnnAssign)
              and isinstance(n.target, ast.Name)
              and "ClassVar" not in ast.unparse(n.annotation)]
    return _Def(qual, [n.target.id for n in fields],
                {n.target.id for n in fields if n.value is not None}, True)


def unset_defaults(sources: dict[str, str]) -> list[str]:
    """'module.qualname(param)' of every defaulted parameter in the modules
    ``sources`` (module name -> text) that no call among them sets."""
    by_call: dict[tuple[str, bool], list[_Def]] = {}  # (name, via x.name)
    calls = []          # (call, scopes enclosing it, innermost last)
    assigned = set()    # attribute names assigned anywhere (x.f = ...)
    owner: dict[int, _Def] = {}                       # id(def node) -> _Def

    def add(name, d, attr_only=False):
        for via_attr in (True,) if attr_only else (True, False):
            by_call.setdefault((name, via_attr), []).append(d)

    def visit(node, qual, scopes, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                q = f"{qual}.{child.name}"
                if _is_dataclass(child):
                    add(child.name, _field_def(q, child))
                visit(child, q, scopes, True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                q = f"{qual}.{child.name}"
                init = child.name == "__init__"     # reported as the class
                d = _function_def(qual if init else q, child, in_class)
                owner[id(child)] = d
                if init:
                    add(qual.rsplit(".", 1)[-1], d)
                    add("__init__", d, attr_only=True)  # super().__init__
                else:
                    add(child.name, d, attr_only=in_class)
                visit(child, q, scopes + [child], False)
            elif isinstance(child, ast.Lambda):
                visit(child, qual, scopes + [child], False)
            else:
                if isinstance(child, ast.Call):
                    calls.append((child, scopes))
                targets = getattr(child, "targets", None) or [
                    getattr(child, "target", None)]
                assigned.update(t.attr for t in targets
                                if isinstance(t, ast.Attribute))
                visit(child, qual, scopes, in_class)

    for module, text in sources.items():
        visit(ast.parse(text), module, [], False)

    def forwarded(expr, scopes):
        """The (def, param) whose value expr merely passes on, or None."""
        if not isinstance(expr, ast.Name):
            return None
        for scope in reversed(scopes):
            a = scope.args
            if expr.id in [p.arg for p in a.posonlyargs + a.args
                           + a.kwonlyargs]:
                d = owner.get(id(scope))
                return (d.name, expr.id) if d and expr.id in d.defaults \
                    else None
        return None

    # each passed argument: (def, param) -> [(forwarded (def, param) or None)]
    passes: dict[tuple[str, str], list] = {}
    for call, scopes in calls:
        f = call.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        spread = any(k.arg is None for k in call.keywords)
        kw = {k.arg: k.value for k in call.keywords if k.arg}
        for d in by_call.get((name, isinstance(f, ast.Attribute)), []):
            for i, p in enumerate(d.params):
                if p not in d.defaults:
                    continue
                if p in kw:
                    expr = kw[p]
                elif i < len(call.args) and not starred:
                    expr = call.args[i]
                elif starred or spread:
                    expr = None
                else:
                    continue
                if (d.fields and isinstance(expr, ast.Attribute)
                        and expr.attr == p):
                    src = (d.name, p)       # another instance's own field
                else:
                    src = forwarded(expr, scopes)
                passes.setdefault((d.name, p), []).append(src)
            for p in d.defaults - set(d.params):        # keyword-only
                if p in kw or spread:
                    passes.setdefault((d.name, p), []).append(
                        forwarded(kw.get(p), scopes))
    defs = {d.name: d for ds in by_call.values() for d in ds}
    is_set = {(d.name, p) for d in defs.values() if d.fields
              for p in d.defaults if p in assigned}
    while True:
        more = {key for key, srcs in passes.items()
                if any(s is None or s in is_set for s in srcs)} - is_set
        if not more:
            break
        is_set |= more
    return sorted(f"{d.name}({p})" for d in defs.values()
                  for p in sorted(d.defaults) if (d.name, p) not in is_set)


def test_unset_default_checker_follows_calls_and_forwards():
    src = ("from dataclasses import dataclass\n"
           "def f(a, b=1, c=2, *, d=3): return g(a, c)\n"
           "def g(x, y=0): return h(x, y=y)\n"
           "def h(x, y=0, z=0): return x\n"
           "def r(a, b=1): return a\n"
           "@dataclass\n"
           "class P:\n"
           "    u: int\n"
           "    v: int = 0\n"
           "    w: int = 0\n"
           "def k(p, q=1):\n"
           "    p.w = q\n"
           "    return P(1, v=p.v), f(1, b=2), r(*p), k(p, 3)\n")
    assert unset_defaults({"m": src}) == ["m.P(v)", "m.f(c)", "m.f(d)",
                                          "m.g(y)", "m.h(y)", "m.h(z)"]


def test_every_defaulted_parameter_is_set_by_a_call():
    found = unset_defaults({p.stem: p.read_text()
                            for p in sorted(SRC.glob("*.py"))})
    assert sorted(TEST_ONLY) == [f for f in found if f in TEST_ONLY], \
        "a TEST_ONLY entry is set in the package or gone"
    assert [f for f in found if f not in TEST_ONLY] == []
