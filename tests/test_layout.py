"""Package layout: one place knows whether a backend is a chart or a surface,
one module forks processes, every defaulted parameter is set by a call,
every function, method and class is reached from the command line, and
every dataclass field is read.

``geometry.py`` defines both backends, ``config.py`` builds them from a
spec's ``kind`` and ``__init__.py`` re-exports them.  Every other module
reaches the chart / surface difference only through backend methods, so a
new backend needs edits in ``geometry.py`` alone.

The benchmark's tracer (``bench/tracing.py``) patches package names and reads
atlas fields from outside; one test keeps a refactor from dropping one, and
the reach guard allows exactly the definitions that only the tracer holds.
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


def test_no_fork_nests_in_a_run_case_branch():
    # run_case forks once, after the focal solve: its two branch jobs, and
    # the eikonal probes that validate hands it as the beside job, reach no
    # fork of their own, so a child never forks
    defs, _ = _definitions(_package_sources())
    jobs = ["stability._search_branch", "stability._scan_branch",
            "wavefront.eikonal_probes"]
    reached = _reach(defs, jobs, [])
    assert {"cutanalysis.cut_times", "cutanalysis.loop_scan",
            "wavefront._distance_rows", "wavefront._sample_index"} <= reached
    assert "forking._fork_map" not in reached
    # the guard sees a fork that a branch reaches
    assert "forking._fork_map" in _reach(defs, jobs + ["stability._sweep"],
                                         [])


# -- one wraparound -----------------------------------------------------------
# np.mod costs tens of ns per element where the floor form of
# geometry.wrap_periodic costs about one, and a (2,) period broadcast over
# (n, 2) rows several more: every reduction modulo a period goes through
# that helper.

MOD_FUNCS = {"mod", "remainder", "fmod"}


def mod_calls(source: str) -> list[tuple[int, str | None]]:
    """(line, enclosing function or None) of every reference to np.mod,
    np.remainder or np.fmod: as an attribute of any module, or imported by
    name (then at the import)."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr in MOD_FUNCS:
                out.append((child.lineno, func))
            elif isinstance(child, ast.ImportFrom) and child.module and \
                    child.module.split(".")[0] == "numpy":
                out.extend((child.lineno, func) for a in child.names
                           if a.name in MOD_FUNCS)
            visit(child, func)

    visit(ast.parse(source), None)
    return sorted(out, key=lambda c: c[0])


def test_only_the_wraparound_helper_reduces_modulo_a_period():
    src = ("import numpy as np\n"
           "def f(x):\n    return np.mod(x, 1.0)\n"
           "y = np.fmod(2.0, 1.0) + numpy.remainder(3.0, 2.0)\n"
           "from numpy import remainder\n"
           "def wrap_periodic(x, L):\n    return np.mod(x, L)\n")
    assert mod_calls(src) == [(3, "f"), (4, None), (4, None), (5, None),
                              (7, "wrap_periodic")]
    found = [(p.name, line, func) for p in sorted(SRC.glob("*.py"))
             for line, func in mod_calls(p.read_text())]
    assert [c for c in found if c[0] != "geometry.py"
            or c[2] != "wrap_periodic"] == []


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


@dataclasses.dataclass
class _Def:
    name: str                   # "module.qualname", as reported
    params: list[str]           # positional parameters after self / cls
    defaults: set[str]          # the defaulted ones, keyword-only included
    fields: bool = False        # a dataclass's or NamedTuple's fields


def _is_dataclass(cls: ast.ClassDef, named_tuple: bool = True) -> bool:
    """Whether cls is a dataclass or, when named_tuple, a NamedTuple."""
    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", getattr(node, "attr", None))
    return (any(name(d) == "dataclass" for d in cls.decorator_list)
            or named_tuple and any(name(b) == "NamedTuple" for b in cls.bases))


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


def _package_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


def test_every_defaulted_parameter_is_set_by_a_call():
    assert unset_defaults(_package_sources()) == []


# -- every definition is reached from the command line -----------------------
# A function, method or class that no command reaches runs for the tests
# only.  Reach is by name, as for the defaults: the code of cli.main and of
# every module's top level loads names (x, or x.name), and a loaded name
# reaches every definition of that name, whose code loads more names.  A
# reached class also reaches its decorators, bases and class-level
# statements (a dataclass's field defaults among them) and its dunder
# methods; its other methods and properties are reached by attribute name.
# Annotations and imports reach nothing.

# definitions that no command reaches but the benchmark's tracer patches
# (bench/tracing.py); what they call counts as reached
TRACED = {"cutanalysis.cut_time", "geodesics.hermite_sample",
          "submanifold.foot_point", "wavefront.distance"}


@dataclasses.dataclass
class _Body:
    name: str                   # the name that reaches it
    nodes: list                 # the code that reaching it runs
    dunders: list = dataclasses.field(default_factory=list)


def _loads(node, out: set):
    """Add to out every name that the code under node loads, leaving out
    annotations."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        out.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        out.add(node.attr)
    for key, value in ast.iter_fields(node):
        if key in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                _loads(child, out)


def _definitions(sources: dict[str, str]):
    """({qualname: _Body} of every top-level function and class and every
    method, [the module-level statements that are not imports])."""
    defs, top = {}, []
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            q = f"{module}.{getattr(stmt, 'name', '')}"
            if isinstance(stmt, funcs):
                defs[q] = _Body(stmt.name, [stmt])
            elif isinstance(stmt, ast.ClassDef):
                cls = defs[q] = _Body(stmt.name, stmt.decorator_list
                                      + stmt.bases + stmt.keywords)
                for item in stmt.body:
                    if not isinstance(item, funcs):
                        cls.nodes.append(item)
                        continue
                    defs[f"{q}.{item.name}"] = _Body(item.name, [item])
                    if item.name.startswith("__") and item.name.endswith("__"):
                        cls.dunders.append(f"{q}.{item.name}")
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                top.append(stmt)
    return defs, top


def _reach(defs: dict, starts, nodes) -> set[str]:
    """Qualnames reached from the definitions starts and the code nodes."""
    by_name: dict[str, list[str]] = {}
    for q, body in defs.items():
        by_name.setdefault(body.name, []).append(q)
    seen, names, todo = set(), set(), list(nodes)

    def visit(q):
        if q not in seen:
            seen.add(q)
            todo.extend(defs[q].nodes)
            for d in defs[q].dunders:
                visit(d)

    for q in starts:
        visit(q)
    while todo:
        found = set()
        _loads(todo.pop(), found)
        for name in found - names:
            names.add(name)
            for q in by_name.get(name, ()):
                visit(q)
    return seen


def unreached(sources: dict[str, str], roots=("cli.main",), allowed=(),
              patched=()) -> list[str]:
    """'module.qualname' of every function, method and class in the modules
    ``sources`` (module name -> text) that neither the roots nor top-level
    code reach.  An allowed definition is not reported but counts as a
    root, unless it is undefined, reached anyway or not in ``patched``:
    then it is reported with that reason."""
    defs, top = _definitions(sources)
    allowed = set(allowed)
    reached = _reach(defs, roots, top)
    report = [f"{q} (allowed, but not defined)" for q in allowed - set(defs)]
    report += [f"{q} (allowed, but reached)" for q in allowed & reached]
    report += [f"{q} (allowed, but not patched)"
               for q in allowed - set(patched)]
    reached |= _reach(defs, allowed & set(defs), [])
    return sorted(report + [q for q in defs
                            if q not in reached and q not in allowed])


def test_reach_checker_follows_calls_methods_fields_and_tables():
    cli = ("from m import tested\n"
           "def main():\n"
           "    return run().go(), Box.size\n")
    m = ("from dataclasses import dataclass, field\n"
         "TABLE = {'a': lambda: build()}\n"
         "def build(): return 1\n"
         "def run() -> Shape: return Box()\n"
         "def make(): return []\n"
         "def tested(x: Shape) -> Shape: return Shape()\n"
         "@dataclass\n"
         "class Box:\n"
         "    items: list = field(default_factory=make)\n"
         "    def __post_init__(self): self.n = helper()\n"
         "    def go(self): return self.items\n"
         "    @property\n"
         "    def size(self): return 0\n"
         "    def unused(self): return 1\n"
         "def helper(): return 2\n"
         "class Shape:\n"
         "    def __init__(self): pass\n")
    assert unreached({"cli": cli, "m": m}) == [
        "m.Box.unused", "m.Shape", "m.Shape.__init__", "m.tested"]
    assert unreached({"cli": cli + "main()\ntested(0)\n", "m": m}) == [
        "m.Box.unused"]


def test_reach_checker_vets_its_allowlist():
    srcs = {"cli": "def main(): return used()\n",
            "m": ("def used(): return 1\n"
                  "def traced(): return helper()\n"
                  "def helper(): return 2\n")}
    assert unreached(srcs) == ["m.helper", "m.traced"]
    assert unreached(srcs, allowed={"m.traced"}, patched={"m.traced"}) == []
    assert unreached(srcs, allowed={"m.traced"}) == [
        "m.traced (allowed, but not patched)"]
    both = {"m.traced", "m.used"}
    assert unreached(srcs, allowed=both, patched=both) == [
        "m.used (allowed, but reached)"]
    assert unreached(srcs, allowed={"m.gone"}, patched={"m.gone"}) == [
        "m.gone (allowed, but not defined)", "m.helper", "m.traced"]


def _traced_names() -> set[str]:
    """'module.name' or 'module.Class.name' of every binding that the
    benchmark's tracer patches."""
    tracer = _bench_tracing().Tracer().install()
    patched = list(tracer._undo)
    tracer.uninstall()
    names = set()
    for owner, attr, _ in patched:
        if isinstance(owner, type):
            module = owner.__module__.rsplit(".", 1)[-1]
            names.add(f"{module}.{owner.__qualname__}.{attr}")
        else:
            names.add(f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}")
    return names


def test_every_definition_is_reached_from_the_command_line():
    assert unreached(_package_sources(), allowed=TRACED,
                     patched=_traced_names()) == []


# -- every dataclass field is read -------------------------------------------
# A field that no code of the package reads is stored for the tests alone.
# Reads resolve by name, as reach does: a load x.f anywhere in the package
# reads every dataclass field called f.  A field can so pass on another
# object's attribute of its name: PointCloud.dedup_radius passed while
# res.dedup_radius was loaded, and FootPoint.coarse while the loop scan's
# atlas.index.coarse was.  NamedTuple fields are read by unpacking and exempt.

# fields that the package stores for the callers of a TRACED definition
# (foot_point's d_est) alone
UNREAD = {"submanifold.FootPoint.d_est"}


def unread_fields(sources: dict[str, str], allowed=()) -> list[str]:
    """'module.Class.field' of every dataclass field in the modules
    ``sources`` (module name -> text) that no attribute load among them
    reads.  An allowed field is not reported, unless it is undefined or
    read: then it is reported with that reason."""
    fields, loads = set(), set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node, False):
                fields |= {(f"{module}.{node.name}.{f}", f)
                           for f in _field_def("", node).params}
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
    allowed = set(allowed)
    defined = {q for q, _ in fields}
    report = [f"{q} (allowed, but not defined)" for q in allowed - defined]
    report += [f"{q} (allowed, but read)" for q, f in fields
               if q in allowed and f in loads]
    return sorted(report + [q for q, f in fields
                            if f not in loads and q not in allowed])


def test_field_read_checker_resolves_by_name_and_vets_its_allowlist():
    m = ("from dataclasses import dataclass\n"
         "from typing import NamedTuple\n"
         "@dataclass\n"
         "class A:\n"
         "    x: int\n"
         "    y: int = 0\n"
         "    z: int = 0\n"
         "    def get(self): return self.x\n"
         "class T(NamedTuple):\n"
         "    u: int\n"
         "def f(a, t):\n"
         "    a.z = 1\n"
         "    u, = t\n"
         "    return A(1, 2, u)\n")
    assert unread_fields({"m": m}) == ["m.A.y", "m.A.z"]
    # another object's attribute of the same name reads the field
    assert unread_fields({"m": m, "n": "def g(b): return b.y\n"}) == [
        "m.A.z"]
    assert unread_fields({"m": m}, allowed={"m.A.y", "m.A.z"}) == []
    assert unread_fields({"m": m}, allowed={"m.A.x", "m.A.w"}) == [
        "m.A.w (allowed, but not defined)", "m.A.x (allowed, but read)",
        "m.A.y", "m.A.z"]


def test_every_dataclass_field_is_read():
    assert unread_fields(_package_sources(), allowed=UNREAD) == []


# -- the cut-time search and the loop scan read the paths alone --------------
# Cut times come from the front's self-crossings (cutanalysis.cut_times), and
# the loop scan reads the coarse cell table that build_atlas makes: the code
# that either reaches loads none of the distance query's entry points, and
# the loop scan none of the index that the first query builds.

def _loaded_from(defs, root: str):
    """(definitions reached from root, names that their code loads)."""
    reached, loaded = _reach(defs, [root], []), set()
    for q in reached:
        for node in defs[q].nodes:
            _loads(node, loaded)
    return reached, loaded


def test_cut_time_search_makes_no_distance_query():
    defs, _ = _definitions({m: (SRC / f"{m}.py").read_text()
                            for m in ("cutanalysis", "wavefront")})
    reached, loaded = _loaded_from(defs, "cutanalysis.cut_times")
    assert {"cutanalysis._first_crossings", "cutanalysis._near_pairs",
            "cutanalysis._step_crossings"} <= reached
    assert loaded & {"_distance_rows", "distance_many", "distance"} == set()
    reached, loaded = _loaded_from(defs, "cutanalysis.loop_scan")
    assert {"wavefront.ring_pairs", "wavefront._pairs",
            "wavefront._Tier.ranges", "wavefront._Grid.ring"} <= reached
    assert loaded & {"index", "_near", "_nearest", "_caps",
                     "_distance_rows"} == set()
