"""Every import and private helper in the package is used, only
``series.py`` touches the private storage of ``Series``, ``cli.py`` imports
no private name, only ``relations.attempt`` builds a verification report and
only ``permutations._pairing_components`` a union-find,
no module reads the environment or starts a thread or process, each
command loads only the modules it runs, with no ``dataclasses`` among them,
and every name and command line the benchmark under ``perfbench/`` reaches
still resolves and parses.

A stdlib stand-in for a linter.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nrooted
from nrooted.series import Series

PACKAGE_DIR = Path(nrooted.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imports(node: ast.AST, scope: ast.AST, found: list) -> None:
    """Append (name, scope) for each name an import below ``node`` binds; the
    scope is the innermost enclosing function, or the module."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)) and not (
            isinstance(child, ast.ImportFrom) and child.module == "__future__"
        ):
            found.extend((alias.asname or alias.name.split(".")[0], scope) for alias in child.names)
        _imports(child, child if isinstance(child, FUNCTIONS) else scope, found)


def exports(tree: ast.Module) -> list[str]:
    """The names of the module's literal ``__all__``, in order."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def unused_imports(source: str) -> list[str]:
    """Names bound by imports that their scope neither uses nor exports.

    A module-level import (``if TYPE_CHECKING:`` blocks included) may be used
    anywhere in the module or listed in ``__all__``; an import inside a
    function must be used within that function.
    """
    tree = ast.parse(source)
    found: list[tuple[str, ast.AST]] = []
    _imports(tree, tree, found)
    exported = set(exports(tree))
    used = {
        id(scope): {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for _, scope in found
    }
    return [
        name for name, scope in found
        if name not in used[id(scope)] and not (scope is tree and name in exported)
    ]


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level private function or class that no
    source references, by name or as an attribute."""
    defined: list[tuple[str, str]] = []
    referenced: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                defined.append((module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [f"{module}.{name}" for module, name in defined if name not in referenced]


def test_package_modules_found():
    assert {"cli.py", "wick.py", "series.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scanner_reports_unused_and_spares_used_or_exported():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import json as j\n"
        "from a.b import used, unused, exported\n"
        "__all__ = ['exported']\n"
        "def f(x: used) -> None:\n"
        "    return j.dumps(x)\n"
    )
    assert unused_imports(source) == ["os", "unused"]


def test_scanner_reports_unused_function_local_imports():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from b import Hint, Unhinted\n"
        "def f(x: Hint):\n"
        "    from a import used, unused\n"
        "    import os.path\n"
        "    def inner():\n"
        "        import json\n"
        "        return os.path.join(used, json.dumps(x))\n"
        "    return inner\n"
        "def g():\n"
        "    import sys\n"
        "    return unused\n"  # f's import is still unused: another scope uses the name
    )
    assert unused_imports(source) == ["Unhinted", "unused", "sys"]


def test_no_dead_private_helpers():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")}
    assert dead_private_helpers(sources) == []


def test_scanner_reports_unreferenced_private_helpers():
    sources = {
        "a": (
            "def _used():\n"
            "    return 1\n"
            "def _called_elsewhere():\n"
            "    return 2\n"
            "def _dead():\n"
            "    return 3\n"
            "class _Gone:\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    raise AttributeError(name)\n"
            "def public():\n"
            "    return _used()\n"
        ),
        "b": "import a\nvalue = a._called_elsewhere()\n",
    }
    assert dead_private_helpers(sources) == ["a._dead", "a._Gone"]


def private_imports(source: str) -> list[str]:
    """Each ``_``-prefixed name imported from a package module."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "nrooted")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def calls_outside(source: str, callee: str, home: str) -> list[int]:
    """The line of each call to ``callee``, by bare name or as an attribute,
    outside every function named ``home``."""
    found: list[int] = []

    def visit(node: ast.AST, inside: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and not inside:
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee:
                    found.append(child.lineno)
            visit(child, inside or (isinstance(child, FUNCTIONS) and child.name == home))

    visit(ast.parse(source), False)
    return found


def test_cli_imports_no_private_name():
    assert private_imports((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8")) == []


def test_only_attempt_builds_verification_reports():
    calls = {
        p.name: calls_outside(p.read_text(encoding="utf-8"), "VerificationReport", "attempt")
        for p in PACKAGE_DIR.glob("*.py")
    }
    assert {name: lines for name, lines in calls.items() if lines} == {}


def test_one_connectivity_routine_builds_the_union_find():
    from nrooted.permutations import UnionFind

    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")}
    # no function is named "", so every call counts
    anywhere = {name: calls_outside(source, "UnionFind", "") for name, source in sources.items()}
    assert [name for name, lines in anywhere.items() for _ in lines] == ["permutations.py"]
    assert calls_outside(sources["permutations.py"], "UnionFind", "_pairing_components") == []
    assert not hasattr(UnionFind, "find") and not hasattr(UnionFind, "union")


def test_scanner_reports_private_imports():
    source = (
        "import _thread\n"
        "from collections import _chain\n"
        "from .series import Series, _as_fraction\n"
        "from . import _hidden\n"
        "def f():\n"
        "    from nrooted.relations import _mn_table, mn_in_m1\n"
    )
    assert private_imports(source) == ["_as_fraction", "_hidden", "_mn_table"]


def test_scanner_reports_calls_outside_their_home():
    source = (
        "class Report(tuple):\n"
        "    pass\n"
        "def attempt(check):\n"
        "    return Report(check())\n"
        "def other():\n"
        "    return relations.Report(1), Report\n"
        "value = Report(2)\n"
    )
    assert calls_outside(source, "Report", "attempt") == [6, 7]


def name_uses(source: str, names: set[str]) -> list[str]:
    """``line:name`` of each use of one of ``names``: an attribute, a bare or
    imported name, or a string literal (a ``getattr(s, "_den")`` counts too)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            continue
        if name in names:
            found.append((node.lineno, name))
    return [f"{line}:{name}" for line, name in sorted(found)]


SERIES_STORAGE = set(Series.__slots__)
OUTSIDE_SERIES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "series.py")


def test_series_storage_names_are_private():
    assert SERIES_STORAGE and all(name.startswith("_") for name in SERIES_STORAGE)


@pytest.mark.parametrize("path", OUTSIDE_SERIES, ids=lambda p: p.name)
def test_series_storage_stays_inside_series_module(path):
    assert name_uses(path.read_text(encoding="utf-8"), SERIES_STORAGE) == []


def test_scanner_reports_storage_access():
    source = (
        "def f(s, t, u):\n"
        "    x = s._nums\n"
        "    s._den = 1\n"
        "    y = getattr(t, '_nums')\n"
        "    return x, y, u._coeffs, u.nums\n"
    )
    assert name_uses(source, {"_nums", "_den"}) == ["2:_nums", "3:_den", "4:_nums"]


#: Every resource bound of the package is a constant, so no module reads the
#: environment.
ENVIRONMENT_READS = {"environ", "getenv"}


def test_no_module_reads_the_environment():
    uses = {
        p.name: name_uses(p.read_text(encoding="utf-8"), ENVIRONMENT_READS)
        for p in PACKAGE_DIR.glob("*.py")
    }
    assert {name: found for name, found in uses.items() if found} == {}


def test_scanner_reports_environment_reads():
    source = (
        "import os\n"
        "from os import environ as env, getenv\n"
        "a = os.environ.get('A')\n"
        "b = os.getenv('B')\n"
        "c = getattr(os, 'environ')\n"
        "d = os.cpu_count(), env\n"
    )
    assert name_uses(source, ENVIRONMENT_READS) == [
        "2:environ", "2:getenv", "3:environ", "4:getenv", "5:environ",
    ]


def imported_modules(source: str) -> set[str]:
    """The top-level name of every absolute import in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


#: Every oracle counts in one process, so none may start a thread or process.
CONCURRENCY = {"multiprocessing", "concurrent", "threading", "subprocess"}


def test_no_module_starts_threads_or_processes():
    imports = {p.name: imported_modules(p.read_text(encoding="utf-8")) & CONCURRENCY
               for p in PACKAGE_DIR.glob("*.py")}
    assert {name: found for name, found in imports.items() if found} == {}


def test_ribbon_builds_maps_without_walking_pairings():
    # enumerate_maps generates canonical maps; the division oracle fixes one α
    source = (PACKAGE_DIR / "ribbon.py").read_text(encoding="utf-8")
    assert name_uses(source, {"fixed_point_free_involutions"}) == []


def test_scanner_reports_imported_modules():
    source = (
        "import os.path, json as j\n"
        "from concurrent.futures import Executor\n"
        "from . import wick\n"
        "def f():\n"
        "    import multiprocessing\n"
    )
    assert imported_modules(source) == {"os", "json", "concurrent", "multiprocessing"}


def modules_after(code: str, *argv: str, stdin: str = "") -> list[str]:
    """Every module in ``sys.modules`` once ``code`` has run in a fresh interpreter."""
    report = "\nimport sys\nprint(*sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code + report, *argv],
        input=stdin, capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def loaded_modules(code: str, *argv: str, stdin: str = "") -> set[str]:
    """The ``nrooted`` submodules loaded once ``code`` has run in a fresh interpreter."""
    return {
        name.removeprefix("nrooted.")
        for name in modules_after(code, *argv, stdin=stdin)
        if name.startswith("nrooted.")
    }


def top_level_modules(code: str, *argv: str, stdin: str = "") -> set[str]:
    """The top-level modules, stdlib ones included, loaded once ``code`` has run."""
    return {name for name in modules_after(code, *argv, stdin=stdin) if "." not in name}


#: Runs the command line on its arguments with the command's output sent to
#: stderr, so that stdout ends with the module report alone.
RUN_CLI = (
    "import contextlib, sys\n"
    "from nrooted.cli import main\n"
    "with contextlib.redirect_stdout(sys.stderr):\n"
    "    assert main(sys.argv[1:]) == 0"
)
SERIES_LAYERS = {"series", "qft", "relations", "tables"}
MAP_LAYERS = {"ribbon", "wick"}
MAP = {"half_edges": 2, "alpha": [[1, 2]], "sigma": [[1, 2]], "roots": [1]}
CONTRACTION = {"n_external": 1, "n_vertices": 2, "photon_pairs": [[1, 2]],
               "electron_targets": [1, 2, "ket1"]}


def test_bare_import_loads_no_submodule():
    assert loaded_modules("import nrooted") == set()


@pytest.mark.parametrize("to, data", [("contraction", MAP), ("map", CONTRACTION)])
def test_convert_loads_no_series_layer(to, data):
    loaded = loaded_modules(RUN_CLI, "convert", "--to", to, stdin=json.dumps(data))
    assert MAP_LAYERS <= loaded
    assert not loaded & SERIES_LAYERS
    # exact rationals are the series layer's; they cost a conversion about 3 ms
    stdlib = top_level_modules(RUN_CLI, "convert", "--to", to, stdin=json.dumps(data))
    assert not stdlib & {"fractions", "decimal"}


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--family", "z", "--n", "2"],
        ["count", "--n", "2", "--edges", "3", "--method", "theorem2"],
    ],
    ids=["series-z", "count-theorem2"],
)
def test_series_commands_load_no_map_layer(argv):
    loaded = loaded_modules(RUN_CLI, *argv)
    assert "qft" in loaded
    assert not loaded & MAP_LAYERS


@pytest.fixture(scope="module")
def bare_interpreter_modules() -> set[str]:
    """What ``python -c pass`` loads here; a ``site`` with ``.pth`` hooks may
    preload more than a plain interpreter."""
    return top_level_modules("pass")


#: ``dataclasses`` imports ``inspect`` and through it ``dis``, ``ast`` and
#: ``tokenize``, none of which a command needs: the largest import a command
#: could pay for at start-up without using it.
SLOW_STDLIB = {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["convert", "--to", "contraction"], json.dumps(MAP)),
        (["convert", "--to", "map"], json.dumps(CONTRACTION)),
        (["series", "--family", "z", "--n", "2"], ""),
        (["count", "--n", "2", "--edges", "3", "--method", "theorem2"], ""),
        (["count", "--n", "1", "--edges", "2", "--method", "oracle-ribbon"], ""),
        (["verify", "--suite", "ode"], ""),
    ],
    ids=["convert-to-contraction", "convert-to-map", "series-z", "count-theorem2",
         "count-oracle-ribbon", "verify-ode"],
)
def test_commands_load_no_dataclasses(argv, stdin, bare_interpreter_modules):
    loaded = top_level_modules(RUN_CLI, *argv, stdin=stdin) - bare_interpreter_modules
    assert "argparse" in loaded
    assert not loaded & SLOW_STDLIB


def test_facade_imports_a_submodule_by_name():
    loaded = loaded_modules("from nrooted import qft\nassert qft.__name__ == 'nrooted.qft'")
    assert "qft" in loaded
    assert not loaded & MAP_LAYERS


EXPORTS = [name for name in nrooted.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_its_home_module_object(name):
    value = getattr(nrooted, name)
    assert value.__module__.startswith("nrooted.")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from nrooted import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(nrooted.__all__)
    assert all(namespace[name] is getattr(nrooted, name) for name in EXPORTS)
    assert namespace["__version__"] == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        nrooted.no_such_name
    with pytest.raises(ImportError):
        exec("from nrooted import no_such_name", {})


# ---------------------------------------------------------------------------
# What the benchmark reaches
# ---------------------------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench_jobs():
    """``perfbench/jobs.py``, imported without writing bytecode under ``perfbench/``."""
    saved_path, saved_flag = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("jobs")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag
        for name in ("jobs", "checks"):
            sys.modules.pop(name, None)


def attribute_targets(source: str, modules: set[str]) -> list[tuple[str, str]]:
    """``(module, name)`` of each ``module.name`` attribute in ``source``."""
    return sorted({
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    })


def method_targets(source: str) -> list[tuple[str, str]]:
    """``(module, "Class.method")`` of each entry of a module-level ``METHODS`` list."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "METHODS":
            entries = ast.literal_eval(node.value)
            return [(home, f"{cls}.{method}") for home, cls, method, _ in entries]
    return []


def unresolved(targets) -> list[str]:
    """``module.dotted`` of each target that is not bound in its namespace: a
    module's or, for ``Class.method``, the class's own (inherited ones are not)."""
    missing = []
    for module, dotted in targets:
        obj = importlib.import_module(f"nrooted.{module}")
        for part in dotted.split("."):
            obj = vars(obj).get(part)
            if obj is None:
                missing.append(f"{module}.{dotted}")
                break
    return missing


def parses(argv: list[str]) -> bool:
    try:
        nrooted.cli._build_parser().parse_args(argv)
    except SystemExit:
        return False
    return True


def test_every_name_the_benchmark_reaches_resolves(perfbench_jobs, monkeypatch):
    calls = []
    real = perfbench_jobs.module_call

    def recorded(module, name, *args):
        calls.append((module.__name__.removeprefix("nrooted."), name))
        return real(module, name, *args)

    monkeypatch.setattr(perfbench_jobs, "module_call", recorded)
    perfbench_jobs.build("gf", 0)
    perfbench_jobs.build("oracle", 0)
    assert {("qft", "m_series"), ("relations", "verify_ode_z0"),
            ("wick", "bijection_class_multiset")} <= set(calls)
    jobs_source = (PERFBENCH / "jobs.py").read_text(encoding="utf-8")
    attributes = attribute_targets(jobs_source, {"ribbon", "wick"})
    assert ("ribbon", "relabel") in attributes and ("wick", "from_map") in attributes
    methods = method_targets((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    assert ("series", "Series.__rmul__") in methods
    assert unresolved(calls + attributes + methods + [("permutations", "UnionFind")]) == []
    # the tracer clears these three caches and reads their hits and misses
    for cache in (nrooted.qft.z_series, nrooted.qft.m_series, nrooted.qft.m0_series):
        cache.cache_clear()
        assert (cache.cache_info().hits, cache.cache_info().misses) == (0, 0)


def test_every_benchmark_command_line_parses(perfbench_jobs):
    argvs = [job.argv for job in perfbench_jobs.build("cli", 0)]
    assert len(argvs) > 50 and {"series", "count", "verify", "convert"} == {a[0] for a in argvs}
    assert [argv for argv in argvs if not parses(argv)] == []


def test_benchmark_guard_reports_what_is_gone():
    source = (
        "from nrooted import ribbon, wick\n"
        "m = ribbon.RootedMap(0, (), (), ())\n"
        "found = ribbon.no_such_name, wick.to_map(m)\n"
        "METHODS = [('series', 'Series', 'from_json_dict', 'series.read'),\n"
        "           ('series', 'Series', '__mul__', 'series.mul')]\n"
    )
    targets = attribute_targets(source, {"ribbon", "wick"}) + method_targets(source)
    assert unresolved(targets) == ["ribbon.no_such_name", "series.Series.from_json_dict"]
    # the class's own namespace: ``__init_subclass__`` is only inherited
    assert unresolved([("qft", "m_series"), ("series", "Series.__init_subclass__"),
                       ("cli", "CountReport")]) == ["series.Series.__init_subclass__",
                                                    "cli.CountReport"]
    assert not parses(["count", "--n", "1", "--edges", "1"])  # no --method
    count = ["count", "--n", "1", "--edges", "1", "--method", "theorem2"]
    assert parses(count) and not parses([*count, "--workers", "2"])


def names_read(node: ast.AST, strings: bool = False) -> set[str]:
    """Every name read below ``node``: a bare name that is not assigned, an
    attribute or an imported name, and with ``strings`` every string literal
    (``module_call(qft, "m_series", …)`` reaches ``m_series``)."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.alias):
            found.add(child.name)
        elif strings and isinstance(child, ast.Constant) and isinstance(child.value, str):
            found.add(child.value)
    return found


def export_reach(package: dict[str, str], bench: list[str]) -> tuple[list[str], list[str]]:
    """``module.name`` of each ``__all__`` name of a package module that only
    the ``bench`` sources reach, and of each that nothing reaches.  Package
    code reaches a name only outside the name's own top-level definition.
    The facade ``__init__`` re-exports names of the other modules."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    reads = {
        module: [(getattr(node, "name", None), names_read(node)) for node in tree.body]
        for module, tree in trees.items()
    }
    bench_reads = set().union(*(names_read(ast.parse(source), strings=True) for source in bench))
    only_bench, unreached = [], []
    for module, tree in trees.items():
        for name in exports(tree) if module != "__init__" else ():
            if not any(
                name in names and not (home == module and defined == name)
                for home, nodes in reads.items() for defined, names in nodes
            ):
                (only_bench if name in bench_reads else unreached).append(f"{module}.{name}")
    return only_bench, unreached


#: The public names no command reaches, which the benchmark still times.
BENCHMARK_ONLY = [
    "qft.m2_via_routes", "qft.m3_via_routes",
    "ribbon.relabel", "wick.total_weighted_classes",
]


def test_every_public_name_is_reached():
    before = sorted(p.relative_to(PERFBENCH) for p in PERFBENCH.rglob("*"))
    package = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE_DIR.glob("*.py"))}
    bench = [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    only_bench, unreached = export_reach(package, bench)
    assert unreached == []
    assert sorted(only_bench) == BENCHMARK_ONLY
    assert sorted(p.relative_to(PERFBENCH) for p in PERFBENCH.rglob("*")) == before


def test_scanner_reports_exports_reached_only_by_the_benchmark_or_by_nothing():
    package = {
        "a": (
            "__all__ = ['used', 'benched', 'tested', 'LIMIT', 'Shape']\n"
            "LIMIT = 3\n"
            "class Shape:\n"
            "    def copy(self):\n"
            "        return Shape()\n"
            "def used():\n"
            "    return LIMIT\n"
            "def benched():\n"
            "    return used()\n"
            "def tested(n):\n"
            "    return tested(n - 1) if n else 0\n"
        ),
        # a string in package code is no reach: the facade's name table is one
        "b": "from .a import used\n__all__ = ['run']\ndef run():\n    return used(), 'tested'\n",
    }
    bench = ["import a, b\nfound = a.benched(), getattr(b, 'run')\n"]
    assert export_reach(package, bench) == (["a.benched", "b.run"], ["a.tested", "a.Shape"])
