"""Every import and private helper in the package is used, only
``series.py`` touches the private storage of ``Series``, no module reads the
environment, and each command loads only the modules it runs, with no
``dataclasses`` among them.

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


def unused_imports(source: str) -> list[str]:
    """Names bound by imports that their scope neither uses nor exports.

    A module-level import (``if TYPE_CHECKING:`` blocks included) may be used
    anywhere in the module or listed in ``__all__``; an import inside a
    function must be used within that function.
    """
    tree = ast.parse(source)
    found: list[tuple[str, ast.AST]] = []
    _imports(tree, tree, found)
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
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
