"""Every module-level import and private helper in the package is used,
only ``series.py`` touches the private storage of ``Series``, and no module
reads the environment.

A stdlib stand-in for a linter.
"""

import ast
from pathlib import Path

import pytest

import nrooted
from nrooted.series import Series

PACKAGE_DIR = Path(nrooted.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module neither uses nor exports."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


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
