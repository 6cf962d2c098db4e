"""Every module-level import in the package is used (a stdlib stand-in for a linter)."""

import ast
from pathlib import Path

import pytest

import nrooted

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
