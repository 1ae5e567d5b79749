"""Source hygiene of the package modules: imports checked with the stdlib ``ast`` only
(every imported name read, no ``_``-prefixed name taken from another package
module), and the package's line budget."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "majoritygame"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")

#: Most lines ``src/majoritygame/*.py`` may hold, counted as ``cat ... | wc -l`` counts them.
LINE_BUDGET = 2900


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def private_imports(source: str) -> list[str]:
    """``_``-prefixed names a module imports from another package module."""
    return [f"line {node.lineno}: {alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "majoritygame")
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_no_private_name_of_the_package(path):
    assert private_imports(path.read_text()) == []


def test_private_import_is_reported():
    source = ("from ._util import helper\nfrom .core import Position, _frozen\n"
              "from majoritygame.solver import _scan\nfrom os import _exit\n")
    assert private_imports(source) == ["line 2: _frozen", "line 3: _scan"]


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport sys\nfrom typing import IO\nsys.exit()\n"
    assert unused_imports(source) == ["line 3: IO"]


def test_package_within_the_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= LINE_BUDGET, f"src/majoritygame holds {lines} lines, budget {LINE_BUDGET}"
