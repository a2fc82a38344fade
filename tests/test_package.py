"""Checks on the package source as a whole."""

import ast
from pathlib import Path

import cutdim

PACKAGE = Path(cutdim.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads; `__future__` imports
    are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(1, 2)\n") == [
        "os (line 1)", "gcd (line 2)",
    ]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []


def test_no_module_imports_a_name_it_does_not_use():
    """`__init__.py` re-exports what it imports, so it is exempt."""
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
