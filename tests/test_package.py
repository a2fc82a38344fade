"""Checks on the package source as a whole."""

import ast
import contextlib
import io
import re
from pathlib import Path

import cutdim

PACKAGE = Path(cutdim.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
BENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def unread_definitions(sources: dict, defining) -> list[str]:
    """The top-level functions and classes of the modules named in
    `defining` that no other top-level statement of `sources` (module
    name: text) reads, as a loaded name or as an attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = [
        (top, {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        })
        for tree in trees.values()
        for top in tree.body
    ]
    return [
        f"{module}.{top.name}"
        for module in defining
        for top in trees[module].body
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(top.name in names for other, names in reads if other is not top)
    ]


def test_unread_definitions_are_found():
    sources = {
        "a": "def used():\n    pass\ndef loops():\n    return loops()\n"
             "class Kept:\n    pass\nclass Lost:\n    pass\nkept = Kept()\n",
        "b": "import a\na.used()\nLost = 1\n",
    }
    assert unread_definitions(sources, ["a"]) == ["a.loops", "a.Lost"]


def test_every_definition_is_read_outside_itself():
    """Each top-level function and class of a `src/cutdim` module is read
    somewhere in `src/cutdim` or `perfbench/` outside its own definition.
    `__init__.py` only re-exports, so its reads do not count."""
    modules = {
        f"cutdim.{path.stem}": path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    bench = {
        f"perfbench.{path.stem}": path.read_text(encoding="utf-8")
        for path in sorted(BENCH.glob("*.py"))
    }
    assert unread_definitions({**modules, **bench}, modules) == []


def test_readme_library_examples_print_what_they_say(tmp_path, monkeypatch):
    """The `## Library` Python blocks run in order in one namespace, on the
    README's own square instance and cut file; every print whose line
    ends in a comment prints that comment."""
    text = README.read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    instance = re.search(r"### Instances \(JSON\)\s*```json\n(.*?)```", text, re.S).group(1)
    cuts = re.search(r"### Cut files.*?```\n(.*?)```", text, re.S).group(1)
    (tmp_path / "square.json").write_text(instance, encoding="utf-8")
    (tmp_path / "cuts.txt").write_text(cuts, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace, printed, wanted = {}, [], []
    for block in re.findall(r"```python\n(.*?)```", library, re.S):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, namespace)
        printed += out.getvalue().splitlines()
        prints = [line for line in block.splitlines() if line.startswith("print(")]
        wanted += [line.partition("#")[2].strip() for line in prints]
    assert len(printed) == len(wanted)
    assert [p for p, w in zip(printed, wanted) if w] == [w for w in wanted if w]
    assert [w for w in wanted if w] == ["2 3", "supporting 0", "1"]
