"""The benchmark's tracer wraps names where cutdim looks them up.

perfbench/spans.py lists those call sites in SITES.  A refactor that
moves or renames one of them breaks the traced benchmark; this test
makes that a unit-test failure instead.  The file is only parsed, never
imported or executed.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _sites():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"), filename=str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SITES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no SITES")


def test_every_traced_site_resolves_to_a_callable():
    sites = _sites()
    assert sites
    for module_name, path, span_name in sites:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module_name}.{path} ({span_name}) is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{path} ({span_name}) is not callable"
