"""The benchmark's tracer wraps names where cutdim looks them up, and its
runner drives the CLI with fixed flags.

perfbench/spans.py lists those call sites in SITES, and perfbench/run.py
builds each call's argv.  A refactor that moves or renames a site, or
drops a flag the runner passes, breaks the benchmark; these tests make
that a unit-test failure instead.  The files are only parsed, never
imported or executed.
"""

import ast
import importlib
import itertools
from pathlib import Path

from cutdim import cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
RUN = SPANS.with_name("run.py")


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


def _argv_parts():
    """What perfbench/run.py puts after each call's command, and the lists
    it may append, with every non-literal entry as a placeholder."""
    tree = ast.parse(RUN.read_text(encoding="utf-8"), filename=str(RUN))
    base, extras = [], []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)) and isinstance(node.value, ast.List):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if not any(isinstance(t, ast.Name) and t.id == "argv" for t in targets):
                continue
            items = [
                e.value if isinstance(e, ast.Constant) else f"arg{i}"
                for i, e in enumerate(node.value.elts)
            ]
            (base if isinstance(node, ast.Assign) else extras).append(items)
    assert len(base) == 1, "perfbench/run.py builds argv in more than one place"
    (start,) = base
    assert start[0] == "arg0", "argv no longer starts with the job's command"
    return start[1:], extras


def test_the_cli_parses_every_argv_the_benchmark_builds():
    start, extras = _argv_parts()
    flags = {
        tok: argv[i + 1]
        for argv in [start, *extras]
        for i, tok in enumerate(argv)
        if tok.startswith("--")
    }
    assert flags, "no flags found in perfbench/run.py"
    parser = cli._build_parser()
    for command in ("classify", "impact"):
        for k in range(len(extras) + 1):
            for chosen in itertools.combinations(extras, k):
                argv = [command, *start, *itertools.chain(*chosen)]
                try:
                    args = parser.parse_args(argv)
                except SystemExit:
                    raise AssertionError(f"cutdim rejects the benchmark's argv {argv}") from None
                assert args.command == command
                for flag, value in flags.items():
                    if flag in argv:
                        assert str(getattr(args, flag[2:].replace("-", "_"))) == value, argv
