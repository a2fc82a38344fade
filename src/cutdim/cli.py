"""Command-line front end.

Each subcommand is one entry of `_COMMANDS`: its handler, its help line
and its positional arguments.  The parser is built from that table, and
`main` dispatches through it.

Exit codes: 0 success, 1 analysis failure (timeouts, solver limits --
reported, never a traceback), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from typing import Optional, Sequence

from . import fileio
from .analysis import AnalysisError, analyze_instance, build_histogram, impact_protocol
from .config import RunConfig, load_config
from .hull import HullInterrupted
from .mps import MpsParseError
from .oracle import OracleError
from .rational import rat_decimal, rat_str
from .selftest import run_all


def _config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", metavar="FILE", help="JSON config file")
    for f in dataclasses.fields(RunConfig):
        meta = f.metadata
        takes = (
            {"action": "store_const", "const": meta["const"]}
            if "const" in meta
            else {"metavar": "VALUE"}
        )
        flag = meta.get("flag", "--" + f.name.replace("_", "-"))
        group.add_argument(flag, dest=f.name, help=meta["help"], **takes)


@functools.cache  # built once per process; each parse_args makes a fresh namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutdim",
        description="Exact dimension and strength analysis of cutting planes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, positionals) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for dest, nargs in positionals.items():
            p.add_argument(dest, nargs=nargs)
        _config_flags(p)
    return parser


def _configure(args: argparse.Namespace) -> RunConfig:
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)}
    path = args.config or os.environ.get("CUTDIM_CONFIG")
    return load_config(path=path, overrides=overrides)


def _cmd_dim(args, cfg: RunConfig) -> int:
    analysis = analyze_instance(fileio.read_instance(args.instance), (), cfg)
    print(
        f"dim = {analysis.dimension}, queries = {analysis.hull_queries}, "
        f"equations = {len(analysis.equations)}"
    )
    for line in analysis.equations.render():
        print(f"  {line}")
    return 0


def _read_job(args):
    """A job's instance, then its cuts, read against the instance."""
    inst = fileio.read_instance(args.instance)
    return inst, fileio.read_cuts(args.cuts, inst.num_vars)


def _analyze(args, cfg: RunConfig, run_impact: bool):
    return analyze_instance(*_read_job(args), cfg, run_impact=run_impact)


def _print_cut_table(analysis) -> None:
    rows = [("label", "category", "verdict", "beta", "beta_true", "face_dim")]
    for r in fileio.cut_records(analysis):
        # a failed cut shows its failure in the face_dim column
        cells = (r["beta_true"], r["failure"] or r["face_dimension"])
        rows.append(
            (r["label"], r["category"], r["verdict"] or "failed", r["beta"])
            + tuple("-" if c is None else str(c) for c in cells)
        )
    _print_table(rows)


def _print_table(rows) -> None:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def _write_or_print(analysis, cfg: RunConfig) -> None:
    if cfg.output:
        fileio.write_report(analysis, cfg.output, cfg.output_format)
        print(f"report written to {cfg.output}")
    elif cfg.output_format == "csv":
        sys.stdout.write(fileio.analysis_to_csv(analysis))


def _cmd_classify(args, cfg: RunConfig) -> int:
    analysis = _analyze(args, cfg, run_impact=False)
    print(f"{analysis.name}: dim(P) = {analysis.dimension}")
    _print_cut_table(analysis)
    _write_or_print(analysis, cfg)
    return 0 if analysis.failed_timeout == 0 else 1


def _cmd_impact(args, cfg: RunConfig) -> int:
    inst, cuts = _read_job(args)
    try:
        report = impact_protocol(
            inst,
            cuts,
            node_limit=cfg.impact_node_limit,
            time_limit=cfg.solve_time_limit,
        )
    except AnalysisError as exc:
        print(f"impact protocol failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"{report.instance}: z* = {rat_str(report.z_star)}, "
        f"z_lp = {rat_str(report.z_lp)}, node budget N = {report.node_budget}"
    )
    rows = [("label", "status", "nodes", "closed_gap", "", "flag")]
    for rec in (report.baseline, *report.runs):
        label = rec.label or "(baseline)"
        gap = "-" if rec.gap is None else rat_str(rec.gap)
        dec = "" if rec.gap is None else rat_decimal(rec.gap)
        rows.append((label, rec.solve_status, str(rec.nodes), gap, dec, rec.flag))
    _print_table(rows)
    return 0


def _cmd_analyze(args, cfg: RunConfig) -> int:
    analysis = _analyze(args, cfg, run_impact=True)
    budget = "-" if analysis.impact is None else str(analysis.impact.node_budget)
    print(
        f"{analysis.name}: dim(P) = {analysis.dimension}, N = {budget}, "
        f"analyzed = {analysis.analyzed_count}, "
        f"failed: 0/0 = {analysis.failed_numerical}, "
        f"timeout = {analysis.failed_timeout}, invalid = {analysis.failed_invalid}, "
        f"degenerate = {analysis.degenerate}"
    )
    _print_cut_table(analysis)
    if analysis.impact_error:
        print(f"impact protocol failed: {analysis.impact_error}", file=sys.stderr)
    _write_or_print(analysis, cfg)
    return 0 if analysis.failed_timeout == 0 and not analysis.impact_error else 1


def _cmd_histogram(args, cfg: RunConfig) -> int:
    items = fileio.load_histogram_items(args.reports)
    rows = build_histogram(items)
    text = fileio.histogram_to_csv(rows)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"histogram written to {cfg.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_selftest(args, cfg: RunConfig) -> int:
    results = run_all(cfg.seed, report=print)
    return 0 if all(r.ok for r in results) else 1


_JOB = {"instance": None, "cuts": None}  # positional name: nargs, None for exactly one

# name: (handler, help line, positionals), in the order the help lists them
_COMMANDS = {
    "dim": (_cmd_dim, "dimension of the mixed-integer hull", {"instance": None}),
    "classify": (_cmd_classify, "verdict and face dimension per cut", _JOB),
    "impact": (_cmd_impact, "closed-gap strength per cut", _JOB),
    "analyze": (_cmd_analyze, "full pipeline with report", _JOB),
    "histogram": (_cmd_histogram, "aggregate reports into dimension bins", {"reports": "+"}),
    "selftest": (_cmd_selftest, "seeded property suites against brute force", {}),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _configure(args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command][0](args, cfg)
    except (fileio.ParseError, MpsParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"file error: {where}{exc.strerror}", file=sys.stderr)
        return 2
    except OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 1
    except HullInterrupted as exc:
        print(
            f"interrupted: dim in [{exc.dim_lower}, {exc.dim_upper}] "
            f"after {exc.queries} queries ({exc.reason})",
            file=sys.stderr,
        )
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
