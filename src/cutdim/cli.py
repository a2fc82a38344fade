"""Command-line front end.

Subcommands mirror the analysis pipeline: `dim` runs the affine hull
algorithm on one instance, `classify` adds per-cut verdicts and face
dimensions, `impact` scores cut strength by closed gap, `analyze` does
all of it and writes a report, `histogram` aggregates reports into the
relative-dimension distribution, and `selftest` runs the seeded
property suites.

Exit codes: 0 success, 1 analysis failure (timeouts, solver limits --
reported, never a traceback), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional, Sequence

from . import fileio
from .analysis import AnalysisError, analyze_instance, impact_protocol
from .config import RunConfig, load_config
from .hull import HullInterrupted, affine_hull
from .mps import MpsParseError
from .oracle import OracleError, make_provider
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutdim",
        description="Exact dimension and strength analysis of cutting planes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="dimension of the mixed-integer hull")
    p.add_argument("instance")
    _config_flags(p)

    p = sub.add_parser("classify", help="verdict and face dimension per cut")
    p.add_argument("instance")
    p.add_argument("cuts")
    _config_flags(p)

    p = sub.add_parser("impact", help="closed-gap strength per cut")
    p.add_argument("instance")
    p.add_argument("cuts")
    _config_flags(p)

    p = sub.add_parser("analyze", help="full pipeline with report")
    p.add_argument("instance")
    p.add_argument("cuts")
    _config_flags(p)

    p = sub.add_parser("histogram", help="aggregate reports into dimension bins")
    p.add_argument("reports", nargs="+")
    _config_flags(p)

    p = sub.add_parser("selftest", help="seeded property suites against brute force")
    _config_flags(p)

    return parser


def _configure(args: argparse.Namespace) -> RunConfig:
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)}
    path = args.config or os.environ.get("CUTDIM_CONFIG")
    return load_config(path=path, overrides=overrides)


def _cmd_dim(args, cfg: RunConfig) -> int:
    inst = fileio.read_instance(args.instance)
    provider = make_provider(
        inst,
        cfg.engine,
        verify=cfg.verify_oracle,
        time_limit=cfg.solve_time_limit,
        node_limit=cfg.solve_node_limit,
    )
    hull = affine_hull(provider, time_budget=cfg.hull_time_budget)
    print(
        f"dim = {hull.dimension}, queries = {hull.oracle_queries}, "
        f"equations = {len(hull.equations)}"
    )
    for line in hull.equations.render():
        print(f"  {line}")
    return 0


def _analyze(args, cfg: RunConfig, run_impact: bool):
    inst = fileio.read_instance(args.instance)
    cuts = fileio.read_cuts(args.cuts, inst.num_vars)
    return analyze_instance(inst, cuts, cfg, run_impact=run_impact)


def _print_cut_table(analysis) -> None:
    rows = [("label", "category", "verdict", "beta", "beta_true", "face_dim")]
    for cut, cls, failure in zip(
        analysis.cuts, analysis.classifications, analysis.failures
    ):
        if cls is None:
            rows.append((cut.label, cut.category, "failed", rat_str(cut.rhs), "-", failure))
            continue
        dim = "-" if cls.face_dimension is None else str(cls.face_dimension)
        rows.append(
            (
                cut.label,
                cut.category,
                cls.verdict.value,
                rat_str(cut.rhs),
                rat_str(cls.beta_true),
                dim,
            )
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
    inst = fileio.read_instance(args.instance)
    cuts = fileio.read_cuts(args.cuts, inst.num_vars)
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
    from .analysis import build_histogram

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


_COMMANDS = {
    "dim": _cmd_dim,
    "classify": _cmd_classify,
    "impact": _cmd_impact,
    "analyze": _cmd_analyze,
    "histogram": _cmd_histogram,
    "selftest": _cmd_selftest,
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
        return _COMMANDS[args.command](args, cfg)
    except (fileio.ParseError, MpsParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return 2
    except OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 1
    except HullInterrupted as exc:
        print(
            f"interrupted: dim in [{exc.dim_lower}, {exc.dim_upper}] "
            f"after {exc.queries} queries ({exc})",
            file=sys.stderr,
        )
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
