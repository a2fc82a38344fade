"""Reading and writing instances, cut lists, and analysis reports.

The native instance format is JSON with every number an exact string
("p/q" or an integer literal) and null for absent bounds, so a round
trip loses nothing; a boolean is neither a number nor a variable index.
Instance files are read and written by extension, `.json` or `.mps`
(the mps module), and any other name is a ParseError.

Cut files are plain text: one cut per line,

    label, a1, a2, ..., an [, <=] , rhs [, category]

with '#' starting a comment.  Coefficients are read exactly and the
returned cuts are already scaled to max-norm 1.

Reports come in two shapes: a JSON document carrying the full analysis
of one instance (exact values as strings, decimals alongside for
reading convenience), and a flat CSV with one row per cut.  The JSON
reports are what the histogram aggregation consumes.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from typing import Optional, Sequence

from .analysis import (
    InstanceAnalysis,
    Verdict,
    binned_face_dimension,
    relative_dimension_bin,
)
from .model import Inequality, MipInstance, build_instance, normalize_cut
from .mps import read_instance_mps, write_instance_mps
from .rational import rat, rat_decimal, rat_str


class ParseError(ValueError):
    pass


def _num_out(value):
    """Exact JSON-safe rendering; infinities become 'inf'/'-inf'."""
    if value is None:
        return None
    return rat_str(value)


def _bound_in(value, where: str):
    if value is None:
        return None
    if isinstance(value, float) and math.isinf(value):
        return None
    try:
        return rat(value)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def instance_to_json(inst: MipInstance) -> str:
    doc = {
        "name": inst.name,
        "objective": [rat_str(v) for v in inst.objective],
        "constraint_matrix": [[rat_str(v) for v in row] for row in inst.constraint_matrix],
        "rhs": [rat_str(v) for v in inst.rhs],
        "integer_vars": sorted(inst.integer_vars),
        "lower_bounds": [_num_out(v) for v in inst.lower_bounds],
        "upper_bounds": [_num_out(v) for v in inst.upper_bounds],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def instance_from_json(text: str) -> MipInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    missing = {"name", "objective", "constraint_matrix", "rhs"} - doc.keys()
    if missing:
        raise ParseError(f"instance document lacks keys: {sorted(missing)}")
    try:
        n = len(doc["objective"])
        return build_instance(
            name=doc["name"],
            constraint_matrix=doc["constraint_matrix"],
            rhs=doc["rhs"],
            objective=doc["objective"],
            integer_vars=doc.get("integer_vars", ()),
            lower_bounds=[_bound_in(v, "lower_bounds") for v in doc.get("lower_bounds", [None] * n)],
            upper_bounds=[_bound_in(v, "upper_bounds") for v in doc.get("upper_bounds", [None] * n)],
        )
    except (ValueError, TypeError) as exc:
        message = str(exc)
        if not message.startswith("malformed instance: "):  # build_instance's checks say it
            message = f"malformed instance: {message}"
        raise ParseError(message) from exc


_INSTANCE_CODECS = {  # (reader, writer) by extension
    ".json": (instance_from_json, instance_to_json),
    ".mps": (read_instance_mps, write_instance_mps),
}


def _instance_codec(path: str):
    for extension, codec in _INSTANCE_CODECS.items():
        if path.lower().endswith(extension):
            return codec
    raise ParseError(f"cannot infer format of {path!r}; name it .json or .mps")


def read_instance(path: str) -> MipInstance:
    """Load an instance from a .json or .mps file."""
    parse, _ = _instance_codec(path)
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def write_instance(inst: MipInstance, path: str) -> None:
    """Save an instance to a .json or .mps file; `read_instance` reads it back."""
    _, render = _instance_codec(path)
    text = render(inst)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def parse_cuts(text: str, num_vars: int) -> list[Inequality]:
    """Parse a cut file; returns normalized cuts in file order."""
    cuts = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) < num_vars + 2:
            raise ParseError(
                f"line {line_no}: expected label, {num_vars} coefficients and a rhs"
            )
        label = fields[0]
        rest = fields[1:]
        try:
            coefficients = [rat(f) for f in rest[:num_vars]]
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from exc
        # the relation is optional and may share a field with the rhs
        idx = num_vars
        token: Optional[str] = rest[idx]
        for rel in ("<=", "≤"):
            if token.startswith(rel):
                token = token[len(rel):].strip()
                if not token:
                    idx += 1
                    token = rest[idx] if idx < len(rest) else None
                break
        if token is None:
            raise ParseError(f"line {line_no}: missing right-hand side")
        try:
            rhs = rat(token)
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from exc
        idx += 1
        category = rest[idx] if idx < len(rest) else ""
        if idx + 1 < len(rest):
            raise ParseError(f"line {line_no}: unexpected trailing fields")
        cuts.append(
            normalize_cut(Inequality(coefficients, rhs, label=label, category=category))
        )
    return cuts


def read_cuts(path: str, num_vars: int) -> list[Inequality]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cuts(fh.read(), num_vars)


def cut_records(analysis: InstanceAnalysis) -> list[dict]:
    """One record per cut, in cut order, with None for what is absent.

    The JSON report writes these records as they are; the CSV report
    and the CLI table render them.  The impact keys (closed gap, nodes,
    solve status, flag) are present only when the strength protocol ran.
    """
    runs = () if analysis.impact is None else analysis.impact.runs
    records = []
    for cut, cls, failure, run in itertools.zip_longest(
        analysis.cuts, analysis.classifications, analysis.failures, runs
    ):
        k = None
        if cls is not None and analysis.dimension >= 0:
            k = binned_face_dimension(cls.verdict, cls.is_degenerate, cls.face_dimension)
        record = {
            "label": cut.label,
            "category": cut.category,
            "verdict": None if cls is None else cls.verdict.value,
            "degenerate": False if cls is None else cls.is_degenerate,
            "failure": failure or None,
            "beta": rat_str(cut.rhs),
            "beta_true": None if cls is None else _num_out(cls.beta_true),
            "gap_to_true": None if cls is None else _num_out(cls.gap_to_true),
            "face_dimension": None if cls is None else cls.face_dimension,
            "bin": None if k is None else relative_dimension_bin(k, analysis.dimension).label,
        }
        if run is not None:
            record["closed_gap"] = _num_out(run.gap)
            record["closed_gap_decimal"] = None if run.gap is None else rat_decimal(run.gap)
            record["nodes"] = run.nodes
            record["solve_status"] = run.solve_status
            record["flag"] = run.flag
        records.append(record)
    return records


def analysis_to_json(analysis: InstanceAnalysis) -> str:
    doc = {
        "instance": analysis.name,
        "num_vars": analysis.num_vars,
        "dimension": analysis.dimension,
        "hull": {
            "oracle_queries": analysis.hull_queries,
            "cache_hits": analysis.hull_cache_hits,
            "equations": [
                {"coefficients": [rat_str(c) for c in row], "rhs": rat_str(b)}
                for row, b in zip(analysis.equations.rows, analysis.equations.rhs)
            ],
        },
        "summary": {
            "analyzed": {
                "total": analysis.analyzed_count,
                "by_category": analysis.analyzed_by_category,
            },
            "failed": {
                "numerical": analysis.failed_numerical,
                "timeout": analysis.failed_timeout,
                "invalid": analysis.failed_invalid,
            },
            "degenerate": analysis.degenerate,
            "node_budget": None if analysis.impact is None else analysis.impact.node_budget,
        },
        "cuts": cut_records(analysis),
        "histogram": [
            {"bin": b.label, "weight": rat_str(w), "weight_decimal": rat_decimal(w)}
            for b, w in analysis.histogram()
        ],
    }
    if analysis.impact is not None:
        imp = analysis.impact
        doc["impact"] = {
            "z_star": _num_out(imp.z_star),
            "z_lp": _num_out(imp.z_lp),
            "node_budget": imp.node_budget,
            "baseline": {
                "solve_status": imp.baseline.solve_status,
                "nodes": imp.baseline.nodes,
                "closed_gap": _num_out(imp.baseline.gap),
                "flag": imp.baseline.flag,
            },
        }
    if analysis.impact_error:
        doc["impact_error"] = analysis.impact_error
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# One table, three row kinds; columns unused by a kind stay empty.
_CSV_COLUMNS = [
    "row",
    "instance",
    "dimension",
    "label",
    "category",
    "verdict",
    "beta",
    "beta_true",
    "gap_to_true",
    "face_dimension",
    "bin",
    "closed_gap",
    "closed_gap_decimal",
    "nodes",
    "solve_status",
    "flag",
    "node_budget",
    "analyzed",
    "failed_numerical",
    "failed_timeout",
    "failed_invalid",
    "degenerate",
    "weight",
    "weight_decimal",
]


def analysis_to_csv(analysis: InstanceAnalysis) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=_CSV_COLUMNS, restval="")
    writer.writeheader()
    writer.writerow(
        {
            "row": "summary",
            "instance": analysis.name,
            "dimension": analysis.dimension,
            "node_budget": ""
            if analysis.impact is None
            else analysis.impact.node_budget,
            "analyzed": analysis.analyzed_count,
            "failed_numerical": analysis.failed_numerical,
            "failed_timeout": analysis.failed_timeout,
            "failed_invalid": analysis.failed_invalid,
            "degenerate": analysis.degenerate,
            "flag": analysis.impact_error,
        }
    )
    for record in cut_records(analysis):
        failure = record.pop("failure")
        row = {key: "" if value is None else value for key, value in record.items()}
        row.update(
            row="cut",
            instance=analysis.name,
            dimension=analysis.dimension,
            verdict=record["verdict"] or "failed",
            degenerate="",  # in CSV the summary row's count
            flag=record.get("flag") or failure or "",
        )
        writer.writerow(row)
    for b, w in analysis.histogram():
        writer.writerow(
            {
                "row": "histogram",
                "instance": analysis.name,
                "bin": b.label,
                "weight": rat_str(w),
                "weight_decimal": rat_decimal(w),
            }
        )
    return out.getvalue()


def write_report(analysis: InstanceAnalysis, path: str, fmt: str = "json") -> None:
    """Write one instance's analysis as 'json' or 'csv'."""
    if fmt == "json":
        text = analysis_to_json(analysis)
    elif fmt == "csv":
        text = analysis_to_csv(analysis)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def histogram_items_from_report(doc: dict) -> Optional[tuple]:
    """(dimension, face dims) from one parsed JSON report, None if no cuts qualify.

    The cuts counted are those `analysis.binned_face_dimension` keeps.
    """
    if not isinstance(doc, dict):
        raise ParseError("a report must be a JSON object")
    d = doc.get("dimension")
    if d is not None and type(d) is not int:
        raise ParseError(f"dimension {d!r} is not a whole number")
    cuts = doc.get("cuts", [])
    if not isinstance(cuts, list) or not all(isinstance(cut, dict) for cut in cuts):
        raise ParseError("cuts must be a list of JSON objects")
    dims = []
    for cut in cuts:
        face_dimension = cut.get("face_dimension")
        if face_dimension is not None and type(face_dimension) is not int:
            raise ParseError(f"face_dimension {face_dimension!r} is not a whole number")
        if type(cut.get("degenerate", False)) is not bool:
            raise ParseError(f"degenerate {cut['degenerate']!r} is not true or false")
        try:
            verdict = None if cut.get("verdict") is None else Verdict(cut["verdict"])
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        k = binned_face_dimension(verdict, cut.get("degenerate"), face_dimension)
        if k is not None:
            dims.append(k)
    if d is None or d < 0 or not dims:
        return None
    for k in dims:
        if not -1 <= k <= d:
            raise ParseError(f"face dimension {k} impossible inside dimension {d}")
    return (d, dims)


def load_histogram_items(paths: Sequence[str]) -> list:
    items = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                item = histogram_items_from_report(json.load(fh))
            except (json.JSONDecodeError, ParseError) as exc:
                raise ParseError(f"{path}: not a JSON report: {exc}") from exc
        if item is not None:
            items.append(item)
    return items


def histogram_to_csv(rows: Sequence) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["bin", "weight", "weight_decimal"])
    for b, w in rows:
        writer.writerow([b.label, rat_str(w), rat_decimal(w)])
    return out.getvalue()
