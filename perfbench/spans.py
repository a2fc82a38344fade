"""Span recording around cutdim's public call sites, from outside.

The program is not instrumented.  While `traced` is active, every name
in SITES is replaced, where the caller looks it up, by a wrapper that
records a span (name, start, end, parent) into an in-memory Recorder.
cutdim modules import names directly (`from .simplex import solve_lp`),
so a function is wrapped in every module that calls it, not only where
it is defined.  Private helpers (`_phase_one`, `_pivot`,
`_verify_response`) stay unwrapped.  Self time is a span's duration
minus the part of it covered by its child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import Counter, defaultdict

# (module, attribute path where the name is looked up, span name)
SITES = (
    ("cutdim.cli", "main", "cli.main"),
    ("cutdim.fileio", "read_instance", "fileio.read_instance"),
    ("cutdim.fileio", "read_cuts", "fileio.read_cuts"),
    ("cutdim.fileio", "write_report", "fileio.write_report"),
    ("cutdim.cli", "analyze_instance", "analysis.analyze_instance"),
    ("cutdim.cli", "impact_protocol", "analysis.impact_protocol"),
    ("cutdim.analysis", "classify_cut", "analysis.classify_cut"),
    ("cutdim.analysis", "compute_beta_true", "analysis.compute_beta_true"),
    ("cutdim.analysis", "affine_hull", "hull.affine_hull"),
    ("cutdim.hull", "affine_hull", "hull.affine_hull"),
    ("cutdim.analysis", "face_hull", "hull.face_hull"),
    ("cutdim.hull", "select_direction", "hull.select_direction"),
    ("cutdim.hull", "cache_probe", "oracle.cache_probe"),
    ("cutdim.hull", "oracle_maximize", "oracle.maximize"),
    ("cutdim.analysis", "oracle_maximize", "oracle.maximize"),
    ("cutdim.oracle", "MipOracle.solve", "oracle.mip.solve"),
    ("cutdim.oracle", "BruteForceOracle.solve", "oracle.lattice.solve"),
    ("cutdim.oracle", "enumerate_lattice", "oracle.lattice.enumerate"),
    ("cutdim.oracle", "solve_mip", "solver.solve_mip"),
    ("cutdim.analysis", "solve_mip", "solver.solve_mip"),
    ("cutdim.analysis", "solve_lp_relaxation", "solver.solve_lp_relaxation"),
    ("cutdim.solver", "solve_lp", "simplex.solve_lp"),
    ("cutdim.hull", "orthogonal_complement_basis", "linalg.orthogonal_complement_basis"),
    ("cutdim.hull", "is_in_span", "linalg.is_in_span"),
    ("cutdim.hull", "rank", "linalg.rank"),
    ("cutdim.model", "MipInstance.is_feasible_point", "model.is_feasible_point"),
)

PROVIDER_SOLVES = ("oracle.mip.solve", "oracle.lattice.solve")


class Recorder:
    """Spans as [name, start, end, parent index] plus counts by name.

    `scales` holds, per span, the factor that turns its seconds into
    seconds at reference speed (probe.py); `rescale` sets it for the
    spans of one call.
    """

    def __init__(self):
        self.spans: list = []
        self.scales: list = []
        self.counts: Counter = Counter()
        self._open: list = []

    def rescale(self, first: int, factor: float) -> None:
        self.scales[first:] = [factor] * (len(self.spans) - first)

    def wrap(self, name: str, fn):
        spans, scales, stack = self.spans, self.scales, self._open
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            scales.append(1.0)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return wrapper

    def write(self, path: str) -> None:
        rows = [span + [factor] for span, factor in zip(self.spans, self.scales)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "scale"], "spans": rows}, fh)


def _observe_lp(counts, args, result):
    counts["lp_infeasible"] += result.status.value == "infeasible"


def _observe_mip(counts, args, result):
    counts["nodes"] += result.node_count


def _observe_probe(counts, args, result):
    counts["probe_hits"] += result is not None


def _observe_hull(counts, args, result):
    counts["hull_cache_hits"] += result.cache_hits


def _observe_face(counts, args, result):
    counts["face_queries"] += result.oracle_queries


def _observe_impact(counts, args, result):
    counts["node_budget"] += result.node_budget


def _observe_report(counts, args, result):
    counts["report_bytes"] += os.path.getsize(args[1])


OBSERVERS = {
    "simplex.solve_lp": _observe_lp,
    "solver.solve_mip": _observe_mip,
    "oracle.cache_probe": _observe_probe,
    "hull.affine_hull": _observe_hull,
    "hull.face_hull": _observe_face,
    "analysis.impact_protocol": _observe_impact,
    "fileio.write_report": _observe_report,
}


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Wrap every site for the duration of the block, then restore."""
    saved = []
    try:
        for module_name, path, span_name in SITES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(span_name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for index, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: Recorder, overhead_s: float) -> dict:
    """The per-layer metrics (name -> (value, unit)) of one traced pass.

    Times are in seconds at reference speed.
    """
    spans, scales = recorder.spans, recorder.scales
    selfs = self_times(spans)
    calls, total, own = Counter(), Counter(), Counter()
    for (name, start, end, _), self_s, factor in zip(spans, selfs, scales):
        calls[name] += 1
        total[name] += (end - start) * factor
        own[name] += self_s * factor
    # verification and cache insert: oracle_maximize minus the provider's solve
    provider = Counter()
    lps_in_mip = 0
    for (name, start, end, parent), factor in zip(spans, scales):
        if name in PROVIDER_SOLVES and parent >= 0 and spans[parent][0] == "oracle.maximize":
            provider["s"] += (end - start) * factor
        if name == "simplex.solve_lp" and _has_ancestor(spans, parent, "solver.solve_mip"):
            lps_in_mip += 1
    c = recorder.counts
    face_runs = calls["hull.face_hull"]
    return {
        "simplex.solve_lp.calls": (calls["simplex.solve_lp"], "count"),
        "simplex.solve_lp.self_s": (own["simplex.solve_lp"], "s"),
        "simplex.solve_lp.infeasible_frac": (
            _ratio(c["lp_infeasible"], calls["simplex.solve_lp"]),
            "ratio",
        ),
        "solver.solve_mip.calls": (calls["solver.solve_mip"], "count"),
        "solver.solve_mip.self_s": (own["solver.solve_mip"], "s"),
        "solver.nodes": (c["nodes"], "count"),
        "solver.lps_per_mip": (_ratio(lps_in_mip, calls["solver.solve_mip"]), "LP/MIP"),
        "oracle.queries": (calls["oracle.maximize"], "count"),
        "oracle.maximize.self_s": (total["oracle.maximize"] - provider["s"], "s"),
        "oracle.lattice.solve_s": (total["oracle.lattice.solve"], "s"),
        "oracle.lattice.enumerate_s": (total["oracle.lattice.enumerate"], "s"),
        "oracle.cache_probe.calls": (calls["oracle.cache_probe"], "count"),
        "oracle.cache_probe.s": (total["oracle.cache_probe"], "s"),
        "oracle.cache_probe.hit_frac": (
            _ratio(c["probe_hits"], calls["oracle.cache_probe"]),
            "ratio",
        ),
        "hull.affine_hull.calls": (calls["hull.affine_hull"], "count"),
        "hull.affine_hull.self_s": (own["hull.affine_hull"], "s"),
        "hull.face_hull.calls": (face_runs, "count"),
        "hull.face_hull.s": (total["hull.face_hull"], "s"),
        "hull.rounds": (calls["hull.select_direction"], "count"),
        "hull.select_direction.s": (total["hull.select_direction"], "s"),
        "hull.cache_hits": (c["hull_cache_hits"], "count"),
        "hull.face_queries_per_cut": (_ratio(c["face_queries"], face_runs), "query/cut"),
        "linalg.orthogonal_complement_basis.s": (
            total["linalg.orthogonal_complement_basis"],
            "s",
        ),
        "linalg.is_in_span.calls": (calls["linalg.is_in_span"], "count"),
        "linalg.is_in_span.s": (total["linalg.is_in_span"], "s"),
        "linalg.rank.s": (total["linalg.rank"], "s"),
        "analysis.classify_cut.calls": (calls["analysis.classify_cut"], "count"),
        "analysis.classify_cut.self_s": (own["analysis.classify_cut"], "s"),
        "analysis.compute_beta_true.s": (total["analysis.compute_beta_true"], "s"),
        "analysis.impact_protocol.self_s": (own["analysis.impact_protocol"], "s"),
        "analysis.node_budget": (c["node_budget"], "count"),
        "model.is_feasible_point.calls": (calls["model.is_feasible_point"], "count"),
        "model.is_feasible_point.s": (total["model.is_feasible_point"], "s"),
        "fileio.read_instance.s": (total["fileio.read_instance"], "s"),
        "fileio.read_cuts.s": (total["fileio.read_cuts"], "s"),
        "fileio.write_report.s": (total["fileio.write_report"], "s"),
        "fileio.report_bytes": (c["report_bytes"], "bytes"),
        "cli.main.self_s": (own["cli.main"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def _has_ancestor(spans, index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False
