"""Guard for the committed benchmark records (BENCH_*.json at the repo root).

A speed claim counts only with before/after records of
`perfbench/run.py`.  Each file holds a list of records, each one run's
record plus "side" ("parent" or "change").  For every workload in
BENCHMARK.json there must be at least one pair, and every record must
have a partner on the other side with the same workload, seed and trace
mode.  Both partners share the rational backend, answer every job
correctly with nothing failed, and give the same answers_sha256.

One exception: a file may declare
"report_change": {"fields": [...], "why": "..."}, saying that the change
moves those report fields on purpose.  Its partners may then differ in
answers_sha256.  Only the count fields in REPORT_CHANGE_FIELDS may be
declared, so every answer of a report still has to stay put; the
golden report tests pin that the rest of a report is unchanged.

`.github/bench_gate.py`, which checks one CI run against the newest of
these records, is tested here on fixture BENCH files.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("side", "workload", "seed", "trace", "backend", "calib_s",
            "answers_sha256", "correct", "failed", "metrics")
REPORT_CHANGE_FIELDS = ("hull.oracle_queries", "hull.cache_hits")


def workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in spec["workloads"]]


def problems(records, names, report_change=None):
    """What is wrong with one file's records, under its report_change
    declaration if it has one; empty when nothing is."""
    out = []
    for i, rec in enumerate(records):
        missing = [k for k in REQUIRED if k not in rec]
        if missing:
            out.append(f"record {i}: missing {missing}")
    if out:
        return out
    for i, rec in enumerate(records):
        if rec["side"] not in ("parent", "change"):
            out.append(f"record {i}: side {rec['side']!r}")
            continue
        if rec["correct"] is not True or rec["failed"] != 0:
            out.append(f"record {i}: correct {rec['correct']}, failed {rec['failed']}")
        other = "change" if rec["side"] == "parent" else "parent"
        partners = [
            r for r in records
            if r["side"] == other
            and (r["workload"], r["seed"], r["trace"])
            == (rec["workload"], rec["seed"], rec["trace"])
        ]
        if not partners:
            out.append(f"record {i}: no {other} record for {rec['workload']} "
                       f"seed {rec['seed']} trace {rec['trace']}")
        for r in partners:
            if r["backend"] != rec["backend"]:
                out.append(f"record {i}: backend {rec['backend']} vs {r['backend']}")
            if r["answers_sha256"] != rec["answers_sha256"] and report_change is None:
                out.append(f"record {i}: answers differ from the {other} side")
    for name in names:
        sides = {r["side"] for r in records if r["workload"] == name}
        if sides != {"parent", "change"}:
            out.append(f"{name}: sides {sorted(sides)}, wanted parent and change")
    if report_change is not None:
        fields = report_change.get("fields") or []
        if not fields or not set(fields) <= set(REPORT_CHANGE_FIELDS) or not report_change.get("why"):
            out.append(f"report_change declares {fields} with why {report_change.get('why')!r}; "
                       f"only {list(REPORT_CHANGE_FIELDS)} may change, and why must be given")
    return out


def test_committed_bench_records_pair_up():
    for path in sorted(ROOT.glob("BENCH_*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert problems(doc["records"], workloads(), doc.get("report_change")) == [], path.name


def test_guard_rejects_broken_pairs():
    def rec(side, **extra):
        base = dict(side=side, workload="w", seed=1, trace=0, backend="fractions",
                    calib_s=0.002, answers_sha256="ab", correct=True, failed=0,
                    metrics={})
        return {**base, **extra}

    assert problems([rec("parent"), rec("change")], ["w"]) == []
    assert problems([rec("parent")], ["w"])  # no change side
    assert problems([rec("parent"), rec("change", seed=2)], ["w"])
    assert problems([rec("parent"), rec("change", backend="gmpy2")], ["w"])
    assert problems([rec("parent"), rec("change", answers_sha256="cd")], ["w"])
    assert problems([rec("parent"), rec("change", failed=1)], ["w"])
    assert problems([rec("parent"), rec("change", correct=False)], ["w"])
    assert problems([rec("parent"), rec("change")], ["w", "v"])  # workload absent
    broken = rec("change")
    del broken["calib_s"]
    assert problems([rec("parent"), broken], ["w"])

    # a declared change of the two count fields lets the digests differ, and nothing else
    counts = {"fields": ["hull.oracle_queries", "hull.cache_hits"], "why": "fewer queries"}
    moved = [rec("parent"), rec("change", answers_sha256="cd")]
    assert problems(moved, ["w"], counts) == []
    assert problems(moved, ["w"], {**counts, "fields": ["hull.oracle_queries", "dimension"]})
    assert problems(moved, ["w"], {**counts, "fields": []})
    assert problems(moved, ["w"], {"fields": counts["fields"]})  # no why
    assert problems([rec("parent"), rec("change", answers_sha256="cd", failed=1)], ["w"], counts)
    assert problems([rec("parent"), rec("change", answers_sha256="cd", correct=False)], ["w"],
                    counts)
    assert problems([rec("parent"), rec("change", answers_sha256="cd", seed=2)], ["w"], counts)


def _bench_gate():
    """`.github/bench_gate.py`, the CI check of a run against the records."""
    spec = importlib.util.spec_from_file_location("bench_gate", ROOT / ".github" / "bench_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_bench(path, *records):
    path.write_text(json.dumps({"records": list(records)}), encoding="utf-8")


def _change(trace, sha, nodes, side="change"):
    metrics = {
        "solver.nodes": {"value": nodes, "unit": "count"},
        "fileio.report_bytes": {"value": 900, "unit": "bytes"},
        "wall_s": {"value": 0.3, "unit": "s"},
    }
    return dict(side=side, workload="w", seed=1, trace=trace, answers_sha256=sha, metrics=metrics)


def _run_lines(sha="new", nodes=5, correct=True, failed=0):
    metrics = {"solver.nodes": {"value": nodes}, "fileio.report_bytes": {"value": 900},
               "wall_s": {"value": 9.9}}
    return ["{\"progress\": 1}", json.dumps({"record": {"answers_sha256": sha}}),
            json.dumps({"correct": correct, "failed": failed, "metrics": metrics})]


def test_bench_gate_reads_the_newest_change_record(tmp_path, monkeypatch):
    gate = _bench_gate().gate
    monkeypatch.chdir(tmp_path)
    # BENCH_12 is newer than BENCH_3 although it sorts before it as text
    _write_bench(tmp_path / "BENCH_3.json", _change(0, "old", 7), _change(1, "old", 7))
    _write_bench(tmp_path / "BENCH_12.json", _change(0, "new", 5), _change(1, "new", 5),
                 _change(0, "other", 1, side="parent"))
    assert gate("answers", "w", 1, _run_lines()) == ""
    # a wall-clock metric may move; a count or a byte metric may not
    assert gate("counts", "w", 1, _run_lines()) == "w seed 1 traced: counts equal BENCH_12.json"
    with pytest.raises(SystemExit, match="answers_sha256 old, BENCH_12.json records"):
        gate("answers", "w", 1, _run_lines(sha="old"))
    with pytest.raises(SystemExit, match=r"differ: \{'solver.nodes': \(7, 5\)\}"):
        gate("counts", "w", 1, _run_lines(nodes=7))
    for mode in ("answers", "counts"):
        for bad in (dict(correct=False), dict(failed=1)):
            with pytest.raises(SystemExit, match="^w seed 1"):
                gate(mode, "w", 1, _run_lines(**bad))
    with pytest.raises(SystemExit, match="no BENCH_.* holds a change record"):
        gate("answers", "w", 2, _run_lines())


def test_bench_gate_needs_a_traced_record_with_counts(tmp_path, monkeypatch):
    gate = _bench_gate().gate
    monkeypatch.chdir(tmp_path)
    _write_bench(tmp_path / "BENCH_1.json", _change(0, "new", 5))
    assert gate("answers", "w", 1, _run_lines()) == ""
    with pytest.raises(SystemExit, match="no BENCH_.* holds a traced change record"):
        gate("counts", "w", 1, _run_lines())
    untimed = dict(_change(1, "new", 5), metrics={"wall_s": {"value": 0.3, "unit": "s"}})
    _write_bench(tmp_path / "BENCH_2.json", untimed)
    with pytest.raises(SystemExit, match="BENCH_2.json records no count or byte metric"):
        gate("counts", "w", 1, _run_lines())
