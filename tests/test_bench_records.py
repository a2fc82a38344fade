"""Guard for the committed benchmark records (BENCH_*.json at the repo root).

A speed claim counts only with before/after records of
`perfbench/run.py`.  Each file holds a list of records, each one run's
record plus "side" ("parent" or "change").  For every workload in
BENCHMARK.json there must be at least one pair, and every record must
have a partner on the other side with the same workload, seed and trace
mode.  Both partners share the rational backend, answer every job
correctly with nothing failed, and give the same answers_sha256.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("side", "workload", "seed", "trace", "backend", "calib_s",
            "answers_sha256", "correct", "failed", "metrics")


def workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in spec["workloads"]]


def problems(records, names):
    """What is wrong with one file's records; empty when nothing is."""
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
            if r["answers_sha256"] != rec["answers_sha256"]:
                out.append(f"record {i}: answers differ from the {other} side")
    for name in names:
        sides = {r["side"] for r in records if r["workload"] == name}
        if sides != {"parent", "change"}:
            out.append(f"{name}: sides {sorted(sides)}, wanted parent and change")
    return out


def test_committed_bench_records_pair_up():
    for path in sorted(ROOT.glob("BENCH_*.json")):
        records = json.loads(path.read_text(encoding="utf-8"))["records"]
        assert problems(records, workloads()) == [], path.name


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
