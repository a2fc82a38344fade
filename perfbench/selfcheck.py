"""Self-check of the benchmark itself, on a tiny corpus.

    python3 perfbench/selfcheck.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that the correctness gate trips on one corrupted reference answer per
workload, that self times add up on a nested toy span tree, and that
the exact counts (oracle queries, LP solves, branch-and-bound nodes)
and the answer digest repeat exactly across two runs.  Exits 0 when
every check passes and 1 otherwise, naming each failed check.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import run

TINY_JOBS = {"knapsack-classify": 1, "stein9-impact": 1, "random-lattice": 5}
EXACT_COUNTS = ("oracle.queries", "simplex.solve_lp.calls", "solver.nodes")


def check_metric_names(failures: list) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload, jobs in TINY_JOBS.items():
            _, result = run.run(workload, seed=7, seconds=0, trace=trace, jobs=jobs)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                failures.append(f"{workload} --trace {trace}: metrics {got} != {want}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} --trace {trace}: tiny run failed the gate")


def _corrupted(expected, job):
    if job.command == "impact":
        return dataclasses.replace(expected, z_star=expected.z_star - 1)
    return dataclasses.replace(expected, dimension=expected.dimension + 1)


def check_gate_trips(failures: list) -> None:
    import corpus
    import probe

    for workload in TINY_JOBS:
        jobs = corpus.build_corpus(workload, seed=7, jobs=1)
        with tempfile.TemporaryDirectory(dir=run.WORK) as directory, probe.Sampler() as sampler:
            runner = run.Runner(jobs, Path(directory), sampler)
            runner.run(0)
            if runner.mismatches:
                failures.append(f"{workload}: gate tripped on a correct answer")
            runner.expected[0] = _corrupted(runner.expected[0], jobs[0])
            runner.run(0)
            if not runner.mismatches:
                failures.append(f"{workload}: gate passed a corrupted reference answer")


def check_self_times(failures: list) -> None:
    import spans

    # a [0,10] > b [1,4] > c [2,3];  a > d [5,9]
    toy = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["d", 5.0, 9.0, 0]]
    if spans.self_times(toy) != [3.0, 2.0, 1.0, 4.0]:
        failures.append(f"self times of the toy tree: {spans.self_times(toy)}")

    recorder = spans.Recorder()

    def leaf():
        return sum(range(20000))

    def middle():
        return leaf() + leaf()

    def top():
        return middle() + leaf()

    top, middle, leaf = (recorder.wrap(f.__name__, f) for f in (top, middle, leaf))
    top()
    recorded = recorder.spans
    total = recorded[0][2] - recorded[0][1]
    selfs = spans.self_times(recorded)
    parents = [s[3] for s in recorded]
    if [s[0] for s in recorded] != ["top", "middle", "leaf", "leaf", "leaf"]:
        failures.append(f"recorded spans: {recorded}")
    elif parents != [-1, 0, 1, 1, 0]:
        failures.append(f"recorded parents: {parents}")
    elif min(selfs) < 0 or abs(sum(selfs) - total) > 1e-9 * max(1.0, total):
        failures.append(f"self times {selfs} do not add up to {total}")


def check_exact_repeats(failures: list) -> None:
    for workload, jobs in TINY_JOBS.items():
        first, second = (
            run.run(workload, seed=11, seconds=0, trace=1, jobs=jobs) for _ in range(2)
        )
        for name in EXACT_COUNTS:
            a, b = (r[1]["metrics"][name]["value"] for r in (first, second))
            if a != b:
                failures.append(f"{workload}: {name} was {a}, then {b}")
        if first[0]["answers_sha256"] != second[0]["answers_sha256"]:
            failures.append(f"{workload}: answers changed between two runs")


def main() -> int:
    if not run.import_program():
        return 2
    run.WORK.mkdir(exist_ok=True)
    failures: list = []
    for check in (check_self_times, check_gate_trips, check_metric_names, check_exact_repeats):
        before = len(failures)
        check(failures)
        status = "ok" if len(failures) == before else "FAILED"
        print(f"{check.__name__}: {status}")
    for line in failures:
        print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
