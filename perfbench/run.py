"""Seeded end-to-end benchmark of the cutdim command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports cutdim from `src/`.
Workloads (see corpus.py for why each was chosen):

  knapsack-classify  `cutdim classify` on binary knapsacks
  stein9-impact      `cutdim impact` on STS(9) covering
  random-lattice     `cutdim classify --engine lattice` on the
                     acceptance generator

Each run builds its corpus from the seed, writes every instance with
`fileio.write_instance` and every cut list in the cut-file format, and
drives `cutdim.cli.main` in-process, one call per job, `--jobs 1`,
default limits, one job at a time (a closed loop with one client).
Every answer is checked against lattice enumeration (reference.py).

Every time is in seconds at reference speed: the measured seconds
scaled by the machine-speed probe that a background thread runs every
50 ms (probe.py; NOTES.md says why).

--trace 0 cycles through the corpus until S seconds have passed (every
job at least once) and prints the end-to-end metrics:

  wall_s       seconds to run every job once: per job the median of
               its calls, summed over the corpus
  cuts_per_s   cuts classified or scored without failure per wall second
  job_p50_s    median latency of one CLI call (over the per-job times)
  setup_s      `import cutdim` in a fresh interpreter, median of 9
  peak_rss_mb  peak resident memory of the benchmark process

--trace 1 runs every job twice, untraced and then with spans recorded
around cutdim's public call sites (spans.py), and prints the per-layer
metrics of the traced calls plus trace.overhead_s, the traced minus the
untraced time summed over the jobs.

The next-to-last line is a JSON record of the run: rational backend,
Python version, nproc, the median probe calib_s, the raw seconds of all
calls, failed_frac, job_p90_s, answers_sha256 (a digest of the first
call's report per job) and any gate mismatches.  The last line is the
result: {"correct", "attempted", "failed", "metrics"}, attempts counted
in cut analyses (a failed call fails all its cuts).  Spans and the
record are also written under .perfbench-work/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("knapsack-classify", "stein9-impact", "random-lattice")
SETUP_SAMPLES = 9
HARD_CAP_S = 140.0  # stop starting jobs after this, so a run ends within 180 s
# layers a workload never reaches: the traced run should read 0 for these
BYPASSED = {
    "knapsack-classify": ("oracle.lattice.solve_s", "analysis.node_budget"),
    "stein9-impact": ("oracle.queries", "hull.rounds"),
    "random-lattice": ("simplex.solve_lp.calls", "solver.solve_mip.calls"),
}
# cutdim first, the probe after it: the probe's imports (fractions,
# statistics) must not be preloaded for the import being timed
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import cutdim; elapsed = time.perf_counter() - t; "
    "sys.path.insert(0, sys.argv[2]); import probe; "
    "print(elapsed, probe.scale(elapsed, [probe.probe() for _ in range(5)]))"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """`import cutdim` in a fresh isolated interpreter, at reference speed."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        cwd=ROOT,
    )
    return float(done.stdout.split()[1])


class Runner:
    """Writes a corpus to disk, runs its jobs through the CLI and gates them."""

    def __init__(self, jobs, directory: Path, sampler: probe.Sampler):
        import corpus
        import reference
        from cutdim import fileio

        self.jobs = jobs
        self.expected = [reference.expect(job) for job in jobs]
        self.argv = []
        self.reports = []
        for job in jobs:
            instance = directory / f"{job.name}.json"
            cuts = directory / f"{job.name}.cuts"
            fileio.write_instance(job.instance, str(instance))
            cuts.write_text(corpus.cut_file_text(job.cuts), encoding="utf-8")
            argv = [job.command, str(instance), str(cuts), "--jobs", "1"]
            report = None
            if job.command == "classify":
                report = directory / f"{job.name}.report.json"
                argv += ["--output", str(report)]
            if job.engine == "lattice":
                argv += ["--engine", "lattice"]
            self.argv.append(argv)
            self.reports.append(report)
        self.attempted = 0
        self.failed = 0
        self.mismatches: list = []
        self.answers: dict = {}
        self.sampler = sampler
        self.raw_s = 0.0  # unscaled seconds of all calls

    def run(self, index: int) -> float:
        """One CLI call of job `index`; gates the answer and returns the
        call's seconds at reference speed (probe.py)."""
        from cutdim import cli

        job, report = self.jobs[index], self.reports[index]
        if report is not None and report.exists():
            report.unlink()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(self.argv[index])
        except Exception:  # a crash fails the job, the run goes on
            code = None
            err.write(traceback.format_exc())
        end = time.perf_counter()
        self.raw_s += end - start
        self.attempted += len(job.cuts)
        self.failed += self._gate(index, code, out.getvalue(), err.getvalue())
        return probe.scale(end - start, self.sampler.during(start, end))

    def _gate(self, index: int, code, stdout: str, stderr: str) -> int:
        import reference

        job, want, report = self.jobs[index], self.expected[index], self.reports[index]
        if job.command == "classify" and code in (0, 1) and report.exists():
            answer, check = report.read_text(encoding="utf-8"), reference.check_classify
        elif job.command == "impact" and code == 0:
            answer, check = stdout, reference.check_impact
        else:
            print(f"{job.name}: exit {code}\n{stderr}", file=sys.stderr)
            return len(job.cuts)
        try:
            bad, failed = check(job, want, answer)
        except (ValueError, KeyError, IndexError) as exc:
            bad, failed = [f"{job.name}: unreadable output: {exc!r}"], 0
        self.mismatches.extend(bad)
        self.answers.setdefault(job.name, answer)
        return failed

    def digest(self) -> str:
        h = hashlib.sha256()
        for job in self.jobs:
            h.update(f"{job.name}\0{self.answers.get(job.name, '')}\0".encode())
        return h.hexdigest()


def measure_untraced(runner: Runner, seconds: float) -> dict:
    """Cycle through the corpus until `seconds` have passed, at least once.

    Every time is in seconds at reference speed (probe.py).  A job's
    time is the median of its calls; `import cutdim` is timed first.
    """
    setup = [import_seconds() for _ in range(SETUP_SAMPLES)]
    samples = [[] for _ in runner.jobs]
    start = time.perf_counter()
    calls = 0
    while calls < len(samples) or time.perf_counter() - start < seconds:
        if time.perf_counter() - start >= HARD_CAP_S:
            break
        samples[calls % len(samples)].append(runner.run(calls % len(samples)))
        calls += 1
    missing = [job for job, s in zip(runner.jobs, samples) if not s]
    runner.attempted += sum(len(job.cuts) for job in missing)
    runner.failed += sum(len(job.cuts) for job in missing)
    per_job = [statistics.median(s) for s in samples if s]
    wall = sum(per_job)
    total_cuts = sum(len(job.cuts) for job in runner.jobs)
    ok_share = 1 - runner.failed / runner.attempted
    return {
        "calls": calls,
        "job_p90_s": (
            statistics.quantiles(per_job, n=10, method="inclusive")[-1]
            if len(per_job) > 1
            else per_job[0]
        ),
        "metrics": {
            "wall_s": (wall, "s"),
            "cuts_per_s": (ok_share * total_cuts / wall, "1/s"),
            "job_p50_s": (statistics.median(per_job), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
    }


def measure_traced(runner: Runner) -> dict:
    """Each job once untraced and, right after, once traced.

    The per-layer metrics come from the traced calls, each span scaled
    by the factor of its call; the overhead is the traced minus the
    untraced time, paired call by call.
    """
    import spans

    recorder = spans.Recorder()
    overhead = 0.0
    for index in range(len(runner.jobs)):
        untraced = runner.run(index)
        first, raw = len(recorder.spans), runner.raw_s
        with spans.traced(recorder):
            traced = runner.run(index)
        recorder.rescale(first, traced / (runner.raw_s - raw))
        overhead += traced - untraced
    return {
        "calls": 2 * len(runner.jobs),
        "metrics": spans.layer_metrics(recorder, overhead),
        "recorder": recorder,
    }


def import_program() -> bool:
    """Put the checkout's src/ on the path; False when cutdim is not there."""
    if not (SRC / "cutdim" / "__init__.py").is_file():
        print(f"run.py: no cutdim sources under {SRC}", file=sys.stderr)
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def run(workload: str, seed: int, seconds: float, trace: int, jobs: int = 0) -> tuple:
    """One benchmark run; returns (record, result) and writes both to WORK.

    `jobs` shrinks the corpus to its first jobs (the self-check uses it).
    """
    import corpus
    from cutdim import rational

    WORK.mkdir(exist_ok=True)
    tag = f"{workload}-{seed}-trace{trace}"
    corpus_jobs = corpus.build_corpus(workload, seed, jobs)
    directory = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK))
    try:
        with probe.Sampler() as sampler:
            runner = Runner(corpus_jobs, directory, sampler)
            if trace:
                outcome = measure_traced(runner)
                outcome["recorder"].write(str(WORK / f"spans-{tag}.json"))
            else:
                outcome = measure_untraced(runner, seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    metrics = outcome["metrics"]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "backend": rational.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "calib_s": statistics.median(sampler.probes),
        "probe_reference_s": probe.REFERENCE_S,
        "raw_call_s": runner.raw_s,
        "jobs": len(corpus_jobs),
        "cuts": sum(len(job.cuts) for job in corpus_jobs),
        "calls": outcome["calls"],
        "failed_frac": runner.failed / runner.attempted,
        "answers_sha256": runner.digest(),
        "mismatches": runner.mismatches[:20],
    }
    if not trace:
        # one value per job: too few samples beyond it for a bounded metric
        record["job_p90_s"] = outcome["job_p90_s"]
    else:
        record["bypassed"] = {name: metrics[name][0] for name in BYPASSED[workload]}
    result = {
        "correct": not runner.mismatches,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (WORK / f"result-{tag}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n", encoding="utf-8"
    )
    return record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_program():
        return 2
    record, result = run(args.workload, args.seed, args.seconds, args.trace)
    for line in record["mismatches"]:
        print(f"mismatch: {line}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
