"""Check one benchmark run against the committed BENCH_*.json records.

    python3 .github/bench_gate.py answers WORKLOAD SEED OUT
    python3 .github/bench_gate.py counts WORKLOAD SEED OUT

OUT holds what `perfbench/run.py --workload WORKLOAD --seed SEED
--seconds 0` printed, untraced (`--trace 0`) for `answers` and traced
(`--trace 1`) for `counts`.  run.py exits 0 whatever its gate says, so
both modes first read its last line, which must say every job was
answered correctly and none failed.  Then:

- `answers`: the record line before it must carry the answers_sha256
  that the newest BENCH_*.json holding a change record for this workload
  and seed records (a parent record may hold answers changed on purpose);
- `counts`: answers_sha256 cannot see how an answer was reached; these
  counts can.  Every metric whose unit is count or bytes in the newest
  BENCH_*.json holding a traced change record for this workload and seed
  must equal the value that record holds.

BENCH files are looked up in the working directory.  A failed check
exits with a message naming the workload and seed.
"""

import json
import re
import sys
from pathlib import Path


def newest_records(match):
    """The BENCH file with the highest number that holds records `match`
    accepts, and those records; (None, []) when no file does."""
    benches = sorted(Path().glob("BENCH_*.json"), key=lambda p: -int(re.sub(r"\D", "", p.name)))
    for path in benches:
        records = [r for r in json.loads(path.read_text(encoding="utf-8"))["records"] if match(r)]
        if records:
            return path, records
    return None, []


def gate(mode, workload, seed, lines):
    """Check run.py's output `lines`; return a line to print, or exit
    with the failure."""
    result = json.loads(lines[-1])
    where = f"{workload} seed {seed}" + (" traced" if mode == "counts" else "")
    if not (result["correct"] and result["failed"] == 0):
        sys.exit(f"{where}: {result}")
    if mode == "answers":
        record = json.loads(lines[-2])["record"]
        path, records = newest_records(
            lambda r: (r["workload"], r["seed"], r.get("side")) == (workload, seed, "change")
        )
        if not records:
            sys.exit(f"{where}: no BENCH_*.json holds a change record for this workload and seed")
        want = {r["answers_sha256"] for r in records}
        if want != {record["answers_sha256"]}:
            sys.exit(f"{where}: answers_sha256 {record['answers_sha256']}, {path.name} records {sorted(want)}")
        return ""
    path, records = newest_records(
        lambda r: (r["workload"], r["seed"], r["trace"], r.get("side")) == (workload, seed, 1, "change")
    )
    if not records:
        sys.exit(f"{where}: no BENCH_*.json holds a traced change record for it")
    want = [
        {name: m["value"] for name, m in r["metrics"].items() if m["unit"] in ("count", "bytes")}
        for r in records
    ]
    if not all(want):
        sys.exit(f"{where}: {path.name} records no count or byte metric")
    got = {name: result["metrics"][name]["value"] for w in want for name in w}
    moved = {name: (got[name], w[name]) for w in want for name in w if got[name] != w[name]}
    if moved:
        sys.exit(f"{where}: counts (this run, {path.name}) differ: {moved}")
    return f"{where}: counts equal {path.name}"


if __name__ == "__main__":
    mode, workload, seed, out = sys.argv[1:]
    if mode not in ("answers", "counts"):
        sys.exit(f"unknown mode {mode!r}: answers or counts")
    text = gate(mode, workload, int(seed), Path(out).read_text(encoding="utf-8").splitlines())
    if text:
        print(text)
