"""Correctness gate: every CLI answer against lattice enumeration.

The expected answers come from the feasible points the corpus
enumerated in plain integers: dim(P) from `linalg.affine_rank`, each
verdict and supporting face dimension from
`selftest.lattice_classification`, each beta_true and z* from an
integer argmax.  The CLI output is parsed from the files and text the
program writes, so the gate sees what a user sees.  Each check returns
the list of mismatches (empty when every answer is right) and the
number of cuts the program itself reported as failed (timeouts, short
traces).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from cutdim.linalg import affine_rank
from cutdim.model import normalize_cut
from cutdim.selftest import lattice_classification

from corpus import Job, int_max

TOLERANCE = Fraction(1, 10000)  # the CLI default


@dataclass(frozen=True)
class ExpectedCut:
    label: str
    verdict: str
    beta_true: Fraction  # of the cut scaled to max-norm 1, as the CLI reports it
    face_dimension: Optional[int]  # supporting cuts only


@dataclass(frozen=True)
class Expected:
    dimension: int
    z_star: int
    cuts: tuple


def hull_dimension(points, n: int) -> int:
    """affine_rank of the points, trying a spread-out sample first.

    A sample of rank n already proves dimension n, which spares the
    exact elimination over thousands of points for full-dimensional sets.
    """
    step = max(1, len(points) // (4 * (n + 1)))
    if affine_rank(points[::step]) == n:
        return n
    return affine_rank(points)


def expect(job: Job) -> Expected:
    points = job.points
    if not points:
        raise ValueError(f"{job.name}: the corpus must hold nonempty instances only")
    cuts = []
    for cut in job.cuts:
        # Only the maximizers of a.x decide the verdict and the face, so
        # they are picked in integers and lattice_classification (exact
        # rationals, slow) sees just those: same answer, far less work.
        a = [int(c) for c in cut.coefficients]
        values = [sum(c * x for c, x in zip(a, p)) for p in points]
        top = max(values)
        face = [p for p, v in zip(points, values) if v == top]
        verdict, face_dim = lattice_classification(face, normalize_cut(cut), TOLERANCE)
        scale = max(abs(c) for c in a) or 1
        cuts.append(ExpectedCut(cut.label, verdict.value, Fraction(top, scale), face_dim))
    return Expected(
        dimension=hull_dimension(points, job.instance.num_vars),
        z_star=int_max(job.instance.objective, points),
        cuts=tuple(cuts),
    )


def _exact(text) -> Optional[Fraction]:
    return None if text is None else Fraction(text)


def check_classify(job: Job, want: Expected, report_text: str) -> tuple:
    """Mismatches and failed-cut count of one `cutdim classify` report."""
    doc = json.loads(report_text)
    bad = []
    if doc["dimension"] != want.dimension:
        bad.append(f"{job.name}: dim {doc['dimension']}, enumeration says {want.dimension}")
    entries = doc["cuts"]
    if [e["label"] for e in entries] != [c.label for c in want.cuts]:
        return bad + [f"{job.name}: report lists other cuts than the cut file"], 0
    failed = 0
    for got, cut in zip(entries, want.cuts):
        where = f"{job.name}/{cut.label}"
        if got["failure"]:
            failed += 1
            continue
        if got["verdict"] != cut.verdict:
            bad.append(f"{where}: verdict {got['verdict']}, wanted {cut.verdict}")
        elif _exact(got["beta_true"]) != cut.beta_true:
            bad.append(f"{where}: beta_true {got['beta_true']}, wanted {cut.beta_true}")
        elif cut.verdict == "supporting" and got["face_dimension"] != cut.face_dimension:
            bad.append(
                f"{where}: face dim {got['face_dimension']}, wanted {cut.face_dimension}"
            )
    return bad, failed


def parse_impact(stdout: str) -> tuple:
    """(z*, z_lp, N, rows) from the table `cutdim impact` prints.

    Each row is (label, status, nodes, closed gap or None, flag).
    """
    lines = stdout.splitlines()
    head = lines[0].split(": ", 1)[1]
    fields = dict(part.split(" = ") for part in head.split(", "))
    rows = []
    for line in lines[2:]:
        tokens = line.split()
        label, status, nodes = tokens[0], tokens[1], int(tokens[2])
        if tokens[3] == "-":
            gap, rest = None, tokens[4:]
        else:
            gap, rest = Fraction(tokens[3]), tokens[5:]
        rows.append((label, status, nodes, gap, rest[0] if rest else ""))
    return (
        Fraction(fields["z*"]),
        Fraction(fields["z_lp"]),
        int(fields["node budget N"]),
        rows,
    )


def check_impact(job: Job, want: Expected, stdout: str) -> tuple:
    """Mismatches and failed-cut count of one `cutdim impact` table.

    z* must equal the enumerated optimum and z_lp its closed form; every
    closed gap lies in [0, 1]; and some enumerated optimum must violate
    exactly the cuts flagged invalid-cut, since the flag means "violated
    at the reported optimum".
    """
    z_star, z_lp, budget, rows = parse_impact(stdout)
    bad = []
    if z_star != want.z_star:
        bad.append(f"{job.name}: z* {z_star}, enumeration says {want.z_star}")
    if job.lp_value is not None and z_lp != job.lp_value:
        bad.append(f"{job.name}: z_lp {z_lp}, wanted {job.lp_value}")
    if budget < 1:
        bad.append(f"{job.name}: node budget {budget}")
    if [r[0] for r in rows] != ["(baseline)"] + [c.label for c in job.cuts]:
        return bad + [f"{job.name}: table lists other runs than the cut file"], 0
    failed = 0
    for label, status, _, gap, flag in rows:
        if flag == "short-trace":
            failed += 1
        if gap is None and flag == "":
            bad.append(f"{job.name}/{label}: no closed gap and no flag")
        if gap is not None and not 0 <= gap <= 1:
            bad.append(f"{job.name}/{label}: closed gap {gap} outside [0, 1]")
        if (flag == "invalid-cut") != (status == "skipped"):
            bad.append(f"{job.name}/{label}: status {status} with flag {flag!r}")
    flagged = [flag == "invalid-cut" for _, _, _, _, flag in rows[1:]]
    obj = [int(c) for c in job.instance.objective]
    optima = [p for p in job.points if sum(c * x for c, x in zip(obj, p)) == want.z_star]
    if not any(flagged == [_violates(cut, p) for cut in job.cuts] for p in optima):
        bad.append(f"{job.name}: no optimum violates exactly the cuts flagged invalid-cut")
    return bad, failed


def _violates(cut, point) -> bool:
    return sum(int(c) * x for c, x in zip(cut.coefficients, point)) > cut.rhs
