"""Seeded property suites checking the toolkit against brute force.

Everything here runs on small boxed pure-integer instances whose
feasible sets can be enumerated outright, so every answer the oracle
machinery produces has an independently computed ground truth.  The
suites back the `selftest` command; the instance and cut generators are
also reused by the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .analysis import (
    Verdict,
    build_histogram,
    classify_cut,
    closed_gap,
    impact_protocol,
    relative_dimension_bin,
)
from .hull import affine_hull
from .linalg import affine_rank, dot
from .model import Inequality, MipInstance, build_instance, normalize_cut
from .oracle import BruteForceOracle, enumerate_lattice, make_provider
from .rational import rat
from .solver import SolveStatus, solve_mip


def random_instance(
    rng: random.Random,
    min_vars: int = 2,
    max_vars: int = 6,
    coeff_lo: int = -5,
    coeff_hi: int = 5,
    box_hi: int = 3,
    max_rows: int = 4,
    name: str = "random",
    require_nonempty: bool = True,
) -> MipInstance:
    """Random bounded pure-integer program on the box [0, box_hi]^n.

    Right-hand sides are drawn around the box midpoint's row activity,
    which keeps a healthy mix of full-dimensional, flat, and (unless
    rejected) empty feasible sets.
    """
    while True:
        n = rng.randint(min_vars, max_vars)
        m = rng.randint(1, max_rows)
        rows = [
            [rng.randint(coeff_lo, coeff_hi) for _ in range(n)] for _ in range(m)
        ]
        rhs = []
        for row in rows:
            mid = sum(row) * box_hi / 2
            rhs.append(int(mid) + rng.randint(-2, box_hi))
        inst = build_instance(
            name=name,
            constraint_matrix=rows,
            rhs=rhs,
            objective=[rng.randint(coeff_lo, coeff_hi) for _ in range(n)],
            integer_vars=range(n),
            lower_bounds=[0] * n,
            upper_bounds=[box_hi] * n,
        )
        if not require_nonempty or enumerate_lattice(inst):
            return inst


def random_cut(
    rng: random.Random,
    points: Sequence,
    n: int,
    offset: int,
    coeff_lo: int = -5,
    coeff_hi: int = 5,
    label: str = "cut",
) -> Inequality:
    """Random inequality with rhs = (true max over points) + offset."""
    a = [rng.randint(coeff_lo, coeff_hi) for _ in range(n)]
    beta_true = max(dot(a, p) for p in points)
    return Inequality(a, beta_true + offset, label=label)


def lattice_classification(points: Sequence, cut: Inequality, tolerance) -> tuple:
    """(verdict, face dimension) of a cut by exhaustive search.

    Invalid: some feasible point violates the cut beyond the tolerance
    (a violating-point search, no optimization involved).  Supporting:
    the face of the tightened cut is the affine hull of the on-face
    points.  Face dimension is None except for supporting cuts.
    """
    tolerance = rat(tolerance)
    values = [dot(cut.coefficients, p) for p in points]
    beta_true = max(values)
    if beta_true - cut.rhs > tolerance:
        return Verdict.INVALID, None
    if beta_true - cut.rhs < -tolerance:
        return Verdict.NON_SUPPORTING, None
    on_face = [p for p, v in zip(points, values) if v == beta_true]
    return Verdict.SUPPORTING, affine_rank(on_face)


@dataclass
class SuiteResult:
    name: str
    rounds: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "ok" if self.ok else "FAILED"
        extra = "" if self.ok else f" ({len(self.failures)} failures)"
        return f"{self.name}: {status} [{self.rounds} rounds]{extra}"


def suite_query_count(rng: random.Random, rounds: int = 25) -> SuiteResult:
    """Cold affine hull runs take exactly 2n queries on bounded nonempty sets."""
    result = SuiteResult("query-count", rounds)
    for i in range(rounds):
        inst = random_instance(rng, name=f"qc{i}")
        n = inst.num_vars
        provider = BruteForceOracle(inst)
        hull = affine_hull(provider)
        if hull.oracle_queries != 2 * n:
            result.failures.append(f"round {i}: {hull.oracle_queries} queries, wanted {2 * n}")
        if len(hull.points) + len(hull.equations) != n + 1:
            result.failures.append(f"round {i}: |X|+|D| = "
                                   f"{len(hull.points) + len(hull.equations)} != {n + 1}")
    return result


def suite_dimension(rng: random.Random, rounds: int = 20) -> SuiteResult:
    """Solver-backed hull dimension equals the enumerated affine rank."""
    result = SuiteResult("dimension", rounds)
    for i in range(rounds):
        inst = random_instance(rng, name=f"dim{i}", require_nonempty=False)
        truth = affine_rank(enumerate_lattice(inst))
        hull = affine_hull(make_provider(inst, "solver", time_limit=None))
        if hull.dimension != truth:
            result.failures.append(f"round {i}: dim {hull.dimension}, rank says {truth}")
    return result


def suite_classification(rng: random.Random, rounds: int = 8, cuts_per: int = 3) -> SuiteResult:
    """Verdicts and face dimensions match exhaustive classification."""
    result = SuiteResult("classification", rounds * cuts_per)
    for i in range(rounds):
        inst = random_instance(rng, max_vars=4, name=f"cls{i}")
        points = enumerate_lattice(inst)
        provider = make_provider(inst, "solver", time_limit=None)
        base = affine_hull(provider)
        for j in range(cuts_per):
            cut = random_cut(rng, points, inst.num_vars, rng.choice((-1, 0, 1)))
            want_verdict, want_dim = lattice_classification(points, normalize_cut(cut), rat(1, 10000))
            got = classify_cut(provider, cut, base=base)
            if got.verdict is not want_verdict:
                result.failures.append(
                    f"round {i}.{j}: verdict {got.verdict.value}, wanted {want_verdict.value}"
                )
            elif want_verdict is Verdict.SUPPORTING and got.face_dimension != want_dim:
                result.failures.append(
                    f"round {i}.{j}: face dim {got.face_dimension}, wanted {want_dim}"
                )
    return result


def suite_solver(rng: random.Random, rounds: int = 40) -> SuiteResult:
    """Branch-and-bound optima agree with enumeration; traces behave."""
    result = SuiteResult("solver", rounds)
    for i in range(rounds):
        inst = random_instance(rng, name=f"sol{i}", require_nonempty=False)
        points = enumerate_lattice(inst)
        res = solve_mip(inst)
        if not points:
            if res.status is not SolveStatus.INFEASIBLE:
                result.failures.append(f"round {i}: {res.status.value} on an empty set")
            continue
        truth = max(dot(inst.objective, p) for p in points)
        if res.status is not SolveStatus.OPTIMAL or res.primal_value != truth:
            result.failures.append(f"round {i}: value {res.primal_value}, wanted {truth}")
            continue
        bounds = [b for _, b in res.trace]
        if any(b2 > b1 for b1, b2 in zip(bounds, bounds[1:])):
            result.failures.append(f"round {i}: dual trace not monotone")
    return result


def suite_histogram(rng: random.Random, rounds: int = 40) -> SuiteResult:
    """Bin boundaries and exact unit mass of the dimension histogram."""
    result = SuiteResult("histogram", rounds)
    fixed = [
        ((-1, 7), "empty"),
        ((7, 7), "inf"),
        ((6, 7), "100%"),
        ((3, 7), "[50%,55%)"),
        ((0, 5), "[0%,5%)"),
    ]
    for (k, d), want in fixed:
        got = relative_dimension_bin(k, d).label
        if got != want:
            result.failures.append(f"bin({k},{d}) = {got}, wanted {want}")
    for i in range(rounds):
        items = []
        for _ in range(rng.randint(1, 6)):
            d = rng.randint(0, 8)
            items.append((d, [rng.randint(-1, d) for _ in range(rng.randint(1, 5))]))
        total = sum(w for _, w in build_histogram(items))
        if total != 1:
            result.failures.append(f"round {i}: weights sum to {total}")
    return result


def suite_impact(rng: random.Random, rounds: int = 5) -> SuiteResult:
    """Closed gaps stay in [0,1] and the protocol is deterministic."""
    result = SuiteResult("impact", rounds)
    for i in range(rounds):
        inst = random_instance(rng, max_vars=4, name=f"imp{i}")
        points = enumerate_lattice(inst)
        cuts = [
            random_cut(rng, points, inst.num_vars, rng.choice((0, 1)), label=f"c{j}")
            for j in range(3)
        ]
        first = impact_protocol(inst, cuts, time_limit=None)
        second = impact_protocol(inst, cuts, time_limit=None)
        for rec in (first.baseline, *first.runs):
            if rec.gap is not None and not 0 <= rec.gap <= 1:
                result.failures.append(f"round {i}: gap {rec.gap} outside [0,1]")
        if first != second:
            result.failures.append(f"round {i}: repeated runs differ")
        recomputed = closed_gap(first.baseline.z_at_budget, first.z_lp, first.z_star)
        if first.baseline.gap != recomputed:
            result.failures.append(f"round {i}: baseline gap mismatch")
    return result


ALL_SUITES: tuple = (
    suite_query_count,
    suite_dimension,
    suite_classification,
    suite_solver,
    suite_histogram,
    suite_impact,
)


def run_all(seed: int, report: Optional[Callable[[str], None]] = None) -> list[SuiteResult]:
    results = []
    for suite in ALL_SUITES:
        outcome = suite(random.Random(seed))
        results.append(outcome)
        if report is not None:
            report(outcome.line())
            for failure in outcome.failures:
                report(f"  {failure}")
    return results
