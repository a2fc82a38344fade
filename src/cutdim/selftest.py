"""Seeded property suites checking the toolkit against brute force.

Everything here runs on small boxed pure-integer instances whose
feasible sets can be enumerated outright, so every answer the oracle
machinery produces has an independently computed ground truth.  The
suites back the `selftest` command and, run on larger corpora, the
acceptance tests; the instance and cut generators are also reused by the
test suite and the benchmark corpus.
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
from .config import RunConfig
from .hull import affine_hull
from .linalg import affine_rank, dot, int_scale, scaled_row
from .model import Inequality, MipInstance, build_instance
from .oracle import BruteForceOracle, enumerate_lattice, make_provider
from .rational import rat
from .solver import SolveOptions, SolveStatus, program_for, solve_mip


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
            rhs.append(int(rat(sum(row) * box_hi, 2)) + rng.randint(-2, box_hi))
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

    def check(self, holds: bool, failure: str) -> None:
        if not holds:
            self.failures.append(failure)

    def line(self) -> str:
        status = "ok" if self.ok else "FAILED"
        extra = "" if self.ok else f" ({len(self.failures)} failures)"
        return f"{self.name}: {status} [{self.rounds} rounds]{extra}"


# Every suite draws its whole corpus from its seed, so a seed and the
# size arguments name the corpus exactly.  `cutdim selftest` runs the
# defaults; the acceptance tests run the same suites on larger corpora.


def suite_query_count(seed: int, rounds: int = 25) -> SuiteResult:
    """Cold affine hull runs take exactly 2n queries on bounded nonempty sets."""
    rng = random.Random(seed)
    result = SuiteResult("query-count", rounds)
    for i in range(rounds):
        inst = random_instance(rng, name=f"qc{i}")
        n = inst.num_vars
        hull = affine_hull(BruteForceOracle(inst))  # no cache anywhere
        result.check(hull.oracle_queries == 2 * n,
                     f"round {i}: {hull.oracle_queries} queries, wanted {2 * n}")
        result.check(hull.cache_hits == 0, f"round {i}: {hull.cache_hits} cache hits on a cold run")
        result.check(len(hull.points) + len(hull.equations) == n + 1,
                     f"round {i}: |X|+|D| = {len(hull.points) + len(hull.equations)} != {n + 1}")
    return result


def suite_dimension(seed: int, rounds: int = 20) -> SuiteResult:
    """Solver-backed hull dimension equals the enumerated affine rank."""
    rng = random.Random(seed)
    result = SuiteResult("dimension", rounds)
    for i in range(rounds):
        inst = random_instance(rng, name=f"dim{i}", require_nonempty=False)
        truth = affine_rank(enumerate_lattice(inst))
        hull = affine_hull(make_provider(inst, time_limit=None))
        result.check(hull.dimension == truth, f"round {i}: dim {hull.dimension}, rank says {truth}")
    return result


def suite_classification(
    seed: int, rounds: int = 8, max_vars: int = 4, cuts_per: int = 3
) -> SuiteResult:
    """Base dimensions, cut verdicts and face dimensions match enumeration.

    Instance i draws its cuts from its own generator, seeded seed + 7i.
    """
    rng = random.Random(seed)
    tolerance = RunConfig.tolerance
    result = SuiteResult("classification", rounds * cuts_per)
    for i in range(rounds):
        inst = random_instance(rng, max_vars=max_vars, name=f"cls{i}")
        points = enumerate_lattice(inst)
        provider = make_provider(inst, time_limit=None)
        base, truth = affine_hull(provider), affine_rank(points)
        result.check(base.dimension == truth, f"round {i}: dim {base.dimension}, rank says {truth}")
        cut_rng = random.Random(seed + 7 * i)
        for j in range(cuts_per):
            offset = cut_rng.choice((-1, 0, 1))
            cut = random_cut(cut_rng, points, inst.num_vars, offset, label=f"c{j}")
            got = classify_cut(provider, cut, base=base, tolerance=tolerance)
            want_verdict, want_dim = lattice_classification(points, got.cut, tolerance)
            if got.verdict is not want_verdict:
                result.failures.append(
                    f"round {i}.{j}: verdict {got.verdict.value}, wanted {want_verdict.value}"
                )
            elif want_verdict is Verdict.SUPPORTING:
                result.check(got.face_dimension == want_dim,
                             f"round {i}.{j}: face dim {got.face_dimension}, wanted {want_dim}")
    return result


def suite_solver(seed: int, rounds: int = 40, max_vars: int = 6) -> SuiteResult:
    """Branch-and-bound optima agree with enumeration, with and without a
    seeded incumbent; dual bound traces never rise."""
    rng = random.Random(seed)
    result = SuiteResult("solver", rounds)
    for i in range(rounds):
        inst = random_instance(rng, max_vars=max_vars, name=f"sol{i}", require_nonempty=False)
        points = enumerate_lattice(inst)
        res = solve_mip(inst)
        if not points:
            result.check(res.status is SolveStatus.INFEASIBLE,
                         f"round {i}: {res.status.value} on an empty set")
            continue
        ints, den = int_scale(inst.objective)
        truth = rat(max(dot(ints, p) for p in points), den)
        result.check(res.status is SolveStatus.OPTIMAL and res.primal_value == truth,
                     f"round {i}: {res.status.value} value {res.primal_value}, wanted {truth}")
        result.check(res.best_point is not None and inst.is_feasible_point(res.best_point),
                     f"round {i}: optimum {res.best_point} is not a feasible point")
        bounds = [b for _, b in res.trace]
        result.check(all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:])),
                     f"round {i}: dual trace not monotone")
        # a seeded run keeps at least its incumbent and still finds the optimum;
        # truth is the maximum over all points, so equality covers both
        incumbent = points[rng.randrange(len(points))]
        seeded = solve_mip(inst, options=SolveOptions(incumbent=incumbent))
        result.check(seeded.primal_value == truth,
                     f"round {i}: seeded with {dot(inst.objective, incumbent)}, "
                     f"value {seeded.primal_value}, wanted {truth}")
    return result


def suite_histogram(
    seed: int, rounds: int = 40, max_instances: int = 6, max_dim: int = 8
) -> SuiteResult:
    """Bin boundaries and exact unit mass of the dimension histogram."""
    rng = random.Random(seed)
    result = SuiteResult("histogram", rounds)
    fixed = [
        ((-1, 7), "empty"),
        ((7, 7), "inf"),
        ((6, 7), "100%"),
        ((3, 7), "[50%,55%)"),
        ((20, 41), "[50%,55%)"),  # 20/40 is exactly one half
        ((0, 5), "[0%,5%)"),
    ]
    for (k, d), want in fixed:
        got = relative_dimension_bin(k, d).label
        result.check(got == want, f"bin({k},{d}) = {got}, wanted {want}")
    for i in range(rounds):
        items = []
        for _ in range(rng.randint(1, max_instances)):
            d = rng.randint(0, max_dim)
            items.append((d, [rng.randint(-1, d) for _ in range(rng.randint(1, 5))]))
        total = sum(w for _, w in build_histogram(items))
        result.check(total == 1, f"round {i}: weights sum to {total}")
    return result


def suite_impact(seed: int, rounds: int = 5, max_vars: int = 4) -> SuiteResult:
    """Closed gaps exist, lie in [0,1], repeat exactly, match a raw solver
    trace at the node budget and never fall along a cut's run."""
    rng = random.Random(seed)
    result = SuiteResult("impact", rounds)
    for i in range(rounds):
        inst = random_instance(rng, max_vars=max_vars, name=f"imp{i}")
        points = enumerate_lattice(inst)
        cuts = [
            random_cut(rng, points, inst.num_vars, rng.choice((0, 1)), label=f"c{j}")
            for j in range(3)
        ]
        report = impact_protocol(inst, cuts, time_limit=None)
        result.check(impact_protocol(inst, cuts, time_limit=None) == report,
                     f"round {i}: repeated runs differ")
        for rec in (report.baseline, *report.runs):
            result.check(rec.gap is not None and 0 <= rec.gap <= 1,
                         f"round {i}: {rec.label or 'baseline'} gap {rec.gap} outside [0,1]")

        def gap(z):
            return closed_gap(z, report.z_lp, report.z_star)

        result.check(report.baseline.gap == gap(report.baseline.z_at_budget),
                     f"round {i}: baseline gap mismatch")
        raw = solve_mip(inst, options=SolveOptions(incumbent=report.optimum))
        result.check(report.baseline.gap == gap(raw.trace[report.node_budget - 1][1]),
                     f"round {i}: baseline gap not reproduced by a raw solver run")
        for cut in cuts:
            row = scaled_row(cut.coefficients, cut.rhs)
            run = solve_mip(inst, options=SolveOptions(incumbent=report.optimum),
                            program=program_for(inst, cuts=(row,)))
            gaps = [gap(z) for _, z in run.trace]
            result.check(all(a <= b for a, b in zip(gaps, gaps[1:])),
                         f"round {i}: closed gap falls along {cut.label}'s run")
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
        try:
            outcome = suite(seed)
        except Exception as exc:  # a crash is that suite's failure, not the run's
            name = suite.__name__.removeprefix("suite_").replace("_", "-")
            outcome = SuiteResult(name, 0, [f"raised {type(exc).__name__}: {exc}"])
        results.append(outcome)
        if report is not None:
            report(outcome.line())
            for failure in outcome.failures:
                report(f"  {failure}")
    return results
