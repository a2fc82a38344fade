"""Cut classification, strength measurement, and dimension histograms.

A cut a.x <= beta against a mixed-integer hull P falls into one of
three classes, decided by one oracle query for beta_true = max{a.x : P}:

  invalid         beta < beta_true - tol   (cuts off feasible points)
  non-supporting  beta > beta_true + tol   (valid but touches nothing)
  supporting      otherwise; beta is replaced by beta_true and the cut
                  induces the face F = {x in P : a.x = beta_true}

The tolerance band absorbs the float noise cuts carry when they come
out of numerical separators; inside the band the cut is treated as
supporting at the exact beta_true.

Cut strength is measured by closed gap under a fixed node budget: solve
the instance once per cut with the cut added, the true optimum as
incumbent, and read every run's dual bound at N, the smallest node
count any run needed.  The closed gap is (z_N - z_lp) / (z_star - z_lp),
1 when the root relaxation is already tight.  The reference solve for
the optimum, the root relaxation and the run without a cut share one
compiled LP (`simplex.LinearProgram`), so no LP is solved twice among
them.

Face dimensions aggregate into a histogram over relative dimension
k/(dim P - 1) with three sentinel bins: empty face, dimension exactly
dim P - 1, and the whole polytope (k = dim P, only when the face
equation was already implied).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .config import RunConfig
from .hull import (
    AffineHullResult,
    EquationSystem,
    HullInterrupted,
    affine_hull,
    face_hull,
)
from .linalg import Vector, dot, scaled_row
from .model import Inequality, MipInstance, evaluate, normalize_cut
from .oracle import (
    Infeasible,
    OracleInconclusive,
    Unbounded,
    make_provider,
    oracle_maximize,
)
from .rational import rat, rat_ceil
from .simplex import LPStatus
from .solver import SolveOptions, SolveStatus, program_for, solve_lp_relaxation, solve_mip

class Verdict(Enum):
    INVALID = "invalid"
    NON_SUPPORTING = "non-supporting"
    SUPPORTING = "supporting"


class AnalysisError(RuntimeError):
    pass


@dataclass(frozen=True)
class CutClassification:
    cut: Inequality  # the normalized form that was classified
    verdict: Verdict
    beta_true: object  # rational; +inf when a is unbounded over P; -inf when P is empty
    gap_to_true: object  # beta_true - beta, same conventions
    tightened: Optional[Inequality] = None  # supporting only: rhs = beta_true
    face_dimension: Optional[int] = None
    certificate: Optional[Vector] = None  # invalid only: feasible point cut off
    face_result: Optional[AffineHullResult] = None

    @property
    def is_degenerate(self) -> bool:
        return all(c == 0 for c in self.cut.coefficients)


def compute_beta_true(provider, coefficients: Sequence):
    """max{a.x : x in P} with sentinels: -inf empty, +inf unbounded.

    Returns (value, point, ray): the maximizer, or the unbounded
    answer's witness and ray; None for what the answer lacks.
    """
    response = oracle_maximize(provider, coefficients)
    if isinstance(response, Infeasible):
        return -math.inf, None, None
    if isinstance(response, Unbounded):
        return math.inf, response.witness, response.ray
    return response.value, response.point, None


def classify_cut(
    provider,
    cut: Inequality,
    base: Optional[AffineHullResult] = None,
    tolerance=RunConfig.tolerance,
    face_time_budget: Optional[float] = RunConfig.face_time_budget,
) -> CutClassification:
    """Classify one cut against the provider's feasible set P.

    `base` (the affine hull result for P) is required to compute face
    dimensions; without it a supporting verdict is returned with
    face_dimension left as None.  One oracle query decides the verdict;
    supporting cuts spend further queries on the face run, which probes
    the provider's cache.  Zero coefficient rows are decided by the sign
    of beta alone, query free.
    """
    tolerance = rat(tolerance)
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
    cut = normalize_cut(cut)
    a, beta = cut.coefficients, cut.rhs

    if all(c == 0 for c in a):
        # 0.x <= beta needs no oracle: it holds everywhere or nowhere
        if beta < 0:
            return CutClassification(cut, Verdict.INVALID, rat(0), -beta)
        if beta > 0:
            return CutClassification(cut, Verdict.NON_SUPPORTING, rat(0), -beta)
        return CutClassification(
            cut,
            Verdict.SUPPORTING,
            rat(0),
            rat(0),
            tightened=cut,
            face_dimension=None if base is None else base.dimension,
        )

    beta_true, point, ray = compute_beta_true(provider, a)

    if beta_true == -math.inf:
        # P is empty: every cut is vacuously valid and touches nothing
        return CutClassification(
            cut, Verdict.NON_SUPPORTING, beta_true, -math.inf, face_dimension=-1
        )
    if beta_true == math.inf:
        certificate = _violating_point(a, beta, point, ray)
        return CutClassification(
            cut, Verdict.INVALID, beta_true, math.inf, certificate=certificate
        )

    diff = beta_true - beta
    if diff > tolerance:
        return CutClassification(cut, Verdict.INVALID, beta_true, diff, certificate=point)
    if diff < -tolerance:
        return CutClassification(cut, Verdict.NON_SUPPORTING, beta_true, diff)

    tightened = dataclasses.replace(cut, rhs=beta_true)
    face_dimension = None
    face_result = None
    if base is not None:
        face_result = face_hull(provider, base, tightened, time_budget=face_time_budget)
        face_dimension = face_result.dimension
    return CutClassification(
        cut,
        Verdict.SUPPORTING,
        beta_true,
        diff,
        tightened=tightened,
        face_dimension=face_dimension,
        face_result=face_result,
    )


def _violating_point(a, beta, witness, ray) -> Vector:
    """Walk the ray far enough that the cut is violated by at least 1."""
    rate = dot(a, ray)
    if rate <= 0:
        raise AnalysisError("certificate ray does not violate the cut")
    start = dot(a, witness)
    steps = max(1, rat_ceil(rat(beta + 1 - start, rate)))
    return tuple(w + steps * r for w, r in zip(witness, ray))


def closed_gap(z_budget, z_lp, z_star):
    """Fraction of the root gap closed at the node budget, in [0, 1]."""
    if z_star == z_lp:
        return rat(1)
    if not (z_star <= z_budget <= z_lp):
        raise AnalysisError(
            f"dual bound {z_budget} outside [{z_star}, {z_lp}]: solver soundness bug"
        )
    return rat(z_budget - z_lp, z_star - z_lp)


@dataclass(frozen=True)
class RunRecord:
    """One solver run of the impact protocol."""

    label: str
    category: str
    solve_status: str
    nodes: int
    z_at_budget: object  # dual bound read at the node budget
    gap: object  # closed gap in [0,1]; None when the run was skipped
    flag: str  # "" | "invalid-cut" | "short-trace"


@dataclass(frozen=True)
class ImpactReport:
    instance: str
    z_star: object
    z_lp: object
    optimum: Vector
    node_budget: int
    baseline: RunRecord
    runs: tuple  # one RunRecord per cut, input order


def impact_protocol(
    inst: MipInstance,
    cuts: Sequence[Inequality],
    node_limit: Optional[int] = RunConfig.impact_node_limit,
    time_limit: Optional[float] = RunConfig.solve_time_limit,
) -> ImpactReport:
    """Closed-gap strength measurement for a batch of cuts.

    Runs the solver once without a cut and once per cut, each run seeded
    with the true optimum as incumbent, then reads all dual bounds at
    the smallest node count any completed run needed.  Cuts that cut off
    the optimum are flagged invalid-cut and skipped; runs stopped by the
    time limit before the budget are flagged short-trace and read at
    their last node.  The reference solve for the optimum has the same
    time limit and no node limit; if it stops short, AnalysisError.

    The reference solve, z_lp (its root LP) and the baseline run solve
    the same rows and objective, so they share one compiled program, and
    an LP one of them solved is not solved again.
    """
    if node_limit is not None and node_limit < 1:
        raise ValueError("node_limit must be at least 1")
    program = program_for(inst)
    full = solve_mip(inst, options=SolveOptions(time_limit=time_limit), program=program)
    if full.status is not SolveStatus.OPTIMAL:
        raise AnalysisError(f"reference solve ended {full.status.value}, not optimal")
    z_star, x_star = full.primal_value, full.best_point

    relax = solve_lp_relaxation(inst, program)
    if relax.status is not LPStatus.OPTIMAL:
        raise AnalysisError("relaxation not optimal although the instance is")
    z_lp = relax.value

    options = SolveOptions(incumbent=x_star, node_limit=node_limit, time_limit=time_limit)
    results = [("", "", solve_mip(inst, options=options, program=program))]
    for cut in cuts:
        if evaluate(cut, x_star) > 0:
            results.append((cut.label, cut.category, None))
            continue
        row = scaled_row(cut.coefficients, cut.rhs)
        run = solve_mip(inst, options=options, program=program_for(inst, cuts=(row,)))
        results.append((cut.label, cut.category, run))

    completed = [
        r.node_count
        for _, _, r in results
        if r is not None and r.status in (SolveStatus.OPTIMAL, SolveStatus.NODE_LIMIT)
    ]
    if completed:
        budget = min(completed)
    else:
        budget = min(r.node_count for _, _, r in results if r is not None)
    budget = max(budget, 1)

    records = []
    for label, category, result in results:
        if result is None:
            records.append(RunRecord(label, category, "skipped", 0, None, None, "invalid-cut"))
            continue
        flag = ""
        if result.node_count >= budget:
            idx, z_budget = result.trace[budget - 1]
            if idx != budget:
                raise AnalysisError("trace does not enumerate nodes consecutively")
        elif result.trace:
            _, z_budget = result.trace[-1]
            flag = "short-trace"
        else:
            # stopped before even the root was solved; nothing to read
            records.append(
                RunRecord(label, category, result.status.value, 0, None, None, "short-trace")
            )
            continue
        gap = closed_gap(z_budget, z_lp, z_star)
        records.append(
            RunRecord(label, category, result.status.value, result.node_count, z_budget, gap, flag)
        )

    return ImpactReport(
        instance=inst.name,
        z_star=z_star,
        z_lp=z_lp,
        optimum=x_star,
        node_budget=budget,
        baseline=records[0],
        runs=tuple(records[1:]),
    )


@dataclass(frozen=True, order=True)
class DimensionBin:
    """One histogram bin, ordered empty < percent bands < full < whole."""

    index: int
    label: str = dataclasses.field(compare=False)

    @classmethod
    def empty_face(cls):
        return cls(-1, "empty")

    @classmethod
    def percent(cls, i: int):
        if not 0 <= i <= 19:
            raise ValueError(f"percent band index {i} out of range")
        return cls(i, f"[{5 * i}%,{5 * (i + 1)}%)")

    @classmethod
    def exactly_full(cls):
        return cls(20, "100%")

    @classmethod
    def whole_polytope(cls):
        return cls(21, "inf")


def relative_dimension_bin(k: int, d: int) -> DimensionBin:
    """Bin for a face of dimension k inside a polytope of dimension d.

    Sentinels first: k = -1 is the empty face (non-supporting cuts),
    k = d means the cut's hyperplane contains all of P.  A proper face
    of the largest possible dimension d-1 gets its own bin; remaining
    faces land in 5% bands of k/(d-1).
    """
    if d < 0:
        raise ValueError("histogram needs a nonempty polytope")
    if not -1 <= k <= d:
        raise ValueError(f"face dimension {k} impossible inside dimension {d}")
    if k == -1:
        return DimensionBin.empty_face()
    if k == d:
        return DimensionBin.whole_polytope()
    if k == d - 1:
        return DimensionBin.exactly_full()
    # now 0 <= k <= d-2, hence d >= 2 and k/(d-1) is in [0, 1)
    return DimensionBin.percent((20 * k) // (d - 1))


def binned_face_dimension(
    verdict: Optional[Verdict], degenerate: bool, face_dimension: Optional[int]
) -> Optional[int]:
    """The face dimension a cut adds to the histogram, None if it adds none.

    Failed (no verdict), invalid and degenerate cuts are out;
    non-supporting cuts count as the empty face (-1); a supporting cut
    without a computed face dimension cannot be binned and is skipped.
    """
    if verdict is None or verdict is Verdict.INVALID or degenerate:
        return None
    if verdict is Verdict.NON_SUPPORTING:
        return -1
    return face_dimension


def build_histogram(items: Sequence) -> list:
    """Aggregate (dim P, [face dims]) pairs into weighted bins.

    Every instance carries total weight 1/M and splits it evenly over
    its cuts, so the weights are exact rationals summing to one.
    Returns (bin, weight) pairs in bin order.
    """
    items = list(items)
    if not items:
        return []
    weights: dict[DimensionBin, object] = {}
    for d, face_dims in items:
        face_dims = list(face_dims)
        if not face_dims:
            raise ValueError("every instance needs at least one cut to histogram")
        share = rat(1, len(items) * len(face_dims))
        for k in face_dims:
            b = relative_dimension_bin(k, d)
            weights[b] = weights.get(b, rat(0)) + share
    return sorted(weights.items())


@dataclass(frozen=True)
class InstanceAnalysis:
    """Full pipeline output for one instance: hull, verdicts, strengths.

    `classifications` and `failures` are aligned with `cuts`; a failed
    cut has classification None and a nonempty failure reason.  The
    failure counters mirror the usual reporting split: timeouts and
    invalid cuts can happen, numerical breakdown cannot (exact
    arithmetic) and is carried only so reports keep the column.  Zero
    coefficient cuts sit in their own `degenerate` tally, outside both
    the analyzed and the failed counts.
    """

    name: str
    num_vars: int
    dimension: int
    equations: EquationSystem
    hull_queries: int
    hull_cache_hits: int
    cuts: tuple = ()
    classifications: tuple = ()
    failures: tuple = ()
    impact: Optional["ImpactReport"] = None
    impact_error: str = ""

    @property
    def analyzed_by_category(self) -> dict:
        counts: dict[str, int] = {}
        for cls in self.classifications:
            if cls is None or cls.verdict is Verdict.INVALID or cls.is_degenerate:
                continue
            key = cls.cut.category or "(none)"
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def analyzed_count(self) -> int:
        return sum(self.analyzed_by_category.values())

    @property
    def failed_timeout(self) -> int:
        return sum(1 for r in self.failures if r)

    @property
    def failed_invalid(self) -> int:
        return sum(
            1
            for cls in self.classifications
            if cls is not None and cls.verdict is Verdict.INVALID and not cls.is_degenerate
        )

    @property
    def failed_numerical(self) -> int:
        return 0

    @property
    def degenerate(self) -> int:
        # zero-row cuts: tallied apart, never analyzed and never binned
        return sum(1 for cls in self.classifications if cls is not None and cls.is_degenerate)

    def face_dimensions(self) -> list[int]:
        """Face dimensions of the cuts the histogram counts, in cut order."""
        dims = (
            binned_face_dimension(cls.verdict, cls.is_degenerate, cls.face_dimension)
            for cls in self.classifications
            if cls is not None
        )
        return [k for k in dims if k is not None]

    def histogram(self) -> list:
        dims = self.face_dimensions()
        if self.dimension < 0 or not dims:
            return []
        return build_histogram([(self.dimension, dims)])


def analyze_instance(
    inst: MipInstance,
    cuts: Sequence[Inequality] = (),
    config: Optional[RunConfig] = None,
    run_impact: bool = True,
) -> InstanceAnalysis:
    """Run the whole study pipeline on one instance.

    `config` (default `RunConfig()`) sets the engine, the tolerance, the
    limits of every hull, face and solve run, and `jobs`; its
    `solve_time_limit` caps each oracle solve and each impact run alike.
    Order: affine hull of P, then one classification per cut (face
    dimension included), then the strength protocol over all cuts.
    An interrupted base hull run is fatal (nothing downstream makes
    sense without dim P) and propagates HullInterrupted; per-cut
    interruptions are recorded as failures instead.

    Each cut gets its own provider whose cache starts as a copy of the
    hull run's and collects that cut's own points, so its face run can
    probe them, and results do not depend on `jobs` or on scheduling;
    with jobs > 1 the classifications run on worker threads.
    """
    config = RunConfig() if config is None else config
    config.validate()
    provider = make_provider(
        inst,
        config.engine,
        verify=config.verify_oracle,
        time_limit=config.solve_time_limit,
        node_limit=config.solve_node_limit,
    )
    cuts = tuple(normalize_cut(c) for c in cuts)

    base = affine_hull(provider, time_budget=config.hull_time_budget)

    def classify_one(cut: Inequality):
        try:
            cls = classify_cut(
                provider.with_cache(provider.cache.snapshot()),
                cut,
                base=base,
                tolerance=config.tolerance,
                face_time_budget=config.face_time_budget,
            )
            return cls, ""
        except HullInterrupted as exc:
            return None, (
                f"face run interrupted: dimension in "
                f"[{exc.dim_lower}, {exc.dim_upper}] after {exc.queries} queries"
            )
        except OracleInconclusive as exc:
            return None, f"oracle gave up: {exc}"

    if config.jobs > 1 and len(cuts) > 1:
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = list(pool.map(classify_one, cuts))
    else:
        outcomes = [classify_one(c) for c in cuts]
    classifications = tuple(cls for cls, _ in outcomes)
    failures = tuple(reason for _, reason in outcomes)

    impact = None
    impact_error = ""
    if run_impact and cuts:
        if base.dimension < 0:
            impact_error = "instance is infeasible; strength protocol needs an optimum"
        else:
            try:
                impact = impact_protocol(
                    inst,
                    cuts,
                    node_limit=config.impact_node_limit,
                    time_limit=config.solve_time_limit,
                )
            except AnalysisError as exc:
                impact_error = str(exc)

    return InstanceAnalysis(
        name=inst.name,
        num_vars=inst.num_vars,
        dimension=base.dimension,
        equations=base.equations,
        hull_queries=base.oracle_queries,
        hull_cache_hits=base.cache_hits,
        cuts=cuts,
        classifications=classifications,
        failures=failures,
        impact=impact,
        impact_error=impact_error,
    )
