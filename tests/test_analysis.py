import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutdim import analysis
from cutdim.analysis import (
    AnalysisError,
    DimensionBin,
    RunRecord,
    Verdict,
    analyze_instance,
    build_histogram,
    classify_cut,
    closed_gap,
    compute_beta_true,
    impact_protocol,
    relative_dimension_bin,
)
from cutdim.config import RunConfig
from cutdim.hull import affine_hull, face_hull
from cutdim.linalg import dot, scaled_row
from cutdim.model import Inequality, build_instance, evaluate
from cutdim.oracle import MipOracle, enumerate_lattice, make_provider
from cutdim.rational import rat
from cutdim.selftest import random_instance
from cutdim.simplex import LinearProgram
from cutdim.solver import SolveStatus, program_for, solve_lp_relaxation, solve_mip
from helpers import fraction_affine_rank, fraction_feasible, mixed_vertices


def square():
    return build_instance(
        name="square",
        constraint_matrix=[],
        rhs=[],
        objective=[1, 1],
        integer_vars=(0, 1),
        lower_bounds=[0, 0],
        upper_bounds=[1, 1],
    )


def binary_knapsack():
    return build_instance(
        name="knapsack",
        constraint_matrix=[[2, 3]],
        rhs=[4],
        objective=[5, 4],
        integer_vars=(0, 1),
        lower_bounds=[0, 0],
        upper_bounds=[1, 1],
    )


def square_setup():
    inst = square()
    provider = make_provider(inst)
    return provider, affine_hull(provider)


def test_negative_tolerance_and_zero_node_limit_are_rejected():
    provider, hull = square_setup()
    with pytest.raises(ValueError, match="tolerance must be nonnegative"):
        classify_cut(provider, Inequality([1, 1], 2), base=hull, tolerance=-1)
    with pytest.raises(ValueError, match="node_limit must be at least 1"):
        impact_protocol(square(), (), node_limit=0)


def test_beta_true_fixtures():
    value, maximizer, _ = compute_beta_true(MipOracle(square()), [1, 1])
    assert value == 2 and maximizer == (rat(1), rat(1))

    value, _, _ = compute_beta_true(MipOracle(binary_knapsack()), [1, 1])
    assert value == 1  # (1,1) violates 2x+3y <= 4

    value, _, _ = compute_beta_true(MipOracle(square()), [0, 0])
    assert value == 0


def test_classify_trio():
    provider, base = square_setup()

    weak = classify_cut(provider, Inequality([1, 1], 3), base=base)
    assert weak.verdict is Verdict.NON_SUPPORTING
    assert weak.beta_true == 2
    assert weak.face_dimension is None

    bad = classify_cut(provider, Inequality([1, 1], rat("1.99")), base=base)
    assert bad.verdict is Verdict.INVALID
    assert bad.certificate is not None
    assert evaluate(bad.cut, bad.certificate) > 0  # certificate violates the cut
    assert square().is_feasible_point(bad.certificate)

    tight = classify_cut(provider, Inequality([1, 1], 2), base=base)
    assert tight.verdict is Verdict.SUPPORTING
    assert tight.face_dimension == 0  # the vertex (1,1)
    assert tight.tightened.rhs == 2


def test_tolerance_band_tightens():
    provider, base = square_setup()
    # beta inside (beta_true - tol, beta_true + tol]: treated as supporting
    near = classify_cut(
        provider,
        Inequality([1, 1], 2 + rat(1, 20000)),
        base=base,
    )
    assert near.verdict is Verdict.SUPPORTING
    assert near.tightened.rhs == 2  # rhs replaced by beta_true

    below = classify_cut(
        provider,
        Inequality([1, 1], 2 - rat(1, 20000)),
        base=base,
    )
    assert below.verdict is Verdict.SUPPORTING

    outside = classify_cut(
        provider,
        Inequality([1, 1], 2 - rat(2, 10000)),
        base=base,
    )
    assert outside.verdict is Verdict.INVALID


def test_normalization_applied_before_comparison():
    provider, base = square_setup()
    # 2x + 2y <= 4 is the tight cut scaled by 2
    cls = classify_cut(provider, Inequality([2, 2], 4), base=base)
    assert cls.verdict is Verdict.SUPPORTING
    assert cls.cut.coefficients == (rat(1), rat(1))
    assert cls.beta_true == 2


def test_zero_coefficient_cuts(monkeypatch):
    provider, base = square_setup()
    solves = []
    solve = provider.solve
    monkeypatch.setattr(provider, "solve", lambda w: solves.append(w) or solve(w))

    flat = classify_cut(provider, Inequality([0, 0], 0), base=base)
    assert flat.verdict is Verdict.SUPPORTING
    assert flat.is_degenerate
    assert flat.face_dimension == base.dimension  # face is P itself

    weak = classify_cut(provider, Inequality([0, 0], 5), base=base)
    assert weak.verdict is Verdict.NON_SUPPORTING

    bad = classify_cut(provider, Inequality([0, 0], -1), base=base)
    assert bad.verdict is Verdict.INVALID

    # the sign of the rhs decides; the oracle is never consulted
    assert solves == []


def test_degenerate_cuts_are_tallied_apart():
    inst = square()
    cuts = [
        Inequality([0, 0], 0, label="flat"),
        Inequality([1, 1], 2, label="tight"),
    ]
    analysis = analyze_instance(inst, cuts, RunConfig(solve_time_limit=None))
    assert analysis.degenerate == 1
    assert analysis.analyzed_count == 1
    assert analysis.failed_invalid == 0
    assert analysis.face_dimensions() == [0]  # the flat cut is not binned


def test_empty_set_classification():
    empty = build_instance(
        name="void",
        constraint_matrix=[[1], [-1]],
        rhs=[0, -1],
        objective=[1],
        integer_vars=(0,),
    )
    provider = MipOracle(empty)
    cls = classify_cut(provider, Inequality([1], 0), base=affine_hull(provider))
    assert cls.verdict is Verdict.NON_SUPPORTING
    assert cls.beta_true == -math.inf
    assert cls.face_dimension == -1


def test_unbounded_direction_certificate():
    halfline = build_instance(
        name="halfline",
        constraint_matrix=[],
        rhs=[],
        objective=[1],
        integer_vars=(0,),
        lower_bounds=[0],
    )
    provider = MipOracle(halfline)
    cls = classify_cut(provider, Inequality([1], 100), base=affine_hull(provider))
    assert cls.verdict is Verdict.INVALID
    assert cls.beta_true == math.inf
    assert cls.certificate is not None
    assert evaluate(cls.cut, cls.certificate) > 0
    assert halfline.is_feasible_point(cls.certificate)


def test_closed_gap_fixtures():
    assert closed_gap(4, 10, 4) == 1  # z_i = z_star
    assert closed_gap(10, 10, 4) == 0  # z_i = z_lp
    assert closed_gap(7, 10, 4) == rat(1, 2)
    assert closed_gap(5, 5, 5) == 1  # no integrality gap at all
    with pytest.raises(AnalysisError):
        closed_gap(11, 10, 4)  # bound above the LP value
    with pytest.raises(AnalysisError):
        closed_gap(3, 10, 4)  # bound below the optimum


def test_impact_protocol_knapsack():
    inst = binary_knapsack()
    report = impact_protocol(inst, [], time_limit=None)
    assert report.z_star == 5
    assert report.z_lp == rat(23, 3)
    assert report.optimum == (rat(1), rat(0))
    assert report.node_budget >= 1
    assert report.runs == ()
    assert report.baseline.gap is not None and 0 <= report.baseline.gap <= 1

    cut = Inequality([1, 1], 1, label="card")  # valid: max x+y over P is 1
    report = impact_protocol(inst, [cut], time_limit=None)
    (run,) = report.runs
    assert run.label == "card"
    assert run.gap is not None and 0 <= run.gap <= 1
    assert report.node_budget >= 1


def test_impact_protocol_flags_invalid_cuts():
    inst = binary_knapsack()
    bad = Inequality([1, 0], rat(1, 2), label="chop")  # cuts off the optimum (1,0)
    report = impact_protocol(inst, [bad], time_limit=None)
    (run,) = report.runs
    assert run.flag == "invalid-cut"
    assert run.solve_status == "skipped"
    assert run.gap is None


def test_impact_protocol_rejects_unsolvable_reference():
    empty = build_instance(
        name="void",
        constraint_matrix=[[1], [-1]],
        rhs=[0, -1],
        objective=[1],
        integer_vars=(0,),
    )
    with pytest.raises(AnalysisError):
        impact_protocol(empty, [], time_limit=None)


def test_impact_determinism_and_node_budget():
    rng = random.Random(71)
    inst = random_instance(rng, max_vars=4, name="impdet")
    points = enumerate_lattice(inst)
    cuts = []
    for j in range(3):
        a = [rng.randint(-4, 4) for _ in range(inst.num_vars)]
        cuts.append(Inequality(a, max(dot(a, p) for p in points), label=f"c{j}"))
    first = impact_protocol(inst, cuts, time_limit=None)
    second = impact_protocol(inst, cuts, time_limit=None)
    assert first == second
    completed = [r.nodes for r in (first.baseline, *first.runs) if r.gap is not None]
    assert first.node_budget == max(1, min(completed))


def stein9():
    """Steiner-triple covering on the 12 lines of AG(2,3): min sum x with
    sum x >= 1 on each line, x binary; point (i, j) is variable 3i + j."""
    lines = {
        tuple(sorted(3 * ((i + t * di) % 3) + (j + t * dj) % 3 for t in range(3)))
        for i, j in itertools.product(range(3), repeat=2)
        for di, dj in ((0, 1), (1, 0), (1, 1), (1, 2))
    }
    return build_instance(
        name="stein9",
        constraint_matrix=[[-1 if j in line else 0 for j in range(9)] for line in sorted(lines)],
        rhs=[-1] * len(lines),
        objective=[-1] * 9,
        integer_vars=range(9),
        lower_bounds=[0] * 9,
        upper_bounds=[1] * 9,
    )


def test_impact_protocol_solves_each_shared_lp_once(monkeypatch):
    inst = stein9()
    cuts = [
        Inequality([-1, -1, -2, 0, -1, 0, -1, 0, 0], -3, label="cov"),
        Inequality([-1] * 9, -6, label="sum6"),  # cuts off every optimum
    ]
    solved = []  # (program, lower, upper) of every LP actually solved
    solve = LinearProgram._solve

    def counted_solve(program, lower, upper):
        solved.append((program, lower, upper))
        return solve(program, lower, upper)

    calls = []  # (solve_mip's program, LPs it solved, its result)

    def counted_mip(inst, objective=None, options=None, program=None):
        start = len(solved)
        result = solve_mip(inst, objective, options, program)
        calls.append((program, solved[start:], result))
        return result

    relaxations = []

    def counted_relaxation(inst, program=None):
        start = len(solved)
        result = solve_lp_relaxation(inst, program)
        relaxations.append(solved[start:])
        return result

    monkeypatch.setattr(LinearProgram, "_solve", counted_solve)
    monkeypatch.setattr(analysis, "solve_mip", counted_mip)
    monkeypatch.setattr(analysis, "solve_lp_relaxation", counted_relaxation)
    report = impact_protocol(inst, cuts, time_limit=None)

    (reference, reference_lps, full), (shared, baseline_lps, _), (cut_program, _, _) = calls
    assert shared is reference and cut_program is not reference
    # the cut's run solves its own program: the instance's rows plus the cut
    assert cut_program.ineq == inst.integer_rows + (scaled_row(cuts[0].coefficients, cuts[0].rhs),)
    assert cut_program.eq == ()
    # the reference solve finds its first point at its last node, so no
    # parent's tableau bounds a node at or below its primal value (-inf)
    # and it solves one LP per node; z_lp and the baseline then solve
    # none that it solved
    assert len(reference_lps) == full.node_count > 1
    assert relaxations == [[]]
    seen = {(lower, upper) for _, lower, upper in reference_lps}
    assert not seen & {(lower, upper) for _, lower, upper in baseline_lps}

    # the same report when every run compiles its own program
    def fresh(program):
        return LinearProgram(program.num_vars, program.ineq, program.eq)

    monkeypatch.setattr(
        analysis, "solve_mip",
        lambda inst, objective=None, options=None, program=None: solve_mip(
            inst, objective, options, fresh(program)
        ),
    )
    monkeypatch.setattr(analysis, "solve_lp_relaxation", lambda inst, program=None: solve_lp_relaxation(inst))
    assert impact_protocol(inst, cuts, time_limit=None) == report


STEIN9_COVER = Inequality([-1, -1, -2, 0, -1, 0, -1, 0, 0], -3, label="cov")


def reshape_impact_runs(monkeypatch, *shapes):
    """Make the impact runs (those seeded with the optimum) end as `shapes`
    says, in call order: (status, nodes) keeps the real run's first
    `nodes` trace entries; None keeps the run.  Returns the real runs."""
    shapes = list(shapes)
    real = []

    def reshaped(inst, objective=None, options=None, program=None):
        result = solve_mip(inst, objective, options, program)
        if options is None or options.incumbent is None:
            return result  # the reference solve
        real.append(result)
        shape = shapes.pop(0)
        if shape is None:
            return result
        status, nodes = shape
        return dataclasses.replace(
            result, status=status, node_count=nodes, trace=result.trace[:nodes]
        )

    monkeypatch.setattr(analysis, "solve_mip", reshaped)
    return real


def test_impact_reads_a_stopped_run_at_its_last_node(monkeypatch):
    real = reshape_impact_runs(monkeypatch, None, (SolveStatus.TIME_LIMIT, 5))
    report = impact_protocol(stein9(), [STEIN9_COVER], time_limit=None)
    baseline, cut = real
    # the stopped run does not count towards N, so N is the baseline's
    assert report.node_budget == baseline.node_count > 5
    assert report.baseline.flag == ""
    (run,) = report.runs
    z = cut.trace[4][1]
    assert (run.solve_status, run.nodes, run.flag) == ("time_limit", 5, "short-trace")
    assert run.z_at_budget == z
    assert run.gap == closed_gap(z, report.z_lp, report.z_star)


def test_impact_run_stopped_before_its_root_reads_nothing(monkeypatch):
    reshape_impact_runs(monkeypatch, None, (SolveStatus.TIME_LIMIT, 0))
    report = impact_protocol(stein9(), [STEIN9_COVER], time_limit=None)
    (run,) = report.runs
    assert run == RunRecord("cov", "", "time_limit", 0, None, None, "short-trace")
    assert report.baseline.gap is not None and report.baseline.flag == ""


def test_impact_budget_without_a_completed_run(monkeypatch):
    chop = Inequality([-1] * 9, -6, label="sum6")  # cuts off every optimum
    real = reshape_impact_runs(
        monkeypatch, (SolveStatus.TIME_LIMIT, 7), (SolveStatus.TIME_LIMIT, 4)
    )
    report = impact_protocol(stein9(), [STEIN9_COVER, chop], time_limit=None)
    # no run completed: N is the smallest node count of the runs made
    assert report.node_budget == 4
    baseline, cut = real
    run, skipped = report.runs
    assert (report.baseline.nodes, report.baseline.flag) == (7, "")
    assert report.baseline.z_at_budget == baseline.trace[3][1]
    assert (run.nodes, run.flag, run.z_at_budget) == (4, "", cut.trace[3][1])
    assert skipped.flag == "invalid-cut"


def test_impact_runs_skip_the_lps_their_parents_tableaux_bound(monkeypatch):
    """On stein9 every impact run starts at z*, so a child whose parent's
    tableau bounds it at or below z* (`LinearProgram.child_bounds`) is
    counted with no LP: the baseline and the cut's run solve fewer LPs
    than they count nodes.  The report is the one of runs that read no
    bound."""
    report = impact_protocol(stein9(), [STEIN9_COVER], time_limit=None)
    solved = []
    solve = LinearProgram._solve

    def counted_solve(program, lower, upper):
        solved.append(program)
        return solve(program, lower, upper)

    runs = []  # (LPs solved, the run's result) of each impact run

    def counted_mip(inst, objective=None, options=None, program=None):
        start = len(solved)
        result = solve_mip(inst, objective, options, program)
        if options.incumbent is not None:
            runs.append((len(solved) - start, result))
        return result

    monkeypatch.setattr(LinearProgram, "_solve", counted_solve)
    monkeypatch.setattr(analysis, "solve_mip", counted_mip)
    assert impact_protocol(stein9(), [STEIN9_COVER], time_limit=None) == report
    assert len(runs) == 2
    for lps, result in runs:
        assert lps < result.node_count

    monkeypatch.setattr(LinearProgram, "child_bounds", lambda self, j: None)
    runs.clear()
    assert impact_protocol(stein9(), [STEIN9_COVER], time_limit=None) == report
    # the cut's run, on its own program, then solves one LP per node
    assert all(lps == result.node_count for lps, result in runs[1:])


def test_only_the_reference_solve_prunes_by_the_objective_grid(monkeypatch):
    cuts = [STEIN9_COVER, Inequality([-1] * 9, -6, label="sum6")]  # sum6 is skipped
    report = impact_protocol(stein9(), cuts, time_limit=None)
    grids = []  # objective_grid of each solve, in call order

    def recorded(inst, objective=None, options=None, program=None):
        grids.append(options.objective_grid)
        return solve_mip(inst, objective, options, program)

    monkeypatch.setattr(analysis, "solve_mip", recorded)
    assert impact_protocol(stein9(), cuts, time_limit=None) == report
    assert grids == [True, False, False]  # reference, baseline, the cov run

    def forced(grid):
        def solve(inst, objective=None, options=None, program=None):
            options = dataclasses.replace(options, objective_grid=grid)
            return solve_mip(inst, objective, options, program)
        return solve

    # the reference solve's answer does not depend on the rule ...
    monkeypatch.setattr(analysis, "solve_mip", forced(False))
    assert impact_protocol(stein9(), cuts, time_limit=None) == report
    # ... but the impact runs' traces do: with it on, N and the gaps move
    monkeypatch.setattr(analysis, "solve_mip", forced(True))
    pruned = impact_protocol(stein9(), cuts, time_limit=None)
    assert pruned.z_star == report.z_star
    assert pruned.node_budget < report.node_budget


def test_solve_mip_rejects_a_program_for_other_rows():
    inst = stein9()
    program = program_for(inst)
    other = build_instance(
        name="stein9-shifted",
        constraint_matrix=inst.constraint_matrix,
        rhs=[-2] + list(inst.rhs[1:]),
        objective=inst.objective,
        integer_vars=inst.integer_vars,
        lower_bounds=inst.lower_bounds,
        upper_bounds=inst.upper_bounds,
    )
    with pytest.raises(ValueError):
        solve_mip(other, program=program)
    with pytest.raises(ValueError):
        solve_mip(binary_knapsack(), program=program)
    # the program holds rows only: another objective is the caller's choice
    assert solve_mip(inst, objective=[1] * 9, program=program) == solve_mip(inst, objective=[1] * 9)
    # a relaxation is the instance's rows alone: no cut and no equation
    cut = program_for(inst, cuts=(scaled_row([-1] * 9, -4),))
    face = program_for(inst, equations=(scaled_row([1] * 9, 3),))
    for extra in (cut, face):
        with pytest.raises(ValueError):
            solve_lp_relaxation(inst, extra)
    with pytest.raises(ValueError):
        solve_lp_relaxation(binary_knapsack(), program)
    assert solve_mip(inst, program=program) == solve_mip(inst)


def test_dimension_bins():
    assert relative_dimension_bin(-1, 41) == DimensionBin.empty_face()
    assert relative_dimension_bin(41, 41) == DimensionBin.whole_polytope()
    assert relative_dimension_bin(40, 41) == DimensionBin.exactly_full()
    assert relative_dimension_bin(20, 41).label == "[50%,55%)"
    assert relative_dimension_bin(0, 41).label == "[0%,5%)"
    assert relative_dimension_bin(39, 41).label == "[95%,100%)"
    # tiny polytopes only ever reach the sentinel bins
    assert relative_dimension_bin(0, 1).label == "100%"
    assert relative_dimension_bin(0, 0).label == "inf"
    with pytest.raises(ValueError):
        relative_dimension_bin(5, 4)
    with pytest.raises(ValueError):
        relative_dimension_bin(-2, 4)
    with pytest.raises(ValueError):
        relative_dimension_bin(0, -1)


def test_bin_ordering():
    labels = [
        DimensionBin.empty_face(),
        DimensionBin.percent(0),
        DimensionBin.percent(19),
        DimensionBin.exactly_full(),
        DimensionBin.whole_polytope(),
    ]
    assert labels == sorted(labels)


def test_histogram_fixtures():
    rows = build_histogram([(7, [-1, 6])])
    assert [(b.label, w) for b, w in rows] == [
        ("empty", rat(1, 2)),
        ("100%", rat(1, 2)),
    ]

    rows = build_histogram([(3, [3]), (5, [5])])
    assert [(b.label, w) for b, w in rows] == [("inf", rat(1))]

    assert build_histogram([]) == []

    with pytest.raises(ValueError):
        build_histogram([(3, [])])


def test_histogram_mass_conservation():
    rng = random.Random(73)
    for _ in range(30):
        items = []
        for _ in range(rng.randint(1, 7)):
            d = rng.randint(0, 9)
            items.append((d, [rng.randint(-1, d) for _ in range(rng.randint(1, 6))]))
        assert sum(w for _, w in build_histogram(items)) == 1


def test_analyze_instance_pipeline():
    inst = binary_knapsack()
    cuts = [
        Inequality([1, 1], 1, label="tight", category="cg"),
        Inequality([1, 1], 3, label="loose", category="cg"),
        Inequality([1, 0], rat(1, 2), label="bad", category="manual"),
    ]
    analysis = analyze_instance(inst, cuts, RunConfig(solve_time_limit=None))
    assert analysis.dimension == 2
    assert analysis.analyzed_count == 2
    assert analysis.analyzed_by_category == {"cg": 2}
    assert analysis.failed_invalid == 1
    assert analysis.failed_timeout == 0
    assert analysis.impact is not None and analysis.impact_error == ""
    verdicts = [c.verdict for c in analysis.classifications]
    assert verdicts == [Verdict.SUPPORTING, Verdict.NON_SUPPORTING, Verdict.INVALID]
    assert analysis.face_dimensions() == [1, -1]
    hist = analysis.histogram()
    assert sum(w for _, w in hist) == 1


def test_face_time_budget_none_means_no_limit(monkeypatch):
    budgets = []

    def spy(*args, **kwargs):
        budgets.append(kwargs["time_budget"])
        return face_hull(*args, **kwargs)

    monkeypatch.setattr("cutdim.analysis.face_hull", spy)
    cuts = [Inequality([1, 1], 1, label="tight")]
    analyze_instance(
        binary_knapsack(), cuts, RunConfig(face_time_budget=None), run_impact=False
    )
    assert budgets == [None]


def test_face_run_probes_its_own_cuts_points(monkeypatch):
    rng = random.Random(0)
    weights = [rng.randint(2, 9) for _ in range(4)]
    inst = build_instance(
        name="knap4",
        constraint_matrix=[weights],
        rhs=[sum(weights) // 2],
        objective=weights,
        integer_vars=range(4),
        lower_bounds=[0] * 4,
        upper_bounds=[1] * 4,
    )
    beta = max(sum(p) for p in enumerate_lattice(inst))
    cut = Inequality([1] * 4, beta)

    def runs():
        analysis = analyze_instance(inst, [cut], RunConfig(engine="solver"), run_impact=False)
        (cls,) = analysis.classifications
        provider = MipOracle(inst)
        base = dataclasses.replace(affine_hull(provider), points=())
        return cls, face_hull(provider, base, cls.tightened)

    cls, bare = runs()
    face = cls.face_result
    _, maximizer, _ = compute_beta_true(MipOracle(inst), cut.coefficients)
    # no point of the hull run lies on the face; the cut's own maximizer
    # does, and its moves (1, 0, 1, 0) and (0, 1, 1, 0) join X before
    # the first direction
    assert face.points == (maximizer, (1, 0, 1, 0), (0, 1, 1, 0))
    assert (face.oracle_queries, face.cache_hits) == (2, 2)
    assert bare.points[0] != maximizer
    assert face.dimension == bare.dimension == 2
    # a run handed no points takes no moves: no round finds a point the
    # run holds, and the run spends three queries more
    assert (bare.oracle_queries, bare.cache_hits) == (5, 0)
    # without moves the maximizer alone, taken into X with no query,
    # saves the run one query
    monkeypatch.setattr("cutdim.hull.move_points", lambda provider, x0: iter(()))
    cls, bare = runs()
    assert (cls.face_result.oracle_queries, cls.face_result.cache_hits) == (4, 0)
    assert cls.face_result.points[0] == maximizer
    assert (bare.oracle_queries, bare.cache_hits) == (5, 0)


def test_each_cut_classifies_as_if_alone():
    """A cut's face run starts from the hull run's points and its own
    maximizer alone, so no cut's points reach another cut's face run."""
    rng = random.Random(19)
    inst = random_instance(rng, max_vars=4, name="alone")
    points = enumerate_lattice(inst)
    cuts = []
    for j in range(4):
        a = [rng.randint(-4, 4) for _ in range(inst.num_vars)]
        cuts.append(Inequality(a, max(dot(a, p) for p in points), label=f"c{j}"))
    config = RunConfig(engine="lattice", solve_time_limit=None)
    together = analyze_instance(inst, cuts, config, run_impact=False)
    for cut, cls in zip(cuts, together.classifications):
        (alone,) = analyze_instance(inst, [cut], config, run_impact=False).classifications
        assert cls == alone


@pytest.mark.parametrize("engine", ["solver", "lattice"])
def test_classify_calls_sharing_a_provider_stay_apart(engine):
    """Two classify_cut calls on one provider classify, query and hit as
    each call does alone: x + y <= 6 has the maximizer (3, 3),
    which lies on the face x = 3 of the later cut x <= 3 and would save
    that face run its only round."""
    inst = build_instance(
        name="staircase",
        constraint_matrix=[[1, -1]],
        rhs=[1],
        objective=[0, 0],
        integer_vars=(0, 1),
        lower_bounds=[0, 0],
        upper_bounds=[3, 3],
    )
    corner, side = Inequality([1, 1], 6), Inequality([1, 0], 3)
    provider = make_provider(inst, engine)
    base = affine_hull(provider)
    shared = [classify_cut(provider, cut, base=base) for cut in (corner, side)]
    for cut, cls in zip((corner, side), shared):
        fresh = make_provider(inst, engine)
        (alone,) = [classify_cut(fresh, cut, base=affine_hull(fresh))]
        assert cls == alone
        assert (cls.face_result.oracle_queries, cls.face_result.cache_hits) == (
            alone.face_result.oracle_queries,
            alone.face_result.cache_hits,
        )
    assert [cls.face_dimension for cls in shared] == [0, 1]


@pytest.mark.parametrize("engine", ["solver", "lattice"])
def test_a_cuts_own_maximizer_seeds_its_face_run(monkeypatch, engine):
    """The cut's maximizer (2, 2, 0) joins the base points on the face,
    (3, 3, 0) alone, and the face run takes it with no query; it is also
    the move (-1, -1, 0) of (3, 3, 0), so with moves a face run handed
    the base points alone spends the same."""
    rng = random.Random(23)
    inst = random_instance(rng, max_vars=3, name="own")
    a = [rng.randint(-3, 3) for _ in range(inst.num_vars)]
    cut = Inequality(a, max(dot(a, p) for p in enumerate_lattice(inst)))

    def runs():
        provider = make_provider(inst, engine)
        base = affine_hull(provider)
        cls = classify_cut(provider, cut, base=base)
        return cls, face_hull(provider, base, cls.tightened)

    cls, without = runs()
    assert cls.face_dimension == without.dimension == 1
    assert cls.face_result.points == without.points == ((3, 3, 0), (2, 2, 0))
    for run in (cls.face_result, without):
        assert (run.oracle_queries, run.cache_hits) == (2, 1)
    monkeypatch.setattr("cutdim.hull.move_points", lambda provider, x0: iter(()))
    cls, without = runs()
    assert cls.face_dimension == without.dimension == 1
    assert (cls.face_result.oracle_queries, cls.face_result.cache_hits) == (2, 1)
    assert (without.oracle_queries, without.cache_hits) == (4, 0)


_ENTRIES = st.sampled_from((-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-3, 2)))


@st.composite
def _bounded_mixed_case(draw):
    """A bounded mixed-integer instance and three cuts with entries on
    every column.  1-3 integer columns on small boxes, then 1-2
    continuous ones; a continuous column may lack either bound, and a
    row over it and the integer columns then caps it from that side, so
    every integer slice stays a polytope."""
    k = draw(st.integers(1, 3))
    n = k + draw(st.integers(1, 2))
    vectors = st.lists(_ENTRIES, min_size=n, max_size=n)
    rows = draw(st.lists(vectors, min_size=1, max_size=2))
    rhs = [draw(st.integers(-1, 3)) for _ in rows]
    lower, upper = [], []
    for j in range(n):
        lo, hi = draw(st.sampled_from(((0, 1), (0, 2), (-1, 1))))
        if j >= k:
            lo = draw(st.sampled_from((lo, None)))
            hi = draw(st.sampled_from((hi, Fraction(1, 2), Fraction(3, 2), None)))
            for sign, bound in ((-1, lo), (1, hi)):
                if bound is None:
                    rows.append([draw(_ENTRIES) if i < k else sign * (i == j) for i in range(n)])
                    rhs.append(draw(st.integers(0, 3)))
        lower.append(lo)
        upper.append(hi)
    inst = build_instance(
        name="bounded-mixed",
        constraint_matrix=rows,
        rhs=rhs,
        objective=draw(vectors),
        integer_vars=range(k),
        lower_bounds=lower,
        upper_bounds=upper,
    )
    cuts = [
        (draw(vectors.filter(any)), draw(st.sampled_from((0, 0, Fraction(1, 2), Fraction(-1, 3)))))
        for _ in range(3)
    ]
    return inst, cuts


def _fraction_dot(a, p):
    return sum(Fraction(c) * v for c, v in zip(a, p))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_bounded_mixed_case())
def test_mixed_integer_analysis_matches_the_vertex_twin(case):
    """On bounded mixed-integer instances, `analyze_instance` and
    `compute_beta_true` answer as `mixed_vertices` says: dim(P) is the
    rank of the vertices, each cut's beta_true their maximum, its verdict
    follows from it exactly, and a supporting cut's face dimension is the
    rank of the vertices on the face.  The cuts lie at the twin's maximum
    plus a slack, along continuous directions too."""
    inst, draws = case
    vertices = mixed_vertices(inst)
    n = inst.num_vars
    cuts = []
    for a, slack in draws:
        top = max((_fraction_dot(a, v) for v in vertices), default=0)
        cuts.append(Inequality(a, top + slack))
    config = RunConfig(engine="solver", tolerance=0, solve_time_limit=None)
    result = analyze_instance(inst, cuts, config, run_impact=False)
    assert result.dimension == fraction_affine_rank(vertices, n)
    assert not any(result.failures)
    provider = make_provider(inst, "solver", time_limit=None)
    for cls in result.classifications:
        a, beta = cls.cut.coefficients, cls.cut.rhs
        top = max((_fraction_dot(a, v) for v in vertices), default=-math.inf)
        value, point, ray = compute_beta_true(provider, a)
        assert value == cls.beta_true == top and ray is None
        if vertices:
            assert _fraction_dot(a, point) == top and fraction_feasible(inst, point)
        if top > beta:
            assert cls.verdict is Verdict.INVALID
        elif top < beta:
            assert cls.verdict is Verdict.NON_SUPPORTING
        else:
            on_face = [v for v in vertices if _fraction_dot(a, v) == top]
            assert cls.verdict is Verdict.SUPPORTING
            assert cls.face_dimension == fraction_affine_rank(on_face, n)
