import itertools
import math
import random

import pytest

from cutdim import analysis
from cutdim.analysis import (
    AnalysisError,
    DimensionBin,
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
from cutdim.solver import program_for, solve_lp_relaxation, solve_mip


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


def test_zero_coefficient_cuts():
    provider, base = square_setup()
    before = provider.query_count

    flat = classify_cut(provider, Inequality([0, 0], 0), base=base)
    assert flat.verdict is Verdict.SUPPORTING
    assert flat.is_degenerate
    assert flat.face_dimension == base.dimension  # face is P itself

    weak = classify_cut(provider, Inequality([0, 0], 5), base=base)
    assert weak.verdict is Verdict.NON_SUPPORTING

    bad = classify_cut(provider, Inequality([0, 0], -1), base=base)
    assert bad.verdict is Verdict.INVALID

    # the sign of the rhs decides; the oracle is never consulted
    assert provider.query_count == before


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
    cls = classify_cut(MipOracle(empty), Inequality([1], 0))
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
    cls = classify_cut(MipOracle(halfline), Inequality([1], 100))
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

    def counted_solve(program, objective, lower, upper):
        solved.append((program, lower, upper))
        return solve(program, objective, lower, upper)

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
    # the reference solve solves one LP per node; z_lp and the baseline
    # then solve none that it solved
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


def test_face_run_probes_its_own_cuts_points():
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
    analysis = analyze_instance(inst, [cut], RunConfig(engine="solver"), run_impact=False)
    (cls,) = analysis.classifications
    face = cls.face_result
    # the cut's own beta_true maximizer lies on the face and saves a round
    assert face.cache_hits >= 1
    assert face.oracle_queries == 4
    cold_provider = MipOracle(inst)
    cold = face_hull(cold_provider, affine_hull(cold_provider), cls.tightened)
    assert cold.cache_hits == 0
    assert face.dimension == cold.dimension


def test_analyze_instance_jobs_do_not_change_results():
    rng = random.Random(79)
    inst = random_instance(rng, max_vars=4, name="par")
    points = enumerate_lattice(inst)
    cuts = []
    for j in range(4):
        a = [rng.randint(-4, 4) for _ in range(inst.num_vars)]
        cuts.append(
            Inequality(a, max(dot(a, p) for p in points) + rng.choice((0, 1)), label=f"c{j}")
        )
    serial = analyze_instance(inst, cuts, RunConfig(jobs=1, solve_time_limit=None))
    threaded = analyze_instance(inst, cuts, RunConfig(jobs=4, solve_time_limit=None))
    assert serial.dimension == threaded.dimension
    assert serial.classifications == threaded.classifications
    assert serial.impact == threaded.impact
