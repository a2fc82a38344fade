import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutdim.hull import affine_hull, face_hull
from cutdim.linalg import dot, scaled_row
from cutdim.model import Inequality, MipInstance, build_instance
from cutdim.oracle import (
    Above,
    BruteForceOracle,
    Infeasible,
    MipOracle,
    Optimal,
    OracleInconclusive,
    OracleSoundnessError,
    Unbounded,
    enumerate_lattice,
    make_provider,
    oracle_maximize,
)
from cutdim.rational import rat
from cutdim.selftest import random_instance
from cutdim.simplex import LinearProgram
from cutdim.solver import SolveStatus, solve_mip
from helpers import fraction_argmax, fraction_lattice, fraction_on_hyperplane


def knapsack():
    return build_instance(
        name="knapsack",
        constraint_matrix=[[2, 3]],
        rhs=[4],
        objective=[5, 4],
        integer_vars=(0, 1),
        lower_bounds=[0, 0],
        upper_bounds=[1, 1],
    )


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


def test_knapsack_query():
    resp = oracle_maximize(MipOracle(knapsack()), [5, 4])
    assert isinstance(resp, Optimal)
    assert resp.point == (rat(1), rat(0))
    assert resp.value == 5


def test_zero_objective():
    resp = oracle_maximize(MipOracle(knapsack()), [0, 0])
    assert isinstance(resp, Optimal)
    assert resp.value == 0


def test_infeasible_response():
    inst = build_instance(
        name="empty",
        constraint_matrix=[[1], [-1]],
        rhs=[0, -1],
        objective=[1],
        integer_vars=(0,),
    )
    assert isinstance(oracle_maximize(MipOracle(inst), [1]), Infeasible)


def test_unbounded_response_with_ray():
    inst = build_instance(
        name="halfline",
        constraint_matrix=[],
        rhs=[],
        objective=[1],
        integer_vars=(0,),
        lower_bounds=[0],
    )
    resp = oracle_maximize(MipOracle(inst), [1])
    assert isinstance(resp, Unbounded)
    assert resp.ray == (1,)


def test_unbounded_answer_requires_a_witness():
    with pytest.raises(TypeError):
        Unbounded((1,))


class BadWitnessOracle(MipOracle):
    """Answers every query with the ray (1,) from the infeasible point (-1,)."""

    def solve(self, w, bar=None):
        return Unbounded((rat(1),), (rat(-1),))


def test_soundness_guard_rejects_bad_witnesses():
    halfline = build_instance(
        name="halfline",
        constraint_matrix=[],
        rhs=[],
        objective=[1],
        integer_vars=(0,),
        lower_bounds=[0],
    )
    with pytest.raises(OracleSoundnessError, match="witness is infeasible"):
        oracle_maximize(BadWitnessOracle(halfline), [1])


class RayOracle(MipOracle):
    """Answers every query with its `ray` from the feasible point (0, 0, 0)."""

    ray = None

    def solve(self, w, bar=None):
        return Unbounded(self.ray, (0, 0, 0))


# x0 >= 0, x1 <= 4 and the row x2 <= 10, on the face x0 + x2 = 0 where on_face
# says so; each ray passes every check before its own
BAD_RAYS = [
    ((0, 0, 0), (0, 0, 1), False, "unbounded response with a zero ray"),
    ((0, 0, -1), (0, 0, 1), False, "ray does not improve the objective"),
    ((0, 0, 1), (0, 0, 1), False, "ray leaves the constraint rows"),
    ((-1, 0, 0), (-1, 0, 0), False, "ray leaves a lower bound"),
    ((0, 1, 0), (0, 1, 0), False, "ray leaves an upper bound"),
    ((0, 0, -1), (0, 0, -1), True, "ray leaves the face hyperplane"),
]


@pytest.mark.parametrize("ray, w, on_face, message", BAD_RAYS)
def test_soundness_guard_rejects_bad_rays(ray, w, on_face, message):
    inst = build_instance(
        name="rays",
        constraint_matrix=[[0, 0, 1]],
        rhs=[10],
        objective=[0, 0, 0],
        integer_vars=(0, 1, 2),
        lower_bounds=[0, None, None],
        upper_bounds=[None, 4, None],
    )
    for verify in (True, False):
        provider = RayOracle(inst, verify=verify)
        if on_face:
            provider = provider.restrict([1, 0, 1], 0)
        provider.ray = ray
        if verify:
            with pytest.raises(OracleSoundnessError) as info:
                oracle_maximize(provider, w)
            assert str(info.value) == message
        else:
            assert oracle_maximize(provider, w) == Unbounded(ray, (0, 0, 0))


class AtTheBar(MipOracle):
    """Answers every query with the origin, whose value is 0 for any w."""

    def solve(self, w, bar=None):
        return Above((0, 0), 0)


def test_soundness_guard_rejects_a_point_at_the_bar():
    with pytest.raises(OracleSoundnessError, match="not above the bar"):
        oracle_maximize(AtTheBar(knapsack()), [1, 1], bar=0)
    assert oracle_maximize(AtTheBar(knapsack()), [1, 1], bar=-1) == Above((0, 0), 0)
    assert oracle_maximize(AtTheBar(knapsack(), verify=False), [1, 1], bar=0) == Above((0, 0), 0)


@pytest.mark.parametrize("engine", ["solver", "lattice"])
def test_bar_queries_answer_a_point_above_the_bar_or_nothing(engine):
    """Against a bar below the maximum, the answer is a point strictly
    above it; at the maximum, nothing lies above it."""
    provider = make_provider(knapsack(), engine)
    for bar in (-1, 0, 4):
        resp = oracle_maximize(provider, [5, 4], bar)
        assert isinstance(resp, Above) and resp.value > bar
        assert knapsack().is_feasible_point(resp.point)
    assert oracle_maximize(provider, [5, 4], 5) == Infeasible()
    assert oracle_maximize(provider, [5, 4], rat(9, 2)) == Above((1, 0), 5)


def test_an_unbounded_direction_stays_unbounded_under_a_bar():
    # x, y >= 0 integer with |x - y| <= 2: unbounded along (1, 1)
    wedge = build_instance(
        name="wedge",
        constraint_matrix=[[1, -1], [-1, 1]],
        rhs=[2, 2],
        objective=[-1, -1],
        integer_vars=(0, 1),
        lower_bounds=[0, 0],
    )
    for bar in (None, 10, rat(7, 3)):
        resp = oracle_maximize(MipOracle(wedge), [1, 1], bar)
        assert isinstance(resp, Unbounded) and resp.ray == (1, 1)
        assert wedge.is_feasible_point(resp.witness)


def test_query_counting_and_cache_population(monkeypatch):
    """One solve per query; the hull run, not the provider, holds the
    answers' points."""
    oracle = MipOracle(knapsack())
    solves = []
    solve = oracle.solve
    monkeypatch.setattr(oracle, "solve", lambda w, bar=None: solves.append(w) or solve(w, bar))
    oracle_maximize(oracle, [5, 4])
    oracle_maximize(oracle, [-1, -1])
    assert solves == [(5, 4), (-1, -1)]  # one solve per query
    hull = affine_hull(oracle)
    assert len(solves) == 2 + hull.oracle_queries
    assert len(hull.cache) >= 2 and not hasattr(oracle, "cache")
    for p in hull.cache:
        assert knapsack().is_feasible_point(p)


class InfeasibleOracle(MipOracle):
    """Answers every query with (1, 1), which violates the knapsack row."""

    def solve(self, w, bar=None):
        return Optimal((rat(1), rat(1)), dot(w, (1, 1)))


def test_soundness_guard_rejects_bad_points():
    with pytest.raises(OracleSoundnessError, match="violates the instance"):
        oracle_maximize(InfeasibleOracle(knapsack()), [1, 1])


def test_feasibility_checked_once_per_optimal_response(monkeypatch):
    calls = []
    check = MipInstance.is_feasible_point

    def counting(self, point):
        calls.append(point)
        return check(self, point)

    monkeypatch.setattr(MipInstance, "is_feasible_point", counting)
    provider = make_provider(knapsack(), "lattice")
    for w in ([5, 4], [-1, -1], [5, 4]):  # the third answer repeats the first
        oracle_maximize(provider, w)
    assert len(calls) == 3
    oracle_maximize(make_provider(knapsack(), "lattice", verify=False), [5, 4])
    assert len(calls) == 3


@pytest.mark.parametrize("engine", ["solver", "lattice"])
def test_queries_leave_the_provider_as_it_was(engine):
    """A query reads its provider and writes nothing to it, on a face
    too, with every answer verified; `make_provider` builds what the
    engine's constructor builds."""
    inst = random_instance(random.Random(41), max_vars=4, name="still")
    provider = make_provider(inst, engine)
    assert provider.verify
    top = oracle_maximize(provider, inst.objective).point
    for p in (provider, provider.restrict(inst.objective, dot(inst.objective, top))):
        before = dict(vars(p))
        for w in itertools.product((-1, 0, 1), repeat=inst.num_vars):
            oracle_maximize(p, w)
        assert vars(p) == before

    def setup(p):
        held = dict(vars(p))
        program = held.pop("program", None)
        rows = None if program is None else (program.num_vars, program.ineq, program.eq)
        return type(p), held, rows

    if engine == "solver":
        built = MipOracle(inst, time_limit=5.0, node_limit=9, verify=False)
    else:
        built = BruteForceOracle(inst, verify=False)
    made = make_provider(inst, engine, time_limit=5.0, node_limit=9, verify=False)
    assert setup(made) == setup(built)
    assert setup(make_provider(inst, engine)) == setup(
        MipOracle(inst) if engine == "solver" else BruteForceOracle(inst)
    )


class MisreportingOracle(MipOracle):
    """Answers every query with a feasible point and a value it does not have."""

    def solve(self, w, bar=None):
        return Optimal((rat(0), rat(0)), rat(7))


def test_verify_switch_reaches_response_checks():
    with pytest.raises(OracleSoundnessError):
        oracle_maximize(MisreportingOracle(knapsack()), [1, 1])
    resp = oracle_maximize(MisreportingOracle(knapsack(), verify=False), [1, 1])
    assert resp.value == 7


def test_make_provider_engines_and_verify_switch():
    solver = make_provider(knapsack(), "solver", time_limit=5.0, node_limit=9)
    assert isinstance(solver, MipOracle) and solver.verify
    assert (solver.options.time_limit, solver.options.node_limit) == (5.0, 9)
    lattice = make_provider(knapsack(), "lattice", verify=False)
    assert isinstance(lattice, BruteForceOracle) and not lattice.verify
    with pytest.raises(ValueError, match="engine"):
        make_provider(knapsack(), "simplex")


def test_each_provider_compiles_one_program(monkeypatch):
    """A provider's queries share its compiled program: a base hull and a
    face run build one each."""
    inst = build_instance(
        name="knapsack4",
        constraint_matrix=[[3, 2, 2, 1]],
        rhs=[4],
        objective=[1, 1, 1, 1],
        integer_vars=range(4),
        lower_bounds=[0] * 4,
        upper_bounds=[1] * 4,
    )
    built = []
    init = LinearProgram.__init__

    def counted_init(program, *args, **kwargs):
        built.append(program)
        init(program, *args, **kwargs)

    solves = []  # (program, objective, options, cutoff, result) of every oracle solve

    def recorded_solve_mip(inst, objective=None, options=None, program=None, cutoff=None):
        result = solve_mip(inst, objective, options, program, cutoff)
        solves.append((program, objective, options, cutoff, result))
        return result

    monkeypatch.setattr(LinearProgram, "__init__", counted_init)
    monkeypatch.setattr("cutdim.oracle.solve_mip", recorded_solve_mip)
    provider = MipOracle(inst)
    base = affine_hull(provider)
    top = oracle_maximize(provider, [1, 1, 0, 0])  # beta_true of x0 + x1 <= 1
    face = face_hull(provider, base, Inequality([1, 1, 0, 0], 1), seen=(top.point,))
    assert (base.dimension, face.dimension) == (4, 3)

    assert len(built) == 2 and built[0] is provider.program
    queries = base.oracle_queries + 1
    assert [program for program, *_ in solves] == (
        [provider.program] * queries + [built[1]] * face.oracle_queries
    )
    monkeypatch.undo()
    for program, objective, options, cutoff, result in solves:
        fresh = LinearProgram(program.num_vars, program.ineq, program.eq)
        assert solve_mip(inst, objective, options, fresh, cutoff) == result


def test_restrict_stacks_equations():
    oracle = MipOracle(square()).restrict([1, 1], 2)
    resp = oracle_maximize(oracle, [1, 0])
    assert isinstance(resp, Optimal)
    assert resp.point == (rat(1), rat(1))  # only (1,1) satisfies x+y=2
    resp = oracle_maximize(oracle.restrict([1, 0], 0), [1, 0])
    assert isinstance(resp, Infeasible)  # x=0 and x+y=2 and y<=1 clash
    # an equation given as an iterator is read once, into the same rows
    from_iter = MipOracle(square()).restrict(iter([1, 1]), 2)
    assert (from_iter.equations, from_iter.program.eq) == (oracle.equations, oracle.program.eq)


def test_restrict_holds_each_face_equation_once(monkeypatch):
    scaled = []
    monkeypatch.setattr(
        "cutdim.oracle.scaled_row", lambda a, b: scaled.append(a) or scaled_row(a, b)
    )
    once = MipOracle(square()).restrict([1, 1], 2)
    twice = once.restrict([1, 0], rat(1, 2))
    for face, count in ((once, 1), (twice, 2)):
        # the program holds the provider's own rows, scaled once each
        assert face.program.eq is face.equations and len(face.equations) == count
    assert len(scaled) == 2


def test_inconclusive_on_limits():
    inst = build_instance(
        name="spin",
        constraint_matrix=[[1, -3], [-1, 3]],
        rhs=[rat(1, 3), rat(-1, 3)],
        objective=[1, 0],
        integer_vars=(0, 1),
    )
    oracle = MipOracle(inst, time_limit=0.5)
    with pytest.raises(OracleInconclusive):
        oracle_maximize(oracle, [1, 0])


def test_inconclusive_on_node_limit_with_unbounded_root():
    # 2x - 2y = 1 has no integer point; the relaxation is unbounded along (1, 1)
    inst = build_instance(
        name="strip",
        constraint_matrix=[[2, -2], [-2, 2]],
        rhs=[1, -1],
        objective=[1, 0],
        integer_vars=(0, 1),
    )
    with pytest.raises(OracleInconclusive) as info:
        oracle_maximize(MipOracle(inst, node_limit=50), [1, 0])
    assert info.value.status is SolveStatus.NODE_LIMIT


def test_brute_force_oracle_fixtures():
    resp = oracle_maximize(BruteForceOracle(square()), [1, 1])
    assert isinstance(resp, Optimal)
    assert resp.point == (rat(1), rat(1)) and resp.value == 2

    line = build_instance(
        name="line",
        constraint_matrix=[[1]],
        rhs=[1],
        objective=[1],
        integer_vars=(0,),
        lower_bounds=[0],
        upper_bounds=[2],
    )
    resp = oracle_maximize(BruteForceOracle(line), [1])
    assert resp.point == (rat(1),) and resp.value == 1

    empty = build_instance(
        name="void",
        constraint_matrix=[[1], [-1]],
        rhs=[0, -1],
        objective=[1],
        integer_vars=(0,),
        lower_bounds=[0],
        upper_bounds=[1],
    )
    assert isinstance(oracle_maximize(BruteForceOracle(empty), [1]), Infeasible)


def test_brute_force_requires_boxed_integers():
    mixed = build_instance(
        name="mixed",
        constraint_matrix=[],
        rhs=[],
        objective=[1, 1],
        integer_vars=(0,),
        lower_bounds=[0, 0],
        upper_bounds=[1, 1],
    )
    with pytest.raises(ValueError, match="pure-integer"):
        BruteForceOracle(mixed)


def test_oracle_agreement():
    """Solver-backed and enumeration-backed oracles agree, many objectives."""
    rng = random.Random(43)
    for i in range(40):
        inst = random_instance(rng, max_vars=4, name=f"agree{i}")
        solver_oracle = MipOracle(inst)
        brute_oracle = BruteForceOracle(inst)
        for _ in range(8):
            w = [rng.randint(-5, 5) for _ in range(inst.num_vars)]
            a = oracle_maximize(solver_oracle, w)
            b = oracle_maximize(brute_oracle, w)
            assert isinstance(a, Optimal) and isinstance(b, Optimal)
            assert a.value == b.value, f"case {i}, w={w}"


def test_restrict_keeps_the_lattice_points_on_the_face():
    rng = random.Random(47)
    inst = random_instance(rng, name="probe")
    provider = make_provider(inst, "lattice")
    a = [rng.randint(-3, 3) for _ in range(inst.num_vars)]
    beta = max(dot(a, p) for p in provider.points)
    face = provider.restrict(a, beta)
    assert face.points == tuple(p for p in provider.points if dot(a, p) == beta)
    assert face.equations == (scaled_row(a, beta),) and provider.equations == ()


def test_enumerate_lattice_guards():
    unbounded = build_instance(
        name="open",
        constraint_matrix=[],
        rhs=[],
        objective=[1],
        integer_vars=(0,),
        lower_bounds=[0],
    )
    with pytest.raises(ValueError, match="unbounded"):
        enumerate_lattice(unbounded)


def _box(name, rows, rhs, lower, upper):
    n = len(lower)
    return build_instance(
        name=name,
        constraint_matrix=rows,
        rhs=rhs,
        objective=[0] * n,
        integer_vars=range(n),
        lower_bounds=lower,
        upper_bounds=upper,
    )


def test_lattice_engine_edge_cases():
    """Empty boxes, empty rows, negative bounds, ties and empty faces."""
    # n = 0: the one point () unless some row reads 0 <= b with b < 0
    assert enumerate_lattice(_box("point", [[]], [0], [], [])) == [()]
    assert enumerate_lattice(_box("none", [[], []], [1, -1], [], [])) == []
    zero = make_provider(_box("point", [], [], [], []), "lattice")
    resp = oracle_maximize(zero, [])
    assert isinstance(resp, Optimal) and resp.point == () and resp.value == 0

    # [1/2, 1/2] holds no integer; a zero row with a negative rhs holds nothing
    assert enumerate_lattice(_box("half", [], [], [0, rat(1, 2)], [2, rat(1, 2)])) == []
    assert enumerate_lattice(_box("void", [[0, 0]], [rat(-1, 3)], [0, 0], [2, 2])) == []
    assert enumerate_lattice(_box("all", [[0, 0]], [0], [0, 0], [1, 1])) == [
        (0, 0), (0, 1), (1, 0), (1, 1)]

    # negative lower bounds keep lexicographic order
    inst = _box("neg", [[1, 1, 0], [-1, 0, 1]], [0, 1], [-2, -1, -1], [1, 1, 0])
    points = enumerate_lattice(inst)
    assert points == [
        p for p in itertools.product(range(-2, 2), range(-1, 2), range(-1, 1))
        if p[0] + p[1] <= 0 and p[2] - p[0] <= 1
    ]
    assert points == sorted(points) and points[0] == (-2, -1, -1)

    # w = 0: every point ties, so the lex-first one, with value 0
    provider = make_provider(inst, "lattice")
    resp = oracle_maximize(provider, [0, 0, 0])
    assert isinstance(resp, Optimal) and resp.point == points[0] and resp.value == 0

    # 2x0 + 2x2 = 1 holds no lattice point, so a run on it keeps no point
    face = provider.restrict([2, 0, 2], 1)
    assert face.points == ()
    assert isinstance(oracle_maximize(face, [1, 0, 0]), Infeasible)
    empty = affine_hull(face)
    assert (empty.dimension, empty.cache) == (-1, ())
    assert provider.points == tuple(points)


_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_BOUNDS = st.fractions(min_value=-2, max_value=2, max_denominator=2)
# a few values drawn often, so that ties among maximizers are common
_DIRECTION_ENTRIES = st.sampled_from([rat(-3, 2), rat(-1), rat(-1, 3), rat(0), rat(1, 2)]) | _COEFFS


@st.composite
def _lattice_case(draw):
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 4))
    lower = draw(st.lists(_BOUNDS, min_size=n, max_size=n))
    upper = [lo + draw(st.fractions(0, 3, max_denominator=2)) for lo in lower]
    inst = build_instance(
        name="diff",
        constraint_matrix=draw(
            st.lists(st.lists(_COEFFS, min_size=n, max_size=n), min_size=m, max_size=m)
        ),
        rhs=draw(st.lists(st.fractions(-3, 4, max_denominator=6), min_size=m, max_size=m)),
        objective=[0] * n,
        integer_vars=range(n),
        lower_bounds=lower,
        upper_bounds=upper,
    )
    directions = draw(
        st.lists(st.lists(_DIRECTION_ENTRIES, min_size=n, max_size=n), min_size=1, max_size=4)
    )
    a = draw(st.lists(_COEFFS, min_size=n, max_size=n))
    k = draw(st.integers(-4, 4))
    return inst, directions, a, k


def _check_scans(provider, points, directions):
    for w in directions:
        resp = oracle_maximize(provider, w)
        point, value = fraction_argmax(points, w)
        if point is None:
            assert isinstance(resp, Infeasible)
            continue
        assert isinstance(resp, Optimal)
        assert resp.point == point and resp.value == value
        # the first maximizer in enumeration order is the lexicographic first
        assert point == min(p for p in points if dot(w, p) == value)
        # against a bar: the argmax when it lies above the bar, else nothing
        assert oracle_maximize(provider, w, value - 1) == Above(point, value)
        assert oracle_maximize(provider, w, value) == Infeasible()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_lattice_case())
def test_integer_lattice_engine_matches_fraction_twin(case):
    """enumerate_lattice, solve, restrict and a face run's starting points
    against the Fraction twin, point for point, on fractional rows,
    bounds and directions; a hyperplane whose scaled rhs is fractional
    keeps none."""
    inst, directions, a, k = case
    points = fraction_lattice(inst)
    assert enumerate_lattice(inst) == points
    provider = make_provider(inst, "lattice")
    assert provider.points == tuple(points)
    _check_scans(provider, points, directions)

    den = math.lcm(*(c.denominator for c in a))
    base = affine_hull(provider)
    seen = tuple(fraction_argmax(points, w)[0] for w in directions if points)
    held = tuple(dict.fromkeys(base.cache + seen))
    betas = [rat(2 * k + 1, 2 * den)]  # d.beta = k + 1/2
    if points:
        betas.append(dot(a, points[k % len(points)]))
    for beta in betas:
        face = provider.restrict(a, beta)
        on_face = fraction_on_hyperplane(points, a, beta)
        assert face.points == tuple(on_face)
        start = tuple(fraction_on_hyperplane(held, a, beta))
        run = face_hull(provider, base, Inequality(a, beta), seen=seen)
        assert run.cache[: len(start)] == start
        assert all(p in on_face for p in run.cache)
        if (beta * den).denominator != 1:
            assert not on_face and not run.cache
        _check_scans(face, on_face, directions)


def test_gcd_test_answers_an_empty_face():
    # 2x0 + x1 - 2x2 + x3 = -1/2 has no integer point: scaled by 2 its
    # coefficients have gcd 2, which does not divide -1
    inst = build_instance(
        name="bezout",
        constraint_matrix=[],
        rhs=[],
        objective=[1, 0, 0, 0],
        integer_vars=range(4),
        lower_bounds=[0] * 4,
    )
    face = MipOracle(inst, node_limit=50).restrict([2, 1, -2, 1], rat(-1, 2))
    for w in ([1, 1, 1, 1], [-1, -1, -1, -1]):
        assert isinstance(oracle_maximize(face, w), Infeasible)
