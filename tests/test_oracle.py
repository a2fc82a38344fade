import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutdim.hull import affine_hull, face_hull
from cutdim.linalg import dot, scaled_row
from cutdim.model import Inequality, MipInstance, build_instance
from cutdim.oracle import (
    BruteForceOracle,
    Infeasible,
    MipOracle,
    Optimal,
    OracleInconclusive,
    OracleSoundnessError,
    PointCache,
    Unbounded,
    cache_probe,
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

    def solve(self, w):
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
    oracle = BadWitnessOracle(halfline, cache=PointCache())
    with pytest.raises(OracleSoundnessError, match="witness is infeasible"):
        oracle_maximize(oracle, [1])
    assert len(oracle.cache) == 0


def test_query_counting_and_cache_population():
    cache = PointCache()
    oracle = MipOracle(knapsack(), cache=cache)
    oracle_maximize(oracle, [5, 4])
    oracle_maximize(oracle, [-1, -1])
    assert oracle.query_count == 2
    assert len(cache) == 2
    for p in cache.points():
        assert knapsack().is_feasible_point(p)


class InfeasibleOracle(MipOracle):
    """Answers every query with (1, 1), which violates the knapsack row."""

    def solve(self, w):
        return Optimal((rat(1), rat(1)), dot(w, (1, 1)))


def test_soundness_guard_rejects_bad_points():
    oracle = InfeasibleOracle(knapsack(), cache=PointCache())
    with pytest.raises(OracleSoundnessError, match="violates the instance"):
        oracle_maximize(oracle, [1, 1])
    assert len(oracle.cache) == 0  # the check runs before the insert


def test_feasibility_checked_once_per_optimal_response(monkeypatch):
    calls = []
    check = MipInstance.is_feasible_point

    def counting(self, point):
        calls.append(point)
        return check(self, point)

    monkeypatch.setattr(MipInstance, "is_feasible_point", counting)
    provider = make_provider(knapsack(), "lattice")
    for w in ([5, 4], [-1, -1], [5, 4]):  # two new points, then a held one
        oracle_maximize(provider, w)
    assert len(calls) == 3 and len(provider.cache) == 2
    unchecked = make_provider(knapsack(), "lattice", verify=False)
    oracle_maximize(unchecked, [5, 4])
    assert len(calls) == 3 and len(unchecked.cache) == 1


class MisreportingOracle(MipOracle):
    """Answers every query with a feasible point and a value it does not have."""

    def solve(self, w):
        return Optimal((rat(0), rat(0)), rat(7))


def test_verify_switch_reaches_response_checks():
    with pytest.raises(OracleSoundnessError):
        oracle_maximize(MisreportingOracle(knapsack()), [1, 1])
    resp = oracle_maximize(MisreportingOracle(knapsack(), verify=False), [1, 1])
    assert resp.value == 7


def test_make_provider_engines_and_verify_switch():
    solver = make_provider(knapsack(), "solver", time_limit=5.0, node_limit=9)
    assert isinstance(solver, MipOracle) and solver.verify
    assert (solver.time_limit, solver.node_limit) == (5.0, 9)
    lattice = make_provider(knapsack(), "lattice", verify=False)
    assert isinstance(lattice, BruteForceOracle) and not lattice.verify
    lattice.cache.add((1, 1))  # infeasible: the cache itself checks nothing
    with pytest.raises(ValueError, match="engine"):
        make_provider(knapsack(), "simplex")


def test_with_cache_keeps_settings_and_counts_apart():
    provider = make_provider(square(), "lattice")
    oracle_maximize(provider, [1, 1])
    local = provider.with_cache(provider.cache.snapshot())
    oracle_maximize(local, [-1, -1])
    assert local.points is provider.points  # no second enumeration
    assert (provider.query_count, local.query_count) == (1, 1)
    assert len(provider.cache) == 1 and len(local.cache) == 2
    assert provider.with_cache(None).cache is None


def test_each_provider_compiles_one_program(monkeypatch):
    """A provider's queries share its compiled program: a base hull and a
    face run build one each, and `with_cache` copies share the base one."""
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

    solves = []  # (program, objective, options, result) of every oracle solve

    def recorded_solve_mip(inst, objective=None, options=None, program=None):
        result = solve_mip(inst, objective, options, program)
        solves.append((program, objective, options, result))
        return result

    monkeypatch.setattr(LinearProgram, "__init__", counted_init)
    monkeypatch.setattr("cutdim.oracle.solve_mip", recorded_solve_mip)
    provider = MipOracle(inst, cache=PointCache())
    base = affine_hull(provider)
    clone = provider.with_cache(provider.cache.snapshot())
    assert clone.program is provider.program
    oracle_maximize(clone, [1, 1, 0, 0])  # beta_true of x0 + x1 <= 1
    face = face_hull(clone, base, Inequality([1, 1, 0, 0], 1))
    assert (base.dimension, face.dimension) == (4, 3)

    assert len(built) == 2 and built[0] is provider.program
    queries = base.oracle_queries + 1
    assert [program for program, *_ in solves] == (
        [provider.program] * queries + [built[1]] * face.oracle_queries
    )
    monkeypatch.undo()
    for program, objective, options, result in solves:
        fresh = LinearProgram(program.num_vars, program.ineq, program.eq)
        assert solve_mip(inst, objective, options, fresh) == result


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


def test_cache_probe_modes():
    cache = PointCache()
    assert cache_probe(cache, [1, 0], gamma=rat(0)) is None  # empty cache

    cache.add((0, 0))
    assert cache_probe(cache, [1, 0], gamma=rat(0)) is None  # no d-value differs
    cache.add((1, 1))
    cache.add((1, 0))
    # the first point with d.p != gamma, in first-seen order
    assert cache_probe(cache, [1, 0], gamma=rat(0)) == (rat(1), rat(1))
    assert cache_probe(cache, [0, 1], gamma=rat(1)) == (rat(0), rat(0))


def test_restrict_keeps_the_parents_points_on_the_face():
    rng = random.Random(47)
    inst = random_instance(rng, name="probe")
    provider = make_provider(inst, "lattice")
    for _ in range(12):
        oracle_maximize(provider, [rng.randint(-3, 3) for _ in range(inst.num_vars)])
    held = provider.cache.points()
    a = [rng.randint(-3, 3) for _ in range(inst.num_vars)]
    beta = max(dot(a, p) for p in held)
    face = provider.restrict(a, beta)
    on_face = tuple(p for p in held if dot(a, p) == beta)
    assert face.cache.points() == on_face and on_face
    assert face.points == tuple(p for p in provider.points if dot(a, p) == beta)

    for _ in range(12):
        oracle_maximize(face, [rng.randint(-3, 3) for _ in range(inst.num_vars)])
    new = face.cache.points()[len(on_face):]
    assert face.cache.points()[: len(on_face)] == on_face
    assert new and all(dot(a, p) == beta and p not in held for p in new)
    assert provider.cache.points() == held  # face points stay out of the parent
    assert provider.with_cache(None).restrict(a, beta).cache is None  # cold stays cold


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


def test_snapshot_isolation():
    cache = PointCache()
    cache.add((0, 0))
    clone = cache.snapshot()
    cache.add((1, 1))
    assert len(clone) == 1 and len(cache) == 2
    clone.add((0, 1))
    assert len(cache) == 2


_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_BOUNDS = st.fractions(min_value=-2, max_value=2, max_denominator=2)
# a few values drawn often, so that ties among maximizers are common
_DIRECTION_ENTRIES = st.sampled_from([rat(-3, 2), rat(-1), rat(-1, 3), rat(0), rat(1, 2)]) | _COEFFS


@st.composite
def _lattice_case(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_lattice_case())
def test_integer_lattice_engine_matches_fraction_twin(case):
    """enumerate_lattice, solve, restrict and the cache filter against the
    Fraction twin, point for point, on fractional rows, bounds and
    directions; a hyperplane whose scaled rhs is fractional keeps none."""
    inst, directions, a, k = case
    points = fraction_lattice(inst)
    assert enumerate_lattice(inst) == points
    provider = make_provider(inst, "lattice")
    assert provider.points == tuple(points)
    _check_scans(provider, points, directions)

    den = math.lcm(*(c.denominator for c in a))
    held = provider.cache.points()
    betas = [rat(2 * k + 1, 2 * den)]  # d.beta = k + 1/2
    if points:
        betas.append(dot(a, points[k % len(points)]))
    for beta in betas:
        face = provider.restrict(a, beta)
        on_face = fraction_on_hyperplane(points, a, beta)
        assert face.points == tuple(on_face)
        assert face.cache.points() == tuple(fraction_on_hyperplane(held, a, beta))
        if (beta * den).denominator != 1:
            assert not on_face and not face.cache.points()
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
