import random

import pytest

from cutdim.linalg import dot
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


def test_query_counting_and_cache_population():
    cache = PointCache(knapsack())
    oracle = MipOracle(knapsack(), cache=cache)
    oracle_maximize(oracle, [5, 4])
    oracle_maximize(oracle, [-1, -1])
    assert oracle.query_count == 2
    assert len(cache) == 2
    for p in cache.points():
        assert knapsack().is_feasible_point(p)


def test_soundness_guard_rejects_bad_points():
    cache = PointCache(knapsack())
    with pytest.raises(OracleSoundnessError):
        cache.add((1, 1))  # violates the knapsack row


def test_cache_checks_each_new_point_once(monkeypatch):
    calls = []
    check = MipInstance.is_feasible_point

    def counting(self, point):
        calls.append(point)
        return check(self, point)

    monkeypatch.setattr(MipInstance, "is_feasible_point", counting)
    cache = PointCache(knapsack())
    assert cache.add((1, 0)) and len(calls) == 1
    assert cache.add((1, 0)) is False and len(calls) == 1  # held: not checked again
    with pytest.raises(OracleSoundnessError):
        cache.add((1, 1))
    assert len(calls) == 2 and len(cache) == 1


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
    lattice.cache.add((1, 1))  # infeasible, but insert checks are off too
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


def test_restrict_stacks_equations():
    oracle = MipOracle(square()).restrict([1, 1], 2)
    resp = oracle_maximize(oracle, [1, 0])
    assert isinstance(resp, Optimal)
    assert resp.point == (rat(1), rat(1))  # only (1,1) satisfies x+y=2
    resp = oracle_maximize(oracle.restrict([1, 0], 0), [1, 0])
    assert isinstance(resp, Infeasible)  # x=0 and x+y=2 and y<=1 clash


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
    inst = square()
    cache = PointCache(inst)
    assert cache_probe(cache, [1, 0]) is None  # empty cache

    cache.add((0, 0))
    cache.add((1, 1))
    # pair mode: two cached points with distinct d-values
    assert cache_probe(cache, [1, 0]) is not None
    # gamma mode: a point with d.p != gamma
    p = cache_probe(cache, [1, 0], gamma=rat(0))
    assert p is not None and dot([1, 0], p) != 0
    # face restriction: only (1,1) lies on x+y=2, one point cannot witness
    face = Inequality([1, 1], 2)
    assert cache_probe(cache, [1, 0], face=face) is None
    # with gamma given, the single on-face point can witness
    p = cache_probe(cache, [1, 0], gamma=rat(0), face=face)
    assert p == (rat(1), rat(1))


def test_cache_probe_face_points_lie_on_face():
    rng = random.Random(47)
    inst = random_instance(rng, name="probe")
    cache = PointCache(inst)
    for p in enumerate_lattice(inst):
        cache.add(p)
    a = [rng.randint(-3, 3) for _ in range(inst.num_vars)]
    beta = max(dot(a, p) for p in cache.points())
    face = Inequality(a, beta)
    p = cache_probe(cache, [1] * inst.num_vars, gamma=rat(10**9), face=face)
    if p is not None:
        assert dot(a, p) == beta


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
    cache = PointCache(square())
    cache.add((0, 0))
    clone = cache.snapshot()
    cache.add((1, 1))
    assert len(clone) == 1 and len(cache) == 2
    clone.add((0, 1))
    assert len(cache) == 2
