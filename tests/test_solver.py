import math
import random
import time

import pytest

from cutdim.linalg import dot, scaled_row
from cutdim.model import build_instance
from cutdim.oracle import enumerate_lattice
from cutdim.rational import rat
from cutdim.selftest import random_instance
from cutdim.solver import (
    SolveOptions,
    SolveStatus,
    solve_lp_relaxation,
    solve_mip,
)


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


def assert_trace_contract(res):
    assert [i for i, _ in res.trace] == list(range(1, res.node_count + 1))
    bounds = [b for _, b in res.trace]
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))  # non-increasing
    assert bounds[-1] == res.dual_bound


def test_knapsack_optimum():
    res = solve_mip(knapsack())
    assert res.status is SolveStatus.OPTIMAL
    assert res.primal_value == 5
    assert res.best_point == (rat(1), rat(0))
    assert res.dual_bound == res.primal_value


def test_lp_relaxation_value():
    res = solve_lp_relaxation(knapsack())
    assert res.value == rat(23, 3)


def test_infeasible_instance():
    inst = build_instance(
        name="empty",
        constraint_matrix=[[1], [-1]],
        rhs=[0, -1],  # x <= 0 and x >= 1
        objective=[1],
        integer_vars=(0,),
    )
    res = solve_mip(inst)
    assert res.status is SolveStatus.INFEASIBLE
    assert res.node_count >= 1


def test_unbounded_instance_returns_ray():
    inst = build_instance(
        name="halfline",
        constraint_matrix=[],
        rhs=[],
        objective=[1],
        integer_vars=(0,),
        lower_bounds=[0],
    )
    res = solve_mip(inst)
    assert res.status is SolveStatus.UNBOUNDED
    assert res.ray is not None and res.ray[0] > 0


def test_unbounded_ray_keeps_its_sign():
    # x integer and free with x <= 1: minimizing x is unbounded along -x
    inst = build_instance(
        name="ceiling",
        constraint_matrix=[[1]],
        rhs=[1],
        objective=[1],
        integer_vars=(0,),
    )
    res = solve_mip(inst, objective=[-1])
    assert res.status is SolveStatus.UNBOUNDED and res.ray == (-1,)


def test_unbounded_root_probe_carries_extra_rows():
    # x free with x >= 0, y and z in {0, 1}: the root LP is unbounded along x
    inst = build_instance(
        name="halfline",
        constraint_matrix=[[-1, 0, 0]],
        rhs=[0],
        objective=[1, 0, 0],
        integer_vars=(1, 2),
        lower_bounds=[None, 0, 0],
        upper_bounds=[None, 1, 1],
    )
    half = rat(1, 2)

    def solve(**extra):
        return solve_mip(inst, options=SolveOptions(**extra))

    res = solve()
    assert res.status is SolveStatus.UNBOUNDED and res.ray == (1, 0, 0)
    # y = z and y + z = 1 meet only at y = z = 1/2; each row alone has
    # integer points, so no gcd test decides them and branching must
    res = solve(extra_equations=(scaled_row((0, 1, -1), 0), scaled_row((0, 1, 1), 1)))
    assert res.status is SolveStatus.INFEASIBLE and res.node_count > 2
    assert_trace_contract(res)
    assert res.trace[0][1] == math.inf and res.dual_bound == -math.inf
    pair = (scaled_row((0, 1, 0), half), scaled_row((0, -1, 0), -half))
    assert solve(extra_constraints=pair).status is SolveStatus.INFEASIBLE
    res = solve(extra_constraints=(scaled_row((0, 1, 0), 0),))
    assert res.status is SolveStatus.UNBOUNDED and res.best_point[1] == 0


def strip():
    # 2x - 2y = 1 has no integer point; the relaxation is unbounded along (1, 1)
    return build_instance(
        name="strip",
        constraint_matrix=[[2, -2], [-2, 2]],
        rhs=[1, -1],
        objective=[1, 0],
        integer_vars=(0, 1),
    )


def test_unbounded_root_search_obeys_node_limit():
    start = time.monotonic()
    res = solve_mip(strip(), options=SolveOptions(node_limit=50, time_limit=5.0))
    assert time.monotonic() - start < 1.0
    assert res.status is SolveStatus.NODE_LIMIT and res.node_count == 50
    assert res.best_point is None and res.ray is None
    assert res.primal_value == -math.inf and res.dual_bound == math.inf


def test_unbounded_root_trace_contract():
    # x >= 1 and 1 <= 7x - 4y <= 2: the zero-objective search branches
    # before it finds a point, so the root is counted twice plus the tree
    inst = build_instance(
        name="slope",
        constraint_matrix=[[-1, 0], [7, -4], [-7, 4]],
        rhs=[-1, 2, -1],
        objective=[1, 0],
        integer_vars=(0, 1),
    )
    res = solve_mip(inst)
    assert res.status is SolveStatus.UNBOUNDED and res.node_count > 2
    assert inst.is_feasible_point(res.best_point) and res.ray == (4, 7)
    assert_trace_contract(res)
    assert {b for _, b in res.trace} == {math.inf}


def test_trace_contract():
    res = solve_mip(knapsack())
    assert_trace_contract(res)
    assert res.dual_bound == res.primal_value  # solved to optimality


def test_determinism():
    rng = random.Random(31)
    for _ in range(10):
        inst = random_instance(rng, name="det")
        a = solve_mip(inst)
        b = solve_mip(inst)
        assert a == b


def test_incumbent_injection():
    inst = knapsack()
    res = solve_mip(inst, options=SolveOptions(incumbent=(1, 0)))
    assert res.primal_value == 5
    # a feasible but suboptimal incumbent never worsens the result
    res = solve_mip(inst, options=SolveOptions(incumbent=(0, 1)))
    assert res.primal_value == 5
    with pytest.raises(ValueError):
        solve_mip(inst, options=SolveOptions(incumbent=(1, 1)))  # infeasible


def test_node_limit():
    inst = random_instance(random.Random(37), min_vars=4, max_vars=5, name="lim")
    res = solve_mip(inst, options=SolveOptions(node_limit=1))
    assert res.node_count <= 1
    if res.status is SolveStatus.NODE_LIMIT:
        assert res.dual_bound >= res.primal_value


def test_extra_constraints_and_equations():
    inst = knapsack()
    cut = scaled_row((1, 1), 1)
    res = solve_mip(inst, options=SolveOptions(extra_constraints=(cut,)))
    assert res.status is SolveStatus.OPTIMAL
    assert res.primal_value == 5  # (1,0) still feasible

    res = solve_mip(inst, options=SolveOptions(extra_equations=(scaled_row((1, 1), 1),)))
    assert res.status is SolveStatus.OPTIMAL
    assert dot((1, 1), res.best_point) == 1


def test_objective_override():
    res = solve_mip(knapsack(), objective=[0, 1])
    assert res.primal_value == 1
    assert res.best_point[1] == 1


def test_differential_against_enumeration():
    """Optimum must equal the exhaustive lattice maximum, 120 cases."""
    rng = random.Random(41)
    for i in range(120):
        inst = random_instance(rng, name=f"diff{i}", require_nonempty=False)
        points = enumerate_lattice(inst)
        res = solve_mip(inst)
        if not points:
            assert res.status is SolveStatus.INFEASIBLE, f"case {i}"
            continue
        want = max(dot(inst.objective, p) for p in points)
        assert res.status is SolveStatus.OPTIMAL, f"case {i}: {res.status}"
        assert res.primal_value == want, f"case {i}"
        assert inst.is_feasible_point(res.best_point), f"case {i}"


def test_nontermination_guard():
    # unbounded LP relaxation with empty integer set: only the limits stop it
    inst = build_instance(
        name="spin",
        constraint_matrix=[[1, -3], [-1, 3]],
        rhs=[rat(1, 3), rat(-1, 3)],  # x - 3z = 1/3 has no integer solution
        objective=[1, 0],
        integer_vars=(0, 1),
    )
    res = solve_mip(inst, options=SolveOptions(time_limit=1.0))
    assert res.status is SolveStatus.TIME_LIMIT


def test_gcd_test_proves_an_equation_without_integer_points():
    # 2x0 + x1 - 2x2 + x3 = -1/2 scales to 4x0 + 2x1 - 4x2 + 2x3 = -1,
    # and gcd 2 does not divide -1: no integer point, whatever the bounds
    eq = (scaled_row((2, 1, -2, 1), rat(-1, 2)),)
    inst = build_instance(
        name="bezout",
        constraint_matrix=[],
        rhs=[],
        objective=[1, 0, 0, 0],
        integer_vars=range(4),
        lower_bounds=[0] * 4,
    )
    res = solve_mip(inst, options=SolveOptions(extra_equations=eq, node_limit=50))
    assert res.status is SolveStatus.INFEASIBLE
    assert (res.node_count, res.trace, res.best_point) == (0, (), None)
    assert res.primal_value == res.dual_bound == -math.inf
    # a continuous x3 meets the row, and the search runs as before
    mixed = build_instance(
        name="bezout-mixed",
        constraint_matrix=[],
        rhs=[],
        objective=[1, 0, 0, 0],
        integer_vars=range(3),
        lower_bounds=[0] * 4,
    )
    res = solve_mip(mixed, options=SolveOptions(extra_equations=eq, node_limit=50))
    assert res.status is SolveStatus.UNBOUNDED and res.node_count > 0
