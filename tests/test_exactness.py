"""The exactness contract: no float decides anything, and a value the
engines compute as an int stays an int.

`rat` and `vector` coerce to rationals only at the boundary (parsers,
instances, cuts, a user's direction).  Points, directions and rays come
out of the engines as Python ints where the engines computed them, and
`dot` sums in its inputs' own types.  These tests pin the types the
engines hand back, the boundary checks, and that no true division and no
finite float appear.
"""

import ast
import dataclasses
import math
from pathlib import Path

import pytest

import cutdim
from cutdim.analysis import analyze_instance, closed_gap
from cutdim.config import RunConfig
from cutdim.fileio import parse_cuts
from cutdim.hull import EquationSystem, affine_hull
from cutdim.linalg import dot, vector
from cutdim.model import build_instance
from cutdim.oracle import Optimal, Unbounded, make_provider, oracle_maximize
from cutdim.rational import ZERO, rat
from cutdim.solver import SolveStatus, solve_mip
from test_report_golden import CASES

RATIONAL = type(ZERO)
ENGINES = ("solver", "lattice")


def knapsack():
    # pure integer and boxed; the LP optimum is fractional, so the solver branches
    return build_instance(
        name="knap3",
        constraint_matrix=[[3, 4, 2]],
        rhs=[7],
        objective=[5, 4, 3],
        integer_vars=(0, 1, 2),
        lower_bounds=[0, 0, 0],
        upper_bounds=[2, 2, 2],
    )


def wedge():
    # x, y >= 0 integer with |x - y| <= 2: unbounded along (1, 1)
    return build_instance(
        name="wedge",
        constraint_matrix=[[1, -1], [-1, 1]],
        rhs=[2, 2],
        objective=[1, 1],
        integer_vars=(0, 1),
        lower_bounds=[0, 0],
    )


def mixed():
    # x0 integer in [0, 3]; x1 continuous, only bounded above by 5/2, so the
    # simplex reads it back as 5/2 - y; 2x0 + 2x1 <= 7 makes optima fractional
    return build_instance(
        name="mixed",
        constraint_matrix=[[2, 2], [0, -1]],
        rhs=[7, 0],
        objective=[1, 1],
        integer_vars=(0,),
        lower_bounds=[0, None],
        upper_bounds=[3, "5/2"],
    )


def _all_ints(points) -> bool:
    return all(type(v) is int for p in points for v in p)


def test_no_true_division_in_the_package():
    """`/` on two ints is a float; exact code divides with `rat(num, den)`."""
    package = Path(cutdim.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert found == []


def test_closed_gap_on_ints_is_rational():
    gap = closed_gap(7, 10, 4)
    assert type(gap) is RATIONAL and gap == rat(1, 2)


def test_dot_sums_in_its_inputs_types():
    assert type(dot((1, 2), (3, 4))) is int and dot((1, 2), (3, 4)) == 11
    mixed_sum = dot((rat(1, 2), 2), (3, 4))
    assert type(mixed_sum) is RATIONAL and mixed_sum == rat(19, 2)
    assert dot((), ()) == 0
    # the boundary still coerces everything to rationals
    assert all(type(v) is RATIONAL for v in vector([1, "1/2", rat(3)]))


def test_equation_rows_keep_ints_and_refuse_floats():
    eqs = EquationSystem().with_equation((1, -2), 3)
    assert eqs.rows == ((1, -2),) and _all_ints(eqs.rows)
    assert type(eqs.rhs[0]) is RATIONAL
    eqs = eqs.with_equation(("1/2", 1), "3/2")
    assert eqs.rows[1] == (rat(1, 2), 1) and type(eqs.rows[1][0]) is RATIONAL
    with pytest.raises(TypeError):
        EquationSystem().with_equation((0.5, 1), 1)


@pytest.mark.parametrize("engine", ENGINES)
def test_oracle_direction_is_checked_at_the_boundary(engine):
    provider = make_provider(knapsack(), engine)
    with pytest.raises(TypeError):
        oracle_maximize(provider, [0.5, 1, 1])
    resp = oracle_maximize(provider, ["1/2", 1, 1])
    assert isinstance(resp, Optimal)
    assert resp.point == (1, 0, 2) and resp.value == rat(5, 2)
    assert type(resp.value) is RATIONAL


@pytest.mark.parametrize("engine", ENGINES)
def test_pure_integer_points_are_ints(engine):
    inst = knapsack()
    provider = make_provider(inst, engine)
    resp = oracle_maximize(provider, inst.objective)
    assert isinstance(resp, Optimal) and resp.value == 11
    assert _all_ints([resp.point])
    hull = affine_hull(provider)
    assert hull.dimension == 3
    assert _all_ints(hull.points)
    assert _all_ints(provider.cache) and len(provider.cache) > 1


def test_solver_points_and_rays_are_ints():
    result = solve_mip(knapsack())
    assert result.status is SolveStatus.OPTIMAL and result.node_count > 1
    assert _all_ints([result.best_point])

    result = solve_mip(wedge())
    assert result.status is SolveStatus.UNBOUNDED
    assert result.ray == (1, 1)
    assert _all_ints([result.best_point, result.ray])

    provider = make_provider(wedge())
    resp = oracle_maximize(provider, (1, 1))
    assert isinstance(resp, Unbounded) and _all_ints([resp.ray, resp.witness])
    hull = affine_hull(provider)
    assert hull.dimension == 2 and _all_ints(hull.points)


def test_mixed_integer_points_verify_exactly():
    inst = mixed()
    assert inst.integer_bounds == ((0, None), (3, rat(5, 2)))
    assert type(inst.integer_bounds[0][0]) is int and type(inst.integer_bounds[1][1]) is RATIONAL
    provider = make_provider(inst)
    resp = oracle_maximize(provider, (1, 1))  # verified on the way out
    assert isinstance(resp, Optimal) and resp.value == rat(7, 2)
    assert type(resp.point[0]) is int and resp.point[1].denominator == 2
    assert inst.is_feasible_point(resp.point)
    assert dot(inst.objective, resp.point) == resp.value
    hull = affine_hull(provider)
    assert hull.dimension == 2
    for p in hull.points + provider.cache:
        assert inst.is_feasible_point(p)
        assert type(p[0]) is int


def _floats(value, path: str) -> list:
    """Paths to the finite floats inside `value`; +-inf are the only
    floats a result may hold (sentinels, compared and never computed on)."""
    if isinstance(value, float):
        return [] if math.isinf(value) else [path]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [
            p
            for f in dataclasses.fields(value)
            for p in _floats(getattr(value, f.name), f"{path}.{f.name}")
        ]
    if isinstance(value, (tuple, list)):
        return [p for i, v in enumerate(value) for p in _floats(v, f"{path}[{i}]")]
    return []


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_analyses_hold_no_float(case):
    build, cut_text, settings = CASES[case]
    inst = build()
    analysis = analyze_instance(inst, parse_cuts(cut_text, inst.num_vars), RunConfig(**settings))
    assert _floats(analysis, "analysis") == []
    assert _floats(analysis.histogram(), "histogram") == []
    if case.startswith("knapsack"):
        assert analysis.impact is not None and analysis.impact.runs
