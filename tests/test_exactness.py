"""The exactness contract: no float decides anything, and every value is
an int when it is integral and a rational otherwise.

`exact_vector` applies that rule at the boundary (parsers, instances,
cuts, a user's direction).  Points, directions and rays come out of
the engines as Python ints where the engines computed them, and `dot`
sums in its inputs' own types.  These tests pin the types the
engines hand back, the boundary checks, and that no true division and no
finite float appear.
"""

import ast
import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutdim
from cutdim.analysis import analyze_instance, closed_gap
from cutdim.config import RunConfig
from cutdim.fileio import parse_cuts
from cutdim.hull import EquationSystem, affine_hull
from cutdim.linalg import dot, exact_vector
from cutdim.model import build_instance
from cutdim.oracle import Optimal, Unbounded, make_provider, oracle_maximize
from cutdim.rational import rat, rat_str
from cutdim.solver import SolveStatus, solve_mip
from test_report_golden import CASES

RATIONAL = type(rat(0))
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
    # the boundary keeps integral entries as ints and the others as rationals
    row = exact_vector([1, "1/2", rat(3), "4"])
    assert row == (1, rat(1, 2), 3, 4)
    assert [type(v) for v in row] == [int, RATIONAL, int, int]
    with pytest.raises(TypeError):
        exact_vector([1, 0.5])


def test_equation_rows_keep_ints_and_refuse_floats():
    eqs = EquationSystem().with_equation((1, -2), 3)
    assert eqs.rows == ((1, -2),) and _all_ints(eqs.rows)
    assert eqs.rhs == (3,) and type(eqs.rhs[0]) is int
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
    assert _all_ints(hull.cache) and len(hull.cache) > 1


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
    assert (inst.lower_bounds, inst.upper_bounds) == ((0, None), (3, rat(5, 2)))
    assert type(inst.lower_bounds[0]) is int and type(inst.upper_bounds[1]) is RATIONAL
    provider = make_provider(inst)
    resp = oracle_maximize(provider, (1, 1))  # verified on the way out
    assert isinstance(resp, Optimal) and resp.value == rat(7, 2)
    assert type(resp.point[0]) is int and resp.point[1].denominator == 2
    assert inst.is_feasible_point(resp.point)
    assert dot(inst.objective, resp.point) == resp.value
    hull = affine_hull(provider)
    assert hull.dimension == 2
    for p in hull.points + hull.cache:
        assert inst.is_feasible_point(p)
        assert type(p[0]) is int


def test_engines_answer_one_value_type():
    inst = knapsack()
    for w in (inst.objective, (2, 0, 0), ("1/2", 1, 1)):
        values = [oracle_maximize(make_provider(inst, engine), w).value for engine in ENGINES]
        assert values[0] == values[1] and type(values[0]) is type(values[1])
        assert (type(values[0]) is int) == (values[0].denominator == 1)


_ENTRY = st.builds(rat, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))


@st.composite
def _instance_data(draw):
    """A small boxed instance as rationals: objective, rows, rhs, bounds."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 2))
    lower = [draw(_ENTRY) for _ in range(n)]
    upper = [lo + draw(st.integers(0, 2)) + draw(st.sampled_from([0, rat(1, 2)])) for lo in lower]
    return {
        "constraint_matrix": [[draw(_ENTRY) for _ in range(n)] for _ in range(m)],
        "rhs": [draw(_ENTRY) + 2 for _ in range(m)],
        "objective": [draw(_ENTRY) for _ in range(n)],
        "integer_vars": draw(st.sets(st.integers(0, n - 1))),
        "lower_bounds": lower,
        "upper_bounds": upper,
    }


def _spelled(data, spell):
    """`data` with every number written by `spell`."""
    vectors = {key: list(map(spell, data[key])) for key in ("rhs", "objective", "lower_bounds", "upper_bounds")}
    matrix = [list(map(spell, row)) for row in data["constraint_matrix"]]
    return {**data, **vectors, "constraint_matrix": matrix}


# ints where integral, Fractions throughout, strings throughout
_SPELLINGS = (lambda v: v.numerator if v.denominator == 1 else v, lambda v: v, rat_str)


def _entries(inst) -> list:
    rows = (v for row in inst.constraint_matrix for v in row)
    return [*inst.objective, *rows, *inst.rhs, *inst.lower_bounds, *inst.upper_bounds]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_instance_data())
def test_every_spelling_builds_the_one_form(data):
    """An instance spelled with ints, Fractions or strings builds the same
    instance, each entry an int exactly when it is integral, and the
    integer rows, the MIP answer and the hull dimension agree."""
    answers = []
    for spell in _SPELLINGS:
        inst = build_instance("spelled", **_spelled(data, spell))
        assert all((type(v) is int) == (v.denominator == 1) for v in _entries(inst))
        result = solve_mip(inst)
        answers.append((
            inst, inst.integer_rows, result.status, result.best_point, result.primal_value,
            affine_hull(make_provider(inst)).dimension,
        ))
    assert answers[0] == answers[1] == answers[2]


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
