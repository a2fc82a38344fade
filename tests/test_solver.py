import dataclasses
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutdim import oracle
from cutdim.hull import affine_hull
from cutdim.linalg import dot, scaled_row
from cutdim.model import build_instance
from cutdim.oracle import Infeasible, MipOracle, enumerate_lattice
from cutdim.rational import rat
from cutdim.selftest import QueryLog, max_decided, random_instance
from cutdim.simplex import LinearProgram, solve_lp
from cutdim.solver import (
    SolveOptions,
    SolveStatus,
    _grid,
    _pick_branch_variable,
    program_for,
    solve_lp_relaxation,
    solve_mip,
)

from helpers import fraction_feasible, fraction_lattice, mixed_vertices, reference_lp, stein27


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

    def solve(cuts=(), equations=()):
        return solve_mip(inst, program=program_for(inst, cuts, equations))

    res = solve()
    assert res.status is SolveStatus.UNBOUNDED and res.ray == (1, 0, 0)
    # y = z and y + z = 1 meet only at y = z = 1/2; each row alone has
    # integer points, so no gcd test decides them and branching must
    res = solve(equations=(scaled_row((0, 1, -1), 0), scaled_row((0, 1, 1), 1)))
    assert res.status is SolveStatus.INFEASIBLE and res.node_count > 2
    assert_trace_contract(res)
    assert res.trace[0][1] == math.inf and res.dual_bound == -math.inf
    pair = (scaled_row((0, 1, 0), half), scaled_row((0, -1, 0), -half))
    assert solve(cuts=pair).status is SolveStatus.INFEASIBLE
    res = solve(cuts=(scaled_row((0, 1, 0), 0),))
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


_REJECTED = {
    "solve_lp-missing-rhs": lambda: solve_lp([1, 1], [[1, 1]], []),
    "short-inequality-row": lambda: LinearProgram(2, [scaled_row([1], 1)]),
    "short-equation-row": lambda: LinearProgram(2, eq=[scaled_row([1], 1)]),
    "program-objective-length": lambda: LinearProgram(2).solve([1, 2, 3]),
    "solve_mip-objective-length": lambda: solve_mip(knapsack(), [1, 2, 3]),
    "bound-vector-length": lambda: solve_lp([1, 1], lower=[0]),
    "program-for-another-instance": lambda: solve_mip(
        knapsack(), program=program_for(build_instance("two-rows", [[1, 0], [0, 1]], [1, 1], [1, 1]))
    ),
    "relaxation-with-extra-rows": lambda: solve_lp_relaxation(
        knapsack(), program_for(knapsack(), cuts=(scaled_row([1, 1], 1),))
    ),
    "incumbent-violates-a-cut": lambda: solve_mip(
        knapsack(),
        options=SolveOptions(incumbent=(1, 0)),
        program=program_for(knapsack(), cuts=(scaled_row([1, 0], 0),)),
    ),
    "incumbent-violates-an-equation": lambda: solve_mip(
        knapsack(),
        options=SolveOptions(incumbent=(1, 0)),
        program=program_for(knapsack(), equations=(scaled_row([0, 1], 1),)),
    ),
    "incumbent-and-cutoff": lambda: solve_mip(
        knapsack(), options=SolveOptions(incumbent=(1, 0)), cutoff=4
    ),
}


@pytest.mark.parametrize("call", _REJECTED.values(), ids=_REJECTED.keys())
def test_inputs_that_do_not_fit_are_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_a_cutoff_prunes_by_its_grid_and_stops_at_the_first_point_above_it():
    # 2x + 2y <= 3 on the unit square: the LP bound 3/2 floors to 1 on the grid
    inst = build_instance(
        "half", [[2, 2]], [3], [1, 1], integer_vars=(0, 1), lower_bounds=[0, 0], upper_bounds=[1, 1]
    )
    on = SolveOptions(objective_grid=True)
    plain, grid = solve_mip(inst, cutoff=1), solve_mip(inst, options=on, cutoff=1)
    assert plain.status is grid.status is SolveStatus.INFEASIBLE
    assert plain.best_point is grid.best_point is None
    assert grid.node_count == 1 < plain.node_count  # the root's children floor to the cutoff
    full, found = solve_mip(inst), solve_mip(inst, cutoff=0)
    assert (full.status, found.status) == (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)
    assert found.best_point == (1, 0) and found.primal_value == 1
    assert found.node_count < full.node_count  # the first point above 0 ends the run


def test_node_limit():
    inst = random_instance(random.Random(37), min_vars=4, max_vars=5, name="lim")
    res = solve_mip(inst, options=SolveOptions(node_limit=1))
    assert res.node_count <= 1
    if res.status is SolveStatus.NODE_LIMIT:
        assert res.dual_bound >= res.primal_value


def test_extra_constraints_and_equations():
    inst = knapsack()
    cut = scaled_row((1, 1), 1)
    res = solve_mip(inst, program=program_for(inst, cuts=(cut,)))
    assert res.status is SolveStatus.OPTIMAL
    assert res.primal_value == 5  # (1,0) still feasible

    res = solve_mip(inst, program=program_for(inst, equations=(scaled_row((1, 1), 1),)))
    assert res.status is SolveStatus.OPTIMAL
    assert dot((1, 1), res.best_point) == 1


def test_objective_override():
    res = solve_mip(knapsack(), objective=[0, 1])
    assert res.primal_value == 1
    assert res.best_point[1] == 1


def test_deep_tree_on_a_wide_tableau():
    """stein27's 117-row tableau to a 40-node limit, with the grid: the
    one wide, deep tree in the fast tests, pinned to its known end."""
    res = solve_mip(stein27(), options=SolveOptions(node_limit=40, objective_grid=True))
    assert (res.status, res.node_count, res.dual_bound) == (
        SolveStatus.NODE_LIMIT, 40, Fraction(-27, 2)
    )


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
    limit = SolveOptions(node_limit=50)
    res = solve_mip(inst, options=limit, program=program_for(inst, equations=eq))
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
    res = solve_mip(mixed, options=limit, program=program_for(mixed, equations=eq))
    assert res.status is SolveStatus.UNBOUNDED and res.node_count > 0


_BOXES = st.sampled_from(((0, 1), (0, 1), (0, 2), (-1, 1)))
_COEFFS = st.integers(-3, 3)
_SHAPES = st.sampled_from(((2, 1), (1, 1), (2, 0), (0, 1), (1, 0), (0, 0)))  # (cuts, equations)


@st.composite
def _rows_case(draw):
    """A pure-integer instance on a small box, an objective, 0-2 cuts and
    0-1 equations, each extra row as rational (a, b)."""
    n = draw(st.integers(2, 4))
    lower, upper = zip(*(draw(_BOXES) for _ in range(n)))
    vectors = st.lists(_COEFFS, min_size=n, max_size=n)
    rows = draw(st.lists(vectors, max_size=2))
    inst = build_instance(
        name="rows",
        constraint_matrix=rows,
        rhs=[draw(st.integers(-1, 3)) for _ in rows],
        objective=draw(vectors),
        integer_vars=range(n),
        lower_bounds=lower,
        upper_bounds=upper,
    )
    point = [draw(st.integers(lo, hi)) for lo, hi in zip(lower, upper)]
    offsets = st.sampled_from((0, 0, 1, -1, Fraction(1, 2)))
    # each row holds at `point` or misses it by a little
    cuts, equations = (
        [(a, dot(a, point) + draw(offsets)) for a in (draw(vectors) for _ in range(k))]
        for k in draw(_SHAPES)
    )
    return inst, cuts, equations


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_rows_case())
def test_extra_rows_match_enumeration(case):
    """A run on `program_for(inst, cuts, equations)` ends as the maximum
    over the enumerated points that satisfy those rows, in Fractions."""
    inst, cuts, equations = case
    points = [
        p for p in enumerate_lattice(inst)
        if all(sum(Fraction(c) * x for c, x in zip(a, p)) <= b for a, b in cuts)
        and all(sum(Fraction(c) * x for c, x in zip(a, p)) == b for a, b in equations)
    ]
    program = program_for(
        inst,
        cuts=[scaled_row(a, b) for a, b in cuts],
        equations=[scaled_row(a, b) for a, b in equations],
    )
    res = solve_mip(inst, program=program)
    if not points:
        assert res.status is SolveStatus.INFEASIBLE
        return
    assert res.status is SolveStatus.OPTIMAL
    assert res.primal_value == max(dot(inst.objective, p) for p in points)
    assert res.best_point in points


def solve_with_and_without_grid(inst, objective=None):
    """The plain solve and the objective-grid solve of one instance;
    asserts they give the same answer and the grid solves no more nodes."""
    plain = solve_mip(inst, objective)
    grid = solve_mip(inst, objective, SolveOptions(objective_grid=True))
    assert (grid.status, grid.best_point, grid.primal_value, grid.ray) == (
        plain.status, plain.best_point, plain.primal_value, plain.ray
    )
    assert grid.node_count <= plain.node_count
    return plain, grid


_SCALES = st.sampled_from((1, 2, 3, Fraction(1, 2), Fraction(2, 3)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32), _SCALES)
def test_objective_grid_keeps_pure_integer_answers(seed, scale):
    """Scaling the objective moves the grid step g/den off 1."""
    inst = random_instance(random.Random(seed), name="grid", require_nonempty=False)
    solve_with_and_without_grid(inst, [scale * c for c in inst.objective])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32), _SCALES, st.data())
def test_cutoff_runs_match_a_fraction_twin(seed, scale, data):
    """A cutoff on a value of the set, its maximum as often as not: the
    run answers a point strictly above it, or INFEASIBLE exactly when the
    Fraction twin holds none.  The grid run finds the same point, since
    it skips only nodes that hold no point above the cutoff."""
    inst = random_instance(random.Random(seed), name="cutoff")
    w = [scale * c for c in inst.objective]
    points = fraction_lattice(inst)

    def value(p):
        return sum(Fraction(a) * x for a, x in zip(w, p))

    values = sorted(set(map(value, points)))
    cutoff = data.draw(st.sampled_from(values) | st.just(values[-1]))
    above = {p for p in points if value(p) > cutoff}
    plain = solve_mip(inst, w, cutoff=cutoff)
    grid = solve_mip(inst, w, SolveOptions(objective_grid=True), cutoff=cutoff)
    for res in (plain, grid):
        if above:
            assert res.status is SolveStatus.FEASIBLE
            assert tuple(map(Fraction, res.best_point)) in above
            assert res.primal_value == value(res.best_point)
        else:
            assert (res.status, res.best_point) == (SolveStatus.INFEASIBLE, None)
    assert (grid.status, grid.best_point) == (plain.status, plain.best_point)
    assert grid.node_count <= plain.node_count


_BOX_ENDS = st.sampled_from((-2, -1, 0, 1, Fraction(-3, 2), Fraction(1, 3)))
_BOX_WIDTHS = st.sampled_from((0, Fraction(1, 2), 1, Fraction(5, 2), 3))
_BOX_COEFFS = st.sampled_from((-2, -1, 0, 0, 1, 3, Fraction(1, 2), Fraction(-2, 3)))


@st.composite
def _box_case(draw):
    """A pure-integer instance on a box with fractional ends, 0-2 rows,
    and an objective with negative, zero and fractional entries; a
    cutoff at its box maximum B (the max over the box, not its integer
    points), just below B or above it."""
    n = draw(st.integers(1, 3))
    lower = [draw(_BOX_ENDS) for _ in range(n)]
    upper = [lo + draw(_BOX_WIDTHS) for lo in lower]
    objective = [draw(_BOX_COEFFS) for _ in range(n)]
    rows = draw(st.lists(st.lists(_COEFFS, min_size=n, max_size=n), max_size=2))
    inst = build_instance(
        name="box",
        constraint_matrix=rows,
        rhs=[draw(st.integers(-2, 3)) for _ in rows],
        objective=objective,
        integer_vars=range(n),
        lower_bounds=lower,
        upper_bounds=upper,
    )
    top = sum(max(c * lo, c * hi) for c, lo, hi in zip(objective, lower, upper))
    cutoff = top + draw(st.sampled_from((0, 0, Fraction(-1, 1000), -1, Fraction(1, 2), 2)))
    return inst, cutoff


def _grid_floor(objective, value):
    """`value` rounded down to the grid of the objective's values, the
    multiples of gcd(c.den)/den: by Fraction floor division; None when
    the objective is zero."""
    den = math.lcm(*(Fraction(c).denominator for c in objective))
    step = Fraction(math.gcd(*(int(c * den) for c in objective)), den)
    return (value // step) * step if step else None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_box_case())
def test_a_cutoff_the_box_decides_solves_no_node(case):
    """With B = max c.x over the bounds box at or below the cutoff, or its
    grid floor there on a grid run, no point lies above the cutoff and the
    run ends INFEASIBLE with 0 nodes and an empty trace.  Every answer
    matches the Fraction twin: a point above the cutoff exactly when the
    twin holds one."""
    inst, cutoff = case
    c = inst.objective
    top = sum(max(a * lo, a * hi) for a, lo, hi in zip(c, inst.lower_bounds, inst.upper_bounds))
    above = {p for p in fraction_lattice(inst) if dot(c, p) > cutoff}
    floor = _grid_floor(c, top)
    for grid in (False, True):
        res = solve_mip(inst, options=SolveOptions(objective_grid=grid), cutoff=cutoff)
        if above:
            assert res.status is SolveStatus.FEASIBLE
            assert tuple(map(Fraction, res.best_point)) in above
        else:
            assert (res.status, res.best_point) == (SolveStatus.INFEASIBLE, None)
        decided = top <= cutoff or (grid and floor is not None and floor <= cutoff)
        if decided:
            assert not above
            assert (res.node_count, res.trace) == (0, ())
            assert res.primal_value == res.dual_bound == -math.inf
        elif res.status is SolveStatus.INFEASIBLE:
            assert res.node_count >= 1  # the search proved it


@pytest.mark.parametrize("absent", ["upper", "lower"])
def test_a_continuous_variable_bounds_the_box_only_where_it_has_the_bound(absent):
    """x0 integer in [0, 1], x1 continuous in [0, 3/2] with the objective
    (1, 1): B = 5/2, a continuous value, so a cutoff just below it is met
    by (1, 3/2) and the grid does not apply.  Without the bound of x1
    that B needs, the box bounds nothing and the search decides."""
    sign = 1 if absent == "upper" else -1
    bounded = build_instance(
        "mixed-box", [[1, sign]], [Fraction(5, 2)], [1, sign], integer_vars=(0,),
        lower_bounds=[0, 0 if sign > 0 else Fraction(-3, 2)],
        upper_bounds=[1, Fraction(3, 2) if sign > 0 else 0],
    )
    field = f"{absent}_bounds"
    free = dataclasses.replace(bounded, **{field: (getattr(bounded, field)[0], None)})
    for grid in (False, True):
        options = SolveOptions(objective_grid=grid)
        near = solve_mip(bounded, options=options, cutoff=Fraction(5, 2) - Fraction(1, 100))
        assert (near.status, near.best_point) == (SolveStatus.FEASIBLE, (1, Fraction(3, 2) * sign))
        at = solve_mip(bounded, options=options, cutoff=Fraction(5, 2))
        assert (at.status, at.node_count, at.trace) == (SolveStatus.INFEASIBLE, 0, ())
        # the row x0 + x1 <= 5/2 (x0 - x1 for the reflected case) caps the
        # value at 5/2, but the box has no bound B can read for x1
        solved = solve_mip(free, options=options, cutoff=2)
        assert solved.status is SolveStatus.FEASIBLE and solved.node_count >= 1
        assert dot(free.objective, solved.best_point) > 2
        none_above = solve_mip(free, options=options, cutoff=Fraction(5, 2))
        assert none_above.status is SolveStatus.INFEASIBLE and none_above.node_count >= 1


def test_a_hull_round_the_box_decides_is_still_a_query(monkeypatch):
    """On the unit cube cut by x1 >= 1, the first X point (1, 1, 0) sits
    at x1's upper bound, so the max side of the round along e2 asks for a
    point with x1 > 1, and the box answers: the run solves 0 nodes for
    it.  The query is still logged and counted, and queries + 2 * hits +
    (rounds the max side decided) is still 2n."""
    inst = build_instance(
        "floor", [[0, -1, 0]], [-1], [1, 1, 1], integer_vars=range(3),
        lower_bounds=[0] * 3, upper_bounds=[1] * 3,
    )
    runs = []
    solve = oracle.solve_mip

    def recorded(*args, **kwargs):
        res = solve(*args, **kwargs)
        runs.append((kwargs["objective"], kwargs["cutoff"], res.node_count))
        return res

    monkeypatch.setattr(oracle, "solve_mip", recorded)
    log = []
    base = affine_hull(QueryLog(MipOracle(inst), log))
    assert base.points[0] == (1, 1, 0) and base.dimension == 2
    assert ((0, 1, 0), 1, 0) in runs
    assert ((0, 1, 0), 1) in log and [(w, bar) for w, bar, _ in runs] == log
    assert base.oracle_queries == len(log)
    assert base.oracle_queries + 2 * base.cache_hits + max_decided(log) == 2 * inst.num_vars
    assert isinstance(oracle.oracle_maximize(MipOracle(inst), (0, 1, 0), 1), Infeasible)


@st.composite
def _mixed_case(draw, continuous_objective=False, unbounded_root=False):
    """A mixed-integer instance on a small box: 1-3 integer variables,
    then 1-2 continuous ones, 1-3 rows over all of them.  The objective
    is zero on the continuous variables unless `continuous_objective`.
    With `unbounded_root` one more integer variable, free above and in
    no row, has a positive objective entry, so the root LP is unbounded."""
    k = draw(st.integers(1, 3))
    n = k + draw(st.integers(1, 2))
    vectors = st.lists(_COEFFS, min_size=n, max_size=n)
    rows = draw(st.lists(vectors, min_size=1, max_size=3))
    lower, upper = zip(*(draw(_BOXES) for _ in range(n)))
    objective = [draw(_COEFFS) * draw(_SCALES) if j < k else 0 for j in range(n)]
    if continuous_objective:
        objective[draw(st.integers(k, n - 1))] = draw(st.sampled_from((1, -1, Fraction(1, 2))))
    integer_vars = list(range(k))
    if unbounded_root:
        rows = [row + [0] for row in rows]
        objective.append(1)
        integer_vars.append(n)
        lower, upper = lower + (0,), upper + (None,)
    return build_instance(
        name="mixed",
        constraint_matrix=rows,
        rhs=[draw(st.integers(-2, 3)) * draw(_SCALES) for _ in rows],
        objective=objective,
        integer_vars=integer_vars,
        lower_bounds=lower,
        upper_bounds=upper,
    )


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_mixed_case())
def test_objective_grid_keeps_mixed_integer_answers(inst):
    solve_with_and_without_grid(inst)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_mixed_case(continuous_objective=True))
def test_objective_grid_is_inert_on_a_continuous_objective(inst):
    plain, grid = solve_with_and_without_grid(inst)
    assert grid == plain  # node counts and traces included


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_mixed_case(unbounded_root=True))
def test_objective_grid_keeps_unbounded_root_answers(inst):
    plain, grid = solve_with_and_without_grid(inst)
    assert plain.status in (SolveStatus.UNBOUNDED, SolveStatus.INFEASIBLE)
    assert grid == plain  # the search after the root has a zero objective


def _fraction_pick(point, int_vars):
    """The most fractional entry among `int_vars` by Fraction arithmetic,
    min(v % 1, 1 - v % 1), ties to the smallest index; entries with
    v % 1 == 0 (ints and Fraction(k, 1)) are never picked."""
    scores = {j: min(Fraction(point[j]) % 1, 1 - Fraction(point[j]) % 1) for j in int_vars}
    scores = {j: f for j, f in scores.items() if f}
    if not scores:
        return None
    top = max(scores.values())
    return min(j for j, f in scores.items() if f == top)


# entries with many ties among them: halves, thirds and sixths of both
# signs, ints, and integral Fractions
_ENTRIES = (
    st.integers(-5, 5)
    | st.builds(Fraction, st.integers(-5, 5))
    | st.builds(Fraction, st.integers(-30, 30), st.sampled_from((2, 3, 4, 6)))
    | st.fractions(min_value=-9, max_value=9, max_denominator=50)
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(_ENTRIES, min_size=1, max_size=8).flatmap(
    lambda point: st.tuples(
        st.just(tuple(point)), st.sets(st.integers(0, len(point) - 1)).map(frozenset)
    )
))
def test_branching_variable_matches_fraction_scores(case):
    """The int-scored pick equals the Fraction reference on points of
    ints, negative Fractions and integral Fractions, ties included."""
    point, int_vars = case
    assert _pick_branch_variable(point, int_vars) == _fraction_pick(point, int_vars)


def test_branching_variable_fixtures():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert _pick_branch_variable((1, 2, 3), frozenset({0, 1, 2})) is None  # all ints
    assert _pick_branch_variable((Fraction(4, 1), Fraction(-3, 1)), frozenset({0, 1})) is None
    assert _pick_branch_variable((), frozenset()) is None
    # a tie goes to the smallest index, whatever the set's order
    assert _pick_branch_variable((third, half, -half, Fraction(7, 2)), frozenset({3, 2, 1})) == 1
    # -1/3 lies 1/3 from -1 and 2/3 from 0, so it scores 1/3 and beats 1/4
    assert _pick_branch_variable((Fraction(1, 4), -third), frozenset({0, 1})) == 1
    # -5/6 scores 1/6; a continuous variable is never picked
    assert _pick_branch_variable((half, Fraction(-5, 6)), frozenset({1})) == 1
    assert _pick_branch_variable((half, 2), frozenset({1})) is None


def test_grid_is_the_same_on_pure_and_mixed_instances():
    """(g, den) of an objective zero off the integer variables is the
    same whether the instance is pure integer or not; one nonzero on a
    continuous variable has no grid."""
    def inst(integer_vars):
        return build_instance(
            name="grid", constraint_matrix=[[1, 1, 1]], rhs=[3],
            objective=[0, 0, 0], integer_vars=integer_vars,
        )

    pure, mixed = inst((0, 1, 2)), inst((0, 1))
    for objective in ((Fraction(2, 3), Fraction(4, 9), 0), (6, -4, 0), (0, 0, 0)):
        assert _grid(pure, objective) == _grid(mixed, objective)
    assert _grid(pure, (Fraction(2, 3), Fraction(4, 9), 0)) == (2, 9)
    assert _grid(pure, (6, -4, 0)) == (2, 1)
    assert _grid(pure, (0, 0, 0)) is None
    assert _grid(pure, (1, 0, Fraction(1, 2))) == (1, 2)
    assert _grid(mixed, (1, 0, Fraction(1, 2))) is None


# (lower, upper) of a variable: binary, general integer, fractional ends,
# one-sided and free; a missing bound is made up by a row
_PENALTY_BOUNDS = st.sampled_from((
    (0, 1), (0, 1), (-2, 3), (Fraction(-1, 2), Fraction(5, 2)), (-1, None), (None, 2), (None, None),
))


@st.composite
def _penalty_case(draw):
    """A mixed-integer instance of 2-3 variables, the first 1-3 integer,
    with one bound kind each from `_PENALTY_BOUNDS`, rows x_j <= 3 and
    -x_j <= 2 where a bound is missing (so every LP is a polytope's),
    1-3 random rows, an objective nonzero on continuous columns too, and
    0-1 extra equations; plus a node limit."""
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, n))
    lower, upper = zip(*(draw(_PENALTY_BOUNDS) for _ in range(n)))
    vectors = st.lists(_COEFFS, min_size=n, max_size=n)
    rows = draw(st.lists(vectors, min_size=1, max_size=3))
    rhs = [draw(st.integers(-2, 4)) * draw(_SCALES) for _ in rows]
    for j in range(n):
        for sign, bound, cap in ((1, upper[j], 3), (-1, lower[j], 2)):
            if bound is None:
                rows.append([sign if i == j else 0 for i in range(n)])
                rhs.append(cap)
    inst = build_instance(
        name="penalty",
        constraint_matrix=rows,
        rhs=rhs,
        objective=[draw(_COEFFS) * draw(_SCALES) for _ in range(n)],
        integer_vars=range(k),
        lower_bounds=lower,
        upper_bounds=upper,
    )
    equations = [
        (a, draw(st.integers(-2, 3)) * draw(_SCALES))
        for a in draw(st.lists(vectors, max_size=1))
    ]
    return inst, equations, draw(st.integers(1, 6))


def _penalty_runs(inst, equations, node_limit):
    """The runs of `_penalty_case`, each on a fresh program: plain, grid,
    node-limited, and an incumbent run and cutoff runs (plain and grid)
    around the plain optimum."""
    eq = [scaled_row(a, b) for a, b in equations]

    def run(options=None, cutoff=None):
        program = program_for(inst, equations=eq)
        return solve_mip(inst, options=options, program=program, cutoff=cutoff)

    plain = run()
    runs = [plain, run(SolveOptions(objective_grid=True)), run(SolveOptions(node_limit=node_limit))]
    if plain.status is SolveStatus.OPTIMAL:
        runs.append(run(SolveOptions(incumbent=plain.best_point, node_limit=node_limit + 2)))
        cutoffs = (plain.primal_value, plain.primal_value - Fraction(1, 2), plain.primal_value - 2)
    else:
        cutoffs = (0,)
    for cutoff in cutoffs:
        runs.append(run(cutoff=cutoff))
        runs.append(run(SolveOptions(objective_grid=True), cutoff=cutoff))
    return runs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_penalty_case())
def test_the_parent_tableau_bound_skips_only_nodes_whose_lp_would_end_them(case):
    """A run that skips a child's LP when the bound its parent's tableau
    gave it (`LinearProgram.child_bounds`) is at or below the primal
    value gives the same `SolveResult`, node counts and traces included,
    as a run that reads no bound.  Every pair handed out is checked by
    `reference_lp`, whether it prunes or not: each child's LP value is at
    most its bound, and a child bounded by -inf is infeasible.  A
    branching has no bounds only when x_j sits at a bound, which is then
    fractional, or Z* = 0: the LP value is the objective at the shifts,
    each variable at its lower bound, else its upper bound, else 0."""
    inst, equations, node_limit = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LinearProgram, "child_bounds", lambda self, j: None)
        want = _penalty_runs(inst, equations, node_limit)

    rows = [list(row) for row in inst.constraint_matrix]
    rhs = list(inst.rhs)
    for a, b in equations:
        rows += [list(a), [-v for v in a]]
        rhs += [b, -b]
    solved = {}  # program -> its latest (objective, lower, upper, result)
    child_lps = {}  # (objective, lower, upper) -> the child's LP value, None if infeasible
    solve, child_bounds = LinearProgram.solve, LinearProgram.child_bounds

    def recorded_solve(program, objective, lower, upper):
        result = solve(program, objective, lower, upper)
        solved[program] = (objective, lower, upper, result)
        return result

    def child_lp(objective, lower, upper):
        key = (tuple(objective), tuple(lower), tuple(upper))
        if key not in child_lps:
            empty = any(lo is not None and hi is not None and lo > hi for lo, hi in zip(lower, upper))
            child_lps[key] = None if empty else reference_lp(objective, rows, rhs, lower, upper)[0]
        return child_lps[key]

    def checked_bounds(program, j):
        out = child_bounds(program, j)
        objective, lower, upper, result = solved[program]
        x = result.point[j]
        if out is None:
            shifts = [lo if lo is not None else hi if hi is not None else 0
                      for lo, hi in zip(lower, upper)]
            assert x in (lower[j], upper[j]) or dot(objective, shifts) == result.value
            return out
        for up, bound in enumerate(out):
            lo, hi = list(lower), list(upper)
            if up:
                lo[j] = math.floor(x) + 1
            else:
                hi[j] = math.floor(x)
            value = child_lp(objective, lo, hi)
            if bound == -math.inf:
                assert value is None
            else:
                assert value is None or value <= bound
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LinearProgram, "solve", recorded_solve)
        mp.setattr(LinearProgram, "child_bounds", checked_bounds)
        got = _penalty_runs(inst, equations, node_limit)
    assert got == want


def test_child_bound_fixtures():
    """Hand-computed `child_bounds`.  max x s.t. 2x <= 1, x >= 0 ends at
    x = 1/2: the slack is the one column that moves x, and only down,
    so the down child's bound is 1/2 - (1/2).(1/2)/(1/2) = 0, its LP
    value exactly, and the up child, x >= 1, is infeasible.  On rows
    -3x - 2y <= 4 and 2x + 2y <= 0 with c = (-2, 0), x in [-1, 3] and
    y in [-1, 2], the optimum (-1, -1/2) has value 2 = c.shifts, so
    Z* = 0 and a branch on y reads no bounds.  max x + 3z s.t.
    x + z <= 3/2, x, z in [0, 1] ends at (1/2, 1) with x's cap slack t
    basic, x = 1 - t = 1/2 + u - s (u z's cap slack, s the row's) and
    value 7/2 - 2u - s: the down child pays 1/2 through s, bound 3 at
    (0, 1), and the up child 2 times 1/2 through u, bound 5/2 at
    (1, 1/2)."""
    program = LinearProgram(1, [scaled_row([2], 1)])
    assert program.solve((1,), [0], [None]).point == (Fraction(1, 2),)
    assert program.child_bounds(0) == (0, -math.inf)
    assert reference_lp([1], [[2]], [1], [0], [0])[0] == 0
    assert reference_lp([1], [[2]], [1], [1], [None])[0] is None

    program = LinearProgram(2, [scaled_row([-3, -2], 4), scaled_row([2, 2], 0)])
    result = program.solve((-2, 0), [-1, -1], [3, 2])
    assert (result.point, result.value) == ((-1, Fraction(-1, 2)), 2)
    assert program.child_bounds(1) is None

    program = LinearProgram(2, [scaled_row([1, 1], Fraction(3, 2))])
    assert program.solve((1, 3), [0, 0], [1, 1]).point == (Fraction(1, 2), 1)
    assert program.child_bounds(0) == (3, Fraction(5, 2))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.booleans().flatmap(lambda c: _mixed_case(continuous_objective=c)), st.data())
def test_mixed_integer_runs_match_the_vertex_twin(inst, data):
    """On bounded mixed-integer instances, with the objective on the
    continuous columns or off them, `solve_mip` ends as `mixed_vertices`
    says: OPTIMAL at the twin's maximum with a feasible point, or
    INFEASIBLE when the twin has no vertex.  A cutoff run, with the grid
    and without, finds a feasible point above the cutoff exactly when a
    vertex lies above it."""
    c = inst.objective
    values = sorted({dot(c, v) for v in mixed_vertices(inst)})
    cutoff = data.draw(
        st.sampled_from(values + [values[-1] - Fraction(1, 3)]) if values else st.just(0)
    )
    for grid in (False, True):
        options = SolveOptions(objective_grid=grid)
        res = solve_mip(inst, options=options)
        if values:
            assert res.status is SolveStatus.OPTIMAL
            assert res.primal_value == values[-1] == dot(c, res.best_point)
            assert fraction_feasible(inst, res.best_point)
        else:
            assert (res.status, res.best_point) == (SolveStatus.INFEASIBLE, None)
        res = solve_mip(inst, options=options, cutoff=cutoff)
        if values and values[-1] > cutoff:
            assert res.status is SolveStatus.FEASIBLE
            assert dot(c, res.best_point) > cutoff and fraction_feasible(inst, res.best_point)
        else:
            assert (res.status, res.best_point) == (SolveStatus.INFEASIBLE, None)
