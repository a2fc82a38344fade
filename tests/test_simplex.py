import random
from fractions import Fraction

from cutdim.linalg import dot
from cutdim.rational import rat
from cutdim.simplex import LPStatus, solve_lp

from helpers import random_boxed_lp, reference_lp


def test_simple_maximization():
    res = solve_lp([5, 4], [[2, 3]], [4], lower=[0, 0], upper=[1, 1])
    assert res.status is LPStatus.OPTIMAL
    assert res.value == rat(23, 3)  # x=1, y=2/3
    assert res.point == (rat(1), rat(2, 3))


def test_infeasible():
    res = solve_lp([1], [[1], [-1]], [-3, 2], lower=[None], upper=[None])
    # x <= -3 and x >= -2 cannot both hold
    assert res.status is LPStatus.INFEASIBLE


def test_unbounded_with_ray():
    res = solve_lp([1], [[-1]], [0], lower=[None], upper=[None])
    assert res.status is LPStatus.UNBOUNDED
    assert res.ray is not None
    (r,) = res.ray
    assert r > 0  # improving direction
    # the ray must satisfy A r <= 0
    assert dot([-1], res.ray) <= 0


def test_equalities_and_free_variables():
    # max x + y with x + y = 1, x - y <= 0, both free
    res = solve_lp(
        [1, 1],
        [[1, -1]],
        [0],
        eq_rows=[[1, 1]],
        eq_rhs=[1],
        lower=[None, None],
        upper=[None, None],
    )
    assert res.status is LPStatus.OPTIMAL
    assert res.value == 1
    assert res.point[0] + res.point[1] == 1
    assert res.point[0] <= res.point[1]


def test_reflected_and_free_variables_optimal_point():
    # x <= 3 (no lower bound), y free; max -2x + y, x >= -1, y <= x - 3.
    # On y = x - 3 the objective is -x - 3, so (-1, -4) is the unique optimum.
    res = solve_lp([-2, 1], [[-1, 0], [-1, 1]], [1, -3], lower=[None, None], upper=[3, None])
    assert res.status is LPStatus.OPTIMAL
    assert res.point == (rat(-1), rat(-4))
    assert res.value == -2


def test_reflected_and_free_variables_ray():
    # x <= 3 (no lower bound), y free, x = y; max -x - y is unbounded and
    # every improving recession direction is a positive multiple of (-1, -1).
    res = solve_lp(
        [-1, -1], eq_rows=[[1, -1]], eq_rhs=[0], lower=[None, None], upper=[3, None]
    )
    assert res.status is LPStatus.UNBOUNDED and res.value is None
    (rx, ry) = res.ray
    assert rx < 0 and rx == ry
    x, y = res.point
    assert x == y and x <= 3


def test_crossing_bounds_infeasible():
    res = solve_lp([1], [], [], lower=[2], upper=[1])
    assert res.status is LPStatus.INFEASIBLE


def test_degenerate_cycling_guard():
    # classic degenerate vertex; Bland's rule must terminate
    res = solve_lp(
        [10, -57, -9, -24],
        [
            [rat(1, 2), rat(-11, 2), rat(-5, 2), 9],
            [rat(1, 2), rat(-3, 2), rat(-1, 2), 1],
            [1, 0, 0, 0],
        ],
        [0, 0, 1],
        lower=[0, 0, 0, 0],
        upper=[None, None, None, None],
    )
    assert res.status is LPStatus.OPTIMAL
    assert res.value == 1


def test_differential_against_vertex_enumeration():
    """300 random boxed LPs against the Fraction vertex enumerator."""
    rng = random.Random(101)
    for i in range(300):
        objective, rows, rhs, lower, upper = random_boxed_lp(rng)
        want_value, _ = reference_lp(objective, rows, rhs, lower, upper)
        res = solve_lp(objective, rows, rhs, lower=lower, upper=upper)
        if want_value is None:
            assert res.status is LPStatus.INFEASIBLE, f"case {i}: expected infeasible"
        else:
            assert res.status is LPStatus.OPTIMAL, f"case {i}: {res.status}"
            assert res.value == rat(want_value.numerator, want_value.denominator), (
                f"case {i}: value {res.value} vs reference {want_value}"
            )
            # returned point must be feasible and achieve the value
            x = res.point
            for row, b in zip(rows, rhs):
                assert dot(row, x) <= b
            for j in range(len(x)):
                assert lower[j] <= x[j] <= upper[j]
            assert dot(objective, x) == res.value


def test_optimal_point_matches_value_with_equations():
    rng = random.Random(103)
    for _ in range(60):
        n = rng.randint(2, 4)
        objective = [rng.randint(-4, 4) for _ in range(n)]
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        rhs = [rng.randint(0, 8) for _ in rows]
        eq = [rng.randint(-2, 2) for _ in range(n)]
        target = rng.randint(0, 3)
        res = solve_lp(
            objective,
            rows,
            rhs,
            eq_rows=[eq],
            eq_rhs=[target],
            lower=[0] * n,
            upper=[3] * n,
        )
        if res.status is LPStatus.OPTIMAL:
            assert dot(eq, res.point) == target
            assert dot(objective, res.point) == res.value
