import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutdim.linalg import scaled_row, vector
from cutdim.model import (
    Inequality,
    build_instance,
    evaluate,
    normalize_cut,
    validate_instance,
)
from cutdim.rational import rat
from helpers import fraction_feasible


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


def test_build_instance_basics():
    inst = knapsack()
    assert inst.num_vars == 2
    assert inst.num_constraints == 1
    assert inst.is_pure_integer()
    assert inst.integer_vars == frozenset({0, 1})
    assert inst.constraint_matrix == (vector([2, 3]),)


def test_validation_messages():
    inst = knapsack()
    assert validate_instance(inst) == []

    # rhs length mismatch
    with pytest.raises(ValueError, match="rhs"):
        build_instance(
            name="bad",
            constraint_matrix=[[1, 1]],
            rhs=[1, 2],
            objective=[1, 1],
        )
    # integer index out of range
    with pytest.raises(ValueError, match="integer"):
        build_instance(
            name="bad",
            constraint_matrix=[[1, 1]],
            rhs=[1],
            objective=[1, 1],
            integer_vars=(2,),
        )
    # crossing bounds are a modelling error only when lower > upper
    with pytest.raises(ValueError, match="bound"):
        build_instance(
            name="bad",
            constraint_matrix=[],
            rhs=[],
            objective=[1],
            lower_bounds=[2],
            upper_bounds=[1],
        )


def test_infinite_bounds_conventions():
    inst = build_instance(
        name="free",
        constraint_matrix=[[1]],
        rhs=[5],
        objective=[1],
        lower_bounds=[None],
        upper_bounds=[math.inf],
    )
    assert inst.lower_bounds == (None,)
    assert inst.upper_bounds == (None,)  # inf coerces to the None sentinel


def test_is_feasible_point():
    inst = knapsack()
    assert inst.is_feasible_point([1, 0])
    assert inst.is_feasible_point([0, 1])
    assert not inst.is_feasible_point([1, 1])  # 2+3 > 4
    assert not inst.is_feasible_point([rat(1, 2), 0])  # fractional integer var


def fractional_rows():
    # x0/2 + x1/3 <= 5/6 scales by 6 to 3x0 + 2x1 <= 5; x0/2 + x1/3 <= 3/4 by 12 to 6x0 + 4x1 <= 9
    return build_instance(
        name="fractional",
        constraint_matrix=[[rat(1, 2), rat(1, 3)], [rat(1, 2), rat(1, 3)]],
        rhs=[rat(5, 6), rat(3, 4)],
        objective=[1, 1],
        integer_vars=(1,),
        lower_bounds=[0, 0],
        upper_bounds=[3, 3],
    )


def test_is_feasible_point_at_a_fractional_rhs():
    inst = fractional_rows()
    assert inst.integer_rows == (((3, 2), 5, 6), ((6, 4), 9, 12))
    assert inst.is_feasible_point([0, 2])  # 6*0 + 4*2 = 8 <= 9
    assert not inst.is_feasible_point([1, 1])  # 10 > 9
    exact = build_instance(
        name="exact",
        constraint_matrix=[[rat(1, 2), rat(1, 3)]],
        rhs=[rat(5, 6)],
        objective=[1, 1],
        integer_vars=(0, 1),
    )
    assert exact.is_feasible_point([1, 1])  # exactly on the boundary
    assert not exact.is_feasible_point([1, 2])  # 7/6, one unit of x1 outside
    # a point with a non-integral entry is scaled once: X/D = (1, 2)/2
    assert inst.is_feasible_point([rat(1, 2), 1])  # 6*1 + 4*2 = 14 <= 9*2
    assert inst.is_feasible_point([rat(3, 2), 0])  # 3/4, on the boundary
    assert not inst.is_feasible_point([rat(7, 4), 0])  # 7/8 > 3/4


def test_is_feasible_point_reads_ints_and_fractions_alike():
    inst = fractional_rows()
    for x0 in range(-1, 5):
        for x1 in range(-1, 5):
            want = inst.is_feasible_point([x0, x1])
            assert inst.is_feasible_point(vector([x0, x1])) == want
            assert inst.is_feasible_point([rat(x0), x1]) == want
            assert want == (0 <= x0 <= 3 and 0 <= x1 <= 3 and 3 * x0 + 2 * x1 <= 4)


def test_integer_view_is_built_once_per_instance(monkeypatch):
    calls = []
    monkeypatch.setattr(
        "cutdim.model.scaled_row", lambda row, b: calls.append(row) or scaled_row(row, b)
    )
    inst = fractional_rows()
    for x in ([0, 2], [1, 1], [2, 0], [0, 0]):
        inst.is_feasible_point(x)
    assert inst.integer_rows is inst.integer_rows
    assert len(calls) == inst.num_constraints
    fractional_rows().is_feasible_point([0, 0])  # a new instance builds its own
    assert len(calls) == 2 * inst.num_constraints


_VALUES = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def _instance_and_points(draw):
    """A mixed-integer instance with fractional rows, rhs and bounds, and
    points with integral and fractional entries.

    Each rhs and bound is set off from a drawn point by a small slack,
    often zero, so that many points are feasible or on the boundary.
    """
    n = draw(st.integers(1, 3))
    integer_vars = draw(st.sets(st.integers(0, n - 1)))
    entries = [
        st.one_of(st.integers(-2, 2), _VALUES) if j in integer_vars else _VALUES
        for j in range(n)
    ]
    points = draw(st.lists(st.tuples(*entries), min_size=1, max_size=8))
    slack = st.sampled_from((0, 0, Fraction(1, 4), Fraction(1, 3), Fraction(-1, 2), 1))

    def anchor():
        return draw(st.sampled_from(points))

    rows = draw(st.lists(st.lists(_VALUES, min_size=n, max_size=n), max_size=3))
    rhs = [sum(a * x for a, x in zip(row, anchor())) + draw(slack) for row in rows]
    lower, upper = [], []
    for j in range(n):
        lo = anchor()[j] - draw(slack)
        hi = max(lo, anchor()[j] + draw(slack))
        lower.append(draw(st.sampled_from((None, lo))))
        upper.append(draw(st.sampled_from((None, hi))))
    inst = build_instance(
        name="drawn",
        constraint_matrix=rows,
        rhs=rhs,
        objective=[0] * n,
        integer_vars=integer_vars,
        lower_bounds=lower,
        upper_bounds=upper,
    )
    return inst, points


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_instance_and_points())
def test_is_feasible_point_matches_fraction_twin(case):
    """One feasibility path for every point: the integer view scaled by
    the point's lcm gives the plain Fraction answer."""
    inst, points = case
    for point in points:
        assert inst.is_feasible_point(vector(point)) == fraction_feasible(inst, point)


def test_normalize_cut_fixtures():
    cut = normalize_cut(Inequality([2, -4], 6))
    assert cut.coefficients == vector([rat(1, 2), -1])
    assert cut.rhs == rat(3, 2)
    assert max(abs(c) for c in cut.coefficients) == 1

    same = normalize_cut(Inequality([1, 0], 1))
    assert same.coefficients == vector([1, 0]) and same.rhs == 1
    assert max(abs(c) for c in same.coefficients) == 1

    degenerate = normalize_cut(Inequality([0, 0], 5))
    assert degenerate.coefficients == vector([0, 0])
    assert degenerate.rhs == 5
    assert max(abs(c) for c in degenerate.coefficients) == 0


def test_normalize_cut_returns_a_normalized_cut_itself():
    # the CLI path normalizes a cut when it is read, then passes it on to
    # callers that normalize again: those passes build no new Inequality
    for a, b in (([rat(1, 2), -1], rat(3, 2)), ([1, 0], 7), ([0, 0], 5)):
        cut = Inequality(a, b)
        assert normalize_cut(cut) is cut
    once = normalize_cut(Inequality([2, -4], 6))
    assert normalize_cut(once) is once


def test_normalize_cut_idempotent_and_halfspace_preserving():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 4)
        cut = Inequality(
            [rat(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)],
            rat(rng.randint(-6, 6), rng.randint(1, 3)),
        )
        once = normalize_cut(cut)
        assert normalize_cut(once) == once
        for _ in range(5):
            x = [rat(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            before = evaluate(cut, x)
            after = evaluate(once, x)
            assert (before > 0) == (after > 0)
            assert (before == 0) == (after == 0)


def test_evaluate_fixtures():
    cut = Inequality([1, 1], 2)
    assert evaluate(cut, [1, 1]) == 0
    assert evaluate(cut, [0, 0]) == -2
    assert evaluate(cut, [2, 1]) == 1
    with pytest.raises(ValueError):
        evaluate(cut, [1])


def test_evaluate_affine_property():
    rng = random.Random(29)
    cut = Inequality([rat(1, 2), 3], rat(7, 5))
    for _ in range(20):
        x = [rat(rng.randint(-4, 4)), rat(rng.randint(-4, 4))]
        y = [rat(rng.randint(-4, 4)), rat(rng.randint(-4, 4))]
        mid = [(a + b) / 2 for a, b in zip(x, y)]
        assert evaluate(cut, mid) == (evaluate(cut, x) + evaluate(cut, y)) / 2
