import math
import random

import pytest

from cutdim.linalg import int_scale, vector
from cutdim.model import (
    Inequality,
    build_instance,
    evaluate,
    normalize_cut,
    validate_instance,
)
from cutdim.rational import rat


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
    # x0/2 + x1/3 <= 5/6 scales to 3x0 + 2x1 <= 5; x0/2 + x1/3 <= 3/4 to 3x0 + 2x1 <= 4
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
    assert inst.integer_rows == (((3, 2), 5), ((3, 2), 4))
    assert inst.is_feasible_point([0, 2])  # 3*0 + 2*2 = 4: the cap of 3/4 * 6
    assert not inst.is_feasible_point([1, 1])  # 5: one unit past that cap
    exact = build_instance(
        name="exact",
        constraint_matrix=[[rat(1, 2), rat(1, 3)]],
        rhs=[rat(5, 6)],
        objective=[1, 1],
        integer_vars=(0, 1),
    )
    assert exact.is_feasible_point([1, 1])  # exactly on the boundary
    assert not exact.is_feasible_point([1, 2])  # 7/6, one unit of x1 outside
    # a point with a non-integral entry takes the rational rows
    assert inst.is_feasible_point([rat(1, 2), 1])  # 7/12 <= 3/4
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
    monkeypatch.setattr("cutdim.model.int_scale", lambda row: calls.append(row) or int_scale(row))
    inst = fractional_rows()
    for x in ([0, 2], [1, 1], [2, 0], [0, 0]):
        inst.is_feasible_point(x)
    assert inst.integer_rows is inst.integer_rows
    assert len(calls) == inst.num_constraints
    fractional_rows().is_feasible_point([0, 0])  # a new instance builds its own
    assert len(calls) == 2 * inst.num_constraints


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
