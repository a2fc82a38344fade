import random

import pytest

from cutdim.hull import (
    EquationSystem,
    HullInterrupted,
    InvalidInitialEquationsError,
    affine_hull,
    face_hull,
    select_direction,
)
from cutdim.linalg import affine_rank, dot, rank, vec_sub
from cutdim.model import Inequality, build_instance
from cutdim.oracle import BruteForceOracle, MipOracle, enumerate_lattice, make_provider
from cutdim.rational import rat
from cutdim.selftest import random_instance


def cube(n=3):
    return build_instance(
        name=f"cube{n}",
        constraint_matrix=[],
        rhs=[],
        objective=[1] * n,
        integer_vars=range(n),
        lower_bounds=[0] * n,
        upper_bounds=[1] * n,
    )


def diagonal_segment():
    # x1 = x2 forced by a pair of inequalities; P = conv{(0,0),(1,1)}
    return build_instance(
        name="diag",
        constraint_matrix=[[1, -1], [-1, 1]],
        rhs=[0, 0],
        objective=[1, 0],
        integer_vars=(0, 1),
        lower_bounds=[0, 0],
        upper_bounds=[1, 1],
    )


def infeasible():
    return build_instance(
        name="void",
        constraint_matrix=[[1], [-1]],
        rhs=[0, -1],
        objective=[1],
        integer_vars=(0,),
        lower_bounds=[0],
        upper_bounds=[1],
    )


def test_cube_full_dimensional():
    hull = affine_hull(MipOracle(cube()))
    assert hull.dimension == 3
    assert len(hull.equations) == 0
    assert len(hull.points) == 4
    assert hull.oracle_queries == 6  # exactly 2n on a cold run


def test_square_matches_cli_fixture():
    inst = cube(2)
    hull = affine_hull(MipOracle(inst))
    assert hull.dimension == 2
    assert hull.oracle_queries == 4
    assert len(hull.equations) == 0


def test_diagonal_segment_equation():
    hull = affine_hull(MipOracle(diagonal_segment()))
    assert hull.dimension == 1
    assert len(hull.equations) == 1
    (row,), (value,) = hull.equations.rows, hull.equations.rhs
    # proportional to x1 - x2 = 0
    assert row[0] == -row[1] and row[0] != 0
    assert value == 0


def test_infeasible_dimension():
    hull = affine_hull(MipOracle(infeasible()))
    assert hull.dimension == -1
    assert hull.points == ()
    assert hull.oracle_queries == 1  # one call decides emptiness


def test_single_point_set():
    inst = build_instance(
        name="dot",
        constraint_matrix=[[1, 1]],
        rhs=[0],
        objective=[1, 1],
        integer_vars=(0, 1),
        lower_bounds=[0, 0],
        upper_bounds=[1, 1],
    )
    hull = affine_hull(MipOracle(inst))
    assert hull.dimension == 0
    assert hull.points == ((rat(0), rat(0)),)
    assert len(hull.equations) == 2


def test_unbounded_set_dimension():
    halfline = build_instance(
        name="halfline",
        constraint_matrix=[],
        rhs=[],
        objective=[1],
        integer_vars=(0,),
        lower_bounds=[0],
    )
    hull = affine_hull(MipOracle(halfline))
    assert hull.dimension == 1  # escape point recovered from the ray


def test_initial_equations_reduce_queries():
    inst = diagonal_segment()
    eqs = EquationSystem.empty().with_equation([1, -1], 0)
    hull = affine_hull(MipOracle(inst), initial_equations=eqs)
    assert hull.dimension == 1
    assert hull.oracle_queries == 2  # one round instead of two


def test_invalid_initial_equation_detected():
    eqs = EquationSystem.empty().with_equation([1, 0, 0], 7)  # x1=7 is false on the cube
    with pytest.raises(InvalidInitialEquationsError):
        affine_hull(MipOracle(cube()), initial_equations=eqs)


def test_query_budget_interrupt_carries_interval():
    with pytest.raises(HullInterrupted) as info:
        affine_hull(MipOracle(cube()), query_budget=2)
    exc = info.value
    assert exc.queries <= 2
    assert -1 <= exc.dim_lower <= exc.dim_upper <= 3


def test_select_direction_fixtures():
    d = select_direction([], EquationSystem.empty(), 2)
    assert d is not None and sum(1 for v in d if v != 0) == 1  # sparsest: a unit

    d = select_direction(
        [(rat(0), rat(0)), (rat(1), rat(0))], EquationSystem.empty(), 2
    )
    assert d is not None
    assert d[0] == 0 and d[1] != 0  # orthogonal to aff(X) = x-axis

    eqs = EquationSystem.empty().with_equation([0, 1], 0)
    d = select_direction([(rat(0), rat(0))], eqs, 2)
    assert d is not None
    assert d[1] == 0 and d[0] != 0  # e2 spans D already


def test_face_hull_fixtures():
    inst = cube()
    provider = make_provider(inst)
    base = affine_hull(provider)

    facet = face_hull(provider, base, Inequality([1, 0, 0], 1))
    assert facet.dimension == 2

    vertex = face_hull(provider, base, Inequality([1, 1, 1], 3))
    assert vertex.dimension == 0

    # implied equation: face equals P itself
    seg = diagonal_segment()
    seg_provider = make_provider(seg)
    seg_base = affine_hull(seg_provider)
    full = face_hull(seg_provider, seg_base, Inequality([1, -1], 0))
    assert full.dimension == seg_base.dimension == 1


def test_cache_cuts_queries_but_not_answers():
    inst = cube()
    provider = make_provider(inst)
    base = affine_hull(provider)
    cut = Inequality([1, 0, 0], 1)
    warm = face_hull(provider, base, cut)
    cold = face_hull(MipOracle(inst), base, cut)
    assert warm.dimension == cold.dimension == 2
    assert warm.oracle_queries + warm.cache_hits <= cold.oracle_queries + 1


def test_equations_valid_on_all_points():
    rng = random.Random(53)
    for i in range(25):
        inst = random_instance(rng, name=f"eq{i}", require_nonempty=False)
        points = enumerate_lattice(inst)
        # a cold run, then a cached run and a face run whose rounds can hit the cache
        cached = make_provider(inst, "lattice")
        base = affine_hull(cached)
        runs = [(affine_hull(BruteForceOracle(inst)), points), (base, points)]
        if points:
            c = inst.objective
            top = max(dot(c, p) for p in points)
            face = face_hull(cached, base, Inequality(c, top))
            runs.append((face, [p for p in points if dot(c, p) == top]))
        for hull, on_set in runs:
            assert hull.dimension == affine_rank(on_set), f"case {i}"
            for row, value in zip(hull.equations.rows, hull.equations.rhs):
                for p in on_set:
                    assert dot(row, p) == value, f"case {i}: equation violated"
            # X affinely independent with |X| = dim + 1
            if hull.dimension >= 0:
                assert len(hull.points) == hull.dimension + 1
                assert affine_rank(hull.points) == hull.dimension
                assert rank(hull.equations.rows) == len(hull.equations)


def test_reproducibility():
    inst = random_instance(random.Random(59), name="repro")
    a = affine_hull(MipOracle(inst))
    b = affine_hull(MipOracle(inst))
    assert a.points == b.points
    assert a.equations == b.equations
    assert a.oracle_queries == b.oracle_queries


def test_sandwich_property():
    rng = random.Random(61)
    for i in range(15):
        inst = random_instance(rng, max_vars=4, name=f"sand{i}")
        points = enumerate_lattice(inst)
        provider = make_provider(inst)
        base = affine_hull(provider)
        a = [rng.randint(-4, 4) for _ in range(inst.num_vars)]
        beta = max(dot(a, p) for p in points)
        face = face_hull(provider, base, Inequality(a, beta))
        assert -1 <= face.dimension <= base.dimension
        implied = base.equations.implies(a, beta)
        assert (face.dimension == base.dimension) == implied
