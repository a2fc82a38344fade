"""End-to-end acceptance gate: one test per advertised guarantee.

The randomized guarantees are the `cutdim selftest` suites, run here on
the larger corpora named in ACCEPTANCE_CORPORA; each suite checks its
answers against independently computed ground truth (lattice
enumeration, affine rank of enumerated points).  Wall-clock budgets are
asserted where the guarantee includes one.
"""

import time

import pytest

from cutdim.analysis import Verdict, classify_cut
from cutdim.fileio import read_instance
from cutdim.hull import HullInterrupted, affine_hull
from cutdim.model import Inequality, build_instance
from cutdim.oracle import MipOracle, make_provider
from cutdim.selftest import (
    ALL_SUITES,
    suite_classification,
    suite_dimension,
    suite_histogram,
    suite_impact,
    suite_query_count,
    suite_solver,
)

from helpers import ag33_lines, miplib_file, stein27

# Query count and classification share one corpus: 100 nonempty
# instances with n in [2,6], coefficients in [-5,5] and box [0,3]^n.
ACCEPTANCE_CORPORA = {
    suite_query_count: dict(seed=1009, rounds=100),
    suite_classification: dict(seed=1009, rounds=100, max_vars=6, cuts_per=5),
    suite_impact: dict(seed=1013, rounds=20, max_vars=5),
    suite_solver: dict(seed=1019, rounds=200, max_vars=5),
    suite_histogram: dict(seed=1021, rounds=50, max_instances=9, max_dim=12),
    suite_dimension: dict(seed=1031),  # selftest size
}


def run_suite(suite, within=None):
    start = time.monotonic()
    result = suite(**ACCEPTANCE_CORPORA[suite])
    assert result.failures == []
    if within is not None:
        assert time.monotonic() - start < within


def test_every_suite_has_an_acceptance_corpus():
    assert set(ACCEPTANCE_CORPORA) == set(ALL_SUITES)


def test_affine_hull_queries_and_twice_its_cache_hits_add_to_two_n():
    run_suite(suite_query_count, within=60.0)


def test_dimension_and_cut_verdicts_match_enumeration():
    run_suite(suite_classification, within=600.0)


def test_solver_hull_dimension_matches_enumeration():
    run_suite(suite_dimension)


def test_known_polytope_fixtures():
    for n in (2, 3, 4):
        cube = build_instance(
            name=f"cube{n}",
            constraint_matrix=[],
            rhs=[],
            objective=[1] * n,
            integer_vars=range(n),
            lower_bounds=[0] * n,
            upper_bounds=[1] * n,
        )
        provider = make_provider(cube, time_limit=None)
        base = affine_hull(provider)
        assert base.dimension == n
        assert len(base.equations) == 0

        facet = classify_cut(
            provider, Inequality([1] + [0] * (n - 1), 1), base=base
        )
        assert facet.verdict is Verdict.SUPPORTING
        assert facet.face_dimension == n - 1

        vertex = classify_cut(provider, Inequality([1] * n, n), base=base)
        assert vertex.verdict is Verdict.SUPPORTING
        assert vertex.face_dimension == 0

    diagonal = build_instance(
        name="diag",
        constraint_matrix=[[1, -1], [-1, 1]],
        rhs=[0, 0],
        objective=[1, 0],
        integer_vars=(0, 1),
        lower_bounds=[0, 0],
        upper_bounds=[3, 3],
    )
    hull = affine_hull(MipOracle(diagonal, time_limit=None))
    assert hull.dimension == 1
    assert len(hull.equations) == 1

    empty = build_instance(
        name="void",
        constraint_matrix=[[1], [-1]],
        rhs=[0, -1],
        objective=[1],
        integer_vars=(0,),
    )
    assert affine_hull(MipOracle(empty, time_limit=None)).dimension == -1


@pytest.mark.parametrize(
    "name, expected",
    [("flugpl", 9), ("p0033", 27), ("stein27", 27)],
)
def test_desk_scale_benchmark_dimensions(name, expected):
    path = miplib_file(name)
    if path is None:
        pytest.skip(f"benchmark file {name}.mps not on disk")
    inst = read_instance(path)
    provider = MipOracle(inst, time_limit=None)
    try:
        hull = affine_hull(provider, time_budget=1800.0)
    except HullInterrupted as exc:
        pytest.skip(
            f"inconclusive: 30 min budget hit, dim in [{exc.dim_lower}, {exc.dim_upper}]"
        )
    assert hull.dimension == expected


def test_stein27_dimension_without_mps_file():
    assert len(ag33_lines()) == 117
    inst = stein27()
    hull = affine_hull(MipOracle(inst, time_limit=None))
    assert (hull.dimension, hull.oracle_queries, hull.cache_hits) == (27, 46, 0)


def test_strength_protocol_properties():
    run_suite(suite_impact)


def test_histogram_boundaries_and_mass():
    run_suite(suite_histogram)


def test_solver_agrees_with_enumeration():
    run_suite(suite_solver, within=300.0)
