"""End-to-end acceptance gate: one test per advertised guarantee.

Every test here restates a headline property of the toolkit with its
tolerance spelled out, against independently computed ground truth
(lattice enumeration, affine rank of enumerated points).  Wall-clock
budgets are asserted where the guarantee includes one.
"""

import random
import time

import pytest

from cutdim.analysis import (
    Verdict,
    build_histogram,
    classify_cut,
    closed_gap,
    impact_protocol,
    relative_dimension_bin,
)
from cutdim.fileio import read_instance
from cutdim.hull import HullInterrupted, affine_hull
from cutdim.linalg import affine_rank, dot
from cutdim.model import Inequality, build_instance
from cutdim.oracle import (
    BruteForceOracle,
    MipOracle,
    PointCache,
    enumerate_lattice,
    make_provider,
)
from cutdim.rational import rat
from cutdim.selftest import lattice_classification, random_cut, random_instance
from cutdim.solver import SolveOptions, SolveStatus, solve_mip

from helpers import miplib_file

ACC_SEED = 1009


def hundred_instances():
    """The fixed corpus shared by the first two gates: n in [2,6],
    coefficients in [-5,5], box [0,3]^n, non-empty."""
    rng = random.Random(ACC_SEED)
    return [random_instance(rng, name=f"acc{i}") for i in range(100)]


def test_affine_hull_uses_exactly_two_n_queries_cold():
    start = time.monotonic()
    for inst in hundred_instances():
        hull = affine_hull(BruteForceOracle(inst))  # no cache anywhere
        n = inst.num_vars
        assert hull.oracle_queries == 2 * n, inst.name
        assert hull.cache_hits == 0
        assert len(hull.points) + len(hull.equations) == n + 1, inst.name
    assert time.monotonic() - start < 60.0


def test_dimension_and_cut_verdicts_match_enumeration():
    start = time.monotonic()
    for i, inst in enumerate(hundred_instances()):
        points = enumerate_lattice(inst)
        provider = make_provider(inst, time_limit=None)
        base = affine_hull(provider)
        assert base.dimension == affine_rank(points), inst.name

        rng = random.Random(ACC_SEED + 7 * i)
        for j in range(5):
            offset = rng.choice((-1, 0, 1))
            cut = random_cut(rng, points, inst.num_vars, offset, label=f"c{j}")
            got = classify_cut(provider, cut, base=base)
            want_verdict, want_dim = lattice_classification(
                points, got.cut, rat(1, 10000)
            )
            assert got.verdict is want_verdict, f"{inst.name} cut {j}"
            if want_verdict is Verdict.SUPPORTING:
                assert got.face_dimension == want_dim, f"{inst.name} cut {j}"
    assert time.monotonic() - start < 600.0


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
    inst = read_instance(path, fmt="mps")
    cache = PointCache(inst, verify=False)
    provider = MipOracle(inst, cache=cache, time_limit=None)
    try:
        hull = affine_hull(provider, time_budget=1800.0)
    except HullInterrupted as exc:
        pytest.skip(
            f"inconclusive: 30 min budget hit, dim in [{exc.dim_lower}, {exc.dim_upper}]"
        )
    assert hull.dimension == expected


def test_strength_protocol_properties():
    rng = random.Random(1013)
    for i in range(20):
        inst = random_instance(rng, max_vars=5, name=f"imp{i}")
        points = enumerate_lattice(inst)
        cuts = [
            random_cut(rng, points, inst.num_vars, rng.choice((0, 1)), label=f"c{j}")
            for j in range(3)
        ]
        report = impact_protocol(inst, cuts, time_limit=None)

        # determinism: same N, same bounds, same gaps
        assert impact_protocol(inst, cuts, time_limit=None) == report

        for rec in (report.baseline, *report.runs):
            assert rec.gap is not None
            assert 0 <= rec.gap <= 1

        # the reported baseline gap is reproducible from a raw solver run
        raw = solve_mip(inst, options=SolveOptions(incumbent=report.optimum))
        z0 = raw.trace[report.node_budget - 1][1]
        assert closed_gap(z0, report.z_lp, report.z_star) == report.baseline.gap

        # along any run's trace the closed gap never moves backwards
        for cut in cuts:
            run = solve_mip(
                inst,
                options=SolveOptions(
                    incumbent=report.optimum, extra_constraints=(cut,)
                ),
            )
            gaps = [closed_gap(z, report.z_lp, report.z_star) for _, z in run.trace]
            assert all(a <= b for a, b in zip(gaps, gaps[1:]))


def test_histogram_boundaries_and_mass():
    assert relative_dimension_bin(-1, 7).label == "empty"
    assert relative_dimension_bin(7, 7).label == "inf"
    assert relative_dimension_bin(6, 7).label == "100%"
    assert relative_dimension_bin(20, 41).label == "[50%,55%)"  # 20/40 = 0.5

    rng = random.Random(1021)
    for _ in range(50):
        items = []
        for _ in range(rng.randint(1, 9)):
            d = rng.randint(0, 12)
            items.append((d, [rng.randint(-1, d) for _ in range(rng.randint(1, 5))]))
        weights = [w for _, w in build_histogram(items)]
        assert sum(weights) == 1  # exact rational identity


def test_solver_agrees_with_enumeration():
    rng = random.Random(1019)
    start = time.monotonic()
    for i in range(200):
        inst = random_instance(rng, max_vars=5, name=f"s{i}", require_nonempty=False)
        points = enumerate_lattice(inst)
        result = solve_mip(inst)
        if not points:
            assert result.status is SolveStatus.INFEASIBLE, inst.name
            continue
        best = max(dot(inst.objective, p) for p in points)
        assert result.status is SolveStatus.OPTIMAL, inst.name
        assert result.primal_value == best, inst.name

        bounds = [z for _, z in result.trace]
        assert all(a >= b for a, b in zip(bounds, bounds[1:])), inst.name

        seeded_point = points[rng.randrange(len(points))]
        seeded = solve_mip(inst, options=SolveOptions(incumbent=seeded_point))
        assert seeded.primal_value >= dot(inst.objective, seeded_point), inst.name
        assert seeded.primal_value == best, inst.name
    assert time.monotonic() - start < 300.0
