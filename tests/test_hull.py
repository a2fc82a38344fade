import dataclasses
import random
from fractions import Fraction
from functools import reduce
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutdim.analysis import classify_cut
from cutdim.hull import (
    EquationSystem,
    HullInterrupted,
    InvalidInitialEquationsError,
    affine_hull,
    cache_probe,
    face_hull,
    move_points,
    select_direction,
)
from cutdim.linalg import (
    Echelon,
    affine_rank,
    dot,
    echelon_form,
    extended,
    is_in_span,
    orthogonal_complement_basis,
    rank,
    vec_sub,
)
from cutdim.model import Inequality, MipInstance, build_instance
from cutdim.oracle import (
    MipOracle,
    Optimal,
    OracleInconclusive,
    OracleSoundnessError,
    _in_set,
    enumerate_lattice,
    make_provider,
    oracle_maximize,
)
from cutdim.rational import rat
from cutdim.selftest import QueryLog, max_decided, random_instance
from helpers import fraction_affine_rank, fraction_complement, handed_points, mixed_vertices


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
    # 2n less the two rounds after the first, which max e_j decides
    # with a point above gamma = 0; no answer is unbounded
    assert hull.oracle_queries == 4


def test_square_matches_cli_fixture():
    inst = cube(2)
    hull = affine_hull(MipOracle(inst))
    assert hull.dimension == 2
    assert hull.oracle_queries == 3
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


@pytest.mark.parametrize(
    "bounds, points, queries",
    [
        # both maxima are unbounded: the first witness seeds X
        ({"lower_bounds": [0, 0]}, [(0, 0), (1, 0), (0, 1)], 2),
        # both minima are unbounded: the first maximizer seeds X
        ({"upper_bounds": [0, 0]}, [(0, 0), (-1, 0), (0, -1)], 4),
    ],
    ids=["x,y>=0", "x,y<=0"],
)
def test_unbounded_quadrant_fixtures(bounds, points, queries):
    quadrant = build_instance(
        name="quadrant",
        constraint_matrix=[],
        rhs=[],
        objective=[0, 0],
        integer_vars=(0, 1),
        **bounds,
    )
    hull = affine_hull(MipOracle(quadrant))
    assert hull.points == tuple(tuple(map(rat, p)) for p in points)
    assert len(hull.equations) == 0
    assert (hull.dimension, hull.oracle_queries, hull.cache_hits) == (2, queries, 0)


def test_a_round_takes_an_unbounded_answers_witness():
    """Integer x0 <= 2 and 0 <= x1 <= 1 with 2*x0 - x1 <= 1.  Max x0 is 1
    at (1, 1); min x0 below -1 is unbounded along (-1, 0) with witness
    (0, 0), and its escape point (-1, 0) joins X in the witness's place.
    The witness lies off aff(X), the line x0 = 2*x1 - 1, so the next
    round takes it with no query."""
    inst = build_instance(
        name="witness",
        constraint_matrix=[[2, -1]],
        rhs=[1],
        objective=[0, 0],
        integer_vars=(0, 1),
        lower_bounds=[None, 0],
        upper_bounds=[2, 1],
    )
    hull = affine_hull(MipOracle(inst))
    assert hull.points == ((1, 1), (-1, 0), (0, 0))
    assert (hull.dimension, hull.oracle_queries, hull.cache_hits) == (2, 2, 1)


def test_initial_equations_reduce_queries():
    inst = diagonal_segment()
    eqs = EquationSystem().with_equation([1, -1], 0)
    hull = affine_hull(MipOracle(inst), initial_equations=eqs)
    assert hull.dimension == 1
    assert hull.oracle_queries == 2  # one round instead of two


def test_invalid_initial_equation_detected():
    eqs = EquationSystem().with_equation([1, 0, 0], 7)  # x1=7 is false on the cube
    with pytest.raises(InvalidInitialEquationsError):
        affine_hull(MipOracle(cube()), initial_equations=eqs)


class GivesUpAfterTwo(MipOracle):
    """Answers two queries truly, then gives up as a solver limit would."""

    answered = 0

    def solve(self, w, bar=None):
        if self.answered == 2:
            raise OracleInconclusive("solver stopped at node_limit after 9 nodes")
        self.answered += 1
        return super().solve(w, bar)


def test_query_budget_interrupt_carries_interval():
    with pytest.raises(HullInterrupted) as info:
        affine_hull(GivesUpAfterTwo(cube()))
    exc = info.value
    # the first round's two answers put two points in X; the third query gave up
    assert exc.queries == 3
    assert (exc.dim_lower, exc.dim_upper) == (1, 3)
    assert "solver stopped at node_limit" in exc.reason


class SlowQueries(MipOracle):
    """Each query moves the hull run's clock on by `step` seconds."""

    def __init__(self, instance, clock, step):
        super().__init__(instance)
        self.clock, self.step = clock, step

    def solve(self, w, bar=None):
        self.clock[0] += self.step
        return super().solve(w, bar)


def test_time_budget_interrupt_inside_a_round(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr("cutdim.hull.time", SimpleNamespace(monotonic=lambda: clock[0]))
    with pytest.raises(HullInterrupted) as info:
        affine_hull(SlowQueries(cube(), clock, 11.0), time_budget=10.0)
    exc = info.value
    # the first round's max query put one point in X and passed the
    # deadline, so the round's min query was never asked
    assert exc.reason == "time budget exhausted"
    assert exc.queries == 1
    assert (exc.dim_lower, exc.dim_upper) == (0, 3)


def test_time_budget_interrupt_inside_the_free_point_pass(monkeypatch):
    """The face x1 + x2 + x3 + x4 = 2 of the 4-cube, handed (1, 1, 0, 0)
    alone, has no single move and fills X from pairs.  The clock passes
    the deadline once two moves are taken, so the run stops at the end
    of that move group, before any direction, with X = x0 and the two
    moves: the bracket holds the face's dimension 3."""
    provider = make_provider(cube(4))
    base = affine_hull(provider)
    cut = Inequality([1, 1, 1, 1], 2)
    on_face = [p for p in enumerate_lattice(cube(4)) if sum(p) == 2]
    taken = []

    def checked(face_provider, p):
        accepted = _in_set(face_provider, p)
        taken.extend([p] * accepted)
        return accepted

    monkeypatch.setattr("cutdim.hull._in_set", checked)
    monkeypatch.setattr(
        "cutdim.hull.time", SimpleNamespace(monotonic=lambda: 0.0 if len(taken) < 2 else 2.0)
    )
    with pytest.raises(HullInterrupted) as info:
        face_hull(provider, base, cut, time_budget=1.0, seen=((1, 1, 0, 0),))
    exc = info.value
    assert taken == [(0, 1, 1, 0), (0, 1, 0, 1)]
    assert exc.reason == "time budget exhausted"
    assert (exc.queries, exc.dim_lower, exc.dim_upper) == (0, 2, 3)
    assert exc.dim_lower <= affine_rank(on_face) <= exc.dim_upper


def test_select_direction_fixtures():
    d = select_direction(Echelon(), EquationSystem(), 2)
    assert d is not None and sum(1 for v in d if v != 0) == 1  # sparsest: a unit

    # X = {(0, 0), (1, 0)}: its span is that of the difference (1, 0)
    d = select_direction(echelon_form([(rat(1), rat(0))]), EquationSystem(), 2)
    assert d is not None
    assert d[0] == 0 and d[1] != 0  # orthogonal to aff(X) = x-axis

    eqs = EquationSystem().with_equation([0, 1], 0)
    d = select_direction(Echelon(), eqs, 2)  # X = {(0, 0)}: no differences
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
    cut = Inequality([-1, 0, 0], 0)  # the facet x1 = 0 holds three of base's points
    warm = face_hull(provider, base, cut)
    bare = face_hull(provider, dataclasses.replace(base, points=()), cut)
    assert warm.dimension == bare.dimension == 2
    assert (warm.oracle_queries, warm.cache_hits) == (0, 2)
    # the first round asks both sides, the second only max x3 above 0
    assert (bare.oracle_queries, bare.cache_hits) == (3, 0)


def test_cache_probe_modes():
    assert cache_probe((), [1, 0], gamma=rat(0)) is None  # no witness

    assert cache_probe(((0, 0),), [1, 0], gamma=rat(0)) is None  # no d-value differs
    witnesses = ((0, 0), (1, 1), (1, 0))
    # the first point with d.p != gamma, in answer order
    assert cache_probe(witnesses, [1, 0], gamma=rat(0)) == (rat(1), rat(1))
    assert cache_probe(witnesses, [0, 1], gamma=rat(1)) == (rat(0), rat(0))


@pytest.mark.parametrize("engine", ["solver", "lattice"])
def test_run_cache_holds_each_verified_answer_once(monkeypatch, engine):
    """On a bounded set a run's points are the points it was handed, then
    each answer's point and each accepted move point once, in first-seen
    order, each checked once and each in the set."""
    joined, checks = [], []
    check = MipInstance.is_feasible_point

    def recorded(provider, w, bar=None):
        response = oracle_maximize(provider, w, bar)
        joined.append(response.point)
        return response

    def moved(provider, point):
        # the run checks a move only once it escapes aff(X), and keeps it if it passes
        accepted = _in_set(provider, point)
        if accepted:
            joined.append(point)
        return accepted

    monkeypatch.setattr("cutdim.hull.oracle_maximize", recorded)
    monkeypatch.setattr("cutdim.hull._in_set", moved)
    monkeypatch.setattr(
        MipInstance, "is_feasible_point", lambda inst, p: checks.append(p) or check(inst, p)
    )
    provider = make_provider(cube(), engine)
    warm = affine_hull(provider)
    # max x1, then min x1 at the origin, then max x2 and max x3 above 0;
    # a run handed no points takes no moves
    assert joined == [(1, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert warm.points == tuple(joined) and checks == joined

    joined.clear()
    checks.clear()
    start = ((0, 0, 0), (1, 1, 1))
    seeded = affine_hull(provider, cache=start)
    # the origin and (1, 1, 1) join X first, then the origin's moves e1
    # and e2 fill it, so no query is asked
    assert joined == [(1, 0, 0), (0, 1, 0)]
    assert seeded.points == start + tuple(joined) and checks == joined
    assert (seeded.cache_hits, seeded.oracle_queries) == (3, 0)
    assert all(check(provider.instance, p) for p in seeded.points)
    assert warm.dimension == seeded.dimension == 3


class OutsidePoint(MipOracle):
    """Answers e1 with (2, 0, 0), outside the cube, and the rest truly."""

    def solve(self, w, bar=None):
        if tuple(w) == (1, 0, 0):
            return Optimal((2, 0, 0), 2)
        return super().solve(w, bar)


def test_only_verified_answers_reach_the_run_cache():
    with pytest.raises(OracleSoundnessError):
        affine_hull(OutsidePoint(cube()))
    assert (2, 0, 0) in affine_hull(OutsidePoint(cube(), verify=False)).points


def test_runs_with_verify_off_end_with_an_unverified_point_in_x():
    """With verify off, X may hold a point outside the set.  Its value is
    only the bar of later queries, never an incumbent the solver checks,
    so the base run and a face run that queries end."""
    provider = OutsidePoint(cube(), verify=False)
    base = affine_hull(provider)
    assert base.dimension == 3 and base.points[0] == (2, 0, 0)
    face = face_hull(provider, dataclasses.replace(base, points=()), Inequality([0, 0, 1], 0))
    assert face.dimension == 2 and face.points[0] == (2, 0, 0)
    assert face.oracle_queries == 3


def test_moves_of_a_first_point_outside_the_set_join_only_when_in_the_set(monkeypatch):
    """With verify off, a run's first handed point may lie outside the set,
    here OutsidePoint's (2, 0, 0).  Its moves are checked with verify off
    too: the two single moves that keep x1 = 2 are skipped, and only
    moves into the cube join X, singles before pairs."""
    checked = []
    monkeypatch.setattr(
        "cutdim.hull._in_set", lambda provider, p: checked.append(p) or _in_set(provider, p)
    )
    provider = OutsidePoint(cube(), verify=False)
    run = affine_hull(provider, cache=((2, 0, 0),))
    moves = ((1, 0, 0), (1, 1, 0), (1, 0, 1))
    assert run.points == ((2, 0, 0),) + moves
    assert all(provider.instance.is_feasible_point(p) for p in moves)
    assert checked == [(1, 0, 0), (2, 1, 0), (2, 0, 1), (1, 1, 0), (1, 0, 1)]
    assert (run.dimension, run.oracle_queries, run.cache_hits) == (3, 0, 3)


def test_face_run_starts_from_the_base_points_on_the_face(monkeypatch):
    rng = random.Random(57)
    inst = random_instance(rng, name="probe")
    n = inst.num_vars
    provider = make_provider(inst, "lattice")
    base = affine_hull(provider)
    a = [rng.randint(-3, 3) for _ in range(n)]
    directions = [a] + [[rng.randint(-3, 3) for _ in range(n)] for _ in range(12)]
    seen = tuple(oracle_maximize(provider, w).point for w in directions)
    cut = Inequality(a, dot(a, seen[0]))
    held = tuple(dict.fromkeys(base.points + seen))
    on_face = tuple(p for p in held if dot(a, p) == cut.rhs)
    with handed_points() as handed:
        face = face_hull(provider, base, cut, seen=seen)
    assert on_face and handed == [on_face]
    new = tuple(p for p in face.points if p not in held)
    assert new and all(dot(a, p) == cut.rhs for p in new)
    assert face.dimension == affine_rank([p for p in provider.points if dot(a, p) == cut.rhs])
    # A point only `seen` holds no longer saves a round: a move of the
    # run's first handed point, which both runs share, is taken in its
    # place.  So a run handed both spends what one handed the base
    # points spends.
    assert (face.oracle_queries, face.cache_hits) == (4, 2)
    other = face_hull(provider, base, cut)
    assert (other.oracle_queries, other.cache_hits) == (4, 2)
    # On an unbounded set, integer x0 <= 3 and x1 >= -1, min x0 and
    # max x1 are unbounded, and the base run takes the escape point
    # (3, 0) of the latter in its witness's place.  It lies on the face
    # x0 = 3, a ray, so the face run takes it with no query.
    strip = build_instance(
        name="strip",
        constraint_matrix=[],
        rhs=[],
        objective=[0, 0],
        integer_vars=(0,),
        lower_bounds=[None, -1],
        upper_bounds=[3, None],
    )
    strip_provider = make_provider(strip)
    strip_base = affine_hull(strip_provider)
    assert strip_base.points == ((3, -1), (2, -1), (3, 0))
    ray = face_hull(strip_provider, strip_base, Inequality([1, 0], 3))
    assert ray.points == ((3, -1), (3, 0))
    assert (ray.dimension, ray.oracle_queries, ray.cache_hits) == (1, 0, 1)
    # without moves, the `seen` point saves the round alone
    monkeypatch.setattr("cutdim.hull.move_points", lambda provider, x0: iter(()))
    face, other = face_hull(provider, base, cut, seen=seen), face_hull(provider, base, cut)
    assert (face.oracle_queries, face.cache_hits) == (5, 1)
    assert (other.oracle_queries, other.cache_hits) == (6, 0)


def test_equations_valid_on_all_points():
    rng = random.Random(53)
    for i in range(25):
        inst = random_instance(rng, name=f"eq{i}", require_nonempty=False)
        points = enumerate_lattice(inst)
        # a run and a face run that starts from the base run's points
        provider = make_provider(inst, "lattice")
        base = affine_hull(provider)
        runs = [(base, points)]
        if points:
            c = inst.objective
            top = max(dot(c, p) for p in points)
            face = face_hull(provider, base, Inequality(c, top))
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


def _mixed_instance(rng, name):
    """1-3 integer columns, then 1-2 continuous ones with half-integral
    upper bounds, and 1-2 rows; the box holds 0 and every rhs is
    nonnegative, so the origin is feasible."""
    k = rng.randint(1, 3)
    n = k + rng.randint(1, 2)
    lower = [rng.randint(-1, 0) for _ in range(n)]
    upper = [lo + rng.randint(1, 2) if j < k else Fraction(rng.randint(1, 4), 2)
             for j, lo in enumerate(lower)]
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 2))]
    return build_instance(
        name=name,
        constraint_matrix=rows,
        rhs=[rng.randint(0, 4) for _ in rows],
        objective=[0] * n,
        integer_vars=range(k),
        lower_bounds=lower,
        upper_bounds=upper,
    )


@pytest.mark.parametrize("engine", ["solver", "lattice", "mixed"])
def test_the_move_probe_moves_no_verdict_or_face_dimension(monkeypatch, engine):
    """Each cut's verdict, beta_true and face dimension are the same with
    the moves patched out of the free-point pass, and the face dimension
    is the twin's: the rank of the lattice points (pure-integer
    instances, both engines) or of `mixed_vertices` (mixed-integer
    instances, solver engine) on the face.  Every move offered changes
    x0 on integer columns only, and with x0 in the set the prefilter is
    exact: no candidate fails the membership check."""
    rng = random.Random(73)
    moved, rejected = [], []

    def checked(provider, p):
        accepted = _in_set(provider, p)
        (moved if accepted else rejected).append(p)
        return accepted

    def offered(provider, x0):
        for group in move_points(provider, x0):
            for point in group:
                changed = {j for j, (u, v) in enumerate(zip(x0, point)) if u != v}
                assert changed <= provider.instance.integer_vars
            yield group

    monkeypatch.setattr("cutdim.hull._in_set", checked)

    def classify(inst, cuts):
        provider = make_provider(inst, "solver" if engine == "mixed" else engine, time_limit=None)
        base = affine_hull(provider)
        return base, [classify_cut(provider, cut, base=base) for cut in cuts]

    queries = {True: 0, False: 0}
    for i in range(25):
        if engine == "mixed":
            inst = _mixed_instance(rng, f"mixed{i}")
            points = mixed_vertices(inst)
        else:
            inst = random_instance(rng, max_vars=5, name=f"moves{i}")
            points = enumerate_lattice(inst)
        n = inst.num_vars
        cuts = []
        for slack in (0, 0, 0, 1, -1):
            a = [rng.randint(-3, 3) for _ in range(n)]
            cuts.append(Inequality(a, max(dot(a, p) for p in points) + slack))
        runs = {}
        for probe in (True, False):
            with monkeypatch.context() as mp:
                mp.setattr(
                    "cutdim.hull.move_points", offered if probe else lambda provider, x0: iter(())
                )
                runs[probe] = classify(inst, cuts)
            queries[probe] += sum(
                c.face_result.oracle_queries for c in runs[probe][1] if c.face_result
            )
        (base, got), (_, want) = runs[True], runs[False]
        assert base.dimension == fraction_affine_rank(points, n), f"case {i}"
        for cut, g, w in zip(cuts, got, want):
            assert (g.verdict, g.beta_true, g.face_dimension) == (
                w.verdict, w.beta_true, w.face_dimension
            ), f"case {i}: {cut}"
            if g.face_result is not None:
                face = g.tightened
                on_face = [p for p in points if dot(face.coefficients, p) == face.rhs]
                assert g.face_dimension == fraction_affine_rank(on_face, n), f"case {i}: {cut}"
    assert moved and not rejected and queries[True] < queries[False]


@pytest.mark.parametrize("engine", ["solver", "lattice"])
def test_queries_plus_twice_the_hits_is_twice_the_free_dimensions(engine):
    """On a bounded nonempty set, every base run and every face run spends
    queries + 2 * cache_hits + (rounds its max side decided) == 2(n - r0),
    r0 the equations it starts from, so queries + 2 * cache_hits is at
    most 2(n - r0).  A face run is handed points, so one that starts from
    n equations takes none, as the identity says."""
    rng = random.Random(67)

    def spent_as_proven(run, n, r0, log):
        spent = run.oracle_queries + 2 * run.cache_hits
        return (
            len(log) == run.oracle_queries
            and spent + max_decided(log) == 2 * (n - r0)
            and spent <= 2 * (n - r0)
        )

    hits = decided = 0
    for i in range(40):
        inst = random_instance(rng, max_vars=5, name=f"spent{i}")
        n, points = inst.num_vars, enumerate_lattice(inst)
        log = []
        provider = QueryLog(make_provider(inst, engine, time_limit=None), log)
        base = affine_hull(provider)
        assert spent_as_proven(base, n, 0, log), f"case {i}: base run"
        hits, decided = hits + base.cache_hits, decided + max_decided(log)
        for j in range(4):
            a = [rng.randint(-3, 3) for _ in range(n)]
            cut = Inequality(a, max(dot(a, p) for p in points) + rng.choice((0, 0, 1)))
            log.clear()
            face = classify_cut(provider, cut, base=base).face_result
            if face is None:  # not supporting, or a zero row
                continue
            r0 = rank(base.equations.rows + (a,))
            face_log = log[1:]  # after the verdict query
            assert spent_as_proven(face, n, r0, face_log), f"case {i}.{j}: face run"
            hits, decided = hits + face.cache_hits, decided + max_decided(face_log)
    assert hits > 0 and decided > 0
    # the segment's end x1 = 1: the face run starts from n = 2 equations
    provider = make_provider(diagonal_segment(), engine)
    face = classify_cut(provider, Inequality([1, 0], 1), base=affine_hull(provider)).face_result
    assert spent_as_proven(face, 2, 2, ()) and face.dimension == 0
    assert (face.oracle_queries, face.cache_hits, face.points) == (0, 0, ((1, 1),))


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
        whole = all(dot(a, p) == beta for p in points)
        assert (face.dimension == base.dimension) == whole


_FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def _systems(draw):
    """n, fractional equation rows (some combinations of earlier rows),
    their right-hand sides (some met by `point`), a point, and a
    candidate that is a combination of the rows about half the time."""
    n = draw(st.integers(1, 4))
    vectors = st.lists(_FRACTIONS, min_size=n, max_size=n)

    def combination(rows):
        weights = draw(st.lists(_FRACTIONS, min_size=len(rows), max_size=len(rows)))
        return [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n)]

    rows = []
    for _ in range(draw(st.integers(0, 4))):
        rows.append(combination(rows) if rows and draw(st.booleans()) else draw(vectors))
    point = draw(st.lists(st.integers(-3, 3) | _FRACTIONS, min_size=n, max_size=n))
    rhs = [
        sum(a * x for a, x in zip(row, point)) if draw(st.booleans()) else draw(_FRACTIONS)
        for row in rows
    ]
    candidate = combination(rows) if rows and draw(st.booleans()) else draw(vectors)
    return n, rows, rhs, tuple(point), candidate


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_systems())
def test_equation_system_matches_fraction_twin(case):
    """An EquationSystem built row by row against its rational inputs:
    the output views give them back, violated_row finds the first row a
    Fraction sum breaks, and span and rank read off `echelon` match a
    Fraction rank (n minus the Fraction complement's size)."""
    n, rows, rhs, point, candidate = case
    eqs = EquationSystem()
    for row, b in zip(rows, rhs):
        eqs = eqs.with_equation(row, b)
    assert eqs.rows == tuple(map(tuple, rows)) and eqs.rhs == tuple(rhs)
    broken = [
        i for i, (row, b) in enumerate(zip(rows, rhs))
        if sum(Fraction(a) * x for a, x in zip(row, point)) != b
    ]
    assert eqs.violated_row(point) == (broken[0] if broken else None)

    def fraction_rank(vectors):
        return n - len(fraction_complement(vectors, n))

    assert rank(eqs.echelon) == fraction_rank(rows)
    in_span = fraction_rank(rows + [candidate]) == fraction_rank(rows)
    assert is_in_span(candidate, eqs.echelon) == is_in_span(candidate, eqs.rows) == in_span


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_systems(), st.data())
def test_select_direction_on_a_grown_span_matches_the_raw_differences(case, data):
    """X's span grown a point at a time through `extended` gives the
    direction the from-scratch rule picks: the sparsest vector of the
    complement of X's raw differences outside span(D), by Fractions."""
    n, rows, rhs, _, _ = case
    eqs = EquationSystem()
    for row, b in zip(rows, rhs):
        eqs = eqs.with_equation(row, b)
    coordinates = st.lists(st.integers(-3, 3) | _FRACTIONS, min_size=n, max_size=n)
    points = data.draw(st.lists(coordinates, min_size=1, max_size=n + 1))
    span = Echelon()
    for x in points[1:]:
        span = extended(span, vec_sub(x, points[0]))

    def fraction_rank(vectors):
        return n - len(fraction_complement(vectors, n))

    def key(v):
        support = tuple(j for j, c in enumerate(v) if c != 0)
        return (len(support), support, v)

    diffs = [[Fraction(a) - b for a, b in zip(x, points[0])] for x in points[1:]]
    outside = [
        v for v in sorted(fraction_complement(diffs, n), key=key)
        if fraction_rank(rows + [v]) > fraction_rank(rows)
    ]
    assert select_direction(span, eqs, n) == (outside[0] if outside else None)


@st.composite
def _spans_and_equations(draw):
    """n <= 7, an echelon span grown from rational rows (empty, partial or
    all of Q^n), and an equation system of rational rows (none, some or
    spanning Q^n, dependent rows dropped as `with_equation` needs).
    Sparse rows and unit rows make supports of equal size, and sparse
    candidates inside the equations' span, common."""
    n = draw(st.integers(1, 7))
    sparse = st.sampled_from((0, 0, 0, 1, -1, Fraction(1, 2), Fraction(-3, 2)))
    vectors = st.lists(_FRACTIONS | sparse, min_size=n, max_size=n)
    units = [[int(i == j) for j in range(n)] for i in range(n)]

    def rows():
        kind = draw(st.sampled_from(("none", "some", "units", "full")))
        if kind == "none":
            return []
        if kind == "full":
            return draw(st.permutations(units)) + draw(st.lists(vectors, max_size=2))
        if kind == "units":
            return draw(st.lists(st.sampled_from(units), min_size=1, max_size=n))
        return draw(st.lists(vectors, min_size=1, max_size=n + 1))

    span = reduce(extended, rows(), Echelon())
    eqs = EquationSystem()
    for row in rows():
        if not is_in_span(row, eqs.echelon):
            eqs = eqs.with_equation(row, draw(_FRACTIONS))
    return n, span, eqs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_spans_and_equations())
def test_select_direction_tests_the_candidates_the_full_sort_would(case):
    """The direction is the first vector of the whole complement basis,
    sorted by (support size, support), that lies outside the equations'
    span, and `is_in_span` is called once per candidate up to it, as on
    that sorted list: the candidates ordered off the echelon rows before
    any vector is built are tested in the same order."""
    n, span, eqs = case

    def key(v):
        support = tuple(j for j, c in enumerate(v) if c != 0)
        return (len(support), support)

    ranked = sorted(orthogonal_complement_basis(span, n), key=key)
    outside = [i for i, v in enumerate(ranked) if not is_in_span(v, eqs.echelon)]
    want = ranked[outside[0]] if outside else None
    tests = outside[0] + 1 if outside else len(ranked)
    with mock.patch("cutdim.hull.is_in_span", side_effect=is_in_span) as spy:
        assert select_direction(span, eqs, n) == want
    assert spy.call_count == tests
    if len(span) == n:
        assert want is None and tests == 0
