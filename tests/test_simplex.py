import copy
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutdim import simplex
from cutdim.linalg import (
    dot,
    int_row,
    is_in_span,
    orthogonal_complement_basis,
    rank,
    scaled_row,
)
from cutdim.rational import rat, rat_str
from cutdim.selftest import random_instance
from cutdim.simplex import LinearProgram, LPStatus, solve_lp
from cutdim.solver import solve_mip

from helpers import cap_row_solve, random_boxed_lp, reference_lp

PINNED_DIGEST = "e481a33bea0ae4438cf59ad812270c6d7a15718d13af0c10a68ff05bb0308a85"


def test_simple_maximization():
    res = solve_lp([5, 4], [[2, 3]], [4], lower=[0, 0], upper=[1, 1])
    assert res.status is LPStatus.OPTIMAL
    assert res.value == rat(23, 3)  # x=1, y=2/3
    assert res.point == (rat(1), rat(2, 3))
    assert type(res.value) is Fraction


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
    assert res.value == -2 and type(res.value) is int


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
            # the value is an int exactly when it is integral
            assert type(res.value) is (int if res.value.denominator == 1 else Fraction)


def _pinned_corpus_lines():
    """Rendered results of a seeded corpus of LPs, MIPs and rank questions.

    The LPs mix boxed, lower-bounded, reflected and free variables with
    equations that include repeated and dependent rows, so phase one's
    drive-out pivot and its redundant-row drop both run.  Values are
    rendered with rat_str, which reads the same on either rational backend.
    """
    rng = random.Random(4242)

    def vec(values):
        return "None" if values is None else ",".join(rat_str(v) for v in values)

    for _ in range(1500):
        n = rng.randint(1, 4)
        lower, upper = [], []
        for _ in range(n):
            kind = rng.randrange(4)
            lo = rng.randint(-3, 1)
            lower.append(lo if kind in (0, 1) else None)
            upper.append(lo + rng.randint(0, 4) if kind in (0, 2) else None)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        rhs = [rng.randint(-3, 8) for _ in rows]
        eq_rows, eq_rhs = [], []
        for _ in range(rng.randint(0, 2)):
            eq_rows.append([rng.randint(-2, 2) for _ in range(n)])
            eq_rhs.append(rng.choice((0, 0, rng.randint(-3, 3))))
        if eq_rows and rng.random() < 0.4:
            i, j = rng.randrange(len(eq_rows)), rng.randrange(len(eq_rows))
            k = rng.choice((1, 2, -1))
            eq_rows.append([a + k * b for a, b in zip(eq_rows[i], eq_rows[j])])
            eq_rhs.append(eq_rhs[i] + k * eq_rhs[j] + rng.choice((0, 0, 0, 1)))
        objective = [rng.randint(-4, 4) for _ in range(n)]
        res = solve_lp(objective, rows, rhs, eq_rows, eq_rhs, lower=lower, upper=upper)
        value = None if res.value is None else rat_str(res.value)
        yield f"lp {res.status.value} {vec(res.point)} {value} {vec(res.ray)}"

    for _ in range(150):
        inst = random_instance(rng, max_vars=4, require_nonempty=False)
        res = solve_mip(inst)
        trace = ";".join(f"{k}:{rat_str(b)}" for k, b in res.trace)
        yield (
            f"mip {res.status.value} {vec(res.best_point)} {rat_str(res.primal_value)} "
            f"{rat_str(res.dual_bound)} {res.node_count} {trace} {vec(res.ray)}"
        )

    for _ in range(1000):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        if rows and rng.random() < 0.5:
            rows.append([a - b for a, b in zip(rows[0], rows[-1])])
        candidate = [rng.randint(-2, 2) for _ in range(n)]
        basis = orthogonal_complement_basis(rows, n)
        yield (
            f"lin {rank(rows)} {is_in_span(candidate, rows)} "
            f"{'|'.join(vec(b) for b in basis)}"
        )


def test_results_are_pinned():
    """Every result of the seeded corpus is the same, bit for bit.

    The digest was taken before the simplex shared linalg's pivot step;
    any change to the pivot sequence, the tie-breaks, phase one's
    clean-up or the echelon form shows up here.
    """
    digest = hashlib.sha256()
    for line in _pinned_corpus_lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED_DIGEST


_VALUES = tuple(Fraction(v) for v in ("-2", "-1", "-1/2", "0", "1/3", "1", "3/2", "2"))


@st.composite
def _reuse_case(draw):
    """A program and a sequence of (objective, lower, upper) solves of it.

    Variables are boxed (b), lower-bounded (l), reflected (r) or free
    (f); each bound vector takes one of a few such patterns, with its own
    bound values, which may be fractional, so a pattern comes back with
    other shifts.  A boxed variable's upper bound may cross its lower.
    Every bound vector is solved in turn, then a few are solved again;
    each solve takes one of 1-3 objectives, so they interleave over the
    bound vectors, and a bound vector may come back with another one.
    """
    n = draw(st.integers(1, 3))
    value = st.sampled_from(_VALUES)
    row = st.lists(value, min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=3))
    rhs = [draw(st.sampled_from(_VALUES + (3, 5))) for _ in rows]
    eq_rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=2))
    eq_rhs = [draw(value) for _ in eq_rows]
    if eq_rows and draw(st.booleans()):  # a dependent, consistent equation
        eq_rows.append([a + b for a, b in zip(eq_rows[0], eq_rows[-1])])
        eq_rhs.append(eq_rhs[0] + eq_rhs[-1])
    objectives = [tuple(c) for c in draw(st.lists(row, min_size=1, max_size=3))]
    objective = st.sampled_from(objectives)
    kinds = draw(st.lists(st.text("blrf", min_size=n, max_size=n), min_size=1, max_size=3))
    bounds = []
    for _ in range(draw(st.integers(2, 7))):
        lower, upper = [], []
        for kind in draw(st.sampled_from(kinds)):
            lo = draw(value)
            hi = lo + draw(st.sampled_from((Fraction(-1, 2), 0, Fraction(1, 2), 1, 3)))
            lower.append(lo if kind in "bl" else None)
            upper.append(hi if kind in "br" else None)
        bounds.append((tuple(lower), tuple(upper)))
    solves = [(draw(objective), *b) for b in bounds]
    solves += [
        (draw(objective), *draw(st.sampled_from(bounds))) for _ in range(draw(st.integers(0, 5)))
    ]
    return rows, rhs, eq_rows, eq_rhs, solves


def _checked(phase_one, price_out, phase_ones):
    """`simplex._phase_one` and `_price_out`, first checking that every row
    of a new tableau, and each objective row as it enters, is the coprime
    integer row `int_row` gives, with rhs >= 0 in the constraint rows;
    each phase one run is appended to `phase_ones`."""

    def checked_phase_one(tableau, basis, art_base, *pairs):
        assert all(row == int_row(row) and row[-1] >= 0 for row in tableau)
        phase_ones.append(art_base)
        return phase_one(tableau, basis, art_base, *pairs)

    def checked_price_out(tableau, basis):
        assert tableau[-1] == int_row(tableau[-1])
        return price_out(tableau, basis)

    return checked_phase_one, checked_price_out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_reuse_case(), st.sampled_from((1, 2, 3, simplex._STARTS)))
def test_one_program_solves_each_bound_vector_like_a_fresh_one(case, cap):
    """Every solve equals a fresh program's.  Phase one runs at most once
    per bound vector while the program remembers its start: the root's
    for good, the others' while they are among the latest `cap` - 1 it
    ran for, whatever objective comes back with them.  No remembered
    tableau is ever written to."""
    rows, rhs, eq_rows, eq_rhs, solves = case
    fresh = [solve_lp(c, rows, rhs, eq_rows, eq_rhs, lo, hi) for c, lo, hi in solves]
    program = LinearProgram(
        len(solves[0][0]),
        [scaled_row(row, b) for row, b in zip(rows, rhs)],
        [scaled_row(row, b) for row, b in zip(eq_rows, eq_rhs)],
    )
    phase_ones = []
    current, remembered = None, {}  # the latest objective, its answers by bound vector
    starts = []  # the bound vectors whose start the program should hold, oldest first
    with pytest.MonkeyPatch.context() as mp:
        phase_one, price_out = _checked(simplex._phase_one, simplex._price_out, phase_ones)
        mp.setattr(simplex, "_phase_one", phase_one)
        mp.setattr(simplex, "_price_out", price_out)
        mp.setattr(simplex, "_STARTS", cap)
        for (objective, lower, upper), want in zip(solves, fresh):
            if objective != current:  # another objective replaces the answers
                current, remembered = objective, {}
            kept = copy.deepcopy(program._starts)
            before = len(phase_ones)
            got = program.solve(objective, lower, upper)
            assert got == want
            # a remembered phase-one tableau is never written to
            for bounds, start in program._starts.items():
                assert bounds not in kept or start == kept[bounds]
            ran = len(phase_ones) - before
            bounds = (lower, upper)
            crossed = any(lo is not None and hi is not None and lo > hi for lo, hi in zip(*bounds))
            if bounds in remembered:
                assert got is remembered[bounds] and ran == 0
            elif crossed:
                assert ran == 0  # no phase one for bounds that cross
            elif bounds in starts:
                assert ran == 0
            else:
                assert ran == 1
                starts.append(bounds)
                if len(starts) > cap:
                    del starts[1]  # the oldest but the root's
            assert list(program._starts) == starts
            assert len(program._starts) <= cap
            remembered[bounds] = got
            if None not in lower + upper and all(lo <= hi for lo, hi in zip(lower, upper)):
                # boxed: an independent vertex enumeration, equations as two rows
                value, _ = reference_lp(
                    objective,
                    rows + eq_rows + [[-a for a in r] for r in eq_rows],
                    rhs + eq_rhs + [-b for b in eq_rhs],
                    lower,
                    upper,
                )
                assert got.value == value
                assert (got.status is LPStatus.OPTIMAL) == (value is not None)
    # one compiled form per pattern of finite bounds, whatever the values
    patterns = {
        tuple((lo is not None, hi is not None) for lo, hi in zip(lower, upper))
        for _, lower, upper in solves
        if all(lo is None or hi is None or lo <= hi for lo, hi in zip(lower, upper))
    }
    assert len(program._forms) == len(patterns)
    # the latest objective's answers are given from memory, however asked
    for (lower, upper), result in remembered.items():
        assert program.solve(list(current), list(lower), list(upper)) is result


def test_a_program_keeps_the_starts_of_its_latest_bound_vectors(monkeypatch):
    """Twenty boxes, each solved under two objectives in turn: phase one
    runs once per box while the box is among the latest `_STARTS` - 1
    it ran for besides the root, whose start stays for good, and again
    once it has been pushed out."""
    rows, rhs = [[2, 3, -1], [-1, 1, 1]], [7, -1]
    program = LinearProgram(3, [scaled_row(row, r) for row, r in zip(rows, rhs)])
    boxes = [((0, k % 3, 0), (2 + k, 3, 1 + k % 2)) for k in range(20)]
    assert len(set(boxes)) == len(boxes) > simplex._STARTS
    objectives = ([1, 1, 1], [Fraction(1, 2), -2, 3])
    fresh = [solve_lp(c, rows, rhs, lower=lo, upper=hi) for c in objectives for lo, hi in boxes]
    starts = []
    start = LinearProgram._start

    def counted_start(program, form, shifts, lower, upper):
        starts.append((lower, upper))
        return start(program, form, shifts, lower, upper)

    monkeypatch.setattr(LinearProgram, "_start", counted_start)
    solves = [(c, lo, hi) for c in objectives for lo, hi in boxes]
    for (c, lower, upper), want in zip(solves, fresh):
        assert program.solve(c, lower, upper) == want
        assert len(program._starts) <= simplex._STARTS
    # the second objective found only the root's start: the other 19 boxes
    # were dropped before they came back
    assert starts == boxes + boxes[1:]
    assert list(program._starts) == boxes[:1] + boxes[-(simplex._STARTS - 1):]
    # a kept box comes back under a third objective with no phase one
    for lower, upper in (boxes[0], boxes[-1], boxes[-simplex._STARTS + 1]):
        program.solve([0, 1, 0], lower, upper)
    assert len(starts) == 2 * len(boxes) - 1


def test_the_program_keeps_the_latest_objective(monkeypatch):
    rows, rhs = [[2, 3], [1, -1]], [4, Fraction(1, 2)]
    lower, upper = [0, 0], [1, 2]
    a, b = [5, 4], [-1, Fraction(1, 3)]
    fresh = {tuple(c): solve_lp(c, rows, rhs, lower=lower, upper=upper) for c in (a, b)}
    program = LinearProgram(2, [scaled_row(row, r) for row, r in zip(rows, rhs)])
    solved = []
    solve = LinearProgram._solve

    def counted_solve(program, lower, upper):
        solved.append((lower, upper))
        return solve(program, lower, upper)

    monkeypatch.setattr(LinearProgram, "_solve", counted_solve)
    first = program.solve(a, lower, upper)
    assert first == fresh[tuple(a)] and len(solved) == 1
    # the same objective, however it is given, is answered from memory
    for same in (list(a), tuple(a), [Fraction(5), Fraction(4)]):
        assert program.solve(same, lower, upper) is first
    assert len(solved) == 1
    # another objective replaces the memo, so A asked again is solved again
    for c in (b, a):
        assert program.solve(c, lower, upper) == fresh[tuple(c)]
    assert len(solved) == 3
    assert program.solve(a, lower, upper) is not first
    # a tuple asked again is known by identity, with no conversion
    c = tuple(b)
    latest = program.solve(c, lower, upper)
    monkeypatch.setattr(simplex, "exact_vector", None)
    assert program.solve(c, lower, upper) is latest and len(solved) == 4


@st.composite
def _bounded_case(draw):
    """A program, one bound vector and two objectives for it.

    Variables are fixed (x), free (f), bounded below (l) or above (u)
    only, or boxed (b) with a cap of 1/2 to 3, so bounds and caps may be
    fractional; bounds near 0 and caps of 1 make ties in the ratio test
    common.  Rows take small ints and halves, with rhs of either
    sign, so phase one runs; some programs have equations, one maybe
    dependent, so the drive-out and its redundant-row drop run too.
    """
    n = draw(st.integers(1, 6))
    coeff = st.sampled_from((-2, -1, Fraction(-1, 2), 0, 0, Fraction(1, 2), 1, 2, 3))
    row = st.lists(coeff, min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=6))
    rhs = [draw(st.sampled_from(_VALUES + (3, 5))) for _ in rows]
    eq_rows = draw(st.lists(row, max_size=3))
    eq_rhs = [draw(st.sampled_from(_VALUES)) for _ in eq_rows]
    if eq_rows and draw(st.booleans()):
        eq_rows.append([a - b for a, b in zip(eq_rows[0], eq_rows[-1])])
        eq_rhs.append(eq_rhs[0] - eq_rhs[-1])
    lower, upper = [], []
    for kind in draw(st.text("xflub", min_size=n, max_size=n)):
        lo = draw(st.sampled_from((0, 0, 1, -1, Fraction(-1, 2), Fraction(1, 3), 2)))
        hi = lo + draw(st.sampled_from((1, 1, Fraction(1, 2), Fraction(3, 2), 2, 3)))
        lower.append(lo if kind in "xlb" else None)
        upper.append(lo if kind == "x" else hi if kind in "ub" else None)
    objectives = draw(st.lists(row, min_size=2, max_size=2, unique_by=tuple))
    return rows, rhs, eq_rows, eq_rhs, lower, upper, objectives


def _record_steps(mp, steps, ends):
    """Record each step of `LinearProgram`'s solves into `steps` as
    (phase, entering, leaving) in the cap-row columns, through wrappers
    of `simplex._enter` (a pivot, the leaving column the row's basic)
    and `_flip` (col entering, its partner leaving).  The phase is "one"
    inside phase one's `_optimize`, "drive" in the rest of `_phase_one`,
    and "two" elsewhere.  When phase one's loop ends, `ends` gets the
    basis in the cap-row rows, by the places it keeps: each row's basic
    at its place, and each pair's implicit basic (y when its slack t is
    active, else t) at the pair's."""
    phase = ["two"]
    enter, flip = simplex._enter, simplex._flip
    optimize, phase_one = simplex._optimize, simplex._phase_one

    def recorded_enter(tableau, basis, r, c):
        steps.append((phase[0], c, basis[r]))
        enter(tableau, basis, r, c)

    def recorded_flip(tableau, col, partner, num, den):
        steps.append((phase[0], col, partner))
        flip(tableau, col, partner, num, den)

    def phased_optimize(tableau, basis, pairs, at_upper, places=None):
        outer = phase[0]
        phase[0] = "one" if outer == "drive" else outer
        try:
            return optimize(tableau, basis, pairs, at_upper, places)
        finally:
            phase[0] = outer
            if places is not None:
                rows, held = places
                placed = dict(zip(rows, basis))
                for y, place in held.items():
                    placed[place] = y if y in at_upper else pairs[y][0]
                ends.append([placed[i] for i in range(len(placed))])

    def phased_phase_one(*args):
        phase[0] = "drive"
        try:
            return phase_one(*args)
        finally:
            phase[0] = "two"

    mp.setattr(simplex, "_enter", recorded_enter)
    mp.setattr(simplex, "_flip", recorded_flip)
    mp.setattr(simplex, "_optimize", phased_optimize)
    mp.setattr(simplex, "_phase_one", phased_phase_one)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_bounded_case())
def test_pairs_take_the_cap_row_pivot_path(case):
    """The implicit pairs take the pivot path of the cap-row form.

    `cap_row_solve` gives every doubly bounded variable a cap row and
    moves it between its bounds by pivots.  `LinearProgram` must take
    the same (entering, leaving) steps in phase one, the drive-out and
    phase two, a flip standing for the pivot at the cap row, and give
    the same point, value or ray, in the same number types.  Phase one
    ends with every basic at its row of the cap-row form, so the
    drive-out takes the rows in that order.  The second objective starts
    from the remembered phase-one tableau and pairs.
    """
    rows, rhs, eq_rows, eq_rhs, lower, upper, objectives = case
    program = LinearProgram(
        len(lower),
        [scaled_row(row, b) for row, b in zip(rows, rhs)],
        [scaled_row(row, b) for row, b in zip(eq_rows, eq_rhs)],
    )
    for k, objective in enumerate(objectives):
        want, want_steps, want_end = cap_row_solve(program, objective, lower, upper)
        steps, ends = [], []
        if k:
            want_steps = [step for step in want_steps if step[0] == "two"]
            want_end = None
        with pytest.MonkeyPatch.context() as mp:
            _record_steps(mp, steps, ends)
            got = program.solve(objective, lower, upper)
        assert steps == want_steps
        assert ends == ([] if want_end is None else [want_end])
        assert got == want
        for mine, theirs in ((got.point, want.point), (got.ray, want.ray), ((got.value,), (want.value,))):
            assert mine is None or list(map(type, mine)) == list(map(type, theirs))


_HALF, _THREE_HALVES = Fraction(1, 2), Fraction(3, 2)

# (rows, rhs, eq_rows, eq_rhs, lower, upper, objective), the result and the
# steps, all taken from the cap-row form; the columns are y, then the slacks
# of the rows, one cap slack t per doubly bounded variable, artificials last
_BOUNDED_FIXTURES = {
    # x1 = 1/2 is fixed between free x0 = y0 - y1 and x2 = y3 - y4: its
    # pair flips at a cap of 0, y2 entering as t = 7 leaves, and back
    "fixed-between-free": (
        ([[1, 1, 1], [1, 0, -1]], [2, 1], [], [], [None, _HALF, None], [None, _HALF, None],
         [2, 1, 1]),
        LPStatus.OPTIMAL, (Fraction(5, 4), _HALF, Fraction(1, 4)), Fraction(13, 4), None,
        [("two", 0, 6), ("two", 2, 7), ("two", 3, 5), ("two", 7, 2)],
    ),
    # max x on [-1, 1/2]: y0 flips over its cap 3/2, t = 1 leaving
    "flip-fractional-cap": (
        ([], [], [], [], [-1], [_HALF], [1]),
        LPStatus.OPTIMAL, (_HALF,), _HALF, None,
        [("two", 0, 1)],
    ),
    # x >= 2 on [0, 2]: in phase one y0's own cap ties with the artificial
    # row at 2, and t = 2 wins over the artificial 3, a flip
    "own-pair-tie": (
        ([[-1]], [-2], [], [], [0], [2], [-1]),
        LPStatus.OPTIMAL, (2,), -2, None,
        [("one", 0, 2), ("drive", 1, 3), ("two", 2, 1)],
    ),
    # x >= 1 on [0, 3/2]: y0 is basic at 1 after phase one; the slack 1
    # enters and y0 reaches its cap, t = 2 leaving
    "basic-reaches-cap": (
        ([[-1]], [-1], [], [], [0], [_THREE_HALVES], [1]),
        LPStatus.OPTIMAL, (_THREE_HALVES,), _THREE_HALVES, None,
        [("one", 0, 3), ("two", 1, 2)],
    ),
    # max 2 x0 - x1, x0 in [0, 3/2], x1 free: x0 flips to its upper bound
    # (t = 3 active) and y2 = -x1 is unbounded
    "ray-complemented": (
        ([], [], [], [], [0, None], [_THREE_HALVES, None], [2, -1]),
        LPStatus.UNBOUNDED, (_THREE_HALVES, 0), None, (0, -1),
        [("two", 0, 3)],
    ),
    # -x = 0 on [-1, 0]: y0 flips (t = 1 ties with the artificial 2 and
    # wins) and the artificial row, at level 0, is first nonzero in t
    "drive-out-complemented": (
        ([], [], [[-1]], [0], [-1], [0], [-1]),
        LPStatus.OPTIMAL, (0,), 0, None,
        [("one", 0, 1), ("drive", 1, 2)],
    ),
}


@pytest.mark.parametrize("name", list(_BOUNDED_FIXTURES))
def test_bounded_fixtures(name):
    """Hand-built programs for each move of a pair, with the result the
    cap-row form gives, in its number types, and its steps."""
    (rows, rhs, eq_rows, eq_rhs, lower, upper, objective), status, point, value, ray, want = (
        _BOUNDED_FIXTURES[name]
    )
    steps = []
    with pytest.MonkeyPatch.context() as mp:
        _record_steps(mp, steps, [])
        got = solve_lp(objective, rows, rhs, eq_rows, eq_rhs, lower, upper)
    assert got == simplex.LPResult(status, point, value, ray)
    assert [type(v) for v in got.point] == [type(v) for v in point]
    assert type(got.value) is type(value)
    assert steps == want
