import copy
import hashlib
import random
import sys
import threading
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

from helpers import random_boxed_lp, reference_lp

PINNED_DIGEST = "e481a33bea0ae4438cf59ad812270c6d7a15718d13af0c10a68ff05bb0308a85"


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

    def checked_phase_one(tableau, basis, art_base):
        assert all(row == int_row(row) and row[-1] >= 0 for row in tableau)
        phase_ones.append(art_base)
        return phase_one(tableau, basis, art_base)

    def checked_price_out(tableau, basis):
        assert tableau[-1] == int_row(tableau[-1])
        return price_out(tableau, basis)

    return checked_phase_one, checked_price_out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_reuse_case())
def test_one_program_solves_each_bound_vector_like_a_fresh_one(case):
    rows, rhs, eq_rows, eq_rhs, solves = case
    fresh = [solve_lp(c, rows, rhs, eq_rows, eq_rhs, lo, hi) for c, lo, hi in solves]
    program = LinearProgram(
        len(solves[0][0]),
        [scaled_row(row, b) for row, b in zip(rows, rhs)],
        [scaled_row(row, b) for row, b in zip(eq_rows, eq_rhs)],
    )
    phase_ones = []
    current, remembered = None, {}  # the latest objective, its answers by bound vector
    root = None  # the first bound vector phase one ran for
    with pytest.MonkeyPatch.context() as mp:
        phase_one, price_out = _checked(simplex._phase_one, simplex._price_out, phase_ones)
        mp.setattr(simplex, "_phase_one", phase_one)
        mp.setattr(simplex, "_price_out", price_out)
        for (objective, lower, upper), want in zip(solves, fresh):
            if objective != current:  # another objective replaces the answers
                current, remembered = objective, {}
            kept = copy.deepcopy(program._root)
            before = len(phase_ones)
            got = program.solve(program.objective(objective), lower, upper)
            assert got == want
            # the remembered phase-one tableau is never written to
            assert kept is None or program._root == kept
            ran = len(phase_ones) - before
            bounds = (lower, upper)
            if bounds in remembered:
                assert got is remembered[bounds] and ran == 0
            elif root is None:
                assert ran <= 1
                root = bounds if ran else None
            else:
                # phase one runs once for the root, at most once for another
                assert ran == 0 if bounds == root else ran <= 1
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
    cost = program.objective(list(current))
    for (lower, upper), result in remembered.items():
        assert program.solve(cost, list(lower), list(upper)) is result


def test_threads_sharing_a_program_answer_like_fresh_solves():
    """Worker threads that solve one program for several objectives and
    bound vectors at once get a fresh solve's answer every time."""
    rng = random.Random(17)
    n = 3
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(3)]
    rhs = [rng.randint(0, 6) for _ in rows]
    objectives = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(4)]
    boxes = []
    for _ in range(8):
        lower = tuple(rng.randint(-2, 1) for _ in range(n))
        boxes.append((lower, tuple(lo + rng.randint(0, 3) for lo in lower)))
    want = {
        (c, lo, hi): solve_lp(c, rows, rhs, lower=lo, upper=hi)
        for c in objectives
        for lo, hi in boxes
    }
    scaled = [scaled_row(row, b) for row, b in zip(rows, rhs)]
    wrong = []

    def work(program, seed):
        keys = list(want) * 2
        random.Random(seed).shuffle(keys)
        for c, lo, hi in keys:
            if program.solve(program.objective(c), lo, hi) != want[c, lo, hi]:
                wrong.append((c, lo, hi))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):  # a fresh program per round, shared by four threads
            program = LinearProgram(n, scaled)
            threads = [
                threading.Thread(target=work, args=(program, seed), daemon=True) for seed in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
