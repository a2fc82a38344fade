import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cutdim.linalg import (
    Echelon,
    LinAlgError,
    affine_rank,
    dot,
    echelon_form,
    extended,
    int_row,
    is_in_span,
    orthogonal_complement_basis,
    pivot,
    rank,
    reduced,
    scaled_row,
)
from cutdim.rational import rat
from cutdim.simplex import LinearProgram
from helpers import fraction_complement, fraction_echelon


def test_rank_fixtures():
    assert rank([]) == 0
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0, 0]]) == 0


def test_rank_invariance_properties():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [[rat(rng.randint(-5, 5)) for _ in range(n)] for _ in range(m)]
        r = rank(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank(shuffled) == r
        scale = rat(rng.randint(1, 7), rng.randint(1, 7))
        assert rank([[scale * v for v in row] for row in rows]) == r


def test_is_in_span():
    assert is_in_span([2, 4], [[1, 2]])
    assert not is_in_span([1, 0], [[0, 1]])
    assert is_in_span([0, 0], [])


def test_orthogonal_complement_fixtures():
    basis = orthogonal_complement_basis([], 2)
    assert len(basis) == 2 and rank(basis) == 2

    basis = orthogonal_complement_basis([[1, 0, 0]], 3)
    assert len(basis) == 2
    for b in basis:
        assert dot(b, [1, 0, 0]) == 0

    basis = orthogonal_complement_basis([[1, 1]], 2)
    assert len(basis) == 1
    (b,) = basis
    # proportional to (1, -1)
    assert b[0] * (-1) == b[1] * 1 and b[0] != 0


def test_orthogonal_complement_property():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(0, 5)
        rows = [[rat(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        basis = orthogonal_complement_basis(rows, n)
        assert len(basis) == n - rank(rows)
        assert rank(basis) == len(basis)
        for b in basis:
            for row in rows:
                assert dot(b, row) == 0


def test_affine_rank_fixtures():
    assert affine_rank([]) == -1
    assert affine_rank([[1, 1]]) == 0
    assert affine_rank([[0, 0], [1, 0], [0, 1]]) == 2


def test_affine_rank_combination_property():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 4)
        pts = [
            tuple(rat(rng.randint(-3, 3)) for _ in range(n))
            for _ in range(rng.randint(1, 5))
        ]
        r = affine_rank(pts)
        # affine combination: coefficients summing to one
        weights = [rat(rng.randint(-2, 2)) for _ in pts]
        weights[0] += 1 - sum(weights)
        combo = tuple(sum(w * p[j] for w, p in zip(weights, pts)) for j in range(n))
        assert affine_rank(pts + [combo]) == r


def test_dimension_mismatch():
    from cutdim.linalg import matrix

    with pytest.raises(LinAlgError):
        dot([1, 2], [1])
    with pytest.raises(LinAlgError):
        matrix([[1, 2], [1]])
    # rows of unequal length, where a zip would read the common prefix
    with pytest.raises(LinAlgError):
        is_in_span([1, 0, 5], [[1, 0]])
    with pytest.raises(LinAlgError):
        rank([[1, 0], [0, 1, 3]])
    with pytest.raises(LinAlgError):
        extended(echelon_form([[1, 0]]), [0, 1, 3])


def _reference_pivot(rows, r, c):
    """Plain Fraction Gauss-Jordan step: a unit at (r, c)."""
    prow = [v / rows[r][c] for v in rows[r]]
    rows[r] = prow
    for i, row in enumerate(rows):
        if i != r:
            rows[i] = [a - row[c] * b for a, b in zip(row, prow)]


def _assert_scaled(ints, ref, coprime=True):
    """`ints` is a positive multiple of the rational row `ref`, in ints."""
    assert all(type(v) is int for v in ints)
    if coprime:
        assert gcd(*ints) == (1 if any(ref) else 0)
    if any(ref):
        j = next(j for j, v in enumerate(ref) if v != 0)
        scale = Fraction(ints[j]) / ref[j]
        assert scale > 0
        assert ints == [scale * v for v in ref]
    else:
        assert not any(ints)


_FRACTIONS = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _matrix_and_pivots(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_FRACTIONS, min_size=n, max_size=n), min_size=m, max_size=m))
    factors = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    steps = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), max_size=6))
    return rows, factors, steps


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_matrix_and_pivots())
def test_integer_pivot_matches_fraction_gauss_jordan(case):
    """int_row and pivot against plain Fraction Gauss-Jordan: rows stay
    positive multiples, the rows a step writes are coprime, and the
    pivot entry is positive.  Input rows start as multiples of their
    int_row, so the pivot row's own reduction is exercised too."""
    rows, factors, steps = case
    ref = [list(row) for row in rows]
    work = []
    for row, k in zip(rows, factors):
        ints = int_row(row)
        _assert_scaled(ints, row)
        work.append([k * v for v in ints])
    for r, c in steps:
        if ref[r][c] == 0:
            continue
        written = {i for i, row in enumerate(ref) if i == r or row[c] != 0}
        _reference_pivot(ref, r, c)
        pivot(work, r, c)
        assert work[r][c] > 0
        for i, (ints, row) in enumerate(zip(work, ref)):
            _assert_scaled(ints, row, coprime=i in written)


def _dense_pivot(rows, r, c):
    """The fraction-free step written densely, a*x - b*y over the full
    width of every row it changes, with its own coprime reduction."""

    def coprime(row):
        g = gcd(*row)
        return [v // g for v in row] if g > 1 else row

    prow = rows[r]
    if prow[c] < 0:
        prow = [-v for v in prow]
    prow = rows[r] = coprime(prow)
    p = prow[c]
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            g = gcd(p, f)
            a, b = p // g, f // g
            rows[i] = coprime([a * x - b * y for x, y in zip(row, prow)])


_SPARSE = st.sampled_from((0,) * 8 + (-3, -2, -1, 1, 2, 3))


@st.composite
def _sparse_step(draw):
    """Sparse integer rows, mostly zeros with entries in -3..3 and a
    nonzero last (rhs) column, some as tuples, and a pivot (r, c) whose
    entry has magnitude 2 or 3, so that a = p/gcd(p, f) is 1 on some rows
    and above 1 on others."""
    m = draw(st.integers(2, 6))
    n = draw(st.integers(2, 9))
    rhs = st.sampled_from((-3, -2, -1, 1, 2, 3))
    rows = [draw(st.lists(_SPARSE, min_size=n - 1, max_size=n - 1)) + [draw(rhs)]
            for _ in range(m)]
    r, c = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 2))
    rows[r][c] = draw(st.sampled_from((-3, -2, 2, 3)))
    return [tuple(row) if draw(st.booleans()) else row for row in rows], r, c


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_sparse_step())
def test_sparse_pivot_matches_dense_twin(case):
    """pivot, which updates only the pivot row's nonzero columns, gives
    the dense step's rows as int lists, and pivoting a shallow copy of
    the rows leaves every input row object, list or tuple, unchanged."""
    rows, r, c = case
    before = [list(row) for row in rows]
    work = list(rows)
    pivot(work, r, c)
    twin = [list(row) for row in rows]
    _dense_pivot(twin, r, c)
    assert [list(row) for row in work] == twin
    assert all(type(v) is int for row in work for v in row)
    assert [list(row) for row in rows] == before


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.lists(_FRACTIONS, min_size=n, max_size=n), max_size=5)
    )
))
def test_integer_directions_match_fraction_twin(case):
    """orthogonal_complement_basis against the Fraction solution of each
    free column, scaled to coprime ints with the leading entry positive:
    the same vectors, in the same order, as tuples of ints."""
    n, rows = case
    basis = orthogonal_complement_basis(rows, n)
    assert basis == fraction_complement(rows, n)
    assert all(type(v) is int for b in basis for v in b)


def test_integer_directions_fixtures():
    # coprime: the Fraction solution (-3/2, 1) becomes (3, -2)
    assert orthogonal_complement_basis([[2, 3]], 2) == [(3, -2)]
    assert orthogonal_complement_basis([[rat(1, 2), rat(3, 4)]], 2) == [(3, -2)]
    # leading sign: the Fraction solution (-1, 1) becomes (1, -1)
    assert orthogonal_complement_basis([[1, 1]], 2) == [(1, -1)]
    # zero input: no rows, or zero rows, give the standard basis
    assert orthogonal_complement_basis([], 2) == [(1, 0), (0, 1)]
    assert orthogonal_complement_basis([[0, 0]], 2) == [(1, 0), (0, 1)]
    for rows, n in ((((2, 3),), 2), (((1, 1),), 2), ((), 2), (((0, 0),), 2)):
        assert fraction_complement(rows, n) == orthogonal_complement_basis(rows, n)



def test_complement_of_chosen_columns_fixtures():
    """`columns` builds the vectors of those free columns only, in the
    order given, each the full basis's entry for its column."""
    rows = [[1, 2, 0, 3], [0, 0, 1, -1]]  # pivots 0 and 2, free 1 and 3
    full = orthogonal_complement_basis(rows, 4)
    assert full == [(2, -1, 0, 0), (3, 0, -1, -1)]  # leading entry positive
    assert orthogonal_complement_basis(rows, 4, columns=(3,)) == [full[1]]
    assert orthogonal_complement_basis(rows, 4, columns=(3, 1)) == [full[1], full[0]]
    assert orthogonal_complement_basis(rows, 4, columns=()) == []
    assert orthogonal_complement_basis([], 3, columns=(2,)) == [(0, 0, 1)]
    form = echelon_form(rows)
    assert orthogonal_complement_basis(form, 4, columns=(1,)) == [full[0]]
    for pivot_column in (0, 2):
        with pytest.raises(LinAlgError):
            orthogonal_complement_basis(rows, 4, columns=(pivot_column,))
    for outside in (-1, 4):
        with pytest.raises(LinAlgError):
            orthogonal_complement_basis(rows, 4, columns=(outside,))
    with pytest.raises(LinAlgError):  # a span of the wrong width
        orthogonal_complement_basis(form, 5, columns=(1,))
    with pytest.raises(LinAlgError):
        orthogonal_complement_basis([[1, 2, 0]], 4, columns=(3,))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(_FRACTIONS, min_size=n, max_size=n), max_size=6),
        st.randoms(use_true_random=False),
    )
))
def test_complement_of_chosen_columns_matches_the_full_basis(case):
    """Any selection of free columns, in any order, gives the matching
    entries of the full basis; any pivot column among them raises."""
    n, rows, rng = case
    form = echelon_form(rows)
    free = [c for c in range(n) if c not in form.pivots]
    full = dict(zip(free, orthogonal_complement_basis(rows, n)))
    chosen = rng.sample(free, rng.randint(0, len(free)))
    assert orthogonal_complement_basis(rows, n, columns=chosen) == [full[c] for c in chosen]
    assert orthogonal_complement_basis(form, n, columns=chosen) == [full[c] for c in chosen]
    if form.pivots:
        with pytest.raises(LinAlgError):
            orthogonal_complement_basis(form, n, columns=chosen + [rng.choice(form.pivots)])

@st.composite
def _rows_in_order(draw):
    """Rows of Q^n with fractional, zero and dependent ones among them,
    an order to insert them in, and a candidate in or out of their span."""
    n = draw(st.integers(1, 5))
    drawn = st.lists(_FRACTIONS, min_size=n, max_size=n)

    def combination(rows):
        weights = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        return [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n)]

    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("drawn", "zero", "dependent")))
        if kind == "zero":
            rows.append([Fraction(0)] * n)
        else:
            rows.append(combination(rows) if rows and kind == "dependent" else draw(drawn))
    order = draw(st.permutations(range(len(rows))))
    candidate = combination(rows) if rows and draw(st.booleans()) else draw(drawn)
    return n, rows, order, candidate


def _coprime(ref):
    """A Fraction row with a unit pivot as the coprime ints it scales to."""
    scale = lcm(*(v.denominator for v in ref))
    ints = [int(v * scale) for v in ref]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_rows_in_order())
def test_grown_echelon_matches_from_scratch_and_fraction_twin(case):
    """Rows inserted one at a time through `extended`, in any order, give
    the form `echelon_form` folds from the rows as drawn and the Fraction
    sweep's rows as coprime ints.  A row in the span returns the form
    itself, and rank, span and complement read off the form agree with
    the raw rows and the twin."""
    n, rows, order, candidate = case

    def twin_rank(vectors):
        return len(fraction_echelon(vectors, n)[0])

    form, inserted = Echelon(), []
    for i in order:
        grown = extended(form, rows[i])
        assert (grown is form) == (twin_rank(inserted + [rows[i]]) == twin_rank(inserted))
        form, inserted = grown, inserted + [rows[i]]
    assert form == echelon_form(rows)
    twin_rows, twin_pivots = fraction_echelon(rows, n)
    assert form == tuple(map(_coprime, twin_rows))
    assert form.pivots == tuple(twin_pivots)
    assert echelon_form(form) is form

    in_span = twin_rank(rows + [candidate]) == len(twin_rows)
    assert (extended(form, candidate) is form) == in_span
    assert rank(form) == rank(rows) == len(twin_rows)
    assert is_in_span(candidate, form) == is_in_span(candidate, rows) == in_span
    basis = orthogonal_complement_basis(form, n)
    assert basis == orthogonal_complement_basis(rows, n) == fraction_complement(rows, n)


_SMALL = st.integers(-4, 4)


@st.composite
def _unit_basis_and_row(draw):
    """Rows that are each unit in their own column, with those columns:
    an Echelon grown by `extended`, or the basic rows of the tableau phase
    one leaves for a small LP (rows a.x <= b with b of either sign, some
    variables capped).  The pairs come in any order, some rows negated,
    some as tuples.  Also a coprime integer row of the rows' width, in
    or out of their span, and a factor to scale it by."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        form = echelon_form(draw(st.lists(st.lists(_SMALL, min_size=n, max_size=n), max_size=5)))
        rows, columns = list(form), list(form.pivots)
    else:
        n = draw(st.integers(1, 4))
        lp_rows = draw(st.lists(st.lists(_SMALL, min_size=n, max_size=n), min_size=1, max_size=4))
        program = LinearProgram(n, [scaled_row(row, draw(_SMALL)) for row in lp_rows])
        upper = [draw(st.sampled_from((None, 1, 3))) for _ in range(n)]
        program.solve([0] * n, [0] * n, upper)
        start = next(iter(program._starts.values()))[-1]
        assume(start is not None)
        rows, columns = start[:2]
    width = len(rows[0]) if rows else draw(st.integers(1, 6))
    order = draw(st.permutations(range(len(rows))))
    basis = []
    for i in order:
        row = rows[i] if draw(st.booleans()) else [-v for v in rows[i]]
        basis.append(tuple(row) if draw(st.booleans()) else list(row))
    columns = [columns[i] for i in order]
    row = draw(st.lists(_SMALL, min_size=width, max_size=width))
    if basis and draw(st.booleans()):
        weights = draw(st.lists(_SMALL, min_size=len(basis), max_size=len(basis)))
        row = [sum(w * b[j] for w, b in zip(weights, basis)) for j in range(width)]
    return basis, columns, int_row(row), draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_unit_basis_and_row())
def test_row_reduction_matches_one_pivot_per_column(case):
    """`reduced` against unit rows gives the last row that one `pivot`
    per (row, column) leaves, for the row and any positive multiple of
    it, as a coprime int list; it leaves its inputs as they were.  On
    the rows' echelon form, `is_in_span` agrees with the Fraction twin."""
    basis, columns, row, k = case
    before = [list(b) for b in basis]
    work = [*basis, row]
    for r, c in enumerate(columns):
        pivot(work, r, c)
    want = list(work[-1])
    got = reduced(tuple(k * v for v in row), basis, columns)
    assert got == reduced(row, basis, columns) == want
    assert type(got) is list and all(type(v) is int for v in got)
    assert not any(got[c] for c in columns)
    assert [list(b) for b in basis] == before

    width = len(row)
    form = echelon_form(basis)
    twin_rank = len(fraction_echelon(basis, width)[0])
    in_span = len(fraction_echelon([*basis, row], width)[0]) == twin_rank
    assert is_in_span(row, form) == is_in_span(row, basis) == in_span == (not any(want))
    assert len(form) == twin_rank
