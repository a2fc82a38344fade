"""Exact linear algebra over the rationals.

Vectors are tuples and matrices are tuples of row tuples.  Every entry
is an int when it is integral and a rational otherwise (the one rule of
`rational`); `exact_vector` applies it to a raw row, and `dot` and the
eliminations read both forms exactly.

Integer data has one form per kind.  A constraint or equation row
a.x <= b (or = b) is held once, as `scaled_row` gives it, (d.a, d.b, d)
with d the lcm of the denominators of a and b, so a point X/D satisfies
it exactly when (d.a).X <= (d.b).D.  Eliminations run on rows of Python
ints (`int_row` scales a rational row to coprime integers), through two
fraction-free kernels (after Edmonds and Bareiss), each keeping every
row it gives a coprime positive multiple of the row exact rational
elimination would give:

- `pivot`, the one Gauss-Jordan step, clears a column from every row
  of a set but one.  It copies (or scales) each row it changes once and
  updates only the pivot row's nonzero columns, so on a sparse tableau
  it costs about that count per row, not the full width.
- `reduced` reduces one row against rows that are each unit in their
  own column (an `Echelon`, or a tableau's basic rows), in whole-row
  `map` passes, and gives the row one `pivot` per column would leave.

Signs, zero patterns and ratios within a row therefore read as in the
rational form, and rank and span questions are decided, never
estimated.  Neither kernel writes into a given row (they put fresh
lists in its place), so rows may be tuples or shared with a copy.
Spans grow through `extended`, one row at a time, into an `Echelon`, so
each span question on one is one reduction.  Complement directions are
read straight off its rows as coprime ints.

Many points against one row are taken a column at a time:
`column_dots` reads points held as coordinate columns and gives every
point's int value in whole-column `map` passes, one per nonzero entry
of the row, so its cost per point is C code, not bytecode.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import repeat
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

from .rational import exact

Vector = tuple
Matrix = tuple


class LinAlgError(ValueError):
    pass


def matrix(rows: Iterable[Iterable]) -> Matrix:
    out = tuple(exact_vector(r) for r in rows)
    widths = {len(r) for r in out}
    if len(widths) > 1:
        raise LinAlgError("ragged matrix")
    return out


def exact_vector(values: Iterable) -> Vector:
    """`values` with every entry through `rational.exact`: an int when
    integral, else a rational; a float raises TypeError.  An all-int row
    is returned as a tuple with no step per entry."""
    values = tuple(values)
    if {int}.issuperset(map(type, values)):
        return values
    return tuple(map(exact, values))


def exact_bounds(values, n) -> tuple:
    """A bound vector (None: no bound) with its integral entries as ints;
    one of ints and Nones is returned as a tuple with no step per entry."""
    if values is None:
        return (None,) * n
    values = tuple(values)
    if {int, type(None)}.issuperset(map(type, values)):
        return values
    return tuple(v if v is None else exact(v) for v in values)


def dot(u: Sequence, v: Sequence):
    """u.v exactly, in the inputs' own types: an int on ints."""
    if len(u) != len(v):
        raise LinAlgError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def column_dots(a: Sequence[int], columns: Sequence[Sequence[int]], size: int) -> list[int]:
    """a.p for each of `size` points held as coordinate columns (column j
    holds every point's entry j), as a list of ints in point order.

    One `map` pass over a column per nonzero a_j (a unit a_j takes the
    column as it is), the passes summed by `map(add, ...)`, so no Python
    code runs per point; `size` counts the points, which no column holds
    when there are none.
    """
    if len(a) != len(columns):
        raise LinAlgError(f"dimension mismatch: {len(a)} vs {len(columns)}")
    passes = [col if aj == 1 else map(mul, repeat(aj), col) for aj, col in zip(a, columns) if aj]
    if not passes:
        return [0] * size
    return list(reduce(partial(map, add), passes))


def vec_sub(u: Sequence, v: Sequence) -> Vector:
    if len(u) != len(v):
        raise LinAlgError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_add_scaled(u: Sequence, t, v: Sequence) -> Vector:
    """u + t*v"""
    if len(u) != len(v):
        raise LinAlgError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a + t * b for a, b in zip(u, v))


def int_scale(values: Sequence) -> tuple[list[int], int]:
    """(ints, den) for a row of ints and rationals: den is the lcm of the
    entries' denominators and ints the entries times den, so the row is
    exactly ints / den.  An all-int row is copied with no step per entry."""
    if {int}.issuperset(map(type, values)):
        return list(values), 1
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def scaled_row(coefficients: Iterable, rhs) -> tuple:
    """The row a.x <= b (or = b) in integer form (d.a, d.b, d): d is the
    lcm of the denominators of a and b, d.a a tuple of ints, d.b an int.
    The entries may be raw (ints, rationals, strings; `exact_vector`)."""
    ints, d = int_scale(exact_vector((*coefficients, rhs)))
    return tuple(ints[:-1]), ints[-1], d


def int_row(values: Sequence) -> list[int]:
    """The positive multiple of a row of ints and rationals whose entries
    are coprime integers; a zero row stays zero."""
    return _primitive(int_scale(values)[0])


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def pivot(rows: list[list[int]], r: int, c: int) -> None:
    """Fraction-free Gauss-Jordan step in place: clear column c from every
    integer row but r.

    Row r is made positive at c and every row comes out coprime and a
    positive multiple of the row the rational step (a unit at (r, c))
    gives.  A row that is zero at c is left as it is.  Changed rows are
    replaced in `rows` by fresh lists, never written into, so a shallow
    copy of `rows` leaves the original's rows as they were, and rows may
    be tuples.

    A row x with f = x[c] becomes a*x - b*y for the pivot row y, with
    g = gcd(p, f), a = p/g and b = f/g, reduced to coprime.  It is copied,
    or scaled when a > 1, once, and then only y's nonzero columns are
    updated, so a row costs about y's nonzero count rather than the full
    width, with the same ints out.
    """
    prow = rows[r]
    if prow[c] < 0:
        prow = [-v for v in prow]
    prow = rows[r] = _primitive(prow)
    p = prow[c]
    nonzeros = [(j, v) for j, v in enumerate(prow) if v]
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            g = gcd(p, f)
            a, b = p // g, f // g
            out = list(row) if a == 1 else [a * x for x in row]
            for j, v in nonzeros:
                out[j] -= b * v
            rows[i] = _primitive(out)


def reduced(row: Sequence[int], rows: Sequence[Sequence[int]], columns: Sequence[int]) -> list[int]:
    """An integer row reduced against rows that are each unit in their own
    column: rows[i] is nonzero at columns[i] and every other row of the
    set is zero there, as an Echelon's rows and pivots, or a tableau's
    basic rows and basis, are.

    Returns the coprime positive multiple of the row exact rational
    elimination leaves, zero at every column of `columns`: the row that
    one `pivot` per (rows[i], columns[i]) leaves in its place.  Only the
    row changes; a rows[i] negative at its column is read as its
    negation, as `pivot` reads it.  Each step is a*x - b*y with
    g = gcd(p, f), a = p/g and b = f/g, over whole rows in C `map`
    passes, and the one gcd is taken at the end.
    """
    out = list(row)
    for prow, c in zip(rows, columns):
        f = out[c]
        if f:
            p = prow[c]
            if p < 0:
                p, f = -p, -f
            g = gcd(p, f)
            a, b = p // g, f // g
            scaled = map(mul, repeat(b), prow)
            out = list(map(sub, out if a == 1 else map(mul, repeat(a), out), scaled))
    return _primitive(out)


class Echelon(tuple):
    """A span's unique integer reduced echelon form, as `extended` grows
    it: coprime rows sorted by their pivot columns (`pivots`), each
    positive there and zero at every other row's, so none needs reducing."""

    def __new__(cls, rows=(), pivots=()):
        form = super().__new__(cls, rows)
        form.pivots = pivots
        return form


def extended(form: Echelon, row: Sequence) -> Echelon:
    """The echelon form of span(form) + row: `form` itself when the row
    lies in that span, else a new form with the reduced row pivoted in."""
    new = _reduced_in(form, row)
    c = next((c for c, v in enumerate(new) if v), None)
    if c is None:
        return form
    rows = [*form, new]
    pivot(rows, len(form), c)
    pivots, rows = zip(*sorted(zip((*form.pivots, c), map(tuple, rows))))
    return Echelon(rows, pivots)


def echelon_form(rows: Sequence[Sequence]) -> Echelon:
    """The integer reduced row echelon form of `rows`; an Echelon is its own."""
    if isinstance(rows, Echelon):
        return rows
    return reduce(extended, rows, Echelon())


def rank(rows: Sequence[Sequence]) -> int:
    return len(echelon_form(rows))


def is_in_span(candidate: Sequence, rows: Sequence[Sequence]) -> bool:
    """True when `candidate` lies in the row span of `rows`: on an
    Echelon, one reduction of the candidate and no new form."""
    return not any(_reduced_in(echelon_form(rows), candidate))


def _reduced_in(form: Echelon, row: Sequence) -> list[int]:
    """`row`, of ints and rationals, reduced against `form` (`reduced`)."""
    if form and len(row) != len(form[0]):
        raise LinAlgError(f"row of length {len(row)} in Q^{len(form[0])}")
    return reduced(int_scale(row)[0], form, form.pivots)


def orthogonal_complement_basis(
    vectors: Sequence[Sequence], n: int, columns: Sequence[int] | None = None
) -> list[Vector]:
    """Basis of {y : v . y = 0 for every v in `vectors`} in Q^n.

    One basis vector per free column of the reduced echelon form of the
    input: the rational solution with a unit on that column, as coprime
    ints with the leading nonzero entry positive, so the output is
    deterministic and sparse when possible.  The integer echelon rows
    give it directly: each pivot entry is positive, so with L the lcm of
    the pivot entries, y_free = L and y_pc = -row[free] * (L / row[pc])
    is an integer multiple of the rational solution, nonzero at pc
    exactly when row[free] is.  With no input vectors this is the
    standard basis of Q^n.

    `columns` picks the free columns whose vectors are built, in the
    order given; by default every free column, in increasing order.  A
    column that is a pivot column, or not in range(n), raises
    LinAlgError, as a vector of another width does.
    """
    for v in vectors:
        if len(v) != n:
            raise LinAlgError(f"vector of length {len(v)} in Q^{n}")
    rref = echelon_form(vectors)
    if columns is None:
        columns = sorted(set(range(n)).difference(rref.pivots))
    else:
        for c in columns:
            if c in rref.pivots or not 0 <= c < n:
                raise LinAlgError(f"column {c} is not a free column in Q^{n}")
    scale = lcm(*(row[pc] for row, pc in zip(rref, rref.pivots)))
    basis: list[Vector] = []
    for free in columns:
        y = [0] * n
        y[free] = scale
        for row, pc in zip(rref, rref.pivots):
            y[pc] = -row[free] * (scale // row[pc])
        y = _primitive(y)
        if next(v for v in y if v) < 0:
            y = [-v for v in y]
        basis.append(tuple(y))
    return basis


def affine_rank(points: Sequence[Sequence]) -> int:
    """Dimension of the affine hull of `points`; -1 when there are none.
    One echelon form of the differences grows until it spans Q^n."""
    pts = list(points)
    form = Echelon()
    for p in pts[1:]:
        if len(form) == len(p):
            break
        form = extended(form, vec_sub(p, pts[0]))
    return len(form) if pts else -1

