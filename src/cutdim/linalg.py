"""Exact linear algebra over the rationals.

Vectors are tuples and matrices are tuples of row tuples; both are
immutable so they can be shared freely between threads.  Entries are
ints where the engines computed them (points, directions, rays) and
rationals otherwise; `dot` and the eliminations read both exactly.

Integer data has one form per kind.  A constraint or equation row
a.x <= b (or = b) is held once, as `scaled_row` gives it, (d.a, d.b, d)
with d the lcm of the denominators of a and b, so a point X/D satisfies
it exactly when (d.a).X <= (d.b).D.  Eliminations run on rows of Python
ints: `int_row` scales a rational row to coprime integers, and `pivot`,
the one elimination step, keeps every row a positive multiple of the
row exact rational Gauss-Jordan would give (fraction-free, after
Edmonds and Bareiss).  Signs, zero patterns and ratios within a row
therefore read as in the rational form, and rank and span questions are
decided, never estimated.  A fixed system keeps its `echelon_form`, so
each span question on it is one reduction.  Complement directions are
read straight off those integer rows as coprime ints.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .rational import rat

Vector = tuple
Matrix = tuple


class LinAlgError(ValueError):
    pass


def vector(values: Iterable) -> Vector:
    return tuple(rat(v) for v in values)


def matrix(rows: Iterable[Iterable]) -> Matrix:
    out = tuple(vector(r) for r in rows)
    widths = {len(r) for r in out}
    if len(widths) > 1:
        raise LinAlgError("ragged matrix")
    return out


def exact_vector(values: Iterable) -> Vector:
    """`values` with int entries kept and every other entry through `rat`."""
    return tuple(v if type(v) is int else rat(v) for v in values)


def exact_bounds(values, n) -> tuple:
    """A bound vector (None: no bound) with its integral entries as ints."""
    if values is None:
        return (None,) * n
    return tuple(v if v is None or type(v) is int else _exact(v) for v in values)


def _exact(value):
    """`value` as an int when it is integral, else as a rational."""
    q = rat(value)
    return q.numerator if q.denominator == 1 else q


def dot(u: Sequence, v: Sequence):
    """u.v exactly, in the inputs' own types: an int on ints."""
    if len(u) != len(v):
        raise LinAlgError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


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
    exactly ints / den."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def scaled_row(coefficients: Sequence, rhs) -> tuple:
    """The row a.x <= b (or = b) in integer form (d.a, d.b, d): d is the
    lcm of the denominators of a and b, d.a a tuple of ints, d.b an int."""
    ints, d = int_scale((*coefficients, rhs))
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
    replaced in `rows`, never written into, so a shallow copy of `rows`
    leaves the original's rows as they were.
    """
    prow = rows[r]
    if prow[c] < 0:
        prow = [-v for v in prow]
    prow = rows[r] = _primitive(prow)
    p = prow[c]
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            g = gcd(p, f)
            a, b = p // g, f // g
            rows[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])


def _echelon(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form as integer rows. Returns (rows, pivot columns).

    The reduced form is unique, so the first nonzero row serves as pivot.
    Row k is a positive multiple of the rational form's row k.
    """
    work = [int_row(row) for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(work):
            break
        best = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if best is None:
            continue
        work[r], work[best] = work[best], work[r]
        pivot(work, r, c)
        pivots.append(c)
        r += 1
    return work, pivots


def rank(rows: Sequence[Sequence]) -> int:
    _, pivots = _echelon(rows)
    return len(pivots)


def echelon_form(rows: Sequence[Sequence]) -> Matrix:
    """The integer reduced row echelon form of `rows`, as row tuples."""
    return tuple(map(tuple, _echelon(rows)[0]))


def is_in_span(candidate: Sequence, rows: Sequence[Sequence]) -> bool:
    """True when `candidate` lies in the row span of `rows`: one echelon
    pass over `rows` (a no-op on an `echelon_form`), one reduction."""
    work, pivots = _echelon(rows)
    work.append(int_row(candidate))
    for r, c in enumerate(pivots):
        pivot(work, r, c)
    return not any(work[-1])


def orthogonal_complement_basis(vectors: Sequence[Sequence], n: int) -> list[Vector]:
    """Basis of {y : v . y = 0 for every v in `vectors`} in Q^n.

    One basis vector per free column of the reduced echelon form of the
    input: the rational solution with a unit on that column, as coprime
    ints with the leading nonzero entry positive, so the output is
    deterministic and sparse when possible.  The integer echelon rows
    give it directly: each pivot entry is positive, so with L the lcm of
    the pivot entries, y_free = L and y_pc = -row[free] * (L / row[pc])
    is an integer multiple of the rational solution.  With no input
    vectors this is the standard basis of Q^n.
    """
    for v in vectors:
        if len(v) != n:
            raise LinAlgError(f"vector of length {len(v)} in Q^{n}")
    rref, pivots = _echelon(vectors)
    scale = lcm(*(row[pc] for row, pc in zip(rref, pivots)))
    basis: list[Vector] = []
    for free in sorted(set(range(n)) - set(pivots)):
        y = [0] * n
        y[free] = scale
        for row, pc in zip(rref, pivots):
            y[pc] = -row[free] * (scale // row[pc])
        y = _primitive(y)
        if next(v for v in y if v) < 0:
            y = [-v for v in y]
        basis.append(tuple(y))
    return basis


def affine_rank(points: Sequence[Sequence]) -> int:
    """Dimension of the affine hull of `points`; -1 when there are none."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    return rank([vec_sub(p, base) for p in pts[1:]])

