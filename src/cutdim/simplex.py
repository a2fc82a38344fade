"""Exact two-phase simplex for rational linear programs.

Solves  max c.x  s.t.  A.x <= b,  E.x = f,  l <= x <= u  in exact
arithmetic on a dense tableau.  Bland's smallest-index rule makes every
run finite and deterministic; there is no scaling, no tolerance and no
degeneracy heuristic to tune.

Bounds are folded into the standard form by one substitution table that
writes each variable as  x_j = shift_j + sum(sign * y_col)  over
nonnegative columns y: a variable with a finite lower bound l is l + y,
one bounded only from above by u is u - y, a free one is y' - y''.  A
doubly bounded variable also gets the row  y <= u - l.  The same table
substitutes every row and the objective, and maps the optimal point
(with the shifts) and an unbounded ray (without them) back to x-space.
Artificial variables are introduced only for rows whose slack cannot
serve as the initial basis; their columns come last and are deleted
once phase one has found a feasible basis.  The objective being
optimized is the tableau's last row, so a pivot is one
`linalg.pivot` step plus the basis update.

The tableau holds Python ints.  Each row is scaled to coprime integers
once, when the tableau is built, and `linalg.pivot` keeps every row a
positive multiple of the rational tableau's row.  Pricing reads signs,
the ratio test cross-multiplies, and the basic solution and ray are read
back as a row's rhs (or entering column) over its basic entry, so the
pivots, and every result, are those of the rational tableau.  Rationals
appear only at the boundary: the input rows and the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import lcm
from typing import Optional, Sequence

from .linalg import Vector, dot, int_row, pivot, vector
from .rational import ZERO, rat


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    """Outcome of one LP solve.

    For OPTIMAL, `point` attains `value`.  For UNBOUNDED, `point` is a
    feasible witness and `ray` a recession direction that strictly
    improves the objective; `value` is None.
    """

    status: LPStatus
    point: Optional[Vector] = None
    value: Optional[object] = None
    ray: Optional[Vector] = None


def solve_lp(
    objective: Sequence,
    ineq_rows: Sequence[Sequence] = (),
    ineq_rhs: Sequence = (),
    eq_rows: Sequence[Sequence] = (),
    eq_rhs: Sequence = (),
    lower: Optional[Sequence] = None,
    upper: Optional[Sequence] = None,
) -> LPResult:
    c = vector(objective)
    n = len(c)
    lower = list(lower) if lower is not None else [None] * n
    upper = list(upper) if upper is not None else [None] * n
    if len(lower) != n or len(upper) != n:
        raise ValueError("bound vectors must match the variable count")
    for j in range(n):
        lo, hi = lower[j], upper[j]
        if lo is not None and hi is not None and lo > hi:
            return LPResult(LPStatus.INFEASIBLE)

    # x_j = shift_j + sum(sign * y_col for col, sign in terms_j), y >= 0
    subst = []
    ncols = 0
    caps = []  # (col, hi - lo): upper-bound rows of doubly bounded variables
    for lo, hi in zip(lower, upper):
        if lo is not None:
            subst.append((_exact(lo), ((ncols, 1),)))
            if hi is not None:
                caps.append((ncols, _exact(hi) - _exact(lo)))
            ncols += 1
        elif hi is not None:
            subst.append((_exact(hi), ((ncols, -1),)))
            ncols += 1
        else:
            subst.append((0, ((ncols, 1), (ncols + 1, -1))))
            ncols += 2

    def substitute(row, b=0):
        """(coeffs of a.x over y, rhs b - a.shift, scale): both times the
        scale that clears the denominators of a and b, so the coeffs are
        ints, and so is the rhs unless a shift is fractional."""
        row = [rat(a) for a in row]
        b = rat(b)
        scale = lcm(b.denominator, *(a.denominator for a in row))
        out = [0] * ncols
        rhs = b.numerator * (scale // b.denominator)
        for (shift, terms), a in zip(subst, row):
            if a:
                a = a.numerator * (scale // a.denominator)
                for col, sign in terms:
                    out[col] += sign * a
                if shift:
                    rhs -= a * shift
        return out, rhs, scale

    rows = []  # (coeffs, rhs, scale, is_eq)
    for row, b in zip(ineq_rows, ineq_rhs, strict=True):
        if len(row) != n:
            raise ValueError("constraint row length mismatch")
        rows.append((*substitute(row, b), False))
    for col, cap in caps:
        coeffs = [0] * ncols
        coeffs[col] = 1
        rows.append((coeffs, cap, 1, False))
    for row, b in zip(eq_rows, eq_rhs, strict=True):
        if len(row) != n:
            raise ValueError("equation row length mismatch")
        rows.append((*substitute(row, b), True))

    cy, _, _ = substitute(c)

    tableau, basis, art_base = _build_tableau(rows, ncols)
    if not _phase_one(tableau, basis, art_base):
        return LPResult(LPStatus.INFEASIBLE)

    # phase two: the objective's reduced costs become the last row; its
    # rhs slot is never read, the value is recomputed from the point
    tableau.append(int_row(cy + [0] * (art_base + 1 - ncols)))
    _price_out(tableau, basis)

    pc = _optimize(tableau, basis)
    y = [ZERO] * art_base
    for row, bcol in zip(tableau, basis):
        y[bcol] = rat(row[-1], row[bcol])
    point = _map(y, subst, shifted=True)
    if pc is None:
        return LPResult(LPStatus.OPTIMAL, point=point, value=dot(c, point))
    ray_y = [ZERO] * art_base
    ray_y[pc] = rat(1)
    for row, bcol in zip(tableau, basis):
        ray_y[bcol] = rat(-row[pc], row[bcol])
    return LPResult(LPStatus.UNBOUNDED, point=point, ray=_map(ray_y, subst, shifted=False))


def _build_tableau(rows, ncols):
    """Integer standard-form tableau with slacks, rhs >= 0, artificials.

    A row (coeffs, rhs, scale, is_eq) is its rational row times scale, so
    its slack entry is scale (-scale once the row is negated for a
    negative rhs) and its artificial entry is scale; the tableau row
    [coeffs..., rhs] is `int_row` of the whole.  Returns (tableau, basis,
    first artificial col); the artificial columns come last.
    """
    nslack = sum(1 for *_, is_eq in rows if not is_eq)
    nart = sum(1 for _, rhs, _, is_eq in rows if is_eq or rhs < 0)
    art_base = ncols + nslack
    tableau = []
    basis = []
    slack = ncols
    art = art_base
    for coeffs, rhs, scale, is_eq in rows:
        sign = -1 if rhs < 0 else 1
        if sign < 0:
            coeffs = [-v for v in coeffs]
        row = coeffs + [0] * (nslack + nart) + [sign * rhs]
        if not is_eq:
            row[slack] = sign * scale
            if sign > 0:
                basis.append(slack)
            slack += 1
        if is_eq or sign < 0:
            row[art] = scale
            basis.append(art)
            art += 1
        tableau.append(int_row(row))
    return tableau, basis, art_base


def _price_out(tableau, basis) -> None:
    """Clear the basic columns from the objective in the last row."""
    for i, bcol in enumerate(basis):
        if tableau[-1][bcol] != 0:
            pivot(tableau, i, bcol)


def _phase_one(tableau, basis, art_base) -> bool:
    """Minimize the artificial sum; True when it reaches zero.

    On success the artificials have left the basis, rows they leave
    behind as redundant are dropped and the artificial columns deleted.
    """
    if all(bcol < art_base for bcol in basis):
        return True
    width = len(tableau[0])
    tableau.append([0] * art_base + [-1] * (width - 1 - art_base) + [0])
    _price_out(tableau, basis)
    if _optimize(tableau, basis) is not None:
        raise AssertionError("phase one cannot be unbounded")
    # the rhs slot of the objective row holds the artificial sum
    if tableau.pop()[-1] != 0:
        return False
    # drive leftover artificials out of the basis at level zero
    drop = []
    for i, row in enumerate(tableau):
        if basis[i] < art_base:
            continue
        pivot_col = next((col for col in range(art_base) if row[col] != 0), None)
        if pivot_col is None:
            drop.append(i)  # redundant row
        else:
            pivot(tableau, i, pivot_col)
            basis[i] = pivot_col
    for i in reversed(drop):
        del tableau[i]
        del basis[i]
    for row in tableau:
        del row[art_base:-1]
    return True


def _optimize(tableau, basis) -> Optional[int]:
    """Bland-rule simplex loop on the objective in the last tableau row.

    Only signs are read and ratios are compared by cross-multiplying, so
    the integer rows pick the pivots the rational tableau would.  Returns
    None at an optimum, or the entering column along which the objective
    is unbounded.
    """
    while True:
        z = tableau[-1]
        pc = next((j for j in range(len(z) - 1) if z[j] > 0), None)
        if pc is None:
            return None
        pr = None
        for i, bcol in enumerate(basis):
            row = tableau[i]
            if row[pc] <= 0:
                continue
            if pr is None:
                pr = i
                continue
            best = tableau[pr]
            lhs, rhs = row[-1] * best[pc], best[-1] * row[pc]
            if lhs < rhs or (lhs == rhs and bcol < basis[pr]):
                pr = i
        if pr is None:
            return pc
        pivot(tableau, pr, pc)
        basis[pr] = pc


def _exact(value):
    """`value` as an int when it is integral, else as a rational."""
    q = rat(value)
    return q.numerator if q.denominator == 1 else q


def _map(y, subst, shifted) -> Vector:
    """Back to x-space: a point keeps the shifts, a ray drops them."""
    return tuple(
        sum((sign * y[col] for col, sign in terms), shift if shifted else ZERO)
        for shift, terms in subst
    )
