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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .linalg import Vector, dot, pivot, vector
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
            subst.append((rat(lo), ((ncols, 1),)))
            if hi is not None:
                caps.append((ncols, rat(hi) - rat(lo)))
            ncols += 1
        elif hi is not None:
            subst.append((rat(hi), ((ncols, -1),)))
            ncols += 1
        else:
            subst.append((ZERO, ((ncols, 1), (ncols + 1, -1))))
            ncols += 2

    def substitute(row):
        """Coefficients of a.x over y, and the constant a.shift."""
        out = [ZERO] * ncols
        offset = ZERO
        for (shift, terms), a in zip(subst, row):
            a = rat(a)
            if a == 0:
                continue
            for col, sign in terms:
                out[col] += sign * a
            offset += a * shift
        return out, offset

    rows = []  # (coeffs, rhs, is_eq)
    for row, b in zip(ineq_rows, ineq_rhs, strict=True):
        if len(row) != n:
            raise ValueError("constraint row length mismatch")
        coeffs, offset = substitute(row)
        rows.append((coeffs, rat(b) - offset, False))
    for col, cap in caps:
        coeffs = [ZERO] * ncols
        coeffs[col] = rat(1)
        rows.append((coeffs, cap, False))
    for row, b in zip(eq_rows, eq_rhs, strict=True):
        if len(row) != n:
            raise ValueError("equation row length mismatch")
        coeffs, offset = substitute(row)
        rows.append((coeffs, rat(b) - offset, True))

    cy, _ = substitute(c)

    tableau, basis, art_base = _build_tableau(rows, ncols)
    if not _phase_one(tableau, basis, art_base):
        return LPResult(LPStatus.INFEASIBLE)

    # phase two: the tableau has art_base columns plus the rhs, and the
    # objective's reduced costs become its last row; that row's rhs slot
    # is never read, the value is recomputed from the point
    z = cy + [ZERO] * (art_base + 1 - ncols)
    for i, bcol in enumerate(basis):
        f = z[bcol]
        if f != 0:
            z = [a - f * b for a, b in zip(z, tableau[i])]
    tableau.append(z)

    pc = _optimize(tableau, basis)
    y = [ZERO] * art_base
    for i, bcol in enumerate(basis):
        y[bcol] = tableau[i][-1]
    point = _map(y, subst, shifted=True)
    if pc is None:
        return LPResult(LPStatus.OPTIMAL, point=point, value=dot(c, point))
    ray_y = [ZERO] * art_base
    ray_y[pc] = rat(1)
    for i, bcol in enumerate(basis):
        ray_y[bcol] = -tableau[i][pc]
    return LPResult(LPStatus.UNBOUNDED, point=point, ray=_map(ray_y, subst, shifted=False))


def _build_tableau(rows, ncols):
    """Standard-form tableau with slacks, sign-normalized rhs, artificials.

    Returns (tableau rows [coeffs..., rhs], basis, first artificial col);
    the artificial columns are contiguous and come last.
    """
    nslack = sum(1 for _, _, is_eq in rows if not is_eq)
    art_base = ncols + nslack
    prepared = []  # (coeffs incl slack, rhs, natural basic col or None)
    slack = ncols
    for coeffs, rhs, is_eq in rows:
        coeffs = list(coeffs) + [ZERO] * nslack
        basic = None
        if not is_eq:
            coeffs[slack] = rat(1)
            basic = slack
            slack += 1
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            basic = None  # slack coefficient is now -1
        prepared.append((coeffs, rhs, basic))

    nart = sum(1 for _, _, basic in prepared if basic is None)
    tableau = []
    basis = []
    art = art_base
    for coeffs, rhs, basic in prepared:
        row = coeffs + [ZERO] * nart + [rhs]
        if basic is None:
            row[art] = rat(1)
            basic = art
            art += 1
        tableau.append(row)
        basis.append(basic)
    return tableau, basis, art_base


def _phase_one(tableau, basis, art_base) -> bool:
    """Minimize the artificial sum; True when it reaches zero.

    On success the artificials have left the basis, rows they leave
    behind as redundant are dropped and the artificial columns deleted.
    """
    art_rows = [i for i, bcol in enumerate(basis) if bcol >= art_base]
    if not art_rows:
        return True
    width = len(tableau[0])
    z = [ZERO] * art_base + [rat(-1)] * (width - 1 - art_base) + [ZERO]
    for i in art_rows:
        z = [a + b for a, b in zip(z, tableau[i])]
    tableau.append(z)
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

    Returns None at an optimum, or the entering column along which the
    objective is unbounded.
    """
    while True:
        z = tableau[-1]
        pc = next((j for j in range(len(z) - 1) if z[j] > 0), None)
        if pc is None:
            return None
        pr = None
        best_ratio = None
        for i, bcol in enumerate(basis):
            coeff = tableau[i][pc]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and bcol < basis[pr])
                ):
                    best_ratio = ratio
                    pr = i
        if pr is None:
            return pc
        pivot(tableau, pr, pc)
        basis[pr] = pc


def _map(y, subst, shifted) -> Vector:
    """Back to x-space: a point keeps the shifts, a ray drops them."""
    return tuple(
        sum((sign * y[col] for col, sign in terms), shift if shifted else ZERO)
        for shift, terms in subst
    )
