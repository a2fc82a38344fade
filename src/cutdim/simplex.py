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
serve as the initial basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .linalg import Vector, dot, vector
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

    tableau, basis, art_cols, total_cols = _build_tableau(rows, ncols)

    if art_cols:
        feasible = _phase_one(tableau, basis, art_cols, total_cols)
        if not feasible:
            return LPResult(LPStatus.INFEASIBLE)

    eligible = [True] * total_cols
    for col in art_cols:
        eligible[col] = False

    z = [ZERO] * total_cols
    for col, v in enumerate(cy):
        z[col] = v
    for i, bcol in enumerate(basis):
        f = z[bcol]
        if f != 0:
            row = tableau[i]
            z = [a - f * b for a, b in zip(z, row)]
    # trailing slot mirrors the rhs column so pivots can update z in lockstep;
    # the objective value is recomputed from the final point instead
    z.append(ZERO)

    status, pc = _optimize(tableau, basis, z, eligible)
    point = _map(_basic_solution(tableau, basis, total_cols), subst, shifted=True)
    if status is LPStatus.OPTIMAL:
        return LPResult(LPStatus.OPTIMAL, point=point, value=dot(c, point))
    ray_y = [ZERO] * total_cols
    ray_y[pc] = rat(1)
    for i, bcol in enumerate(basis):
        ray_y[bcol] = -tableau[i][pc]
    return LPResult(LPStatus.UNBOUNDED, point=point, ray=_map(ray_y, subst, shifted=False))


def _build_tableau(rows, ncols):
    """Standard-form tableau with slacks, sign-normalized rhs, artificials.

    Returns (tableau rows [coeffs..., rhs], basis, artificial cols, width).
    """
    nslack = sum(1 for _, _, is_eq in rows if not is_eq)
    slack_base = ncols
    art_base = ncols + nslack
    prepared = []  # (coeffs incl slack, rhs, natural_basic or None)
    slack_idx = 0
    art_needed = []
    for coeffs, rhs, is_eq in rows:
        coeffs = list(coeffs) + [ZERO] * nslack
        basic = None
        if not is_eq:
            col = slack_base + slack_idx
            slack_idx += 1
            coeffs[col] = rat(1)
            basic = col
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            basic = None  # slack coefficient is now -1
        prepared.append([coeffs, rhs, basic])
        art_needed.append(basic is None)

    total_cols = art_base + sum(art_needed)
    tableau = []
    basis = []
    art_cols = []
    next_art = art_base
    for (coeffs, rhs, basic), needs_art in zip(prepared, art_needed):
        row = coeffs + [ZERO] * (total_cols - len(coeffs)) + [rhs]
        if needs_art:
            row[next_art] = rat(1)
            basic = next_art
            art_cols.append(next_art)
            next_art += 1
        tableau.append(row)
        basis.append(basic)
    return tableau, basis, art_cols, total_cols


def _phase_one(tableau, basis, art_cols, total_cols) -> bool:
    """Minimize the artificial sum; True when it reaches zero."""
    art_set = set(art_cols)
    z = [ZERO] * (total_cols + 1)
    for col in art_cols:
        z[col] = rat(-1)
    for i, bcol in enumerate(basis):
        if bcol in art_set:
            row = tableau[i]
            z = [a + b for a, b in zip(z, row)]
    eligible = [True] * total_cols
    status, _ = _optimize(tableau, basis, z, eligible)
    if status is not LPStatus.OPTIMAL:
        raise AssertionError("phase one cannot be unbounded")
    art_sum = sum((tableau[i][-1] for i, b in enumerate(basis) if b in art_set), ZERO)
    if art_sum != 0:
        return False
    # drive leftover artificials out of the basis at level zero
    drop = []
    for i in range(len(tableau)):
        if basis[i] not in art_set:
            continue
        pivot_col = None
        for col in range(total_cols):
            if col not in art_set and tableau[i][col] != 0:
                pivot_col = col
                break
        if pivot_col is None:
            drop.append(i)  # redundant row
        else:
            _pivot(tableau, basis, z, i, pivot_col)
    for i in reversed(drop):
        del tableau[i]
        del basis[i]
    return True


def _optimize(tableau, basis, z, eligible):
    """Bland-rule simplex loop. Returns (status, entering col or None)."""
    ncols = len(eligible)
    while True:
        pc = None
        for j in range(ncols):
            if eligible[j] and z[j] > 0:
                pc = j
                break
        if pc is None:
            return LPStatus.OPTIMAL, None
        pr = None
        best_ratio = None
        for i, row in enumerate(tableau):
            coeff = row[pc]
            if coeff > 0:
                ratio = row[-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[pr])
                ):
                    best_ratio = ratio
                    pr = i
        if pr is None:
            return LPStatus.UNBOUNDED, pc
        _pivot(tableau, basis, z, pr, pc)


def _pivot(tableau, basis, z, pr, pc):
    piv = tableau[pr][pc]
    inv = 1 / piv
    prow = [v * inv for v in tableau[pr]]
    tableau[pr] = prow
    for i, row in enumerate(tableau):
        if i != pr and row[pc] != 0:
            f = row[pc]
            tableau[i] = [a - f * b for a, b in zip(row, prow)]
    f = z[pc]
    if f != 0:
        z[:] = [a - f * b for a, b in zip(z, prow)]
    basis[pr] = pc


def _basic_solution(tableau, basis, total_cols):
    y = [ZERO] * total_cols
    for i, bcol in enumerate(basis):
        y[bcol] = tableau[i][-1]
    return y


def _map(y, subst, shifted) -> Vector:
    """Back to x-space: a point keeps the shifts, a ray drops them."""
    return tuple(
        sum((sign * y[col] for col, sign in terms), shift if shifted else ZERO)
        for shift, terms in subst
    )
