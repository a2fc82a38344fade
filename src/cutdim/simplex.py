"""Exact two-phase simplex for rational linear programs.

Solves  max c.x  s.t.  A.x <= b,  E.x = f,  l <= x <= u  in exact
arithmetic on a dense tableau.  Bland's smallest-index rule makes every
run finite and deterministic; there is no scaling, no tolerance and no
degeneracy heuristic to tune.

A `LinearProgram` is the rows of A, b, E and f in integer form
(`linalg.scaled_row`), compiled once, plus what its solves leave
behind: it is solved for one objective c under one bound vector (l, u)
at a time.  Branch and bound solves one program at every node of a
run, an oracle provider owns one for all its queries, and `solve_lp` is
a program solved once.  Bounds are folded into the standard form by one
substitution table that writes each variable as
x_j = shift_j + sum(sign * y_col)  over nonnegative columns y: a
variable with a finite lower bound l is l + y, one bounded only from
above by u is u - y, a free one is y' - y''.  A doubly bounded variable
also gets the row  y <= u - l.  The table, and every row rewritten over
y, depend only on which bounds are finite, so they are built once per
such pattern; a solve computes the shifts, the right-hand sides and the
cap rows.  The table maps the optimal point (with the shifts) and an
unbounded ray (without them) back to x-space.  Artificial variables are
introduced only for rows whose slack cannot serve as the initial basis;
their columns come last and are deleted once phase one has found a
feasible basis.  Phase one never reads the objective, so the basis it
leaves under a program's first bound vector (a run's root, which every
query of an oracle provider solves again) is remembered, and a later
solve under those bounds, with any objective, starts phase two from a
copy of it.  The objective being optimized is the tableau's last row,
so a pivot is one `linalg.pivot` step plus the basis update.

The tableau holds Python ints.  The rows arrive scaled to ints, and
each is written into a tableau as coprime integers,
the form `int_row` gives; `linalg.pivot` keeps every row a positive
multiple of the rational tableau's row.  Pricing reads signs, the ratio
test cross-multiplies, and the basic solution and ray are read back as a
row's rhs (or entering column) over its basic entry, an int when the
division is exact, so the pivots, and every result, are those of the
rational tableau; the point is returned as read back.  Rationals appear
only at the boundary: `solve_lp`'s input rows, which it scales on entry,
the objective, fractional bounds, the value and the ray.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .linalg import Vector, exact_bounds, exact_vector, int_row, int_scale, pivot, scaled_row, vector
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
    improves the objective; `value` is None.  `point` has ints where
    the simplex computed them.
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
    """One solve of a program that is not solved again: scale the rows,
    compile and solve."""
    if len(ineq_rows) != len(ineq_rhs) or len(eq_rows) != len(eq_rhs):
        raise ValueError("each row needs one right-hand side")
    ineq = [scaled_row(vector(row), rat(b)) for row, b in zip(ineq_rows, ineq_rhs)]
    eq = [scaled_row(vector(row), rat(b)) for row, b in zip(eq_rows, eq_rhs)]
    program = LinearProgram(len(objective), ineq, eq)
    return program.solve(program.objective(objective), lower, upper)


@dataclass(frozen=True)
class _Form:
    """The standard form of a program's rows for one pattern of finite
    bounds.

    `terms[j]` writes x_j over the y columns as ((col, sign), ...);
    `caps` lists (j, col) for each doubly bounded variable.  `ineq` and
    `eq` hold, per row, its y-space ints, their negation and the row's
    scale.  `width` is the column count after phase one: the y columns
    and the slacks.
    """

    terms: tuple
    ncols: int
    caps: tuple
    ineq: tuple
    eq: tuple

    @property
    def width(self) -> int:
        return self.ncols + len(self.ineq) + len(self.caps)


@dataclass(eq=False)
class Objective:
    """An objective c in the form `LinearProgram.solve` takes: c itself
    (`key`), c = ints / den, its phase-two rows over y (coprime, per bound
    pattern) and its results per bound vector."""

    key: tuple
    ints: list
    den: int
    rows: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)


class LinearProgram:
    """The rows  A.x <= b,  E.x = f, compiled once, solved for many
    objectives under many bound vectors.

    The rows come in the integer form `linalg.scaled_row` gives,
    (d.a, d.b, d) with d the lcm of the row's denominators: `ineq` for
    A.x <= b, `eq` for E.x = f.  No objective is compiled in: `solve`
    takes one made by `objective`.  The program remembers three things,
    each bounded whatever the number of solves:

    - per pattern of finite bounds, the substitution table and the
      y-space rows (`_Form`);
    - for the first bound vector phase one runs for (a run's root), the
      tableau and basis phase one left, or that it proved the bounds
      infeasible.  Phase one never reads the objective, so a later solve
      under the same bounds, with any objective, copies that tableau and
      goes straight to phase two, and every pivot and result is the one
      a fresh solve gives.  Other bound vectors run phase one on every
      solve that is not answered from memory;
    - the latest objective asked (`Objective`), with its phase-two row
      for each pattern and its result for each bound vector, so runs
      that solve the program for one objective share their answers.
      Another objective replaces it; a run holds its own `Objective`,
      so its results go when the run ends and the program has moved on.

    A remembered tableau is never written to: `linalg.pivot` replaces
    rows and never writes into one, so phase two works on a shallow copy.
    Solves from several threads may share a program: every entry is a
    function of its key, so a race can only compute one twice or leave
    one out, never change a result.
    """

    def __init__(self, num_vars: int, ineq: Sequence = (), eq: Sequence = ()):
        self.num_vars = num_vars
        self.ineq = tuple(ineq)
        self.eq = tuple(eq)
        if any(len(ints) != num_vars for ints, _, _ in self.ineq):
            raise ValueError("constraint row length mismatch")
        if any(len(ints) != num_vars for ints, _, _ in self.eq):
            raise ValueError("equation row length mismatch")
        self._forms: dict = {}
        self._root = None  # (bounds, the start phase one left for them)
        self._cost: Optional[Objective] = None

    def objective(self, objective: Sequence) -> Objective:
        """`objective` in the form `solve` takes; a run makes it once.

        The latest one is kept, so a run for the same objective gets the
        same entry, and with it the answers earlier runs left there.
        """
        key = exact_vector(objective)
        if len(key) != self.num_vars:
            raise ValueError("objective length must match the variable count")
        cost = self._cost
        if cost is None or cost.key != key:
            cost = self._cost = Objective(key, *int_scale(key))
        return cost

    def solve(
        self,
        cost: Objective,
        lower: Optional[Sequence] = None,
        upper: Optional[Sequence] = None,
    ) -> LPResult:
        """max c.x under bounds lower <= x <= upper (None: no bound), for
        the objective c that `objective` made into `cost`."""
        n = self.num_vars
        lower = exact_bounds(lower, n)
        upper = exact_bounds(upper, n)
        if len(lower) != n or len(upper) != n:
            raise ValueError("bound vectors must match the variable count")
        bounds = (lower, upper)
        result = cost.results.get(bounds)
        if result is None:
            result = cost.results[bounds] = self._solve(cost, lower, upper)
        return result

    def _solve(self, cost: Objective, lower: tuple, upper: tuple) -> LPResult:
        for lo, hi in zip(lower, upper):
            if lo is not None and hi is not None and lo > hi:
                return LPResult(LPStatus.INFEASIBLE)
        pattern = tuple((lo is not None, hi is not None) for lo, hi in zip(lower, upper))
        form = self._forms.get(pattern)
        if form is None:
            form = self._forms[pattern] = self._compile(pattern)
        shifts = [
            lo if lo is not None else hi if hi is not None else 0
            for lo, hi in zip(lower, upper)
        ]
        bounds = (lower, upper)
        root = self._root
        if root is not None and root[0] == bounds:
            start = root[1]
        else:
            start = self._start(form, shifts, lower, upper)
            if root is None:
                self._root = (bounds, start)
        if start is None:
            return LPResult(LPStatus.INFEASIBLE)

        # phase two on a copy: the objective's reduced costs become the
        # last row; its rhs slot is never read, the value is taken from
        # the point
        tableau, basis = list(start[0]), list(start[1])
        z = cost.rows.get(pattern)
        if z is None:
            z = cost.rows[pattern] = int_row(_over_y(form.terms, form.ncols, cost.ints))
        tableau.append(z + [0] * (form.width + 1 - form.ncols))
        _price_out(tableau, basis)

        pc = _optimize(tableau, basis)
        y = [0] * form.width
        for row, bcol in zip(tableau, basis):
            q, r = divmod(row[-1], row[bcol])
            y[bcol] = q if r == 0 else rat(row[-1], row[bcol])
        x = tuple(
            sum((sign * y[col] for col, sign in terms), shift)
            for shift, terms in zip(shifts, form.terms)
        )
        if pc is None:
            value = rat(sum(a * v for a, v in zip(cost.ints, x) if a), cost.den)
            return LPResult(LPStatus.OPTIMAL, point=x, value=value)
        ray_y = [ZERO] * form.width
        ray_y[pc] = rat(1)
        for row, bcol in zip(tableau, basis):
            ray_y[bcol] = rat(-row[pc], row[bcol])
        ray = tuple(sum((sign * ray_y[col] for col, sign in terms), ZERO) for terms in form.terms)
        return LPResult(LPStatus.UNBOUNDED, point=x, ray=ray)

    def _start(self, form: _Form, shifts, lower, upper):
        """The (tableau, basis) phase one leaves under one bound vector,
        or None when it proves the bounds infeasible."""
        moved = [(j, v) for j, v in enumerate(shifts) if v]
        tableau, basis, art_base = _build_tableau(
            form,
            [_shifted_rhs(row, moved) for row in self.ineq],
            [upper[j] - lower[j] for j, _ in form.caps],
            [_shifted_rhs(row, moved) for row in self.eq],
        )
        if not _phase_one(tableau, basis, art_base):
            return None
        return tableau, basis

    def _compile(self, pattern) -> _Form:
        """The substitution table and y-space rows of one bound pattern.

        x_j = shift_j + sum(sign * y_col for col, sign in terms_j), y >= 0:
        lower bound l gives l + y, upper bound u only gives u - y, and a
        free variable y' - y''; a doubly bounded one also gets a cap row.
        """
        terms = []
        caps = []
        ncols = 0
        for j, (has_lo, has_hi) in enumerate(pattern):
            if has_lo:
                terms.append(((ncols, 1),))
                if has_hi:
                    caps.append((j, ncols))
                ncols += 1
            elif has_hi:
                terms.append(((ncols, -1),))
                ncols += 1
            else:
                terms.append(((ncols, 1), (ncols + 1, -1)))
                ncols += 2

        def rows(scaled):
            out = []
            for ints, _, scale in scaled:
                coeffs = _over_y(terms, ncols, ints)
                out.append((coeffs, [-v for v in coeffs], scale))
            return tuple(out)

        return _Form(
            terms=tuple(terms),
            ncols=ncols,
            caps=tuple(caps),
            ineq=rows(self.ineq),
            eq=rows(self.eq),
        )


def _over_y(terms, ncols, ints) -> list:
    """A row of ints over x rewritten over the y columns of `terms`."""
    out = [0] * ncols
    for col_terms, v in zip(terms, ints):
        if v:
            for col, sign in col_terms:
                out[col] += sign * v
    return out


def _shifted_rhs(row, moved):
    """d.b - (d.a).shift over the nonzero shifts (j, v): an int, or a
    rational when a shift is one."""
    ints, b, _ = row
    return b - sum(ints[j] * v for j, v in moved if ints[j])


def _build_tableau(form: _Form, ineq_rhs, caps, eq_rhs):
    """Integer standard-form tableau with slacks, rhs >= 0, artificials.

    Rows come in the order inequalities, caps, equations.  A row is its
    rational row times its scale d: slack entry d (-d once the row is
    negated for a negative rhs), artificial entry d.  With an integral
    rhs that row is already coprime, the row `int_row` gives: a prime p
    dividing d divides no d.a_j whose denominator holds all of d's
    factors p, and if that is b's denominator instead, p does not divide
    d.b nor, with integral shifts, the rhs d.b - (d.a).shift.  A
    rational rhs (a fractional shift or cap) goes through `int_row`.
    Returns (tableau, basis, first artificial col); the artificial
    columns come last.
    """
    ncols = form.ncols
    nslack = len(form.ineq) + len(caps)
    nart = len(form.eq) + sum(1 for rhs in ineq_rhs if rhs < 0)
    art_base = ncols + nslack
    pad = [0] * (nslack + nart)
    tableau = []
    basis = []
    slack = ncols
    art = art_base
    for (coeffs, negated, scale), rhs in zip(form.ineq, ineq_rhs):
        if rhs < 0:
            row = negated + pad + [-rhs]
            row[slack] = -scale
            row[art] = scale
            basis.append(art)
            art += 1
        else:
            row = coeffs + pad + [rhs]
            row[slack] = scale
            basis.append(slack)
        slack += 1
        tableau.append(_coprime(row, rhs))
    for (_, col), cap in zip(form.caps, caps):
        row = [0] * (art_base + nart) + [cap]
        row[col] = row[slack] = 1
        basis.append(slack)
        slack += 1
        tableau.append(_coprime(row, cap))
    for (coeffs, negated, scale), rhs in zip(form.eq, eq_rhs):
        row = (negated + pad + [-rhs]) if rhs < 0 else (coeffs + pad + [rhs])
        row[art] = scale
        basis.append(art)
        art += 1
        tableau.append(_coprime(row, rhs))
    return tableau, basis, art_base


def _coprime(row, rhs):
    """A tableau row as coprime ints: as it is when its rhs is an int."""
    return row if isinstance(rhs, int) else int_row(row)


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
