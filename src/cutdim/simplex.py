"""Exact two-phase simplex for rational linear programs.

Solves  max c.x  s.t.  A.x <= b,  E.x = f,  l <= x <= u  in exact
arithmetic on a dense tableau.  Bland's smallest-index rule makes every
run finite and deterministic; there is no scaling, no tolerance and no
degeneracy heuristic to tune.

A `LinearProgram` is the rows of A, b, E and f in integer form
(`linalg.scaled_row`), compiled once, plus what its solves leave
behind: `solve` takes one objective c and one bound vector (l, u) at a
time, and the program keeps the latest c, its phase-two rows and its
results.  Branch and bound solves one program at every node of a run,
an oracle provider owns one for all its queries, and `solve_lp` is a
program solved once.  Bounds are folded into the standard form by one
column map that writes each variable as
x_j = shift_j + y_plus - y_minus  over nonnegative columns y, either
term possibly absent: a variable with a finite lower bound l is l + y,
one bounded only from above by u is u - y, a free one is y' - y''.  A
doubly bounded variable also has a cap slack t with  y + t = u - l,
held as an implicit pair, not a row: the upper-bounding technique
(Dantzig, Econometrica 1955).  One of y and t is active and holds the
pair's entries; the other, all zero, is the pair's basic in the cap row
left out.  A move between the bounds is a flip, O(rows) and no pivot:
the active column's entries move to the partner, negated, and each rhs
drops by the cap times its entry.  The pivots are exactly those of the
cap-row form, the tableau with every cap a row, in its column numbering:
each ratio-test candidate carries the index of the column that leaves
that form (`_optimize`), Bland's rule reads those, and phase one's
drive-out takes the rows in that form's order.  This holds for a cap of
0 too (a fixed variable, as every branch makes one), where both columns
could be nonbasic at once: the cap-row form starts with t basic, and
while only one of the two is basic its cap row reads partner + col =
cap, so it leaves only as the other enters.  The map, and every row
rewritten over y, depend only on which bounds are finite, so they are
built once per such pattern; a solve computes the shifts, the
right-hand sides and the caps.  The map reads the optimal
point (with the shifts, and y = cap - t where t is active) and an
unbounded ray (without them; a ray moves no pair) back to x-space.
Artificial variables are introduced only for rows whose slack cannot
serve as the initial basis; their columns come last and are deleted
once phase one has found a feasible basis.  Phase one never reads the
objective, so the basis it leaves under a bound vector is remembered,
with its pairs, beside that vector's pattern, form and shifts, and a
later solve under those bounds, with any objective, starts phase two
from a copy of it.  A program keeps these starts for its first bound
vector (a run's root, which every query of an oracle provider solves
again) and for the latest other ones phase one ran for, `_STARTS` in
all, so a node that the queries of one provider solve again soon runs
phase one once.  The objective being optimized is the tableau's last row:
it is priced out by one `linalg.reduced` against the basic rows, and a
pivot is one `linalg.pivot` step plus the basis update.  An optimal
solve's final tableau also bounds the LP value of each child of a
branch, with no pivot: `branch_bounds` reads the two bounds once, at
the branching, as two numbers.

The tableau holds Python ints.  The rows arrive scaled to ints, and
each is written into a tableau as coprime integers, the form `int_row`
gives; `linalg.pivot` keeps every row a positive multiple of the
rational tableau's row.  Those rows are the cap-row tableau's, less the
pairs' cap rows: a flip keeps a row coprime when the cap is an int (the
moved entry stays in the row), and a fractional cap goes through
`int_row`.  Pricing reads signs, the ratio
test cross-multiplies, and the basic solution and ray are read back as a
row's rhs (or entering column) over its basic entry, so the pivots, and
every result, are those of the rational tableau.  Objectives, bounds,
points, rays and values follow the one rule of `rational`: an int where
integral, a rational only where a value is fractional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import compress, islice
from operator import mul
from typing import Optional, Sequence

from .linalg import (
    Vector,
    exact_bounds,
    exact_vector,
    int_row,
    int_scale,
    pivot,
    reduced,
    scaled_row,
)
from .rational import exact, rat


# the bound vectors whose phase-one start a program keeps, its root's among them
_STARTS = 8


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    """Outcome of one LP solve.

    For OPTIMAL, `point` attains `value`.  For UNBOUNDED, `point` is a
    feasible witness and `ray` a recession direction that strictly
    improves the objective; `value` is None.  Every entry, and `value`,
    is an int exactly when it is integral (`rational.exact`).
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
    ineq = [scaled_row(row, b) for row, b in zip(ineq_rows, ineq_rhs)]
    eq = [scaled_row(row, b) for row, b in zip(eq_rows, eq_rhs)]
    program = LinearProgram(len(objective), ineq, eq)
    return program.solve(objective, lower, upper)


@dataclass(frozen=True)
class _Form:
    """The standard form of a program's rows for one pattern of finite
    bounds.

    The column map writes x_j over the y columns,
    x_j = shift_j + y[plus[j]] - y[minus[j]], where -1 stands for no
    such term.  `caps` lists (j, col) for
    each doubly bounded variable; its cap slack, the partner of col in
    an implicit pair, comes after the inequality slacks, in that order,
    and its cap is the bounds', so a run that fixes variables at its
    nodes shares one form.  `ineq` and `eq` hold, per row, its
    y-space ints, their negation and the row's scale.  `width` is the
    column count after phase one: the y columns and the slacks.
    """

    ncols: int
    caps: tuple
    ineq: tuple
    eq: tuple
    plus: tuple
    minus: tuple

    @property
    def width(self) -> int:
        return self.ncols + len(self.ineq) + len(self.caps)


class LinearProgram:
    """The rows  A.x <= b,  E.x = f, compiled once, solved for many
    objectives under many bound vectors.

    The rows come in the integer form `linalg.scaled_row` gives,
    (d.a, d.b, d) with d the lcm of the row's denominators: `ineq` for
    A.x <= b, `eq` for E.x = f.  No objective is compiled in: `solve`
    takes the objective with the bounds.  The program remembers three
    things.  The first grows with the bound patterns, the second is
    bounded, and the third grows with the distinct bound vectors solved
    for the latest objective:

    - per pattern of finite bounds, the column map and the
      y-space rows (`_Form`);
    - for the first bound vector phase one runs for (a run's root), and
      for the latest `_STARTS` - 1 of the others it ran for, its bound
      pattern, form and shifts, and the tableau, basis and pairs (which
      column of each is active) phase one left, or that it proved the
      bounds infeasible.  Phase one never reads the objective, so a
      later solve under one of these bound vectors, with any objective,
      copies that tableau and goes straight to phase two, and every
      pivot and result is the one a fresh solve gives.  The root's stays
      for good; another bound vector runs phase one again once
      `_STARTS` - 1 newer ones have pushed it out;
    - the latest objective asked, with c = ints / den, its phase-two
      row for each pattern, its result for each bound vector, and the
      two child bounds (`branch_bounds`, a pair of numbers) of each
      (bound vector, branching variable) that `child_bounds` read, so
      runs that solve the program for one objective in turn share their
      answers, and a child of a result read from memory is still
      bounded.  Another objective replaces them all.
      Runs on one program take turns (an oracle's queries, the impact
      protocol's reference, relaxation and baseline solves), so the
      latest one is all a run reads back.

    A remembered tableau is never written to: `linalg.pivot` and a flip
    replace rows and never write into one, so phase two works on a
    shallow copy, and on its own copy of which pair columns are active.
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
        # bounds -> (pattern, form, shifts, the start phase one left for
        # them), oldest first; the first key is the root's and stays, the
        # others are the latest, at most _STARTS in all
        self._starts: dict = {}
        # the latest objective as given, c = ints / den, its phase-two
        # row per bound pattern and its result per bound vector
        self._key = None
        self._ints, self._den, self._rows, self._results = [], 1, {}, {}
        # (bounds, j) -> `branch_bounds` for the latest objective; the
        # latest bounds asked, and, when that solve was not read from
        # memory and ended optimal, its result and final tableau
        self._children: dict = {}
        self._latest = self._final = None

    def solve(
        self,
        objective: Sequence,
        lower: Optional[Sequence] = None,
        upper: Optional[Sequence] = None,
    ) -> LPResult:
        """max objective.x under bounds lower <= x <= upper (None: no
        bound); from memory when the latest objective was solved under
        these bounds before."""
        if objective is not self._key:  # a run passes one tuple at every node
            key = exact_vector(objective)
            if key != self._key:
                if len(key) != self.num_vars:
                    raise ValueError("objective length must match the variable count")
                self._ints, self._den = int_scale(key)
                self._rows, self._results, self._children = {}, {}, {}
            # a tuple equals its `key` and is kept as given, so the next
            # call with it skips the conversion
            self._key = objective if type(objective) is tuple else key
        n = self.num_vars
        lower = exact_bounds(lower, n)
        upper = exact_bounds(upper, n)
        if len(lower) != n or len(upper) != n:
            raise ValueError("bound vectors must match the variable count")
        bounds = self._latest = (lower, upper)
        self._final = None
        result = self._results.get(bounds)
        if result is None:
            result = self._results[bounds] = self._solve(lower, upper)
        return result

    def child_bounds(self, j: int) -> Optional[tuple]:
        """The `branch_bounds` (down, up) of a branch on x_j at the latest
        solve, which ended optimal with x_j fractional.  Kept per
        (bounds, j) for the latest objective, so a solve read from
        memory finds the pair its first solve read."""
        key = (self._latest, j)
        if self._final is None:  # read from memory
            return self._children.get(key)
        bounds = self._children[key] = branch_bounds(j, self._ints, self._den, *self._final)
        return bounds

    def _solve(self, lower: tuple, upper: tuple) -> LPResult:
        bounds = (lower, upper)
        starts = self._starts
        if bounds in starts:
            pattern, form, shifts, start = starts[bounds]
        else:
            for lo, hi in zip(lower, upper):
                if lo is not None and hi is not None and lo > hi:
                    return LPResult(LPStatus.INFEASIBLE)
            pattern = tuple((lo is not None, hi is not None) for lo, hi in zip(lower, upper))
            form = self._forms.get(pattern)
            if form is None:
                form = self._forms[pattern] = self._compile(pattern)
            shifts = tuple(
                lo if lo is not None else hi if hi is not None else 0
                for lo, hi in zip(lower, upper)
            )
            start = self._start(form, shifts, lower, upper)
            starts[bounds] = (pattern, form, shifts, start)
            if len(starts) > _STARTS:
                del starts[next(islice(starts, 1, None))]  # the oldest but the root's
        if start is None:
            return LPResult(LPStatus.INFEASIBLE)

        # phase two on a copy: the objective's reduced costs become the
        # last row, written over the active column of each pair; its rhs
        # slot is never read, the value is taken from the point
        tableau, basis, pairs, at_upper = list(start[0]), list(start[1]), start[2], set(start[3])
        z = self._rows.get(pattern)
        if z is None:
            z = int_row(_over_y(form.plus, form.minus, form.ncols, self._ints))
            z = self._rows[pattern] = z + [0] * (form.width + 1 - form.ncols)
        for col in at_upper:
            z = _complemented(z, col, *pairs[col])
        tableau.append(z)  # never written into: `_price_out` replaces it
        _price_out(tableau, basis)

        pc = _optimize(tableau, basis, pairs, at_upper)
        y = [0] * form.width
        for row, bcol in zip(tableau, basis):
            q, r = divmod(row[-1], row[bcol])
            y[bcol] = q if r == 0 else rat(row[-1], row[bcol])
        for col in at_upper:  # y = cap - t
            t, num, den = pairs[col]
            y[col] = num - y[t] if den == 1 else exact(rat(num, den) - y[t])
        x = tuple([v + s if s else v for v, s in zip(_read_back(form, y), shifts)])
        if not {int}.issuperset(map(type, shifts)):
            x = exact_vector(x)  # a fractional shift plus a fractional y may be integral
        if pc is None:
            c = self._ints
            total = sum(map(mul, compress(c, c), compress(x, c)))
            q, r = divmod(total, self._den)
            value = q if r == 0 else rat(total, self._den)
            result = LPResult(LPStatus.OPTIMAL, point=x, value=value)
            self._final = (result, tableau, basis, pairs, at_upper, form, shifts)
            return result
        ray_y = [0] * form.width
        ray_y[pc] = 1
        for row, bcol in zip(tableau, basis):
            ray_y[bcol] = rat(-row[pc], row[bcol])
        return LPResult(LPStatus.UNBOUNDED, point=x, ray=exact_vector(_read_back(form, ray_y)))

    def _start(self, form: _Form, shifts, lower, upper):
        """The (tableau, basis, pairs, at_upper) phase one leaves under one
        bound vector (`_build_tableau`, `_optimize`), or None when it
        proves the bounds infeasible."""
        moved = [(j, v) for j, v in enumerate(shifts) if v]
        tableau, basis, art_base, pairs, places = _build_tableau(
            form,
            [_shifted_rhs(row, moved) for row in self.ineq],
            [upper[j] - lower[j] for j, _ in form.caps],
            [_shifted_rhs(row, moved) for row in self.eq],
        )
        at_upper = set()
        if not _phase_one(tableau, basis, art_base, pairs, at_upper, places):
            return None
        return tableau, basis, pairs, frozenset(at_upper)

    def _compile(self, pattern) -> _Form:
        """The column map and y-space rows of one bound pattern.

        x_j = shift_j + y[plus_j] - y[minus_j], y >= 0: lower bound l
        gives l + y, upper bound u only gives u - y, and a free variable
        y' - y''; a doubly bounded one also gets a cap slack (`_Form`).
        """
        plus, minus, caps = [], [], []
        ncols = 0
        for j, (has_lo, has_hi) in enumerate(pattern):
            if has_lo:
                plus.append(ncols)
                minus.append(-1)
                if has_hi:
                    caps.append((j, ncols))
                ncols += 1
            elif has_hi:
                plus.append(-1)
                minus.append(ncols)
                ncols += 1
            else:
                plus.append(ncols)
                minus.append(ncols + 1)
                ncols += 2

        def rows(scaled):
            out = []
            for ints, _, scale in scaled:
                coeffs = _over_y(plus, minus, ncols, ints)
                out.append((coeffs, [-v for v in coeffs], scale))
            return tuple(out)

        return _Form(
            ncols=ncols,
            caps=tuple(caps),
            ineq=rows(self.ineq),
            eq=rows(self.eq),
            plus=tuple(plus),
            minus=tuple(minus),
        )


def branch_bounds(j, ints, den, result, tableau, basis, pairs, at_upper, form, shifts):
    """The LP bounds (down, up) of the two children of a branch on x_j,
    read off an optimal solve's final state with no pivot: the one-step
    penalty (Driebeek, Manage. Sci. 1966; Tomlin, Oper. Res. 1971).  A
    child no column can move x_j toward is infeasible, bound -inf.  None
    when no column of x_j is basic (x_j sits at a bound), or Z* = 0.

    In the final tableau every active column w is nonnegative and the
    nonbasic ones are 0.  x_j's basic column d, in row i, gives
    x_j = x_j* - (sign / T_id).sum_k T_ik.w_k over the nonbasic k, where
    x_j = K + sign.w_d (sign -1 for a minus column, or for a pair's cap
    slack t when t is active and y = cap - t).  The objective row R
    is s > 0 times the reduced costs of den.c.x, so
    den.c.x = den.value + sum_k (R_k / s).w_k, each R_k <= 0.  The down
    child needs x_j to fall by phi = x_j* - floor(x_j*), the up child to
    rise by phi = ceil(x_j*) - x_j*; only the columns with
    sign.T_id.T_ik > 0 (down) or < 0 (up) move it that way, at
    |T_ik / T_id| per unit.  So the child's LP value is at most
    value - phi.|T_id|.m / (s.den), m the least -R_k / |T_ik| over those
    columns.  Ignoring the caps and the other rows only loosens the
    bound.  s comes from R's rhs slot, R[-1] = -s.Z*, with
    Z* = den.value - ints.shifts = zn / zd the value over y.

    The scan is one pass in ints, each side's least ratio an int pair
    (n, d) compared by cross-multiplying, (1, 0) while no column moves
    x_j that way.  With phi = f / q, a bound is
    value - f.n.a / (d.b), a = |T_id.zn| and b = q.zd.|R[-1]|.den.
    """
    for col, sign in ((form.plus[j], 1), (form.minus[j], -1)):
        if col >= 0:
            if col in at_upper:  # y = cap - t with t active
                col, sign = pairs[col][0], -sign
            if col in basis:
                break
    else:
        return None
    value = result.value
    moved = sum(map(mul, compress(ints, ints), compress(shifts, ints)))  # ints.shifts
    vn, vd = value.numerator, value.denominator
    zd = vd * moved.denominator
    zn = den * vn * moved.denominator - moved.numerator * vd
    if not zn:
        return None
    row = tableau[basis.index(col)][:-1]
    sign *= row[col]
    row[col] = 0
    z = tableau[-1]
    pn, pd = nn, nd = 1, 0  # the least -R_k / |T_ik| over T_ik > 0, and < 0
    for t, c in compress(zip(row, z), row):
        if t > 0:
            if c * pd + pn * t > 0:
                pn, pd = -c, t
        elif c * nd > nn * t:
            nn, nd = -c, -t
    x = result.point[j]
    q = x.denominator
    r = x.numerator % q
    a = abs(sign * zn)
    b = q * zd * abs(z[-1]) * den
    sides = ((r, pn, pd), (q - r, nn, nd)) if sign > 0 else ((r, nn, nd), (q - r, pn, pd))
    bounds = []
    for f, n, d in sides:
        if not d:
            bounds.append(-math.inf)  # no column moves x_j this way
        elif not n:
            bounds.append(value)  # a column with no cost does
        else:
            top, bottom = vn * d * b - vd * f * n * a, vd * d * b
            whole, rest = divmod(top, bottom)
            bounds.append(whole if rest == 0 else rat(top, bottom))
    return tuple(bounds)


def _read_back(form: _Form, y):
    """y[plus_j] - y[minus_j] for each x_j (`_Form`): the point without
    its shifts, or a ray.  An absent term (-1) is skipped, so a rational
    entry takes no step with a zero."""
    return [
        y[p] if m < 0 else -y[m] if p < 0 else y[p] - y[m] for p, m in zip(form.plus, form.minus)
    ]


def _over_y(plus, minus, ncols, ints) -> list:
    """A row of ints over x rewritten over the y columns of the column
    map (`_Form`): x_j's entry goes to plus_j and, negated, to minus_j."""
    out = [0] * ncols
    for p, m, v in zip(plus, minus, ints):
        if v:
            if p >= 0:
                out[p] += v
            if m >= 0:
                out[m] -= v
    return out


def _shifted_rhs(row, moved):
    """d.b - (d.a).shift over the nonzero shifts (j, v): an int, or a
    rational when a shift is one."""
    ints, b, _ = row
    return b - sum(ints[j] * v for j, v in moved if ints[j])


def _build_tableau(form: _Form, ineq_rhs, caps, eq_rhs):
    """Integer standard-form tableau with slacks, rhs >= 0, artificials.

    Rows come in the order inequalities, equations.  A doubly bounded
    variable gets no row: its column y and cap slack t form an implicit
    pair y + t = cap, with y active and t the implicit basic.  A row is its
    rational row times its scale d: slack entry d (-d once the row is
    negated for a negative rhs), artificial entry d.  With an integral
    rhs that row is already coprime, the row `int_row` gives: a prime p
    dividing d divides no d.a_j whose denominator holds all of d's
    factors p, and if that is b's denominator instead, p does not divide
    d.b nor, with integral shifts, the rhs d.b - (d.a).shift.  A
    rational rhs (a fractional shift) goes through `int_row`.  Returns
    (tableau, basis, first artificial col, pairs, places); the
    artificial columns come last, and `pairs` maps each column of a
    pair to (partner, num, den) with cap = num / den.  `places` holds
    the row each basic would hold in the cap-row form: a list by row,
    and a dict by y column for each pair's implicit basic.
    """
    ncols = form.ncols
    nineq = len(form.ineq)
    nslack = nineq + len(caps)
    nart = len(form.eq) + sum(1 for rhs in ineq_rhs if rhs < 0)
    art_base = ncols + nslack
    pad = [0] * (nslack + nart)
    tableau = []
    basis = []
    pairs = {}
    places = ([*range(nineq), *range(nslack, nslack + len(form.eq))], {})
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
    for k, ((_, col), cap) in enumerate(zip(form.caps, caps)):
        num, den = (cap, 1) if type(cap) is int else (cap.numerator, cap.denominator)
        t = ncols + nineq + k
        pairs[col] = (t, num, den)
        pairs[t] = (col, num, den)
        places[1][col] = nineq + k
    for (coeffs, negated, scale), rhs in zip(form.eq, eq_rhs):
        row = (negated + pad + [-rhs]) if rhs < 0 else (coeffs + pad + [rhs])
        row[art] = scale
        basis.append(art)
        art += 1
        tableau.append(_coprime(row, rhs))
    return tableau, basis, art_base, pairs, places


def _coprime(row, rhs):
    """A tableau row as coprime ints: as it is when its rhs is an int."""
    return row if isinstance(rhs, int) else int_row(row)


def _complemented(row, col, partner, num, den):
    """`row` with column `col` written over its partner, col = cap - partner
    with cap = num / den: col's entry moves to the partner negated and
    the rhs drops by cap times it.  A fresh list, coprime as `int_row`
    gives it: with an integral cap the gcd stays, since the moved entry
    is still in the row."""
    out = list(row)
    v = out[col]
    out[col] = 0
    out[partner] = -v
    if den == 1:
        out[-1] -= num * v
        return out
    out[-1] -= rat(num * v, den)
    return int_row(out)


def _flip(tableau, col, partner, num, den) -> None:
    """Move a nonbasic pair column to its other bound: every row, the
    objective too, is written over the partner (`_complemented`), which
    becomes the active column.  The pivot of the cap-row form at the
    pair's cap row, col entering and partner leaving, as an rhs update."""
    for i, row in enumerate(tableau):
        if row[col]:
            tableau[i] = _complemented(row, col, partner, num, den)


def _enter(tableau, basis, r, c) -> None:
    """Pivot column c into the basis in row r's place."""
    pivot(tableau, r, c)
    basis[r] = c


def _price_out(tableau, basis) -> None:
    """Clear the basic columns from the objective in the last row: one
    `reduced` against the basic rows, which it leaves as they are."""
    tableau[-1] = reduced(tableau[-1], tableau, basis)


def _phase_one(tableau, basis, art_base, pairs, at_upper, places) -> bool:
    """Minimize the artificial sum; True when it reaches zero.

    On success the artificials have left the basis, taken in the order
    of their rows in the cap-row form (`places`), rows they leave behind
    as redundant are dropped and the artificial columns deleted.
    """
    if all(bcol < art_base for bcol in basis):
        return True
    width = len(tableau[0])
    tableau.append([0] * art_base + [-1] * (width - 1 - art_base) + [0])
    _price_out(tableau, basis)
    if _optimize(tableau, basis, pairs, at_upper, places) is not None:
        raise AssertionError("phase one cannot be unbounded")
    # the rhs slot of the objective row holds the artificial sum
    if tableau.pop()[-1] != 0:
        return False
    # drive leftover artificials out of the basis at level zero
    drop = []
    for i in sorted(range(len(tableau)), key=places[0].__getitem__):
        if basis[i] < art_base:
            continue
        pivot_col = next((col for col in range(art_base) if tableau[i][col] != 0), None)
        if pivot_col is None:
            drop.append(i)  # redundant row
        else:
            _enter(tableau, basis, i, pivot_col)
    for i in sorted(drop, reverse=True):
        del tableau[i]
        del basis[i]
    for row in tableau:
        del row[art_base:-1]
    return True


def _optimize(tableau, basis, pairs, at_upper, places=None) -> Optional[int]:
    """Bland-rule simplex loop on the objective in the last tableau row.

    The pivots are those of the cap-row form, in its column numbering
    (`LinearProgram`).  The candidates to leave, each under the column
    that leaves the cap-row basis, are: a row positive at the entering
    column, under its basic; a pair's active column basic in a row
    negative there, which reaches its cap, under the partner; and the
    entering column's own pair, whose cap row reads partner + col = cap,
    under the partner.  Only signs are read and ratios are compared by
    cross-multiplying ints, so the integer rows pick the pivots the
    rational tableau would.  A won own pair is a `_flip`; a basic column
    that reaches its cap is complemented in its row, the partner its
    basic, and pivoted out: the entering column takes the pair's row of
    the cap-row form, and the pair that row, in `places` when given.
    `at_upper` holds the y column of each pair whose cap slack is active,
    y at its upper bound.  Returns None at an optimum, or the entering
    column along which the objective is unbounded.
    """
    while True:
        z = tableau[-1]
        pc = next((j for j in range(len(z) - 1) if z[j] > 0), None)
        if pc is None:
            return None
        # the leaving candidate so far: its cap-row column, ratio num/den
        # and row (None: pc's own pair)
        pr = None
        own = pairs.get(pc)
        if own is None:
            leaves = None
        else:
            leaves, num, den = own
        for i, bcol in enumerate(basis):
            row = tableau[i]
            f = row[pc]
            if f > 0:
                out, n, d = bcol, row[-1], f
            elif f < 0 and bcol in pairs:
                out, cn, cd = pairs[bcol]
                n, d = cn * row[bcol] - cd * row[-1], -cd * f
            else:
                continue
            if leaves is not None:
                lhs, rhs = n * den, num * d
                if lhs > rhs or (lhs == rhs and out > leaves):
                    continue
            pr, leaves, num, den = i, out, n, d
        if leaves is None:
            return pc
        if pr is None:
            _flip(tableau, pc, *own)
            at_upper ^= {min(pc, leaves)}
            continue
        bcol = basis[pr]
        if leaves != bcol:  # the basic pair column reaches its cap
            tableau[pr] = _complemented(tableau[pr], bcol, *pairs[bcol])
            basis[pr] = leaves
            key = min(bcol, leaves)
            at_upper ^= {key}
            if places is not None:
                rows, held = places
                rows[pr], held[key] = held[key], rows[pr]
        _enter(tableau, basis, pr, pc)
