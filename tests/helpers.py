"""Shared test utilities: independent reference oracles.

The reference LP solver here deliberately avoids the package's own
linear algebra: it enumerates candidate vertices with a plain
Fraction-based Gaussian elimination, so a simplex bug cannot hide
behind shared code.  The lattice twin (`fraction_lattice`,
`fraction_argmax`, `fraction_on_hyperplane`) enumerates, scans and
filters with Fraction sums on the instance's own rows, apart from the
integer rows the lattice engine reads; `fraction_feasible` checks a
point the same way.  `fraction_echelon` sweeps columns in Fractions to
the reduced echelon form, and `fraction_complement` solves for
complement directions off it, apart from the integer echelon rows the
package reads them from.  `mixed_vertices` is the brute-force twin
for bounded mixed-integer instances: the vertices of every integer
slice, by the same Gaussian elimination.  `cap_row_solve` is the
simplex as it was with a cap row per doubly bounded variable, a twin
of its pivot path rather than an independent oracle: it shares the
column map and the integer kernels.  `stein27` builds the
Steiner-triple covering from the lines of AG(3,3), with no MPS file.
Instance generators are reused from the package's selftest module (they
are data producers, not implementations under test).
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction
from operator import add
from typing import Optional, Sequence

from cutdim import simplex
from cutdim.linalg import exact_bounds, exact_vector, int_row, int_scale, pivot
from cutdim.model import build_instance
from cutdim.rational import exact
from cutdim.simplex import LPResult, LPStatus


def gauss_solve(rows, rhs) -> Optional[list]:
    """Solve a square system exactly with Fractions; None if singular."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def reference_lp(objective, rows, rhs, lower, upper):
    """Maximize over a polytope by exhaustive vertex enumeration.

    The rows and the bounds (None: no bound, no face) must make the
    feasible set a polytope: if it is nonempty some vertex is optimal,
    and every vertex solves n of the constraints (rows plus box faces)
    with equality.  Returns (value, point) or (None, None) for an empty
    set.
    """
    n = len(objective)
    all_rows = [list(map(Fraction, row)) for row in rows]
    all_rhs = [Fraction(b) for b in rhs]
    for j in range(n):
        for sign, bound in ((-1, lower[j]), (1, upper[j])):
            if bound is not None:
                face = [Fraction(0)] * n
                face[j] = Fraction(sign)
                all_rows.append(face)
                all_rhs.append(sign * Fraction(bound))

    def feasible(x) -> bool:
        return all(
            sum(a * v for a, v in zip(row, x)) <= b
            for row, b in zip(all_rows, all_rhs)
        )

    best_value = None
    best_point = None
    for subset in itertools.combinations(range(len(all_rows)), n):
        point = gauss_solve([all_rows[i] for i in subset], [all_rhs[i] for i in subset])
        if point is None or not feasible(point):
            continue
        value = sum(Fraction(c) * v for c, v in zip(objective, point))
        if best_value is None or value > best_value:
            best_value = value
            best_point = point
    return best_value, best_point


def mixed_vertices(instance) -> list:
    """The vertices of every integer slice of a bounded mixed-integer
    instance, as Fraction tuples.

    For each integer assignment in the box, the continuous variables
    range over a polytope; each vertex of it solves n_c of its
    constraints (rows and box faces over the continuous variables) with
    equality, found by `gauss_solve` and kept when it satisfies the rest.
    A linear objective attains its maximum over each slice at one of
    these, so the maximum over them is the instance's, and none exists
    exactly when the instance is infeasible.  Neither the simplex nor
    branch and bound is read.
    """
    n = instance.num_vars
    ints = sorted(instance.integer_vars)
    conts = [j for j in range(n) if j not in instance.integer_vars]
    all_rows = [[Fraction(a) for a in row] for row in instance.constraint_matrix]
    all_rhs = [Fraction(b) for b in instance.rhs]
    lower = [Fraction(v) for v in instance.lower_bounds]
    upper = [Fraction(v) for v in instance.upper_bounds]
    for j in conts:
        for sign, bound in ((-1, lower[j]), (1, upper[j])):
            face = [Fraction(0)] * n
            face[j] = Fraction(sign)
            all_rows.append(face)
            all_rhs.append(sign * bound)
    # each row over the continuous variables; a slice's rhs is b less the integer part
    slice_rows = [[row[j] for j in conts] for row in all_rows]
    ranges = [range(math.ceil(lower[j]), math.floor(upper[j]) + 1) for j in ints]
    out = []
    for values in itertools.product(*ranges):
        slice_rhs = [
            b - sum(row[j] * v for j, v in zip(ints, values)) for row, b in zip(all_rows, all_rhs)
        ]
        for subset in itertools.combinations(range(len(slice_rows)), len(conts)):
            y = gauss_solve([slice_rows[i] for i in subset], [slice_rhs[i] for i in subset])
            if y is None or any(
                sum(a * v for a, v in zip(row, y)) > b for row, b in zip(slice_rows, slice_rhs)
            ):
                continue
            point = [Fraction(0)] * n
            for j, v in zip(ints, values):
                point[j] = Fraction(v)
            for j, v in zip(conts, y):
                point[j] = v
            out.append(tuple(point))
    return out


def fraction_lattice(instance) -> list:
    """Feasible points of a boxed pure-integer instance, lex order, by
    Fraction row sums: the lattice engine's enumeration without its
    integer rows."""
    ranges = [
        range(math.ceil(Fraction(lo)), math.floor(Fraction(hi)) + 1)
        for lo, hi in zip(instance.lower_bounds, instance.upper_bounds)
    ]
    rows = [([Fraction(a) for a in row], Fraction(b))
            for row, b in zip(instance.constraint_matrix, instance.rhs)]
    return [p for p in itertools.product(*ranges)
            if all(sum(a * x for a, x in zip(row, p)) <= b for row, b in rows)]


def fraction_argmax(points, w):
    """(first maximal point in the given order, its value) by Fraction
    sums, or (None, None) for no points."""
    best = best_point = None
    for p in points:
        v = sum(Fraction(wi) * x for wi, x in zip(w, p))
        if best is None or v > best:
            best, best_point = v, p
    return best_point, best


def fraction_on_hyperplane(points, a, beta) -> list:
    """The points with a.p == beta, by Fraction sums, in order."""
    return [p for p in points if sum(Fraction(ai) * x for ai, x in zip(a, p)) == Fraction(beta)]


def fraction_feasible(instance, point) -> bool:
    """`MipInstance.is_feasible_point` by Fraction sums on the instance's
    own rows and bounds, apart from its integer view."""
    x = [Fraction(v) for v in point]
    if len(x) != instance.num_vars:
        return False
    for row, b in zip(instance.constraint_matrix, instance.rhs):
        if sum(Fraction(a) * v for a, v in zip(row, x)) > Fraction(b):
            return False
    for v, lo, hi in zip(x, instance.lower_bounds, instance.upper_bounds):
        if (lo is not None and v < Fraction(lo)) or (hi is not None and v > Fraction(hi)):
            return False
    return all(x[j].denominator == 1 for j in instance.integer_vars)


def fraction_echelon(vectors, n) -> tuple:
    """(rows, pivot columns) of the reduced echelon form in Fractions, by
    a column sweep with a unit at each pivot; zero rows are dropped."""
    rows = [[Fraction(v) for v in row] for row in vectors]
    pivots = []
    for c in range(n):
        r = len(pivots)
        best = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def fraction_complement(vectors, n) -> list:
    """Basis of {y : v.y = 0 for every v}, one vector per free column of
    the reduced echelon form: the Fraction solution with a unit on that
    column, scaled to coprime ints with the leading nonzero positive."""
    rows, pivots = fraction_echelon(vectors, n)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        y = [Fraction(0)] * n
        y[free] = Fraction(1)
        for row, pc in zip(rows, pivots):
            y[pc] = -row[free]
        scale = math.lcm(*(v.denominator for v in y))
        ints = [int(v * scale) for v in y]
        g = math.gcd(*ints)
        sign = 1 if next(v for v in ints if v) > 0 else -1
        basis.append(tuple(sign * v // g for v in ints))
    return basis


def cap_row_solve(program, objective, lower, upper):
    """`program` solved for `objective` under one bound vector by the
    cap-row simplex: `LinearProgram`'s solve as it was before a doubly
    bounded variable's cap became an implicit pair, with no memory.

    Every doubly bounded variable, fixed or not, gets the row
    y + t = u - l with its cap slack t basic, and every bound move is a
    pivot.  The twin reuses the program's column map (`_compile`,
    `_over_y`, `_read_back`) and the integer kernels; the tableau, phase
    one, the drive-out and the Bland loop are the old ones.  Returns the
    `LPResult`, the (phase, entering, leaving) steps, phase "one",
    "drive" or "two", in the columns the bounded form keeps, and the
    basis by row when phase one's loop ended (None if it did not run).
    """
    n = program.num_vars
    lower = exact_bounds(lower, n)
    upper = exact_bounds(upper, n)
    if any(lo is not None and hi is not None and lo > hi for lo, hi in zip(lower, upper)):
        return LPResult(LPStatus.INFEASIBLE), [], None
    pattern = tuple((lo is not None, hi is not None) for lo, hi in zip(lower, upper))
    form = program._compile(pattern)
    shifts = [lo if lo is not None else hi if hi is not None else 0 for lo, hi in zip(lower, upper)]
    moved = [(j, v) for j, v in enumerate(shifts) if v]
    tableau, basis, art_base = _cap_row_tableau(
        form,
        [simplex._shifted_rhs(row, moved) for row in program.ineq],
        [upper[j] - lower[j] for j, _ in form.caps],
        [simplex._shifted_rhs(row, moved) for row in program.eq],
    )
    steps, ends = [], []
    if not _cap_row_phase_one(tableau, basis, art_base, steps, ends):
        return LPResult(LPStatus.INFEASIBLE), steps, ends[0]
    ints, den = int_scale(exact_vector(objective))
    z = int_row(simplex._over_y(form.plus, form.minus, form.ncols, ints))
    tableau.append(z + [0] * (form.width + 1 - form.ncols))
    simplex._price_out(tableau, basis)
    pc = _cap_row_optimize(tableau, basis, steps, "two")
    y = [0] * (form.width + 1)
    for row, bcol in zip(tableau, basis):
        y[bcol] = Fraction(row[-1], row[bcol])
    x = exact_vector(map(add, shifts, simplex._read_back(form, y)))
    if pc is None:
        value = exact(sum(Fraction(c, den) * v for c, v in zip(ints, x)))
        return LPResult(LPStatus.OPTIMAL, point=x, value=value), steps, ends[0] if ends else None
    ray_y = [0] * (form.width + 1)
    ray_y[pc] = 1
    for row, bcol in zip(tableau, basis):
        ray_y[bcol] = Fraction(-row[pc], row[bcol])
    ray = exact_vector(simplex._read_back(form, ray_y))
    return LPResult(LPStatus.UNBOUNDED, point=x, ray=ray), steps, ends[0] if ends else None


def _cap_row_tableau(form, ineq_rhs, caps, eq_rhs):
    """The cap-row tableau: inequality rows, one cap row per doubly
    bounded variable, equation rows; (tableau, basis, first artificial)."""
    ncols = form.ncols
    nslack = len(form.ineq) + len(caps)
    nart = len(form.eq) + sum(1 for rhs in ineq_rhs if rhs < 0)
    art_base = ncols + nslack
    pad = [0] * (nslack + nart)
    tableau, basis = [], []
    slack, art = ncols, art_base
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
        tableau.append(int_row(row))
    for (_, col), cap in zip(form.caps, caps):
        row = [0] * (art_base + nart) + [cap]
        row[col] = row[slack] = 1
        basis.append(slack)
        slack += 1
        tableau.append(int_row(row))
    for (coeffs, negated, scale), rhs in zip(form.eq, eq_rhs):
        row = (negated + pad + [-rhs]) if rhs < 0 else (coeffs + pad + [rhs])
        row[art] = scale
        basis.append(art)
        art += 1
        tableau.append(int_row(row))
    return tableau, basis, art_base


def _cap_row_phase_one(tableau, basis, art_base, steps, ends) -> bool:
    if all(bcol < art_base for bcol in basis):
        return True
    width = len(tableau[0])
    tableau.append([0] * art_base + [-1] * (width - 1 - art_base) + [0])
    simplex._price_out(tableau, basis)
    if _cap_row_optimize(tableau, basis, steps, "one") is not None:
        raise AssertionError("phase one cannot be unbounded")
    ends.append(list(basis))
    if tableau.pop()[-1] != 0:
        return False
    drop = []
    for i, row in enumerate(tableau):
        if basis[i] < art_base:
            continue
        pivot_col = next((col for col in range(art_base) if row[col] != 0), None)
        if pivot_col is None:
            drop.append(i)
        else:
            steps.append(("drive", pivot_col, basis[i]))
            pivot(tableau, i, pivot_col)
            basis[i] = pivot_col
    for i in reversed(drop):
        del tableau[i]
        del basis[i]
    for row in tableau:
        del row[art_base:-1]
    return True


def _cap_row_optimize(tableau, basis, steps, phase):
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
        steps.append((phase, pc, basis[pr]))
        pivot(tableau, pr, pc)
        basis[pr] = pc


def random_boxed_lp(rng, max_vars: int = 4, max_rows: int = 4):
    """Random integer-data LP over a small box, as plain lists."""
    n = rng.randint(1, max_vars)
    m = rng.randint(0, max_rows)
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    rhs = [rng.randint(-6, 10) for _ in range(m)]
    lower = [rng.randint(-3, 0) for _ in range(n)]
    upper = [lo + rng.randint(0, 4) for lo in lower]
    objective = [rng.randint(-5, 5) for _ in range(n)]
    return objective, rows, rhs, lower, upper


def ag33_lines():
    """The 117 lines of the affine space AG(3,3), point (i, j, k) numbered
    9i + 3j + k: every pair of the 27 points lies on exactly one line."""
    points = list(itertools.product(range(3), repeat=3))
    lines = set()
    for p in points:
        for d in points[1:]:
            lines.add(tuple(sorted(
                9 * ((p[0] + t * d[0]) % 3) + 3 * ((p[1] + t * d[1]) % 3) + (p[2] + t * d[2]) % 3
                for t in range(3)
            )))
    return sorted(lines)


def stein27():
    """The Steiner-triple covering stein27: min sum x, sum x >= 1 on each
    line of AG(3,3), x binary."""
    lines = ag33_lines()
    n = 27
    return build_instance(
        name="stein27",
        constraint_matrix=[[-1 if j in line else 0 for j in range(n)] for line in lines],
        rhs=[-1] * len(lines),
        objective=[-1] * n,
        integer_vars=range(n),
        lower_bounds=[0] * n,
        upper_bounds=[1] * n,
    )


def miplib_file(name: str) -> Optional[str]:
    """Path of a benchmark MPS file, or None when not available."""
    roots = []
    env = os.environ.get("CUTDIM_MIPLIB_DIR")
    if env:
        roots.append(env)
    roots.append(os.path.join(os.path.dirname(__file__), "data", "miplib"))
    for root in roots:
        path = os.path.join(root, f"{name}.mps")
        if os.path.exists(path):
            return path
    return None
