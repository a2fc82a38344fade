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
package reads them from.  `stein27` builds the Steiner-triple covering
from the lines of AG(3,3), with no MPS file.  Instance generators are
reused from the package's selftest module (they are data producers, not
implementations under test).
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction
from typing import Optional, Sequence

from cutdim.model import build_instance


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
    """Maximize over a boxed polyhedron by exhaustive vertex enumeration.

    All bounds must be finite, which makes the feasible set a polytope:
    if it is nonempty some vertex is optimal, and every vertex solves n
    of the constraints (rows plus box faces) with equality.  Returns
    (value, point) or (None, None) for an empty set.
    """
    n = len(objective)
    all_rows = [list(map(Fraction, row)) for row in rows]
    all_rhs = [Fraction(b) for b in rhs]
    for j in range(n):
        low = [Fraction(0)] * n
        low[j] = Fraction(-1)
        all_rows.append(low)
        all_rhs.append(-Fraction(lower[j]))
        high = [Fraction(0)] * n
        high[j] = Fraction(1)
        all_rows.append(high)
        all_rhs.append(Fraction(upper[j]))

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
