"""Problem data: mixed-integer instances and linear inequalities.

An instance is the maximization problem

    max c.x  subject to  A.x <= b,  l <= x <= u,  x_i integer for i in I,

with every coefficient an exact rational.  Instances and inequalities are
frozen; analyses never mutate problem data.

An instance also keeps one integer view of its rows, `integer_rows`,
built on first use: each row a.x <= b in the form `linalg.scaled_row`
gives, (d.a, d.b, d) with d the lcm of the denominators of a and b.  A
point X/D, X integers and D > 0, satisfies the row exactly when
(d.a).X <= (d.b).D.  `is_feasible_point` checks every point that way,
the lattice engine (`oracle.enumerate_lattice`) tests every box point
against it (D = 1), and every branch-and-bound run compiles its
program from it.  `integer_bounds` is the same for the bounds: every
integral bound as an int, the form branch and bound starts its nodes
from and `is_feasible_point` compares against.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .linalg import Matrix, Vector, dot, exact_bounds, int_scale, matrix, scaled_row, vector
from .rational import rat, rat_str


@dataclass(frozen=True)
class MipInstance:
    name: str
    num_vars: int
    constraint_matrix: Matrix
    rhs: Vector
    objective: Vector
    integer_vars: frozenset[int]
    # None marks an absent (infinite) bound
    lower_bounds: tuple
    upper_bounds: tuple

    @property
    def num_constraints(self) -> int:
        return len(self.constraint_matrix)

    def is_pure_integer(self) -> bool:
        return len(self.integer_vars) == self.num_vars

    @functools.cached_property
    def integer_rows(self) -> tuple:
        """The rows as (d.a, d.b, d) triples of ints (`scaled_row`)."""
        return tuple(scaled_row(row, b) for row, b in zip(self.constraint_matrix, self.rhs))

    @functools.cached_property
    def integer_bounds(self) -> tuple:
        """(lower, upper) with every integral bound as an int (`exact_bounds`)."""
        bounds = (self.lower_bounds, self.upper_bounds)
        return tuple(exact_bounds(b, self.num_vars) for b in bounds)

    def is_feasible_point(self, point: Sequence) -> bool:
        """Exact feasibility check against rows, bounds and integrality.

        The point is scaled once to X/D, and each row (d.a, d.b, d) of
        `integer_rows` is checked as (d.a).X <= (d.b).D in ints.
        """
        if len(point) != self.num_vars:
            return False
        x, den = int_scale(point)
        if any(dot(a, x) > b * den for a, b, _ in self.integer_rows):
            return False
        for v, lo, hi in zip(point, *self.integer_bounds):
            if lo is not None and v < lo:
                return False
            if hi is not None and v > hi:
                return False
        return all(point[j].denominator == 1 for j in self.integer_vars)


def build_instance(
    name: str,
    constraint_matrix: Iterable[Iterable],
    rhs: Iterable,
    objective: Iterable,
    integer_vars: Iterable[int] = (),
    lower_bounds: Optional[Sequence] = None,
    upper_bounds: Optional[Sequence] = None,
) -> MipInstance:
    """Coerce raw data (ints, strings, Fractions) into a checked instance.

    Bounds may be given as None entries, or omitted entirely; an omitted
    lower/upper bound vector means free in that direction.  math.inf and
    -math.inf are accepted as aliases for None.
    """
    mat = matrix(constraint_matrix)
    obj = vector(objective)
    n = len(obj)

    def coerce_bounds(bounds, default):
        if bounds is None:
            return (default,) * n
        out = []
        for v in bounds:
            if v is None or (isinstance(v, float) and math.isinf(v)):
                out.append(None)
            else:
                out.append(rat(v))
        return tuple(out)

    inst = MipInstance(
        name=name,
        num_vars=n,
        constraint_matrix=mat,
        rhs=vector(rhs),
        objective=obj,
        integer_vars=frozenset(operator.index(i) for i in integer_vars),
        lower_bounds=coerce_bounds(lower_bounds, None),
        upper_bounds=coerce_bounds(upper_bounds, None),
    )
    problems = validate_instance(inst)
    if problems:
        raise ValueError("malformed instance: " + "; ".join(problems))
    return inst


def validate_instance(inst: MipInstance) -> list[str]:
    """Shape and consistency violations, empty when the instance is sound."""
    problems = []
    n = inst.num_vars
    if len(inst.objective) != n:
        problems.append(f"objective has {len(inst.objective)} entries, expected {n}")
    if len(inst.rhs) != len(inst.constraint_matrix):
        problems.append(
            f"{len(inst.constraint_matrix)} constraint rows but {len(inst.rhs)} rhs entries"
        )
    for i, row in enumerate(inst.constraint_matrix):
        if len(row) != n:
            problems.append(f"constraint row {i} has {len(row)} entries, expected {n}")
    for idx in inst.integer_vars:
        if not 0 <= idx < n:
            problems.append(f"integer variable index {idx} out of range")
    for label, bounds in (("lower", inst.lower_bounds), ("upper", inst.upper_bounds)):
        if len(bounds) != n:
            problems.append(f"{label} bounds have {len(bounds)} entries, expected {n}")
    if not problems:
        for j in range(n):
            lo, hi = inst.lower_bounds[j], inst.upper_bounds[j]
            if lo is not None and hi is not None and lo > hi:
                problems.append(f"variable {j}: lower bound {rat_str(lo)} > upper bound {rat_str(hi)}")
    return problems


@dataclass(frozen=True)
class Inequality:
    """A linear inequality a.x <= rhs.

    `label` is free text (cut name); `category` an optional tag such as
    the generating cut class.
    """

    coefficients: Vector
    rhs: object
    label: str = ""
    category: str = ""

    def __post_init__(self):
        object.__setattr__(self, "coefficients", vector(self.coefficients))
        object.__setattr__(self, "rhs", rat(self.rhs))

    def __str__(self):
        terms = " + ".join(
            f"{rat_str(c)}*x{j}" for j, c in enumerate(self.coefficients) if c != 0
        )
        return f"{terms or '0'} <= {rat_str(self.rhs)}"


def normalize_cut(cut: Inequality) -> Inequality:
    """Scale so that max_j |a_j| = 1; a zero or scaled cut comes back itself.

    Scaling by a positive factor preserves the feasible half-space, the
    induced face and validity, so every downstream comparison may assume
    this normal form.
    """
    m = max((abs(c) for c in cut.coefficients), default=rat(0))
    if m in (0, 1):
        return cut
    return dataclasses.replace(
        cut,
        coefficients=tuple(rat(c, m) for c in cut.coefficients),
        rhs=rat(cut.rhs, m),
    )


def evaluate(ineq: Inequality, point: Sequence):
    """Slack a.x - rhs at `point`: <= 0 satisfied, 0 tight, > 0 violated."""
    if len(point) != len(ineq.coefficients):
        raise ValueError(
            f"point has {len(point)} entries, inequality has {len(ineq.coefficients)}"
        )
    return dot(ineq.coefficients, point) - ineq.rhs
