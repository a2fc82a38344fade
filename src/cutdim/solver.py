"""Exact branch and bound for mixed-integer programs.

Every bound is an exact rational, so pruning decisions, the incumbent
and the reported dual bound are never victims of drift.  The search is
deterministic: best-bound node selection with ties broken by depth and
creation order, most-fractional branching with ties broken by variable
index, down branch created before the up branch.

A node means one LP relaxation solved; the root is node 1.  Nodes that
are pruned by bound before their LP is solved are discarded uncounted.
After every counted node the current dual bound (max of primal value and
best open node bound) is appended to a trace, which is what the cut
impact protocol reads at a fixed node budget.

An unbounded root LP does not end the search.  The same loop then looks
for any feasible point with a zero objective, on the same program and
starting again from the root, so the root LP is counted twice (nodes 1
and 2) and the node and time limits bound this search like any other.
Until it finds a point or proves the set empty, the trace reads +inf.

Every LP of a run reads the same rows; only the bounds change from
node to node, and the objective from run to run.  A run therefore
solves one `simplex.LinearProgram` (rows only, plus the phase-one basis
of its root) at each node, for an objective it makes once per run: its
own program, or one handed to it by a caller that solves the same rows
more than once.  An oracle provider owns one for all its queries, so
the root's phase one runs once across them; the impact protocol shares
one across its reference, root relaxation and baseline solves, which
share an objective, so their LPs are solved once between them.
`program_for` is the one way to build a run's program, and the program
is the only holder of its rows: the instance's cached integer view
(`MipInstance.integer_rows`) plus the extra cuts and equations, handed
over in the same (d.a, d.b, d) form.  The incumbent check reads them
off the program, so no row is scaled or stacked again in a run.

Before any node, each extra equation row whose variables are all
integer is read in its scaled ints; when the gcd of d.a does not divide
d.b, the row has no integer solution (Bezout) and the run ends
INFEASIBLE with no node solved.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .linalg import Vector, dot, exact_vector, int_row, int_scale
from .model import MipInstance
from .rational import rat_floor
from .simplex import LinearProgram, LPStatus, solve_lp


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for one solve; its rows are the program's (`program_for`).

    An incumbent seeds the primal bound and must be feasible for the
    run's rows.  Limits of None mean unlimited.
    """

    incumbent: Optional[Sequence] = None
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    best_point: Optional[Vector]  # entries are ints where the LP computed one
    primal_value: object  # rational, or -inf with no incumbent, +inf if unbounded
    dual_bound: object  # rational or +-inf
    node_count: int
    trace: tuple  # ((node index, dual bound at that node), ...)
    ray: Optional[Vector] = None  # coprime ints, a recession direction when UNBOUNDED


@dataclass(order=True)
class _Node:
    sort_key: tuple
    bound: object = field(compare=False)  # parent LP value, +inf at the root
    depth: int = field(compare=False)
    lower: tuple = field(compare=False)
    upper: tuple = field(compare=False)


def _node_key(bound, depth: int, index: int) -> tuple:
    # +inf bounds first, then larger bounds, then shallower, then older
    if bound == math.inf:
        return (0, 0, depth, index)
    return (1, -bound, depth, index)


def solve_mip(
    inst: MipInstance,
    objective: Optional[Sequence] = None,
    options: Optional[SolveOptions] = None,
    program: Optional[LinearProgram] = None,
) -> SolveResult:
    """Maximize `objective` (default: the instance objective) over `inst`.

    `program` (default `program_for(inst)`) must start with the instance's
    rows (ValueError otherwise); its remembered root basis, and the LPs it
    remembers for this objective, are reused.
    """
    options = options or SolveOptions()
    obj = exact_vector(objective) if objective is not None else inst.objective
    if len(obj) != inst.num_vars:
        raise ValueError(
            f"objective has {len(obj)} entries, instance has {inst.num_vars} variables"
        )

    m = inst.num_constraints
    if program is None:
        program = program_for(inst)
    elif program.num_vars != inst.num_vars or program.ineq[:m] != inst.integer_rows:
        raise ValueError("the program was built for another instance")

    primal = -math.inf
    best: Optional[Vector] = None
    if options.incumbent is not None:
        inc = exact_vector(options.incumbent)
        x, den = int_scale(inc)
        if not inst.is_feasible_point(inc) or any(
            dot(a, x) > b * den for a, b, _ in program.ineq[m:]
        ) or any(dot(a, x) != b * den for a, b, _ in program.eq):
            raise ValueError("incumbent is not feasible for this run")
        primal = dot(obj, inc)
        best = inc

    deadline = None
    if options.time_limit is not None:
        deadline = time.monotonic() + options.time_limit

    cost = program.objective(obj)
    heap: list[_Node] = []
    counter = 0
    # node bounds are ints where integral, so no LP solve converts them again
    root = _Node(_node_key(math.inf, 0, counter), math.inf, 0, *inst.integer_bounds)
    if not _gcd_excludes(inst, program):
        heapq.heappush(heap, root)
    node_count = 0
    trace: list[tuple] = []
    dual = math.inf
    status: Optional[SolveStatus] = None
    ray: Optional[Vector] = None
    int_vars = sorted(inst.integer_vars)

    def open_bound():
        if not heap:
            return -math.inf
        return heap[0].bound

    while heap:
        # discard nodes that cannot improve the incumbent; they are not solved
        while heap and heap[0].bound != math.inf and heap[0].bound <= primal:
            heapq.heappop(heap)
        if not heap:
            break
        if deadline is not None and time.monotonic() > deadline:
            status = SolveStatus.TIME_LIMIT
            break
        if options.node_limit is not None and node_count >= options.node_limit:
            status = SolveStatus.NODE_LIMIT
            break

        node = heapq.heappop(heap)
        node_count += 1
        lp = program.solve(cost, node.lower, node.upper)

        if lp.status is LPStatus.UNBOUNDED:
            # Only possible at the root: child regions are subsets.  For
            # rational data the recession cones of the relaxation and of
            # the mixed-integer hull coincide, so any feasible point
            # certifies an unbounded problem.  Search for one with a zero
            # objective from a fresh root; the first point found ends it.
            ray = tuple(int_row(lp.ray))
            cost = program.objective((0,) * inst.num_vars)
            primal, best = -math.inf, None
            heapq.heappush(heap, node)
        elif lp.status is LPStatus.OPTIMAL:
            val, point = lp.value, lp.point
            if val > primal:
                frac_var = _pick_branch_variable(point, int_vars)
                if frac_var is None:
                    primal = val
                    best = point
                else:
                    fl = rat_floor(point[frac_var])
                    child_depth = node.depth + 1
                    counter += 1
                    down = _replace_bound(node, frac_var, upper=fl)
                    heapq.heappush(
                        heap, _Node(_node_key(val, child_depth, counter), val, child_depth, *down)
                    )
                    counter += 1
                    up = _replace_bound(node, frac_var, lower=fl + 1)
                    heapq.heappush(
                        heap, _Node(_node_key(val, child_depth, counter), val, child_depth, *up)
                    )

        dual = max(primal, open_bound())
        if ray is not None and dual != -math.inf:
            dual = math.inf  # unbounded unless the search proves P empty
        trace.append((node_count, dual))

    if status is None:
        if best is None:
            status, dual = SolveStatus.INFEASIBLE, -math.inf
        elif ray is not None:
            status, primal, dual = SolveStatus.UNBOUNDED, math.inf, math.inf
        else:
            status, dual = SolveStatus.OPTIMAL, primal

    return SolveResult(
        status=status,
        best_point=best,
        primal_value=primal,
        dual_bound=dual,
        node_count=node_count,
        trace=tuple(trace),
        ray=ray if status is SolveStatus.UNBOUNDED else None,
    )


def _gcd_excludes(inst: MipInstance, program: LinearProgram) -> bool:
    """True when an equation row on integer variables only has no integer
    solution: the gcd of its scaled coefficients d.a does not divide its
    scaled right-hand side d.b.  Zero rows are left to the LP."""
    for ints, b, _ in program.eq:
        g = math.gcd(*ints)
        if g and b % g and all(j in inst.integer_vars for j, v in enumerate(ints) if v):
            return True
    return False


def _pick_branch_variable(point, int_vars) -> Optional[int]:
    """Most fractional integer variable, ties to the smallest index."""
    scores = [(min(f, 1 - f), -j) for j in int_vars if (f := point[j] % 1)]
    return -max(scores)[1] if scores else None


def _replace_bound(node: _Node, j: int, lower=None, upper=None):
    lo = list(node.lower)
    hi = list(node.upper)
    if lower is not None:
        lo[j] = lower
    if upper is not None:
        hi[j] = upper
    return tuple(lo), tuple(hi)


def program_for(inst: MipInstance, cuts: Sequence = (), equations: Sequence = ()) -> LinearProgram:
    """The program every LP of a run on `inst` solves: the instance's
    rows plus the extra `cuts` (a.x <= b), and the extra `equations`
    (a.x = b), each a (d.a, d.b, d) triple (`linalg.scaled_row`)."""
    return LinearProgram(inst.num_vars, inst.integer_rows + tuple(cuts), equations)


def solve_lp_relaxation(inst: MipInstance, program: Optional[LinearProgram] = None):
    """LP relaxation of the instance, integrality dropped.

    With `program` (`program_for(inst)`, no extra rows) this is its root
    LP under the instance objective, remembered if a run on it has
    solved that already.
    """
    if program is None:
        return solve_lp(
            inst.objective, inst.constraint_matrix, inst.rhs,
            lower=inst.lower_bounds, upper=inst.upper_bounds,
        )
    if program.ineq != inst.integer_rows or program.eq:
        raise ValueError("the program was built for other rows")
    return program.solve(program.objective(inst.objective), inst.lower_bounds, inst.upper_bounds)
