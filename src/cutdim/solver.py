"""Exact branch and bound for mixed-integer programs.

Every bound is an exact rational, so pruning decisions, the incumbent
and the reported dual bound are never victims of drift.  The search is
deterministic: best-bound node selection with ties broken by depth and
creation order, most-fractional branching with ties broken by variable
index, down branch created before the up branch.

A node means one node popped from the queue; the root is node 1.  Nodes
whose parent's LP value is dominated by the primal value (below) are
discarded uncounted.  After every counted node the current dual bound
(max of primal value and best open node bound) is appended to a trace,
which is what the cut impact protocol reads at a fixed node budget.

A counted node's LP is solved unless its own bound is at or below the
primal value, by the plain test and never the grid.  That bound is a
number read at the branching from the parent's final tableau
(`simplex.branch_bounds`, the one-step penalty), -inf for a child that
is infeasible: such an LP is infeasible or its value is at most the
primal value, so it would push nothing.  The node is counted and traced
as if it had been solved, so skipping its LP moves no status, point,
value, ray, node count or trace.

A node is pruned when its bound (its parent's LP value) is at most the
primal value, so it cannot improve the incumbent.  With
`SolveOptions.objective_grid` on, it is also pruned when that bound,
rounded down to the objective's grid, is at most the primal value.  The
grid exists when the objective c = ints / den is zero on every
continuous variable: then every feasible value is a multiple of g/den,
g = gcd(ints), and such a node holds no point above the incumbent
(Achterberg, *Constraint Integer Programming*, 2007).  The incumbent
changes only on a strict improvement, so the rule moves no status,
point, value or ray.  It only solves fewer nodes, which moves the node
count and the trace, so runs whose trace is read keep it off.

A run with a `cutoff` asks only whether some point lies strictly above
that value.  Its primal bound starts at the cutoff with no incumbent
point, so nodes are pruned, and grid-pruned where the grid exists, by
the cutoff; the first integer point found ends the run as FEASIBLE,
and a search that finds none ends INFEASIBLE: no point of the set lies
above the cutoff.  Oracle queries against a bar (`oracle`) are such
runs.

An unbounded root LP does not end the search.  The same loop then looks
for any feasible point with a zero objective, on the same program and
starting again from the root, so the root LP is counted twice (nodes 1
and 2) and the node and time limits bound this search like any other.
Until it finds a point or proves the set empty, the trace reads +inf.

Every LP of a run reads the same rows; only the bounds change from
node to node, and the objective from run to run.  A run therefore
solves one `simplex.LinearProgram` (rows, plus the phase-one starts of
its root and of the latest other bound vectors, and the latest
objective's results and child bounds) at each node it solves, passing the
same objective tuple every time: its own program, or one handed to it
by a caller that solves the same rows more than once.  An oracle
provider owns one for all its queries, so the root's phase one runs
once across them, and a node that a recent query solved too starts from
its phase one; the impact protocol shares one across its reference,
root relaxation and baseline solves, which share an objective, so their
LPs are solved once between them, and a baseline node whose parent the
reference solve solved reads the bound that parent's tableau gave it.
`program_for` is the one way to build a run's program, and the program
is the only holder of its rows: the instance's cached integer view
(`MipInstance.integer_rows`) plus the extra cuts and equations, handed
over in the same (d.a, d.b, d) form.  The incumbent check reads them
off the program, so no row is scaled or stacked again in a run.

Before any node, two exact tests can end a run INFEASIBLE with no node
solved and an empty trace.  A cutoff run first takes the maximum of
the objective over the instance's bounds box, B = sum over j of
max(c_j.l_j, c_j.u_j), which needs only the bound each nonzero c_j
points at; when one is absent there is no B.  Every point of the set
lies in the box, so when B is at most the cutoff, or its grid floor is
where the grid exists (`_dominated`), no point lies above the cutoff.
That settles a bar query whose bar already sits at the box's edge, as a
hull round along a unit direction does when X's first point is at that
variable's bound, before the run sets anything up.  Then each extra
equation row whose variables are all integer is read in its scaled
ints; when the gcd of d.a does not divide d.b, the row has no integer
solution (Bezout).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .linalg import Vector, dot, exact_vector, int_row, int_scale
from .model import MipInstance
from .rational import exact
from .simplex import LinearProgram, LPStatus, solve_lp


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # a cutoff run's point above the cutoff, not proven optimal
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for one solve; its rows are the program's (`program_for`).

    An incumbent seeds the primal bound and must be feasible for the
    run's rows.  Limits of None mean unlimited.  `objective_grid` prunes
    nodes by the objective's grid (module docstring); it is inert when
    a continuous variable has a nonzero objective entry, and it changes
    only node counts and the trace, never the answer.
    """

    incumbent: Optional[Sequence] = None
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None
    objective_grid: bool = False


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    best_point: Optional[Vector]  # entries are ints where the LP computed one
    # best_point's value, or a cutoff run's cutoff at a limit; -inf with no point, +inf if unbounded
    primal_value: object
    dual_bound: object  # rational or +-inf
    node_count: int
    trace: tuple  # ((node index, dual bound at that node), ...)
    ray: Optional[Vector] = None  # coprime ints, a recession direction when UNBOUNDED


def solve_mip(
    inst: MipInstance,
    objective: Optional[Sequence] = None,
    options: Optional[SolveOptions] = None,
    program: Optional[LinearProgram] = None,
    cutoff=None,
) -> SolveResult:
    """Maximize `objective` (default: the instance objective) over `inst`.

    `program` (default `program_for(inst)`) must start with the instance's
    rows (ValueError otherwise); its remembered phase-one starts, and the
    LPs it remembers for this objective, are reused.  With a `cutoff` value, the
    run stops at the first point above it (module docstring); it takes no
    incumbent.
    """
    options = options or SolveOptions()
    if cutoff is not None and options.incumbent is not None:
        raise ValueError("a run takes an incumbent or a cutoff, not both")
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

    grid = _grid(inst, obj) if options.objective_grid else None
    if cutoff is not None:
        primal = exact(cutoff)
        top = _box_max(inst, obj)
        if top is not None and _dominated(top, primal, grid):
            # no point of the box, so none of the set, lies above the cutoff
            return SolveResult(SolveStatus.INFEASIBLE, None, -math.inf, -math.inf, 0, ())
    else:
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

    # a node is (rank, -bound, depth, index, bound, lower, upper, own):
    # the root alone has rank 0, bound +inf and no own bound, a child
    # holds its parent's LP value as `bound` and the one its parent's
    # tableau gave it as `own` (None: no bound), and the index is
    # unique, so the heap orders by the key of the module docstring and
    # never compares past it
    heap: list[tuple] = []
    counter = 0
    if not _gcd_excludes(inst, program):
        # the instance's bounds are ints where integral, so no LP solve converts them
        heap.append((0, 0, 0, 0, math.inf, inst.lower_bounds, inst.upper_bounds, None))
    node_count = 0
    trace: list[tuple] = []
    dual = math.inf
    status: Optional[SolveStatus] = None
    ray: Optional[Vector] = None

    while heap:
        # discard nodes that cannot improve the incumbent; they are not solved
        while heap and heap[0][0] and _dominated(heap[0][4], primal, grid):
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
        _, _, depth, _, _, lower, upper, own = node
        node_count += 1
        if own is not None and own <= primal:
            pass  # its LP would push nothing, so it is not solved
        elif (lp := program.solve(obj, lower, upper)).status is LPStatus.UNBOUNDED:
            # Only possible at the root: child regions are subsets.  For
            # rational data the recession cones of the relaxation and of
            # the mixed-integer hull coincide, so any feasible point
            # certifies an unbounded problem.  Search for one with a zero
            # objective from a fresh root; the first point found ends it.
            ray = tuple(int_row(lp.ray))
            obj = (0,) * inst.num_vars
            grid = _grid(inst, obj) if options.objective_grid else None
            primal, best = -math.inf, None
            heapq.heappush(heap, node)
        elif lp.status is LPStatus.OPTIMAL:
            val, point = lp.value, lp.point
            if val > primal:
                frac_var = _pick_branch_variable(point, inst.integer_vars)
                if frac_var is None:
                    primal = val
                    best = point
                else:
                    fl = math.floor(point[frac_var])
                    hi = list(upper)
                    hi[frac_var] = fl
                    lo = list(lower)
                    lo[frac_var] = fl + 1
                    depth += 1  # the down branch, x_j <= fl, is created first
                    down, up = program.child_bounds(frac_var) or (None, None)
                    heapq.heappush(heap, (1, -val, depth, counter + 1, val, lower, tuple(hi), down))
                    heapq.heappush(heap, (1, -val, depth, counter + 2, val, tuple(lo), upper, up))
                    counter += 2

        dual = max(primal, heap[0][4] if heap else -math.inf)
        if ray is not None and dual != -math.inf:
            dual = math.inf  # unbounded unless the search proves P empty
        trace.append((node_count, dual))
        if cutoff is not None and best is not None:
            break  # a point above the cutoff, or an unbounded run's point

    if status is None:
        if best is None:
            status, primal, dual = SolveStatus.INFEASIBLE, -math.inf, -math.inf
        elif ray is not None:
            status, primal, dual = SolveStatus.UNBOUNDED, math.inf, math.inf
        elif cutoff is not None:
            status = SolveStatus.FEASIBLE
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


def _box_max(inst: MipInstance, objective):
    """max objective.x over the instance's bounds box: the sum over j of
    max(c_j.l_j, c_j.u_j), each term read from the one bound it needs;
    None when a nonzero c_j needs an absent bound.  An int or a rational,
    never +inf, so `_dominated` can read it."""
    top = 0
    for c, lo, hi in zip(objective, inst.lower_bounds, inst.upper_bounds):
        if c:
            bound = hi if c > 0 else lo
            if bound is None:
                return None
            top += c * bound
    return top


def _grid(inst: MipInstance, objective) -> Optional[tuple]:
    """(g, den) when every value of the objective c = ints / den on the
    run's points is a multiple of g/den, g = gcd(ints): c is zero on
    every continuous variable and nonzero somewhere.  None otherwise."""
    ints, den = int_scale(objective)
    if not inst.is_pure_integer() and any(
        v and j not in inst.integer_vars for j, v in enumerate(ints)
    ):
        return None
    g = math.gcd(*ints)
    return (g, den) if g else None


def _dominated(bound, primal, grid) -> bool:
    """True when a node with LP bound `bound` holds no point above
    `primal`: bound <= primal, or, on the grid (g, den), the bound's grid
    floor, floor(bound.den/g).g, is at most primal.den.  That int is at
    most the rational primal.den exactly when it is at most its floor, so
    the test is exact for a cutoff off the grid too; a point's value is
    on it."""
    if grid is None or primal == -math.inf:
        return bound <= primal
    g, den = grid
    return (bound.numerator * den) // (bound.denominator * g) * g <= (
        primal.numerator * den // primal.denominator
    )


def _pick_branch_variable(point, int_vars) -> Optional[int]:
    """Most fractional integer variable, ties to the smallest index, so
    the order of `int_vars` does not matter.  An int entry is integral
    (`rational.exact`) and is skipped untested.  A rational p/q scores
    min(r, q - r)/q with r = p mod q, and scores are compared by
    cross-multiplying ints, so no rational is built; r = 0 (an integral
    rational) is skipped."""
    best, top, den = None, 0, 1  # the best score so far is top/den
    for j in int_vars:
        v = point[j]
        if type(v) is int:
            continue
        q = v.denominator
        r = v.numerator % q
        if r:
            s = min(r, q - r)
            gain = s * den - top * q
            if gain > 0 or (gain == 0 and j < best):
                best, top, den = j, s, q
    return best


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
    return program.solve(inst.objective, inst.lower_bounds, inst.upper_bounds)
