"""Optimization oracles.

The dimension algorithm only ever talks to an oracle: give it a
direction w, get back either a maximizer, an unboundedness certificate
(an improving ray and, always, a feasible witness point), or
infeasibility, so every answer but infeasibility names a point of the
set.  A query may also carry a bar, a value: it then asks only for a
point x of the set with w.x > bar.  Its answers are such a point
(`Above`, not necessarily a maximizer), an unboundedness certificate,
or `Infeasible`: the set {x : w.x > bar} holds no point, so max w.x is
at most the bar.  Two providers implement
that contract, one backed by the exact branch-and-bound solver and one
by explicit lattice enumeration (small instances; it doubles as the
reference implementation in tests).  The lattice engine's arithmetic
is on Python ints: its points are integer tuples, enumeration keeps the
box points that meet the instance's integer rows
(`MipInstance.integer_rows`), scans scale their direction to ints once,
and a restricted provider holds each face equation in the same
(d.a, d.b, d) form as the instance's rows.  Enumeration, scans and
restrictions take their int dot products a whole coordinate column at
a time (`linalg.column_dots`), never a point at a time; the response
checks take them per point.  Points, rays and values follow the one
rule of `rational` in both engines (an int where integral), and a
query's int entries pass through unchanged.

The solver engine's provider owns its compiled LP (`solver.program_for`):
rows only, no objective, plus the phase-one starts of its root and of
the latest other bound vectors.  The provider's feasible set is fixed
and only the direction changes from query to query, so the phase one
of the root, which every query's branch and bound solves first, runs
once across all its queries, and so does that of a node that queries
solve again soon.
`restrict` compiles one for the face whose equation rows are the
provider's own `equations` tuple.  `make_provider` picks the engine by
name and returns what that engine's constructor builds.

A query's answer is a function of the provider, w and the bar alone, and a
query sets no attribute of the provider; only the solver program's memo
of its phase-one starts fills in, and it moves no answer.  The points
seen so far are kept by the hull run that asks the queries
(`hull.affine_hull`), not here.

With `verify` on (the default), every response is checked exactly, once
(its point or witness lies in the provider's set, objective value, a
point strictly above the bar, ray directions), before the caller sees
it; a failed check raises
OracleSoundnessError rather than letting a wrong point silently corrupt
a dimension.
"""

from __future__ import annotations

import copy
import itertools
import math
import operator
from dataclasses import dataclass
from functools import partial, reduce
from typing import Optional, Sequence, Union

from .config import RunConfig
from .linalg import Vector, column_dots, dot, exact_vector, int_scale, scaled_row
from .model import MipInstance
from .rational import exact, rat
from .solver import SolveOptions, SolveStatus, program_for, solve_mip

MAX_LATTICE_POINTS = 10**6


class OracleError(RuntimeError):
    pass


class OracleSoundnessError(OracleError):
    """An oracle response failed exact verification: a solver bug."""


class OracleInconclusive(OracleError):
    """The oracle hit its node or time limit before reaching a proof."""

    def __init__(self, message: str, status: Optional[SolveStatus] = None):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class Optimal:
    point: Vector  # entries are ints where the engine computed one
    value: object


@dataclass(frozen=True)
class Above:
    """A point of the set whose value w.x lies strictly above the query's bar."""

    point: Vector  # entries are ints where the engine computed one
    value: object


@dataclass(frozen=True)
class Unbounded:
    """Certificate that w is unbounded: a ray improving w and a feasible witness."""

    ray: Vector
    witness: Vector


@dataclass(frozen=True)
class Infeasible:
    pass


OracleResponse = Union[Optimal, Above, Unbounded, Infeasible]


def oracle_maximize(provider, w: Sequence, bar=None) -> OracleResponse:
    """One oracle query: maximize w over the provider's feasible set, or,
    with a `bar` value, find a point of it with w.x > bar (`Above`;
    `Infeasible` when none exists).

    Validates the direction and verifies the response when enabled; the
    provider is left as it was.
    """
    w = exact_vector(w)
    if len(w) != provider.n:
        raise OracleError(f"direction has {len(w)} entries, oracle expects {provider.n}")
    if bar is not None:
        bar = exact(bar)
    response = provider.solve(w, bar)
    if provider.verify:
        _verify_response(provider, w, response, bar)
    return response


def _in_set(provider, point) -> bool:
    """True when `point` lies in the provider's feasible set: feasible for
    its instance and on every face equation it is restricted to."""
    return provider.instance.is_feasible_point(point) and all(
        dot(ints, point) == target for ints, target, _ in provider.equations
    )


def _verify_response(provider, w, response, bar) -> None:
    inst = provider.instance
    if isinstance(response, Infeasible):
        return
    if isinstance(response, (Optimal, Above)):
        if not _in_set(provider, response.point):
            raise OracleSoundnessError("answered point violates the instance or its face")
        if dot(w, response.point) != response.value:
            raise OracleSoundnessError("reported value disagrees with the point")
        if bar is not None and not response.value > bar:
            raise OracleSoundnessError("answered point is not above the bar")
        return
    ray, witness = response.ray, response.witness
    if all(v == 0 for v in ray):
        raise OracleSoundnessError("unbounded response with a zero ray")
    if dot(w, ray) <= 0:
        raise OracleSoundnessError("ray does not improve the objective")
    for ints, _, _ in inst.integer_rows:
        if dot(ints, ray) > 0:
            raise OracleSoundnessError("ray leaves the constraint rows")
    for j in range(inst.num_vars):
        if inst.lower_bounds[j] is not None and ray[j] < 0:
            raise OracleSoundnessError("ray leaves a lower bound")
        if inst.upper_bounds[j] is not None and ray[j] > 0:
            raise OracleSoundnessError("ray leaves an upper bound")
    for ints, _, _ in provider.equations:
        if dot(ints, ray) != 0:
            raise OracleSoundnessError("ray leaves the face hyperplane")
    if not _in_set(provider, witness):
        raise OracleSoundnessError("unbounded witness is infeasible for the instance or its face")


class _Provider:
    """What both providers share.

    A provider holds its instance, the face equations it is restricted
    to (each as the (d.a, d.b, d) row `scaled_row` gives) and its verify
    switch.  `restrict` returns a shallow copy, so the instance, limits
    and switch carry over unchanged.
    """

    instance: MipInstance
    verify: bool
    equations: tuple = ()

    @property
    def n(self) -> int:
        return self.instance.num_vars

    def restrict(self, coefficients: Sequence, beta):
        """The same provider on the hyperplane a.x = beta, the row held
        as (d.a, d.b, d) (`scaled_row`)."""
        clone = copy.copy(self)
        clone.equations = self.equations + (scaled_row(coefficients, beta),)
        return clone


class MipOracle(_Provider):
    """Oracle backed by the exact branch-and-bound solver.

    The provider owns its program (`solver.program_for`): its rows are
    compiled once, and every query solves them under its own direction,
    so the root's phase one runs once across the queries, and that of a
    node they solve again soon runs once too.  `restrict`
    compiles one for the face, whose equation rows are the provider's
    own `equations` tuple.

    Queries prune by the objective grid (`SolveOptions.objective_grid`):
    a query's answer is its status, point, value and ray, which the rule
    never moves, and no query's trace is read, so only its node count
    falls.  A query's bar is the run's cutoff (`solve_mip`).
    """

    def __init__(
        self,
        instance: MipInstance,
        time_limit: Optional[float] = RunConfig.solve_time_limit,
        node_limit: Optional[int] = RunConfig.solve_node_limit,
        verify: bool = RunConfig.verify_oracle,
    ):
        self.instance = instance
        self.verify = verify
        self.options = SolveOptions(
            time_limit=time_limit, node_limit=node_limit, objective_grid=True
        )
        self.program = program_for(instance)

    def restrict(self, coefficients: Sequence, beta) -> "MipOracle":
        clone = super().restrict(coefficients, beta)
        clone.program = program_for(self.instance, equations=clone.equations)
        return clone

    def solve(self, w: Vector, bar=None) -> OracleResponse:
        result = solve_mip(
            self.instance, objective=w, options=self.options, program=self.program, cutoff=bar
        )
        if result.status is SolveStatus.OPTIMAL:
            return Optimal(result.best_point, result.primal_value)
        if result.status is SolveStatus.FEASIBLE:
            return Above(result.best_point, result.primal_value)
        if result.status is SolveStatus.INFEASIBLE:
            return Infeasible()
        if result.status is SolveStatus.UNBOUNDED:
            return Unbounded(result.ray, result.best_point)
        raise OracleInconclusive(
            f"solver stopped at {result.status.value} after {result.node_count} nodes",
            status=result.status,
        )


class BruteForceOracle(_Provider):
    """Oracle by explicit lattice enumeration.

    Only for pure-integer instances whose bounding box holds at most
    MAX_LATTICE_POINTS points; the feasible set is enumerated once, as
    tuples of ints in lexicographic order (`points`), and also held as
    coordinate columns (`columns`).  A query scales w to ints once and
    takes every point's value in whole-column passes (`column_dots`);
    the first maximal point wins, and against a bar it is the answer
    when it lies above the bar.  Restricted copies take the equation's
    values the same way and keep the points, and the columns, on it;
    they never enumerate again.
    """

    def __init__(
        self,
        instance: MipInstance,
        verify: bool = RunConfig.verify_oracle,
    ):
        self.instance = instance
        self.verify = verify
        self.points = tuple(enumerate_lattice(instance))
        self.columns = tuple(zip(*self.points)) or ((),) * self.n

    def restrict(self, coefficients: Sequence, beta) -> "BruteForceOracle":
        clone = super().restrict(coefficients, beta)
        ints, target, _ = clone.equations[-1]
        values = column_dots(ints, self.columns, len(self.points))
        on_face = list(map(target.__eq__, values))
        clone.points = tuple(itertools.compress(self.points, on_face))
        clone.columns = tuple(tuple(itertools.compress(col, on_face)) for col in self.columns)
        return clone

    def solve(self, w: Vector, bar=None) -> OracleResponse:
        if not self.points:
            return Infeasible()
        ints, den = int_scale(w)
        values = column_dots(ints, self.columns, len(self.points))
        best = max(values)
        point, value = self.points[values.index(best)], exact(rat(best, den))  # the first maximal
        if bar is None:
            return Optimal(point, value)
        return Above(point, value) if value > bar else Infeasible()


def make_provider(
    inst: MipInstance,
    engine: str = RunConfig.engine,
    *,
    verify: bool = RunConfig.verify_oracle,
    time_limit: Optional[float] = RunConfig.solve_time_limit,
    node_limit: Optional[int] = RunConfig.solve_node_limit,
):
    """The provider for `engine` ("solver" or "lattice"), as its
    constructor builds it.

    `verify` switches the response checks.  The limits bound each solver
    query; lattice scans ignore them.
    """
    if engine == "solver":
        return MipOracle(inst, time_limit=time_limit, node_limit=node_limit, verify=verify)
    if engine == "lattice":
        return BruteForceOracle(inst, verify=verify)
    raise ValueError(f"unknown engine {engine!r}")


def enumerate_lattice(instance: MipInstance) -> list[tuple]:
    """All feasible points of a boxed pure-integer instance, lex order.

    Points are tuples of ints.  The box of coordinates 2..n, the slab,
    is built once, as points and as columns, and each of the instance's
    integer rows a.x <= b (`MipInstance.integer_rows`) takes its values
    on it once (`column_dots`).  For each value x of coordinate 1 a
    slab point is kept when b - a_1.x >= its value on every row, by
    whole-column comparisons, so only one slab is ever held.
    """
    n = instance.num_vars
    if not instance.is_pure_integer():
        raise ValueError("lattice enumeration needs a pure-integer instance")
    ranges = []
    size = 1
    for j in range(n):
        lo, hi = instance.lower_bounds[j], instance.upper_bounds[j]
        if lo is None or hi is None:
            raise ValueError(f"variable {j} is unbounded; cannot enumerate")
        lo_i, hi_i = math.ceil(lo), math.floor(hi)
        size *= max(0, hi_i - lo_i + 1)
        if size > MAX_LATTICE_POINTS:
            raise ValueError(f"bounding box exceeds {MAX_LATTICE_POINTS} lattice points")
        ranges.append(range(lo_i, hi_i + 1))
    rows = instance.integer_rows
    if not n:
        return [()] if all(b >= 0 for _, b, _ in rows) else []
    if not size:
        return []
    slab = list(itertools.product(*ranges[1:]))
    columns = tuple(zip(*slab))
    values = [column_dots(a[1:], columns, len(slab)) for a, _, _ in rows]
    points = []
    for x in ranges[0]:
        masks = [map((b - a[0] * x).__ge__, v) for (a, b, _), v in zip(rows, values)]
        kept = itertools.compress(slab, reduce(partial(map, operator.and_), masks)) if masks else slab
        points.extend(map((x,).__add__, kept))
    return points
