"""Optimization oracles and the shared point cache.

The dimension algorithm only ever talks to an oracle: give it a
direction w, get back either a maximizer, an unboundedness certificate
(an improving ray and, always, a feasible witness point), or
infeasibility, so every answer but infeasibility names a point of the
set.  Two providers implement
that contract, one backed by the exact branch-and-bound solver and one
by explicit lattice enumeration (small instances; it doubles as the
reference implementation in tests).  The lattice engine's arithmetic
is on Python ints: its points are integer tuples, enumeration tests
them against the instance's integer rows (`MipInstance.integer_rows`),
scans scale their direction to ints once, and a restricted provider
holds each face equation in the same (d.a, d.b, d) form as the
instance's rows; its filters and checks take int dot products.  Points
and rays keep the ints their engine computed, and a query's int entries
pass through unchanged.

The solver engine's provider owns its compiled LP (`solver.program_for`):
rows only, no objective, plus the phase-one basis of its root.  The
provider's feasible set is fixed and only the direction changes from
query to query, so the phase one of the root, which every query's
branch and bound solves first, runs once across all its queries.
`with_cache` copies share the program, and `restrict` compiles one for
the face whose equation rows are the provider's own `equations` tuple.

A provider owns its PointCache: every optimal point it returns is
remembered there, and hull runs probe it, where an affinely independent
point found by an earlier query can stand in for two oracle calls.  A
restricted provider (a face run's) starts its own cache from the
parent's points on the face, so every cached point lies in the feasible
set of the provider that holds it.  `make_provider` builds the provider
for an engine name, cache attached.

With `verify` on (the default), every response is checked exactly, once
(its point or witness lies in the provider's set, objective value, ray
directions), before its point reaches the cache; a failed check raises
OracleSoundnessError rather than letting a wrong point silently corrupt
a dimension.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .config import RunConfig
from .linalg import Vector, dot, exact_vector, int_scale, scaled_row, vector
from .model import MipInstance
from .rational import rat
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
class Unbounded:
    """Certificate that w is unbounded: a ray improving w and a feasible witness."""

    ray: Vector
    witness: Vector


@dataclass(frozen=True)
class Infeasible:
    pass


OracleResponse = Union[Optimal, Unbounded, Infeasible]


class PointCache:
    """Feasible points seen so far, in first-seen order.

    Thread safe; `points()` returns an immutable snapshot.  The cache
    checks nothing: `oracle_maximize`, its one writer, verifies each
    point before inserting it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._points: list[Vector] = []
        self._seen: set[Vector] = set()

    def add(self, point: Sequence) -> bool:
        """Insert a point; returns True when it was new."""
        pt = tuple(point)
        with self._lock:
            if pt in self._seen:
                return False
            self._seen.add(pt)
            self._points.append(pt)
            return True

    def points(self) -> tuple:
        with self._lock:
            return tuple(self._points)

    def filtered(self, keep) -> "PointCache":
        """Independent copy of the points that pass `keep`, in order."""
        clone = PointCache()
        clone._points = [p for p in self.points() if keep(p)]
        clone._seen = set(clone._points)
        return clone

    def snapshot(self) -> "PointCache":
        """Independent copy: later inserts into either one stay private."""
        return self.filtered(lambda p: True)

    def __len__(self) -> int:
        with self._lock:
            return len(self._points)


def cache_probe(cache: PointCache, d: Sequence, gamma):
    """The first cached point whose d-value differs from gamma, or None."""
    for p in cache.points():
        if dot(d, p) != gamma:
            return p
    return None


def oracle_maximize(provider, w: Sequence) -> OracleResponse:
    """One oracle query: maximize w over the provider's feasible set.

    Validates the direction, verifies the response when enabled, and
    feeds optimal points and unbounded witnesses into the provider's
    cache.  All query accounting goes through here.
    """
    w = exact_vector(w)
    if len(w) != provider.n:
        raise OracleError(f"direction has {len(w)} entries, oracle expects {provider.n}")
    response = provider.solve(w)
    if provider.verify:
        _verify_response(provider, w, response)
    if provider.cache is not None and not isinstance(response, Infeasible):
        provider.cache.add(response.point if isinstance(response, Optimal) else response.witness)
    provider.query_count += 1
    return response


def _in_set(provider, point) -> bool:
    """True when `point` lies in the provider's feasible set: feasible for
    its instance and on every face equation it is restricted to."""
    return provider.instance.is_feasible_point(point) and all(
        dot(ints, point) == target for ints, target, _ in provider.equations
    )


def _verify_response(provider, w, response) -> None:
    inst = provider.instance
    if isinstance(response, Infeasible):
        return
    if isinstance(response, Optimal):
        if not _in_set(provider, response.point):
            raise OracleSoundnessError("optimal point violates the instance or its face")
        if dot(w, response.point) != response.value:
            raise OracleSoundnessError("reported value disagrees with the point")
        return
    ray, witness = response.ray, response.witness
    if all(v == 0 for v in ray):
        raise OracleSoundnessError("unbounded response with a zero ray")
    if dot(w, ray) <= 0:
        raise OracleSoundnessError("ray does not improve the objective")
    for row in inst.constraint_matrix:
        if dot(row, ray) > 0:
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


def _on_hyperplane(row):
    """The test a.x == beta, by which a restricted provider keeps points.

    The row is held as (d.a, d.b, d) (`scaled_row`) and a point p kept
    when (d.a).p == d.beta, an int dot product on lattice points.
    """
    ints, target, _ = row
    return lambda p: dot(ints, p) == target


class _Provider:
    """What both providers share.

    A provider holds its instance, the face equations it is restricted
    to (each as the (d.a, d.b, d) row `scaled_row` gives), its cache
    (None for a cold provider), its verify switch and its own query
    count.  `restrict` and `with_cache` return shallow copies, so the
    instance, limits and switch carry over unchanged.
    """

    instance: MipInstance
    cache: Optional[PointCache]
    verify: bool
    equations: tuple = ()
    query_count: int = 0

    @property
    def n(self) -> int:
        return self.instance.num_vars

    def with_cache(self, cache: Optional[PointCache]):
        """The same provider feeding and probing `cache` instead."""
        clone = copy.copy(self)
        clone.cache = cache
        clone.query_count = 0
        return clone

    def restrict(self, coefficients: Sequence, beta):
        """The same provider on the hyperplane a.x = beta.

        Its cache starts with the parent's cached points on the
        hyperplane and keeps its own inserts; a cold provider stays cold.
        """
        row = scaled_row(vector(coefficients), rat(beta))
        clone = self.with_cache(
            None if self.cache is None else self.cache.filtered(_on_hyperplane(row))
        )
        clone.equations = self.equations + (row,)
        return clone


class MipOracle(_Provider):
    """Oracle backed by the exact branch-and-bound solver.

    The provider owns its program (`solver.program_for`): its rows are
    compiled once, and every query solves them under its own direction,
    so the root's phase one runs once across the queries.  `with_cache`
    copies share the program; `restrict` compiles one for the face, whose
    equation rows are the provider's own `equations` tuple.
    """

    def __init__(
        self,
        instance: MipInstance,
        cache: Optional[PointCache] = None,
        time_limit: Optional[float] = RunConfig.solve_time_limit,
        node_limit: Optional[int] = RunConfig.solve_node_limit,
        verify: bool = RunConfig.verify_oracle,
    ):
        self.instance = instance
        self.cache = cache
        self.verify = verify
        self.options = SolveOptions(time_limit=time_limit, node_limit=node_limit)
        self.program = program_for(instance)

    @property
    def time_limit(self) -> Optional[float]:
        return self.options.time_limit

    @property
    def node_limit(self) -> Optional[int]:
        return self.options.node_limit

    def restrict(self, coefficients: Sequence, beta) -> "MipOracle":
        clone = super().restrict(coefficients, beta)
        clone.program = program_for(self.instance, equations=clone.equations)
        return clone

    def solve(self, w: Vector) -> OracleResponse:
        result = solve_mip(self.instance, objective=w, options=self.options, program=self.program)
        if result.status is SolveStatus.OPTIMAL:
            return Optimal(result.best_point, result.primal_value)
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
    tuples of ints, and every query is an exact argmax scan in
    lexicographic point order.  A scan scales w to ints once and takes
    int dot products; the first maximal point wins.  Restricted copies
    filter the enumerated points with int dot products, never redo them.
    """

    def __init__(
        self,
        instance: MipInstance,
        cache: Optional[PointCache] = None,
        verify: bool = RunConfig.verify_oracle,
    ):
        self.instance = instance
        self.cache = cache
        self.verify = verify
        self.points = tuple(enumerate_lattice(instance))

    def restrict(self, coefficients: Sequence, beta) -> "BruteForceOracle":
        clone = super().restrict(coefficients, beta)
        clone.points = tuple(filter(_on_hyperplane(clone.equations[-1]), self.points))
        return clone

    def solve(self, w: Vector) -> OracleResponse:
        if not self.points:
            return Infeasible()
        ints, den = int_scale(w)
        p = max(self.points, key=functools.partial(dot, ints))  # the first maximal point
        return Optimal(p, rat(dot(ints, p), den))


def make_provider(
    inst: MipInstance,
    engine: str = RunConfig.engine,
    *,
    verify: bool = RunConfig.verify_oracle,
    time_limit: Optional[float] = RunConfig.solve_time_limit,
    node_limit: Optional[int] = RunConfig.solve_node_limit,
):
    """The provider for `engine` ("solver" or "lattice") with a fresh cache.

    `verify` switches the response checks.  The limits bound each solver
    query; lattice scans ignore them.  For a cold provider, call
    `.with_cache(None)` on the result.
    """
    cache = PointCache()
    if engine == "solver":
        return MipOracle(
            inst, cache=cache, time_limit=time_limit, node_limit=node_limit, verify=verify
        )
    if engine == "lattice":
        return BruteForceOracle(inst, cache=cache, verify=verify)
    raise ValueError(f"unknown engine {engine!r}")


def enumerate_lattice(instance: MipInstance) -> list[tuple]:
    """All feasible points of a boxed pure-integer instance, lex order.

    Points are tuples of ints, each box point tested against the
    instance's integer rows with int dot products.
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
        lo_i = int(math.ceil(rat(lo)))
        hi_i = int(math.floor(rat(hi)))
        size *= max(0, hi_i - lo_i + 1)
        if size > MAX_LATTICE_POINTS:
            raise ValueError(f"bounding box exceeds {MAX_LATTICE_POINTS} lattice points")
        ranges.append(range(lo_i, hi_i + 1))
    rows = instance.integer_rows
    return [
        pt
        for pt in itertools.product(*ranges)
        if all(dot(a, pt) <= b for a, b, _ in rows)
    ]
