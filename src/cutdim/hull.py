"""Affine hull dimension from an optimization oracle.

The algorithm maintains a set X of affinely independent feasible points
and a system D.x = e of independent equations valid for the feasible
set P.  Each round picks a direction d orthogonal to aff(X) and outside
the row span of D, then maximizes d and -d over P.  While X is empty,
the first answer seeds it (a maximizer, or an unbounded answer's
witness), and gamma = d.x on X.  Then one chain decides the round: an
unbounded answer supplies witness + t*ray, a point off d.x = gamma;
equal optima prove a new valid equation; distinct optima supply the
one of them off d.x = gamma.  Either way |X| + rows(D) grows, and when
it reaches n + 1 the affine hull is pinned down exactly:

    dim P = |X| - 1,   aff(P) = aff(X) = {x : D.x = e}.

A bounded nonempty run costs exactly 2(n - r0) oracle calls, where r0
is the number of valid equations supplied up front.  The provider's
point cache can substitute for the two calls of a round whenever some
already-known feasible point escapes the current aff(X); a provider
without a cache gives a cold run.

Face dimension runs reuse the machinery unchanged: restrict the oracle
to the face's hyperplane (its cache then holds only points on the face)
and start from the base system plus the face equation.

Directions are coprime ints, and points keep the ints their engine
computed, so the rounds' dot products and checks are int arithmetic.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .config import RunConfig
from .linalg import (
    Matrix,
    Vector,
    dot,
    exact_vector,
    is_in_span,
    orthogonal_complement_basis,
    rank,
    scaled_row,
    vec_add_scaled,
)
from .model import Inequality
from .oracle import (
    Infeasible,
    Optimal,
    OracleInconclusive,
    Unbounded,
    cache_probe,
    oracle_maximize,
)
from .rational import rat, rat_str


class HullError(RuntimeError):
    pass


class InvalidInitialEquationsError(HullError):
    """A feasible point violated an equation that was supplied as valid."""


class HullInterrupted(HullError):
    """Budget ran out mid-run; carries the bracketing interval for dim P."""

    def __init__(self, reason: str, dim_lower: int, dim_upper: int, queries: int):
        super().__init__(
            f"{reason}; dimension is in [{dim_lower}, {dim_upper}] after {queries} queries"
        )
        self.reason = reason
        self.dim_lower = dim_lower
        self.dim_upper = dim_upper
        self.queries = queries


@dataclass(frozen=True)
class EquationSystem:
    """Equations D.x = e with linearly independent rows.

    `rows` and `rhs` are the rational equations that reports render;
    `scaled` holds each as the (d.a, d.b, d) row `scaled_row` gives, so
    `violated_row` takes int dot products on int points.
    """

    rows: Matrix
    rhs: Vector

    @classmethod
    def empty(cls) -> "EquationSystem":
        return cls(rows=(), rhs=())

    def __len__(self) -> int:
        return len(self.rows)

    def with_equation(self, coefficients: Sequence, value) -> "EquationSystem":
        return EquationSystem(
            rows=self.rows + (exact_vector(coefficients),), rhs=self.rhs + (rat(value),)
        )

    @functools.cached_property
    def scaled(self) -> tuple:
        return tuple(scaled_row(row, b) for row, b in zip(self.rows, self.rhs))

    def violated_row(self, point: Sequence) -> Optional[int]:
        for i, (ints, target, _) in enumerate(self.scaled):
            if dot(ints, point) != target:
                return i
        return None

    def render(self) -> list[str]:
        out = []
        for row, b in zip(self.rows, self.rhs):
            terms = " + ".join(
                f"{rat_str(c)}*x{j}" for j, c in enumerate(row) if c != 0
            )
            out.append(f"{terms or '0'} = {rat_str(b)}")
        return out


@dataclass(frozen=True)
class AffineHullResult:
    dimension: int
    points: tuple  # dim + 1 affinely independent feasible points, ints where computed
    equations: EquationSystem
    oracle_queries: int
    cache_hits: int


def select_direction(
    points: Sequence[Vector], equations: EquationSystem, n: int
) -> Optional[Vector]:
    """A direction orthogonal to aff(points) outside span(rows).

    Among the complement basis the sparsest vector is preferred, ties
    broken by lexicographically smallest support, then by entries, so
    runs are reproducible.  Returns None when no direction exists,
    which can only happen with no points and n independent equations.
    """
    pts = list(points)
    diffs = [tuple(p - q for p, q in zip(x, pts[0])) for x in pts[1:]]

    def key(v):
        support = tuple(j for j, c in enumerate(v) if c != 0)
        return (len(support), support, v)

    for v in sorted(orthogonal_complement_basis(diffs, n), key=key):
        if not is_in_span(v, equations.rows):
            return v
    if pts:
        raise AssertionError("no direction left although |X|+rows(D) <= n")
    return None


def escape_from_ray(resp: Unbounded, d: Vector, gamma) -> Vector:
    """The point witness + t*ray, t in {1, 2}, whose d-value is not gamma."""
    # d moves strictly along the ray, so at most one step size lands on gamma
    for t in (1, 2):
        candidate = vec_add_scaled(resp.witness, t, resp.ray)
        if dot(d, candidate) != gamma:
            return candidate
    raise AssertionError("ray failed to escape gamma at t in {1, 2}")


def affine_hull(
    provider,
    initial_equations: Optional[EquationSystem] = None,
    query_budget: Optional[int] = None,
    time_budget: Optional[float] = RunConfig.hull_time_budget,
) -> AffineHullResult:
    """Dimension and affine hull of the provider's feasible set.

    `initial_equations` must be valid for the set and independent; they
    reduce the number of rounds one for one.  The provider's cache, when
    it has one, is probed before each round and a hit replaces both
    oracle calls of the round.  The query budget defaults to the worst
    case of a cold run, 2(n - r0).
    """
    n = provider.n
    eqs = initial_equations if initial_equations is not None else EquationSystem.empty()
    if len(eqs) and rank(eqs.rows) != len(eqs):
        raise ValueError("initial equations must be linearly independent")
    if len(eqs) > n:
        raise ValueError("more independent equations than variables")
    initial_count = len(eqs)
    if query_budget is None:
        query_budget = max(1, 2 * (n - initial_count))
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    cache = provider.cache

    points: list[Vector] = []
    queries = 0
    cache_hits = 0

    def interrupted(reason: str):
        return HullInterrupted(reason, len(points) - 1, n - len(eqs), queries)

    def query(w):
        nonlocal queries
        if queries + 1 > query_budget:
            raise interrupted(f"query budget {query_budget} exhausted")
        if deadline is not None and time.monotonic() > deadline:
            raise interrupted("time budget exhausted")
        queries += 1
        try:
            return oracle_maximize(provider, w)
        except OracleInconclusive as exc:
            raise interrupted(str(exc)) from exc

    def checked_append(point):
        """Every point entering X must satisfy the current equations."""
        bad = eqs.violated_row(point)
        if bad is not None:
            if bad < initial_count:
                raise InvalidInitialEquationsError(
                    f"feasible point {tuple(map(rat_str, point))} violates "
                    f"initial equation {bad}: {eqs.render()[bad]}"
                )
            raise AssertionError("feasible point violates an equation proved this run")
        points.append(point)

    while len(points) + len(eqs) < n + 1:
        if deadline is not None and time.monotonic() > deadline:
            raise interrupted("time budget exhausted")
        d = select_direction(points, eqs, n)

        if d is None:
            # n equations and no point yet: the set is a point or empty
            resp = query((0,) * n)
            if isinstance(resp, Infeasible):
                return AffineHullResult(-1, (), eqs, queries, cache_hits)
            if isinstance(resp, Optimal):
                checked_append(resp.point)
                continue
            raise AssertionError("zero objective cannot be unbounded")

        if cache is not None and len(cache):
            # with no point yet, the first cached point plays points[0]
            first = points[0] if points else cache.points()[0]
            hit = cache_probe(cache, d, gamma=dot(d, first))
            if hit is not None:
                if not points:
                    checked_append(first)
                checked_append(hit)
                cache_hits += 1
                continue

        resp_max = query(d)
        if isinstance(resp_max, Infeasible):
            if points:
                raise AssertionError("oracle reported infeasible after feasible points")
            return AffineHullResult(-1, (), eqs, queries, cache_hits)
        if not points:
            # the first answer seeds X: its point, or the witness of its ray
            checked_append(resp_max.point if isinstance(resp_max, Optimal) else resp_max.witness)
        gamma = dot(d, points[0])
        if isinstance(resp_max, Unbounded):
            checked_append(escape_from_ray(resp_max, d, gamma))
            continue
        resp_min = query(tuple(-c for c in d))
        if isinstance(resp_min, Infeasible):
            raise AssertionError("infeasible after an optimal response")
        if isinstance(resp_min, Unbounded):
            checked_append(escape_from_ray(resp_min, d, gamma))
        elif resp_max.value == -resp_min.value:
            eqs = eqs.with_equation(d, resp_max.value)
        elif dot(d, resp_max.point) != gamma:
            checked_append(resp_max.point)
        else:
            checked_append(resp_min.point)

    return AffineHullResult(len(points) - 1, tuple(points), eqs, queries, cache_hits)


def face_hull(
    provider,
    base: AffineHullResult,
    cut: Inequality,
    time_budget: Optional[float] = RunConfig.face_time_budget,
) -> AffineHullResult:
    """Dimension of the face {x in P : a.x = rhs} of a supporting cut.

    `base` is the affine hull result for P itself; its equations are
    valid on the face and seed the run.  The cut equation is added
    unless its row already lies in the span of the base system.  The
    restricted provider's cache holds only points on the face.
    """
    eqs = base.equations
    if not is_in_span(cut.coefficients, eqs.rows):
        eqs = eqs.with_equation(cut.coefficients, cut.rhs)
    face_provider = provider.restrict(cut.coefficients, cut.rhs)
    return affine_hull(face_provider, initial_equations=eqs, time_budget=time_budget)
