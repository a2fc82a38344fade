"""Affine hull dimension from an optimization oracle.

The algorithm maintains a set X of affinely independent feasible points
and a system D.x = e of independent equations valid for the feasible
set P.  Each round picks a direction d orthogonal to aff(X) and outside
the row span of D, then maximizes d and -d over P.  Equal optima prove
a new valid equation; distinct optima supply a point that leaves
aff(X).  Either way |X| + rows(D) grows, and when it reaches n + 1 the
affine hull is pinned down exactly:

    dim P = |X| - 1,   aff(P) = aff(X) = {x : D.x = e}.

A bounded nonempty run costs exactly 2(n - r0) oracle calls, where r0
is the number of valid equations supplied up front.  The provider's
point cache can substitute for the two calls of a round whenever some
already-known feasible point (for face runs: on the face) escapes the
current aff(X); a provider without a cache gives a cold run.

Face dimension runs reuse the machinery unchanged: restrict the oracle
to the face's hyperplane, start from the base system plus the face
equation, and filter cache probes to points lying on the face.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .linalg import (
    Matrix,
    Vector,
    dot,
    is_in_span,
    orthogonal_complement_basis,
    rank,
    vec_add_scaled,
    vector,
)
from .model import Inequality, evaluate
from .oracle import (
    Infeasible,
    Optimal,
    OracleInconclusive,
    Unbounded,
    cache_probe,
    oracle_maximize,
)
from .rational import rat, rat_str

DEFAULT_TIME_BUDGET = 600.0


class HullError(RuntimeError):
    pass


class InvalidInitialEquationsError(HullError):
    """A feasible point violated an equation that was supplied as valid."""


class HullInterrupted(HullError):
    """Budget ran out mid-run; carries the bracketing interval for dim P."""

    def __init__(self, message: str, dim_lower: int, dim_upper: int, queries: int):
        super().__init__(message)
        self.dim_lower = dim_lower
        self.dim_upper = dim_upper
        self.queries = queries


@dataclass(frozen=True)
class EquationSystem:
    """Equations D.x = e with linearly independent rows."""

    rows: Matrix
    rhs: Vector

    @classmethod
    def empty(cls) -> "EquationSystem":
        return cls(rows=(), rhs=())

    def __len__(self) -> int:
        return len(self.rows)

    def with_equation(self, coefficients: Sequence, value) -> "EquationSystem":
        return EquationSystem(
            rows=self.rows + (vector(coefficients),), rhs=self.rhs + (rat(value),)
        )

    def violated_row(self, point: Sequence) -> Optional[int]:
        for i, (row, b) in enumerate(zip(self.rows, self.rhs)):
            if dot(row, point) != b:
                return i
        return None

    def implies(self, coefficients: Sequence, value) -> bool:
        """True when a.x = value holds on every solution of the system."""
        aug_rows = [row + (b,) for row, b in zip(self.rows, self.rhs)]
        candidate = tuple(vector(coefficients)) + (rat(value),)
        return is_in_span(candidate, aug_rows)

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
    points: tuple  # affinely independent feasible points, |points| = dim + 1
    equations: EquationSystem
    oracle_queries: int
    cache_hits: int

    @property
    def is_empty(self) -> bool:
        return self.dimension < 0


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
    complement = orthogonal_complement_basis(diffs, n)
    eligible = [v for v in complement if not is_in_span(v, equations.rows)]
    if not eligible:
        if pts:
            raise AssertionError("no direction left although |X|+rows(D) <= n")
        return None

    def key(v):
        support = tuple(j for j, c in enumerate(v) if c != 0)
        return (len(support), support, v)

    return min(eligible, key=key)


def affine_hull(
    provider,
    initial_equations: Optional[EquationSystem] = None,
    face: Optional[Inequality] = None,
    query_budget: Optional[int] = None,
    time_budget: Optional[float] = DEFAULT_TIME_BUDGET,
) -> AffineHullResult:
    """Dimension and affine hull of the provider's feasible set.

    `initial_equations` must be valid for the set and independent; they
    reduce the number of rounds one for one.  The provider's cache, when
    it has one, is probed before each round (restricted to `face` if
    set) and a hit replaces both oracle calls of the round.  The query
    budget defaults to the worst case of a cold run, 2(n - r0).
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

    def interval():
        return max(len(points) - 1, -1), n - len(eqs)

    def interrupted(reason: str):
        lo, hi = interval()
        return HullInterrupted(
            f"{reason}; dimension is in [{lo}, {hi}] after {queries} queries",
            dim_lower=lo,
            dim_upper=hi,
            queries=queries,
        )

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
        points.append(vector(point))

    def escape_from_ray(resp: Unbounded, gamma, d):
        """A point of the set with d-value different from gamma."""
        witness = resp.witness
        if witness is None:
            if points:
                witness = points[0]
            elif cache is not None:
                for p in cache.points():
                    if face is None or evaluate(face, p) == 0:
                        witness = p
                        break
        if witness is None:
            w_resp = query(vector([0] * n))
            if not isinstance(w_resp, Optimal):
                raise AssertionError("feasibility probe after an unbounded ray")
            witness = w_resp.point
        # d moves strictly along the ray, so at most one step size lands on gamma
        for t in (1, 2):
            candidate = vec_add_scaled(witness, t, resp.ray)
            if gamma is None or dot(d, candidate) != gamma:
                return witness, candidate
        raise AssertionError("ray failed to escape gamma at t in {1, 2}")

    while len(points) + len(eqs) < n + 1:
        if deadline is not None and time.monotonic() > deadline:
            raise interrupted("time budget exhausted")
        d = select_direction(points, eqs, n)

        if d is None:
            # n equations and no point yet: the set is a point or empty
            resp = query(vector([0] * n))
            if isinstance(resp, Infeasible):
                return AffineHullResult(-1, (), eqs, queries, cache_hits)
            if isinstance(resp, Optimal):
                checked_append(resp.point)
                continue
            raise AssertionError("zero objective cannot be unbounded")

        gamma = dot(d, points[0]) if points else None

        if cache is not None:
            if points:
                hit = cache_probe(cache, d, gamma=gamma, face=face)
                if hit is not None:
                    checked_append(hit)
                    cache_hits += 1
                    continue
            else:
                first = cache_probe(cache, d, face=face)
                if first is not None:
                    partner = cache_probe(cache, d, gamma=dot(d, first), face=face)
                    if partner is not None:
                        checked_append(first)
                        checked_append(partner)
                        cache_hits += 1
                        continue

        resp_max = query(d)
        if isinstance(resp_max, Infeasible):
            if points or len(eqs) > initial_count:
                raise AssertionError("oracle reported infeasible after feasible points")
            return AffineHullResult(-1, (), eqs, queries, cache_hits)
        if isinstance(resp_max, Unbounded):
            witness, escape = escape_from_ray(resp_max, gamma, d)
            if not points:
                checked_append(witness)
            checked_append(escape)
            continue

        x_plus, v_plus = resp_max.point, resp_max.value
        resp_min = query(tuple(-c for c in d))
        if isinstance(resp_min, Infeasible):
            raise AssertionError("infeasible after an optimal response")
        if isinstance(resp_min, Unbounded):
            if not points:
                checked_append(x_plus)
                _, escape = escape_from_ray(resp_min, dot(d, x_plus), d)
            else:
                _, escape = escape_from_ray(resp_min, gamma, d)
            checked_append(escape)
            continue

        x_minus = resp_min.point
        v_minus = -resp_min.value  # min of d.x

        if v_plus == v_minus:
            eqs = eqs.with_equation(d, v_plus)
            if not points:
                checked_append(x_plus)
        elif not points:
            checked_append(x_plus)
            checked_append(x_minus)
        else:
            if dot(d, x_plus) != gamma:
                checked_append(x_plus)
            else:
                checked_append(x_minus)

    return AffineHullResult(len(points) - 1, tuple(points), eqs, queries, cache_hits)


def face_hull(
    provider,
    base: AffineHullResult,
    cut: Inequality,
    time_budget: Optional[float] = DEFAULT_TIME_BUDGET,
) -> AffineHullResult:
    """Dimension of the face {x in P : a.x = rhs} of a supporting cut.

    `base` is the affine hull result for P itself; its equations are
    valid on the face and seed the run.  The cut equation is added
    unless its row already lies in the span of the base system.  The
    provider's cache is probed only for points on the face.
    """
    eqs = base.equations
    if not is_in_span(cut.coefficients, eqs.rows):
        eqs = eqs.with_equation(cut.coefficients, cut.rhs)
    face_provider = provider.restrict(cut.coefficients, cut.rhs)
    return affine_hull(
        face_provider,
        initial_equations=eqs,
        face=cut,
        time_budget=time_budget,
    )
