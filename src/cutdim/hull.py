"""Affine hull dimension from an optimization oracle.

The algorithm maintains a set X of affinely independent feasible points
and a system D.x = e of independent equations valid for the feasible
set P.  Each round picks a direction d orthogonal to aff(X) and outside
the row span of D, and looks for a point of P off d.x = gamma, gamma
the value d takes on X.  While X is empty, the round's first query
maximizes d in full and its answer seeds X (a maximizer, or an
unbounded answer's witness), which fixes gamma.  Once X holds a point,
each side is asked against a bar (`oracle`): max d only for a point
with d.x > gamma, max -d only for one with -d.x > -gamma.  The max side
is asked first and the min side only when the max side names no point
off d.x = gamma.  A round ends with the first such point an answer
names (an unbounded answer supplies witness + t*ray); when neither side
has one, max d = min d = gamma proves the new valid equation
d.x = gamma.  Either way |X| + rows(D) grows, and when it reaches n + 1
the affine hull is pinned down exactly:

    dim P = |X| - 1,   aff(P) = aff(X) = {x : D.x = e}.

A run handed feasible points takes its free points before its first
direction: x0, the first point handed, joins X with no query, then each
other handed point and each one- and two-coordinate move x0 + s*e_i
(+ t*e_j), s, t = +-1 on integer columns (`move_points`), that escapes
aff(X).  A move point joins only once it passes an exact membership
check, whatever the verify switch.  Every point this pass takes after
x0 counts as a cache hit.  The pass leaves every handed point in
aff(X), and every answer's point joins X, all but the witness of an
unbounded answer off d.x = gamma, which supplies witness + t*ray in its
place.  So each round first probes those witnesses (`cache_probe`): one
that escapes the current aff(X) joins X as a cache hit and saves the
round's queries.  Only an unbounded set yields witnesses.

A round without a hit costs two queries, or one when the max side
decides it.  A run handed no points seeds X in its first round, which
adds two to |X| + rows(D); every later round, and every point the pass
takes after x0, adds one.  So on a bounded nonempty set, where only a
round that starts with a point in X can be decided by the max side,

    queries + 2*cache_hits + (rounds the max side decided) = 2(n - r0),

r0 the number of valid equations supplied up front.  When r0 = n, a run
handed no points takes one query and a run handed points none.  The
points a run holds are the run's, not the oracle's: a query never
changes its provider.

Face dimension runs reuse the machinery unchanged: restrict the oracle
to the face's hyperplane, start from the base system plus the face
equation, sharing its form, and from the base run's points that lie on
the face.  A base run is handed no points, so only face runs take free
points.

X and D each keep one integer echelon form (X's of its differences from
its first point), grown a row at a time as a point or equation joins.
Directions are coprime ints read off those forms, and points keep the
ints their engine computed, so the rounds' checks are int arithmetic.
"""

from __future__ import annotations

import operator
import time
from bisect import insort
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

from .config import RunConfig
from .linalg import (
    Echelon,
    Matrix,
    Vector,
    dot,
    exact_vector,
    extended,
    int_scale,
    is_in_span,
    orthogonal_complement_basis,
    rank,
    scaled_row,
    vec_add_scaled,
    vec_sub,
)
from .model import Inequality
from .oracle import (
    Infeasible,
    Optimal,
    OracleInconclusive,
    Unbounded,
    _in_set,
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
    """Equations D.x = e with linearly independent rows, each held once as
    the (d.a, d.b, d) row `scaled_row` gives: `violated_row` takes int
    dot products, and `echelon` (their integer echelon form, grown a row
    at a time) answers span and rank questions.  `rows` and `rhs` give
    the equations back for output, ints where integral."""

    scaled: tuple = ()
    echelon: Echelon = Echelon()

    def __len__(self) -> int:
        return len(self.scaled)

    def with_equation(self, coefficients: Sequence, value) -> "EquationSystem":
        row = scaled_row(coefficients, value)
        return EquationSystem(self.scaled + (row,), extended(self.echelon, row[0]))

    @property
    def rows(self) -> Matrix:
        return tuple(a if d == 1 else exact_vector(rat(v, d) for v in a) for a, _, d in self.scaled)

    @property
    def rhs(self) -> Vector:
        return exact_vector(rat(b, d) for _, b, d in self.scaled)

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


def select_direction(span: Echelon, equations: EquationSystem, n: int) -> Optional[Vector]:
    """A direction orthogonal to `span`, the echelon form of X's
    differences, and outside the row span of `equations`: the sparsest
    such complement vector, ties broken by lexicographically smallest
    support, so runs are reproducible; else None.

    The candidates are the complement basis (`orthogonal_complement_basis`),
    one per free column f of `span`, and f's support reads off the
    echelon rows: f itself and the pivot of each row nonzero at f.  So
    no two candidates share a support (each holds its own free column
    and no other), and the free columns are ordered by (size, support)
    before any vector is built.  Vectors are then built and tested
    against `equations` one at a time, and the first one outside their
    span is returned.
    """
    pivots = span.pivots
    rows = tuple(zip(span, pivots))
    candidates = []
    for f in range(n):
        if f not in pivots:
            support = [pc for row, pc in rows if row[f]]  # in increasing order
            insort(support, f)
            candidates.append((len(support), support, f))
    candidates.sort()
    for _, _, f in candidates:
        (v,) = orthogonal_complement_basis(span, n, columns=(f,))
        if not is_in_span(v, equations.echelon):
            return v
    return None


def cache_probe(points: Sequence, d: Sequence, gamma):
    """The first of `points`, a run's unbounded witnesses, whose d-value
    differs from gamma, or None."""
    for p in points:
        if dot(d, p) != gamma:
            return p
    return None


def move_points(provider, x0: Vector):
    """Points x0 + s*e_i and x0 + s*e_i + t*e_j of a run's first handed
    point x0, s, t = +-1 and i < j integer columns, in groups: all single
    moves, then for each step (i, s) in column order its pairs, when a
    second step can make up what (i, s) leaves lacking.  A hand
    proof that a knapsack or cover inequality is facet-defining lists its
    points the same way, as one- and two-item exchanges of a known point
    (Balas, Math. Prog. 1975).

    x0's room under each instance row (the floor of its slack in the
    row's int form) and what each provider equation lacks at x0 are
    taken once, so a move is yielded when it keeps the bounds, its
    entries on each row stay within the room and on each equation make
    up the lack: a few int operations per move.  This prefilter is exact
    when x0 lies in the set; the caller still checks each point with
    `oracle._in_set`, because with verify off x0 may lie outside it.
    """
    inst = provider.instance
    rows, eqs = inst.integer_rows, provider.equations
    x, den = int_scale(x0)
    room = tuple((b * den - dot(a, x)) // den for a, b, _ in rows)
    lack = tuple(target - dot(e, x0) for e, target, _ in eqs)
    # each step (c, s) that keeps x0[c] + s in the bounds -> s times
    # column c's entries on the rows and on the equations
    row_columns = tuple(zip(*(a for a, _, _ in rows))) or ((),) * len(x0)
    eq_columns = tuple(zip(*(e for e, _, _ in eqs))) or ((),) * len(x0)
    steps = {}
    for c in sorted(inst.integer_vars):
        lo, hi = inst.lower_bounds[c], inst.upper_bounds[c]
        on_rows, on_eqs = row_columns[c], eq_columns[c]
        if hi is None or x0[c] + 1 <= hi:
            steps[c, 1] = (on_rows, on_eqs)
        if lo is None or x0[c] - 1 >= lo:
            steps[c, -1] = (tuple(map(operator.neg, on_rows)), tuple(map(operator.neg, on_eqs)))
    # the steps by their entries on the equations, each list in step order
    by_eqs = defaultdict(list)
    for step, (_, on_eqs) in steps.items():
        by_eqs[on_eqs].append(step)

    def moved(*move):
        point = list(x0)
        for c, s in move:
            point[c] += s
        return tuple(point)

    yield [
        moved(step)
        for step, (on_rows, on_eqs) in steps.items()
        if on_eqs == lack and all(map(operator.le, on_rows, room))
    ]
    for (i, s), (on_rows, on_eqs) in steps.items():
        # a second step must make up exactly what the first leaves lacking
        need = tuple(map(operator.sub, lack, on_eqs))
        if need in by_eqs:
            yield [
                moved((i, s), (j, t))
                for j, t in by_eqs[need]
                if j > i and all(p + q <= r for p, q, r in zip(on_rows, steps[j, t][0], room))
            ]


def off_gamma(resp, d: Vector, gamma) -> Optional[Vector]:
    """The point off d.x = gamma that an answer for d or -d names, else None."""
    if isinstance(resp, Unbounded):
        return escape_from_ray(resp, d, gamma)
    if isinstance(resp, Infeasible) or dot(d, resp.point) == gamma:
        return None
    return resp.point


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
    time_budget: Optional[float] = RunConfig.hull_time_budget,
    cache: Sequence = (),
) -> AffineHullResult:
    """Dimension and affine hull of the provider's feasible set.

    `initial_equations` must be valid for the set and independent; they
    reduce the number of rounds one for one.  `cache` holds feasible
    points of the set.  A run handed points first takes them and the
    moves of the first one (`move_points`) that escape aff(X), with no
    query; a move point joins X only once it lies in the set.  Each
    point taken after the first counts as a cache hit.  Once an answer
    is unbounded, each round first probes the witnesses of such answers
    (`cache_probe`), and a hit replaces the round's queries.

    A round asks max d, then max -d only when the max side names no
    point off d.x = gamma; once X holds a point, both are asked against
    the bar (gamma and -gamma), so only a proof that no point lies above
    it costs a full search (module docstring).  On a bounded nonempty
    set, queries + 2*cache_hits + (rounds the max side decided) is
    exactly 2(n - r0) when r0 < n.  A run that would spend more than
    max(1, 2(n - r0)) queries, the proven worst case, stops with
    HullInterrupted; so does one whose time budget runs out, at the
    latest before its next round or move group.
    """
    n = provider.n
    eqs = initial_equations if initial_equations is not None else EquationSystem()
    if len(eqs) and rank(eqs.echelon) != len(eqs):
        raise ValueError("initial equations must be linearly independent")
    if len(eqs) > n:
        raise ValueError("more independent equations than variables")
    initial_count = len(eqs)
    query_budget = max(1, 2 * (n - initial_count))
    deadline = time.monotonic() + time_budget if time_budget is not None else None

    cache = tuple(cache)
    points: list[Vector] = []
    span = Echelon()  # of the differences x - points[0], x in X
    witnesses: list[Vector] = []  # of the unbounded answers, in answer order
    queries = 0
    cache_hits = 0

    def interrupted(reason: str):
        return HullInterrupted(reason, len(points) - 1, n - len(eqs), queries)

    def check_deadline():
        if deadline is not None and time.monotonic() > deadline:
            raise interrupted("time budget exhausted")

    def query(w, bar=None):
        nonlocal queries
        if queries + 1 > query_budget:
            raise interrupted(f"query budget {query_budget} exhausted")
        check_deadline()
        queries += 1
        try:
            resp = oracle_maximize(provider, w, bar)
        except OracleInconclusive as exc:
            raise interrupted(str(exc)) from exc
        if isinstance(resp, Unbounded):
            witnesses.append(resp.witness)
        return resp

    def checked_append(point, grown=None):
        """Every point entering X must satisfy the current equations;
        `grown`, when given, is span extended by point - points[0]."""
        nonlocal span
        bad = eqs.violated_row(point)
        if bad is not None:
            if bad < initial_count:
                raise InvalidInitialEquationsError(
                    f"feasible point {tuple(map(rat_str, point))} violates "
                    f"initial equation {bad}: {eqs.render()[bad]}"
                )
            raise AssertionError("feasible point violates an equation proved this run")
        if points:
            span = grown or extended(span, vec_sub(point, points[0]))
        points.append(point)

    def take_free_points():
        """x0 = cache[0], then each other handed point and each move of x0
        in the set (`move_points`) that escapes aff(X)."""
        nonlocal cache_hits
        x0, handed = cache[0], cache[1:]
        check_deadline()  # an expired budget ends before x0 is taken
        checked_append(x0)
        if len(points) + len(eqs) > n:
            return
        for group in chain((handed,), move_points(provider, x0)):
            for point in group:
                grown = extended(span, vec_sub(point, x0))
                if grown is span:
                    continue
                if group is not handed and not _in_set(provider, point):
                    continue
                checked_append(point, grown)
                cache_hits += 1
                if len(points) + len(eqs) > n:
                    return
            check_deadline()

    if cache:
        take_free_points()

    while len(points) + len(eqs) < n + 1:
        check_deadline()
        d = select_direction(span, eqs, n)

        if d is None:
            if points:
                raise AssertionError("no direction left although |X|+rows(D) <= n")
            # n equations and no point yet: the set is a point or empty
            resp = query((0,) * n)
            if isinstance(resp, Infeasible):
                return AffineHullResult(-1, (), eqs, queries, cache_hits)
            if isinstance(resp, Optimal):
                checked_append(resp.point)
                continue
            raise AssertionError("zero objective cannot be unbounded")

        if witnesses:
            # X holds a point once a witness is recorded; every other point
            # the run has seen lies in aff(X), on d.x = gamma
            hit = cache_probe(witnesses, d, gamma=dot(d, points[0]))
            if hit is not None:
                checked_append(hit)
                cache_hits += 1
                continue

        if points:
            gamma = dot(d, points[0])
            resp = query(d, gamma)
        else:
            resp = query(d)
            if isinstance(resp, Infeasible):
                return AffineHullResult(-1, (), eqs, queries, cache_hits)
            # the first answer seeds X: its maximizer, on d.x = gamma, or its ray's witness
            checked_append(resp.point if isinstance(resp, Optimal) else resp.witness)
            gamma = dot(d, points[0])
        point = off_gamma(resp, d, gamma)
        if point is None:
            point = off_gamma(query(tuple(-c for c in d), -gamma), d, gamma)
        if point is None:
            # no point above the bar on either side: d.x = gamma holds on P
            eqs = eqs.with_equation(d, gamma)
        else:
            checked_append(point)

    return AffineHullResult(len(points) - 1, tuple(points), eqs, queries, cache_hits)


def face_hull(
    provider,
    base: AffineHullResult,
    cut: Inequality,
    time_budget: Optional[float] = RunConfig.face_time_budget,
    seen: Sequence = (),
) -> AffineHullResult:
    """Dimension of the face {x in P : a.x = rhs} of a supporting cut.

    `base` is the affine hull result for P itself; its equations are
    valid on the face and seed the run.  The cut equation is added
    unless its row already lies in the span of the base system.  The
    run is handed the points of `base.points` and then of `seen` (more
    points of P) that lie on the face, once each; it takes those and the
    moves of the first of them that escape aff(X) before its first
    direction (`affine_hull`).
    """
    eqs = base.equations
    with_cut = eqs.with_equation(cut.coefficients, cut.rhs)
    if with_cut.echelon is not eqs.echelon:
        eqs = with_cut
    face_provider = provider.restrict(cut.coefficients, cut.rhs)
    ints, target, _ = face_provider.equations[-1]
    cache = tuple(p for p in dict.fromkeys((*base.points, *seen)) if dot(ints, p) == target)
    return affine_hull(face_provider, initial_equations=eqs, time_budget=time_budget, cache=cache)
