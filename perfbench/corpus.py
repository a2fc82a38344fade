"""Seeded corpus generators for the three benchmark workloads.

Every job is one CLI call on one instance file and one cut file.  The
same seed always yields the same jobs, byte for byte.  All three
families are pure-integer programs on small boxes, so the benchmark
enumerates every feasible point itself and the correctness gate has an
exact ground truth for every answer.

Why these families:

* knapsack-classify -- binary knapsacks are the classic cutting-plane
  testbed (minimal cover inequalities).  One dense row and n = 10 make
  every face run a chain oracle -> branch and bound -> small LPs, which
  need phase one only because of the face equations.  This is the
  workload where hull rounds, cache probes and oracle MIPs all show.
* stein9-impact -- Steiner-triple covering on the 12 lines of AG(2,3)
  (STS(9), the smallest member of the stein27 family).  Every row has
  a negative right-hand side, so every LP needs phase one, and the
  impact protocol is nothing but branch-and-bound trees: no hull, no
  oracle.  STS(15) and STS(27) are left out (see NOTES.md): at the
  seed a single run takes minutes.
* random-lattice -- the acceptance generator of `cutdim.selftest`,
  classified with the lattice engine.  No simplex and no solver run;
  the time goes to enumeration, argmax scans, direction selection and
  linear algebra, and the many small jobs expose per-call CLI and file
  overhead.  Jobs cycle through every pair of n (2..6) and row count
  (1..4), which set the box size and the share of feasible points and
  so most of a job's time: every seed gets the same mix.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from cutdim.model import Inequality, MipInstance, build_instance
from cutdim.rational import rat_str
from cutdim.selftest import random_cut, random_instance


@dataclass(frozen=True)
class Job:
    """One CLI call: a subcommand on one instance and its cuts."""

    name: str
    command: str  # "classify" or "impact"
    engine: str  # "solver" or "lattice"
    instance: MipInstance
    cuts: tuple  # Inequality, exactly as written to the cut file
    points: tuple  # every feasible point, enumerated here, lex order
    lp_value: Optional[int] = None  # root LP optimum, where known in closed form


def _int_rows(inst: MipInstance):
    for row, b in zip(inst.constraint_matrix, inst.rhs):
        if b.denominator != 1 or any(a.denominator != 1 for a in row):
            raise ValueError(f"{inst.name}: generated data must be integral")
        yield [int(a) for a in row], int(b)


def enumerate_points(inst: MipInstance) -> tuple:
    """Feasible points of a boxed pure-integer instance, in lex order.

    Plain integer arithmetic, no cutdim code: this is the ground truth
    the correctness gate compares against.
    """
    rows = list(_int_rows(inst))
    ranges = [
        range(int(lo), int(hi) + 1) for lo, hi in zip(inst.lower_bounds, inst.upper_bounds)
    ]
    return tuple(
        p
        for p in itertools.product(*ranges)
        if all(sum(a * x for a, x in zip(row, p)) <= b for row, b in rows)
    )


def int_max(coefficients, points) -> int:
    """max of a.x over the points, a integral."""
    a = [int(c) for c in coefficients]
    return max(sum(c * x for c, x in zip(a, p)) for p in points)


def cut_file_text(cuts) -> str:
    """The documented cut-file format: label, a1..an, <=, rhs, category."""
    lines = []
    for cut in cuts:
        fields = [cut.label, *(rat_str(c) for c in cut.coefficients), "<=", rat_str(cut.rhs)]
        if cut.category:
            fields.append(cut.category)
        lines.append(", ".join(fields))
    return "\n".join(lines) + "\n"


def _nonzero_vector(rng: random.Random, n: int, lo: int, hi: int) -> list:
    while True:
        a = [rng.randint(lo, hi) for _ in range(n)]
        if any(a):
            return a


def _shifted_cut(a, points, offset: int, label: str, category: str) -> Inequality:
    # offset 0: supporting; +1: valid but loose; -1: cuts off feasible points
    return Inequality(a, int_max(a, points) + offset, label=label, category=category)


# -- knapsack-classify ---------------------------------------------------

KNAPSACK_VARS = 10
KNAPSACK_COVERS = 5
# per instance: the minimal covers plus random rows at these offsets
KNAPSACK_OFFSETS = (0, -1, 1)


def knapsack_job(rng: random.Random, index: int) -> Job:
    n = KNAPSACK_VARS
    weights = [rng.randint(20, 100) for _ in range(n)]
    profits = [w + 10 for w in weights]  # strongly correlated: hard to prune
    capacity = sum(weights) // 2
    inst = build_instance(
        name=f"knap{index}",
        constraint_matrix=[weights],
        rhs=[capacity],
        objective=profits,
        integer_vars=range(n),
        lower_bounds=[0] * n,
        upper_bounds=[1] * n,
    )
    points = enumerate_points(inst)
    cuts = []
    for k in range(KNAPSACK_COVERS):
        cover = _minimal_cover(rng, weights, capacity)
        a = [1 if j in cover else 0 for j in range(n)]
        cuts.append(Inequality(a, len(cover) - 1, label=f"cover{k}", category="cover"))
    for k, offset in enumerate(KNAPSACK_OFFSETS):
        a = _nonzero_vector(rng, n, -3, 3)
        cuts.append(_shifted_cut(a, points, offset, f"rand{k}", "random"))
    rng.shuffle(cuts)
    return Job(inst.name, "classify", "solver", inst, tuple(cuts), points)


def _minimal_cover(rng: random.Random, weights, capacity) -> set:
    """Items whose total weight exceeds capacity, none of them redundant."""
    order = list(range(len(weights)))
    rng.shuffle(order)
    cover, total = [], 0
    for j in order:
        cover.append(j)
        total += weights[j]
        if total > capacity:
            break
    for j in list(cover):
        if total - weights[j] > capacity:
            cover.remove(j)
            total -= weights[j]
    return set(cover)


# -- stein9-impact -------------------------------------------------------

def _ag23_lines() -> tuple:
    """The 12 lines of the affine plane AG(2,3), point (i, j) numbered 3i + j.

    Every pair of the 9 points lies on exactly one line: STS(9).
    """
    lines = set()
    for i, j in itertools.product(range(3), repeat=2):
        for di, dj in ((0, 1), (1, 0), (1, 1), (1, 2)):
            lines.add(
                tuple(sorted(3 * ((i + t * di) % 3) + (j + t * dj) % 3 for t in range(3)))
            )
    return tuple(sorted(lines))


AG23_LINES = _ag23_lines()
# per instance: one random covering row that cuts off the LP optimum,
# supporting (offset 0) on even and loose (offset +1) on odd instances,
# then sum x >= 6, which every optimum violates, so the impact protocol
# skips it as invalid-cut.  Many permutations with one cut each, rather
# than few with many cuts: the permutation sets the pivot order, which
# moves the cost of every tree of the instance together.
STEIN9_OFFSETS = (0, 1)
STEIN9_LP_VALUE = -3  # x = 1/3 everywhere; summing the 12 rows gives sum x >= 3


def stein9_job(rng: random.Random, index: int) -> Job:
    n = 9
    perm = list(range(n))
    rng.shuffle(perm)
    rows = []
    for line in AG23_LINES:
        row = [0] * n
        for p in line:
            row[perm[p]] = -1
        rows.append(row)
    inst = build_instance(
        name=f"stein9_{index}",
        constraint_matrix=rows,
        rhs=[-1] * len(rows),
        objective=[-1] * n,
        integer_vars=range(n),
        lower_bounds=[0] * n,
        upper_bounds=[1] * n,
    )
    points = enumerate_points(inst)
    offset = STEIN9_OFFSETS[index % len(STEIN9_OFFSETS)]
    while True:
        subset = rng.sample(range(n), rng.randint(4, 8))
        a = [-rng.choice((1, 1, 2)) if j in subset else 0 for j in range(n)]
        cut = _shifted_cut(a, points, offset, "cov", "covering")
        if sum(a) > 3 * cut.rhs:  # violated at x = 1/3 everywhere
            break
    cuts = (cut, Inequality([-1] * n, -6, label="sum6", category="objective"))
    return Job(inst.name, "impact", "solver", inst, cuts, points, STEIN9_LP_VALUE)


# -- random-lattice ------------------------------------------------------

LATTICE_CUTS = 5


def lattice_job(rng: random.Random, index: int) -> Job:
    # each (n, rows) pair in turn, drawn from the generator by rejection;
    # the emptiness test is done here, in integers, at a fraction of the cost
    n, rows = 2 + index % 5, 1 + (index // 5) % 4
    while True:
        inst = random_instance(
            rng, min_vars=n, max_vars=n, name=f"rl{index}", require_nonempty=False
        )
        if inst.num_constraints != rows:
            continue
        points = enumerate_points(inst)
        if points:
            break
    cuts = tuple(
        random_cut(rng, points, n, rng.choice((-1, 0, 1)), label=f"c{k}")
        for k in range(LATTICE_CUTS)
    )
    return Job(inst.name, "classify", "lattice", inst, cuts, points)


# jobs per corpus; sized so one pass takes 11 to 16 s at reference speed
# (probe.py) with the fractions backend
WORKLOADS = {
    "knapsack-classify": (knapsack_job, 32),
    "stein9-impact": (stein9_job, 6),
    "random-lattice": (lattice_job, 140),
}


def build_corpus(workload: str, seed: int, jobs: int = 0) -> list:
    """The seeded job list of a workload; `jobs` overrides its size."""
    make, count = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    return [make(rng, i) for i in range(jobs or count)]
