"""Seeded matrix corpora for the benchmark workloads.

The generators here are the benchmark's own, not the test suite's, so a
change to the tests cannot change what is measured.

A corpus is an endless stream of cases in a fixed stratified order: the
position of a case decides its stratum (matrix kind and size k), and the run
seed decides which matrix of that stratum comes next.  Fixing the share of
each stratum keeps the mix of cheap and expensive matrices the same from
seed to seed, so two runs differ in their matrices, not in their mix.

Strata whose answers are checked against ``reference.json`` draw from a
finite pool generated from a fixed pool seed: a recorded answer can only
exist for a matrix known in advance.  The run seed permutes each pool.
Other strata draw fresh matrices from the run seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterator

ENTRY_LO, ENTRY_HI = -3, 3


def bareiss_det(rows: tuple[tuple[int, ...], ...]) -> int:
    """Determinant by fraction-free elimination (benchmark's own copy)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for r in range(n - 1):
        pivot_row = next((s for s in range(r, n) if m[s][r] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                m[i][j] = (m[r][r] * m[i][j] - m[i][r] * m[r][j]) // prev
        prev = m[r][r]
    return sign * m[n - 1][n - 1]


def full_rank(rng: random.Random, k: int) -> tuple[tuple[int, ...], ...]:
    """Uniform entries in [ENTRY_LO, ENTRY_HI], redrawn until det != 0."""
    while True:
        rows = tuple(
            tuple(rng.randint(ENTRY_LO, ENTRY_HI) for _ in range(k)) for _ in range(k)
        )
        if bareiss_det(rows) != 0:
            return rows


def unimodular(rng: random.Random, k: int) -> tuple[tuple[int, ...], ...]:
    """det = +-1: a random signed permutation matrix, then 4k random row
    additions row_i += c * row_j (c = +-1), each kept only while every entry
    stays in [ENTRY_LO, ENTRY_HI]."""
    rows = [[0] * k for _ in range(k)]
    perm = list(range(k))
    rng.shuffle(perm)
    for i, p in enumerate(perm):
        rows[i][p] = rng.choice((-1, 1))
    for _ in range(4 * k):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        new = [rows[i][t] + c * rows[j][t] for t in range(k)]
        if all(ENTRY_LO <= x <= ENTRY_HI for x in new):
            rows[i] = new
    return tuple(tuple(r) for r in rows)


GENERATORS = {"full-rank": full_rank, "unimodular": unimodular}


@dataclass(frozen=True)
class Stratum:
    kind: str  # a key of GENERATORS
    k: int
    pool_size: int | None = None  # None: fresh matrices from the run seed

    @property
    def name(self) -> str:
        return f"{self.kind} k={self.k}"


@dataclass(frozen=True)
class Case:
    stratum: Stratum
    pool_index: int | None
    rows: tuple[tuple[int, ...], ...]


def pool(workload: str, stratum: Stratum) -> list[tuple[tuple[int, ...], ...]]:
    """The fixed pool of one stratum; independent of the run seed."""
    rng = random.Random(f"monodeg-bench-pool/{workload}/{stratum.name}")
    gen = GENERATORS[stratum.kind]
    return [gen(rng, stratum.k) for _ in range(stratum.pool_size)]


def pool_digest(rows_list: list[tuple[tuple[int, ...], ...]]) -> str:
    """Short fingerprint that ties recorded answers to the generated pool."""
    return hashlib.sha256(repr(rows_list).encode()).hexdigest()[:16]


def stream(
    workload: str, pattern: list[Stratum], seed: int
) -> Iterator[Case]:
    """Endless stratified case stream: position i belongs to
    pattern[i % len(pattern)]."""
    rng = random.Random(f"monodeg-bench-run/{workload}/{seed}")
    pools: dict[Stratum, list] = {}
    orders: dict[Stratum, list[int]] = {}
    cursor: dict[Stratum, int] = {}
    for s in set(pattern):
        if s.pool_size is not None:
            pools[s] = pool(workload, s)
    i = 0
    while True:
        s = pattern[i % len(pattern)]
        i += 1
        if s.pool_size is None:
            yield Case(s, None, GENERATORS[s.kind](rng, s.k))
            continue
        pos = cursor.get(s, 0)
        if pos % s.pool_size == 0:  # start of a pass: a fresh permutation
            order = list(range(s.pool_size))
            rng.shuffle(order)
            orders[s] = order
        cursor[s] = pos + 1
        idx = orders[s][pos % s.pool_size]
        yield Case(s, idx, pools[s][idx])
