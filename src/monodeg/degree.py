"""Degree of a monomial map from its exponent matrix, and degree sequences.

For a k x k integer exponent matrix A the map degree is

    D(A) = max(0, rowsum_1, ..., rowsum_k)
         + sum_j max(0, -a_{1,j}, ..., -a_{k,j})

which is the pointwise maximum of (k+1)^(k+1) linear functionals on matrix
space, one per choice of branch in each max.  A functional index stores one
such choice: component 0 picks the row-sum branch (0 means the constant-0
branch), component j >= 1 picks the row whose negated entry is used in
column j (again 0 for the constant-0 branch).

The powers of a matrix are walked in one place, ``_power_cells``, one call
per power of a multiplier compiled for the matrix; it holds the last walk,
multiplier included, for the next call, and that is the module's only
shared state.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import NotUnimodular, RankDeficient
from .exact import IntMatrix, Rows, _multiplier, det, inverse_unimodular


@dataclass(frozen=True, order=True)
class FunctionalIndex:
    """One branch choice per max: (c0, c1, ..., ck), each in 0..k."""

    choices: tuple[int, ...]

    def __post_init__(self):
        ch = tuple(map(operator.index, self.choices))
        if len(ch) < 2:
            raise ValueError("a functional index needs k+1 components with k >= 1")
        k = len(ch) - 1
        for c in ch:
            if not 0 <= c <= k:
                raise ValueError(f"functional component {c} out of range 0..{k}")
        object.__setattr__(self, "choices", ch)


@dataclass(frozen=True)
class DegreeSequence:
    """Exact degrees of the iterates, terms[n-1] = D(A^n) for n = 1..N.

    ``dual`` marks sequences computed from the inverse matrix; ``source`` is
    always the matrix the caller handed in.
    """

    terms: tuple[int, ...]
    source: IntMatrix
    dual: bool = False

    def __len__(self) -> int:
        return len(self.terms)


def degree(a: IntMatrix) -> int:
    """Map degree D(A); at least 1 for every nonzero integer matrix."""
    if a.is_zero:
        raise ValueError("degree of the zero matrix is not defined")
    return _rows_cell_and_degree(a.rows)[2]


def _rows_cell_and_degree(rows: Rows) -> tuple[tuple[int, ...], int, int]:
    """The canonical cell (the lexicographically least functional attaining
    D), the tie count (how many attain it) and D of the matrix with these
    rows, with no argmax set built: per max, the least argmax is the first
    occurrence of the max and the tie factor its number of occurrences.
    A column's max is max(0, -min(col)), so the column is searched for its
    minimum (choice row + 1) or for the zeros tying with the constant 0."""
    sums = [0, *map(sum, rows)]
    total = max(sums)
    choices = [sums.index(total)]
    count = sums.count(total)
    for col in zip(*rows):
        low = min(col)
        if low < 0:
            total -= low
            choices.append(col.index(low) + 1)
            count *= col.count(low)
        else:
            choices.append(0)
            count *= col.count(0) + 1
    return tuple(choices), count, total


# The held walk: A's rows, the rows of A^m, the (choices, tie count,
# degree) triples of A^1..A^m and A's compiled multiplier (None until the
# walk makes its first product).  Replaced whole, never mutated.
_walk: tuple = ((), (), (), None)


def _power_cells(
    a: IntMatrix, n: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Degrees, canonical cell choices and tie counts of A^1 .. A^n.

    This is the only walk over the powers: each power is one call of
    ``step``, the multiplier compiled for A (``exact._multiplier``), on the
    previous power's rows, with no IntMatrix built per power.  One slot
    holds the last walk: its matrix's rows, its last power, its per-power
    results (not the earlier powers) and its ``step``.  Equal rows give
    equal powers, and the results for n powers are a prefix of the results
    for any m > n powers, so a call on a matrix with the held rows reads a
    prefix of the slot or extends the walk from the last power held, with
    the held ``step``; any other matrix replaces the slot.  ``step`` is
    compiled at the walk's first product, so a one-power walk compiles
    nothing.

    The walk compiles a multiplier, and Le Verrier's k - 2 products call
    the general ``exact._product_rows``, because compiling costs about k^3
    (0.2 ms at k = 3, 3 ms at k = 10 and 19 ms at k = 20 on a 2-core Xeon
    VM, as much as a whole verdict at small k): a walk repays it within tens
    of powers, and a few products never would.

    The slot is replaced by one assignment of an immutable tuple, and
    ``step`` is a pure function, so a concurrent caller sees either the old
    walk or the new one, never half of an update; at worst a concurrent
    walk is redone.  A singular A raises RankDeficient, checked only when
    the slot is replaced, since a held slot holds rows that passed the
    check.
    """
    global _walk
    rows, power, results, step = _walk
    if rows != a.rows:
        if det(a) == 0:
            raise RankDeficient("degree sequences and cell traces need a matrix of full rank")
        rows, power, results, step = a.rows, (), (), None
    if len(results) < n:
        more = []
        for _ in range(n - len(results)):
            if power:
                step = step or _multiplier(rows)
                power = step(power)
            else:
                power = rows
            more.append(_rows_cell_and_degree(power))
        results += tuple(more)
        _walk = (rows, power, results, step)
    cells, ties, degrees = zip(*results[:n])
    return degrees, cells, ties


def degree_sequence(a: IntMatrix, n: int) -> DegreeSequence:
    """Degrees of the first n iterates, computed on exact matrix powers.

    They come from the held power walk (``_power_cells``), which also yields
    the cells and rejects a singular A; a full-rank matrix has no zero power.
    """
    if n < 1:
        raise ValueError("sequence length must be at least 1")
    return DegreeSequence(_power_cells(a, n)[0], a, dual=False)


def dual_degree_sequence(a: IntMatrix, n: int) -> DegreeSequence:
    """Degree sequence of the inverse map (codimension k-1 degrees).

    Defined only for unimodular matrices; raises NotUnimodular otherwise.
    """
    inv = inverse_unimodular(a)  # NotUnimodular propagates
    seq = degree_sequence(inv, n)
    return DegreeSequence(seq.terms, a, dual=True)


__all__ = [
    "FunctionalIndex",
    "DegreeSequence",
    "degree",
    "degree_sequence",
    "dual_degree_sequence",
    "NotUnimodular",
    "RankDeficient",
]
