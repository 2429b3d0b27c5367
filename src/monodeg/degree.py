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
per power of a multiplier compiled for the matrix; the last walk is held in
a one-entry ``functools.lru_cache``, the module's only shared state.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=1)
def _power_cells(
    a: IntMatrix, n: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Degrees, canonical cell choices and tie counts of A^1 .. A^n.

    This is the only walk over the powers: each power is one call of
    ``step``, the multiplier compiled for A (``exact._multiplier``), on the
    previous power's rows, with no IntMatrix built per power.  The last walk
    is held, keyed on A and n, so ``degree_sequence`` and ``cell_trace`` of
    one matrix at one length share it; any other key walks from A again.

    The walk compiles a multiplier, and Le Verrier's k - 2 products call
    the general ``exact._product_rows``, because compiling costs about k^3
    (0.2 ms at k = 3, 3 ms at k = 10 and 19 ms at k = 20 on a 2-core Xeon
    VM, as much as a whole verdict at small k): a walk repays it within tens
    of powers, and a few products never would.  A singular A raises
    RankDeficient.
    """
    if det(a) == 0:
        raise RankDeficient("degree sequences and cell traces need a matrix of full rank")
    step = _multiplier(a.rows)
    power = a.rows
    results = [_rows_cell_and_degree(power)]
    for _ in range(n - 1):
        power = step(power)
        results.append(_rows_cell_and_degree(power))
    cells, ties, degrees = zip(*results)
    return degrees, cells, ties


def degree_sequence(a: IntMatrix, n: int) -> DegreeSequence:
    """Degrees of the first n iterates, computed on exact matrix powers.

    They come from the power walk (``_power_cells``), which also yields the
    cells and rejects a singular A; a full-rank matrix has no zero power.
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
