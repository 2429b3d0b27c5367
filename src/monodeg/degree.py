"""Degree of a monomial map from its exponent matrix, and degree sequences.

For a k x k integer exponent matrix A the map degree is

    D(A) = max(0, rowsum_1, ..., rowsum_k)
         + sum_j max(0, -a_{1,j}, ..., -a_{k,j})

which is the pointwise maximum of (k+1)^(k+1) linear functionals on matrix
space, one per choice of branch in each max.  A functional index stores one
such choice: component 0 picks the row-sum branch (0 means the constant-0
branch), component j >= 1 picks the row whose negated entry is used in
column j (again 0 for the constant-0 branch).

Because the branches are independent, the set of functionals attaining D(A)
is a product of per-max argmax sets; ``achieving_cells`` materialises it and
``canonical_cell`` returns its lexicographic minimum without enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import DimensionMismatch, NotUnimodular, RankDeficient
from .exact import IntMatrix, Rows, det, inverse_unimodular, power_rows


@dataclass(frozen=True, order=True)
class FunctionalIndex:
    """One branch choice per max: (c0, c1, ..., ck), each in 0..k."""

    choices: tuple[int, ...]

    def __post_init__(self):
        ch = tuple(int(c) for c in self.choices)
        if len(ch) < 2:
            raise ValueError("a functional index needs k+1 components with k >= 1")
        k = len(ch) - 1
        for c in ch:
            if not 0 <= c <= k:
                raise ValueError(f"functional component {c} out of range 0..{k}")
        object.__setattr__(self, "choices", ch)

    @property
    def dimension(self) -> int:
        return len(self.choices) - 1

    @property
    def row_choice(self) -> int:
        return self.choices[0]

    @property
    def column_choices(self) -> tuple[int, ...]:
        return self.choices[1:]


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


def functional_set(k: int) -> list[FunctionalIndex]:
    """All (k+1)^(k+1) functional indices in lexicographic order."""
    if k < 1:
        raise ValueError("dimension must be at least 1")
    return [FunctionalIndex(c) for c in product(range(k + 1), repeat=k + 1)]


def functional_value(c: FunctionalIndex, a: IntMatrix) -> int:
    """Value of the linear functional indexed by ``c`` at the matrix ``a``."""
    if c.dimension != a.k:
        raise DimensionMismatch(
            f"functional of dimension {c.dimension} applied to {a.k}x{a.k} matrix"
        )
    c0 = c.row_choice
    total = sum(a.rows[c0 - 1]) if c0 else 0
    for j, cj in enumerate(c.column_choices):
        if cj:
            total -= a.rows[cj - 1][j]
    return total


def degree(a: IntMatrix) -> int:
    """Map degree D(A); at least 1 for every nonzero integer matrix."""
    if a.is_zero:
        raise ValueError("degree of the zero matrix is not defined")
    return _rows_degree(a.rows)


def _rows_degree(rows: Rows) -> int:
    """D of the matrix with these rows (the row-sum max plus one max per
    column, each with its constant-0 branch)."""
    return max(0, *map(sum, rows)) + sum(max(0, -min(col)) for col in zip(*rows))


def _argmax_sets(rows: Rows) -> tuple[int, list[list[int]]]:
    """D of the matrix with these rows, the sum of the per-max maxima, and
    the per-max argmax choice sets: index 0 for the row-sum max, then one per
    column.  Choice 0 is the constant-0 branch."""
    sums = [0, *map(sum, rows)]
    best = max(sums)
    total = best
    sets = [[c for c, v in enumerate(sums) if v == best]]
    for col in zip(*rows):
        vals = [0, *(-x for x in col)]
        best = max(vals)
        total += best
        sets.append([c for c, v in enumerate(vals) if v == best])
    return total, sets


def achieving_cells(a: IntMatrix) -> set[FunctionalIndex]:
    """All functional indices whose value at ``a`` equals D(a); never empty.

    The set is the cartesian product of the per-max argmax sets.
    """
    if a.is_zero:
        raise ValueError("achieving cells of the zero matrix are not defined")
    return {FunctionalIndex(c) for c in product(*_argmax_sets(a.rows)[1])}


def canonical_cell(a: IntMatrix) -> tuple[FunctionalIndex, int]:
    """Lexicographically least achieving functional plus the tie count.

    Tie-breaking on cell boundaries is a convention of this artifact; the tie
    count preserves visibility of boundary hits.
    """
    rep, count, _ = cell_and_degree(a)
    return rep, count


def cell_and_degree(a: IntMatrix) -> tuple[FunctionalIndex, int, int]:
    """``canonical_cell(a)`` plus D(a), all from one pass over the maxima."""
    if a.is_zero:
        raise ValueError("achieving cells of the zero matrix are not defined")
    return _rows_cell_and_degree(a.rows)


def _rows_cell_and_degree(rows: Rows) -> tuple[FunctionalIndex, int, int]:
    """``cell_and_degree`` of the matrix with these rows, assumed nonzero."""
    total, sets = _argmax_sets(rows)
    count = 1
    for s in sets:
        count *= len(s)
    return FunctionalIndex(tuple(s[0] for s in sets)), count, total


def degree_sequence(a: IntMatrix, n: int) -> DegreeSequence:
    """Degrees of the first n iterates, computed on exact matrix powers.

    One walk over the powers (:func:`~monodeg.exact.power_rows`); a
    full-rank matrix has no zero power.
    """
    if n < 1:
        raise ValueError("sequence length must be at least 1")
    if det(a) == 0:
        raise RankDeficient("degree sequences need a matrix of full rank")
    terms = tuple(map(_rows_degree, power_rows(a, n)))
    return DegreeSequence(terms, a, dual=False)


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
    "functional_set",
    "functional_value",
    "degree",
    "achieving_cells",
    "canonical_cell",
    "cell_and_degree",
    "degree_sequence",
    "dual_degree_sequence",
    "NotUnimodular",
    "RankDeficient",
]
