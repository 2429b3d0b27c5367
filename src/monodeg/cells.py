"""Tracking which degree-formula cell the matrix powers land in.

For each power A^n exactly one value D(A^n) is attained, possibly by several
functionals at once (boundary hits).  The trace records the lexicographically
least achieving functional per power plus the tie count, and classifies the
tail of that symbol sequence.

Within a finite window, stabilization and periodicity are evidence, not
proof; the theorem engine in :mod:`monodeg.verdict` is the only component
that proves anything.  Detector thresholds are fixed conventions: a
STABILIZED tail must cover the final ceil(N/2) entries, a PERIODIC tail must
cover the same range with minimal period at most floor(N/4) and two full
periods observed.

The degrees and cells come from the held power walk of
:mod:`monodeg.degree`, which ``degree_sequence`` of the same matrix and
length shares.  The periodicity detector makes one backward
scan per period, stopping at the first mismatch: each period costs one
comparison more than the length of its matching tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .degree import FunctionalIndex, _power_cells
from .exact import IntMatrix
from .recur import eventually_periodic

STABILIZED = "STABILIZED"
PERIODIC = "PERIODIC"
UNRESOLVED = "UNRESOLVED"


@dataclass(frozen=True)
class TraceStatus:
    kind: str  # STABILIZED | PERIODIC | UNRESOLVED
    cell: FunctionalIndex | None = None
    from_index: int | None = None  # 1-based power index where the tail starts
    period: int | None = None


@dataclass(frozen=True)
class CellTrace:
    source: IntMatrix
    window: int
    degrees: tuple[int, ...]  # D(A^n) for n = 1..window
    representatives: tuple[FunctionalIndex, ...]
    tie_counts: tuple[int, ...]
    switch_indices: tuple[int, ...]
    status: TraceStatus


def detect_stabilization(reps: Sequence[FunctionalIndex]) -> TraceStatus:
    """Classify a per-power cell-representative sequence.

    Thresholds are the fixed conventions documented in the module docstring.
    """
    n = len(reps)
    if n < 2:
        raise ValueError("need at least two entries to classify a trace")
    tail_needed = (n + 1) // 2  # ceil(N/2)
    # longest constant suffix
    start = n - 1
    while start > 0 and reps[start - 1] == reps[start]:
        start -= 1
    if n - start >= tail_needed:
        return TraceStatus(STABILIZED, cell=reps[-1], from_index=start + 1)
    hit = eventually_periodic(reps, window=tail_needed)
    if hit is not None:
        pre, period = hit
        if 2 <= period <= n // 4:
            return TraceStatus(PERIODIC, from_index=pre + 1, period=period)
    return TraceStatus(UNRESOLVED)


def cell_trace(a: IntMatrix, window: int) -> CellTrace:
    """Degrees and achieving-cell data for A^1 .. A^window plus a tail
    classification, from the held power walk (RankDeficient for a singular
    A); one FunctionalIndex is built per distinct cell of the trace."""
    if window < 2:
        raise ValueError("window must be at least 2")
    degrees, cells, ties = _power_cells(a, window)
    index = {c: FunctionalIndex(c) for c in set(cells)}
    reps = tuple(map(index.__getitem__, cells))
    switches = tuple(
        i + 1 for i in range(1, window) if cells[i] != cells[i - 1]
    )  # 1-based indices, each >= 2
    return CellTrace(
        source=a,
        window=window,
        degrees=degrees,
        representatives=reps,
        tie_counts=ties,
        switch_indices=switches,
        status=detect_stabilization(reps),
    )


__all__ = [
    "CellTrace",
    "TraceStatus",
    "cell_trace",
    "detect_stabilization",
    "STABILIZED",
    "PERIODIC",
    "UNRESOLVED",
]
