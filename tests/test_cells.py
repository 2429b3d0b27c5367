import random

import pytest

from monodeg.cells import PERIODIC, STABILIZED, UNRESOLVED, cell_trace, detect_stabilization
from monodeg.degree import (
    FunctionalIndex,
    cell_and_degree,
    degree,
    degree_sequence,
    functional_value,
)
from monodeg.errors import RankDeficient
from monodeg.exact import IntMatrix, mat_pow

from conftest import NO_RECURRENCE_3X3, QUARTER_ROTATION, TRIBONACCI_COMPANION
from oracles import random_rank_matrix


class TestDetectStabilization:
    def _fi(self, tag: int) -> FunctionalIndex:
        return FunctionalIndex((tag % 3, tag // 3 % 3, tag // 9 % 3))

    def test_constant_trace(self):
        reps = [self._fi(1)] * 10
        st = detect_stabilization(reps)
        assert st.kind == STABILIZED
        assert st.from_index == 1

    def test_periodic_tail(self):
        reps = [self._fi(i % 4) for i in range(20)]
        st = detect_stabilization(reps)
        assert st.kind == PERIODIC
        assert st.period == 4

    def test_alternating_without_period(self):
        pattern = [0, 1, 0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1]
        reps = [self._fi(x) for x in pattern]
        assert detect_stabilization(reps).kind == UNRESOLVED

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            detect_stabilization([self._fi(0)])

    def test_late_stabilization_needs_half_window(self):
        # constant only on the last 4 of 10: below the ceil(N/2) threshold
        reps = [self._fi(i) for i in (0, 1, 2, 0, 1, 2)] + [self._fi(5)] * 4
        st = detect_stabilization(reps)
        assert st.kind != STABILIZED


class TestCellTrace:
    def test_identity_stabilizes_from_one(self):
        trace = cell_trace(IntMatrix.identity(3), 10)
        assert trace.status.kind == STABILIZED
        assert trace.status.from_index == 1
        assert trace.switch_indices == ()

    def test_companion_stabilizes(self):
        trace = cell_trace(TRIBONACCI_COMPANION, 40)
        assert trace.status.kind == STABILIZED

    def test_quarter_rotation_periodic(self):
        trace = cell_trace(QUARTER_ROTATION, 20)
        assert trace.status.kind == PERIODIC
        assert trace.status.period == 4

    def test_no_recurrence_matrix_never_stabilizes(self):
        trace = cell_trace(NO_RECURRENCE_3X3, 60)
        assert trace.status.kind != STABILIZED

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            cell_trace(IntMatrix(((1, 1), (1, 1))), 10)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            cell_trace(IntMatrix.identity(2), 1)

    def test_switch_indices_strictly_increasing_from_two(self):
        trace = cell_trace(NO_RECURRENCE_3X3, 50)
        assert all(s >= 2 for s in trace.switch_indices)
        assert list(trace.switch_indices) == sorted(set(trace.switch_indices))

    def test_stabilized_representative_attains_degree(self):
        trace = cell_trace(TRIBONACCI_COMPANION, 30)
        st = trace.status
        assert st.kind == STABILIZED
        for n in range(st.from_index, trace.window + 1):
            p = mat_pow(TRIBONACCI_COMPANION, n)
            assert functional_value(st.cell, p) == degree(p)

    def test_tie_counts_positive(self):
        trace = cell_trace(QUARTER_ROTATION, 12)
        assert all(t >= 1 for t in trace.tie_counts)

    def test_walk_matches_matrix_powers(self):
        # k = 1 exercises the row-sum max over a single row
        rng = random.Random(12)
        for k in range(1, 7):
            a = random_rank_matrix(rng, k, -3, 3)
            trace = cell_trace(a, 60)
            expected = [cell_and_degree(mat_pow(a, n)) for n in range(1, 61)]
            assert trace.representatives == tuple(rep for rep, _, _ in expected)
            assert trace.tie_counts == tuple(tie for _, tie, _ in expected)
            assert trace.degrees == tuple(d for _, _, d in expected)
            assert degree_sequence(a, 60).terms == trace.degrees
