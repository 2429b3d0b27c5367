import importlib
import io
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodeg.cells import PERIODIC, STABILIZED, UNRESOLVED, cell_trace, detect_stabilization
from monodeg.cli import EXIT_OK, run
from monodeg.degree import (
    FunctionalIndex,
    degree,
    degree_sequence,
    dual_degree_sequence,
    functional_value,
)
from monodeg.errors import RankDeficient
from monodeg.exact import IntMatrix, _product_rows, det

from conftest import (
    NO_RECURRENCE_3X3,
    NO_RECURRENCE_INVERSE,
    QUARTER_ROTATION,
    TRIBONACCI_COMPANION,
    evict_walk,
)
from oracles import achieving_cells, homogenization_degree, mat_pow, random_rank_matrix

# the package exports a function named ``degree``, so fetch the module itself
degree_module = importlib.import_module("monodeg.degree")


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
            powers = [mat_pow(a, n) for n in range(1, 61)]
            cells = [achieving_cells(p) for p in powers]
            assert trace.representatives == tuple(min(c) for c in cells)
            assert trace.tie_counts == tuple(len(c) for c in cells)
            assert trace.degrees == tuple(homogenization_degree(p) for p in powers)
            assert degree_sequence(a, 60).terms == trace.degrees


@pytest.fixture
def walk_products(monkeypatch):
    """Counter of the power products the held walk makes, from a cold slot.
    Products made elsewhere (the powers behind char_poly) are not counted."""
    evict_walk()
    count = [0]

    def counted(rows, cols):
        count[0] += 1
        return _product_rows(rows, cols)

    monkeypatch.setattr(degree_module, "_product_rows", counted)
    return count


@pytest.fixture
def rank_checks(monkeypatch):
    """Counter of the full-rank checks (det calls) the held walk makes."""
    count = [0]

    def counted(a):
        count[0] += 1
        return det(a)

    monkeypatch.setattr(degree_module, "det", counted)
    return count


class TestHeldWalk:
    def test_degrees_and_cells_share_one_walk(self, walk_products):
        a = random_rank_matrix(random.Random(41), 4, -3, 3)
        seq = degree_sequence(a, 60)
        trace = cell_trace(a, 60)
        assert walk_products[0] == 59
        assert seq.terms == trace.degrees
        assert trace.degrees == tuple(degree(mat_pow(a, n)) for n in range(1, 61))

    def test_longer_window_extends_the_walk(self, walk_products):
        a = random_rank_matrix(random.Random(42), 5, -3, 3)
        short = cell_trace(a, 30)
        extended = cell_trace(a, 60)
        assert walk_products[0] == 59
        evict_walk()
        assert extended == cell_trace(a, 60)
        assert walk_products[0] == 59 + 59
        assert short.degrees == extended.degrees[:30]

    def test_shorter_window_reads_a_prefix(self, walk_products):
        a = random_rank_matrix(random.Random(43), 3, -3, 3)
        cell_trace(a, 50)
        short = cell_trace(a, 20)
        assert walk_products[0] == 49
        evict_walk()
        assert short == cell_trace(a, 20)

    def test_other_matrix_replaces_the_slot(self, walk_products):
        rng = random.Random(44)
        a, b = random_rank_matrix(rng, 4, -3, 3), random_rank_matrix(rng, 4, -3, 3)
        assert a != b
        first = cell_trace(a, 40)
        other = degree_sequence(b, 40)
        again = cell_trace(a, 40)
        assert walk_products[0] == 3 * 39
        assert again == first
        assert other.terms == tuple(degree(mat_pow(b, n)) for n in range(1, 41))

    def test_equal_rows_hit_the_slot(self, walk_products):
        a = random_rank_matrix(random.Random(45), 4, -3, 3)
        first = cell_trace(a, 50)
        twin = IntMatrix(tuple(list(row) for row in a.rows))
        assert twin is not a
        assert cell_trace(twin, 50) == first
        assert walk_products[0] == 49

    def test_dual_sequence_walks_the_inverse(self, walk_products):
        forward = degree_sequence(NO_RECURRENCE_3X3, 30)
        dual = dual_degree_sequence(NO_RECURRENCE_3X3, 30)
        assert dual.terms == tuple(
            degree(mat_pow(NO_RECURRENCE_INVERSE, n)) for n in range(1, 31)
        )
        assert dual.terms != forward.terms
        assert degree_sequence(NO_RECURRENCE_3X3, 30) == forward
        assert walk_products[0] == 3 * 29

    def test_analyze_doubled_window_extends_the_walk(self, walk_products, rank_checks):
        # the one matrix of the benchmark's analyze pool whose cross check
        # retries on the doubled window (108 -> 216 powers): a cold walk of
        # 108 makes 107 products, and its extension to 216 makes 108 more;
        # the extension runs no second rank check
        buf = io.StringIO()
        assert run(["analyze", "-m", "[[-1,-3,-2],[-2,-2,2],[-2,-1,3]]"], out=buf) == EXIT_OK
        assert walk_products[0] == 215
        assert rank_checks[0] == 1

    def test_one_rank_check_per_walk(self, walk_products, rank_checks):
        # degrees and cells of one matrix, as a power-stream op asks for
        # them, then a longer window: the check runs when the slot is replaced
        a = random_rank_matrix(random.Random(47), 4, -3, 3)
        degree_sequence(a, 60)
        cell_trace(a, 60)
        cell_trace(a, 120)
        assert rank_checks[0] == 1
        degree_sequence(TRIBONACCI_COMPANION, 10)
        assert rank_checks[0] == 2

    def test_singular_matrix_raises_every_time_and_leaves_the_walk(
        self, walk_products, rank_checks
    ):
        a = random_rank_matrix(random.Random(48), 3, -3, 3)
        held = cell_trace(a, 40)
        singular = IntMatrix(((1, 2), (2, 4)))
        for call in (lambda: degree_sequence(singular, 5), lambda: cell_trace(singular, 5)):
            with pytest.raises(RankDeficient):
                call()
        assert cell_trace(a, 40) == held
        assert (walk_products[0], rank_checks[0]) == (39, 3)


def test_concurrent_callers_see_whole_walks():
    # more threads than cores and a short switch interval, so that callers
    # interleave inside the walk; a half-updated slot would give a wrong answer
    rng = random.Random(46)
    mats = [random_rank_matrix(rng, k, -3, 3) for k in (3, 4, 4, 5)]
    calls = [(m, n) for n in (20, 45, 70) for m in mats]
    expected = {}
    for m, n in calls:
        evict_walk()
        expected[m, n] = cell_trace(m, n)
    wrong = []

    def worker(seed):
        order = random.Random(seed).sample(calls, len(calls))
        try:
            for m, n in order * 3:
                trace, seq = cell_trace(m, n), degree_sequence(m, n)
                if trace != expected[m, n] or seq.terms != trace.degrees:
                    wrong.append((m, n))
        except Exception as exc:  # reported by the assertion below
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def _square(k: int):
    row = st.tuples(*[st.integers(-3, 3)] * k)
    return st.tuples(*[row] * k).map(IntMatrix)


FULL_RANK = st.integers(1, 5).flatmap(_square).filter(lambda a: det(a) != 0)

CALLS = st.lists(
    st.tuples(st.sampled_from("AB"), st.sampled_from(["degrees", "cells"]), st.integers(2, 80)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=100, deadline=None)
@given(FULL_RANK, FULL_RANK, CALLS)
def test_interleaved_calls_match_cold_walks_and_oracles(a, b, calls):
    mats = {"A": a, "B": b}
    answers = []
    for name, kind, n in calls:
        m = mats[name]
        answers.append((m, kind, n, degree_sequence(m, n) if kind == "degrees" else cell_trace(m, n)))
    for m, kind, n, got in answers:
        evict_walk()
        if kind == "degrees":
            assert got == degree_sequence(m, n)
            degrees = got.terms
        else:
            assert got == cell_trace(m, n)
            degrees = got.degrees
        for p in sorted({1, (n + 1) // 2, n}):
            power = mat_pow(m, p)
            assert degrees[p - 1] == homogenization_degree(power)
            if kind == "cells":
                cells = achieving_cells(power)
                assert got.representatives[p - 1] == min(cells)
                assert got.tie_counts[p - 1] == len(cells)
