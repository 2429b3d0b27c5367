import random

import pytest

from monodeg.cells import STABILIZED, UNRESOLVED
from monodeg.degree import degree_sequence
from monodeg.errors import NotUnimodular, RankDeficient, WindowTooShort
from monodeg.exact import IntMatrix, IntPoly, det
from monodeg.recur import find_recurrence
from monodeg.spectra import EQ, spectral_summary
from monodeg.verdict import (
    DUALITY_THM_1_2,
    NO_RECURRENCE_PROVEN,
    PROP_3_1,
    RECURRENCE_PROVEN,
    THM_1_1_PART1,
    THM_2_7_CHARPOLY,
    UNKNOWN,
    classify_d1,
    classify_dual,
    cross_check,
)

from conftest import (
    NO_RECURRENCE_3X3,
    PAIR_2X2,
    QUARTER_ROTATION,
    TRIBONACCI_COMPANION,
)
from oracles import check_candidate, random_rank_matrix, random_unimodular


class TestClassifyD1:
    def test_no_recurrence_matrix(self):
        v = classify_d1(NO_RECURRENCE_3X3)
        assert v.classification == NO_RECURRENCE_PROVEN
        assert v.basis == PROP_3_1

    def test_companion_charpoly_basis(self):
        v = classify_d1(TRIBONACCI_COMPANION)
        assert v.classification == RECURRENCE_PROVEN
        assert v.basis == THM_2_7_CHARPOLY
        assert v.recurrence is not None
        assert v.recurrence.char_poly() == IntPoly((-1, -1, -1, 1))

    def test_duplicated_pair_unknown(self):
        a = IntMatrix(((1, -2, 0, 0), (1, 1, 0, 0), (0, 0, 1, -2), (0, 0, 1, 1)))
        v = classify_d1(a)
        assert v.classification == UNKNOWN

    def test_quarter_rotation_unity(self):
        v = classify_d1(QUARTER_ROTATION)
        assert v.classification == RECURRENCE_PROVEN
        assert v.basis == THM_1_1_PART1
        assert 2 in v.details["unity_orders"]
        # the attached recurrence annihilates the actual degree sequence
        seq = degree_sequence(QUARTER_ROTATION, 24).terms
        p = v.recurrence.char_poly()
        assert p is not None
        assert check_candidate(seq, p) is not None

    def test_pair_2x2_no_recurrence(self):
        v = classify_d1(PAIR_2X2)
        assert v.classification == NO_RECURRENCE_PROVEN
        assert v.basis == PROP_3_1

    def test_negative_real_dominant(self):
        a = IntMatrix(((-2, 0), (0, 1)))
        v = classify_d1(a)
        assert v.classification == RECURRENCE_PROVEN
        assert v.basis == THM_1_1_PART1  # dominant eigenvalue real but negative
        seq = degree_sequence(a, 20).terms
        assert check_candidate(seq, v.recurrence.char_poly()) is not None

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            classify_d1(IntMatrix(((1, 2), (2, 4))))

    def test_salem_companion_is_unknown(self):
        # dominant eigenvalue is real but a non-cyclotomic unit-modulus pair
        # breaks the unity hypothesis while the top class is not a pair, so
        # neither criterion applies
        a = IntMatrix(((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, 1, 1, 1)))
        v = classify_d1(a)
        assert v.classification == UNKNOWN

    def test_unresolved_certification_becomes_unknown(self, monkeypatch):
        import monodeg.verdict as verdict_mod
        from monodeg.errors import UnresolvedCertification

        def boom(a, bits):
            raise UnresolvedCertification("forced for the test")

        monkeypatch.setattr(verdict_mod, "spectral_summary", boom)
        v = classify_d1(TRIBONACCI_COMPANION)
        assert v.classification == UNKNOWN
        assert "unresolved" in v.details


    def test_isolation_failure_becomes_unknown(self, monkeypatch):
        import monodeg.spectra as spectra_mod

        monkeypatch.setattr(spectra_mod, "_aberth_starts", lambda p, npairs: None)
        monkeypatch.setattr(spectra_mod, "_complex_starts", lambda p, npairs, dps: None)
        v = classify_d1(PAIR_2X2)
        assert v.classification == UNKNOWN
        assert "did not converge" in v.details["unresolved"]


class TestClassifyDual:
    def test_no_recurrence_matrix_dual_proves_recurrence(self):
        v = classify_dual(NO_RECURRENCE_3X3)
        assert v.classification == RECURRENCE_PROVEN
        assert v.basis == DUALITY_THM_1_2
        assert v.details["inner_basis"] == THM_2_7_CHARPOLY

    def test_companion_dual_proves_no_recurrence(self):
        v = classify_dual(TRIBONACCI_COMPANION)
        assert v.classification == NO_RECURRENCE_PROVEN
        assert v.basis == DUALITY_THM_1_2
        assert v.details["inner_basis"] == PROP_3_1

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            classify_dual(IntMatrix(((2, 0), (0, 3))))

    def test_dichotomy_on_unimodular_3x3(self):
        rng = random.Random(71)
        checked = 0
        while checked < 12:
            a = random_unimodular(rng, 3)
            if det(a) == 0:
                continue
            summary = spectral_summary(a)
            if any(c.versus_one == EQ for c in summary.modulus_classes):
                continue  # the clean dichotomy assumes no modulus-one eigenvalues
            has_pair = any(not b.is_real for b in summary.roots)
            v1 = classify_d1(a)
            v2 = classify_dual(a)
            if has_pair:
                assert {v1.classification, v2.classification} == {
                    RECURRENCE_PROVEN,
                    NO_RECURRENCE_PROVEN,
                }, (a, v1, v2)
            else:
                assert v1.classification == RECURRENCE_PROVEN
                assert v2.classification == RECURRENCE_PROVEN
            checked += 1


class TestCrossCheck:
    def test_no_recurrence_matrix_consistent(self):
        report = cross_check(NO_RECURRENCE_3X3, window=60, max_order=10)
        assert report.status == "CONSISTENT"
        assert report.recurrence is None
        assert report.trace.status.kind != STABILIZED

    def test_companion_consistent(self):
        report = cross_check(TRIBONACCI_COMPANION, window=40, max_order=6)
        assert report.status == "CONSISTENT"
        assert report.verdict.basis == THM_2_7_CHARPOLY

    def test_identity_consistent(self):
        report = cross_check(IntMatrix.identity(3), window=30, max_order=4)
        assert report.status == "CONSISTENT"
        assert report.recurrence is not None
        assert report.recurrence.order == 1
        assert report.trace.status.kind == STABILIZED
        assert report.trace.status.from_index == 1

    def test_guard_is_honoured(self):
        report = cross_check(NO_RECURRENCE_3X3, window=60, max_order=10, guard=25)
        assert report.bounds == {"window": 60, "max_order": 10, "guard": 25}
        assert report.sequence.terms == degree_sequence(NO_RECURRENCE_3X3, 60).terms
        with pytest.raises(WindowTooShort):
            cross_check(NO_RECURRENCE_3X3, window=60, max_order=10, guard=41)

    def test_persistent_stabilization_conflict_is_reported(self, monkeypatch):
        # force a stabilized trace for a proven non-recurrence matrix: the
        # cross check must retry on a doubled window and then flag it
        import monodeg.verdict as verdict_mod
        from monodeg.cells import CellTrace, TraceStatus
        from monodeg.degree import canonical_cell

        calls = []

        def fake_trace(a, window):
            calls.append(window)
            rep, _ = canonical_cell(a)
            return CellTrace(
                source=a,
                window=window,
                degrees=degree_sequence(a, window).terms,
                representatives=(rep,) * window,
                tie_counts=(1,) * window,
                switch_indices=(),
                status=TraceStatus(STABILIZED, cell=rep, from_index=1),
            )

        monkeypatch.setattr(verdict_mod, "cell_trace", fake_trace)
        report = cross_check(NO_RECURRENCE_3X3, window=60, max_order=10)
        assert report.status == "INCONSISTENT"
        assert calls == [60, 120]  # the doubled-window retry happened
        assert any("stabilized" in c for c in report.conflicts)

    def test_persistent_candidate_conflict_is_reported(self, monkeypatch):
        # give a proven non-recurrence matrix a linear degree sequence: the
        # search finds (x - 1)^2, the cross check retries it on a doubled
        # window, where it still holds, and then flags it
        import monodeg.verdict as verdict_mod
        from monodeg.cells import CellTrace, TraceStatus
        from monodeg.degree import canonical_cell

        calls = []

        def fake_trace(a, window):
            calls.append(window)
            rep, _ = canonical_cell(a)
            return CellTrace(
                source=a,
                window=window,
                degrees=tuple(range(2, window + 2)),
                representatives=(rep,) * window,
                tie_counts=(1,) * window,
                switch_indices=(),
                status=TraceStatus(UNRESOLVED),
            )

        monkeypatch.setattr(verdict_mod, "cell_trace", fake_trace)
        report = cross_check(NO_RECURRENCE_3X3, window=60, max_order=10)
        assert report.recurrence.char_poly() == IntPoly((1, -2, 1))
        assert report.status == "INCONSISTENT"
        assert calls == [60, 120]  # the doubled-window retry happened
        assert any("order-2 candidate" in c for c in report.conflicts)


class TestCorpusProperties:
    def test_disjoint_deterministic_and_sound(self):
        rng = random.Random(2024)
        matrices = [random_rank_matrix(rng, rng.choice([2, 3, 4]), -3, 3) for _ in range(60)]
        for a in matrices:
            v1 = classify_d1(a, precision_bits=256)
            v2 = classify_d1(a, precision_bits=512)
            assert {v1.classification, v2.classification} != {
                RECURRENCE_PROVEN,
                NO_RECURRENCE_PROVEN,
            }
            if v1.classification != UNKNOWN and v2.classification != UNKNOWN:
                assert v1.classification == v2.classification
                assert v1.basis == v2.basis
            if v1.classification == NO_RECURRENCE_PROVEN:
                k = a.k
                max_order = 2 * k * k
                seq = degree_sequence(a, 6 * max_order).terms
                assert find_recurrence(seq, max_order, 4 * max_order) is None, a
            elif v1.classification == RECURRENCE_PROVEN:
                # soundness: the theorem-attached recurrence must verify
                # exactly; the bounded search must agree whenever its fit
                # window can reach the verified tail (order can exceed 2k^2
                # and the offset can lie past the start of the fit window,
                # see the regression tests below)
                k = a.k
                p = v1.recurrence.char_poly()
                assert p is not None
                window = max(6 * 2 * k * k, 6 * p.degree)
                seq = degree_sequence(a, window).terms
                offset = check_candidate(seq, p)
                assert offset is not None, a
                max_order = max(2 * k * k, p.degree)
                if offset <= max_order:
                    found = find_recurrence(seq, max_order, 4 * max_order)
                    assert found is not None, a

    def test_unity_order_six_regression(self):
        # eigenvalue ratio is a primitive 6th root of unity; A^12 = 729*I so
        # the degree sequence obeys x^12 - 729 and nothing shorter
        a = IntMatrix(((0, 3), (-1, -3)))
        v = classify_d1(a)
        assert v.classification == RECURRENCE_PROVEN
        assert v.basis == THM_1_1_PART1
        assert 6 in v.details["unity_orders"]
        seq = degree_sequence(a, 80).terms
        assert find_recurrence(seq, 8, 16) is None
        found = find_recurrence(seq, 12, 16)
        assert found is not None and found.order == 12
        assert check_candidate(seq, v.recurrence.char_poly()) is not None

    def test_slow_cell_stabilization_regression(self):
        # all-real spectrum with two close moduli: the attached stride-2
        # recurrence holds only from a deep offset, so the bounded search
        # fitting the first 2*max_order terms of a default window cannot see it
        a = IntMatrix(((-2, 2, 2, 1), (0, 2, -2, -1), (2, -1, -1, -1), (-3, -2, 1, 1)))
        v = classify_d1(a)
        assert v.classification == RECURRENCE_PROVEN
        assert v.basis == THM_1_1_PART1
        seq = degree_sequence(a, 150).terms
        offset = check_candidate(seq, v.recurrence.char_poly())
        assert offset is not None
        assert offset > 2 * a.k * a.k  # past the default max_order
