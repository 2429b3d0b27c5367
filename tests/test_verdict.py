import dataclasses
import json
import random
import sys
import threading

import pytest

from monodeg.cells import STABILIZED, UNRESOLVED
from monodeg.degree import degree_sequence
from monodeg.errors import (
    NotUnimodular,
    RankDeficient,
    UnresolvedCertification,
    WindowTooShort,
)
from monodeg.exact import IntMatrix, IntPoly, char_poly, det, inverse_unimodular
from monodeg.recur import Recurrence, find_recurrence
from monodeg.spectra import EQ, ROOT_OF_UNITY, RatioFlag, reciprocal_summary, spectral_summary
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
from monodeg.verdict import _classify_from_summary, _modulus_ge_one_indices, _power_recurrence

from conftest import (
    NO_RECURRENCE_3X3,
    PAIR_2X2,
    QUARTER_ROTATION,
    TRIBONACCI_COMPANION,
    evict_summary,
    recurrence_poly,
)
from test_cli import count_calls
from test_spectra_golden import MATRICES
from test_verdict_golden import GOLDEN_PATH
from oracles import (
    canonical_cell,
    check_candidate,
    mat_pow,
    random_matrix,
    random_rank_matrix,
    random_unimodular,
)


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
        assert recurrence_poly(v.recurrence) == IntPoly((-1, -1, -1, 1))

    def test_duplicated_pair_unknown(self):
        a = IntMatrix(((1, -2, 0, 0), (1, 1, 0, 0), (0, 0, 1, -2), (0, 0, 1, 1)))
        v = classify_d1(a)
        assert v.classification == UNKNOWN

    def test_quarter_rotation_unity(self):
        v = classify_d1(QUARTER_ROTATION)
        assert v.classification == RECURRENCE_PROVEN
        assert v.basis == THM_1_1_PART1
        s = v.summary
        assert s.ratio_flags[s.dominant_pair[0]] == RatioFlag(ROOT_OF_UNITY, 2)
        # the attached recurrence annihilates the actual degree sequence
        seq = degree_sequence(QUARTER_ROTATION, 24).terms
        p = recurrence_poly(v.recurrence)
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
        assert check_candidate(seq, recurrence_poly(v.recurrence)) is not None

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

        monkeypatch.setattr(spectra_mod, "_aberth_starts", lambda p, bits=None: None)
        v = classify_d1(PAIR_2X2)
        assert v.classification == UNKNOWN
        assert "did not converge" in v.details["unresolved"]

    @pytest.mark.parametrize("a, normally", [
        (NO_RECURRENCE_3X3, PROP_3_1),
        (QUARTER_ROTATION, THM_1_1_PART1),
    ])
    def test_unresolved_ratio_flags_never_prove(self, monkeypatch, a, normally):
        # the dominant pair's ratio flag decides both criteria; left
        # unresolved, neither may fire
        import monodeg.spectra as spectra_mod

        assert classify_d1(a).basis == normally
        unresolved = spectra_mod.RatioFlag(spectra_mod.UNRESOLVED)
        monkeypatch.setattr(spectra_mod, "_attribute_pair", lambda *args: unresolved)
        evict_summary()  # the patched analysis is another function of the rows
        v = classify_d1(a)
        assert v.classification == UNKNOWN
        assert v.basis is None
        assert v.details["unresolved"] == "a needed ratio certification was unresolved"
        pair = [i for i, b in enumerate(v.summary.roots) if not b.is_real]
        assert v.details["unresolved_flags"] == tuple(pair) and len(pair) == 2


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
        with pytest.raises(NotUnimodular, match="determinant 6,"):
            classify_dual(IntMatrix(((2, 0), (0, 3))))

    def test_singular_raises_from_the_analysis(self):
        with pytest.raises(RankDeficient):
            classify_dual(IntMatrix(((1, 2), (2, 4))))

    def test_unimodularity_is_read_off_the_forward_summary(self, monkeypatch):
        # chi_A(0) = (-1)^k det A of the forward summary decides it: no det,
        # and no char_poly beyond the analysis' own
        counts = count_calls(monkeypatch, "det", "char_poly")
        assert classify_dual(NO_RECURRENCE_3X3).basis == DUALITY_THM_1_2
        with pytest.raises(NotUnimodular, match="determinant 6,"):
            classify_dual(IntMatrix(((2, 0), (0, 3))))
        assert counts == {"det": 0, "char_poly": 2}

    def test_unresolved_forward_analysis_still_checks_unimodularity(self, monkeypatch):
        # no summary to read chi_A off: it is computed, and a matrix that is
        # not unimodular still raises; a unimodular one gets an UNKNOWN dual
        import monodeg.spectra as spectra_mod

        monkeypatch.setattr(spectra_mod, "_aberth_starts", lambda p, bits=None: None)
        assert classify_d1(PAIR_2X2).summary is None
        with pytest.raises(NotUnimodular, match="determinant 3,"):
            classify_dual(PAIR_2X2)
        dual = classify_dual(NO_RECURRENCE_3X3)
        assert dual.classification == UNKNOWN and "did not converge" in dual.details["unresolved"]

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


def _seeded_unimodular(seed, per_k=8):
    """Entries in [-2, 2], redrawn until det = +-1, k = 2..5: a spread of
    real, paired, dominant and modulus-one spectra."""
    rng = random.Random(seed)
    out = []
    for k in (2, 3, 4, 5):
        while len(out) < per_k * (k - 1):
            a = random_matrix(rng, k, -2, 2)
            if det(a) in (1, -1):
                out.append(a)
    return out


def _disks_meet(b1, b2) -> bool:
    dx = b1.center[0] - b2.center[0]
    dy = b1.center[1] - b2.center[1]
    return dx * dx + dy * dy <= (b1.radius + b2.radius) ** 2


class TestDualFromForwardSpectrum:
    def test_matches_classification_of_the_inverse(self):
        for a in _seeded_unimodular(83):
            dual = classify_dual(a)
            inner = classify_d1(inverse_unimodular(a))
            assert dual.classification == inner.classification, a
            assert dual.details.get("inner_basis") == inner.basis, a
            assert dual.recurrence == inner.recurrence, a
            assert dual.summary.char_poly == inner.summary.char_poly, a

    def test_reciprocal_boxes_isolate_the_inverse_spectrum(self):
        for a in _seeded_unimodular(89):
            summary = spectral_summary(a)
            forward, boxes = summary.roots, reciprocal_summary(summary).roots
            direct = spectral_summary(inverse_unimodular(a)).roots
            for box, fb in zip(boxes, forward):
                assert (box.center[1] > 0) == (fb.center[1] > 0), (a, box)  # half-plane kept
                hits = [b for b in direct if _disks_meet(box, b)]
                assert len(hits) == 1, (a, box)
                assert hits[0].is_real == box.is_real, (a, box)
                assert hits[0].multiplicity == box.multiplicity, (a, box)
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    assert not _disks_meet(boxes[i], boxes[j]), (a, i, j)

    def test_dual_dominant_pair_is_the_smallest_modulus_pair(self):
        forward = spectral_summary(TRIBONACCI_COMPANION)
        smallest = forward.modulus_classes[-1].indices
        assert len(smallest) == 2 and not forward.roots[smallest[0]].is_real
        dual = classify_dual(TRIBONACCI_COMPANION)
        assert dual.summary.dominant_pair == smallest
        assert dual.details["dominant_pair"] == smallest

    def test_unpinned_real_sign_stays_unknown(self):
        # a real box that reaches 0 does not certify the sign of its root
        s = spectral_summary(TRIBONACCI_COMPANION)
        i = next(i for i, b in enumerate(s.roots) if b.is_real)
        wide = dataclasses.replace(s.roots[i], radius=abs(s.roots[i].center[0]))
        roots = s.roots[:i] + (wide,) + s.roots[i + 1 :]
        v = _classify_from_summary(dataclasses.replace(s, roots=roots))
        assert v.classification == UNKNOWN
        assert "not pinned" in v.details["unresolved"]

    def test_reciprocal_needs_a_unimodular_spectrum(self):
        with pytest.raises(NotUnimodular):
            reciprocal_summary(spectral_summary(PAIR_2X2))

    def test_power_recurrence_from_power_sums(self):
        rng = random.Random(97)
        for k in (1, 2, 3, 4, 5):
            for _ in range(4):
                a = random_rank_matrix(rng, k, -3, 3)
                for tau in range(1, 7):
                    chi_tau = char_poly(mat_pow(a, tau))
                    stretched = [0] * (k * tau + 1)
                    stretched[::tau] = chi_tau.coeffs
                    expected = Recurrence.from_poly(IntPoly(stretched))
                    assert _power_recurrence(char_poly(a), tau) == expected, (a, tau)


class TestDominantPairIsAmongModulusGeOne:
    # the moduli multiply to |det A| >= 1, so the top class, and with it the
    # dominant pair, has modulus at least 1

    def test_golden_verdicts(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        checked = 0
        for entry in golden.values():
            for key in ("classify_d1", "classify_dual") & entry.keys():
                details = dict(entry[key]["details"])
                if details["dominant_pair"] is not None:
                    assert set(details["dominant_pair"]) <= set(details["modulus_ge_one_indices"])
                    checked += 1
        assert checked >= 5

    def test_golden_and_seeded_summaries(self):
        mats = [IntMatrix(rows) for rows in MATRICES.values()] + _seeded_unimodular(101)
        pairs = 0
        for a in mats:
            summaries = [spectral_summary(a)]
            if det(a) in (1, -1):
                summaries.append(reciprocal_summary(summaries[0]))
            for summary in summaries:
                if summary.dominant_pair is not None:
                    assert set(summary.dominant_pair) <= set(_modulus_ge_one_indices(summary)), a
                    pairs += 1
        assert pairs >= 10


@pytest.fixture
def analyses(monkeypatch):
    """Counter of the spectral analyses that run (char_poly calls inside
    spectra), from no held summary."""
    import monodeg.spectra as spectra_mod

    count = [0]

    def counted(a):
        count[0] += 1
        return char_poly(a)

    monkeypatch.setattr(spectra_mod, "char_poly", counted)
    return count


class TestHeldSummary:
    def test_dual_after_forward_runs_one_analysis(self, analyses):
        d1 = classify_d1(NO_RECURRENCE_3X3)
        dual = classify_dual(NO_RECURRENCE_3X3)
        assert analyses[0] == 1
        assert (d1.basis, dual.basis) == (PROP_3_1, DUALITY_THM_1_2)
        assert dual.summary == reciprocal_summary(d1.summary)

    def test_equal_rows_and_spelled_precision_hit(self, analyses):
        a = TRIBONACCI_COMPANION
        twin = IntMatrix(tuple(list(row) for row in a.rows))
        assert twin is not a
        first = spectral_summary(a)
        assert spectral_summary(twin) is first
        assert spectral_summary(a, 256) is first
        assert spectral_summary(twin, precision_bits=256) is first
        assert analyses[0] == 1

    def test_other_precision_or_matrix_misses(self, analyses):
        a, b = NO_RECURRENCE_3X3, PAIR_2X2
        first = spectral_summary(a)
        coarse = spectral_summary(a, 128)
        assert analyses[0] == 2
        assert spectral_summary(a, 128) is coarse
        assert analyses[0] == 2
        spectral_summary(b, 128)
        assert analyses[0] == 3
        again = spectral_summary(a)
        assert analyses[0] == 4
        assert again == first and again is not first

    def test_singular_raises_every_time(self, analyses):
        warm = spectral_summary(PAIR_2X2)
        singular = IntMatrix(((1, 2), (2, 4)))
        for _ in range(2):
            with pytest.raises(RankDeficient):
                spectral_summary(singular)
        assert analyses[0] == 3
        assert spectral_summary(PAIR_2X2) is warm  # a failure leaves the held summary
        assert analyses[0] == 3

    def test_unresolved_raises_every_time(self, analyses, monkeypatch):
        import monodeg.spectra as spectra_mod

        monkeypatch.setattr(spectra_mod, "_aberth_starts", lambda p, bits=None: None)
        for _ in range(2):
            with pytest.raises(UnresolvedCertification):
                spectral_summary(PAIR_2X2)
        assert analyses[0] == 2

    def test_bad_precision_raises_when_warm(self, analyses):
        spectral_summary(PAIR_2X2)
        for bits in (-1, -256):
            with pytest.raises(ValueError, match="precision must be nonnegative"):
                spectral_summary(PAIR_2X2, bits)
        with pytest.raises(TypeError):  # 256.0 == 256, but a float is no cap
            spectral_summary(PAIR_2X2, 256.0)
        assert analyses[0] == 1

    def test_warm_answers_equal_cold_answers(self, analyses):
        def shown(v):
            return repr(v) + repr(v.summary)

        mats = _seeded_unimodular(103, per_k=3)
        assert {a.k for a in mats} == {2, 3, 4, 5}
        for a in mats:
            evict_summary()
            before = analyses[0]
            cold_d1 = classify_d1(a)
            warm_dual = classify_dual(a)
            warm_d1 = classify_d1(a)
            assert analyses[0] == before + 1, a
            evict_summary()
            cold_dual = classify_dual(a)
            assert shown(warm_d1) == shown(cold_d1), a
            assert shown(warm_dual) == shown(cold_dual), a
            assert warm_d1.summary is cold_d1.summary


def test_concurrent_callers_see_whole_summaries():
    # a short switch interval, so that callers interleave inside the analysis;
    # a half-updated cache would hand one caller another matrix's summary
    rng = random.Random(107)
    mats = [random_unimodular(rng, k) for k in (3, 4, 4, 5)]
    calls = [(m, bits) for bits in (128, 256) for m in mats]
    expected = {}
    for m, bits in calls:
        evict_summary()
        dual = classify_dual(m, bits)
        expected[m, bits] = (spectral_summary(m, bits), dual, dual.summary)
    wrong = []

    def worker(seed):
        order = random.Random(seed).sample(calls, len(calls))
        try:
            for m, bits in order * 10:
                summary = spectral_summary(m, bits)
                dual = classify_dual(m, bits)
                if (summary, dual, dual.summary) != expected[m, bits]:
                    wrong.append((m, bits))
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

        calls = []

        def fake_trace(a, window):
            calls.append(window)
            rep = canonical_cell(a)
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

        calls = []

        def fake_trace(a, window):
            calls.append(window)
            rep = canonical_cell(a)
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
        assert recurrence_poly(report.recurrence) == IntPoly((1, -2, 1))
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
                p = recurrence_poly(v1.recurrence)
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
        assert v.summary.ratio_flags == (RatioFlag(ROOT_OF_UNITY, 6),) * 2
        seq = degree_sequence(a, 80).terms
        assert find_recurrence(seq, 8, 16) is None
        found = find_recurrence(seq, 12, 16)
        assert found is not None and found.order == 12
        assert check_candidate(seq, recurrence_poly(v.recurrence)) is not None

    def test_slow_cell_stabilization_regression(self):
        # all-real spectrum with two close moduli: the attached stride-2
        # recurrence holds only from a deep offset, so the bounded search
        # fitting the first 2*max_order terms of a default window cannot see it
        a = IntMatrix(((-2, 2, 2, 1), (0, 2, -2, -1), (2, -1, -1, -1), (-3, -2, 1, 1)))
        v = classify_d1(a)
        assert v.classification == RECURRENCE_PROVEN
        assert v.basis == THM_1_1_PART1
        seq = degree_sequence(a, 150).terms
        offset = check_candidate(seq, recurrence_poly(v.recurrence))
        assert offset is not None
        assert offset > 2 * a.k * a.k  # past the default max_order
