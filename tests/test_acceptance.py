"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact (integer or enum equality).
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from monodeg.cells import PERIODIC, STABILIZED, cell_trace
from monodeg.degree import degree, degree_sequence
from monodeg.exact import IntPoly, char_poly
from monodeg.recur import berlekamp_massey, find_recurrence
from monodeg.spectra import (
    NOT_ROOT_OF_UNITY,
    ROOT_OF_UNITY,
    RatioFlag,
    spectral_summary,
    squarefree_part,
)
from monodeg.verdict import (
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
    NO_RECURRENCE_INVERSE,
    PAIR_2X2,
    QUARTER_ROTATION,
    TRIBONACCI_COMPANION,
    recurrence_poly,
)
from oracles import (
    check_candidate,
    functional_set,
    homogenization_degree,
    pair_flags_vs_oracle,
    random_rank_matrix,
    unity_order_oracle,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {title}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {title}")


def test_criterion_01_degree_formula_oracle_equivalence():
    with criterion(1, "degree formula equals homogenization oracle on 50 randoms"):
        rng = random.Random(101)
        for i in range(50):
            k = (2, 3, 4)[i % 3]
            a = random_rank_matrix(rng, k, -5, 5)
            assert degree(a) == homogenization_degree(a)


def test_criterion_02_functional_family_size():
    with criterion(2, "functional family has (k+1)^(k+1) members for k=1,2,3"):
        assert len(functional_set(1)) == 4
        assert len(functional_set(2)) == 27
        assert len(functional_set(3)) == 256


def test_criterion_03_inverse_golden_sequence():
    with criterion(3, "inverse-map golden sequence and its order-3 recurrence"):
        seq = degree_sequence(NO_RECURRENCE_INVERSE, 12).terms
        assert seq[:10] == (2, 4, 7, 13, 24, 44, 81, 149, 274, 504)
        for i in range(3, 10):
            assert seq[i] == seq[i - 1] + seq[i - 2] + seq[i - 3]
        rec = berlekamp_massey(list(seq[:12]))
        assert rec is not None
        assert recurrence_poly(rec) == IntPoly((-1, -1, -1, 1))  # x^3 - x^2 - x - 1


def test_criterion_04_forward_behaviour():
    with criterion(4, "forward golden matrix: no recurrence, PROP_3_1, consistent"):
        seq = degree_sequence(NO_RECURRENCE_3X3, 60).terms
        assert seq[:4] == (2, 3, 4, 6)
        assert find_recurrence(seq, max_order=10, guard=20) is None
        v = classify_d1(NO_RECURRENCE_3X3)
        assert v.classification == NO_RECURRENCE_PROVEN
        assert v.basis == PROP_3_1
        report = cross_check(NO_RECURRENCE_3X3, window=60, max_order=10)
        assert report.status == "CONSISTENT"


def test_criterion_05_positive_spectrum_charpoly_recurrence():
    with criterion(5, "companion matrix: char-poly recurrence at offset 1"):
        seq = degree_sequence(TRIBONACCI_COMPANION, 6).terms
        assert seq == (3, 5, 9, 17, 31, 57)
        assert check_candidate(seq, char_poly(TRIBONACCI_COMPANION)) == 1
        v = classify_d1(TRIBONACCI_COMPANION)
        assert v.classification == RECURRENCE_PROVEN
        assert v.basis == THM_2_7_CHARPOLY


def test_criterion_06_duality_dichotomy():
    with criterion(6, "duality dichotomy on the golden pair of matrices"):
        assert classify_d1(NO_RECURRENCE_3X3).classification == NO_RECURRENCE_PROVEN
        assert classify_dual(NO_RECURRENCE_3X3).classification == RECURRENCE_PROVEN
        assert classify_d1(TRIBONACCI_COMPANION).classification == RECURRENCE_PROVEN
        assert classify_dual(TRIBONACCI_COMPANION).classification == NO_RECURRENCE_PROVEN


def test_criterion_07_modulus_one_root_of_unity():
    with criterion(7, "quarter rotation: period-4 sequence, unity order 2"):
        seq = degree_sequence(QUARTER_ROTATION, 40).terms
        assert seq == (2, 2, 2, 1) * 10
        rec = find_recurrence(seq, max_order=8, guard=16)
        assert rec is not None
        assert rec.order == 4
        # equivalent to d[n+4] = d[n]
        assert rec.coefficients == (Fraction(-1), Fraction(0), Fraction(0), Fraction(0))
        v = classify_d1(QUARTER_ROTATION)
        assert v.classification == RECURRENCE_PROVEN
        assert v.basis == THM_1_1_PART1
        s = v.summary
        assert s.ratio_flags[s.dominant_pair[0]] == RatioFlag(ROOT_OF_UNITY, 2)


def test_criterion_08_two_by_two_no_recurrence():
    with criterion(8, "2x2 dominant pair with non-unity ratio"):
        s = spectral_summary(PAIR_2X2)
        assert s.ratio_flags == (RatioFlag(NOT_ROOT_OF_UNITY),) * 2
        v = classify_d1(PAIR_2X2)
        assert v.classification == NO_RECURRENCE_PROVEN
        seq = degree_sequence(PAIR_2X2, 40).terms
        assert find_recurrence(seq, max_order=8, guard=16) is None


def test_criterion_09_pair_ratio_flags():
    with criterion(9, "pair ratio flags equal the mpmath oracle on 100 randoms"):
        rng = random.Random(909)
        checked = 0
        for i in range(100):
            k = (2, 3, 4)[i % 3]
            s = spectral_summary(random_rank_matrix(rng, k, -3, 3))
            oracle = unity_order_oracle(squarefree_part(s.char_poly)[0])
            assert oracle is not None
            for got, want in pair_flags_vs_oracle(s, oracle):
                assert got == want
                checked += 1
        assert checked >= 30


def test_criterion_10_cell_trace_coherence():
    with criterion(10, "cell traces: stabilized, periodic, and switching"):
        companion = cell_trace(TRIBONACCI_COMPANION, 40)
        assert companion.status.kind == STABILIZED
        rotation = cell_trace(QUARTER_ROTATION, 20)
        assert rotation.status.kind == PERIODIC
        assert rotation.status.period == 4
        golden = cell_trace(NO_RECURRENCE_3X3, 200)
        assert golden.status.kind != STABILIZED
        assert len(golden.switch_indices) >= 10


def test_criterion_11_verdict_disjointness_and_determinism():
    with criterion(11, "verdicts deterministic under doubled precision on 300 randoms"):
        rng = random.Random(1111)
        for _ in range(300):
            k = rng.choice([2, 3, 4])
            a = random_rank_matrix(rng, k, -3, 3)
            v1 = classify_d1(a, precision_bits=256)
            v2 = classify_d1(a, precision_bits=512)
            assert {v1.classification, v2.classification} != {
                RECURRENCE_PROVEN,
                NO_RECURRENCE_PROVEN,
            }, a
            if UNKNOWN not in (v1.classification, v2.classification):
                assert v1.classification == v2.classification, a
                assert v1.basis == v2.basis, a
