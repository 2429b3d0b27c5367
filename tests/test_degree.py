import random

import pytest

from monodeg.degree import (
    FunctionalIndex,
    _rows_cell_and_degree,
    degree,
    degree_sequence,
    dual_degree_sequence,
)
from monodeg.errors import DimensionMismatch, NotUnimodular, RankDeficient
from monodeg.exact import IntMatrix

from conftest import NO_RECURRENCE_3X3, NO_RECURRENCE_INVERSE
from oracles import (
    achieving_cells,
    functional_set,
    functional_value,
    homogenization_degree,
    mat_mul,
    mat_pow,
    random_matrix,
    random_rank_matrix,
)


class TestFunctionalSet:
    @pytest.mark.parametrize("k,size", [(1, 4), (2, 27), (3, 256)])
    def test_cardinality(self, k, size):
        assert len(functional_set(k)) == size

    def test_lexicographic_order(self):
        fs = functional_set(1)
        assert [f.choices for f in fs] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_component_range_validation(self):
        with pytest.raises(ValueError):
            FunctionalIndex((0, 5))

    @pytest.mark.parametrize("choices", [(1.7, "0", True), (1.0, 0), (0, "1")])
    def test_components_must_be_integers(self, choices):
        # floats and strings are not truncated or parsed into a branch choice
        with pytest.raises(TypeError):
            FunctionalIndex(choices)


class TestFunctionalValue:
    def test_all_zero_functional(self):
        rng = random.Random(1)
        zero3 = FunctionalIndex((0, 0, 0, 0))
        for _ in range(5):
            assert functional_value(zero3, random_matrix(rng, 3, -5, 5)) == 0

    def test_hand_value(self):
        c = FunctionalIndex((3, 2, 0, 0))
        assert functional_value(c, NO_RECURRENCE_3X3) == 2

    def test_identity_row_sum(self):
        c = FunctionalIndex((1, 0, 0, 0))
        assert functional_value(c, IntMatrix.identity(3)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            functional_value(FunctionalIndex((0, 0)), IntMatrix.identity(2))

    def test_degree_is_max_over_functionals(self):
        rng = random.Random(101)
        for _ in range(200):
            k = rng.choice([1, 2, 3])
            a = random_matrix(rng, k, -4, 4)
            if a.is_zero:
                continue
            values = [functional_value(c, a) for c in functional_set(k)]
            assert degree(a) == max(values)
            assert max(values) >= 1


class TestDegree:
    def test_hand_example(self):
        assert degree(NO_RECURRENCE_3X3) == 2

    def test_identity(self):
        for k in (1, 2, 3, 4):
            assert degree(IntMatrix.identity(k)) == 1

    def test_negated_identity(self):
        assert degree(IntMatrix(((-1, 0, 0), (0, -1, 0), (0, 0, -1)))) == 3

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            degree(IntMatrix(((0, 0), (0, 0))))

    def test_oracle_equivalence(self):
        rng = random.Random(55)
        for _ in range(50):
            k = rng.choice([2, 3, 4])
            a = random_matrix(rng, k, -5, 5)
            if a.is_zero:
                continue
            assert degree(a) == homogenization_degree(a)

    def test_submultiplicativity(self):
        rng = random.Random(77)
        for _ in range(20):
            a = random_rank_matrix(rng, rng.choice([2, 3]), -3, 3)
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            assert degree(mat_pow(a, m + n)) <= degree(mat_pow(a, m)) * degree(mat_pow(a, n))

    def test_permutation_invariance(self):
        rng = random.Random(88)
        p3 = IntMatrix(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
        q3 = IntMatrix(((0, 0, 1), (1, 0, 0), (0, 1, 0)))
        for _ in range(20):
            a = random_matrix(rng, 3, -4, 4)
            if a.is_zero:
                continue
            assert degree(mat_mul(mat_mul(p3, a), q3)) == degree(a)


class TestAchievingCells:
    """The achieving-cell oracle against brute force, and the package's one
    cell kernel against the oracle."""

    def test_single_entry_matrix(self):
        cells = achieving_cells(IntMatrix(((2,),)))
        assert cells == {FunctionalIndex((1, 0))}

    def test_identity_has_ties(self):
        assert len(achieving_cells(IntMatrix.identity(3))) > 1

    def test_nonempty_on_randoms(self):
        rng = random.Random(91)
        for _ in range(100):
            a = random_matrix(rng, rng.choice([2, 3]), -4, 4)
            if a.is_zero:
                continue
            cells = achieving_cells(a)
            assert cells
            d = degree(a)
            for c in cells:
                assert functional_value(c, a) == d

    def test_matches_brute_force_enumeration(self):
        rng = random.Random(92)
        for _ in range(40):
            a = random_matrix(rng, rng.choice([1, 2, 3]), -3, 3)
            if a.is_zero:
                continue
            d = degree(a)
            brute = {c for c in functional_set(a.k) if functional_value(c, a) == d}
            assert achieving_cells(a) == brute

    def test_canonical_is_lex_least_with_tie_count(self):
        rng = random.Random(93)
        for _ in range(40):
            a = random_matrix(rng, rng.choice([2, 3]), -3, 3)
            if a.is_zero:
                continue
            cells = achieving_cells(a)
            rep, ties, d = _rows_cell_and_degree(a.rows)
            assert FunctionalIndex(rep) == min(cells)
            assert ties == len(cells)
            assert d == homogenization_degree(a)


class TestDegreeSequence:
    def test_forward_golden_prefix(self):
        seq = degree_sequence(NO_RECURRENCE_3X3, 4)
        assert seq.terms == (2, 3, 4, 6)

    def test_fourth_power_hand_value(self):
        a4 = mat_pow(NO_RECURRENCE_3X3, 4)
        assert a4 == IntMatrix(((-3, 2, 0), (-2, -1, 2), (2, 0, -1)))
        assert degree(a4) == 6

    def test_inverse_golden_prefix(self):
        seq = degree_sequence(NO_RECURRENCE_INVERSE, 5)
        assert seq.terms == (2, 4, 7, 13, 24)

    def test_identity_sequence(self):
        assert degree_sequence(IntMatrix.identity(3), 5).terms == (1, 1, 1, 1, 1)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            degree_sequence(IntMatrix(((1, 1), (1, 1))), 3)

    def test_terms_recomputable_from_source(self):
        rng = random.Random(95)
        a = random_rank_matrix(rng, 3, -3, 3)
        seq = degree_sequence(a, 6)
        for n, term in enumerate(seq.terms, start=1):
            assert term == degree(mat_pow(a, n))
            assert term >= 1


class TestDualDegreeSequence:
    def test_golden_dual(self):
        seq = dual_degree_sequence(NO_RECURRENCE_3X3, 5)
        assert seq.terms == (2, 4, 7, 13, 24)
        assert seq.dual is True
        assert seq.source == NO_RECURRENCE_3X3

    def test_identity(self):
        assert dual_degree_sequence(IntMatrix.identity(2), 4).terms == (1, 1, 1, 1)

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            dual_degree_sequence(IntMatrix(((2, 0), (0, 3))), 3)

    def test_equals_sequence_of_inverse(self):
        from monodeg.exact import inverse_unimodular
        from oracles import random_unimodular

        rng = random.Random(96)
        for _ in range(8):
            a = random_unimodular(rng, 3)
            dual = dual_degree_sequence(a, 6)
            direct = degree_sequence(inverse_unimodular(a), 6)
            assert dual.terms == direct.terms
