import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import monodeg.recur as recur_mod
from monodeg.degree import degree_sequence
from monodeg.errors import WindowTooShort
from monodeg.exact import IntPoly
from monodeg.recur import (
    Recurrence,
    berlekamp_massey,
    eventually_periodic,
    find_recurrence,
    verify_recurrence,
)

from conftest import NO_RECURRENCE_3X3, NO_RECURRENCE_INVERSE, recurrence_poly
from oracles import (
    check_candidate,
    eventually_periodic_oracle,
    hankel_min_order,
    verify_recurrence_oracle,
)


def run_recurrence(coeffs, seeds, n):
    """Generate n terms of the monic recurrence with the given coefficients."""
    m = len(coeffs)
    seq = list(seeds)
    while len(seq) < n:
        nxt = -sum(Fraction(coeffs[i]) * seq[-m + i] for i in range(m))
        seq.append(nxt)
    return seq


class TestBerlekampMassey:
    def test_fibonacci(self):
        rec = berlekamp_massey([1, 1, 2, 3, 5, 8, 13, 21])
        assert rec is not None
        assert rec.order == 2
        assert recurrence_poly(rec) == IntPoly((-1, -1, 1))  # x^2 - x - 1

    def test_inverse_map_sequence(self):
        rec = berlekamp_massey([2, 4, 7, 13, 24, 44, 81, 149, 274, 504])
        assert rec is not None
        assert rec.order == 3
        assert recurrence_poly(rec) == IntPoly((-1, -1, -1, 1))  # x^3 - x^2 - x - 1

    def test_constant(self):
        rec = berlekamp_massey([1, 1, 1, 1])
        assert rec is not None
        assert rec.order == 1
        assert recurrence_poly(rec) == IntPoly((-1, 1))

    def test_insufficient_evidence_returns_none(self):
        # 6 generic terms force order > 3, more than half the window
        assert berlekamp_massey([1, 2, 4, 9, 21, 52]) is None or berlekamp_massey(
            [1, 2, 4, 9, 21, 52]
        ).order <= 3

    def test_random_recurrences_recover_exact_order(self):
        rng = random.Random(4)
        for _ in range(25):
            m = rng.randint(1, 5)
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
            seeds = [Fraction(rng.randint(1, 9)) for _ in range(m)]
            seq = run_recurrence(coeffs, seeds, 4 * m)
            rec = berlekamp_massey(seq)
            assert rec is not None
            assert rec.order <= m
            # the result annihilates its window exactly
            assert verify_recurrence(seq, rec) == 1

    def test_agrees_with_hankel_rank_oracle(self):
        rng = random.Random(6)
        for _ in range(15):
            m = rng.randint(1, 4)
            coeffs = [rng.choice([-2, -1, 1, 2]) for _ in range(m)]
            seeds = [rng.randint(1, 5) for _ in range(m)]
            seq = [int(x) for x in run_recurrence(coeffs, seeds, 6 * m + 2)]
            rec = berlekamp_massey(seq)
            assert rec is not None
            oracle = hankel_min_order(seq, m + 1)
            assert rec.order == oracle


class TestVerifyRecurrence:
    def test_tribonacci_seeds(self):
        rec = Recurrence.from_poly(IntPoly((-1, -1, -1, 1)))
        assert verify_recurrence([2, 4, 7, 13, 24, 44, 81], rec) == 1

    def test_corrupted_head(self):
        rec = Recurrence.from_poly(IntPoly((-1, -1, 1)))  # x^2 - x - 1
        assert verify_recurrence([5, 1, 1, 2, 3, 5, 8], rec) == 2

    def test_broken_tail_fails(self):
        rec = Recurrence.from_poly(IntPoly((-2, 1)))  # x - 2
        assert verify_recurrence([1, 2, 4, 8, 17], rec) is None

    def test_short_sequence_rejected(self):
        rec = Recurrence.from_poly(IntPoly((-1, -1, 1)))
        with pytest.raises(ValueError):
            verify_recurrence([1, 1], rec)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.fractions(-3, 3, max_denominator=4), min_size=1, max_size=4),
    st.lists(st.fractions(-5, 5, max_denominator=3), min_size=4, max_size=4),
    st.integers(0, 20),
    st.data(),
)
def test_verify_matches_fraction_loop(coeffs, seeds, head, data):
    # fixed length 30: a junk head, a planted relation (integral or rational),
    # optionally one corrupted term; integral terms are passed as ints, so
    # integer and rational sequences both occur
    rec = Recurrence(tuple(coeffs))
    junk = data.draw(st.lists(st.integers(-50, 50), min_size=head, max_size=head))
    seq = junk + run_recurrence(coeffs, seeds[: rec.order], 30 - head)
    if data.draw(st.booleans()):
        seq[data.draw(st.integers(0, 29))] += 1
    seq = [int(x) if Fraction(x).denominator == 1 else x for x in seq]
    assert verify_recurrence(seq, rec) == verify_recurrence_oracle(seq, rec)


class TestCheckCandidate:
    def test_companion_sequence_offset_one(self):
        p = IntPoly((-1, -1, -1, 1))  # t^3 - t^2 - t - 1
        assert check_candidate([3, 5, 9, 17, 31, 57], p) == 1

    def test_identity_sequence(self):
        from monodeg.exact import IntMatrix

        seq = degree_sequence(IntMatrix.identity(3), 6).terms
        assert check_candidate(seq, IntPoly((-1, 1))) == 1

    def test_fails(self):
        assert check_candidate([2, 3, 4, 6], IntPoly((-1, 1))) is None

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            check_candidate([1, 2, 3, 4], IntPoly((-1, 2)))


class TestFindRecurrence:
    def test_inverse_map_twenty_terms(self):
        terms = degree_sequence(NO_RECURRENCE_INVERSE, 20).terms
        rec = find_recurrence(terms, max_order=6, guard=8)
        assert rec is not None
        assert recurrence_poly(rec) == IntPoly((-1, -1, -1, 1))
        assert rec.valid_from == 1

    def test_forward_sequence_finds_nothing(self):
        terms = degree_sequence(NO_RECURRENCE_3X3, 60).terms
        assert find_recurrence(terms, max_order=10, guard=20) is None

    def test_all_ones(self):
        rec = find_recurrence([1] * 30, max_order=4, guard=10)
        assert rec is not None
        assert rec.order == 1

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            find_recurrence([1, 2, 3], max_order=4, guard=4)

    def test_monotone_in_guard(self):
        terms = degree_sequence(NO_RECURRENCE_INVERSE, 40).terms
        rec_big = find_recurrence(terms, max_order=6, guard=20)
        assert rec_big is not None
        for guard in (16, 12, 8, 4, 1):
            assert find_recurrence(terms, max_order=6, guard=guard) == rec_big

    def test_eventual_recurrence_with_dropped_head(self):
        # clean geometric tail after two junk terms
        seq = [9, 7] + [2**i for i in range(28)]
        rec = find_recurrence(seq, max_order=4, guard=8)
        assert rec is not None
        assert rec.order == 1
        assert recurrence_poly(rec) == IntPoly((-2, 1))
        assert rec.valid_from == 3

    def test_one_fit_per_search(self, monkeypatch):
        calls = []

        def spy(seq):
            calls.append(len(seq))
            return berlekamp_massey(seq)

        monkeypatch.setattr(recur_mod, "berlekamp_massey", spy)
        seq = [9, 7] + [2**i for i in range(98)]
        rec = find_recurrence(seq, max_order=4, guard=8)
        assert calls == [8]
        assert recurrence_poly(rec) == IntPoly((-2, 1))
        assert rec.valid_from == 3

    def test_power_of_x_factor_becomes_valid_from(self):
        # the fit on the first 2*max_order terms is x^3 * (x - 3): a head of
        # three terms followed by a geometric tail
        seq = [5, -1, 4] + [3**i for i in range(21)]
        rec = find_recurrence(seq, max_order=4, guard=16)
        assert recurrence_poly(rec) == IntPoly((-3, 1))
        assert rec.valid_from == 4

    def test_stripped_relation_needs_the_guard_tail(self):
        # the fit is x^3 * (x - 2), so x - 2 would have to hold from index 4;
        # the guard tail breaks it and only its last two terms agree again,
        # which is no evidence, so nothing is reported
        seq = [1, 3, 2, 1, 2, 4, 8, 16] + [1, 1, 1, 5, 2, 9, 3, 6]
        assert find_recurrence(seq, max_order=4, guard=8) is None


M, GUARD, N = 4, 8, 40  # fixed sizes: the fit window starts at N - GUARD - 2M


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, M).flatmap(
        lambda r: st.tuples(
            st.lists(st.integers(-3, 3), min_size=r - 1, max_size=r - 1),
            st.integers(-3, 3).filter(bool),
            st.lists(st.integers(-5, 5), min_size=r, max_size=r),
        )
    ),
    st.integers(0, N - GUARD - 2 * M),
    st.data(),
)
def test_relation_after_junk_head_is_found(relation, head, data):
    upper, a0, seeds = relation
    coeffs = [a0] + upper  # nonzero constant term: no x^j factor to strip
    junk = data.draw(st.lists(st.integers(-50, 50), min_size=head, max_size=head))
    tail = run_recurrence(coeffs, seeds, N - head)
    seq = junk + [int(x) for x in tail]
    rec = find_recurrence(seq, max_order=M, guard=GUARD)
    assert rec is not None
    assert rec.order <= len(coeffs)
    assert rec.valid_from <= head + 1
    assert verify_recurrence(seq, rec) == rec.valid_from


class TestEventuallyPeriodic:
    def test_pure_period_two(self):
        assert eventually_periodic(list("ababab"), window=6) == (0, 2)

    def test_preperiod_two(self):
        assert eventually_periodic(list("ccababab"), window=6) == (2, 2)

    def test_none_within_window(self):
        assert eventually_periodic(list("abaabb"), window=6) is None

    def test_window_validation(self):
        with pytest.raises(ValueError):
            eventually_periodic(list("ab"), window=3)

    def test_planted_agreement_progression(self):
        # two recurrence-driven sequences agreeing exactly on 4 + 3Z; the
        # indicator is 3-periodic already from index 2 (minimal preperiod)
        a = [0] * 40
        b = [0 if (i >= 4 and (i - 4) % 3 == 0) else 1 for i in range(40)]
        indicator = [x == y for x, y in zip(a, b)]
        pre, period = eventually_periodic(indicator, window=30)
        assert period == 3
        assert pre == 2
        assert all(indicator[i] == indicator[i + 3] for i in range(pre, 37))
        assert indicator[pre - 1] != indicator[pre - 1 + 3]

    def test_comparisons_are_linear(self):
        # 250 random symbols, then 150 of period 6: the tail is too short for
        # window 200, so every period is tried; the triple loop makes about
        # 46k comparisons here, one backward scan per period about 2k
        calls = [0]

        class Symbol:
            def __init__(self, value):
                self.value = value

            def __eq__(self, other):
                calls[0] += 1
                return self.value == other.value

        rng = random.Random(6)
        block = (0, 1, 2, 0, 2, 1)
        values = [rng.randrange(3) for _ in range(250)] + [block[i % 6] for i in range(150)]
        n = len(values)
        hit = eventually_periodic([Symbol(v) for v in values], window=200)
        assert hit == eventually_periodic_oracle(values, window=200)
        assert calls[0] < 10 * n


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.data())
def test_detector_matches_triple_loop_oracle(alphabet, data):
    symbol = st.integers(0, alphabet - 1)
    head = data.draw(st.lists(symbol, max_size=60))
    block = data.draw(st.lists(symbol, min_size=1, max_size=8))
    planted = data.draw(st.integers(0, 60 - len(head)))  # 0: no periodic tail
    seq = head + [block[i % len(block)] for i in range(planted)]
    assume(seq)
    n = len(seq)
    for window in (1, (n + 1) // 2, n):
        assert eventually_periodic(seq, window) == eventually_periodic_oracle(seq, window)


class TestRecurrenceType:
    def test_order_positive(self):
        with pytest.raises(ValueError):
            Recurrence(())

    def test_format_monic(self):
        rec = Recurrence.from_poly(IntPoly((-1, -1, 1)))
        assert rec.format() == "x^2 - x - 1"

    def test_format_order_one_rational(self):
        assert Recurrence((Fraction(1, 2),)).format() == "x + 1/2"

    def test_format_rational(self):
        rec = Recurrence((Fraction(-1, 2), Fraction(0), Fraction(3, 2)))
        assert rec.format() == "x^3 + 3/2*x^2 - 1/2"

    def test_format_zero_polynomial(self):
        assert IntPoly().format() == "0"
