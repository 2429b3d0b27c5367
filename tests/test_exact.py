import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodeg.errors import DimensionMismatch, NotUnimodular
from monodeg.exact import (
    IntMatrix,
    IntPoly,
    _from_power_sums,
    _multiplier,
    _power_sums,
    _product_rows,
    _pseudo_rem,
    char_poly,
    det,
    inverse_unimodular,
    orders_with_phi_at_most,
    poly_gcd,
)

from conftest import NO_RECURRENCE_3X3, NO_RECURRENCE_INVERSE, TRIBONACCI_COMPANION
from oracles import (
    _bareiss_det_poly,
    cyclotomic,
    divides,
    euler_phi,
    eval_fraction,
    mat_mul,
    mat_pow,
    orders_sieve_oracle,
    poly_at_matrix,
    poly_from_roots,
    poly_mul,
    random_matrix,
    reversal,
)
from test_spectra_golden import MATRICES as GOLDEN_MATRICES


class TestMatMul:
    """The schoolbook oracle by hand, and the package's product kernel
    against it."""

    def test_identity(self):
        a = NO_RECURRENCE_3X3
        assert mat_mul(IntMatrix.identity(3), a) == a

    def test_hand_square(self):
        a = NO_RECURRENCE_3X3
        expected = IntMatrix(((0, -1, 1), (2, -1, 0), (-1, 1, 0)))
        assert mat_mul(a, a) == expected

    def test_product_with_inverse_is_identity(self):
        assert mat_mul(NO_RECURRENCE_3X3, NO_RECURRENCE_INVERSE) == IntMatrix.identity(3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_mul(IntMatrix.identity(2), IntMatrix.identity(3))

    def test_matches_schoolbook_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            k = rng.choice([2, 3, 4])
            a = random_matrix(rng, k, -6, 6)
            b = random_matrix(rng, k, -6, 6)
            assert _product_rows(a.rows, tuple(zip(*b.rows))) == mat_mul(a, b).rows


def _square_pair(k: int):
    """Two k x k matrices A and X with entries in [-3, 3]."""
    square = st.tuples(*[st.tuples(*[st.integers(-3, 3)] * k)] * k).map(IntMatrix)
    return st.tuples(square, square)


def assert_multiplier_product(a: IntMatrix, x: IntMatrix) -> None:
    """The multiplier compiled for A maps X to X*A, as the general product
    and the schoolbook oracle do."""
    product = _multiplier(a.rows)(x.rows)
    assert product == _product_rows(x.rows, tuple(zip(*a.rows)))
    assert product == mat_mul(x, a).rows


class TestMultiplier:
    """The walk's compiled multiplier against the general product and the
    oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(_square_pair))
    def test_small_entries(self, pair):
        assert_multiplier_product(*pair)

    def test_entries_up_to_2_200(self):
        rng = random.Random(29)
        for k in range(1, 7):
            for _ in range(5):
                a = random_matrix(rng, k, -(2**200), 2**200)
                x = random_matrix(rng, k, -(2**200), 2**200)
                assert_multiplier_product(a, x)

    def test_zero_column_is_the_empty_sum(self):
        a = IntMatrix(((2, 0, -1), (1, 0, 3), (-1, 0, 1)))
        x = random_matrix(random.Random(31), 3, -9, 9)
        assert_multiplier_product(a, x)
        assert all(row[1] == 0 for row in _multiplier(a.rows)(x.rows))

    def test_entry_beyond_the_str_digit_limit(self):
        # str(10**5000) raises ValueError under Python's int-to-str limit, so
        # a source text that carried an entry could not even be built
        a = IntMatrix(((10**5000, 1), (1, 1)))
        step = _multiplier(a.rows)
        power = a.rows
        for n in (2, 3):
            power = step(power)
            assert power == mat_pow(a, n).rows


class TestMatPow:
    def test_zeroth_power(self):
        assert mat_pow(NO_RECURRENCE_3X3, 0) == IntMatrix.identity(3)

    def test_quarter_rotation_fourth_power(self):
        r = IntMatrix(((0, -1), (1, 0)))
        assert mat_pow(r, 4) == IntMatrix.identity(2)

    def test_cube_by_hand(self):
        expected = IntMatrix(((2, 0, -1), (-1, 2, -1), (0, -1, 1)))
        assert mat_pow(NO_RECURRENCE_3X3, 3) == expected

    def test_power_addition_law(self):
        rng = random.Random(7)
        for _ in range(10):
            a = random_matrix(rng, 3, -3, 3)
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            assert mat_pow(a, m + n) == mat_mul(mat_pow(a, m), mat_pow(a, n))


class TestDet:
    def test_identity(self):
        assert det(IntMatrix.identity(3)) == 1

    def test_hand_cofactor_value(self):
        assert det(NO_RECURRENCE_3X3) == 1

    def test_diagonal(self):
        assert det(IntMatrix(((2, 0), (0, 3)))) == 6

    def test_multiplicativity(self):
        rng = random.Random(23)
        for _ in range(20):
            k = rng.choice([2, 3, 4])
            a = random_matrix(rng, k, -4, 4)
            b = random_matrix(rng, k, -4, 4)
            assert det(mat_mul(a, b)) == det(a) * det(b)


class TestCharPoly:
    def test_identity_2x2(self):
        # (t - 1)^2 = t^2 - 2t + 1
        assert char_poly(IntMatrix.identity(2)) == IntPoly((1, -2, 1))

    def test_hand_cubic(self):
        # t^3 + t^2 + t - 1
        assert char_poly(NO_RECURRENCE_3X3) == IntPoly((-1, 1, 1, 1))

    def test_companion(self):
        # t^3 - t^2 - t - 1
        assert char_poly(TRIBONACCI_COMPANION) == IntPoly((-1, -1, -1, 1))

    def test_cayley_hamilton(self):
        rng = random.Random(5)
        zero2 = IntMatrix(((0, 0), (0, 0)))
        for _ in range(15):
            k = rng.choice([2, 3, 4])
            a = random_matrix(rng, k, -4, 4)
            result = poly_at_matrix(char_poly(a), a)
            assert result == IntMatrix(((0,) * k,) * k), (a, result)
        assert poly_at_matrix(char_poly(IntMatrix.identity(2)), IntMatrix.identity(2)) == zero2

    @staticmethod
    def _det_t_minus(a: IntMatrix) -> IntPoly:
        """det(tI - A) by fraction-free elimination over Z[t]."""
        return _bareiss_det_poly([
            [IntPoly((-x, int(i == j))) for j, x in enumerate(row)]
            for i, row in enumerate(a.rows)
        ])

    def test_matches_determinant_on_randoms(self):
        # Cayley-Hamilton alone does not pin chi_A on derogatory matrices
        # ((x-1)(x-2) also annihilates I_2), so compare with det(tI - A).
        rng = random.Random(17)
        for k in range(1, 8):
            for _ in range(6):
                a = random_matrix(rng, k, -3, 3)
                assert char_poly(a) == self._det_t_minus(a), a

    @pytest.mark.parametrize(
        "rows",
        [
            IntMatrix.identity(1).rows,
            IntMatrix.identity(4).rows,
            ((2, 1, 0, 0), (0, 2, 1, 0), (0, 0, 2, 1), (0, 0, 0, 2)),  # Jordan block
            GOLDEN_MATRICES["k3 repeated eigenvalue"],
            GOLDEN_MATRICES["k5 unimodular repeated eigenvalues"],
        ],
    )
    def test_matches_determinant_when_derogatory_or_repeated(self, rows):
        a = IntMatrix(rows)
        assert char_poly(a) == self._det_t_minus(a)

    def test_unimodular_reversal(self):
        rng = random.Random(31)
        from oracles import random_unimodular

        for _ in range(12):
            k = rng.choice([2, 3, 4])
            a = random_unimodular(rng, k)
            p = char_poly(a)
            q = char_poly(inverse_unimodular(a))
            rev = reversal(p)
            # char_poly(A^-1) equals the reversal of char_poly(A) up to sign
            assert q == rev or q == -rev


class TestInverseUnimodular:
    def test_identity(self):
        assert inverse_unimodular(IntMatrix.identity(4)) == IntMatrix.identity(4)

    def test_known_inverse(self):
        assert inverse_unimodular(NO_RECURRENCE_3X3) == NO_RECURRENCE_INVERSE

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            inverse_unimodular(IntMatrix(((2, 0), (0, 3))))

    def test_product_check_on_randoms(self):
        rng = random.Random(13)
        from oracles import random_unimodular

        for _ in range(30):
            k = rng.choice([1, 2, 3, 4, 5, 6])
            a = random_unimodular(rng, k)
            inv = inverse_unimodular(a)
            assert mat_mul(a, inv) == IntMatrix.identity(k) == mat_mul(inv, a), a

    def test_not_unimodular_reports_the_determinant(self):
        for rows, d in ((((2, 0), (0, 3)), 6), (((0, 2, 0), (0, 0, 1), (1, 0, 0)), 2)):
            with pytest.raises(NotUnimodular, match=f"determinant {d},"):
                inverse_unimodular(IntMatrix(rows))


class TestPseudoRem:
    def test_defining_identity_and_coefficient_rings_agree(self):
        # lc(b)^(deg a - deg b + 1) * a - prem(a, b) is a multiple of b
        rng = random.Random(5)
        for _ in range(20):
            a = IntPoly([rng.randint(-9, 9) for _ in range(6)] + [rng.randint(1, 9)])
            b = IntPoly([rng.randint(-9, 9) for _ in range(3)] + [rng.randint(-9, -1)])
            r = IntPoly(_pseudo_rem(a.coeffs, b.coeffs))
            assert r.degree < b.degree
            assert divides(b, poly_mul(a, IntPoly((b.lc ** (a.degree - b.degree + 1),))) - r)

    def test_lower_degree_dividend_rejected(self):
        with pytest.raises(ValueError):
            _pseudo_rem(IntPoly((5,)).coeffs, IntPoly((1, 0, 3)).coeffs)


class TestPolyGcd:
    def test_linear_factor(self):
        f = IntPoly((-1, 0, 1))  # x^2 - 1
        g = IntPoly((-1, 1))  # x - 1
        assert poly_gcd(f, g) == g

    def test_coprime(self):
        f = IntPoly((1, 0, 1))  # x^2 + 1
        g = IntPoly((1, -1, 1))  # x^2 - x + 1
        assert poly_gcd(f, g) == IntPoly((1,))

    def test_planted_factor(self):
        base = poly_from_roots([1, 1, -1, -1])  # (x-1)^2 (x+1)^2
        assert poly_gcd(base, IntPoly((1, 1))) == IntPoly((1, 1))

    def test_gcd_with_zero(self):
        f = IntPoly((2, 4))
        assert poly_gcd(f, IntPoly()) == IntPoly((1, 2))
        assert poly_gcd(IntPoly(), f) == IntPoly((1, 2))

    def test_random_planted_common_factor(self):
        rng = random.Random(3)
        for _ in range(20):
            common = poly_from_roots([rng.randint(-3, 3)])
            f = poly_mul(common, poly_from_roots([rng.randint(4, 8)]))
            g = poly_mul(common, poly_from_roots([rng.randint(-8, -4)]))
            assert divides(poly_gcd(f, g), f)
            assert divides(common, poly_gcd(f, g))


class TestCyclotomic:
    def test_first(self):
        assert cyclotomic(1) == IntPoly((-1, 1))

    def test_fourth(self):
        assert cyclotomic(4) == IntPoly((1, 0, 1))

    def test_sixth(self):
        assert cyclotomic(6) == IntPoly((1, -1, 1))

    def test_invalid(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    def test_product_over_divisors(self):
        for m in range(1, 31):
            prod = IntPoly((1,))
            for d in range(1, m + 1):
                if m % d == 0:
                    prod = poly_mul(prod, cyclotomic(d))
            assert prod == IntPoly((-1,) + (0,) * (m - 1) + (1,))

    def test_degree_is_totient(self):
        for m in range(1, 40):
            assert cyclotomic(m).degree == euler_phi(m)


class TestConcurrency:
    def test_orders_memo_concurrent_fills(self):
        # the module's one shared state, the memo of orders_with_phi_at_most,
        # must tolerate concurrent fills of one bound from a cold start
        from concurrent.futures import ThreadPoolExecutor

        orders_with_phi_at_most.cache_clear()
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(orders_with_phi_at_most, [40] * 12))
        assert all(r == results[0] for r in results)
        assert results[0] == tuple(m for m in range(1, 2 * 40**2 + 1) if euler_phi(m) <= 40)
        assert orders_with_phi_at_most(40) == results[0]


def test_totient_sieve_matches_trial_division():
    # up to 2 * 120^2, past every bound's cap, so the cap is checked too
    phi = [0] + [euler_phi(m) for m in range(1, 2 * 120**2 + 1)]
    for bound in range(1, 121):
        assert orders_with_phi_at_most(bound) == tuple(
            m for m in range(1, len(phi)) if phi[m] <= bound
        )


@pytest.mark.parametrize("bound", [2, 6, 12, 30, 90, 240, 380, 552])
def test_primorial_cap_keeps_every_order(bound):
    # the bounds d*(d - 1) for squarefree parts of degree 2, 3, 4, 6, 10, 16,
    # 20 and 24; the reference sieves all the way to 2*bound^2
    assert orders_with_phi_at_most(bound) == orders_sieve_oracle(bound)


class TestPowerSums:
    def test_integer_roots(self):
        rng = random.Random(47)
        for _ in range(20):
            roots = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
            p = poly_from_roots(roots)
            sums = _power_sums(p, 2 * len(roots) + 3)
            assert sums == [sum(r**m for r in roots) for m in range(1, len(sums) + 1)]

    def test_round_trip(self):
        rng = random.Random(53)
        for _ in range(30):
            d = rng.randint(1, 7)
            p = IntPoly([rng.randint(-9, 9) for _ in range(d)] + [1])
            assert _from_power_sums(_power_sums(p, d)) == p

    def test_non_integral_sums_rejected(self):
        # s_1 = 1, s_2 = 0 would need e_2 = 1/2
        with pytest.raises(ArithmeticError):
            _from_power_sums([1, 0])


def _rand_poly(rng: random.Random) -> IntPoly:
    return IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])


class TestIntPolyBasics:
    def test_canonical_zero_strip(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0)).coeffs == ()

    def test_exact_div_round_trip(self):
        rng = random.Random(2)
        for _ in range(20):
            a = poly_mul(_rand_poly(rng), IntPoly((1, 1, 1)))
            b = IntPoly((1, 1, 1))
            if a.is_zero:
                continue
            assert poly_mul(a.exact_div(b), b) == a

    def test_sign_at_matches_fraction_eval(self):
        from fractions import Fraction

        rng = random.Random(19)
        for _ in range(30):
            p = _rand_poly(rng)
            num, den = rng.randint(-20, 20), rng.randint(1, 9)
            v = eval_fraction(p, Fraction(num, den))
            s = p.sign_at(num, den)
            assert s == (v > 0) - (v < 0)
