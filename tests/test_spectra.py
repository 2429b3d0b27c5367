import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monodeg
from monodeg import spectra
from monodeg.errors import RankDeficient
from monodeg.exact import IntMatrix, IntPoly, char_poly, cyclotomic, det, poly_gcd
from monodeg.spectra import (
    EQ,
    GT,
    LT,
    NOT_ROOT_OF_UNITY,
    ROOT_OF_UNITY,
    isolate_roots,
    modulus_classes,
    ratio_polynomial,
    spectral_summary,
    squarefree_part,
    unity_ratio_orders,
)

from conftest import NO_RECURRENCE_3X3, PAIR_2X2, QUARTER_ROTATION
from oracles import (
    polyroots_oracle,
    poly_pow,
    random_rank_matrix,
    sylvester_resultant_in_y,
)

HP_CHAR = IntPoly((-1, 1, 1, 1))  # t^3 + t^2 + t - 1
TRIB_CHAR = IntPoly((-1, -1, -1, 1))  # t^3 - t^2 - t - 1


def _contains(box, re, im, slack=Fraction(1, 10**6)):
    dx = box.center[0] - Fraction(re).limit_denominator(10**12)
    dy = box.center[1] - Fraction(im).limit_denominator(10**12)
    r = box.radius + slack
    return dx * dx + dy * dy <= r * r


class TestSquarefreePart:
    def test_double_root(self):
        sf, factors = squarefree_part(IntPoly((1, -2, 1)))  # (t-1)^2
        assert sf == IntPoly((-1, 1))
        assert factors == ((IntPoly((-1, 1)), 2),)

    def test_already_squarefree(self):
        sf, factors = squarefree_part(HP_CHAR)
        assert sf == HP_CHAR
        assert factors == ((HP_CHAR, 1),)

    def test_mixed_multiplicities(self):
        p = IntPoly((0, 0, -1, 1))  # t^2 (t - 1)
        sf, factors = squarefree_part(p)
        assert sf == IntPoly((0, -1, 1))  # t(t-1)
        assert dict((f.coeffs, m) for f, m in factors) == {(-1, 1): 1, (0, 1): 2}

    def test_reconstruction(self):
        rng = random.Random(12)
        for _ in range(20):
            f1 = IntPoly((rng.randint(-3, 3), 1))
            f2 = IntPoly((rng.randint(-3, 3), rng.randint(-3, 3), 1))
            p = f1 * f1 * f2
            sf, factors = squarefree_part(p)
            rebuilt = IntPoly((1,))
            for f, m in factors:
                rebuilt = rebuilt * poly_pow(f, m)
            assert rebuilt == p.primitive_positive()


class TestIsolateRoots:
    def test_pure_imaginary_pair(self):
        boxes = isolate_roots(IntPoly((1, 0, 1)), Fraction(1, 2**40))
        assert len(boxes) == 2
        assert not any(b.is_real for b in boxes)
        assert boxes[0].conjugate_partner == 1
        assert boxes[1].conjugate_partner == 0
        assert _contains(boxes[0], 0.0, 1.0)
        assert _contains(boxes[1], 0.0, -1.0)

    def test_cubic_with_known_roots(self):
        boxes = isolate_roots(HP_CHAR, Fraction(1, 2**40))
        assert len(boxes) == 3
        reals = [b for b in boxes if b.is_real]
        pairs = [b for b in boxes if not b.is_real]
        assert len(reals) == 1 and len(pairs) == 2
        assert _contains(reals[0], 0.5436890, 0.0)
        upper = next(b for b in pairs if b.center[1] > 0)
        assert _contains(upper, -0.7718445, 1.1151425)

    def test_integer_roots(self):
        boxes = isolate_roots(IntPoly((6, -5, 1)), Fraction(1, 2**30))  # (t-2)(t-3)
        assert [b.is_real for b in boxes] == [True, True]
        centers = sorted(b.center[0] for b in boxes)
        assert abs(centers[0] - 2) <= boxes[0].radius
        assert abs(centers[1] - 3) <= boxes[1].radius

    def test_requires_squarefree(self):
        with pytest.raises(ValueError):
            isolate_roots(IntPoly((1, -2, 1)), Fraction(1, 2**20))

    def test_disjoint_and_radius_bound(self):
        rng = random.Random(14)
        eps = Fraction(1, 2**32)
        for _ in range(12):
            a = random_rank_matrix(rng, rng.choice([2, 3, 4]), -4, 4)
            p = squarefree_part(char_poly(a))[0]
            boxes = isolate_roots(p, eps)
            assert len(boxes) == p.degree
            for b in boxes:
                assert b.radius <= eps
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    dx = boxes[i].center[0] - boxes[j].center[0]
                    dy = boxes[i].center[1] - boxes[j].center[1]
                    s = boxes[i].radius + boxes[j].radius
                    assert dx * dx + dy * dy > s * s

    def test_residual_within_separation_implied_value(self):
        # |p(center)| <= |lc| * r * (r + 2B)^(d-1) with B a root bound
        from monodeg.spectra import _poly_eval_complex, _root_bound_pow2, _c_abs2

        rng = random.Random(15)
        for _ in range(8):
            a = random_rank_matrix(rng, 3, -4, 4)
            p = squarefree_part(char_poly(a))[0]
            bound = Fraction(_root_bound_pow2(p))
            for box in isolate_roots(p, Fraction(1, 2**40)):
                v2 = _c_abs2(_poly_eval_complex(p, box.center))
                cap = abs(p.lc) * box.radius * (box.radius + 2 * bound) ** (p.degree - 1)
                assert v2 <= cap * cap

    def test_doubling_precision_shrinks_radii(self):
        p = HP_CHAR
        for bits in (20, 40, 80):
            b1 = isolate_roots(p, Fraction(1, 2**bits))
            b2 = isolate_roots(p, Fraction(1, 2 ** (2 * bits)))
            assert max(b.radius for b in b2) <= max(b.radius for b in b1)
            # refined centers stay inside the coarse boxes (same root order)
            for coarse, fine in zip(b1, b2):
                dx = coarse.center[0] - fine.center[0]
                dy = coarse.center[1] - fine.center[1]
                rr = coarse.radius + fine.radius
                assert dx * dx + dy * dy <= rr * rr


def _assert_isolates(p, boxes):
    """Each box holds exactly one root of the 100-digit oracle, and the boxes
    (conjugate mirrors included) are pairwise disjoint."""
    assert len(boxes) == p.degree
    roots = polyroots_oracle(p)
    for b in boxes:
        inside = [
            (x, y) for x, y in roots
            if (x - b.center[0]) ** 2 + (y - b.center[1]) ** 2 <= b.radius ** 2
        ]
        assert len(inside) == 1
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            dx = boxes[i].center[0] - boxes[j].center[0]
            dy = boxes[i].center[1] - boxes[j].center[1]
            s = boxes[i].radius + boxes[j].radius
            assert dx * dx + dy * dy > s * s


class TestProposers:
    def test_large_coefficient_escalates_to_mpmath(self, monkeypatch):
        calls = []
        mp_starts = spectra._complex_starts

        def spy(p, npairs, dps):
            calls.append(dps)
            return mp_starts(p, npairs, dps)

        monkeypatch.setattr(spectra, "_complex_starts", spy)
        for p in (IntPoly((2**60 + 1, 1, 1)), IntPoly((1, 2**53, 0, 1))):
            assert spectra._aberth_starts(p, 1) is None
            calls.clear()
            _assert_isolates(p, isolate_roots(p, Fraction(1, 2**64)))
            assert calls

    def test_boxes_match_oracle_on_random_squarefree(self):
        rng = random.Random(2007)
        seen = 0
        while seen < 40:
            d = rng.randint(1, 12)
            bound = rng.choice([3, 1000, 2**60])
            coeffs = [rng.randint(-bound, bound) for _ in range(d)] + [rng.randint(1, bound)]
            p = IntPoly(tuple(coeffs))
            if poly_gcd(p, p.derivative()).degree > 0:
                continue
            seen += 1
            _assert_isolates(p, isolate_roots(p, Fraction(1, 2**64)))

    def test_no_proposer_is_unresolved(self, monkeypatch):
        from monodeg.errors import UnresolvedCertification

        monkeypatch.setattr(spectra, "_aberth_starts", lambda p, npairs: None)
        monkeypatch.setattr(spectra, "_complex_starts", lambda p, npairs, dps: None)
        with pytest.raises(UnresolvedCertification):
            isolate_roots(IntPoly((1, 0, 1)), Fraction(1, 2**32))

    def test_common_path_does_not_import_mpmath(self):
        src = Path(monodeg.__file__).resolve().parent.parent
        code = (
            "import sys, monodeg\n"
            "v = monodeg.classify_d1(monodeg.IntMatrix(((4, -7), (3, -5))))\n"
            "print(v.classification, 'mpmath' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert out.stdout.split() == ["RECURRENCE_PROVEN", "False"]


class TestModulusClasses:
    def test_cyclotomic_single_class_eq_one(self):
        for m in range(1, 13):
            mc = modulus_classes(cyclotomic(m))
            assert len(mc.classes) == 1
            assert mc.classes[0].versus_one == EQ
            assert len(mc.classes[0].indices) == cyclotomic(m).degree

    def test_forward_cubic(self):
        mc = modulus_classes(HP_CHAR)
        assert len(mc.classes) == 2
        top, low = mc.classes
        assert top.versus_one == GT
        assert len(top.indices) == 2
        assert low.versus_one == LT
        assert len(low.indices) == 1
        assert mc.roots[low.indices[0]].is_real

    def test_companion_cubic(self):
        mc = modulus_classes(TRIB_CHAR)
        assert len(mc.classes) == 2
        top, low = mc.classes
        assert top.versus_one == GT
        assert len(top.indices) == 1
        assert mc.roots[top.indices[0]].is_real
        assert low.versus_one == LT
        assert len(low.indices) == 2

    def test_real_pair_with_equal_modulus(self):
        # roots 2 and -2 share a modulus class; root 3 is alone
        p = IntPoly((-2, 1)) * IntPoly((2, 1)) * IntPoly((-3, 1))
        mc = modulus_classes(p)
        sizes = sorted(len(c.indices) for c in mc.classes)
        assert sizes == [1, 2]
        assert all(c.versus_one == GT for c in mc.classes)
        assert len(mc.classes[0].indices) == 1  # modulus 3 first (descending)

    def test_requires_nonzero_constant(self):
        with pytest.raises(ValueError):
            modulus_classes(IntPoly((0, 1)))

    def test_mixed_gt_eq_lt(self):
        # (t - 2)(t^2 + 1)(2t - 1): moduli 2, 1, 1/2
        p = IntPoly((-2, 1)) * IntPoly((1, 0, 1)) * IntPoly((-1, 2))
        mc = modulus_classes(p)
        assert [c.versus_one for c in mc.classes] == [GT, EQ, LT]
        assert [len(c.indices) for c in mc.classes] == [1, 2, 1]

    def test_salem_quartic_non_cyclotomic_unit_pair(self):
        # x^4 - x^3 - x^2 - x + 1: real roots tau ~ 1.7221 and 1/tau plus a
        # unit-circle conjugate pair that is NOT a root of unity, so the EQ
        # certification must come from the product-polynomial route
        p = IntPoly((1, -1, -1, -1, 1))
        mc = modulus_classes(p)
        assert [c.versus_one for c in mc.classes] == [GT, EQ, LT]
        eq_class = mc.classes[1]
        assert len(eq_class.indices) == 2
        assert not mc.roots[eq_class.indices[0]].is_real
        assert unity_ratio_orders(p) == []


class TestRatioPolynomial:
    def test_quadratic_pair(self):
        full, reduced = ratio_polynomial(IntPoly((1, 0, 1)))
        assert full.degree == 4
        assert reduced.primitive_positive() == IntPoly((1, 2, 1))  # (x+1)^2

    def test_ratio_roots_example(self):
        _, reduced = ratio_polynomial(IntPoly((3, -2, 1)))  # t^2 - 2t + 3
        assert reduced.primitive_positive() == IntPoly((3, 2, 3))

    def test_distinct_real_roots(self):
        _, reduced = ratio_polynomial(IntPoly((6, -5, 1)))  # roots 2, 3
        assert reduced.primitive_positive() == IntPoly((6, -13, 6))

    def test_zero_constant_rejected(self):
        with pytest.raises(ValueError):
            ratio_polynomial(IntPoly((0, 1, 1)))

    def test_structure_on_randoms(self):
        rng = random.Random(21)
        for _ in range(30):
            k = rng.choice([2, 3, 4])
            a = random_rank_matrix(rng, k, -3, 3)
            p = char_poly(a)
            full, reduced = ratio_polynomial(p)
            assert full.degree == k * k
            rebuilt = reduced
            for _ in range(k):
                rebuilt = rebuilt * IntPoly((-1, 1))
            assert rebuilt == full
            rev = reduced.reversed_coeffs().primitive_positive()
            assert rev == reduced.primitive_positive()


def _oracle_ratio_full(p: IntPoly) -> IntPoly:
    """Res_y(p(y), p(x*y)) as a Sylvester determinant."""
    f_y = [IntPoly((c,)) for c in p.coeffs]
    g_y = [IntPoly((0,) * i + (c,)) for i, c in enumerate(p.coeffs)]
    return sylvester_resultant_in_y(f_y, g_y)


def _oracle_product_sf(p: IntPoly) -> IntPoly:
    """Squarefree part of Res_y(p(y), y^d p(z/y)), roots all root_i*root_j."""
    d = p.degree
    f_y = [IntPoly((c,)) for c in p.coeffs]
    g_y = [IntPoly((0,) * (d - j) + (p.coeff(d - j),)) for j in range(d + 1)]
    return squarefree_part(sylvester_resultant_in_y(f_y, g_y))[0]


def _assert_matches_oracle(p: IntPoly) -> None:
    assert ratio_polynomial(p)[0] == _oracle_ratio_full(p)
    assert squarefree_part(spectra._product_poly(p))[0] == _oracle_product_sf(p)


class TestPowerSumConstructionOracle:
    """Product and ratio polynomials against the Sylvester determinant: the
    exact value and sign of the full ratio polynomial, and the squarefree
    part of the product polynomial."""

    def test_repeated_eigenvalues(self):
        for a in (
            IntMatrix(((1, 1), (0, 1))),
            IntMatrix(((-1, 0, 0), (0, -1, 0), (0, 0, -1))),
            IntMatrix(((2, 1, 0), (0, 2, 0), (0, 0, -2))),
        ):
            _assert_matches_oracle(char_poly(a))

    def test_non_monic(self):
        for coeffs in ((3, -2, 2), (-1, 0, 0, 4), (2, 1, -3, 0, 5), (6, 0, -9)):
            _assert_matches_oracle(IntPoly(coeffs))

    def test_degree_one(self):
        for coeffs in ((3, 1), (-2, 1), (5, -4), (1, 7)):
            _assert_matches_oracle(IntPoly(coeffs))

    def test_unit_roots(self):
        # roots +1 and -1, alone and next to non-unit roots
        for roots in ([1], [-1], [1, -1], [1, 1, 2], [-1, 3, -3], [1, -1, 2, -2]):
            p = IntPoly((1,))
            for r in roots:
                p = p * IntPoly((-r, 1))
            _assert_matches_oracle(p)

    def test_char_polys(self):
        rng = random.Random(61)
        for _ in range(12):
            a = random_rank_matrix(rng, rng.choice([2, 3, 4]), -3, 3)
            _assert_matches_oracle(char_poly(a))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-5, 5).filter(bool),
        st.lists(st.integers(-5, 5), max_size=4),
        st.integers(-5, 5).filter(bool),
    )
    def test_property(self, constant, middle, lead):
        # degree 1..5 with p(0) != 0
        _assert_matches_oracle(IntPoly([constant, *middle, lead]))


class TestUnityRatioOrders:
    def test_pure_imaginary(self):
        assert unity_ratio_orders(IntPoly((1, 0, 1))) == [2]

    def test_non_unity_pair(self):
        assert unity_ratio_orders(IntPoly((3, -2, 1))) == []

    def test_forward_cubic_empty(self):
        assert unity_ratio_orders(HP_CHAR) == []

    def test_gcd_agrees_with_divisibility(self):
        # dual route: every reported order must show up through poly_gcd too
        for p in (IntPoly((1, 0, 1)), IntPoly((1, -1, 1)), cyclotomic(5)):
            _, reduced = ratio_polynomial(p)
            for m in unity_ratio_orders(p):
                assert poly_gcd(reduced, cyclotomic(m)).degree >= 1

    def test_reversal_invariance(self):
        rng = random.Random(33)
        for _ in range(15):
            coeffs = [rng.randint(-3, 3) for _ in range(rng.choice([3, 4, 5]))]
            coeffs[0] = coeffs[0] or 1
            coeffs[-1] = coeffs[-1] or 1
            p = IntPoly(coeffs)
            q = p.reversed_coeffs()
            assert unity_ratio_orders(p) == unity_ratio_orders(q)


class TestSpectralSummary:
    def test_quarter_rotation(self):
        s = spectral_summary(QUARTER_ROTATION)
        assert len(s.modulus_classes) == 1
        assert s.modulus_classes[0].versus_one == EQ
        assert s.dominant_pair is not None
        flag = s.ratio_flags[s.dominant_pair[0]]
        assert flag.kind == ROOT_OF_UNITY
        assert flag.order == 2

    def test_forward_matrix(self):
        s = spectral_summary(NO_RECURRENCE_3X3)
        assert s.char_poly == HP_CHAR
        assert s.dominant_pair is not None
        top = s.modulus_classes[0]
        assert top.versus_one == GT
        flag = s.ratio_flags[s.dominant_pair[0]]
        assert flag.kind == NOT_ROOT_OF_UNITY
        real_idx = [i for i, b in enumerate(s.roots) if b.is_real]
        assert len(real_idx) == 1
        assert s.ratio_flags[real_idx[0]].kind == ROOT_OF_UNITY
        assert s.ratio_flags[real_idx[0]].order == 1

    def test_identity(self):
        s = spectral_summary(IntMatrix.identity(3))
        assert len(s.roots) == 1
        assert s.roots[0].multiplicity == 3
        assert s.modulus_classes[0].versus_one == EQ
        assert all(f.kind == ROOT_OF_UNITY and f.order == 1 for f in s.ratio_flags)

    def test_pair_2x2(self):
        s = spectral_summary(PAIR_2X2)
        assert s.char_poly == IntPoly((3, -2, 1))
        assert s.dominant_pair is not None
        assert s.modulus_classes[0].versus_one == GT
        assert s.ratio_flags[0].kind == NOT_ROOT_OF_UNITY

    def test_duplicated_pair_block(self):
        a = IntMatrix(((1, -2, 0, 0), (1, 1, 0, 0), (0, 0, 1, -2), (0, 0, 1, 1)))
        s = spectral_summary(a)
        assert len(s.roots) == 2
        assert all(b.multiplicity == 2 for b in s.roots)
        assert s.dominant_pair is not None or len(s.modulus_classes[0].indices) == 2

    def test_two_pairs_with_distinct_unity_orders(self):
        # +-2i (conjugate ratio -1, order 2) above a pair whose ratio is a
        # primitive 6th root of unity: attribution must separate the orders
        a = IntMatrix(((0, -2, 0, 0), (2, 0, 0, 0), (0, 0, 0, 3), (0, 0, -1, -3)))
        s = spectral_summary(a)
        orders = sorted(f.order for f in s.ratio_flags)
        assert orders == [2, 2, 6, 6]
        assert all(f.kind == ROOT_OF_UNITY for f in s.ratio_flags)

    def test_dominant_non_unity_above_unity_pair(self):
        # dominant 1 +- i*sqrt(2) (not a root of unity) above +-i (order 2):
        # the dominant disk must be refined away from the unity candidates
        a = IntMatrix(((1, -2, 0, 0), (1, 1, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)))
        s = spectral_summary(a)
        top = s.modulus_classes[0]
        assert top.versus_one == GT
        i, j = top.indices
        assert s.ratio_flags[i].kind == NOT_ROOT_OF_UNITY
        others = [f for n, f in enumerate(s.ratio_flags) if n not in (i, j)]
        assert all(f.kind == ROOT_OF_UNITY and f.order == 2 for f in others)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            spectral_summary(IntMatrix(((1, 1), (1, 1))))

    def test_multiplicities_sum_and_constant_term(self):
        rng = random.Random(61)
        for _ in range(10):
            k = rng.choice([2, 3])
            a = random_rank_matrix(rng, k, -3, 3)
            s = spectral_summary(a)
            total = 0
            seen_pairs = set()
            for i, b in enumerate(s.roots):
                if b.is_real:
                    total += b.multiplicity
                elif b.conjugate_partner not in seen_pairs:
                    total += 2 * b.multiplicity
                    seen_pairs.add(i)
            assert total == k
            assert s.char_poly.constant == (-1) ** k * det(a)

    def test_conjugates_share_modulus_class(self):
        rng = random.Random(62)
        for _ in range(10):
            a = random_rank_matrix(rng, rng.choice([2, 3, 4]), -3, 3)
            s = spectral_summary(a)
            cls_of = {}
            for ci, cls in enumerate(s.modulus_classes):
                for idx in cls.indices:
                    cls_of[idx] = ci
            for i, b in enumerate(s.roots):
                if b.conjugate_partner is not None:
                    assert cls_of[i] == cls_of[b.conjugate_partner]
