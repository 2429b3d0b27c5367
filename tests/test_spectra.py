import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monodeg
from monodeg import spectra
from monodeg.errors import RankDeficient, UnresolvedCertification
from monodeg.exact import IntMatrix, IntPoly, char_poly, cyclotomic, det, poly_gcd
from monodeg.spectra import (
    EQ,
    GT,
    LT,
    NOT_ROOT_OF_UNITY,
    ROOT_OF_UNITY,
    ModulusClass,
    RootBox,
    isolate_roots,
    ratio_polynomial,
    spectral_summary,
    squarefree_part,
    unity_ratio_orders,
)

from conftest import NO_RECURRENCE_3X3, PAIR_2X2, QUARTER_ROTATION
from oracles import (
    FractionHandle,
    modsq_interval_oracle,
    modulus_classes_oracle,
    polyroots_oracle,
    poly_pow,
    random_rank_matrix,
    root_bound_pow2,
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
        from monodeg.spectra import _poly_eval_complex, _c_abs2

        rng = random.Random(15)
        for _ in range(8):
            a = random_rank_matrix(rng, 3, -4, 4)
            p = squarefree_part(char_poly(a))[0]
            bound = Fraction(root_bound_pow2(p))
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
    """Each box holds exactly one root of the 100-digit oracle, a box flagged
    real holds a real one, as many boxes as oracle roots are real, and the
    boxes (conjugate mirrors included) are pairwise disjoint."""
    assert len(boxes) == p.degree
    roots = polyroots_oracle(p)
    for b in boxes:
        inside = [
            (x, y) for x, y in roots
            if (x - b.center[0]) ** 2 + (y - b.center[1]) ** 2 <= b.radius ** 2
        ]
        assert len(inside) == 1
        if b.is_real:
            assert inside[0][1] == 0
    assert sum(b.is_real for b in boxes) == sum(y == 0 for _, y in roots)
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            dx = boxes[i].center[0] - boxes[j].center[0]
            dy = boxes[i].center[1] - boxes[j].center[1]
            s = boxes[i].radius + boxes[j].radius
            assert dx * dx + dy * dy > s * s


def _handle_cases():
    """(poly, start, bits): five named cases, then seeded random squarefree
    polynomials of degree 1..10 with real and upper half-plane starts.
    Start precisions stay small so that 12 doublings stay cheap."""
    cases = [
        # (x - 1)(x^2 + 1) started on its root 1: the exact-root path
        (IntPoly((-1, 1, -1, 1)), (Fraction(1), Fraction(0)), 64),
        # x^2 - 2 started at 0, where p' vanishes: the nudge path
        (IntPoly((-2, 0, 1)), (Fraction(0), Fraction(0)), 8),
        # every step of 3x - 1 from 2^14 + 1 bits takes the bits + 2^14 cap
        (IntPoly((-1, 3)), (Fraction(1, 7), Fraction(0)), (1 << 14) + 1),
        # a start halfway between dyadic points (rounded upward), and a
        # radius d|p(c)|/|p'(c)| = |c - 1/2| of exactly 2^-3
        (IntPoly((1, 0, 1)), (Fraction(-3, 8), Fraction(5, 8)), 2),
        (IntPoly((-1, 2)), (Fraction(5, 8), Fraction(0)), 3),
    ]
    rng = random.Random(4099)
    while len(cases) < 35:
        d = rng.randint(1, 10)
        p = IntPoly(tuple(rng.randint(-9, 9) for _ in range(d)) + (rng.randint(1, 9),))
        if poly_gcd(p, p.derivative()).degree > 0:
            continue
        re = Fraction(rng.randint(-3 << 20, 3 << 20), 1 << 20)
        im = Fraction(rng.randint(1, 3 << 20), 1 << 20) if rng.random() < 0.5 else Fraction(0)
        cases.append((p, (re, im), rng.randint(1, 2)))
    return cases


def _dyadic_disk(rng):
    bits, e = rng.randint(0, 12), rng.randint(0, 12)
    return (rng.randint(-1 << 10, 1 << 10), rng.randint(-1 << 10, 1 << 10), bits, e)


def _disjoint_fraction(d1, d2) -> bool:
    (x1, y1, b1, e1), (x2, y2, b2, e2) = d1, d2
    dx = Fraction(x1, 1 << b1) - Fraction(x2, 1 << b2)
    dy = Fraction(y1, 1 << b1) - Fraction(y2, 1 << b2)
    s = Fraction(1, 1 << e1) + Fraction(1, 1 << e2)
    return dx * dx + dy * dy > s * s


class TestIntegerHandle:
    @pytest.mark.parametrize("case", _handle_cases(), ids=lambda c: f"{c[0].coeffs}@{c[2]}")
    def test_matches_fraction_oracle(self, case):
        p, start, bits = case
        h, ref = spectra._Handle(p, start, bits), FractionHandle(p, start, bits)
        for step in range(13):
            if step:
                h.shrink()
                ref.shrink()
            assert h.center() == ref.center()
            assert h.radius() == ref.radius()
            assert (h.is_exact, h.stuck, h._stuck) == (ref.is_exact, ref.stuck, ref._stuck)

    def test_named_paths_are_reached(self):
        exact, nudge, cap, tie, boundary = _handle_cases()[:5]
        h = spectra._Handle(*exact)
        assert h.is_exact and h.center() == (1, 0)
        h = spectra._Handle(*nudge)
        assert h.dpc == (0, 0)
        h.shrink()
        assert h.x == 1 and h.bits == 16
        h = spectra._Handle(*cap)
        h.shrink()
        assert h.bits == cap[2] + (1 << 14)
        assert spectra._Handle(*tie).center() == (Fraction(-1, 4), Fraction(3, 4))
        assert spectra._Handle(*boundary).radius() == Fraction(1, 8)

    def test_modulus_interval_matches_fraction_formula(self):
        for p, start, bits in _handle_cases():
            h = spectra._Handle(p, start, bits)
            for _ in range(5):
                for sqrt_bits in (32, 40 + (h.e or 0)):
                    lo, hi, s = spectra._modsq_interval(h, sqrt_bits)
                    got = (Fraction(lo, 1 << s), Fraction(hi, 1 << s))
                    assert got == modsq_interval_oracle(h, sqrt_bits)
                h.shrink()

    def test_boundaries_are_not_certified(self):
        # a pair's centre exactly one radius above the axis, and a real
        # centre exactly one radius from 0, are not yet separated
        h = spectra._Handle(IntPoly((1, 0, 1)), (Fraction(1, 4), Fraction(1)), 8)
        h.x, h.y, h.bits, h.e = 0, 1, 8, 8
        assert not spectra._certify_layout([h], Fraction(1, 16), 1)
        h.x, h.y, h.bits, h.e = 0, 2, 8, 8
        assert spectra._certify_layout([h], Fraction(1, 16), 1)
        h = spectra._Handle(IntPoly((-2, 0, 1)), (Fraction(1), Fraction(0)), 8)
        h.x, h.bits, h.e = 1, 8, 8
        with pytest.raises(UnresolvedCertification):
            spectra._pin_real_signs([h], 1)

    def test_disjoint_matches_fraction_formula(self):
        rng = random.Random(77)
        for _ in range(3000):
            d1, d2 = _dyadic_disk(rng), _dyadic_disk(rng)
            assert spectra._disjoint(d1, d2) == _disjoint_fraction(d1, d2)
        # equal radii, tangent and just apart, at different exponents
        for b1, b2, e in [(3, 7, 5), (9, 2, 4), (0, 12, 12)]:
            for gap in (0, 1):
                # centres 0 and 2^(1-e) + gap*2^-(max bits): tangent when gap = 0
                s = max(b1, b2, e)
                d1 = (0, 0, b1, e)
                d2 = ((1 << (s - e + 1)) + gap, 0, s, e)
                assert spectra._disjoint(d1, d2) == bool(gap) == _disjoint_fraction(d1, d2)
                d2 = (0, (1 << (s - e + 1)) + gap, s, e)
                assert spectra._disjoint(d1, d2) == bool(gap) == _disjoint_fraction(d1, d2)


class TestProposers:
    def test_large_coefficient_escalates_to_mpmath(self, monkeypatch):
        calls = []
        mp_starts = spectra._complex_starts

        def spy(p, dps):
            calls.append(dps)
            return mp_starts(p, dps)

        monkeypatch.setattr(spectra, "_complex_starts", spy)
        for p in (IntPoly((2**60 + 1, 1, 1)), IntPoly((1, 2**53, 0, 1))):
            assert spectra._aberth_starts(p) is None
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

    @pytest.mark.parametrize(
        "n, a", [(5, 10), (9, 10), (11, 100), (5, 1000), (5, 10**6), (5, 10**9)]
    )
    @pytest.mark.parametrize("sign", [1, -1])
    def test_mignotte_clusters(self, n, a, sign):
        # x^n - 2(ax - 1)^2 has two real roots near 1/a, x^n + 2(ax - 1)^2 a
        # non-real pair there, closer to each other as a grows; at a = 10^6
        # and 10^9 the first mpmath starts merge or land on the axis, so
        # isolation has to give up on them and escalate
        c = [0] * (n + 1)
        c[n] = 1
        for i, v in enumerate((-2, 4 * a, -2 * a * a)):
            c[i] += sign * v
        p = IntPoly(tuple(c))
        _assert_isolates(p, isolate_roots(p, Fraction(1, 2**64)))

    def test_clustered_roots_need_one_mpmath_call(self, monkeypatch):
        # x^5 - 2(10^9 x - 1)^2 has two real roots about 4e-32 apart near
        # 1e-9: mpmath separates them at 35 digits, and starts kept at the
        # precision mpmath worked at stay apart, so no escalation follows
        calls = []
        mp_starts = spectra._complex_starts

        def spy(p, dps):
            calls.append(dps)
            return mp_starts(p, dps)

        monkeypatch.setattr(spectra, "_complex_starts", spy)
        a = 10**9
        p = IntPoly((-2, 4 * a, -2 * a * a, 0, 0, 1))
        _assert_isolates(p, isolate_roots(p, Fraction(1, 2**64)))
        assert calls == [35]

    def test_far_pair_and_small_real_root(self):
        x = IntPoly((0, 1))
        shifted = x - IntPoly((2**20,))
        p = (shifted * shifted + IntPoly((1,))) * (x - IntPoly((3,)))
        _assert_isolates(p, isolate_roots(p, Fraction(1, 2**64)))

    def test_no_proposer_is_unresolved(self, monkeypatch):
        monkeypatch.setattr(spectra, "_aberth_starts", lambda p: None)
        monkeypatch.setattr(spectra, "_complex_starts", lambda p, dps: None)
        # with no float starts even an all-real polynomial stays unresolved
        for p in (IntPoly((1, 0, 1)), IntPoly((6, -5, 1))):
            with pytest.raises(UnresolvedCertification):
                isolate_roots(p, Fraction(1, 2**32))

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


@dataclass(frozen=True)
class ModulusClassification:
    roots: tuple[RootBox, ...]
    classes: tuple[ModulusClass, ...]


def _ordered_handles(p):
    return spectra._order_handles(
        spectra._isolate_handles(p, Fraction(1, 1 << spectra._DEFAULT_EPS_BITS))
    )


def modulus_classes(p: IntPoly, cap_bits: int = 256) -> ModulusClassification:
    """Certified equal-modulus classes of the roots of a squarefree p with
    p(0) != 0, each compared against 1, indexed like the root boxes."""
    if poly_gcd(p, p.derivative()).degree > 0 or p.degree < 1:
        raise ValueError("modulus classes need a squarefree polynomial")
    if p.constant == 0:
        raise ValueError("modulus classes need p(0) != 0")
    ordered = _ordered_handles(p)
    classes = spectra._partition_by_modulus(ordered, p.primitive_positive(), cap_bits)
    return ModulusClassification(
        roots=spectra._boxes_from_ordered(ordered),
        classes=spectra._expand_classes(classes, ordered),
    )


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


# Q with the roots -3, 0, 1/2, 1, 9/4, 4 and +-sqrt(2), so that every
# span endpoint compares exactly with every root
_STURM_RATIONAL = [Fraction(-3), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(9, 4),
                   Fraction(4)]
_STURM_Q = IntPoly((-2, 0, 1))
for _r in _STURM_RATIONAL:
    _STURM_Q = _STURM_Q * IntPoly((-_r.numerator, _r.denominator))


def _roots_in(lo: int, hi: int, s: int) -> int:
    a, b = Fraction(lo, 1 << s), Fraction(hi, 1 << s)

    def below_sqrt2(x):  # x < sqrt(2); no rational equals it
        return x <= 0 or x * x < 2

    plus = below_sqrt2(a) and not below_sqrt2(b)
    minus = below_sqrt2(-b) and not below_sqrt2(-a)
    return sum(a <= r <= b for r in _STURM_RATIONAL) + plus + minus


class TestSturmCount:
    chain = spectra._sturm_chain(_STURM_Q)

    @pytest.mark.parametrize("span, expected", [
        ((4, 4, 2), 1),     # point span on the root 1
        ((16, 16, 2), 1),   # point span on the root 4
        ((9, 9, 2), 1),     # point span on 9/4
        ((3, 3, 2), 0),     # point span off the roots
        ((4, 5, 2), 1),     # left endpoint on 1: [1, 5/4]
        ((16, 20, 2), 1),   # left endpoint on 4: [4, 5]
        ((1, 2, 0), 2),     # left endpoint on 1 at exponent 0: [1, 2] holds sqrt 2
        ((0, 4, 2), 3),     # right endpoint on 1: [0, 1] holds 0, 1/2, 1
        ((5, 16, 2), 3),    # right endpoint on 4: [5/4, 4] holds sqrt 2, 9/4, 4
        ((2, 4, 2), 2),     # both endpoints on roots: [1/2, 1]
        ((-12, -12, 2), 1),  # point span on -3
        ((17, 1 << 10, 2), 0),
    ])
    def test_named_spans(self, span, expected):
        assert _roots_in(*span) == expected
        assert spectra._sturm_count(self.chain, *span) == expected

    def test_random_spans_match_exact_roots(self):
        rng = random.Random(1009)
        for _ in range(1500):
            s = rng.randint(0, 5)
            lo = rng.randint(-5 << s, 6 << s)
            hi = lo + rng.choice((0, rng.randint(0, 3 << s)))
            assert spectra._sturm_count(self.chain, lo, hi, s) == _roots_in(lo, hi, s)

    def test_round_out_contains_the_span(self):
        rng = random.Random(1013)
        for _ in range(2000):
            s, c = rng.randint(0, 40), rng.choice((8, 16, 32))
            lo = rng.randint(0, 5 << s)
            hi = lo + rng.randint(0, 1 << s)
            rlo, rhi, rs = spectra._round_out((lo, hi, s), c)
            assert rs == min(s, c)
            assert Fraction(rlo, 1 << rs) <= Fraction(lo, 1 << s)
            assert Fraction(rhi, 1 << rs) >= Fraction(hi, 1 << s)
            assert Fraction(rhi - rlo, 1 << rs) < Fraction(hi - lo, 1 << s) + Fraction(2, 1 << rs)
            if s <= c:
                assert (rlo, rhi, rs) == (lo, hi, s)


def _modulus_cases():
    """Squarefree polynomials with p(0) != 0 whose moduli coincide or nearly
    coincide: the equal-modulus families and Mignotte clusters."""
    x = IntPoly((0, 1))
    cases = []
    for r in (1, 2, 3, 5):
        cases.append((x - IntPoly((r,))) * (x + IntPoly((r,))))
        cases.append((x * x + IntPoly((r * r,))) * (x - IntPoly((r,))))
    cases.append(IntPoly((-1, 2)) * IntPoly((1, 2)))  # +-1/2
    for m in range(1, 7):
        for c in (1, 2, 3):
            cases.append(IntPoly((-c,) + (0,) * (m - 1) + (1,)))
            cases.append(IntPoly((c,) + (0,) * (m - 1) + (1,)))
    for a, b in [(1, 2), (3, 4), (5, 6), (1, 8), (2, 12), (7, 9), (10, 5)]:
        cases.append(cyclotomic(a) * cyclotomic(b))
    for scale in (100, 10**4, 10**9):
        cluster = IntPoly((-1, scale))
        cases.append(IntPoly((0, 0, 0, 0, 0, 1)) - IntPoly((2,)) * cluster * cluster)
    return cases


def _random_modulus_products(n: int, seed: int):
    x = IntPoly((0, 1))
    rng = random.Random(seed)
    factors = (
        [x - IntPoly((r,)) for r in (-3, -2, -1, 1, 2, 3)]
        + [x * x + IntPoly((r * r,)) for r in (1, 2, 3)]
        + [IntPoly((c,) + (0,) * (m - 1) + (1,)) for m in (2, 3, 4) for c in (-2, -1, 1, 2)]
        + [cyclotomic(m) for m in (3, 4, 5, 6, 8, 12)]
    )
    out = []
    while len(out) < n:
        p = IntPoly((1,))
        for f in rng.sample(factors, rng.randint(2, 3)):
            p = p * f
        if poly_gcd(p, p.derivative()).degree == 0:
            out.append(p)
    return out


class TestModulusPartitionOracle:
    @staticmethod
    def _check(p):
        p = p.primitive_positive()
        got = spectra._partition_by_modulus(_ordered_handles(p), p, 256)
        assert got == modulus_classes_oracle(_ordered_handles(p), p, 256)
        return got

    @pytest.mark.parametrize("p", _modulus_cases(), ids=lambda p: str(p.coeffs))
    def test_matches_global_isolation(self, p):
        self._check(p)

    def test_random_products_match_global_isolation(self):
        for p in _random_modulus_products(40, 2027):
            self._check(p)

    def test_touching_spans_of_different_moduli_stay_apart(self):
        # moduli 2 and sqrt(2051/512) = 2.0015: at 2^-8 the |.|^2 spans of
        # the pair and of the real roots meet at 4 + 2^-8
        got = self._check(IntPoly((4, 1, 1)) * IntPoly((-2051, 0, 512)))
        assert [(len(c.indices), c.versus_one) for c in got] == [(2, GT), (1, GT)]

    def test_equal_moduli_and_unit_modulus(self):
        x = IntPoly((0, 1))
        # (x - 2)(x + 2)(x^2 + 4)(x^2 + 1): moduli 2 (four roots) and 1
        p = (x - IntPoly((2,))) * (x + IntPoly((2,))) * IntPoly((4, 0, 1)) * IntPoly((1, 0, 1))
        got = self._check(p)
        assert [c.versus_one for c in got] == [GT, EQ]
        assert [len(c.indices) for c in got] == [3, 1]  # handle indices: pairs count once


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
