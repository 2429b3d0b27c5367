import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monodeg
from monodeg import spectra
from monodeg.errors import RankDeficient, UnresolvedCertification
from monodeg.exact import (
    IntMatrix,
    IntPoly,
    _root_powers,
    char_poly,
    det,
    orders_with_phi_at_most,
    poly_gcd,
)
from monodeg.spectra import (
    EQ,
    GT,
    LT,
    NOT_ROOT_OF_UNITY,
    ROOT_OF_UNITY,
    ModulusClass,
    RootBox,
    isolate_roots,
    spectral_summary,
    squarefree_part,
)

from conftest import NO_RECURRENCE_3X3, PAIR_2X2, QUARTER_ROTATION
from oracles import (
    FractionHandle,
    coeff,
    cyclotomic,
    eval_gaussian,
    fraction_start,
    handle_view,
    modsq_interval_oracle,
    modulus_classes_oracle,
    modulus_ranking_oracle,
    pair_flags_vs_oracle,
    polyroots_oracle,
    poly_mul,
    poly_pow,
    random_rank_matrix,
    root_bound_pow2,
    sylvester_resultant_in_y,
    unity_order_oracle,
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
            p = poly_mul(f1, f1, f2)
            sf, factors = squarefree_part(p)
            rebuilt = poly_mul(*(poly_pow(f, m) for f, m in factors))
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
        rng = random.Random(15)
        for _ in range(8):
            a = random_rank_matrix(rng, 3, -4, 4)
            p = squarefree_part(char_poly(a))[0]
            bound = Fraction(root_bound_pow2(p))
            for box in isolate_roots(p, Fraction(1, 2**40)):
                re, im = eval_gaussian(p, box.center)
                v2 = re * re + im * im
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


def _assert_isolates(p, boxes, dps=100):
    """Each box holds exactly one root of the dps-digit oracle, a box flagged
    real holds a real one, as many boxes as oracle roots are real, and the
    boxes (conjugate mirrors included) are pairwise disjoint."""
    assert len(boxes) == p.degree
    roots = polyroots_oracle(p, dps)
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


def _handle(p, start, bits):
    """A handle from a Gaussian rational start, rounded as FractionHandle
    rounds it."""
    return spectra._Handle(p, fraction_start(start, bits), bits)


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
        h, ref = _handle(p, start, bits), FractionHandle(p, start, bits)
        for step in range(13):
            if step:
                h.shrink()
                ref.shrink()
            assert handle_view(h) == (ref.center(), ref.radius())
            assert (h.is_exact, h.stuck, h._stuck) == (ref.is_exact, ref.stuck, ref._stuck)

    def test_named_paths_are_reached(self):
        exact, nudge, cap, tie, boundary = _handle_cases()[:5]
        h = _handle(*exact)
        assert h.is_exact and handle_view(h)[0] == (1, 0)
        h = _handle(*nudge)
        assert h.dpc == (0, 0)
        h.shrink()
        assert h.x == 1 and h.bits == 16
        h = _handle(*cap)
        h.shrink()
        assert h.bits == cap[2] + (1 << 14)
        assert handle_view(_handle(*tie))[0] == (Fraction(-1, 4), Fraction(3, 4))
        assert handle_view(_handle(*boundary))[1] == Fraction(1, 8)

    def test_modulus_interval_matches_fraction_formula(self):
        for p, start, bits in _handle_cases():
            h = _handle(p, start, bits)
            for _ in range(5):
                for sqrt_bits in (32, 40 + (h.e or 0)):
                    lo, hi, s = spectra._modsq_interval(h, sqrt_bits)
                    got = (Fraction(lo, 1 << s), Fraction(hi, 1 << s))
                    assert got == modsq_interval_oracle(h, sqrt_bits)
                h.shrink()

    def test_boundaries_are_not_certified(self):
        # a pair's centre exactly one radius above the axis, and a real
        # centre exactly one radius from 0, are not yet separated
        h = spectra._Handle(IntPoly((1, 0, 1)), (64, 256, False), 8)
        h.x, h.y, h.bits, h.e = 0, 1, 8, 8
        assert not spectra._certify_layout([h], 4, 1)  # radii at most 2^-4
        h.x, h.y, h.bits, h.e = 0, 2, 8, 8
        assert spectra._certify_layout([h], 4, 1)
        h = spectra._Handle(IntPoly((-2, 0, 1)), (256, 0, True), 8)
        h.x, h.bits, h.e = 1, 8, 8
        with pytest.raises(UnresolvedCertification):
            spectra._pin_real_signs([h], 1)

    # p = (x - 1)(2^20 x - 2^20 - 1): simple roots 1 and 1 + 2^-20.  The
    # radius bound 1/16 holds from the start, so only overlap forces the
    # refinement below.
    CLOSE_ROOTS = IntPoly((2**20 + 1, -(2**21 + 1), 2**20))

    def _layout(self, starts):
        p, e_min = self.CLOSE_ROOTS, 4  # radii at most 1/16
        handles = [_handle(p, (s, Fraction(0)), 64) for s in starts]
        assert not spectra._disjoint(*(spectra._disks(h)[0] for h in handles))
        return handles, spectra._certify_layout(handles, e_min, spectra._refine_budget(p, e_min))

    def test_overlapping_disks_refine_apart(self):
        # starts on either side of the midpoint 1 + 2^-21 end one per root
        mid, step = 1 + Fraction(1, 1 << 21), Fraction(1, 1 << 23)
        handles, certified = self._layout((mid - step, mid + step))
        assert certified
        assert spectra._disjoint(*(spectra._disks(h)[0] for h in handles))
        for h, root in zip(handles, (1, 1 + Fraction(1, 1 << 20))):
            (re, _), r = handle_view(h)
            assert abs(re - root) <= r

    def test_starts_on_one_root_do_not_certify(self):
        # both starts converge (linearly) to the root 1, so the disks never
        # separate and the stalled handle ends the refinement early
        handles, certified = self._layout((1 - Fraction(1, 1 << 10), 1 - Fraction(1, 1 << 11)))
        assert not certified
        assert any(h.stuck for h in handles)
        assert max(h.bits for h in handles) <= 1 << 14

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


def _spy_proposals(monkeypatch) -> list:
    """The bits of each _aberth_starts call from here on (None: doubles)."""
    calls = []
    starts = spectra._aberth_starts

    def spy(p, bits=None):
        calls.append(bits)
        return starts(p, bits)

    monkeypatch.setattr(spectra, "_aberth_starts", spy)
    return calls


class TestProposers:
    def test_large_coefficient_gets_float_starts(self, monkeypatch):
        # each coefficient is rounded once to a double; the starts certify
        # with no escalation
        calls = _spy_proposals(monkeypatch)
        for p in (IntPoly((2**60 + 1, 1, 1)), IntPoly((1, 2**53, 0, 1))):
            calls.clear()
            _assert_isolates(p, isolate_roots(p, Fraction(1, 2**64)))
            assert calls == [None]

    def test_coefficient_past_2_1023_reaches_the_dyadic_path(self, monkeypatch):
        # no double holds 2^1100, so the doubles give no starts and the
        # first dyadic precision does
        calls = _spy_proposals(monkeypatch)
        for p in (IntPoly((2**1100 + 1, 1, 1)), IntPoly((1, 2**1100, 0, 1))):
            assert spectra._aberth_starts(p) is None
            calls.clear()
            _assert_isolates(p, isolate_roots(p, Fraction(1, 2**64)), dps=400)
            assert calls == [None, 128]

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
        # non-real pair there, closer to each other as a grows; from a = 100
        # (n = 11) and a = 1000 (n = 5) on the double-precision starts do not
        # look clean, so isolation has to escalate
        c = [0] * (n + 1)
        c[n] = 1
        for i, v in enumerate((-2, 4 * a, -2 * a * a)):
            c[i] += sign * v
        p = IntPoly(tuple(c))
        _assert_isolates(p, isolate_roots(p, Fraction(1, 2**64)))

    def test_clustered_roots_escalate_to_256_bits(self, monkeypatch):
        # x^5 - 2(10^9 x - 1)^2 has two real roots about 4e-32 apart near
        # 1e-9; its roots scaled into the unit disk (by 2^22) are about
        # 2^-126 apart, closer than 128 bits resolve and not 256
        calls = _spy_proposals(monkeypatch)
        a = 10**9
        p = IntPoly((-2, 4 * a, -2 * a * a, 0, 0, 1))
        _assert_isolates(p, isolate_roots(p, Fraction(1, 2**64)))
        assert calls == [None, 128, 256]

    def test_far_pair_and_small_real_root(self):
        x = IntPoly((0, 1))
        shifted = x - IntPoly((2**20,))
        p = poly_mul(poly_mul(shifted, shifted) + IntPoly((1,)), x - IntPoly((3,)))
        _assert_isolates(p, isolate_roots(p, Fraction(1, 2**64)))

    def test_no_proposer_is_unresolved(self, monkeypatch):
        monkeypatch.setattr(spectra, "_aberth_starts", lambda p, bits=None: None)
        # with no starts even an all-real polynomial stays unresolved
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


class TestDyadicStarts:
    """A double approximation is rounded once, to integers at 64 bits; that
    must be the rounding of its exact Fraction (oracles.fraction_start),
    ties upward.  The escalation's _Dyadic rounds each operation to its own
    bits, and the real/pair split reads each approximation before any
    rounding."""

    def test_floats_round_as_their_fractions(self):
        rng = random.Random(1801)
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 0.5, -0.5]
        for _ in range(200):  # exact half-unit ties at 64 bits, both signs
            tie = (2 * rng.randint(0, 1 << 40) + 1) * 2.0**-65
            values += [tie, -tie]
        for _ in range(200):  # subnormals
            values.append(rng.uniform(-1, 1) * 2.0**-1022)
        for _ in range(2000):
            values.append(rng.uniform(-1, 1) * 2.0 ** rng.randint(-200, 200))
        for v in values:
            want = fraction_start((Fraction(v), Fraction(0)), 64)[0]
            assert spectra._float_dyadic(v, 64) == want, v

    @pytest.mark.parametrize("bits", [0, 1, 64, 128, 333])
    def test_dyadic_operations_round_as_their_fractions(self, bits):
        # each operation lies within one unit at 2^-bits of its exact value
        rng = random.Random(1803 + bits)
        unit = Fraction(1, 1 << bits)

        def value(v) -> tuple[Fraction, Fraction]:
            return (Fraction(v.x, 1 << v.bits), Fraction(v.y, 1 << v.bits))

        def near(got, re, im) -> bool:
            return abs(got[0] - re) <= unit and abs(got[1] - im) <= unit

        def part() -> int:
            return rng.choice((-1, 1)) * rng.randint(0, 1 << rng.choice((0, 3, bits, 2 * bits + 40)))

        for _ in range(300):
            u = spectra._Dyadic(part(), part(), bits)
            v = spectra._Dyadic(part(), part(), bits)
            n = rng.randint(-(1 << 70), 1 << 70)
            (ur, ui), (vr, vi) = value(u), value(v)
            assert value(u + v) == (ur + vr, ui + vi) == value(v + u)
            assert value(n + u) == (ur + n, ui) == value(u + n)
            assert value(u - v) == (ur - vr, ui - vi)
            assert value(u - n) == (ur - n, ui)
            assert near(value(u * v), ur * vr - ui * vi, ur * vi + ui * vr)
            assert value(u * n) == (ur * n, ui * n)
            assert (u == v) == ((ur, ui) == (vr, vi))
            assert (u == n) == ((ur, ui) == (n, 0))
            assert u.imag == float(ui)
            assert abs(u) == pytest.approx(math.hypot(ur, ui), rel=1e-15)
            m = vr * vr + vi * vi
            if m:
                assert near(value(u / v), (ur * vr + ui * vi) / m, (ui * vr - ur * vi) / m)
                assert near(value(n / v), n * vr / m, -n * vi / m)
            else:
                with pytest.raises(ZeroDivisionError):
                    u / v

    def test_dyadic_realness_split(self, monkeypatch):
        # an approximation within its error estimate of the axis gives a real
        # start, y = 0, one above the axis by more gives a pair start, its
        # conjugate none; roots of q(y) = p(2^s*y) come back as y*2^s
        p = IntPoly((-2, -1, -2, 1))  # (x - 2)(x^2 + x + 1), monic
        b, half = 128, Fraction(1, 2)
        re = [Fraction(2), -half, -half]
        for im, err, want in [
            ([Fraction(1, 2**90), half, -half], [2.0**-90, 2.0**-80, 2.0**-80], True),
            ([Fraction(1, 2**80), half, -half], [2.0**-90, 2.0**-80, 2.0**-80], None),
        ]:
            def fake(c, a, z, eps, mag, im=im, err=err):
                s = (c[0].bit_length() - 1) // p.degree  # q's leading coefficient is 2^(s*d)
                z[:] = [spectra._Dyadic(*(int(v * 2**(b - s)) for v in w), b) for w in zip(re, im)]
                return err

            monkeypatch.setattr(spectra, "_aberth", fake)
            got = spectra._aberth_starts(p, b)
            if want is None:  # one start above the axis too many
                assert got is None
                continue
            starts, at = got
            assert [(Fraction(x, 1 << at), Fraction(y, 1 << at), real) for x, y, real in starts] == [
                (re[0], 0, True), (re[1], im[1], False)
            ]

    def test_integer_order_is_the_fraction_order(self):
        # mixed precisions, shared real parts, equal centres at different bits
        rng = random.Random(1802)
        for _ in range(400):
            shared = [Fraction(rng.randint(-8, 8), 1 << rng.randint(0, 6)) for _ in range(3)]
            handles = []
            for _ in range(rng.randint(1, 9)):
                bits = rng.choice((64, 140, 333))
                if rng.random() < 0.7:
                    re = rng.choice(shared)
                else:
                    re = Fraction(rng.randint(-(1 << 80), 1 << 80), 1 << rng.randint(0, 90))
                is_real = rng.random() < 0.4
                im = 0 if is_real else Fraction(rng.randint(1, 1 << 40), 1 << rng.randint(0, 50))
                x, y, _ = fraction_start((re, Fraction(im)), bits)
                handles.append(SimpleNamespace(x=x, y=y, bits=bits, is_real=is_real))
            want = sorted(handles, key=lambda h: (
                not h.is_real, Fraction(h.x, 1 << h.bits), Fraction(h.y, 1 << h.bits)
            ))
            assert list(map(id, spectra._order_handles(handles))) == list(map(id, want))


# Boxes of three summaries of matrices with entries 10^9 or 10^18 (chi_A has
# coefficients beyond 2^53), each (re, im, radius, multiplicity, is_real,
# partner), and the proposals each summary asked for: doubles suffice for
# the third, the first two escalate to 128 bits.
_LARGE_ENTRY_BOXES = {
    ((10**9, 1, 0), (1, 10**9, 1), (0, 1, -(10**9))): ([None, 128], [
        ("-79228162514264337633158031593132168797/79228162514264337593543950336",
         "0", "1/79228162514264337593543950336", 1, True, None),
        ("39614081217518087549543326689224887149/39614081257132168796771975168",
         "0", "1/158456325028528675187087900672", 1, True, None),
        ("158456325186985000255230657101364788997/158456325028528675187087900672",
         "0", "1/79228162514264337593543950336", 1, True, None),
    ]),
    ((10**9, -1, 0), (1, 10**9, 0), (0, 0, -(10**9))): ([None, 128], [
        ("-1000000000", "0", "1/340282366920938463463374607431768211456", 1, True, None),
        ("1000000000", "1", "1/340282366920938463463374607431768211456", 1, False, 2),
        ("1000000000", "-1", "1/340282366920938463463374607431768211456", 1, False, 1),
    ]),
    ((0, 1, 0), (0, 0, 1), (10**18, 0, 0)): ([None, None], [
        ("1000000", "0", "1/18446744073709551616", 1, True, None),
        ("-85070591730234615865843651857941984708142649/170141183460469231731687303715884105728",
         "147346587106715120692043727842883656707694723/170141183460469231731687303715884105728",
         "1/309485009821345068724781056", 1, False, 2),
        ("-85070591730234615865843651857941984708142649/170141183460469231731687303715884105728",
         "-147346587106715120692043727842883656707694723/170141183460469231731687303715884105728",
         "1/309485009821345068724781056", 1, False, 1),
    ]),
}


@pytest.mark.parametrize("rows", sorted(_LARGE_ENTRY_BOXES))
def test_large_entry_summary_boxes(monkeypatch, rows):
    calls = _spy_proposals(monkeypatch)
    summary = spectral_summary(IntMatrix(rows))
    got = [(str(b.center[0]), str(b.center[1]), str(b.radius), b.multiplicity, b.is_real,
            b.conjugate_partner) for b in summary.roots]
    assert (calls, got) == _LARGE_ENTRY_BOXES[rows]
    _assert_isolates(summary.char_poly, summary.roots, dps=60)


def test_escalation_certifies_with_mpmath_blocked(monkeypatch):
    # no root start may come from mpmath: a clustered pair, coefficients
    # past 2^1023 and roots 10^400 apart from 0 certify without it, and
    # roots 2 apart at 10^400 leave a typed UNKNOWN: on that double cluster
    # Aberth's iteration converges only linearly and stops at its step cap
    # with the two approximations still 2^-201 apart at every precision
    a = 10**9
    polys = {
        IntPoly((-2, 4 * a, -2 * a * a, 0, 0, 1)): 100,  # oracle digits
        IntPoly((2**1100 + 1, 1, 1)): 400,
        IntPoly((-(10**800), 0, 1)): 500,
    }
    with monkeypatch.context() as blocked:
        blocked.setitem(sys.modules, "mpmath", None)
        boxes = {p: isolate_roots(p, Fraction(1, 2**64)) for p in polys}
        summaries = {rows: spectral_summary(IntMatrix(rows)) for rows in _LARGE_ENTRY_BOXES}
        far = monodeg.classify_d1(IntMatrix(((10**400, 1), (1, 10**400))))
    for p, dps in polys.items():
        _assert_isolates(p, boxes[p], dps)
    for rows, summary in summaries.items():
        got = [(str(b.center[0]), str(b.center[1]), str(b.radius), b.multiplicity, b.is_real,
                b.conjugate_partner) for b in summary.roots]
        assert got == _LARGE_ENTRY_BOXES[rows][1]
    assert (far.classification, far.details) == (
        "UNKNOWN", {"unresolved": "root isolation did not converge"}
    )


@dataclass(frozen=True)
class ModulusClassification:
    roots: tuple[RootBox, ...]
    classes: tuple[ModulusClass, ...]


def _ordered_handles(p):
    return spectra._order_handles(spectra._isolate_handles(p, spectra._DEFAULT_EPS_BITS))


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
        p = poly_mul(IntPoly((-2, 1)), IntPoly((2, 1)), IntPoly((-3, 1)))
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
        p = poly_mul(IntPoly((-2, 1)), IntPoly((1, 0, 1)), IntPoly((-1, 2)))
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
        s = spectral_summary(_companion(p))
        pair_flags = [f for b, f in zip(s.roots, s.ratio_flags) if not b.is_real]
        assert [f.kind for f in pair_flags] == [NOT_ROOT_OF_UNITY] * 2


# Q with the roots -3, 0, 1/2, 1, 9/4, 4 and +-sqrt(2), so that every
# span endpoint compares exactly with every root
_STURM_RATIONAL = [Fraction(-3), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(9, 4),
                   Fraction(4)]
_STURM_Q = poly_mul(IntPoly((-2, 0, 1)), *(IntPoly((-r.numerator, r.denominator))
                                            for r in _STURM_RATIONAL))


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
        cases.append(poly_mul(x - IntPoly((r,)), x + IntPoly((r,))))
        cases.append(poly_mul(IntPoly((r * r, 0, 1)), x - IntPoly((r,))))
    cases.append(poly_mul(IntPoly((-1, 2)), IntPoly((1, 2))))  # +-1/2
    for m in range(1, 7):
        for c in (1, 2, 3):
            cases.append(IntPoly((-c,) + (0,) * (m - 1) + (1,)))
            cases.append(IntPoly((c,) + (0,) * (m - 1) + (1,)))
    for a, b in [(1, 2), (3, 4), (5, 6), (1, 8), (2, 12), (7, 9), (10, 5)]:
        cases.append(poly_mul(cyclotomic(a), cyclotomic(b)))
    for scale in (100, 10**4, 10**9):
        cluster = IntPoly((-1, scale))
        cases.append(IntPoly((0, 0, 0, 0, 0, 1)) - poly_mul(IntPoly((2,)), cluster, cluster))
    return cases


def _random_modulus_products(n: int, seed: int):
    x = IntPoly((0, 1))
    rng = random.Random(seed)
    factors = (
        [x - IntPoly((r,)) for r in (-3, -2, -1, 1, 2, 3)]
        + [IntPoly((r * r, 0, 1)) for r in (1, 2, 3)]
        + [IntPoly((c,) + (0,) * (m - 1) + (1,)) for m in (2, 3, 4) for c in (-2, -1, 1, 2)]
        + [cyclotomic(m) for m in (3, 4, 5, 6, 8, 12)]
    )
    out = []
    while len(out) < n:
        p = poly_mul(*rng.sample(factors, rng.randint(2, 3)))
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
        got = self._check(poly_mul(IntPoly((4, 1, 1)), IntPoly((-2051, 0, 512))))
        assert [(len(c.indices), c.versus_one) for c in got] == [(2, GT), (1, GT)]

    def test_equal_moduli_and_unit_modulus(self):
        x = IntPoly((0, 1))
        # (x - 2)(x + 2)(x^2 + 4)(x^2 + 1): moduli 2 (four roots) and 1
        p = poly_mul(x - IntPoly((2,)), x + IntPoly((2,)), IntPoly((4, 0, 1)), IntPoly((1, 0, 1)))
        got = self._check(p)
        assert [c.versus_one for c in got] == [GT, EQ]
        assert [len(c.indices) for c in got] == [3, 1]  # handle indices: pairs count once


def _companion(p: IntPoly) -> IntMatrix:
    """Companion matrix of a monic p, whose characteristic polynomial is p."""
    d = p.degree
    rows = [tuple(int(j == i + 1) for j in range(d)) for i in range(d - 1)]
    return IntMatrix((*rows, tuple(-c for c in p.coeffs[:-1])))


def _spy_product_poly(monkeypatch) -> list:
    calls = []
    real = spectra._product_poly

    def spy(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(spectra, "_product_poly", spy)
    return calls


class TestProductPolynomialOnDemand:
    """The product polynomial is built only when a |root|^2 span overlaps
    another span or holds 1."""

    def test_generic_matrices_never_build_it(self, monkeypatch):
        calls = _spy_product_poly(monkeypatch)
        rng = random.Random(1201)
        for k in range(3, 9):
            for _ in range(3):
                spectral_summary(random_rank_matrix(rng, k, -5, 5))
        assert calls == []

    def test_equal_moduli_build_it(self, monkeypatch):
        calls = _spy_product_poly(monkeypatch)
        x = IntPoly((0, 1))
        four = poly_mul(
            x - IntPoly((2,)), x + IntPoly((2,)), IntPoly((4, 0, 1)), IntPoly((1, 0, 1))
        )
        touching = poly_mul(IntPoly((4, 1, 1)), IntPoly((-2051, 0, 512)))
        for n, p in enumerate((four, touching), start=1):
            spectra._partition_by_modulus(_ordered_handles(p), p, 256)
            assert len(calls) == n
        summary = spectral_summary(_companion(four))
        assert len(calls) == 3
        assert [(len(c.indices), c.versus_one) for c in summary.modulus_classes] == [
            (4, GT), (2, EQ),
        ]

    @pytest.mark.parametrize("p, starts, expected", [
        # the root 1.01, started at 1: its span holds 1, its modulus is not 1
        (IntPoly((-101, 100)), (1,), [((0,), GT)]),
        # the roots -2.01 and 2, started at -2 and 2: the span of the first
        # holds the point span of the exact second, the moduli differ
        (poly_mul(IntPoly((-2, 1)), IntPoly((201, 100))), (-2, 2), [((0,), GT), ((1,), GT)]),
    ])
    def test_coarse_spans_build_it(self, monkeypatch, p, starts, expected):
        def coarse():  # real handles at 8 bits: spans as wide as the Newton radius
            return [spectra._Handle(p, (x << 8, 0, True), 8) for x in starts]

        own = [spectra._modsq_interval(h, 32) for h in coarse()]
        assert any(lo <= 1 << s <= hi for lo, hi, s in own) or any(
            spectra._hull(a, b) is not None for i, a in enumerate(own) for b in own[i + 1:]
        )
        oracle = modulus_classes_oracle(coarse(), p, 256)
        calls = _spy_product_poly(monkeypatch)
        got = spectra._partition_by_modulus(coarse(), p, 256)
        assert got == oracle
        assert [(c.indices, c.versus_one) for c in got] == expected
        assert len(calls) == 1


class TestSharedSturmChain:
    """_sturm_chain of a product polynomial Q with repeated roots divides its
    one remainder sequence by gcd(Q, Q'); its counts must equal those of the
    chain of Q's squarefree part."""

    def test_counts_match_the_squarefree_chain(self):
        divided = endpoint_roots = 0
        for p in _modulus_cases() + _random_modulus_products(40, 2027):
            p = p.primitive_positive()
            q = spectra._product_poly(p)
            q_sf = squarefree_part(q)[0]
            shared, separate = spectra._sturm_chain(q), spectra._sturm_chain(q_sf)
            assert shared[0].primitive_positive() == q_sf
            if q_sf.degree == q.degree:
                assert shared == separate  # squarefree Q: nothing is divided
                continue
            divided += 1
            for h in _ordered_handles(p):
                own = spectra._modsq_interval(h, max(32, (h.e or 0) + 8))
                for c in (8, own[2]):
                    lo, hi, s = spectra._round_out(own, c)
                    assert (spectra._sturm_count(shared, lo, hi, s)
                            == spectra._sturm_count(separate, lo, hi, s))
                    endpoint_roots += q_sf.sign_at(lo, 1 << s) == 0
                    endpoint_roots += q_sf.sign_at(hi, 1 << s) == 0
        assert divided >= 40
        assert endpoint_roots > 0


class TestLargeKClassesAgainstMpmath:
    @pytest.mark.parametrize("k, seed", [(8, 1), (8, 2), (8, 3), (10, 1), (10, 2)])
    def test_classes_match_the_ranking(self, k, seed):
        a = random_rank_matrix(random.Random(f"large-k/{k}/{seed}"), k, -3, 3)
        summary = spectral_summary(a)
        chi = summary.char_poly
        if poly_gcd(chi, chi.derivative()).degree > 0:
            pytest.skip("repeated eigenvalue")
        ranking = modulus_ranking_oracle(chi)
        if ranking is None:
            pytest.skip("moduli not separated by 10^-40 at 60 digits")
        got = summary.modulus_classes
        assert [(len(c.indices), c.versus_one) for c in got] == [(n, v) for _, n, v in ranking]
        for cls, (modulus, _, _) in zip(got, ranking):
            for i in cls.indices:
                re, im = summary.roots[i].center
                assert abs(math.hypot(re, im) - modulus) < 1e-9


def _oracle_product_sf(p: IntPoly) -> IntPoly:
    """Squarefree part of Res_y(p(y), y^d p(z/y)), roots all root_i*root_j."""
    d = p.degree
    f_y = [IntPoly((c,)) for c in p.coeffs]
    g_y = [IntPoly((0,) * (d - j) + (coeff(p, d - j),)) for j in range(d + 1)]
    return squarefree_part(sylvester_resultant_in_y(f_y, g_y))[0]


def _assert_matches_oracle(p: IntPoly) -> None:
    assert squarefree_part(spectra._product_poly(p))[0] == _oracle_product_sf(p)


class TestPowerSumConstructionOracle:
    """The squarefree part of the product polynomial against the Sylvester
    determinant."""

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
            _assert_matches_oracle(poly_mul(*(IntPoly((-r, 1)) for r in roots)))

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


def _product(*factors) -> IntPoly:
    return poly_mul(*map(IntPoly, factors))


# Quadratic (or cyclotomic) factors, each with the order of its roots'
# conjugate ratio as a root of unity, None when it is not one.
_ATTRIBUTION_CASES = {
    "phi_15": [(cyclotomic(15).coeffs, 15)],
    # the candidate m = 2 comes from +-i, so G_2 (roots lambda^2) has the
    # double root -1 and is not squarefree
    "orders 3, 3, 2 and one not": [
        ((4, 2, 1), 3), ((3, -2, 1), None), ((1, 0, 1), 2), ((1, 1, 1), 3),
    ],
    "exact Gaussian pair 1 +- i": [((2, -2, 1), 4)],
    "k = 10": [
        ((4, 2, 1), 3), ((3, -2, 1), None), ((3, 0, 1), 2), ((2, 1, 1), None), ((5, -1, 1), None),
    ],
}


def _expected_flag(factors, center) -> tuple[str, int | None]:
    """The flag of the factor whose root the centre approximates."""
    def residual(f):
        re, im = eval_gaussian(IntPoly(f[0]), center)
        return re * re + im * im

    order = min(factors, key=residual)[1]
    return (ROOT_OF_UNITY, order) if order else (NOT_ROOT_OF_UNITY, None)


def _seeded_pair_product(rng: random.Random, k: int) -> IntPoly:
    """A degree-k product of random monic quadratics x^2 + b*x + c (and one
    linear factor for odd k): small b and c often give a conjugate ratio
    that is a root of unity of order 2, 3, 4 or 6."""
    p = IntPoly((rng.choice([-3, -2, -1, 1, 2, 3]), 1)) if k % 2 else IntPoly((1,))
    for _ in range(k // 2):
        p = poly_mul(p, IntPoly((rng.randint(1, 5), rng.randint(-3, 3), 1)))
    return p


class TestPairAttribution:
    """Root-of-unity flags of conjugate pairs from the disk around lambda^m."""

    @pytest.mark.parametrize("name", sorted(_ATTRIBUTION_CASES))
    def test_hand_cases(self, name):
        factors = _ATTRIBUTION_CASES[name]
        s = spectral_summary(_companion(_product(*(f for f, _ in factors))))
        pairs = [(b, f) for b, f in zip(s.roots, s.ratio_flags) if not b.is_real]
        assert pairs
        for box, flag in pairs:
            assert (flag.kind, flag.order) == _expected_flag(factors, box.center)

    def test_second_power_polynomial_is_not_squarefree(self):
        p = _product(*(f for f, _ in _ATTRIBUTION_CASES["orders 3, 3, 2 and one not"]))
        g2 = _root_powers(p, 2)
        assert g2.degree == p.degree
        assert squarefree_part(g2)[0].degree < g2.degree

    @pytest.mark.parametrize("name", sorted(_ATTRIBUTION_CASES))
    def test_coarse_handles_give_the_same_flags(self, name):
        # Handles started at 3..8 bits: disks around lambda^m wide enough to
        # meet the axis or a neighbouring root, and a negative exponent e'.
        factors = _ATTRIBUTION_CASES[name]
        sf = squarefree_part(_product(*(f for f, _ in factors)))[0]
        n = sf.degree
        candidates = [m for m in orders_with_phi_at_most(n * (n - 1)) if m != 1]
        fine = _ordered_handles(sf)
        tried = negative = 0
        for i, h in enumerate(fine):
            if h.is_real:
                continue
            others = [d for j, g in enumerate(fine) for d in spectra._disks(g) if j != i]
            others.append(spectra._disks(h)[1])  # the conjugate

            def holds_lambda_alone(coarse) -> bool:
                disk = spectra._disks(coarse)[0]
                return coarse.e is not None and all(spectra._disjoint(disk, d) for d in others)

            centre = handle_view(h)[0]
            for bits in range(3, 9):
                coarse = _handle(sf, centre, bits)
                if coarse.is_real or not holds_lambda_alone(coarse):
                    continue
                disks = zip(range(1, candidates[-1] + 1), spectra._power_disks(coarse))
                negative += any(disk[3] < 0 for m, disk in disks if m in candidates)
                flag = spectra._attribute_pair(coarse, sf, candidates, 256)
                assert holds_lambda_alone(coarse)
                assert (flag.kind, flag.order) == _expected_flag(factors, centre)
                tried += 1
        assert tried >= 4
        if name != "exact Gaussian pair 1 +- i":
            assert negative

    @pytest.mark.parametrize("name", sorted(_ATTRIBUTION_CASES))
    def test_power_disk_holds_the_power(self, name):
        import mpmath

        def mpc(re: Fraction, im: Fraction):
            return mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                              mpmath.mpf(im.numerator) / im.denominator)

        factors = _ATTRIBUTION_CASES[name]
        sf = squarefree_part(_product(*(f for f, _ in factors)))[0]
        roots = polyroots_oracle(sf, 60)
        checked = 0
        with mpmath.workdps(60):
            for h in _ordered_handles(sf):
                if h.is_real:
                    continue
                for bits in range(3, 9):
                    coarse = _handle(sf, handle_view(h)[0], bits)
                    if coarse.e is None or coarse.is_real:
                        continue
                    (re, im), r = handle_view(coarse)
                    c = mpc(re, im)
                    lam = min((mpc(*z) for z in roots), key=lambda z: abs(z - c))
                    if abs(lam - c) > mpmath.mpf(r.numerator) / r.denominator:
                        continue  # the coarse disk holds another root
                    power = mpmath.mpc(1)
                    for _, (x, y, b, e) in zip(range(399), spectra._power_disks(coarse)):
                        power *= lam  # lambda^m for m = 1..399
                        dx, dy = power.real - mpmath.ldexp(x, -b), power.imag - mpmath.ldexp(y, -b)
                        assert dx * dx + dy * dy <= mpmath.ldexp(1, -2 * e)
                        checked += 1
        assert checked >= 4 * 399

    @pytest.mark.parametrize("k", range(3, 9))
    def test_flags_match_the_mpmath_oracle(self, k):
        rng = random.Random(f"unity-ratio/{k}")
        polys = [_seeded_pair_product(rng, k) for _ in range(6)]
        polys += [char_poly(random_rank_matrix(rng, k, -2, 2)) for _ in range(2)]
        checked = 0
        for p in polys:
            s = spectral_summary(_companion(p))
            oracle = unity_order_oracle(squarefree_part(p)[0])
            if oracle is None:
                continue
            for got, want in pair_flags_vs_oracle(s, oracle):
                assert got == want
                checked += 1
        assert checked >= 6

    def test_order_three_pairs_inside_and_outside_the_unit_circle(self):
        # x^6 + 2x^3 - 1: lambda^3 is sqrt(2) - 1 or -sqrt(2) - 1, so both
        # pairs have conjugate ratios of order 3, one at |lambda| < 1, where
        # the walk's powers shrink towards 0
        p = IntPoly((-1, 0, 0, 2, 0, 0, 1))
        s = spectral_summary(_companion(p))
        checked = pair_flags_vs_oracle(s, unity_order_oracle(p))
        assert [want for _, want in checked] == [(ROOT_OF_UNITY, 3)] * 2
        assert all(got == want for got, want in checked)
        assert [c.versus_one for c in s.modulus_classes] == [GT, LT]

    @pytest.mark.parametrize("k", (8, 12, 16))
    def test_power_polynomials_only_for_returned_orders(self, k, monkeypatch):
        # Every m whose disk around lambda^m misses the real axis is passed
        # over, so G_m is built only for an order some pair returns.  A
        # looser walk sends false m to G_m, whose isolation is the cost.
        built = []
        real = spectra._root_powers

        def spy(p, m):
            built.append(m)
            return real(p, m)

        monkeypatch.setattr(spectra, "_root_powers", spy)
        rng = random.Random(f"power-screen/{k}")
        for _ in range(4):
            built.clear()
            s = spectral_summary(random_rank_matrix(rng, k, -3, 3))
            orders = {f.order for b, f in zip(s.roots, s.ratio_flags)
                      if not b.is_real and f.kind == ROOT_OF_UNITY}
            assert set(built) <= orders

    def test_no_isolation_above_degree_k(self, monkeypatch):
        degrees = []
        real = spectra._isolate_handles

        def spy(p, *args, **kwargs):
            degrees.append(p.degree)
            return real(p, *args, **kwargs)

        monkeypatch.setattr(spectra, "_isolate_handles", spy)
        rng = random.Random(1301)
        matrices = [random_rank_matrix(rng, 3 + n % 6, -3, 3) for n in range(18)]
        matrices += [
            _companion(_product(*(f for f, _ in factors)))
            for factors in _ATTRIBUTION_CASES.values()
        ]
        attributed = 0
        for a in matrices:
            degrees.clear()
            s = spectral_summary(a)
            assert degrees and max(degrees) <= a.k
            # isolations beyond those of the char poly's squarefree factors
            attributed += len(degrees) > len(squarefree_part(s.char_poly)[1])
        assert attributed >= len(_ATTRIBUTION_CASES)


def _pair_flags(p: IntPoly) -> list[tuple[str, int | None]]:
    """(kind, order) of the ratio flag of each upper half-plane pair box in
    the summary of p's companion, in box order."""
    s = spectral_summary(_companion(p))
    return [(f.kind, f.order) for b, f in zip(s.roots, s.ratio_flags)
            if not b.is_real and b.center[1] > 0]


class TestPairRatioFlags:
    """Ratio flags of whole summaries on small polynomials, each checked
    without the power walk."""

    def test_pure_imaginary_pair(self):
        # x^2 + 4: lambda = 2i, zeta = -1, and the powers grow
        assert _pair_flags(IntPoly((4, 0, 1))) == [(ROOT_OF_UNITY, 2)]

    def test_non_unity_pair(self):
        # x^2 - 2x + 3: zeta = (1 - i sqrt 2)^2 / 3 = (-1 - 2i sqrt 2)/3, whose
        # minimal polynomial 3x^2 + 2x + 3 is not monic
        assert _pair_flags(IntPoly((3, -2, 1))) == [(NOT_ROOT_OF_UNITY, None)]

    def test_forward_cubic_pair(self):
        s = spectral_summary(_companion(HP_CHAR))
        flags = [(f.kind, f.order) for f in s.ratio_flags]
        assert sorted(flags, key=repr) == sorted(
            [(ROOT_OF_UNITY, 1)] + [(NOT_ROOT_OF_UNITY, None)] * 2, key=repr
        )

    def test_distinct_real_roots(self):
        s = spectral_summary(_companion(IntPoly((-6, 1, 4, 1))))  # -3, -2, 1
        assert all(b.is_real for b in s.roots)
        assert s.ratio_flags == (spectra.RatioFlag(ROOT_OF_UNITY, 1),) * 3

    @pytest.mark.parametrize("m", (3, 5, 7, 9, 12))
    def test_orders_are_cyclotomic_roots(self, m):
        # Phi_m's roots lambda have zeta = lambda^-2: order m / gcd(m, 2).
        # Each order returned is checked on zeta itself, from mpmath roots:
        # Phi_order(zeta) = 0 and zeta^d != 1 for every proper divisor d.
        import mpmath

        p = cyclotomic(m)
        s = spectral_summary(_companion(p))
        with mpmath.workdps(60):
            roots = mpmath.polyroots(p.coeffs[::-1], maxsteps=200, extraprec=240)
            checked = 0
            for box, flag in zip(s.roots, s.ratio_flags):
                if box.is_real:
                    continue
                lam = min(roots, key=lambda z: abs(z - complex(*box.center)))
                zeta = mpmath.conj(lam) / lam
                assert flag.kind == ROOT_OF_UNITY
                assert flag.order == m // math.gcd(m, 2)
                assert abs(mpmath.polyval(cyclotomic(flag.order).coeffs[::-1], zeta)) < 1e-40
                for d in range(1, flag.order):
                    if flag.order % d == 0:
                        assert abs(zeta**d - 1) > 1e-3
                checked += 1
        assert checked == p.degree

    def test_reversal_keeps_the_flags(self):
        # chi of A^-1 is the monic reversal of chi_A; 1/lambda has the
        # conjugate ratio 1/zeta = conj(zeta), of the same order
        rng = random.Random(33)
        checked = 0
        for _ in range(15):
            middle = [rng.randint(-3, 3) for _ in range(rng.choice([1, 2, 3]))]
            p = IntPoly([rng.choice((-1, 1)), *middle, 1])
            q = IntPoly(tuple(c * p.constant for c in reversed(p.coeffs)))
            flags = sorted(_pair_flags(p), key=repr)
            assert flags == sorted(_pair_flags(q), key=repr)
            checked += len(flags)
        assert checked >= 5


class TestPowerWalk:
    """The dyadic disks of _power_disks and the axis test that screens them."""

    def test_misses_axis_against_fractions(self):
        rng = random.Random(787)
        disks = [_dyadic_disk(rng) for _ in range(400)]
        # a disk tangent to the axis meets it; one a unit further out misses
        disks += [(0, 3, 2, 2), (0, -3, 2, 2), (5, 4, 2, 0), (5, 5, 2, 0), (0, 0, 0, 9)]
        for x, y, b, e in disks:
            want = abs(Fraction(y, 1 << b)) > Fraction(1, 1 << e)
            assert spectra._misses_axis((x, y, b, e)) == want

    @pytest.mark.parametrize("coeffs", [
        (-1, 0, 0, 2, 0, 0, 1),  # pairs at |lambda| < 1 and > 1
        (4, 0, 1),  # 2i
        (1, 0, 4),  # i/2
        (-1, 1, 1, 1),  # HP_CHAR, |lambda| > 1
    ])
    def test_relative_radius_grows_linearly(self, coeffs):
        # The radius of the m-th disk over the modulus of its centre stays
        # within a few bits of m*r/|c|, r = 2^-e the handle's radius: the
        # mantissa follows the handle, and no step loses a constant factor.
        checked = 0
        for h in _ordered_handles(IntPoly(coeffs)):
            if h.is_real:
                continue
            c = math.log2(math.hypot(h.x, h.y)) - h.bits
            for m, (x, y, b, e) in zip(range(1, 401), spectra._power_disks(h)):
                centre = math.log2(math.hypot(x, y)) - b
                assert -e - centre <= math.log2(m) - h.e - c + 3
                checked += 1
        assert checked >= 400


class TestSpectralSummary:
    def test_negative_precision_rejected(self):
        for bits in (-1, -1000):
            with pytest.raises(ValueError, match="precision must be nonnegative"):
                spectral_summary(PAIR_2X2, bits)
        assert spectral_summary(PAIR_2X2, 0).ratio_flags[0].kind == NOT_ROOT_OF_UNITY

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
