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
from monodeg.exact import IntMatrix, IntPoly, _root_powers, char_poly, cyclotomic, det, poly_gcd
from monodeg.spectra import (
    EQ,
    GT,
    LT,
    NOT_ROOT_OF_UNITY,
    ROOT_OF_UNITY,
    UNRESOLVED,
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
    eval_gaussian,
    fraction_start,
    handle_view,
    modsq_interval_oracle,
    modulus_classes_oracle,
    modulus_ranking_oracle,
    mpf_fraction,
    polyroots_oracle,
    poly_pow,
    random_rank_matrix,
    ratio_full_oracle,
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


class TestProposers:
    def test_large_coefficient_escalates_to_mpmath(self, monkeypatch):
        calls = []
        mp_starts = spectra._complex_starts

        def spy(p, dps, bits):
            calls.append(dps)
            return mp_starts(p, dps, bits)

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

        def spy(p, dps, bits):
            calls.append(dps)
            return mp_starts(p, dps, bits)

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
        monkeypatch.setattr(spectra, "_complex_starts", lambda p, dps, bits: None)
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


class TestDyadicStarts:
    """The proposers round each approximation once, to integers at their own
    precision; that must be the rounding of the approximation's exact
    Fraction (oracles.fraction_start), ties upward."""

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

    @pytest.mark.parametrize("dps", [30, 60, 120, 240, 480])
    def test_mpfs_round_as_their_fractions(self, dps):
        import mpmath

        bits = math.ceil(dps * math.log2(10)) + 8  # the escalation's start precision
        rng = random.Random(dps)
        with mpmath.workdps(dps):
            prec = mpmath.mp.prec
            values = [mpmath.mpf(0)]
            for _ in range(300):
                man = rng.randint(-(1 << prec), 1 << prec)
                values.append(mpmath.ldexp(mpmath.mpf(man), rng.randint(-3 * bits, bits)))
            for _ in range(50):  # exact half-unit ties at bits, both signs
                tie = mpmath.ldexp(mpmath.mpf(2 * rng.randint(0, 1 << 40) + 1), -bits - 1)
                values += [tie, -tie]
            for v in values:
                want = fraction_start((mpf_fraction(v), Fraction(0)), bits)[0]
                assert spectra._mpf_dyadic(v, bits) == want, v

    def test_mpmath_starts_keep_the_exact_realness_test(self):
        # is_real is polyroots' own verdict, an imaginary part exactly 0, and
        # never a y that rounds to 0
        import mpmath

        a = 10**9
        for p in (IntPoly((2**60 + 1, 1, 1)), IntPoly((1, 2**53, 0, 1)),
                  IntPoly((-2, 4 * a, -2 * a * a, 0, 0, 1))):
            for dps in (35, 70):
                bits = math.ceil(dps * math.log2(10)) + 8
                with mpmath.workdps(dps):
                    roots = mpmath.polyroots(
                        [mpmath.mpf(c) for c in reversed(p.coeffs)], maxsteps=500, extraprec=2 * dps
                    )
                    parts = [(mpf_fraction(mpmath.re(z)), mpf_fraction(mpmath.im(z))) for z in roots]
                want = [fraction_start(z, bits) for z in parts if z[1] >= 0]
                assert spectra._complex_starts(p, dps, bits) == want

    def test_tiny_imaginary_part_stays_a_pair(self, monkeypatch):
        # an approximation 2^-400 above the axis rounds to y = 0 at 108 bits
        # and is still the start of a pair
        import mpmath

        tiny = mpmath.ldexp(mpmath.mpf(1), -400)
        monkeypatch.setattr(mpmath, "polyroots", lambda *args, **kw: [
            mpmath.mpc(1, tiny), mpmath.mpc(1, -tiny)
        ])
        assert spectra._complex_starts(IntPoly((2, -2, 1)), 30, 108) == [(1 << 108, 0, False)]

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


# Boxes of three summaries whose starts come from mpmath (coefficients of
# chi_A beyond 2^53), each (re, im, radius, multiplicity, is_real, partner).
_MPMATH_SEEDED_BOXES = {
    ((10**9, 1, 0), (1, 10**9, 1), (0, 1, -(10**9))): [
        ("-10633823966279326988547368465382420099615228241/10633823966279326983230456482242756608",
         "0", "1/21267647932558653966460912964485513216", 1, True, None),
        ("10633823955645503019609585491579052868403544417/10633823966279326983230456482242756608",
         "0", "1/42535295865117307932921825928971026432", 1, True, None),
        ("664613998557071934510514966002882739950730239/664613997892457936451903530140172288",
         "0", "1/10633823966279326983230456482242756608", 1, True, None),
    ],
    ((10**9, -1, 0), (1, 10**9, 0), (0, 0, -(10**9))): [
        ("-1000000000", "0", "1/365375409332725729550921208179070754913983135744", 1, True, None),
        ("1000000000", "1", "1/365375409332725729550921208179070754913983135744", 1, False, 2),
        ("1000000000", "-1", "1/365375409332725729550921208179070754913983135744", 1, False, 1),
    ],
    ((0, 1, 0), (0, 0, 1), (10**18, 0, 0)): [
        ("1000000", "0", "1/42535295865117307932921825928971026432", 1, True, None),
        ("-500000", "1097817622920238380819884895107772489/1267650600228229401496703205376",
         "1/1267650600228229401496703205376", 1, False, 2),
        ("-500000", "-1097817622920238380819884895107772489/1267650600228229401496703205376",
         "1/1267650600228229401496703205376", 1, False, 1),
    ],
}


@pytest.mark.parametrize("rows", sorted(_MPMATH_SEEDED_BOXES))
def test_mpmath_seeded_summary_boxes(monkeypatch, rows):
    calls = []
    mp_starts = spectra._complex_starts

    def spy(p, dps, bits):
        calls.append(dps)
        return mp_starts(p, dps, bits)

    monkeypatch.setattr(spectra, "_complex_starts", spy)
    boxes = spectral_summary(IntMatrix(rows)).roots
    assert calls
    got = [(str(b.center[0]), str(b.center[1]), str(b.radius), b.multiplicity, b.is_real,
            b.conjugate_partner) for b in boxes]
    assert got == _MPMATH_SEEDED_BOXES[rows]


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
        four = (x - IntPoly((2,))) * (x + IntPoly((2,))) * IntPoly((4, 0, 1)) * IntPoly((1, 0, 1))
        touching = IntPoly((4, 1, 1)) * IntPoly((-2051, 0, 512))
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
        (IntPoly((-2, 1)) * IntPoly((201, 100)), (-2, 2), [((0,), GT), ((1,), GT)]),
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


def _ratio_full(reduced: IntPoly, k: int) -> IntPoly:
    """The full ratio polynomial reduced * (x - 1)^k."""
    return reduced * poly_pow(IntPoly((-1, 1)), k)


class TestRatioPolynomial:
    def test_quadratic_pair(self):
        reduced = ratio_polynomial(IntPoly((1, 0, 1)))
        assert _ratio_full(reduced, 2).degree == 4
        assert reduced.primitive_positive() == IntPoly((1, 2, 1))  # (x+1)^2

    def test_ratio_roots_example(self):
        reduced = ratio_polynomial(IntPoly((3, -2, 1)))  # t^2 - 2t + 3
        assert reduced.primitive_positive() == IntPoly((3, 2, 3))

    def test_distinct_real_roots(self):
        reduced = ratio_polynomial(IntPoly((6, -5, 1)))  # roots 2, 3
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
            reduced = ratio_polynomial(p)
            full = _ratio_full(reduced, k)
            assert full.degree == k * k
            assert full == ratio_full_oracle(p)
            rev = reduced.reversed_coeffs().primitive_positive()
            assert rev == reduced.primitive_positive()


def _oracle_product_sf(p: IntPoly) -> IntPoly:
    """Squarefree part of Res_y(p(y), y^d p(z/y)), roots all root_i*root_j."""
    d = p.degree
    f_y = [IntPoly((c,)) for c in p.coeffs]
    g_y = [IntPoly((0,) * (d - j) + (p.coeff(d - j),)) for j in range(d + 1)]
    return squarefree_part(sylvester_resultant_in_y(f_y, g_y))[0]


def _assert_matches_oracle(p: IntPoly) -> None:
    assert _ratio_full(ratio_polynomial(p), p.degree) == ratio_full_oracle(p)
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
            reduced = ratio_polynomial(p)
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


def _product(*factors) -> IntPoly:
    p = IntPoly((1,))
    for f in factors:
        p = p * IntPoly(f)
    return p


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
        p = p * IntPoly((rng.randint(1, 5), rng.randint(-3, 3), 1))
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
        candidates = [m for m in unity_ratio_orders(sf) if m != 1]
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
                negative += any(spectra._power_disk(coarse, m)[3] < 0 for m in candidates)
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
                    for m in range(2, 16):
                        x, y, b, e = spectra._power_disk(coarse, m)
                        centre = mpmath.mpc(x, y) / mpmath.mpf(2) ** b
                        assert centre == c**m
                        assert abs(lam**m - centre) <= mpmath.mpf(2) ** -e
                        checked += 1
        assert checked >= 4 * 14

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
            for box, flag in zip(s.roots, s.ratio_flags):
                if box.is_real or box.center[1] < 0:
                    continue
                z = complex(*box.center)
                order = min(oracle, key=lambda o: abs(o[0] - z))[1]
                assert flag.kind != UNRESOLVED
                assert (flag.kind, flag.order) == (
                    (ROOT_OF_UNITY, order) if order else (NOT_ROOT_OF_UNITY, None)
                )
                checked += 1
        assert checked >= 6

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
