"""Certified spectral analysis of integer matrices.

Two layers cooperate here.

Exact layer: characteristic polynomials, Yun squarefree decomposition, the
product polynomial prod_(i<=j) (z - lambda_i*lambda_j) (so every |lambda|^2
appears among its real roots) and the polynomials G_m whose roots are the
m-th powers of the eigenvalues.  Both are symmetric functions of the
eigenvalues and are built from integer power sums with Newton's identities,
not from resultants.

Certified numeric layer: root isolation with dyadic centers and radii.
Approximations only propose starting points, all from one Aberth iteration:
in doubles first, then, while no starts have certified, in Gaussian
dyadics at 128, 256, ... bits (the escalation).  Every assertion
(containment, disjointness, realness, modulus comparisons) is established in
exact arithmetic:

* a candidate center c with p'(c) != 0 certifies a root within the Newton
  inclusion radius d*|p(c)|/|p'(c)| of c, because p'/p = sum 1/(c - root_i);
* n pairwise disjoint disks, each certified to contain at least one root of a
  squarefree degree-n polynomial, contain exactly one root each;
* the one root in a disk centred on the real axis is real, since the disk
  also holds the conjugate of each root it holds (p has real coefficients).

From the starts on, everything runs on dyadic integers: a centre
(x + iy)/2^bits, a radius 2^-e, a tolerance as the least e it needs.
Fraction appears only where a RootBox is built (_boxes_from_ordered), in
isolate_roots' eps and in reciprocal_summary, which maps RootBoxes.

The modulus comparison starts from each handle's certified |root|^2 span:
spans that are pairwise disjoint and clear of 1 decide it on their own.  Only
when a span overlaps another or holds 1 is the product polynomial built, and
its real roots are never isolated: Sturm counts with integer sign evaluation
at the dyadic ends of the spans decide which pin one root, which hold the
same one, and where each lies against 1 (_partition_by_modulus).

The ratio conj(lambda)/lambda of a pair is a root of unity of order m
exactly when lambda^m is real, and phi(m) is then at most d*(d - 1), d the
degree of chi's squarefree part.  One walk over lambda, lambda^2, ... from
the pair's own handle puts a dyadic disk around each power; an m whose disk
misses the real axis is passed over.  For any other m, the disk, shrunk,
meets a single certified disk of G_m's roots or misses the axis; that
decides it (_attribute_pair).  No polynomial of degree above k is ever
isolated.

A Mahler-type root-separation lower bound (valid because the discriminant of
a squarefree integer polynomial is a nonzero integer) bounds the refinement
depth at which disjointness must succeed, so isolation always terminates.
Decision loops (modulus matching, ratio attribution) additionally honour a
configurable refinement cap, default radius 2^-256, beyond which they raise
UnresolvedCertification rather than guess; so does isolation when no
proposal yields starts that certify.

The last summary is held in a one-entry ``functools.lru_cache`` keyed on
the matrix and the refinement cap, so the forward and the dual verdict of
one matrix run one analysis (spectral_summary).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import NotUnimodular, RankDeficient, UnresolvedCertification
from .exact import (
    IntMatrix,
    IntPoly,
    _from_power_sums,
    _power_sums,
    _pseudo_rem,
    _root_powers,
    char_poly,
    orders_with_phi_at_most,
    poly_gcd,
)

GT = "GT"
EQ = "EQ"
LT = "LT"

ROOT_OF_UNITY = "ROOT_OF_UNITY"
NOT_ROOT_OF_UNITY = "NOT_ROOT_OF_UNITY"
UNRESOLVED = "UNRESOLVED"

_DEFAULT_EPS_BITS = 64
_ABERTH_STEPS = 100
_ABERTH_BITS = 64
_DYADIC_BITS = tuple(128 << i for i in range(7))


# ---------------------------------------------------------------------------
# Small exact-numeric helpers
# ---------------------------------------------------------------------------

def _round_div(n: int, d: int) -> int:
    """n/d rounded to the nearest integer, ties upward (d > 0)."""
    q, r = divmod(n, d)
    return q + (2 * r >= d)


def _float_dyadic(v: float, bits: int) -> int:
    """v*2^bits rounded to the nearest integer, ties upward."""
    n, d = v.as_integer_ratio()
    return _round_div(n << bits, d)


class _Dyadic:
    """The Gaussian dyadic (x + iy)/2^bits: the number type of the escalation.
    Products and quotients round to bits, ties upward; an int operand is
    exact.  abs and imag are floats of the quotients x/2^bits and y/2^bits,
    so no int is converted to a float whole."""

    __slots__ = ("x", "y", "bits")

    def __init__(self, x: int, y: int, bits: int):
        self.x, self.y, self.bits = x, y, bits

    def _parts(self, other) -> tuple[int, int]:
        if isinstance(other, _Dyadic):
            return other.x, other.y
        return other << self.bits, 0

    def __add__(self, other) -> _Dyadic:
        x, y = self._parts(other)
        return _Dyadic(self.x + x, self.y + y, self.bits)

    __radd__ = __add__

    def __sub__(self, other) -> _Dyadic:
        x, y = self._parts(other)
        return _Dyadic(self.x - x, self.y - y, self.bits)

    def __mul__(self, other) -> _Dyadic:
        (x, y), b = self._parts(other), self.bits
        return _Dyadic(_round_div(self.x * x - self.y * y, 1 << b),
                       _round_div(self.x * y + self.y * x, 1 << b), b)

    def __truediv__(self, other) -> _Dyadic:
        (x, y), b = self._parts(other), self.bits
        n = x * x + y * y
        return _Dyadic(_round_div((self.x * x + self.y * y) << b, n),
                       _round_div((self.y * x - self.x * y) << b, n), b)

    def __rtruediv__(self, other) -> _Dyadic:
        return _Dyadic(*self._parts(other), self.bits) / self

    def __eq__(self, other) -> bool:
        return (self.x, self.y) == self._parts(other)

    def __abs__(self) -> float:
        return math.hypot(self.x / (1 << self.bits), self.y / (1 << self.bits))

    @property
    def imag(self) -> float:
        return self.y / (1 << self.bits)


def _separation_bits(p: IntPoly) -> int:
    """bits such that 2^-bits is below the minimal distance between distinct
    roots of the squarefree polynomial p.

    Mahler-type bound: sep > sqrt(3) * d^(-(d+2)/2) * ||p||_2^(-(d-1)); only
    validity as a lower bound matters, so the estimate is generous.
    """
    d = p.degree
    if d < 2:
        return 8
    s = sum(c * c for c in p.coeffs)
    return ((d + 2) * max(1, d.bit_length())) // 2 + ((d - 1) * s.bit_length()) // 2 + 8


# ---------------------------------------------------------------------------
# Sturm counts with exact integer sign evaluation
# ---------------------------------------------------------------------------

def _sturm_chain(p: IntPoly) -> list[IntPoly]:
    """Sturm chain of the squarefree part of p, from one remainder sequence.

    Members are scaled by positive constants only (positive pseudo-remainder
    multipliers, positive contents), which leaves sign variations intact.
    The sequence of p and p' ends in g = gcd(p, p'), and every member divided
    by g is again a Sturm chain, of p/g: consecutive quotients are coprime,
    the three-term relations between members still hold, and at a root of
    p/g of multiplicity m in p the second member p'/g equals m*(p/g)', so
    it has the sign of (p/g)'.  For a squarefree p, g is a constant and
    nothing is divided.
    """
    chain = [p.primitive()]
    dp = p.derivative().primitive()
    if dp.is_zero:
        return chain
    chain.append(dp)
    while chain[-1].degree > 0:
        a, b = chain[-2], chain[-1]
        r = IntPoly(_pseudo_rem(a.coeffs, b.coeffs))
        if b.lc < 0 and (a.degree - b.degree + 1) % 2 == 1:
            r = -r
        r = (-r).primitive()
        if r.is_zero:
            break
        chain.append(r)
    g = chain[-1]
    if g.degree > 0:
        chain = [q.exact_div(g) for q in chain]  # primitive by Gauss's lemma
    return chain


def _sturm_count(chain: list[IntPoly], lo: int, hi: int, s: int) -> int:
    """Number of distinct roots of the squarefree chain[0] in the closed
    interval [lo/2^s, hi/2^s], lo <= hi.

    Sturm's theorem counts the roots in (lo, hi] as V(lo) - V(hi), V the sign
    variations along the chain with zeros dropped.  That holds at endpoints
    that are roots too: p and p' share their sign just right of a simple
    root, so V there equals V just right of it.  A root at lo is added.
    """
    den = 1 << s

    def signs(x: int) -> list[int]:
        return [q.sign_at(x, den) for q in chain]

    def variations(sg: list[int]) -> int:
        nz = [v for v in sg if v]
        return sum(a != b for a, b in zip(nz, nz[1:]))

    at_lo = signs(lo)
    return variations(at_lo) - variations(signs(hi)) + (at_lo[0] == 0)


# ---------------------------------------------------------------------------
# Root handles: refinable certified boxes
# ---------------------------------------------------------------------------

class _Handle:
    """Root candidate refined by exact Newton steps: a real root, centred on
    the axis, or the upper half-plane representative of a conjugate pair.

    The state is integers only: the centre c = (x + iy)/2^bits and the radius
    2^-e, with e None while the radius certifies nothing; a start (x, y,
    is_real) comes at bits, is_real the proposer's own test.  p and p' are
    kept scaled to integers, P = 2^(d*bits)*p(c) and D = 2^((d-1)*bits)*p'(c),
    for the next Newton step.

    The certified radius is the Newton inclusion radius d*|p(c)|/|p'(c)|:
    p'(c)/p(c) = sum_i 1/(c - root_i) has modulus at most d / min_i |c - root_i|,
    so some root lies within d*|p(c)|/|p'(c)| of c.  A vanishing residual
    means c is the root.

    A real start has y = 0, and Newton steps of a real polynomial
    from a real point stay real, so a real handle's disk stays centred on the
    axis.  Once _certify_layout has shown the disks (conjugate mirrors
    included) pairwise disjoint, each holds exactly one root; a disk symmetric
    about the axis holds that root's conjugate too, so its root is real.
    """

    __slots__ = ("poly", "x", "y", "bits", "e", "pc", "dpc", "is_exact", "is_real",
                 "multiplicity", "_stuck")

    def __init__(self, poly: IntPoly, start: tuple[int, int, bool], bits: int,
                 multiplicity: int = 1):
        self.poly = poly
        self.x, self.y, self.is_real = start
        self.bits = bits
        self.e: int | None = None
        self.is_exact = False
        self.multiplicity = multiplicity
        self._stuck = 0
        self._update_radius()

    def _update_radius(self) -> None:
        """Evaluate P and D at c (Horner on Gaussian integers, p(c) and p'(c)
        together) and set e to the largest e >= 1 with d^2 |p(c)|^2 <=
        2^-2e |p'(c)|^2, that is d^2 |P|^2 4^e <= |D|^2 4^bits."""
        coeffs, x, y, b = self.poly.coeffs, self.x, self.y, self.bits
        d = len(coeffs) - 1
        pr, pi, dr, di = coeffs[-1], 0, 0, 0
        for j in range(d - 1, -1, -1):
            dr, di = dr * x - di * y + pr, dr * y + di * x + pi
            pr, pi = pr * x - pi * y + (coeffs[j] << (b * (d - j))), pr * y + pi * x
        self.pc, self.dpc = (pr, pi), (dr, di)
        num = d * d * (pr * pr + pi * pi)
        if num == 0:
            self.is_exact = True
            if self.e is None:
                self.e = b
            return
        den = (dr * dr + di * di) << (2 * b)
        if den == 0:
            self.e = None
            return
        e = ((den // num).bit_length() - 1) // 2  # 4^e <= den/num < 4^(e+1)
        # e >= 1: a radius above 1/2 certifies nothing useful
        self.e = e if e >= 1 else None

    def shrink(self) -> None:
        if self.is_exact:
            self.e += 1
            return
        old, shift = self.e, min(self.bits, 1 << 14)
        self.bits += shift
        (pr, pi), (dr, di) = self.pc, self.dpc
        w = dr * dr + di * di
        if w == 0:
            self.x, self.y = (self.x << shift) + 1, self.y << shift
        else:
            # c - p(c)/p'(c) = (Z*D - P) * conj(D) / (|D|^2 * 2^b) with Z = x + iy
            # and b the old bits, rounded to the new bits
            nr = self.x * dr - self.y * di - pr
            ni = self.x * di + self.y * dr - pi
            self.x = _round_div((nr * dr + ni * di) << shift, w)
            self.y = _round_div((ni * dr - nr * di) << shift, w)
        self._update_radius()
        if self.e is not None and old is not None and self.e <= old:
            self._stuck += 1
        else:
            self._stuck = 0

    @property
    def stuck(self) -> bool:
        """The radius stalled for 8 rounds, or the precision, doubled every
        round, outran it.  Newton converging quadratically to a simple root
        keeps -log2(radius) near the precision; a start merged with another
        by rounding only halves the radius per round on their root cluster,
        and a real start near a non-real pair never converges."""
        return self._stuck >= 8 or self.bits > 8 * (self.e or 0) + (1 << 12)


def _disjoint(d1, d2) -> bool:
    """Whether two dyadic disks (x, y, bits, e), centre (x + iy)/2^bits and
    radius 2^-e, are disjoint: compared as integers at the common exponent
    2^-s, s the largest bits or e."""
    x1, y1, b1, e1 = d1
    x2, y2, b2, e2 = d2
    s = max(b1, b2, e1, e2)
    dx = (x1 << (s - b1)) - (x2 << (s - b2))
    dy = (y1 << (s - b1)) - (y2 << (s - b2))
    r = (1 << (s - e1)) + (1 << (s - e2))
    return dx * dx + dy * dy > r * r


def _disks(h) -> list[tuple[int, int, int, int]]:
    """A handle's dyadic disk (x, y, bits, e), and for a pair its conjugate
    mirror too."""
    if h.is_real:
        return [(h.x, h.y, h.bits, h.e)]
    return [(h.x, h.y, h.bits, h.e), (h.x, -h.y, h.bits, h.e)]


def _certify_layout(handles: list, e_min: int, max_rounds: int) -> bool:
    """Refine until all radii are at most 2^-e_min, complex boxes clear the
    real axis, and all disks (including conjugate mirrors) are pairwise
    disjoint.

    In integers: radius 2^-e <= 2^-e_min iff e >= e_min, and a pair's centre
    clears its disk, y/2^bits > 2^-e, iff y*2^e > 2^bits.  A handle whose
    radius certifies nothing (e None) always fails."""
    for _ in range(max_rounds):
        bad: set[int] = set()
        for i, h in enumerate(handles):
            if h.e is None or h.e < e_min or (not h.is_real and h.y << h.e <= 1 << h.bits):
                bad.add(i)
        if not bad:
            disks = [_disks(h) for h in handles]
            for i in range(len(handles)):
                for j in range(i + 1, len(handles)):
                    if not all(_disjoint(da, db) for da in disks[i] for db in disks[j]):
                        bad.add(i)
                        bad.add(j)
        if not bad:
            return True
        for i in bad:
            handles[i].shrink()
            if handles[i].stuck:
                return False
    return False


def _aberth(c: list, a: list[float], z: list, eps: float, mag) -> list[float]:
    """Aberth's iteration on the approximations z, in place, for the
    polynomial with descending coefficients c, in the arithmetic of z's type
    (complex or _Dyadic); then an error estimate for each: the Newton
    inclusion radius, |p| and |p'| read by mag, plus a Horner rounding bound
    on the float coefficients a.  ZeroDivisionError and OverflowError pass."""
    d = len(c) - 1

    def horner(zi):
        pv = dv = zi - zi  # the zero of zi's type
        for cj in c:
            dv = dv * zi + pv
            pv = pv * zi + cj
        return pv, dv

    for _ in range(_ABERTH_STEPS):
        moved = False
        for i, zi in enumerate(z):
            pv, dv = horner(zi)
            if pv == 0:
                continue
            w = 1 / (dv / pv - sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i))
            z[i] = zi - w
            moved = moved or abs(w) > eps * abs(zi)
        if not moved:
            break
    err = []
    for zi in z:
        pv, dv = horner(zi)
        scale = 0.0
        for aj in a:
            scale = scale * abs(zi) + abs(aj)
        err.append(d * (mag(pv) + d * eps * scale) / mag(dv))
    return err


def _aberth_starts(p: IntPoly, bits: int | None = None):
    """(starts, bits') with starting points (x, y, is_real) at bits' from
    Aberth's iteration, or None: one real start (y = 0) per approximation
    within its error estimate of the axis, one upper half-plane start per
    approximation above the axis by more than that.

    With bits None the iteration runs in doubles, each coefficient rounded
    once (which moves p(z) by less than the rounding bound d*2^-50*sum
    |a_j||z|^j), and the starts come at _ABERTH_BITS.  Otherwise it
    runs in _Dyadic at bits, on q(y) = p(2^s*y)*2^max(0, -s*d), whose
    integer coefficients are exact.  2^s bounds the roots of p by Fujiwara's
    2*max_(j<d) |p_j/p_d|^(1/(d-j)), with |p_j/p_d| < 2^(len p_j - len p_d +
    1) read off the bit lengths, so the roots of q lie in the unit disk and
    bits is their absolute precision.  The floats read q over a common 2^t,
    which keeps them finite, and a start y comes back exactly as y*2^s.

    The result must look clean: the error estimates of any two
    approximations sum to less than a quarter of their distance, and as
    many approximations lie above the axis as below it.
    """
    d, s, t, q = p.degree, 0, 0, p.coeffs[::-1]  # q descending
    if bits is not None:
        lens = [abs(v).bit_length() for v in p.coeffs]
        s = 1 + max((-((lens[d] - n - 1) // (d - j)) for j, n in enumerate(lens[:d]) if n),
                    default=0)
        q = [v << (s * j - min(s, 0) * d) for j, v in enumerate(p.coeffs)][::-1]
        t = max(abs(v).bit_length() for v in q)
    try:
        a = [v / (1 << t) for v in q]
        rho = abs(a[-1] / a[0]) ** (1.0 / d) if a[-1] else 1.0
        z = [rho * cmath.exp(1j * (2 * math.pi * i / d + 0.4)) for i in range(d)]
        if bits is None:
            b, err = _ABERTH_BITS, _aberth(a, a, z, 2.0 ** -50, abs)
        else:
            b = bits
            z = [_Dyadic(_float_dyadic(zi.real, b), _float_dyadic(zi.imag, b), b) for zi in z]
            err = _aberth(q, a, z, 2.0 ** (8 - b), lambda v: abs(_Dyadic(v.x, v.y, b + t)))
        clean = all(abs(z[i] - z[j]) > 4 * (err[i] + err[j])  # also rejects nan
                    for i in range(d) for j in range(i + 1, d))
    except (ZeroDivisionError, OverflowError):  # also a coefficient past the doubles
        return None
    if not clean:
        return None
    reals, ups = [], []
    for zi, e in zip(z, err):
        x, y = (zi.x, zi.y) if bits else (_float_dyadic(zi.real, b), _float_dyadic(zi.imag, b))
        if abs(zi.imag) <= e:
            reals.append((x << max(s, 0), 0, True))
        elif zi.imag > e:
            ups.append((x << max(s, 0), y << max(s, 0), False))
    if len(reals) + 2 * len(ups) != d:
        return None
    return reals + ups, b - min(s, 0)


def _refine_budget(p: IntPoly, e_min: int) -> int:
    """Rounds of halving that suffice to reach the separation bound plus the
    requested radius 2^-e_min: an exact root's radius halves each round, and
    a Newton step from a start in a simple root's quadratic basin does at
    least as well."""
    return _separation_bits(p) + e_min + 96


def _isolate_handles(p: IntPoly, e_min: int, multiplicity: int = 1) -> list:
    """Certified handles, radii at most 2^-e_min, for all roots of a
    squarefree polynomial, from the first proposal whose starts certify:
    Aberth's iteration in doubles, then in Gaussian dyadics at each
    precision of _DYADIC_BITS (the escalation)."""
    proposals = (_aberth_starts(p, bits) for bits in (None, *_DYADIC_BITS))
    for starts, at in filter(None, proposals):
        handles = [_Handle(p, st, at, multiplicity) for st in starts]
        if _certify_layout(handles, e_min, _refine_budget(p, e_min)):
            return handles
    raise UnresolvedCertification("root isolation did not converge")


# ---------------------------------------------------------------------------
# Public types and operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootBox:
    """Certified disk holding exactly one distinct root."""

    center: tuple[Fraction, Fraction]
    radius: Fraction
    multiplicity: int
    is_real: bool
    conjugate_partner: int | None = None


@dataclass(frozen=True)
class ModulusClass:
    """Indices of roots sharing one exact modulus, with the certified
    comparison of that modulus against 1."""

    indices: tuple[int, ...]
    versus_one: str  # GT | EQ | LT


@dataclass(frozen=True)
class RatioFlag:
    """Conjugate-ratio classification for one root (shared across a pair)."""

    kind: str  # ROOT_OF_UNITY | NOT_ROOT_OF_UNITY | UNRESOLVED
    order: int | None = None


@dataclass(frozen=True)
class SpectralSummary:
    char_poly: IntPoly
    roots: tuple[RootBox, ...]
    modulus_classes: tuple[ModulusClass, ...]
    dominant_pair: tuple[int, int] | None
    ratio_flags: tuple[RatioFlag, ...]


def squarefree_part(p: IntPoly) -> tuple[IntPoly, tuple[tuple[IntPoly, int], ...]]:
    """Squarefree part (primitive, positive leading coefficient) plus the Yun
    decomposition p ~ prod factor^multiplicity."""
    if p.is_zero:
        raise ValueError("squarefree part of the zero polynomial")
    w = p.primitive_positive()
    if w.degree == 0:
        return IntPoly((1,)), ()
    g = poly_gcd(w, w.derivative())
    c = w.exact_div(g)
    sf = c.primitive_positive()
    factors: list[tuple[IntPoly, int]] = []
    d_ = w.derivative().exact_div(g) - c.derivative()
    i = 1
    while c.degree > 0:
        p_i = poly_gcd(c, d_)
        if p_i.degree > 0:
            factors.append((p_i.primitive_positive(), i))
        c_next = c.exact_div(p_i)
        d_ = d_.exact_div(p_i) - c_next.derivative()
        c = c_next
        i += 1
    return sf, tuple(factors)


def _is_squarefree(p: IntPoly) -> bool:
    return p.degree >= 1 and poly_gcd(p, p.derivative()).degree == 0


def _order_handles(handles: list) -> list:
    """Deterministic handle order: real roots ascending, then conjugate pairs
    by (re, im) of the upper representative.

    Centres compare as integers over the largest 2^bits.  Called once per
    analysis; later refinement only shrinks boxes around fixed roots, so the
    order stays meaningful and is never recomputed.
    """
    t = max(h.bits for h in handles)
    return sorted(handles, key=lambda h: (not h.is_real, h.x << (t - h.bits), h.y << (t - h.bits)))


def _boxes_from_ordered(ordered: list) -> tuple[RootBox, ...]:
    """Public boxes in handle order, the one place a handle's integers become
    Fractions; each pair occupies two slots (upper half-plane root first,
    conjugate second)."""
    boxes: list[RootBox] = []
    for h in ordered:
        den = 1 << h.bits
        re, im = Fraction(h.x, den), Fraction(h.y, den)
        r = Fraction(1, 1 << h.e) if h.e is not None else Fraction(1)
        if h.is_real:
            boxes.append(RootBox((re, im), r, h.multiplicity, True, None))
        else:
            i = len(boxes)
            boxes.append(RootBox((re, im), r, h.multiplicity, False, i + 1))
            boxes.append(RootBox((re, -im), r, h.multiplicity, False, i))
    return tuple(boxes)


def isolate_roots(p: IntPoly, eps: Fraction) -> list[RootBox]:
    """Disjoint certified boxes, one per root of a squarefree polynomial,
    radii at most eps.  Conjugate pairs are matched; real roots certified."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if p.degree < 1:
        raise ValueError("root isolation needs degree at least 1")
    if not _is_squarefree(p):
        raise ValueError("polynomial must be squarefree (apply squarefree_part)")
    e_min = (-(-eps.denominator // eps.numerator) - 1).bit_length()  # 2^-e_min <= eps
    ordered = _order_handles(_isolate_handles(p, e_min))
    return list(_boxes_from_ordered(ordered))


# -- modulus comparison machinery -------------------------------------------

def _monic_scaled(p: IntPoly) -> IntPoly:
    """q(x) = lc^(d-1) * p(x/lc): monic with integer coefficients, and its
    roots are lc * root for each root of p."""
    d, a = p.degree, p.lc
    return IntPoly(tuple(c * a ** (d - 1 - i) for i, c in enumerate(p.coeffs[:-1])) + (1,))


def _product_poly(p: IntPoly) -> IntPoly:
    """A nonzero integer multiple of prod_(i<=j) (z - root_i*root_j): its
    roots are all products of two roots of p, so every |root|^2 is among its
    real roots.

    Built from power sums (the symmetric square of Bostan, Flajolet, Salvy and
    Schost, "Fast computation of special resultants", 2006): when the roots
    mu_i = lc*root_i of the monic q = _monic_scaled(p) have power sums s_m,
    the products mu_i*mu_j (i <= j) have power sums (s_m^2 + s_2m)/2.  The
    polynomial with those roots is then scaled back by z -> lc^2 * z.
    """
    d = p.degree
    n = d * (d + 1) // 2
    s = _power_sums(_monic_scaled(p), 2 * n)
    sq = _from_power_sums([(s[m - 1] ** 2 + s[2 * m - 1]) // 2 for m in range(1, n + 1)])
    a2 = p.lc * p.lc
    return IntPoly(tuple(c * a2 ** i for i, c in enumerate(sq.coeffs)))


def _modsq_interval(h, sqrt_bits: int) -> tuple[int, int, int]:
    """(lo, hi, s) with |root|^2 in [lo/2^s, hi/2^s]: (|c| -+ r)^2 from the
    handle's integers at a common exponent.  |c| is exact on the axis and
    bracketed off it by the integer square root of |c|^2 in lowest terms."""
    n, b2 = h.x * h.x + h.y * h.y, 2 * h.bits
    if h.is_exact:
        return n, n, b2
    if h.is_real:
        lo, hi, s = abs(h.x), abs(h.x), h.bits
    else:
        tz = math.gcd(n, 1 << b2).bit_length() - 1  # |c|^2 = n/2^b2 in lowest terms
        n, b2 = n >> tz, b2 - tz
        lo = math.isqrt(n << (b2 + 2 * sqrt_bits))
        hi, s = lo + 1, b2 + sqrt_bits
    e = h.e or 0
    t = max(s, e)
    lo, hi = max(0, (lo << (t - s)) - (1 << (t - e))), (hi << (t - s)) + (1 << (t - e))
    return lo * lo, hi * hi, 2 * t


def _round_out(span: tuple[int, int, int], c: int) -> tuple[int, int, int]:
    """The dyadic span (lo, hi, s) widened to multiples of 2^-c when s > c."""
    lo, hi, s = span
    if s <= c:
        return span
    return lo >> (s - c), -(-hi >> (s - c)), c


def _hull(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int] | None:
    """The smallest span holding two overlapping closed spans, or None when
    they are disjoint."""
    (l1, h1, s1), (l2, h2, s2) = a, b
    s = max(s1, s2)
    l1, h1, l2, h2 = l1 << (s - s1), h1 << (s - s1), l2 << (s - s2), h2 << (s - s2)
    if h1 < l2 or h2 < l1:
        return None
    return min(l1, l2), max(h1, h2), s


def _pin_real_signs(handles: list, cap_rounds: int) -> None:
    """Refine real handles until |center| > radius, so the sign of the root
    is certified by the box alone (callers guarantee 0 is not a root)."""
    for h in handles:
        if not h.is_real:
            continue
        for _ in range(cap_rounds):
            if abs(h.x) << (h.e or 0) > 1 << h.bits:  # |c| > radius
                break
            h.shrink()
        else:
            raise UnresolvedCertification("could not certify the sign of a real root")


def _partition_by_modulus(
    handles: list, p_sf: IntPoly, cap_bits: int
) -> tuple[ModulusClass, ...]:
    """Equal-modulus classes of the handles' roots, largest modulus first,
    each compared against 1; indices are handle indices.

    Every |root|^2 lies in its handle's closed span from _modsq_interval.
    When those spans are pairwise disjoint and none holds 1, they decide the
    partition alone: two disjoint closed enclosures hold different values,
    so every handle is a class of its own, ordered by its span, and a span
    clear of 1 lies wholly above or below it.  A conjugate pair is one
    handle, so its two equal moduli need no comparison.

    Otherwise every |root|^2 is also a real root of the squarefree part Q of
    the product polynomial.  Only then is Q built, with its Sturm chain, by
    one remainder sequence (_sturm_chain), and Sturm counts on Q decide
    everything exactly, on the spans alone:

    * a span that holds exactly one root of Q pins its |root|^2;
    * two such spans hold equal moduli exactly when their hull holds one
      root: disjoint spans hold different roots, and the hull of two that
      overlap holds both roots;
    * with Q(1) = 0, a span holding 1 and one root has modulus 1; with
      Q(1) != 0, a span clear of 1 lies wholly above or below it.

    So the spans are refined until each holds one root, overlapping spans
    have a one-root hull and none holds 1 unless Q(1) = 0; overlap then
    groups the classes, and the spans order them.  No other root of Q is
    ever isolated.  The spans are first rounded outward to multiples of 2^-c,
    c = 8, 16, 32, ..., which keeps the Sturm evaluations at small
    denominators while the moduli are far apart; a failing handle shrinks
    only once c reaches its span's own exponent, and not beyond the cap.
    """
    _pin_real_signs(handles, cap_bits + 64)
    chain = None
    c = 8
    for _ in range(cap_bits + 64):
        own = [_modsq_interval(h, max(32, (h.e or 0) + 8)) for h in handles]
        if chain is None:
            if not any(lo <= 1 << s <= hi for lo, hi, s in own) and all(
                _hull(a, b) is None for i, a in enumerate(own) for b in own[i + 1:]
            ):
                spans = own
                break
            chain = _sturm_chain(_product_poly(p_sf))
            one_is_root = chain[0].sign_at(1, 1) == 0
        spans = [_round_out(span, c) for span in own]
        bad = {
            i for i, (lo, hi, s) in enumerate(spans)
            if _sturm_count(chain, lo, hi, s) != 1 or (not one_is_root and lo <= 1 << s <= hi)
        }
        good = [i for i in range(len(spans)) if i not in bad]
        for a, i in enumerate(good):
            for j in good[a + 1:]:
                hull = _hull(spans[i], spans[j])
                if hull is not None and _sturm_count(chain, *hull) != 1:
                    bad.update((i, j))
        if not bad:
            break
        for i in bad:
            if own[i][2] <= c:
                if (handles[i].e or 0) > cap_bits:  # radius below 2^-cap_bits
                    raise UnresolvedCertification(
                        "modulus matching exceeded the refinement cap"
                    )
                handles[i].shrink()
        c *= 2
    else:
        raise UnresolvedCertification("modulus matching did not converge")
    groups: list[list[int]] = []
    for i, span in enumerate(spans):
        for g in groups:
            if _hull(spans[g[0]], span) is not None:
                g.append(i)
                break
        else:
            groups.append([i])
    top = max(s for _, _, s in spans)
    groups.sort(key=lambda g: spans[g[0]][0] << (top - spans[g[0]][2]), reverse=True)
    classes = []
    for g in groups:
        lo, hi, s = spans[g[0]]
        one = 1 << s
        classes.append(ModulusClass(tuple(g), EQ if lo <= one <= hi else (LT if hi < one else GT)))
    return tuple(classes)


def _expand_classes(
    classes: tuple[ModulusClass, ...], ordered_handles: list
) -> tuple[ModulusClass, ...]:
    """Translate handle indices to box indices (pairs occupy two box slots)."""
    slots, pos = [], 0
    for h in ordered_handles:
        width = 1 if h.is_real else 2
        slots.append(range(pos, pos + width))
        pos += width
    return tuple(
        ModulusClass(tuple(sorted(j for i in cls.indices for j in slots[i])), cls.versus_one)
        for cls in classes
    )


# -- eigenvalue ratio machinery ----------------------------------------------

def _power_disks(h):
    """Dyadic disks (X, Y, S, e') around lambda, lambda^2, lambda^3, ... for
    the root lambda of a handle whose radius certifies (e not None): centre
    (X + iY)/2^S, radius 2^-e', one complex product per power.  The handle
    is read once, at the first disk; _attribute_pair says why each disk
    holds its power.
    """
    s, e = max(h.bits, h.e), h.e
    x, y = h.x << (s - h.bits), h.y << (s - h.bits)
    r = 1 << (s - e)
    M = math.isqrt(x * x + y * y) + 1 + r
    X, Y, R, S = x, y, r, s
    while True:
        yield X, Y, S, S - R.bit_length()
        X, Y, R = X * x - Y * y, X * y + Y * x, R * M + (abs(X) + abs(Y)) * r
        S += s
        t = max(abs(X), abs(Y), R).bit_length() - (e + 32)
        if t > 0:
            X, Y, R, S = X >> t, Y >> t, (R >> t) + 3, S - t


def _misses_axis(disk) -> bool:
    """Whether a dyadic disk (x, y, bits, e) misses the real axis:
    |y|/2^bits > 2^-e, compared as integers at the larger exponent."""
    x, y, b, e = disk
    t = max(b, e)
    return abs(y) << (t - b) > 1 << (t - e)


def _attribute_pair(
    pair_handle, sf: IntPoly, candidate_orders: list[int], cap_bits: int
) -> RatioFlag:
    """Decide whether zeta = conj(lambda)/lambda is a root of unity, and of
    which order, from lambda^m alone.

    zeta^m = conj(lambda^m)/lambda^m, so zeta^m = 1 exactly when lambda^m is
    real.  The order of zeta, if any, is among the candidates, every m >= 2
    with phi(m) <= d*(d - 1), d = deg sf: the minimal polynomial of lambda
    divides sf, so [Q(lambda):Q] <= d, and conj(lambda) is another root of
    it, so [Q(lambda, conj(lambda)):Q(lambda)] <= d - 1.  zeta lies in
    Q(lambda, conj(lambda)), and a primitive m-th root of unity has degree
    phi(m) over Q.  zeta != 1 for a non-real lambda.

    The candidates are screened, ascending, by the disks of _power_disks,
    which hold the powers of lambda.  With s = max(bits, e), the handle's
    centre c and radius r = 2^-e are read at the scale 2^s: x + iy, and
    r*2^s = 2^(s-e).  The invariant is |lambda^m - P| <= R/2^S for the
    centre P = (X + iY)/2^S, and it holds at m = 1.  A step writes
    lambda^(m+1) - P*c = P*(lambda - c) + (lambda^m - P)*lambda, whose
    modulus is at most |P|*r + (R/2^S)*(|c| + r), as |lambda| <= |c| + r;
    with |X + iY| <= |X| + |Y| that is at most
    (R*M + (|X| + |Y|)*2^(s-e))/2^(S+s) with M = isqrt(x^2 + y^2) + 1 +
    2^(s-e) >= (|c| + r)*2^s.  So (X + iY)*(x + iy), exact, at S + s with
    that R keeps the invariant.  The three integers are then cut to a
    mantissa of e + 32 bits, t bits off at S - t: flooring X and Y moves P
    by less than sqrt(2)*2^(t-S), and (R >> t) + 3 >= R/2^t + 2 covers that.
    The disk yielded has radius 2^(len(R) - S) > R/2^S.  A disk that misses
    the real axis proves lambda^m not real, and m is passed over.

    For a candidate m whose disk D meets the axis, lambda^m is a root of
    G_m = _root_powers(sf, m), sf the monic squarefree part of chi; G_m's
    squarefree part (degree <= deg sf) is isolated, and the pair handle is
    refined, D read each round from a walk restarted on the refined handle,
    until D settles one of two cases:

    * D misses the real axis: lambda^m is not real, so zeta^m != 1, and the
      next candidate is tried;
    * D meets exactly one of G_m's certified disks (mirrors included) and
      that disk is a real handle's: the disks are disjoint and each holds
      exactly one root, so lambda^m is that real root and zeta^m = 1.

    One case is reached as D shrinks onto lambda^m, which lies in one disk at
    a positive distance from the others, and on the axis or off it.  Every m
    below the order of zeta leaves lambda^m off the axis, so no m before the
    order is accepted and the order, itself a candidate, is reached first:
    the m returned is the order.  With no candidate accepted, zeta is not a
    root of unity.  A pair radius below 2^-cap_bits leaves the flag
    UNRESOLVED.
    """
    wanted = set(candidate_orders)
    walk = _power_disks(pair_handle)
    for m in range(1, max(wanted, default=0) + 1):
        disk = next(walk)
        if m not in wanted or _misses_axis(disk):
            continue
        handles = _isolate_handles(squarefree_part(_root_powers(sf, m))[0], 32)
        for _ in range(cap_bits + 64):
            if pair_handle.e is not None:
                walk = _power_disks(pair_handle)
                disk = next(itertools.islice(walk, m - 1, None))
                if _misses_axis(disk):
                    break
                hits = [h for h in handles for d in _disks(h) if not _disjoint(disk, d)]
                if len(hits) == 1 and hits[0].is_real:
                    return RatioFlag(ROOT_OF_UNITY, m)
                if pair_handle.e > cap_bits:  # radius below 2^-cap_bits
                    return RatioFlag(UNRESOLVED)
            pair_handle.shrink()
        else:
            return RatioFlag(UNRESOLVED)
    return RatioFlag(NOT_ROOT_OF_UNITY)


# -- full summary -------------------------------------------------------------

def spectral_summary(a: IntMatrix, precision_bits: int = 256) -> SpectralSummary:
    """Characteristic polynomial, certified root boxes with multiplicities,
    equal-modulus classes compared against 1, the dominant conjugate pair if
    there is one, and conjugate-ratio flags per root.  ``precision_bits``,
    the refinement cap exponent, must be nonnegative.

    The last summary is held, keyed on the matrix and the cap's value, so
    ``spectral_summary(a)`` and ``spectral_summary(a, 256)`` share it.  The
    summary is a pure function of both and immutable all the way down
    (frozen dataclasses, tuples, Fraction, IntPoly), so callers handed one
    object cannot see each other's changes.  A failing call raises again.
    """
    if precision_bits < 0:
        raise ValueError(f"precision must be nonnegative, got {precision_bits}")
    return _summary(a, operator.index(precision_bits))


@functools.lru_cache(maxsize=1)
def _summary(a: IntMatrix, precision_bits: int) -> SpectralSummary:
    chi = char_poly(a)
    if chi.constant == 0:  # chi_A(0) = (-1)^k det A
        raise RankDeficient("spectral analysis needs a matrix of full rank")
    sf, factors = squarefree_part(chi)
    handles: list = []
    for factor, mult in factors:
        handles.extend(_isolate_handles(factor, _DEFAULT_EPS_BITS, multiplicity=mult))
    if not _certify_layout(handles, _DEFAULT_EPS_BITS, _refine_budget(sf, _DEFAULT_EPS_BITS)):
        raise UnresolvedCertification("cross-factor isolation failed to separate")
    ordered = _order_handles(handles)
    classes = _expand_classes(
        _partition_by_modulus(ordered, sf, precision_bits), ordered
    )

    # conjugate-ratio flags
    d = sf.degree
    pair_candidates = [m for m in orders_with_phi_at_most(d * (d - 1)) if m != 1]
    flags: list[RatioFlag] = []
    for h in ordered:
        if h.is_real:
            flags.append(RatioFlag(ROOT_OF_UNITY, 1))
        else:
            flag = _attribute_pair(h, sf, pair_candidates, precision_bits)
            flags.append(flag)
            flags.append(flag)

    # refinement in the steps above only shrank boxes; snapshot them now
    boxes = _boxes_from_ordered(ordered)
    return SpectralSummary(
        char_poly=chi,
        roots=boxes,
        modulus_classes=classes,
        dominant_pair=_dominant_pair(boxes, classes),
        ratio_flags=tuple(flags),
    )


def _dominant_pair(boxes, classes) -> tuple[int, int] | None:
    """The top modulus class when it is exactly one non-real conjugate pair."""
    top = classes[0].indices
    if len(top) == 2 and not boxes[top[0]].is_real and boxes[top[0]].conjugate_partner == top[1]:
        return top
    return None


def reciprocal_summary(summary: SpectralSummary) -> SpectralSummary:
    """The spectral summary of A^-1 read off that of a unimodular A.

    * chi_(A^-1) = chi_A(0) * reverse(chi_A), monic since chi_A(0) = +-1;
    * z -> 1/conj(z) maps the disk |z - c| <= r with |c| > r exactly onto the
      disk with center c/(|c|^2 - r^2) and radius r/(|c|^2 - r^2).  Every box
      has |c| > r (real signs are pinned, complex boxes clear the axis), and
      the map is a bijection that fixes each half-plane and commutes with
      conjugation: box i holds 1/conj(lambda_i), and pairs, disjointness and
      box indices carry over;
    * moduli invert: classes in reversed order, GT and LT swapped;
    * the conjugate ratio of 1/conj(lambda) is that of lambda: flags stay.
    """
    chi = summary.char_poly
    if chi.constant not in (1, -1):
        raise NotUnimodular("the reciprocal spectrum needs chi_A(0) = +-1")
    boxes = []
    for box in summary.roots:
        (re, im), r = box.center, box.radius
        den = re * re + im * im - r * r
        if den <= 0:
            raise UnresolvedCertification("a root box reaches 0")
        boxes.append(replace(box, center=(re / den, im / den), radius=r / den))
    classes = tuple(
        ModulusClass(c.indices, {GT: LT, LT: GT}.get(c.versus_one, EQ))
        for c in reversed(summary.modulus_classes)
    )
    return SpectralSummary(
        char_poly=IntPoly(tuple(chi.constant * c for c in reversed(chi.coeffs))),
        roots=tuple(boxes),
        modulus_classes=classes,
        dominant_pair=_dominant_pair(boxes, classes),
        ratio_flags=summary.ratio_flags,
    )


__all__ = [
    "GT",
    "EQ",
    "LT",
    "ROOT_OF_UNITY",
    "NOT_ROOT_OF_UNITY",
    "UNRESOLVED",
    "RootBox",
    "ModulusClass",
    "RatioFlag",
    "SpectralSummary",
    "squarefree_part",
    "isolate_roots",
    "spectral_summary",
    "reciprocal_summary",
]
