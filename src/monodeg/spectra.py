"""Certified spectral analysis of integer matrices.

Two layers cooperate here.

Exact layer: characteristic polynomials, Yun squarefree decomposition, the
product polynomial prod_(i<=j) (z - lambda_i*lambda_j) (so every |lambda|^2
appears among its real roots), the ratio polynomial Res_y(p(y), p(x*y)) whose
roots are all eigenvalue ratios lambda_j/lambda_i, and cyclotomic
divisibility tests deciding which ratios are roots of unity.  The product and
ratio polynomials are symmetric functions of the eigenvalues and are built
from integer power sums with Newton's identities, not from resultants.

Certified numeric layer: root isolation with rational centers and radii.
Floating point only proposes starting points: a double-precision Aberth
iteration when every coefficient is exact in a double, escalating to mpmath at
growing precision when the coefficients are larger or the double-precision
starts do not certify.  Every assertion (containment, disjointness, realness,
modulus comparisons) is established in exact rational arithmetic:

* a candidate center c with p'(c) != 0 certifies a root within the Newton
  inclusion radius d*|p(c)|/|p'(c)| of c, because p'/p = sum 1/(c - root_i);
* real roots come from Sturm bisection with integer sign evaluation;
* n pairwise disjoint disks, each certified to contain at least one root of a
  squarefree degree-n polynomial, contain exactly one root each.

A Mahler-type root-separation lower bound (valid because the discriminant of
a squarefree integer polynomial is a nonzero integer) bounds the refinement
depth at which disjointness must succeed, so isolation always terminates.
Decision loops (modulus matching, ratio attribution) additionally honour a
configurable refinement cap, default radius 2^-256, beyond which they raise
UnresolvedCertification rather than guess; so does isolation when neither
proposer yields starts that certify.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import RankDeficient, UnresolvedCertification
from .exact import (
    IntMatrix,
    IntPoly,
    _from_power_sums,
    _power_sums,
    _pseudo_rem,
    char_poly,
    cyclotomic,
    det,
    orders_with_phi_at_most,
    poly_gcd,
)

GT = "GT"
EQ = "EQ"
LT = "LT"

ROOT_OF_UNITY = "ROOT_OF_UNITY"
NOT_ROOT_OF_UNITY = "NOT_ROOT_OF_UNITY"
UNRESOLVED = "UNRESOLVED"

_ZERO = Fraction(0)
_DEFAULT_EPS_BITS = 64
_ABERTH_STEPS = 100


# ---------------------------------------------------------------------------
# Small exact-numeric helpers
# ---------------------------------------------------------------------------

def _dyadic(x: Fraction, bits: int) -> Fraction:
    """Round to the nearest multiple of 2^-bits."""
    num = x.numerator << bits
    q, r = divmod(num, x.denominator)
    if 2 * r >= x.denominator:
        q += 1
    return Fraction(q, 1 << bits)


def _sqrt_bounds(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """lo <= sqrt(q) <= hi with hi - lo <= 2^-bits, q >= 0."""
    if q < 0:
        raise ValueError("sqrt of a negative rational")
    if q == 0:
        return _ZERO, _ZERO
    m = q.numerator * q.denominator
    t = math.isqrt(m << (2 * bits))
    den = q.denominator << bits
    return Fraction(t, den), Fraction(t + 1, den)


def _frac_bits(x: Fraction) -> int:
    """Roughly -log2(x) for 0 < x <= 1 (used for cap accounting)."""
    if x <= 0:
        return 1 << 30
    return max(0, x.denominator.bit_length() - x.numerator.bit_length())


def _root_bound_pow2(p: IntPoly) -> int:
    """Power-of-two B with every complex root of p inside |z| < B
    (Fujiwara-style bound from coefficient bit lengths)."""
    d = p.degree
    lc_bits = abs(p.lc).bit_length()
    e = 1
    for i in range(d):
        ci = abs(p.coeff(i))
        if ci == 0:
            continue
        num = ci.bit_length() - lc_bits + 1
        e = max(e, -(-num // (d - i)))
    return 1 << (e + 1)


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


# Gaussian rationals as plain (re, im) pairs of Fractions.

def _c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _c_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _c_div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def _c_abs2(a) -> Fraction:
    return a[0] * a[0] + a[1] * a[1]


def _poly_eval_complex(p: IntPoly, z) -> tuple[Fraction, Fraction]:
    acc = (_ZERO, _ZERO)
    for c in reversed(p.coeffs):
        acc = _c_mul(acc, z)
        acc = (acc[0] + c, acc[1])
    return acc


# ---------------------------------------------------------------------------
# Real roots: Sturm isolation with exact integer sign evaluation
# ---------------------------------------------------------------------------

def _sturm_chain(p: IntPoly) -> list[IntPoly]:
    """Sturm chain of a squarefree polynomial.

    Members are scaled by positive constants only (positive pseudo-remainder
    multipliers, positive contents), which leaves sign variations intact.
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
    return chain


def _variations(chain: list[IntPoly], x: Fraction) -> int:
    num, den = x.numerator, x.denominator
    signs = []
    for q in chain:
        s = q.sign_at(num, den)
        if s:
            signs.append(s)
    return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])


class _RealRoot:
    """One isolated real root: either exact rational or a sign-change bracket
    (lo, hi) with the root strictly inside and p nonzero at both endpoints."""

    __slots__ = ("poly", "exact", "lo", "hi", "sign_lo")

    def __init__(self, poly: IntPoly, exact: Fraction | None, lo=None, hi=None, sign_lo=0):
        self.poly = poly
        self.exact = exact
        self.lo = lo
        self.hi = hi
        self.sign_lo = sign_lo

    def span(self) -> tuple[Fraction, Fraction]:
        if self.exact is not None:
            return self.exact, self.exact
        return self.lo, self.hi

    def width(self) -> Fraction:
        if self.exact is not None:
            return _ZERO
        return self.hi - self.lo

    def refine_step(self) -> None:
        if self.exact is not None:
            return
        mid = (self.lo + self.hi) / 2
        s = self.poly.sign_at(mid.numerator, mid.denominator)
        if s == 0:
            self.exact = mid
        elif s == self.sign_lo:
            self.lo = mid
        else:
            self.hi = mid


def _isolate_real_roots(p: IntPoly) -> list[_RealRoot]:
    """Disjoint records, one per real root of the squarefree polynomial p."""
    if p.degree < 1:
        return []
    chain = _sturm_chain(p)
    bound = _root_bound_pow2(p)
    while p.sign_at(-bound, 1) == 0 or p.sign_at(bound, 1) == 0:
        bound <<= 1
    lo, hi = Fraction(-bound), Fraction(bound)
    out: list[_RealRoot] = []
    stack = [(lo, hi, _variations(chain, lo), _variations(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        count = va - vb
        if count <= 0:
            continue
        if count == 1:
            sa = p.sign_at(a.numerator, a.denominator)
            out.append(_RealRoot(p, None, a, b, sa))
            continue
        mid = (a + b) / 2
        smid = p.sign_at(mid.numerator, mid.denominator)
        if smid != 0:
            vm = _variations(chain, mid)
            stack.append((a, mid, va, vm))
            stack.append((mid, b, vm, vb))
            continue
        # exact rational root at mid: isolate a punctured neighbourhood
        w = (b - a) / 4
        while True:
            l, r = mid - w, mid + w
            if (
                p.sign_at(l.numerator, l.denominator) != 0
                and p.sign_at(r.numerator, r.denominator) != 0
                and _variations(chain, l) - _variations(chain, r) == 1
            ):
                break
            w /= 2
        out.append(_RealRoot(p, mid))
        vl, vr = _variations(chain, mid - w), _variations(chain, mid + w)
        stack.append((a, mid - w, va, vl))
        stack.append((mid + w, b, vr, vb))
    out.sort(key=lambda rec: rec.span()[0])
    return out


# ---------------------------------------------------------------------------
# Root handles: refinable certified boxes
# ---------------------------------------------------------------------------

class _RealHandle:
    __slots__ = ("record", "rad_exact", "multiplicity")
    is_real = True

    def __init__(self, record: _RealRoot, eps: Fraction, multiplicity: int = 1):
        self.record = record
        self.rad_exact = eps  # shrinkable box radius used for exact roots
        self.multiplicity = multiplicity

    @property
    def is_exact(self) -> bool:
        return self.record.exact is not None

    def center(self) -> tuple[Fraction, Fraction]:
        if self.record.exact is not None:
            return self.record.exact, _ZERO
        lo, hi = self.record.lo, self.record.hi
        return (lo + hi) / 2, _ZERO

    def radius(self) -> Fraction:
        if self.record.exact is not None:
            return self.rad_exact
        return (self.record.hi - self.record.lo) / 2

    def shrink(self) -> None:
        if self.record.exact is not None:
            self.rad_exact /= 2
        else:
            self.record.refine_step()
            if self.record.exact is not None:
                self.rad_exact = min(self.rad_exact, Fraction(1, 1 << 16))

    def value_span(self) -> tuple[Fraction, Fraction]:
        return self.record.span()


class _ComplexHandle:
    """Upper half-plane root candidate refined by exact Newton steps.

    The certified radius is the Newton inclusion radius d*|p(c)|/|p'(c)|:
    p'(c)/p(c) = sum_i 1/(c - root_i) has modulus at most d / min_i |c - root_i|,
    so some root lies within d*|p(c)|/|p'(c)| of c.  A vanishing residual
    means c is the root.
    """

    __slots__ = ("poly", "deriv", "c", "pc", "dpc", "bits", "rad", "is_exact",
                 "multiplicity", "_stuck")
    is_real = False

    def __init__(self, poly: IntPoly, start: tuple[Fraction, Fraction], bits: int,
                 multiplicity: int = 1):
        self.poly = poly
        self.deriv = poly.derivative()
        self.c = (_dyadic(start[0], bits), _dyadic(start[1], bits))
        self.bits = bits
        self.rad: Fraction | None = None
        self.is_exact = False
        self.multiplicity = multiplicity
        self._stuck = 0
        self._update_radius()

    def center(self) -> tuple[Fraction, Fraction]:
        return self.c

    def radius(self) -> Fraction:
        return self.rad if self.rad is not None else Fraction(1)

    def _update_radius(self) -> None:
        """Evaluate p and p' at c (kept for the next Newton step) and set the
        radius to the least 2^-e, e >= 1, with d^2 |p(c)|^2 <= 2^-2e |p'(c)|^2."""
        self.pc = _poly_eval_complex(self.poly, self.c)
        self.dpc = _poly_eval_complex(self.deriv, self.c)
        v = _c_abs2(self.pc)
        if v == 0:
            self.is_exact = True
            if self.rad is None:
                self.rad = Fraction(1, 1 << self.bits)
            return
        w = _c_abs2(self.dpc)
        if w == 0:
            self.rad = None
            return
        d = self.poly.degree
        t = d * d * v / w
        num, den = t.numerator, t.denominator
        e = max(0, (den.bit_length() - num.bit_length()) // 2)
        while e > 0 and num << (2 * e) > den:
            e -= 1
        while num << (2 * e + 2) <= den:
            e += 1
        # e >= 1: a radius above 1/2 certifies nothing useful
        self.rad = Fraction(1, 1 << e) if e >= 1 else None

    def shrink(self) -> None:
        if self.is_exact:
            self.rad /= 2
            return
        old = self.rad
        self.bits = min(self.bits * 2, self.bits + (1 << 14))
        if self.dpc == (_ZERO, _ZERO):
            nudge = Fraction(1, 1 << self.bits)
            self.c = (self.c[0] + nudge, self.c[1])
        else:
            step = _c_div(self.pc, self.dpc)
            nxt = _c_sub(self.c, step)
            self.c = (_dyadic(nxt[0], self.bits), _dyadic(nxt[1], self.bits))
        self._update_radius()
        if self.rad is not None and old is not None and self.rad >= old:
            self._stuck += 1
        else:
            self._stuck = 0

    @property
    def stuck(self) -> bool:
        return self._stuck >= 8 or (self.rad is None and self.bits > (1 << 12))


def _disks_of(handle) -> list[tuple[Fraction, Fraction, Fraction]]:
    (re, im), r = handle.center(), handle.radius()
    if handle.is_real:
        return [(re, im, r)]
    return [(re, im, r), (re, -im, r)]


def _disjoint(d1, d2) -> bool:
    dx, dy = d1[0] - d2[0], d1[1] - d2[1]
    s = d1[2] + d2[2]
    return dx * dx + dy * dy > s * s


def _certify_layout(handles: list, eps: Fraction, max_rounds: int) -> bool:
    """Refine until all radii <= eps, complex boxes clear the real axis, and
    all disks (including conjugate mirrors) are pairwise disjoint."""
    for _ in range(max_rounds):
        bad: set[int] = set()
        for i, h in enumerate(handles):
            r = h.radius()
            if r is None or r > eps:
                bad.add(i)
                continue
            if not h.is_real and h.center()[1] <= r:
                bad.add(i)
        if not bad:
            for i in range(len(handles)):
                for j in range(i + 1, len(handles)):
                    for da in _disks_of(handles[i]):
                        for db in _disks_of(handles[j]):
                            if not _disjoint(da, db):
                                bad.add(i)
                                bad.add(j)
        if not bad:
            return True
        for i in bad:
            handles[i].shrink()
            if not handles[i].is_real and handles[i].stuck:
                return False
    return False


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


def _aberth_starts(p: IntPoly, npairs: int):
    """Upper half-plane starting points from a double-precision Aberth
    iteration, or None (escalate to mpmath).

    Only tried when every coefficient is exact in a double.  The result must
    look clean in floating point: the error estimates (Newton inclusion radius
    plus a Horner rounding bound) of any two approximations sum to less than a
    quarter of their distance, and exactly npairs approximations lie above the
    real axis, and npairs below it, by more than their error estimate.
    """
    if any(abs(c) >= 1 << 53 for c in p.coeffs):
        return None
    d = p.degree
    a = [float(c) for c in reversed(p.coeffs)]  # descending powers

    def horner(z):
        pv = dv = 0j
        for c in a:
            dv = dv * z + pv
            pv = pv * z + c
        return pv, dv

    rho = abs(a[-1] / a[0]) ** (1.0 / d) if a[-1] else 1.0
    z = [rho * cmath.exp(1j * (2 * math.pi * i / d + 0.4)) for i in range(d)]
    try:
        for _ in range(_ABERTH_STEPS):
            moved = False
            for i, zi in enumerate(z):
                pv, dv = horner(zi)
                if pv == 0:
                    continue
                w = 1 / (dv / pv - sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i))
                z[i] = zi - w
                moved = moved or abs(w) > 2.0 ** -50 * abs(zi)
            if not moved:
                break
        err = []
        for zi in z:
            pv, dv = horner(zi)
            scale = 0.0
            for c in a:
                scale = scale * abs(zi) + abs(c)
            err.append(d * (abs(pv) + d * 2.0 ** -50 * scale) / abs(dv))
    except (ZeroDivisionError, OverflowError):
        return None
    for i in range(d):
        for j in range(i + 1, d):
            if not abs(z[i] - z[j]) > 4 * (err[i] + err[j]):  # also rejects nan
                return None
    ups = [zi for zi, e in zip(z, err) if zi.imag > e]
    downs = [zi for zi, e in zip(z, err) if zi.imag < -e]
    if len(ups) != npairs or len(downs) != npairs:
        return None
    return [(Fraction(zi.real), Fraction(zi.imag)) for zi in ups]


def _complex_starts(p: IntPoly, npairs: int, dps: int):
    """Upper half-plane starting points from mpmath, or None to retry."""
    import mpmath

    with mpmath.workdps(dps):
        try:
            roots = mpmath.polyroots(
                [mpmath.mpf(c) for c in reversed(p.coeffs)],
                maxsteps=500,
                extraprec=2 * dps,
            )
        except Exception:
            return None
        ups = [z for z in roots if mpmath.im(z) > 0]
        if len(ups) != npairs:
            return None
        out = []
        for z in ups:
            if not (mpmath.isfinite(mpmath.re(z)) and mpmath.isfinite(mpmath.im(z))):
                return None
            out.append((_mpf_to_fraction(mpmath.re(z)), _mpf_to_fraction(mpmath.im(z))))
        return out


def _refine_budget(p: IntPoly, eps: Fraction) -> int:
    """Rounds of halving that provably suffice: reach the separation bound
    plus the requested radius (real-handle refinement is one halving per
    round)."""
    return _separation_bits(p) + _frac_bits(eps) + 96


def _proposals(p: IntPoly, npairs: int):
    """Upper half-plane starting points, each with the dyadic precision of its
    handles: double-precision Aberth first, then mpmath at growing precision
    (the escalation path; mpmath is imported only when it is reached)."""
    starts = _aberth_starts(p, npairs)
    if starts is not None:
        yield starts, 64
    coeff_bits = max(abs(c).bit_length() for c in p.coeffs)
    dps = max(30, coeff_bits // 3 + 15)
    for _ in range(7):
        starts = _complex_starts(p, npairs, dps)
        if starts is not None:
            yield starts, max(64, 2 * dps)
        dps *= 2


def _isolate_handles(p: IntPoly, eps: Fraction, multiplicity: int = 1) -> list:
    """Certified handles for all roots of a squarefree polynomial."""
    d = p.degree
    reals = [_RealHandle(rec, eps, multiplicity) for rec in _isolate_real_roots(p)]
    npairs = (d - len(reals)) // 2
    if d - len(reals) != 2 * npairs:
        raise ArithmeticError("real root count parity violation")
    if npairs == 0:
        handles = list(reals)
        if not _certify_layout(handles, eps, _refine_budget(p, eps)):
            raise UnresolvedCertification("real isolation failed to separate")
        return handles
    for starts, bits in _proposals(p, npairs):
        handles = list(reals) + [_ComplexHandle(p, s, bits, multiplicity) for s in starts]
        if _certify_layout(handles, eps, _refine_budget(p, eps)):
            return handles
        # fresh complex starts get fresh real handles
        reals = [_RealHandle(rec, eps, multiplicity) for rec in _isolate_real_roots(p)]
    raise UnresolvedCertification("complex root isolation did not converge")


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
    modulus_sq_span: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class RatioFlag:
    """Conjugate-ratio classification for one root (shared across a pair)."""

    kind: str  # ROOT_OF_UNITY | NOT_ROOT_OF_UNITY | UNRESOLVED
    order: int | None = None


@dataclass(frozen=True)
class ModulusClassification:
    roots: tuple[RootBox, ...]
    classes: tuple[ModulusClass, ...]


@dataclass(frozen=True)
class SpectralSummary:
    char_poly: IntPoly
    roots: tuple[RootBox, ...]
    modulus_classes: tuple[ModulusClass, ...]
    dominant_pair: tuple[int, int] | None
    ratio_flags: tuple[RatioFlag, ...]
    unity_orders: tuple[int, ...]


def squarefree_part(p: IntPoly) -> tuple[IntPoly, tuple[tuple[IntPoly, int], ...]]:
    """Squarefree part (primitive, positive leading coefficient) plus the Yun
    decomposition p ~ prod factor^multiplicity."""
    if p.is_zero:
        raise ValueError("squarefree part of the zero polynomial")
    w = p.primitive_positive()
    if w.degree == 0:
        return IntPoly((1,)), ()
    g = poly_gcd(w, w.derivative())
    sf = w.exact_div(g).primitive_positive()
    factors: list[tuple[IntPoly, int]] = []
    c = w.exact_div(g)
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

    Called once per analysis; later refinement only shrinks boxes around
    fixed roots, so the order stays meaningful and is never recomputed.
    """
    reals = sorted((h for h in handles if h.is_real), key=lambda h: h.value_span()[0])
    comps = sorted((h for h in handles if not h.is_real), key=lambda h: h.center())
    return reals + comps


def _boxes_from_ordered(ordered: list) -> tuple[RootBox, ...]:
    """Public boxes in handle order; each pair occupies two slots
    (upper half-plane root first, conjugate second)."""
    boxes: list[RootBox] = []
    for h in ordered:
        if h.is_real:
            boxes.append(RootBox(h.center(), h.radius(), h.multiplicity, True, None))
        else:
            i = len(boxes)
            (re, im), r = h.center(), h.radius()
            boxes.append(RootBox((re, im), r, h.multiplicity, False, i + 1))
            boxes.append(RootBox((re, -im), r, h.multiplicity, False, i))
    return tuple(boxes)


def isolate_roots(p: IntPoly, eps: Fraction) -> list[RootBox]:
    """Disjoint certified boxes, one per root of a squarefree polynomial,
    radii at most eps.  Conjugate pairs are matched; real roots certified."""
    if not isinstance(eps, Fraction):
        eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if p.degree < 1:
        raise ValueError("root isolation needs degree at least 1")
    if not _is_squarefree(p):
        raise ValueError("polynomial must be squarefree (apply squarefree_part)")
    ordered = _order_handles(_isolate_handles(p, eps))
    return list(_boxes_from_ordered(ordered))


# -- modulus comparison machinery -------------------------------------------

def _monic_scaled(p: IntPoly) -> IntPoly:
    """q(x) = lc^(d-1) * p(x/lc): monic with integer coefficients, and its
    roots are lc * root for each root of p.  Ratios of roots are unchanged."""
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


def _modsq_interval(handle, sqrt_bits: int) -> tuple[Fraction, Fraction]:
    """Exact interval containing |root|^2."""
    if handle.is_real:
        lo, hi = handle.value_span()
        if lo == hi:
            return lo * lo, lo * lo
        if lo >= 0:
            return lo * lo, hi * hi
        if hi <= 0:
            return hi * hi, lo * lo
        return _ZERO, max(lo * lo, hi * hi)
    (re, im), r = handle.center(), handle.radius()
    m2 = re * re + im * im
    if handle.is_exact:
        return m2, m2
    slo, shi = _sqrt_bounds(m2, sqrt_bits)
    lo = max(_ZERO, slo - r)
    hi = shi + r
    return lo * lo, hi * hi


def _spans_intersect(lo: Fraction, hi: Fraction, rec: _RealRoot) -> bool:
    a, b = rec.span()
    if a == b:  # exact point
        return lo <= a <= hi
    return not (hi <= a or lo >= b)


def _pin_real_signs(handles: list, cap_rounds: int) -> None:
    """Refine real handles until |center| > radius, so the sign of the root
    is certified by the box alone (callers guarantee 0 is not a root)."""
    for h in handles:
        if not h.is_real:
            continue
        for _ in range(cap_rounds):
            (re, _), r = h.center(), h.radius()
            if re > r or -re > r:
                break
            h.shrink()
        else:
            raise UnresolvedCertification("could not certify the sign of a real root")


def _match_moduli(handles: list, q_sf: IntPoly, cap_bits: int) -> list[_RealRoot]:
    """Match every handle's |root|^2 to exactly one real-root record of q_sf."""
    records = _isolate_real_roots(q_sf)
    # unit modulus is common: pin 1 exactly up front when it is a root
    if q_sf.eval_int(1) == 0:
        for rec in records:
            a, b = rec.span()
            if a <= 1 <= b:
                rec.exact = Fraction(1)
                break
    matches: list[_RealRoot | None] = [None] * len(handles)
    cap_radius = Fraction(1, 1 << cap_bits)
    for _ in range(cap_bits + 64):
        progress_needed = False
        for i, h in enumerate(handles):
            if matches[i] is not None:
                continue
            sqrt_bits = max(32, _frac_bits(h.radius()) + 8)
            lo, hi = _modsq_interval(h, sqrt_bits)
            cands = [rec for rec in records if _spans_intersect(lo, hi, rec)]
            if len(cands) == 1:
                matches[i] = cands[0]
                continue
            progress_needed = True
            if h.radius() < cap_radius:
                raise UnresolvedCertification(
                    "modulus matching exceeded the refinement cap"
                )
            h.shrink()
            for rec in cands:
                rec.refine_step()
        if not progress_needed:
            return matches  # type: ignore[return-value]
    raise UnresolvedCertification("modulus matching did not converge")


def _versus_one(rec: _RealRoot, cap_bits: int) -> str:
    for _ in range(cap_bits + 64):
        a, b = rec.span()
        if a == b:
            return EQ if a == 1 else (GT if a > 1 else LT)
        if b <= 1:
            return LT
        if a >= 1:
            return GT
        # the exact-1 case was pinned before matching, so the root is not 1
        if rec.width() < Fraction(1, 1 << cap_bits):
            raise UnresolvedCertification("comparison against 1 exceeded the cap")
        rec.refine_step()
    raise UnresolvedCertification("comparison against 1 did not converge")


def _partition_by_modulus(
    handles: list, p_sf: IntPoly, cap_bits: int
) -> tuple[ModulusClass, ...]:
    _pin_real_signs(handles, cap_bits + 64)
    q = _product_poly(p_sf)
    q_sf, _ = squarefree_part(q)
    matches = _match_moduli(handles, q_sf, cap_bits)
    groups: dict[int, list[int]] = {}
    reps: dict[int, _RealRoot] = {}
    for i, rec in enumerate(matches):
        key = id(rec)
        groups.setdefault(key, []).append(i)
        reps[key] = rec
    keyed = sorted(groups, key=lambda k: reps[k].span()[0], reverse=True)
    classes = []
    for key in keyed:
        rec = reps[key]
        classes.append(
            ModulusClass(
                indices=tuple(groups[key]),
                versus_one=_versus_one(rec, cap_bits),
                modulus_sq_span=rec.span(),
            )
        )
    return tuple(classes)


def modulus_classes(p: IntPoly, cap_bits: int = 256) -> ModulusClassification:
    """Partition the roots of a squarefree p (p(0) != 0) into certified
    equal-modulus classes, each compared against modulus 1.

    Works through the product polynomial Q: each |root|^2 is itself a real
    root of Q, so exact interval matching against Q's isolated real roots
    decides equality of moduli and the comparison with 1 without any floating
    point.
    """
    if not _is_squarefree(p):
        raise ValueError("modulus classes need a squarefree polynomial")
    if p.constant == 0:
        raise ValueError("modulus classes need p(0) != 0")
    ordered = _order_handles(
        _isolate_handles(p, Fraction(1, 1 << _DEFAULT_EPS_BITS))
    )
    classes = _partition_by_modulus(ordered, p.primitive_positive(), cap_bits)
    return ModulusClassification(
        roots=_boxes_from_ordered(ordered),
        classes=_expand_classes(classes, ordered),
    )


def _expand_classes(
    classes: tuple[ModulusClass, ...], ordered_handles: list
) -> tuple[ModulusClass, ...]:
    """Translate handle indices to box indices (pairs occupy two box slots)."""
    base = []
    pos = 0
    for h in ordered_handles:
        base.append((pos, 1 if h.is_real else 2))
        pos += 1 if h.is_real else 2
    out = []
    for cls in classes:
        idx: list[int] = []
        for i in cls.indices:
            start, span = base[i]
            idx.extend(range(start, start + span))
        out.append(
            ModulusClass(tuple(sorted(idx)), cls.versus_one, cls.modulus_sq_span)
        )
    return tuple(out)


# -- eigenvalue ratio machinery ----------------------------------------------

def ratio_polynomial(p: IntPoly) -> tuple[IntPoly, IntPoly]:
    """(full, reduced) ratio polynomials for a degree-k polynomial, p(0) != 0.

    full = lc(p)^k * ((-1)^k p(0))^k * prod_(i,j) (x - root_j/root_i), which
    is Res_y(p(y), p(x*y)) with its sign; it has degree k^2 and vanishes
    exactly at the ratios.  reduced divides out the k diagonal ratios
    (x - 1)^k exactly.

    Built from power sums: with mu_i the roots of the monic q = _monic_scaled(p)
    and c = q(0), the monic integer polynomial with roots c/mu_i (the
    reversal of q, scaled) has power sums t_m, and the products s_m*t_m are
    the power sums of the roots c*root_j/root_i.  Scaling back by x -> c*x
    divides each coefficient by a power of c, exactly.
    """
    k = p.degree
    if k < 1:
        raise ValueError("ratio polynomial needs degree at least 1")
    if p.constant == 0:
        raise ValueError("zero eigenvalue: ratios are undefined")
    q = _monic_scaled(p)
    c = q.constant
    n = k * k
    s, t = _power_sums(q, n), _power_sums(_monic_scaled(q.reversed_coeffs()), n)
    scaled = _from_power_sums([sm * tm for sm, tm in zip(s, t)])
    factor = (-p.lc * p.constant) ** k
    full = IntPoly(tuple(factor * b // c ** (n - i) for i, b in enumerate(scaled.coeffs)))
    reduced = full
    x_minus_1 = IntPoly((-1, 1))
    for _ in range(k):
        reduced = reduced.exact_div(x_minus_1)
    return full, reduced


def _orders_from_reduced(reduced: IntPoly, k: int) -> list[int]:
    return [
        m for m in orders_with_phi_at_most(min(k * k, reduced.degree))
        if cyclotomic(m).divides(reduced)
    ]


def unity_ratio_orders(p: IntPoly) -> list[int]:
    """All m with phi(m) <= k^2 such that the m-th cyclotomic polynomial
    shares a factor with the reduced ratio polynomial, ascending.

    Cyclotomic polynomials are irreducible, so sharing a factor is plain
    divisibility; a ratio that is a primitive m-th root of unity has degree
    phi(m) <= deg(reduced) <= k^2, whence m <= 2k^4.
    """
    _, reduced = ratio_polynomial(p)
    return _orders_from_reduced(reduced, p.degree)


def _ratio_disk(pair_handle):
    """Certified disk around conj(root)/root for an upper-half-plane handle.

    center = conj(c)/c is exact; the error bound is 2r/(|c| - r), evaluated
    with a rational lower bound for |c|.  Returns None while the pair box is
    too coarse (caller shrinks and retries).
    """
    c = pair_handle.center()
    r = pair_handle.radius()
    if pair_handle.is_exact:
        center = _c_div((c[0], -c[1]), c)
        return center, pair_handle.radius()
    m2 = _c_abs2(c)
    slo, _ = _sqrt_bounds(m2, max(32, _frac_bits(r) + 8))
    if slo <= r:
        return None
    center = _c_div((c[0], -c[1]), c)
    return center, 2 * r / (slo - r)


def _attribute_pair(
    pair_handle, reduced_sf: IntPoly | None, candidate_orders: list[int], cap_bits: int
) -> RatioFlag:
    """Decide whether conj(lambda)/lambda is a root of unity, geometrically.

    The ratio is a root of the squarefree reduced ratio polynomial, which
    splits as H * W with H the product of the candidate cyclotomics.  The
    ratio disk is refined until it excludes every root of one factor.
    """
    if not candidate_orders:
        return RatioFlag(NOT_ROOT_OF_UNITY)
    if pair_handle.is_exact:
        eta = _c_div((pair_handle.center()[0], -pair_handle.center()[1]), pair_handle.center())
        for m in candidate_orders:
            v = _poly_eval_complex(cyclotomic(m), eta)
            if v == (_ZERO, _ZERO):
                return RatioFlag(ROOT_OF_UNITY, m)
        return RatioFlag(NOT_ROOT_OF_UNITY)
    h_poly = IntPoly((1,))
    for m in candidate_orders:
        h_poly = h_poly * cyclotomic(m)
    w_poly = reduced_sf.exact_div(poly_gcd(reduced_sf, h_poly))
    eps = Fraction(1, 1 << 32)
    unity_handles = {m: _isolate_handles(cyclotomic(m), eps) for m in candidate_orders}
    w_handles = _isolate_handles(w_poly, eps) if w_poly.degree >= 1 else []
    cap_radius = Fraction(1, 1 << cap_bits)
    for _ in range(cap_bits + 64):
        disk = _ratio_disk(pair_handle)
        if disk is None:
            pair_handle.shrink()
            continue
        center, rad = disk
        ratio_disk = (center[0], center[1], rad)

        def hits(handles) -> bool:
            return any(
                not _disjoint(ratio_disk, db)
                for h in handles
                for db in _disks_of(h)
            )

        hit_orders = [m for m in candidate_orders if hits(unity_handles[m])]
        hit_w = hits(w_handles)
        if not hit_orders:
            return RatioFlag(NOT_ROOT_OF_UNITY)
        if not hit_w and len(hit_orders) == 1:
            return RatioFlag(ROOT_OF_UNITY, hit_orders[0])
        if pair_handle.radius() < cap_radius:
            return RatioFlag(UNRESOLVED)
        pair_handle.shrink()
        for m in hit_orders:
            for h in unity_handles[m]:
                h.shrink()
        for h in w_handles:
            h.shrink()
    return RatioFlag(UNRESOLVED)


# -- full summary -------------------------------------------------------------

def spectral_summary(a: IntMatrix, precision_bits: int = 256) -> SpectralSummary:
    """Characteristic polynomial, certified root boxes with multiplicities,
    equal-modulus classes compared against 1, the dominant conjugate pair if
    there is one, and conjugate-ratio flags per root."""
    if det(a) == 0:
        raise RankDeficient("spectral analysis needs a matrix of full rank")
    chi = char_poly(a)
    sf, factors = squarefree_part(chi)
    eps = Fraction(1, 1 << _DEFAULT_EPS_BITS)
    handles: list = []
    for factor, mult in factors:
        handles.extend(_isolate_handles(factor, eps, multiplicity=mult))
    if not _certify_layout(handles, eps, _refine_budget(sf, eps)):
        raise UnresolvedCertification("cross-factor isolation failed to separate")
    ordered = _order_handles(handles)
    classes = _expand_classes(
        _partition_by_modulus(ordered, sf, precision_bits), ordered
    )

    # conjugate-ratio flags
    _, reduced = ratio_polynomial(chi)
    orders = _orders_from_reduced(reduced, chi.degree)
    have_pairs = any(not h.is_real for h in ordered)
    pair_candidates = [m for m in orders if m != 1]  # a non-real pair ratio is not 1
    reduced_sf = squarefree_part(reduced)[0] if (have_pairs and pair_candidates) else None
    flags: list[RatioFlag] = []
    for h in ordered:
        if h.is_real:
            flags.append(RatioFlag(ROOT_OF_UNITY, 1))
        else:
            flag = _attribute_pair(h, reduced_sf, pair_candidates, precision_bits)
            flags.append(flag)
            flags.append(flag)

    # refinement in the steps above only shrank boxes; snapshot them now
    boxes = _boxes_from_ordered(ordered)

    # dominant pair: top class is exactly one non-real conjugate pair
    dominant_pair = None
    top = classes[0]
    if len(top.indices) == 2:
        i, j = top.indices
        if (not boxes[i].is_real) and boxes[i].conjugate_partner == j:
            dominant_pair = (i, j)
    return SpectralSummary(
        char_poly=chi,
        roots=boxes,
        modulus_classes=classes,
        dominant_pair=dominant_pair,
        ratio_flags=tuple(flags),
        unity_orders=tuple(orders),
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
    "ModulusClassification",
    "RatioFlag",
    "SpectralSummary",
    "squarefree_part",
    "isolate_roots",
    "modulus_classes",
    "ratio_polynomial",
    "unity_ratio_orders",
    "spectral_summary",
]
