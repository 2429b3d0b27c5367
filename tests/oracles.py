"""Independent brute-force oracles used by the test suite.

These deliberately avoid the production code paths they check:

* homogenization_degree clears the map's homogeneous coordinates by exponent
  bookkeeping instead of using the closed degree formula;
* mat_mul sums each entry index by index and mat_pow squares, instead of the
  package's one power walk over row-column products;
* achieving_cells materialises every functional attaining the degree as a
  product of per-max argmax sets, and canonical_cell takes its least
  member, instead of the package's one pass over the maxima;
* sylvester_resultant_in_y expands the Sylvester matrix and eliminates it
  fraction-free instead of composing power sums, and ratio_full_oracle
  applies it to Res_y(p(y), p(x*y));
* hankel_min_order recovers the minimal annihilator order from exact Hankel
  ranks instead of Berlekamp-Massey;
* polyroots_oracle approximates every complex root to 100 digits with
  mpmath instead of certifying isolating boxes;
* eventually_periodic_oracle tries every (period, preperiod) pair and
  rescans the whole tail for each instead of one backward scan per period;
* verify_recurrence_oracle checks every relation forward over Fractions
  instead of scanning cleared integers backward;
* FractionHandle refines a root candidate by Newton steps on Gaussian
  rationals instead of the scaled Gaussian integers of spectra._Handle, and
  modsq_interval_oracle bounds |root|^2 from its Fraction centre and radius;
* modulus_classes_oracle isolates every real root of the product polynomial
  by Sturm bisection over Fractions and matches the handles' |root|^2
  intervals against those records, instead of Sturm counts on the handles'
  own dyadic spans;
* modulus_ranking_oracle ranks 60-digit mpmath approximations of the
  eigenvalue moduli instead of certified |root|^2 spans;
* unity_order_oracle raises 60-digit mpmath approximations of each
  conjugate ratio to every power m in turn instead of certifying disks
  around lambda^m.

The small polynomial helpers (poly_from_roots, poly_pow, eval_fraction,
eval_gaussian, poly_at_matrix) build test inputs and evaluate them exactly,
and
check_candidate verifies a monic polynomial as a recurrence, and
root_bound_pow2 bounds its roots by a power of two; the package has no use
for them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
import math
import random

from monodeg.degree import FunctionalIndex
from monodeg.errors import DimensionMismatch
from monodeg.exact import IntMatrix, IntPoly, det
from monodeg.recur import Recurrence, verify_recurrence


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product, entry (i, j) = sum_t a_it * b_tj."""
    if a.k != b.k:
        raise DimensionMismatch(f"cannot multiply {a.k}x{a.k} by {b.k}x{b.k}")
    k = a.k
    return IntMatrix(
        tuple(
            tuple(sum(a.rows[i][t] * b.rows[t][j] for t in range(k)) for j in range(k))
            for i in range(k)
        )
    )


def mat_pow(a: IntMatrix, n: int) -> IntMatrix:
    """Exact n-th power by repeated squaring, n >= 0 (A^0 is the identity)."""
    if n < 0:
        raise ValueError("matrix power requires a non-negative exponent")
    result = IntMatrix.identity(a.k)
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def _argmax_sets(rows) -> list[list[int]]:
    """The per-max argmax choice sets of the matrix with these rows: index 0
    for the row-sum max, then one per column.  Choice 0 is the constant-0
    branch."""
    sets = []
    for vals in ([0, *map(sum, rows)], *([0, *(-x for x in col)] for col in zip(*rows))):
        best = max(vals)
        sets.append([c for c, v in enumerate(vals) if v == best])
    return sets


def achieving_cells(a: IntMatrix) -> set[FunctionalIndex]:
    """All functional indices whose value at ``a`` equals D(a); never empty.

    The branches of the degree formula are independent, so the set is the
    cartesian product of the per-max argmax sets.
    """
    if a.is_zero:
        raise ValueError("achieving cells of the zero matrix are not defined")
    return {FunctionalIndex(c) for c in product(*_argmax_sets(a.rows))}


def canonical_cell(a: IntMatrix) -> FunctionalIndex:
    """The lexicographically least achieving functional."""
    return min(achieving_cells(a))


def poly_from_roots(roots: list[int]) -> IntPoly:
    """Monic integer polynomial with the given (repeated) integer roots."""
    p = IntPoly((1,))
    for r in roots:
        p = p * IntPoly((-r, 1))
    return p


def poly_pow(p: IntPoly, n: int) -> IntPoly:
    """p^n by repeated multiplication, n >= 0."""
    result = IntPoly((1,))
    for _ in range(n):
        result = result * p
    return result


def eval_fraction(p: IntPoly, x: Fraction) -> Fraction:
    """p(x) in exact rationals (Horner)."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_at_matrix(p: IntPoly, a: IntMatrix) -> IntMatrix:
    """p(A) for an integer polynomial p (Horner with mat_mul)."""
    k = a.k
    acc = IntMatrix(((0,) * k,) * k)
    for c in reversed(p.coeffs):
        rows = mat_mul(acc, a).rows
        acc = IntMatrix(
            tuple(tuple(x + c * (i == j) for j, x in enumerate(r)) for i, r in enumerate(rows))
        )
    return acc


def check_candidate(seq: list[int], p: IntPoly) -> int | None:
    """Treat a monic integer polynomial as a recurrence and verify it."""
    if not p.is_monic or p.degree < 1:
        raise ValueError("candidate polynomial must be monic of degree >= 1")
    if len(seq) < p.degree + 2:
        raise ValueError("sequence too short for this candidate")
    return verify_recurrence(seq, Recurrence.from_poly(p))


def verify_recurrence_oracle(seq, rec: Recurrence) -> int | None:
    """verify_recurrence by the Fraction loop: every relation is checked and
    the last failure kept."""
    m = rec.order
    n_terms = len(seq)
    if n_terms < m + 1:
        raise ValueError("sequence too short to check this recurrence")
    s = [Fraction(x) for x in seq]
    last_bad = 0  # 1-based index of the last failing relation
    for n in range(n_terms - m):  # relation at 1-based index n+1
        val = s[n + m]
        for i in range(m):
            val += rec.coefficients[i] * s[n + i]
        if val != 0:
            last_bad = n + 1
    valid_from = last_bad + 1
    if n_terms - valid_from + 1 < 2 * m:
        return None
    return valid_from


def eventually_periodic_oracle(symbols, window: int) -> tuple[int, int] | None:
    """Minimal (preperiod, period) by trying every pair: period first, then
    preperiod, each checked on the whole remaining tail."""
    n = len(symbols)
    if not 0 < window <= n:
        raise ValueError("window must satisfy 0 < window <= len(symbols)")
    pre_cap = n - window
    for period in range(1, n // 2 + 1):
        for pre in range(0, min(pre_cap, n - 2 * period) + 1):
            if all(symbols[i] == symbols[i + period] for i in range(pre, n - period)):
                return pre, period
    return None


def homogenization_degree(a: IntMatrix) -> int:
    """Total degree after homogenising the monomial map and clearing common
    monomial factors.

    Coordinate 0 is the constant 1; coordinate i is the Laurent monomial
    x_0^(-rowsum_i) * prod_j x_j^(a_ij).  Shifting all exponent vectors by the
    componentwise minimum clears the common factor; the degree is the largest
    total degree that remains.
    """
    k = a.k
    vectors = [[0] * (k + 1)]
    for i in range(k):
        v = [-sum(a.rows[i])]
        v.extend(a.rows[i][j] for j in range(k))
        vectors.append(v)
    shift = [-min(v[l] for v in vectors) for l in range(k + 1)]
    totals = [sum(v[l] + shift[l] for l in range(k + 1)) for v in vectors]
    return max(totals)


def _bareiss_det_poly(rows: list[list[IntPoly]]) -> IntPoly:
    """Fraction-free determinant of a matrix with IntPoly entries."""
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = IntPoly((1,))
    for r in range(n - 1):
        if m[r][r].is_zero:
            for s in range(r + 1, n):
                if not m[s][r].is_zero:
                    m[r], m[s] = m[s], m[r]
                    sign = -sign
                    break
            else:
                return IntPoly()
        pivot = m[r][r]
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][r] * m[r][j]).exact_div(prev)
            m[i][r] = IntPoly()
        prev = pivot
    result = m[n - 1][n - 1]
    return -result if sign < 0 else result


def sylvester_resultant_in_y(f: list[IntPoly], g: list[IntPoly]) -> IntPoly:
    """Resultant oracle: Sylvester matrix determinant, rows of f first."""
    fs = list(f)
    gs = list(g)
    while fs and fs[-1].is_zero:
        fs.pop()
    while gs and gs[-1].is_zero:
        gs.pop()
    m, n = len(fs) - 1, len(gs) - 1
    if m == 0 and n == 0:
        return IntPoly((1,))
    if m == 0:
        return poly_pow(fs[0], n)
    if n == 0:
        return poly_pow(gs[0], m)
    size = m + n
    zero = IntPoly()
    rows: list[list[IntPoly]] = []
    fd = list(reversed(fs))  # descending
    gd = list(reversed(gs))
    for i in range(n):
        rows.append([zero] * i + fd + [zero] * (n - 1 - i))
    for j in range(m):
        rows.append([zero] * j + gd + [zero] * (m - 1 - j))
    return _bareiss_det_poly(rows)


def ratio_full_oracle(p: IntPoly) -> IntPoly:
    """Res_y(p(y), p(x*y)) as a Sylvester determinant: the full ratio
    polynomial, degree k^2, whose roots are all ratios root_j/root_i."""
    f_y = [IntPoly((c,)) for c in p.coeffs]
    g_y = [IntPoly((0,) * i + (c,)) for i, c in enumerate(p.coeffs)]
    return sylvester_resultant_in_y(f_y, g_y)


def hankel_min_order(seq: list[int], max_order: int) -> int | None:
    """Minimal annihilator order from exact Hankel ranks.

    For a sequence genuinely satisfying an order-m recurrence (with enough
    terms), the rank of the r x r Hankel matrix stabilises at m for r >= m.
    """
    n = len(seq)
    r = min(max_order + 1, n // 2)
    h = [[Fraction(seq[i + j]) for j in range(r)] for i in range(r)]
    return _rank_fraction(h)


def _rank_fraction(rows: list[list[Fraction]]) -> int:
    m = [row[:] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    col = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pr = m[rank]
        inv = 1 / pr[col]
        for r in range(rank + 1, n_rows):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [x - factor * y for x, y in zip(m[r], pr)]
        rank += 1
        if rank == n_rows:
            break
    return rank


def mpf_fraction(x) -> Fraction:
    """The exact value of an mpf, from its man_exp (man is unsigned) and its
    sign."""
    man, exp = x.man_exp
    v = Fraction(man) * Fraction(2) ** exp if man else Fraction(0)
    return -v if x < 0 else v


def polyroots_oracle(p: IntPoly, dps: int = 100) -> list[tuple[Fraction, Fraction]]:
    """All complex roots of p as exact (re, im) values of dps-digit
    approximations."""
    import mpmath

    with mpmath.workdps(dps):
        roots = mpmath.polyroots(
            [mpmath.mpf(c) for c in reversed(p.coeffs)], maxsteps=400, extraprec=4 * dps
        )
        return [(mpf_fraction(mpmath.re(z)), mpf_fraction(mpmath.im(z))) for z in roots]


def random_matrix(rng: random.Random, k: int, lo: int, hi: int) -> IntMatrix:
    return IntMatrix(
        tuple(tuple(rng.randint(lo, hi) for _ in range(k)) for _ in range(k))
    )


def random_rank_matrix(rng: random.Random, k: int, lo: int, hi: int) -> IntMatrix:
    while True:
        a = random_matrix(rng, k, lo, hi)
        if det(a) != 0:
            return a


def random_unimodular(rng: random.Random, k: int, steps: int = 12) -> IntMatrix:
    """Random product of integer elementary matrices (always det +-1)."""
    rows = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for _ in range(steps):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for col in range(k):
            rows[i][col] += c * rows[j][col]
        if rng.random() < 0.3:
            i2 = rng.randrange(k)
            rows[i2] = [-x for x in rows[i2]]
    return IntMatrix(tuple(tuple(r) for r in rows))


def _dyadic(x: Fraction, bits: int) -> Fraction:
    """Round to the nearest multiple of 2^-bits, ties upward."""
    q, r = divmod(x.numerator << bits, x.denominator)
    return Fraction(q + (2 * r >= x.denominator), 1 << bits)


def fraction_start(start: tuple[Fraction, Fraction], bits: int) -> tuple[int, int, bool]:
    """The handle start (x, y, is_real) at bits of a Gaussian rational start:
    each part rounded to a multiple of 2^-bits (ties upward), real when the
    imaginary part is 0 before rounding."""
    x, y = (int(_dyadic(v, bits) * (1 << bits)) for v in start)
    return x, y, start[1] == 0


def handle_view(h) -> tuple[tuple[Fraction, Fraction], Fraction]:
    """A spectra._Handle's centre and radius as Fractions, read off its
    integers (radius 1 while it certifies nothing, as FractionHandle)."""
    den = 1 << h.bits
    r = Fraction(1, 1 << h.e) if h.e is not None else Fraction(1)
    return (Fraction(h.x, den), Fraction(h.y, den)), r


def eval_gaussian(p: IntPoly, z: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """p(z) at a Gaussian rational z = (re, im), exactly (Horner)."""
    acc = (Fraction(0), Fraction(0))
    for c in reversed(p.coeffs):
        acc = (acc[0] * z[0] - acc[1] * z[1] + c, acc[0] * z[1] + acc[1] * z[0])
    return acc


class FractionHandle:
    """spectra._Handle in Fractions: the centre is a Gaussian rational
    rounded to 2^-bits after each Newton step c - p(c)/p'(c), and the radius
    is the least 2^-e, e >= 1, with d^2 |p(c)|^2 <= 2^-2e |p'(c)|^2 (None
    when that is above 1/2 or p'(c) = 0)."""

    def __init__(self, poly: IntPoly, start: tuple[Fraction, Fraction], bits: int):
        self.poly, self.deriv = poly, poly.derivative()
        self.c = (_dyadic(start[0], bits), _dyadic(start[1], bits))
        self.bits = bits
        self.rad: Fraction | None = None
        self.is_exact = False
        self._stuck = 0
        self._update_radius()

    def center(self) -> tuple[Fraction, Fraction]:
        return self.c

    def radius(self) -> Fraction:
        return self.rad if self.rad is not None else Fraction(1)

    def _update_radius(self) -> None:
        self.pc = eval_gaussian(self.poly, self.c)
        self.dpc = eval_gaussian(self.deriv, self.c)
        v = self.pc[0] ** 2 + self.pc[1] ** 2
        if v == 0:
            self.is_exact = True
            if self.rad is None:
                self.rad = Fraction(1, 1 << self.bits)
            return
        w = self.dpc[0] ** 2 + self.dpc[1] ** 2
        if w == 0:
            self.rad = None
            return
        t = self.poly.degree ** 2 * v / w
        num, den = t.numerator, t.denominator
        e = max(0, (den.bit_length() - num.bit_length()) // 2)
        while e > 0 and num << (2 * e) > den:
            e -= 1
        while num << (2 * e + 2) <= den:
            e += 1
        self.rad = Fraction(1, 1 << e) if e >= 1 else None

    def shrink(self) -> None:
        if self.is_exact:
            self.rad /= 2
            return
        old = self.rad
        self.bits = min(self.bits * 2, self.bits + (1 << 14))
        (pr, pi), (dr, di) = self.pc, self.dpc
        if dr == di == 0:
            self.c = (self.c[0] + Fraction(1, 1 << self.bits), self.c[1])
        else:
            w = dr * dr + di * di
            step = ((pr * dr + pi * di) / w, (pi * dr - pr * di) / w)
            nxt = (self.c[0] - step[0], self.c[1] - step[1])
            self.c = (_dyadic(nxt[0], self.bits), _dyadic(nxt[1], self.bits))
        self._update_radius()
        if self.rad is not None and old is not None and self.rad >= old:
            self._stuck += 1
        else:
            self._stuck = 0

    @property
    def stuck(self) -> bool:
        e = self.radius().denominator.bit_length() - 1
        return self._stuck >= 8 or self.bits > 8 * e + (1 << 12)


def _sqrt_bounds(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """lo <= sqrt(q) <= hi with hi - lo <= 2^-bits, q >= 0."""
    if q < 0:
        raise ValueError("sqrt of a negative rational")
    if q == 0:
        return Fraction(0), Fraction(0)
    m = q.numerator * q.denominator
    t = math.isqrt(m << (2 * bits))
    den = q.denominator << bits
    return Fraction(t, den), Fraction(t + 1, den)


def modsq_interval_oracle(handle, sqrt_bits: int) -> tuple[Fraction, Fraction]:
    """(|c| - r)^2 and (|c| + r)^2 in Fractions, |c| bracketed by
    _sqrt_bounds off the axis."""
    (re, im), r = handle_view(handle)
    m2 = re * re + im * im
    if handle.is_exact:
        return m2, m2
    slo, shi = (abs(re), abs(re)) if handle.is_real else _sqrt_bounds(m2, sqrt_bits)
    lo, hi = max(Fraction(0), slo - r), shi + r
    return lo * lo, hi * hi


def root_bound_pow2(p: IntPoly) -> int:
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


def _variations(chain: list[IntPoly], x: Fraction) -> int:
    signs = [s for s in (q.sign_at(x.numerator, x.denominator) for q in chain) if s]
    return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])


class _RealRoot:
    """One isolated real root: either exact rational or a sign-change bracket
    (lo, hi) with the root strictly inside and p nonzero at both endpoints."""

    def __init__(self, poly: IntPoly, exact: Fraction | None, lo=None, hi=None, sign_lo=0):
        self.poly, self.exact, self.lo, self.hi, self.sign_lo = poly, exact, lo, hi, sign_lo

    def span(self) -> tuple[Fraction, Fraction]:
        if self.exact is not None:
            return self.exact, self.exact
        return self.lo, self.hi

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
    """Disjoint records, one per real root of the squarefree polynomial p, by
    Sturm bisection of [-B, B] over Fractions."""
    from monodeg.spectra import _sturm_chain

    if p.degree < 1:
        return []
    chain = _sturm_chain(p)
    bound = root_bound_pow2(p)
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
            out.append(_RealRoot(p, None, a, b, p.sign_at(a.numerator, a.denominator)))
            continue
        mid = (a + b) / 2
        if p.sign_at(mid.numerator, mid.denominator) != 0:
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


def modulus_classes_oracle(handles: list, p_sf: IntPoly, cap_bits: int = 256) -> tuple:
    """spectra._partition_by_modulus by global isolation: every real root of
    the squarefree product polynomial is isolated over Fractions, each
    handle's |root|^2 interval (modsq_interval_oracle) is matched to the one
    record it meets, and each matched record is bisected against 1."""
    from monodeg.spectra import (
        EQ, GT, LT, ModulusClass, _pin_real_signs, _product_poly, squarefree_part,
    )

    _pin_real_signs(handles, cap_bits + 64)
    q_sf, _ = squarefree_part(_product_poly(p_sf))
    records = _isolate_real_roots(q_sf)
    if q_sf.eval_int(1) == 0:  # pin the root 1 exactly
        for rec in records:
            a, b = rec.span()
            if a <= 1 <= b:
                rec.exact = Fraction(1)
                break

    def meets(lo, hi, rec) -> bool:
        a, b = rec.span()
        return lo <= a <= hi if a == b else not (hi <= a or lo >= b)

    matches: list[_RealRoot | None] = [None] * len(handles)
    for _ in range(cap_bits + 64):
        if None not in matches:
            break
        for i, h in enumerate(handles):
            if matches[i] is not None:
                continue
            lo, hi = modsq_interval_oracle(h, max(32, (h.e or 0) + 8))
            cands = [rec for rec in records if meets(lo, hi, rec)]
            if len(cands) == 1:
                matches[i] = cands[0]
                continue
            if (h.e or 0) > cap_bits:
                raise ValueError("modulus matching exceeded the refinement cap")
            h.shrink()
            for rec in cands:
                rec.refine_step()
    else:
        raise ValueError("modulus matching did not converge")

    def versus_one(rec: _RealRoot) -> str:
        while True:
            a, b = rec.span()
            if a == b:
                return EQ if a == 1 else (GT if a > 1 else LT)
            if b <= 1:
                return LT
            if a >= 1:
                return GT
            rec.refine_step()

    reps = list({id(rec): rec for rec in matches}.values())
    reps.sort(key=lambda rec: rec.span()[0], reverse=True)
    return tuple(
        ModulusClass(tuple(i for i, m in enumerate(matches) if m is rec), versus_one(rec))
        for rec in reps
    )


def modulus_ranking_oracle(p: IntPoly, dps: int = 60, sep_digits: int = 40) -> tuple | None:
    """Equal-modulus classes of the roots of a squarefree p from dps-digit
    mpmath approximations instead of certified spans: (modulus, size,
    versus_one) per class, largest modulus first, size counting every root.

    Two moduli are equal when their approximations agree to 10^-(dps-10)
    and distinct when they differ by more than 10^-sep_digits, and the same
    holds for a modulus against 1.  A difference between the two cannot be
    told apart at this precision, and the result is None."""
    import mpmath

    from monodeg.spectra import EQ, GT, LT

    with mpmath.workdps(dps):
        roots = mpmath.polyroots(
            [mpmath.mpf(c) for c in reversed(p.coeffs)], maxsteps=400, extraprec=4 * dps
        )
        same, apart = mpmath.mpf(10) ** (10 - dps), mpmath.mpf(10) ** -sep_digits

        def equal(a, b) -> bool | None:
            d = abs(a - b)
            return True if d < same else (False if d > apart else None)

        classes: list[list] = []
        for m in sorted((abs(z) for z in roots), reverse=True):
            eq = equal(classes[-1][-1], m) if classes else False
            if eq is None:
                return None
            if eq:
                classes[-1].append(m)
            else:
                classes.append([m])
        out = []
        for cls in classes:
            at_one = equal(cls[0], 1)
            if at_one is None:
                return None
            out.append((float(cls[0]), len(cls), EQ if at_one else (GT if cls[0] > 1 else LT)))
        return tuple(out)


def unity_order_oracle(p: IntPoly, dps: int = 60) -> list[tuple[complex, int | None]] | None:
    """For each upper half-plane root lambda of a squarefree p of degree k:
    lambda, and the order of zeta = conj(lambda)/lambda as a root of unity
    (None when it is not one), from dps-digit mpmath approximations.

    A root of unity among the off-diagonal ratios has some order m with
    phi(m) <= k^2 - k, the degree of the reduced ratio polynomial, and
    phi(m) >= sqrt(m/2); so every m up to 2(k^2 - k)^2 with that totient
    bound is tried, ascending.  The order is the first m with
    |zeta^m - 1| < 10^-40; zeta is no root of unity when every tried m gives
    more than 10^-30.  A value in between cannot be told apart at this
    precision, and the result is None."""
    import mpmath

    k = p.degree
    bound = k * k - k

    def phi(m: int) -> int:
        out, n, f = m, m, 2
        while f * f <= n:
            if n % f == 0:
                out -= out // f
                while n % f == 0:
                    n //= f
            f += 1
        return out - out // n if n > 1 else out

    orders = [m for m in range(1, 2 * bound * bound + 2) if phi(m) <= bound]
    with mpmath.workdps(dps):
        roots = mpmath.polyroots(
            [mpmath.mpf(c) for c in reversed(p.coeffs)], maxsteps=400, extraprec=4 * dps
        )
        same, apart = mpmath.mpf(10) ** -40, mpmath.mpf(10) ** -30
        out = []
        for lam in roots:
            if mpmath.im(lam) <= apart:  # real, or the lower root of a pair
                continue
            zeta = mpmath.conj(lam) / lam
            order = None
            for m in orders:
                d = abs(zeta**m - 1)
                if d < same:
                    order = m
                    break
                if d <= apart:
                    return None
            out.append((complex(lam), order))
        return out
