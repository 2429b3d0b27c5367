"""Independent brute-force oracles used by the test suite.

These deliberately avoid the production code paths they check:

* homogenization_degree clears the map's homogeneous coordinates by exponent
  bookkeeping instead of using the closed degree formula;
* sylvester_resultant_in_y expands the Sylvester matrix and eliminates it
  fraction-free instead of composing power sums;
* hankel_min_order recovers the minimal annihilator order from exact Hankel
  ranks instead of Berlekamp-Massey;
* polyroots_oracle approximates every complex root to 100 digits with
  mpmath instead of certifying isolating boxes;
* eventually_periodic_oracle tries every (period, preperiod) pair and
  rescans the whole tail for each instead of one backward scan per period.

The small polynomial helpers (poly_from_roots, poly_pow, eval_fraction,
poly_at_matrix) build test inputs and evaluate them exactly, and
check_candidate verifies a monic polynomial as a recurrence; the package has
no use for them.
"""

from __future__ import annotations

from fractions import Fraction
import random

from monodeg.exact import IntMatrix, IntPoly, det, mat_mul
from monodeg.recur import Recurrence, verify_recurrence


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
    acc = IntMatrix.identity(k).scale(0)
    for c in reversed(p.coeffs):
        acc = mat_mul(acc, a).add(IntMatrix.identity(k).scale(c))
    return acc


def check_candidate(seq: list[int], p: IntPoly) -> int | None:
    """Treat a monic integer polynomial as a recurrence and verify it."""
    if not p.is_monic or p.degree < 1:
        raise ValueError("candidate polynomial must be monic of degree >= 1")
    if len(seq) < p.degree + 2:
        raise ValueError("sequence too short for this candidate")
    return verify_recurrence(seq, Recurrence.from_poly(p))


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


def polyroots_oracle(p: IntPoly, dps: int = 100) -> list[tuple[Fraction, Fraction]]:
    """All complex roots of p as exact (re, im) values of dps-digit
    approximations."""
    import mpmath

    def exact(x) -> Fraction:
        man, exp = x.man_exp  # man is unsigned
        v = Fraction(man) * Fraction(2) ** exp if man else Fraction(0)
        return -v if x < 0 else v

    with mpmath.workdps(dps):
        roots = mpmath.polyroots(
            [mpmath.mpf(c) for c in reversed(p.coeffs)], maxsteps=400, extraprec=4 * dps
        )
        return [(exact(mpmath.re(z)), exact(mpmath.im(z))) for z in roots]


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
