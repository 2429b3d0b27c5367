"""Exact detection and verification of linear recurrences in integer sequences.

A recurrence of order m is stored in monic form: coefficients (a0, ..., a_{m-1})
such that

    s[n+m] + a_{m-1}*s[n+m-1] + ... + a0*s[n] = 0

for all n past some offset.  All arithmetic is exact (rationals cleared to
integers); nothing here ever claims nonexistence of a recurrence, it only
reports what a bounded search did or did not find.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import WindowTooShort
from .exact import IntPoly, _format_poly


@dataclass(frozen=True)
class Recurrence:
    """Monic linear recurrence; ``coefficients[i]`` multiplies s[n+i].

    ``valid_from`` is the least 1-based index from which the relation held on
    the window it was checked against (None when unverified).
    """

    coefficients: tuple[Fraction, ...]
    valid_from: int | None = None

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coefficients)
        if not cs:
            raise ValueError("a recurrence needs order at least 1")
        object.__setattr__(self, "coefficients", cs)

    @property
    def order(self) -> int:
        return len(self.coefficients)

    @classmethod
    def from_poly(cls, p: IntPoly, valid_from: int | None = None) -> Recurrence:
        if not p.is_monic or p.degree < 1:
            raise ValueError("recurrence polynomial must be monic of degree >= 1")
        return cls(tuple(Fraction(c) for c in p.coeffs[:-1]), valid_from)

    def format(self, var: str = "x") -> str:
        return _format_poly(self.coefficients + (1,), var)


def _clear_denominators(seq: Sequence[Fraction | int]) -> list[int]:
    """Scale a rational sequence to integers (relations are scale-invariant)."""
    if all(isinstance(x, int) for x in seq):
        return list(seq)
    fracs = [Fraction(x) for x in seq]
    scale = 1
    for x in fracs:
        scale = scale * x.denominator // math.gcd(scale, x.denominator)
    return [int(x * scale) for x in fracs]


def berlekamp_massey(seq: Sequence[Fraction | int]) -> Recurrence | None:
    """Minimal linear recurrence annihilating the whole window, over Q.

    Returns None when the minimal order exceeds floor(len/2); with fewer than
    order-many spare terms the fit carries no evidence.

    The core runs fraction-free: the connection polynomial is only defined up
    to a scalar, so updates use C <- b*C - d*x^m*B over the integers with
    content stripping, and the monic form is produced once at the end.
    """
    s = _clear_denominators(seq)
    n_terms = len(s)
    if n_terms == 0:
        raise ValueError("berlekamp_massey needs at least one term")
    c = [1]  # connection polynomial, any nonzero scalar multiple
    b = [1]
    l = 0
    m = 1
    last_disc = 1
    for n in range(n_terms):
        disc = 0
        for i in range(min(l, len(c) - 1) + 1):
            if c[i]:
                disc += c[i] * s[n - i]
        if disc == 0:
            m += 1
            continue
        new_c = [last_disc * x for x in c]
        if m + len(b) > len(new_c):
            new_c.extend([0] * (m + len(b) - len(new_c)))
        for i, x in enumerate(b):
            new_c[m + i] -= disc * x
        g = 0
        for x in new_c:
            g = math.gcd(g, x)
            if g == 1:
                break
        if g > 1:
            new_c = [x // g for x in new_c]
        if 2 * l <= n:
            # the saved discrepancy must match the saved (unscaled) polynomial
            l, b, last_disc, m = n + 1 - l, c, disc, 1
        else:
            m += 1
        c = new_c
    if l == 0:
        # all-zero window: s[n+1] = 0 is the least relation we can state
        if n_terms >= 2:
            return Recurrence((Fraction(0),), valid_from=1)
        return None
    if l > n_terms // 2:
        return None
    if len(c) < l + 1:
        c = c + [0] * (l + 1 - len(c))
    # monic recurrence: s[n+L] + (c1/c0) s[n+L-1] + ... + (cL/c0) s[n] = 0
    c0 = c[0]
    coeffs = tuple(Fraction(c[l - i], c0) for i in range(l))
    return Recurrence(coeffs, valid_from=1)


def verify_recurrence(seq: Sequence[int | Fraction], rec: Recurrence) -> int | None:
    """Least 1-based offset from which the recurrence holds through the end.

    Returns None (failure) when the verified suffix would be shorter than
    twice the order; shorter agreement is considered no evidence.  With both
    sides' denominators cleared (L for the relation) each check is
    L*s[n+m] + sum_i c_i*s[n+i] == 0 in integers, scanned backward from the
    end up to the first failure, the only one the result depends on.
    """
    m = rec.order
    n_terms = len(seq)
    if n_terms < m + 1:
        raise ValueError("sequence too short to check this recurrence")
    s = _clear_denominators(seq)
    lcm = math.lcm(*(c.denominator for c in rec.coefficients))
    cs = [c.numerator * (lcm // c.denominator) for c in rec.coefficients]
    n = n_terms - m - 1  # relation at 1-based index n+1
    while n >= 0 and lcm * s[n + m] + sum(map(operator.mul, cs, s[n : n + m])) == 0:
        n -= 1
    valid_from = n + 2
    if n_terms - valid_from + 1 < 2 * m:
        return None
    return valid_from


def find_recurrence(
    seq: Sequence[int], max_order: int, guard: int
) -> Recurrence | None:
    """Bounded recurrence search with an exact verification tail.

    One Berlekamp-Massey fit runs on the last 2*max_order terms before the
    ``guard`` tail, seq[fs : fs + 2m] with m = max_order and
    fs = len(seq) - guard - 2m.  A fit of order L whose polynomial carries a
    factor x^j (its j lowest coefficients vanish) is stripped to p = fit/x^j,
    keeping order >= 1; p holds on the window from 1-based index fs + j + 1.
    p is then verified exactly on the whole sequence and accepted only when
    it holds from fs + j + 1 (or earlier) through the end, so the guard tail
    confirms it; the reported ``valid_from`` is where it starts to hold.
    None means the bounded search found nothing, never that no recurrence
    exists.

    One fit is enough (Massey, "Shift-register synthesis and BCH decoding",
    1969): if a relation of length L generates a run of N terms but not the
    next one, every relation generating the longer run has length at least
    N + 1 - L.  Let q, of order r <= m, hold from some index <= fs + 1
    through the end.  It annihilates the fit window, so the fit has order
    L <= r, and if the fit failed first at a later term N' >= 2m, q would
    need length r >= 2m + 1 - L > m.  Hence the fit holds through the end,
    and the search returns q itself or a relation of lower order that holds
    through the end.  Without the fs + j + 1 bound a stripped relation would
    count as found on a bare 2*order suffix, which proves nothing.
    """
    if max_order < 1 or guard < 1:
        raise ValueError("max_order and guard must be positive")
    n_terms = len(seq)
    fit_len = 2 * max_order
    if n_terms < fit_len + guard:
        raise WindowTooShort(
            f"need at least {fit_len + guard} terms "
            f"(2*max_order + guard), got {n_terms}"
        )
    fs = n_terms - guard - fit_len
    fit = berlekamp_massey(seq[fs : fs + fit_len])
    if fit is None or fit.order > max_order:
        return None
    cs = fit.coefficients
    j = 0
    while j < len(cs) - 1 and cs[j] == 0:
        j += 1
    valid_from = verify_recurrence(seq, Recurrence(cs[j:]))
    if valid_from is None or valid_from > fs + j + 1:
        return None
    return Recurrence(cs[j:], valid_from)


def eventually_periodic(
    symbols: Sequence, window: int
) -> tuple[int, int] | None:
    """Minimal (preperiod, period) of an eventually periodic symbol sequence.

    The periodic tail must cover at least the final ``window`` symbols and
    contain two full periods.  Period is minimised first, then preperiod.

    One backward scan per period.  For a period p, preperiod q is valid when
    s[i] == s[i + p] for every i in [q, n - p); if q is valid so is every
    larger q, so the valid preperiods form an up-set whose least element is
    one past the last mismatch (0 when there is none).  Scanning i down from
    n - p - 1 and stopping at the first mismatch finds it; p is accepted when
    that least preperiod is at most min(n - window, n - 2p), the bounds that
    make the tail cover the window and hold two full periods.  Each period
    costs one comparison more than the length of its matching tail.
    """
    n = len(symbols)
    if not 0 < window <= n:
        raise ValueError("window must satisfy 0 < window <= len(symbols)")
    pre_cap = n - window
    for period in range(1, n // 2 + 1):
        i = n - period - 1
        while i >= 0 and symbols[i] == symbols[i + period]:
            i -= 1
        if i + 1 <= min(pre_cap, n - 2 * period):
            return i + 1, period
    return None


__all__ = [
    "Recurrence",
    "berlekamp_massey",
    "verify_recurrence",
    "find_recurrence",
    "eventually_periodic",
    "WindowTooShort",
]
