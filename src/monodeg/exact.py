"""Exact arithmetic kernel: big-integer matrices and integer polynomials.

Everything here is exact; no machine floats appear.  Matrix determinants use
fraction-free Bareiss elimination.  Conversions between the coefficients of
a monic polynomial and the power sums of its roots use Newton's identities
(the interior divisions are exact by construction).  Characteristic
polynomials come from Le Verrier's traces tr(A^m) = s_m through those
identities, and unimodular inverses from Cayley-Hamilton on the same powers
of A.

Values are immutable and operations are pure functions, so the module is safe
for concurrent use.  Its only shared state is the ``functools.cache`` memo
of ``orders_with_phi_at_most``.  Like the one-entry caches that hold the
last spectral summary (:mod:`monodeg.spectra`) and the last power walk
(:mod:`monodeg.degree`), it maps its arguments to an immutable value that is
a pure function of them, so a fill repeated by a concurrent caller stores an
equal value.  Matrix powers are walked in :mod:`monodeg.degree`,
one call per power of the multiplier ``_multiplier`` compiles for the
matrix; ``_product_rows`` is the general product, for Le Verrier's few
powers and as the tests' reference.

Conventions
-----------
* ``IntPoly`` stores coefficients in ascending order with no trailing zeros;
  the zero polynomial is the empty tuple.
* ``poly_gcd`` returns the primitive gcd with positive leading coefficient.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DimensionMismatch, NotUnimodular


# ---------------------------------------------------------------------------
# Integer polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntPoly:
    """Univariate integer polynomial, coefficients ascending in degree."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        cs = tuple(map(operator.index, self.coeffs))
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    # -- ring operations ----------------------------------------------

    def __add__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    # -- calculus and evaluation ----------------------------------------

    def derivative(self) -> IntPoly:
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def sign_at(self, num: int, den: int) -> int:
        """Sign of p(num/den) for den > 0, computed in integers."""
        if not self.coeffs:
            return 0
        acc = self.coeffs[-1]
        dp = 1
        for i in range(len(self.coeffs) - 2, -1, -1):
            dp *= den
            acc = acc * num + self.coeffs[i] * dp
        return (acc > 0) - (acc < 0)

    # -- integer-domain helpers -----------------------------------------

    def content(self) -> int:
        """Gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def primitive(self) -> IntPoly:
        """Divide out the (positive) content; the sign pattern is kept."""
        g = self.content()
        if g <= 1:
            return self
        return IntPoly(tuple(c // g for c in self.coeffs))

    def primitive_positive(self) -> IntPoly:
        """Primitive part with positive leading coefficient."""
        p = self.primitive()
        return -p if p.lc < 0 else p

    def exact_div(self, other: IntPoly) -> IntPoly:
        """Exact polynomial division; raises ArithmeticError when not exact."""
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return IntPoly()
        rem = list(self.coeffs)
        db, lb = other.degree, other.lc
        dq = len(rem) - 1 - db
        if dq < 0:
            raise ArithmeticError("exact_div: degree of divisor too large")
        q = [0] * (dq + 1)
        for i in range(dq, -1, -1):
            lead = rem[i + db]
            if lead % lb != 0:
                raise ArithmeticError("exact_div: leading coefficient not divisible")
            c = lead // lb
            q[i] = c
            if c:
                for j, bc in enumerate(other.coeffs):
                    rem[i + j] -= c * bc
        if any(rem):
            raise ArithmeticError("exact_div: nonzero remainder")
        return IntPoly(q)

    def __str__(self) -> str:
        return self.format()

    def format(self, var: str = "x") -> str:
        return _format_poly(self.coeffs, var)


def _format_poly(coeffs: Sequence, var: str = "x") -> str:
    """Text of sum c_i*var^i, highest degree first, for integer or Fraction
    coefficients given in ascending order ("0" when all vanish)."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) or "0"


def _pseudo_rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Strict pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b.

    Integer coefficient lists run ascending with no trailing zeros.  The full
    power of lc(b) is applied even when intermediate leading coefficients
    vanish: the sign correction in ``spectra._sturm_chain`` depends on that
    exact exponent.  Needs deg a >= deg b.
    """
    da, db = len(a) - 1, len(b) - 1
    if db < 0:
        raise ZeroDivisionError("pseudo-remainder by zero polynomial")
    if da < db:
        raise ValueError("pseudo-remainder needs deg a >= deg b")
    lb = b[-1]
    rem = list(a)
    for i in range(da - db, -1, -1):
        lead = rem[i + db]
        rem = [lb * c for c in rem]
        if lead:
            for j, bc in enumerate(b):
                rem[i + j] -= lead * bc
        rem = rem[: i + db]
    return rem


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd over Q, positive leading coefficient.

    gcd with the zero polynomial is the other argument made primitive; two
    zero polynomials give zero.
    """
    if f.is_zero:
        return g.primitive_positive()
    if g.is_zero:
        return f.primitive_positive()
    a, b = f.primitive(), g.primitive()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        r = IntPoly(_pseudo_rem(a.coeffs, b.coeffs)).primitive()
        a, b = b, r
    if a.degree == 0:
        return IntPoly((1,))
    return a.primitive_positive()


# ---------------------------------------------------------------------------
# Power sums (Newton's identities)
# ---------------------------------------------------------------------------

def _power_sums(p: IntPoly, n: int) -> list[int]:
    """Power sums s_1..s_n of the roots of the monic integer polynomial p.

    Newton's identities: with p = x^d + c_(d-1) x^(d-1) + ... + c_0 and
    c_j = 0 for j < 0,  s_m = -m*c_(d-m) - sum_(i=1..min(m-1, d)) c_(d-i) s_(m-i).
    """
    d, c = p.degree, p.coeffs
    s = [d]  # s_0
    for m in range(1, n + 1):
        acc = -m * c[d - m] if m <= d else 0
        for i in range(1, min(m - 1, d) + 1):
            acc -= c[d - i] * s[m - i]
        s.append(acc)
    return s[1:]


def _from_power_sums(sums: Sequence[int]) -> IntPoly:
    """The monic integer polynomial of degree n = len(sums) whose roots have
    the power sums s_1..s_n given.

    Newton's identities solved for the coefficients:
    m*c_(n-m) = -sum_(i=1..m) c_(n-m+i) s_i with c_n = 1.  Every division by
    m is exact when the sums are those of a monic integer polynomial;
    otherwise ArithmeticError is raised.
    """
    n = len(sums)
    c = [0] * n + [1]
    for m in range(1, n + 1):
        q, r = divmod(-sum(map(operator.mul, c[n - m + 1:], sums[:m])), m)
        if r:
            raise ArithmeticError("power sums of no monic integer polynomial")
        c[n - m] = q
    return IntPoly(c)


def _root_powers(p: IntPoly, m: int) -> IntPoly:
    """The monic integer polynomial whose roots are the m-th powers of the
    roots of the monic p, multiplicities kept: its power sums are those of p
    at stride m, s_m, s_2m, ..., s_dm."""
    return _from_power_sums(_power_sums(p, p.degree * m)[m - 1 :: m])


# ---------------------------------------------------------------------------
# Totients
# ---------------------------------------------------------------------------

@functools.cache
def orders_with_phi_at_most(bound: int) -> tuple[int, ...]:
    """All m with phi(m) <= bound (Euler's totient), ascending; computed once
    per bound.

    phi(m) >= sqrt(m/2), so N = 2*bound^2 caps every such m, and the
    primorial bound lowers the cap.  Let r be the most primes whose product
    is at most N, and c(N) = prod p/(p - 1) over the first r primes.  An
    m <= N has at most r distinct prime factors, and p/(p - 1) falls as p
    grows, so m/phi(m) = prod_(p | m) p/(p - 1) <= c(N): phi(m) <= bound
    gives m <= bound*c(N).  N <- floor(bound*c(N)) is repeated while N
    falls.  One sieve then gives every phi(m) up to N: phi(m) = m * prod
    (1 - 1/p) over the primes p dividing m, and a prime p is an index the
    sieve has not reduced by the time it is reached.
    """
    if bound < 1:
        return ()
    cap = 2 * bound * bound
    while True:
        primorial, totient, p = 1, 1, 2
        while primorial * p <= cap:
            primorial, totient = primorial * p, totient * (p - 1)
            p = next(q for q in itertools.count(p + 1) if all(q % f for f in range(2, q)))
        if bound * primorial // totient >= cap:
            break
        cap = bound * primorial // totient
    phi = list(range(cap + 1))
    for p in range(2, cap + 1):
        if phi[p] == p:
            for m in range(p, cap + 1, p):
                phi[m] -= phi[m] // p
    return tuple(m for m in range(1, cap + 1) if phi[m] <= bound)


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntMatrix:
    """Square matrix of arbitrary-precision integers."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(map(operator.index, row)) for row in self.rows)
        if not rows:
            raise ValueError("matrix must have at least one row")
        k = len(rows)
        for row in rows:
            if len(row) != k:
                raise DimensionMismatch("matrix must be square")
        object.__setattr__(self, "rows", rows)

    @property
    def k(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, k: int) -> IntMatrix:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k)))

    @property
    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.rows)


Rows = tuple[tuple[int, ...], ...]


def _product_rows(rows: Rows, cols: Rows) -> Rows:
    """Rows of the product of a matrix given by ``rows`` and one given by
    its ``cols``."""
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in rows)


def _multiplier(rows: Rows) -> Callable[[Rows], Rows]:
    """The function ``step(X)`` that maps the rows of a k x k matrix X to
    the rows of X*A, for the A with these ``rows``.

    Its body is straight-line code compiled once for A: entry (i, l) is the
    sum over j of x_ij * a_jl, with the terms of a_jl = 0 dropped and
    a_jl = +-1 written as a plain addition or subtraction.  Every other
    coefficient is a default argument of ``step``.  No matrix entry is
    written into the source text, which holds generated names only and so
    depends on k and on which entries are 0, +-1 or other: no data reaches
    ``exec``, and an entry too long for ``str`` (Python's int-to-str digit
    limit) compiles like any other.
    """
    k = len(rows)
    xs = [[f"x{i}_{j}" for j in range(k)] for i in range(k)]
    namespace = {f"a{j}_{l}": a for j, row in enumerate(rows) for l, a in enumerate(row)
                 if a not in (0, 1, -1)}

    def entry(x: list[str], l: int) -> str:
        terms = []
        for j, row in enumerate(rows):
            if row[l] == 1:
                terms.append(f"+ {x[j]}")
            elif row[l] == -1:
                terms.append(f"- {x[j]}")
            elif row[l]:
                terms.append(f"+ {x[j]} * a{j}_{l}")
        return " ".join(terms).removeprefix("+ ") or "0"

    def tuple_of(items) -> str:
        return "(" + ", ".join(items) + ",)"

    source = (
        f"def step(X, {', '.join(f'{name}={name}' for name in namespace)}):\n"
        f"    {', '.join(tuple_of(x) for x in xs)}, = X\n"
        f"    return {tuple_of(tuple_of(entry(x, l) for l in range(k)) for x in xs)}\n"
    )
    exec(compile(source, "<multiplier>", "exec"), namespace)
    return namespace["step"]


def det(a: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination (exact divisions only)."""
    n = a.k
    m = [list(row) for row in a.rows]
    sign = 1
    prev = 1
    for r in range(n - 1):
        if m[r][r] == 0:
            for s in range(r + 1, n):
                if m[s][r] != 0:
                    m[r], m[s] = m[s], m[r]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[r][r]
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][r] * m[r][j]) // prev
            m[i][r] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _le_verrier(a: IntMatrix) -> tuple[IntPoly, list[Rows]]:
    """chi_A = det(tI - A) and the powers A^0 .. A^(k-1).

    Le Verrier: the traces tr(A^m), m = 1..k, are the power sums of the
    eigenvalues, so ``_from_power_sums`` turns them into chi_A.  Of A^k only
    the diagonal is formed, row i of A^(k-1) against column i of A.
    """
    k = a.k
    cols = tuple(zip(*a.rows))
    powers = [IntMatrix.identity(k).rows, a.rows][:k]
    while len(powers) < k:
        powers.append(_product_rows(powers[-1], cols))
    traces = [sum(p[i][i] for i in range(k)) for p in powers[1:]]
    traces.append(sum(sum(map(operator.mul, r, c)) for r, c in zip(powers[-1], cols)))
    return _from_power_sums(traces), powers


def char_poly(a: IntMatrix) -> IntPoly:
    """Characteristic polynomial det(tI - A), monic of degree k."""
    return _le_verrier(a)[0]


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a matrix with determinant +-1.

    Cayley-Hamilton, sum_(j=0..k) c_j*A^j = 0, gives
    A^-1 = -c_0 * sum_(j=1..k) c_j*A^(j-1), since c_0 = chi_A(0) = (-1)^k det A
    is then +-1.
    """
    chi, powers = _le_verrier(a)
    c0, c = chi.constant, chi.coeffs[1:]
    if c0 not in (1, -1):
        raise NotUnimodular(f"matrix has determinant {(-1) ** a.k * c0}, expected +-1")
    return IntMatrix(tuple(
        # entries: (A^0)[r][s], ..., (A^(k-1))[r][s] for one row r, column s
        tuple(-c0 * sum(map(operator.mul, c, entries)) for entries in zip(*row_r))
        for row_r in zip(*powers)
    ))
