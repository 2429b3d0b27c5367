"""Theorem-backed classification of degree-sequence behaviour.

The engine proves one of three outcomes from certified spectral facts:

* RECURRENCE_PROVEN when every eigenvalue of modulus at least 1 is real or
  belongs to a conjugate pair whose ratio is a root of unity.  The
  recurrence is chi_(A^tau)(x^tau) for the least stride tau with
  (lambda/|lambda|)^tau = 1 on all those eigenvalues (criterion
  THM_1_1_PART1); THM_2_7_CHARPOLY is its stride-1 case, when they are all
  real and positive and the characteristic polynomial itself is the
  recurrence;
* NO_RECURRENCE_PROVEN when the strictly largest modulus is attained by
  exactly one simple non-real conjugate pair whose ratio is not a root of
  unity (criterion PROP_3_1);
* UNKNOWN whenever neither hypothesis literally applies or a certification
  came back unresolved.  The engine never extrapolates.

The unimodular dual sequence is the inverse map's: the same classification
runs on the reciprocal summary read off the forward one (same box indices)
and is labelled DUALITY_THM_1_2 (3x3), DUALITY_THM_1_3 (4x4) or DUALITY_GENERIC.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Any

from . import cells as cells_mod
from .cells import CellTrace, cell_trace
from .degree import DegreeSequence
from .errors import NotUnimodular, UnresolvedCertification, WindowTooShort
from .exact import IntMatrix, IntPoly, _root_powers, char_poly
from .recur import Recurrence, find_recurrence, verify_recurrence
from .spectra import (
    EQ,
    GT,
    NOT_ROOT_OF_UNITY,
    ROOT_OF_UNITY,
    SpectralSummary,
    reciprocal_summary,
    spectral_summary,
)

RECURRENCE_PROVEN = "RECURRENCE_PROVEN"
NO_RECURRENCE_PROVEN = "NO_RECURRENCE_PROVEN"
UNKNOWN = "UNKNOWN"

THM_1_1_PART1 = "THM_1_1_PART1"
THM_2_7_CHARPOLY = "THM_2_7_CHARPOLY"
PROP_3_1 = "PROP_3_1"
DUALITY_THM_1_2 = "DUALITY_THM_1_2"
DUALITY_THM_1_3 = "DUALITY_THM_1_3"
DUALITY_GENERIC = "DUALITY_GENERIC"

CONSISTENT = "CONSISTENT"
INCONSISTENT = "INCONSISTENT"


@dataclass(frozen=True)
class Verdict:
    """Classification with the criterion code and the spectral facts used.

    ``summary`` is the spectral summary the classification ran on (the
    reciprocal one on dual verdicts; None when the forward analysis stayed
    unresolved); it takes no part in comparison or repr.
    """

    classification: str
    basis: str | None
    details: dict[str, Any] = field(default_factory=dict)
    recurrence: Recurrence | None = None
    summary: SpectralSummary | None = field(default=None, compare=False, repr=False)

    @property
    def is_unknown(self) -> bool:
        return self.classification == UNKNOWN


def _modulus_ge_one_indices(summary: SpectralSummary) -> list[int]:
    out: list[int] = []
    for cls in summary.modulus_classes:
        if cls.versus_one in (GT, EQ):
            out.extend(cls.indices)
    return sorted(out)


def _power_recurrence(chi: IntPoly, tau: int) -> Recurrence:
    """Recurrence carried by char_poly(A^tau) applied with stride tau.

    Every linear functional of (A^tau)^n obeys the characteristic polynomial
    of A^tau, so chi_{A^tau}(x^tau) eventually annihilates the degree
    sequence (from the index where each residue class settles into one cell;
    the offset is recovered separately by exact verification).  chi = chi_A,
    and chi_{A^tau} has the roots lambda^tau; at tau = 1 the recurrence is
    chi_A itself.
    """
    chi_tau = _root_powers(chi, tau)
    stretched = [0] * (chi_tau.degree * tau + 1)
    stretched[::tau] = chi_tau.coeffs
    return Recurrence.from_poly(IntPoly(stretched))


def classify_d1(a: IntMatrix, precision_bits: int = 256) -> Verdict:
    """Provable classification of the forward degree sequence (RankDeficient
    from spectral_summary when A is singular)."""
    try:
        summary = spectral_summary(a, precision_bits)
    except UnresolvedCertification as exc:
        return Verdict(UNKNOWN, None, {"unresolved": str(exc)})
    return replace(_classify_from_summary(summary), summary=summary)


def _classify_from_summary(summary: SpectralSummary) -> Verdict:
    # real roots are signed by their box center, which needs |center| > radius
    if any(b.is_real and abs(b.center[0]) <= b.radius for b in summary.roots):
        return Verdict(UNKNOWN, None, {"unresolved": "sign of a real eigenvalue was not pinned"})
    ge1 = _modulus_ge_one_indices(summary)
    detail_base: dict[str, Any] = {
        "modulus_ge_one_indices": tuple(ge1),
        "dominant_pair": summary.dominant_pair,
        "ge_one_ratio_flags": tuple(
            (idx, summary.ratio_flags[idx].kind, summary.ratio_flags[idx].order)
            for idx in ge1
        ),
    }
    unresolved_flags = tuple(
        i
        for i, f in enumerate(summary.ratio_flags)
        if f.kind not in (ROOT_OF_UNITY, NOT_ROOT_OF_UNITY)
    )
    if unresolved_flags:
        detail_base["unresolved_flags"] = unresolved_flags

    # Hypothesis for a proven recurrence: every eigenvalue of modulus >= 1 is
    # real or sits in a pair whose ratio is a root of unity.  The stride tau
    # is the lcm of the exponents with (lambda/|lambda|)^tau = 1: 1 for a
    # positive root, 2 for a negative one, 2m for a pair whose ratio has
    # order m (the square of lambda/|lambda| is the inverse ratio).
    h1_unresolved = False
    h1_holds = True
    tau = 1
    for idx in ge1:
        box, flag = summary.roots[idx], summary.ratio_flags[idx]
        if box.is_real:
            tau = math.lcm(tau, 1 if box.center[0] > 0 else 2)
        elif flag.kind == ROOT_OF_UNITY:
            tau = math.lcm(tau, 2 * flag.order)
        else:
            h1_holds = False
            h1_unresolved |= flag.kind != NOT_ROOT_OF_UNITY
    if h1_holds:
        rec = _power_recurrence(summary.char_poly, tau)
        basis, stride = (THM_2_7_CHARPOLY, {}) if tau == 1 else (THM_1_1_PART1, {"stride": tau})
        return Verdict(
            RECURRENCE_PROVEN,
            basis,
            {**detail_base, **stride, "recurrence_order": rec.order},
            recurrence=rec,
        )

    # Hypothesis against any recurrence: the top modulus class is exactly one
    # simple non-real conjugate pair with non-unity ratio.  The moduli multiply
    # to |det A| >= 1, so that pair is in ge1 and the loop above flagged it.
    if summary.dominant_pair is not None:
        i, j = summary.dominant_pair
        both_simple = (
            summary.roots[i].multiplicity == 1 and summary.roots[j].multiplicity == 1
        )
        if both_simple and summary.ratio_flags[i].kind == NOT_ROOT_OF_UNITY:
            return Verdict(
                NO_RECURRENCE_PROVEN,
                PROP_3_1,
                {**detail_base, "top_class_versus_one": summary.modulus_classes[0].versus_one},
            )

    details = dict(detail_base)
    if h1_unresolved:
        details["unresolved"] = "a needed ratio certification was unresolved"
    else:
        details["reason"] = "no implemented criterion applies to this spectrum"
    return Verdict(UNKNOWN, None, details)


def classify_dual(a: IntMatrix, precision_bits: int = 256) -> Verdict:
    """Classification of the codimension k-1 (inverse map) degree sequence.

    Requires a unimodular matrix (NotUnimodular otherwise, RankDeficient
    from the forward analysis when A is singular); the result wraps the
    classification of the inverse with a dimension-specific duality
    criterion code.  It is read off the forward analysis (``classify_d1``),
    so right after ``classify_d1(a)`` with the same precision it reads the
    held spectral summary and runs no second analysis.
    """
    chi, dual = _chi_and_dual(a, classify_d1(a, precision_bits))
    if dual is None:
        raise NotUnimodular(f"matrix has determinant {(-1) ** a.k * chi.constant}, expected +-1")
    return dual


def _chi_and_dual(a: IntMatrix, forward: Verdict) -> tuple[IntPoly, Verdict | None]:
    """chi_A and, when A is unimodular (chi_A(0) = (-1)^k det A is +-1), the
    dual verdict from the forward one.  chi_A is read off the forward
    summary; only an unresolved forward analysis computes it, and it leaves
    the dual UNKNOWN with the same details."""
    chi = forward.summary.char_poly if forward.summary is not None else char_poly(a)
    if chi.constant not in (1, -1):
        return chi, None
    if forward.summary is None:
        return chi, Verdict(UNKNOWN, None, dict(forward.details))
    summary = reciprocal_summary(forward.summary)
    inner = replace(_classify_from_summary(summary), summary=summary)
    if inner.is_unknown:
        return chi, inner
    wrapper = {3: DUALITY_THM_1_2, 4: DUALITY_THM_1_3}.get(chi.degree, DUALITY_GENERIC)
    details = {**inner.details, "inner_basis": inner.basis}
    return chi, replace(inner, basis=wrapper, details=details)


@dataclass(frozen=True)
class CrossCheckReport:
    verdict: Verdict
    sequence: DegreeSequence
    recurrence: Recurrence | None
    trace: CellTrace
    status: str  # CONSISTENT | INCONSISTENT
    conflicts: tuple[str, ...]
    bounds: dict[str, int]


def cross_check(
    a: IntMatrix,
    window: int,
    max_order: int,
    precision_bits: int = 256,
    guard: int | None = None,
) -> CrossCheckReport:
    """Empirical validation of the theorem engine on one matrix.

    One pass over A^1 .. A^window yields both the degree sequence and the
    cell trace.  The bounded recurrence search (one Berlekamp-Massey fit of
    order at most ``max_order``, see :func:`find_recurrence`) is verified
    exactly on a tail of ``guard`` further terms; ``guard`` is honoured as
    given (None means 4*max_order) and WindowTooShort is raised when
    window < 2*max_order + guard.

    A proven recurrence must actually verify on the computed sequence: the
    characteristic polynomial itself for THM_2_7_CHARPOLY, otherwise the
    search's find or the attached recurrence.  A proven non-recurrence must
    leave the search empty-handed and the cell trace unstabilized.  Every
    piece of evidence against the verdict is retried once on a doubled
    window before it is reported as a conflict, since transients can outlast
    the window and spurious relations can hold for a while: a failed
    verification must still fail, a found candidate must still hold from its
    ``valid_from`` through 2*window, a stabilized trace must stay stabilized.
    A candidate the doubled window refutes is not reported as the report's
    ``recurrence``.  The checks share one lazily built doubled-window pass
    (degrees and cells).
    """
    if guard is None:
        guard = 4 * max_order
    if window < 2 * max_order + guard:
        raise WindowTooShort(
            f"window {window} cannot accommodate max_order {max_order} "
            f"with guard {guard}"
        )
    verdict = classify_d1(a, precision_bits)
    trace = cell_trace(a, window)
    seq = DegreeSequence(trace.degrees, a)
    found = find_recurrence(seq.terms, max_order, guard)
    bounds = {"window": window, "max_order": max_order, "guard": guard}

    doubled = functools.cache(lambda: cell_trace(a, 2 * window))

    conflicts: list[str] = []
    if verdict.classification == RECURRENCE_PROVEN:
        charpoly_basis = verdict.basis == THM_2_7_CHARPOLY
        if found is None or charpoly_basis:
            rec = verdict.recurrence
            if not (_holds(seq.terms, rec) or _holds(doubled().degrees, rec)):
                conflicts.append(
                    "characteristic polynomial recurrence failed exact verification"
                    if charpoly_basis
                    else "proven recurrence but no candidate verified within bounds"
                )
    elif verdict.classification == NO_RECURRENCE_PROVEN:
        if found is not None:
            offset = verify_recurrence(doubled().degrees, found)
            if offset is not None and offset <= found.valid_from:
                conflicts.append(
                    f"proven non-recurrence but order-{found.order} candidate "
                    "verified (persisted on a doubled window)"
                )
            else:
                found = None  # refuted by the doubled window: not reported
        if (trace.status.kind == cells_mod.STABILIZED
                and doubled().status.kind == cells_mod.STABILIZED):
            conflicts.append(
                "proven non-recurrence but the cell trace stabilized "
                "(persisted on a doubled window)"
            )
    status = CONSISTENT if not conflicts else INCONSISTENT
    return CrossCheckReport(
        verdict=verdict,
        sequence=seq,
        recurrence=found,
        trace=trace,
        status=status,
        conflicts=tuple(conflicts),
        bounds=bounds,
    )


def _holds(terms: tuple[int, ...], rec: Recurrence) -> bool:
    """The recurrence verifies exactly on terms."""
    return rec.order + 2 <= len(terms) and verify_recurrence(terms, rec) is not None


__all__ = [
    "Verdict",
    "CrossCheckReport",
    "classify_d1",
    "classify_dual",
    "cross_check",
    "RECURRENCE_PROVEN",
    "NO_RECURRENCE_PROVEN",
    "UNKNOWN",
    "THM_1_1_PART1",
    "THM_2_7_CHARPOLY",
    "PROP_3_1",
    "DUALITY_THM_1_2",
    "DUALITY_THM_1_3",
    "DUALITY_GENERIC",
    "CONSISTENT",
    "INCONSISTENT",
]
