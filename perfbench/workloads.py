"""The benchmark workloads: what one op calls, and how its answer is checked.

Importing this module imports monodeg.  Ops look functions up on the
monodeg modules at call time (``verdict.classify_d1``), so the tracer's
wrappers, when installed, see every call.

Checks run outside the timed region and return None for a correct answer
or a short description of what was wrong.
"""

from __future__ import annotations

import importlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from pathlib import Path
from typing import Any, Callable

from monodeg.exact import IntMatrix

# The package re-exports a function named ``degree``, which shadows the
# submodule as a package attribute, so the modules are fetched by name.
cells, cli, degree, exact, verdict = (
    importlib.import_module(f"monodeg.{m}") for m in ("cells", "cli", "degree", "exact", "verdict")
)

import oracle
from corpus import Case, Stratum, bareiss_det, pool, pool_digest

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Not in any corpus (entries outside [-3, 3]); eigenvalues are the non-real
# cube roots of unity, so root isolation runs and imports mpmath.
WARMUP_ROWS = ((4, -7), (3, -5))

CODES = {
    verdict.RECURRENCE_PROVEN: "R",
    verdict.NO_RECURRENCE_PROVEN: "N",
    verdict.UNKNOWN: "U",
}
PROVEN_CODES = ("R", "N")
POWER_TERMS = 400


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pattern: list[Stratum]
    prepare: Callable[[tuple], Any]  # rows -> op input, built outside timing
    op: Callable[[Any], Any]
    check: Callable[[Case, Any, Any], str | None]  # case, reference codes, result
    forward_unknown: Callable[[Any], bool] | None  # None: no forward verdict


# -- verdict-mix ------------------------------------------------------------

def _verdict_op(a: IntMatrix):
    d1 = verdict.classify_d1(a)
    dual = verdict.classify_dual(a) if exact.det(a) in (1, -1) else None
    return d1, dual


def _matches_reference(label: str, got: str, ref: str) -> str | None:
    """A proven reference answer must be reproduced exactly; an UNKNOWN or
    failed reference accepts any answer (later work may prove more)."""
    if ref in PROVEN_CODES and got != ref:
        return f"{label} verdict {got}, reference {ref}"
    return None


def _recurrence_ok(label: str, rows, v) -> str | None:
    if v.classification == verdict.RECURRENCE_PROVEN:
        if not oracle.proven_tail_ok(rows, v.recurrence.coefficients):
            return f"{label} proven recurrence fails on the degree terms"
    return None


def _verdict_check(case: Case, ref: tuple[str, str], result) -> str | None:
    d1, dual = result
    unimodular = abs(bareiss_det(case.rows)) == 1
    if (dual is not None) != unimodular:
        return "dual verdict present for a non-unimodular matrix or missing"
    problems = [
        _matches_reference("d1", CODES[d1.classification], ref[0]),
        _recurrence_ok("d1", case.rows, d1),
    ]
    if dual is not None:
        problems += [
            _matches_reference("dual", CODES[dual.classification], ref[1]),
            _recurrence_ok("dual", oracle.inverse(case.rows), dual),
        ]
    return next((p for p in problems if p), None)


# -- power-stream -----------------------------------------------------------

def _power_op(a: IntMatrix):
    return degree.degree_sequence(a, POWER_TERMS), cells.cell_trace(a, POWER_TERMS)


def _power_check(case: Case, _ref, result) -> str | None:
    seq, trace = result
    if len(seq.terms) != POWER_TERMS or len(trace.representatives) != POWER_TERMS:
        return "wrong number of terms"
    rng = random.Random(repr(case.rows))
    sample = sorted({1, 2, 3, POWER_TERMS, *rng.sample(range(4, POWER_TERMS), 4)})
    for n in sample:
        p = oracle.power(case.rows, n)
        d = oracle.homogenized_degree(p)
        if seq.terms[n - 1] != d:
            return "degree of a sampled power differs from the homogenization oracle"
        if oracle.cell_value(p, trace.representatives[n - 1].choices) != d:
            return "cell representative does not attain the degree"
        if trace.tie_counts[n - 1] != oracle.tie_count(p):
            return "tie count differs from the oracle"
    reps = [r.choices for r in trace.representatives]
    st = trace.status
    if (st.kind, st.from_index, st.period) != oracle.classify_trace(reps):
        return "trace status differs from the re-classified representatives"
    return None


# -- analyze ----------------------------------------------------------------

def _analyze_prepare(rows) -> str:
    return json.dumps([list(r) for r in rows], separators=(",", ":"))


def _analyze_op(literal: str):
    out = StringIO()
    code = cli.run(["analyze", "-m", literal, "--format", "json"], out=out)
    return code, out.getvalue()


def _coeffs(payload) -> list[Fraction]:
    return [Fraction(c) for c in payload["coefficients"]]


def _analyze_check(case: Case, ref: tuple[str, str], result) -> str | None:
    code, text = result
    if code not in (cli.EXIT_OK, cli.EXIT_UNRESOLVED):
        return f"exit code {code}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return "output is not JSON"
    if report["consistency"]["status"] != verdict.CONSISTENT:
        return f"consistency {report['consistency']['status']}"
    window = report["search_bounds"]["window"]
    terms = oracle.degree_terms(case.rows, window)
    if report["sequence"] != terms[: len(report["sequence"])]:
        return "degree sequence differs from the homogenization oracle"
    found = report["recurrence"]
    if found is not None and oracle.relation_breaks(terms, _coeffs(found), found["valid_from"]):
        return "reported recurrence fails on the degree terms"
    verdicts = report["verdicts"]
    for label, v, r in (("d1", verdicts["d1"], ref[0]), ("dual", verdicts["dual"], ref[1])):
        if v is None:
            continue
        problem = _matches_reference(label, CODES[v["classification"]], r)
        if problem:
            return problem
        if v["classification"] == verdict.RECURRENCE_PROVEN:
            target = case.rows if label == "d1" else oracle.inverse(case.rows)
            if not oracle.proven_tail_ok(target, _coeffs(v["recurrence"])):
                return f"{label} proven recurrence fails on the degree terms"
    return None


def _analyze_unknown(result) -> bool:
    return json.loads(result[1])["verdicts"]["d1"]["classification"] == verdict.UNKNOWN


# -- registry ---------------------------------------------------------------

_FR = "full-rank"
_UNI = "unimodular"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verdict-mix",
            why=(
                "classify_d1 (+classify_dual if det=+-1) on full-rank k=2..6 and, every 5th op, "
                "unimodular k=3..5, entries in [-3,3]: spectra and polynomial exact, no power stream"
            ),
            # Blocks of five ops: four full-rank slots, whose k runs through
            # 2..6 in turn, then one unimodular slot, whose k runs through
            # 3..5.  A 40 s run draws fewer matrices from each stratum than
            # its pool holds.
            pattern=[
                s
                for block in range(15)
                for s in (
                    [Stratum(_FR, 2 + (4 * block + j) % 5, 400) for j in range(4)]
                    + [Stratum(_UNI, 3 + block % 3, 200)]
                )
            ],
            prepare=IntMatrix,
            op=_verdict_op,
            check=_verdict_check,
            forward_unknown=lambda r: r[0].classification == verdict.UNKNOWN,
        ),
        Workload(
            name="power-stream",
            why=(
                "degree_sequence + cell_trace to n=400 on fresh full-rank k=3..6, entries in [-3,3]: "
                "big-integer mat_mul, degree and cell layers; spectra unused"
            ),
            pattern=[Stratum(_FR, k) for k in (3, 4, 5, 6)],
            prepare=IntMatrix,
            op=_power_op,
            check=_power_check,
            forward_unknown=None,
        ),
        Workload(
            name="analyze",
            why=(
                "in-process `monodeg analyze --format json` at default bounds on full-rank k=2,3, "
                "entries in [-3,3]: every module, recurrence search and verification dominate"
            ),
            # k = 4 is left out: one non-recurrent 4x4 analyze takes about 9 s.
            pattern=[Stratum(_FR, 2, 300), Stratum(_FR, 3, 300)],
            prepare=_analyze_prepare,
            op=_analyze_op,
            check=_analyze_check,
            forward_unknown=_analyze_unknown,
        ),
    )
}


def reference_codes(workload: Workload) -> dict[Stratum, list[tuple[str, str]]]:
    """Recorded (d1, dual) codes per pooled stratum, after checking that the
    pool the benchmark generates is the pool the answers were recorded on."""
    strata = sorted({s for s in workload.pattern if s.pool_size is not None},
                    key=lambda s: s.name)
    if not strata:
        return {}
    recorded = json.loads(REFERENCE_PATH.read_text())["pools"][workload.name]
    out = {}
    for s in strata:
        entry = recorded[s.name]
        if entry["digest"] != pool_digest(pool(workload.name, s)):
            raise SystemExit(
                f"reference.json does not match the generated {workload.name} pool "
                f"for {s.name}; re-record it with perfbench/record_reference.py"
            )
        out[s] = list(zip(entry["d1"], entry["dual"]))
    return out
