"""Command-line surface: parse matrices, run analyses, render reports.

Commands: analyze, sequence, recurrence, verdict, cells.  Output is text by
default, JSON with --format json (canonical key order, lossless integers),
CSV for sequences.  Exit codes: 0 success, 2 input error, 3 internal
inconsistency from the cross check, 4 unresolved certification under
--strict.  All configuration is explicit flags; no environment variables.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from . import cells as cells_mod
from .cells import CellTrace, cell_trace
from .degree import degree_sequence
from .errors import (
    MatrixParseError,
    MonodegError,
    NotUnimodular,
    RankDeficient,
    UnresolvedCertification,
    WindowTooShort,
)
from .exact import IntMatrix, IntPoly, char_poly
from .recur import Recurrence, find_recurrence
from .spectra import SpectralSummary
from .verdict import Verdict, _dual_from_forward, classify_d1, cross_check

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3
EXIT_UNRESOLVED = 4

_DECIMAL_DIGITS = 12


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_matrix(text: str) -> IntMatrix:
    """Parse an inline bracket literal or a path to a JSON file with a
    "matrix" field.  Raises MatrixParseError with reason PARSE_ERROR,
    NOT_SQUARE or EMPTY."""
    stripped = text.strip()
    if not stripped:
        raise MatrixParseError("EMPTY", "empty matrix input")
    if stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise MatrixParseError("PARSE_ERROR", f"malformed matrix literal: {exc}")
    else:
        path = Path(stripped)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise MatrixParseError("PARSE_ERROR", f"cannot read {stripped}: {exc}")
        except json.JSONDecodeError as exc:
            raise MatrixParseError("PARSE_ERROR", f"malformed JSON in {stripped}: {exc}")
        if not isinstance(payload, dict) or "matrix" not in payload:
            raise MatrixParseError("PARSE_ERROR", 'expected a JSON object with a "matrix" field')
        data = payload["matrix"]
    return _validate_matrix(data)


def _validate_matrix(data: Any) -> IntMatrix:
    if not isinstance(data, list) or not data:
        raise MatrixParseError("EMPTY", "matrix must be a non-empty list of rows")
    k = len(data)
    rows = []
    for row in data:
        if not isinstance(row, list) or len(row) != k:
            raise MatrixParseError("NOT_SQUARE", "matrix rows must all have length k")
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                raise MatrixParseError("PARSE_ERROR", f"non-integer entry {x!r}")
        rows.append(tuple(row))
    return IntMatrix(tuple(rows))


# ---------------------------------------------------------------------------
# Exact-to-decimal rendering
# ---------------------------------------------------------------------------

def fraction_to_decimal(x: Fraction, digits: int = _DECIMAL_DIGITS) -> str:
    """Fixed-point decimal, rounded half away from zero; deterministic."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = x.numerator * 10**digits
    q, r = divmod(scaled, x.denominator)
    if 2 * r >= x.denominator:
        q += 1
    whole, frac = divmod(q, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def fraction_to_scientific(x: Fraction, digits: int = 3) -> str:
    """Scientific decimal for tiny positive magnitudes (box radii)."""
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    x = abs(x)
    exp = 0
    while x >= 10:
        x /= 10
        exp += 1
    while x < 1:
        x *= 10
        exp -= 1
    mant = fraction_to_decimal(x, digits)
    if mant.startswith("10."):  # rounding bumped the mantissa past 10
        mant = fraction_to_decimal(Fraction(1), digits)
        exp += 1
    return f"{sign}{mant}e{exp:+03d}"


# ---------------------------------------------------------------------------
# Report assembly (plain JSON-native structures)
# ---------------------------------------------------------------------------

def _recurrence_payload(rec: Recurrence | None) -> Any:
    if rec is None:
        return None
    return {
        "order": rec.order,
        "coefficients": [str(c) for c in rec.coefficients],
        "polynomial": rec.format(),
        "valid_from": rec.valid_from,
    }


def _verdict_payload(v: Verdict) -> dict[str, Any]:
    details = {}
    for key, val in sorted(v.details.items()):
        if isinstance(val, tuple):
            details[key] = list(val)
        else:
            details[key] = val
    return {
        "classification": v.classification,
        "basis": v.basis,
        "details": details,
        "recurrence": _recurrence_payload(v.recurrence),
    }


def _spectrum_payload(s: SpectralSummary) -> dict[str, Any]:
    roots = []
    for box in s.roots:
        roots.append(
            {
                "re": fraction_to_decimal(box.center[0]),
                "im": fraction_to_decimal(box.center[1]),
                "radius": fraction_to_scientific(box.radius),
                "multiplicity": box.multiplicity,
                "is_real": box.is_real,
                "conjugate_partner": box.conjugate_partner,
            }
        )
    classes = [
        {"indices": list(c.indices), "versus_one": c.versus_one}
        for c in s.modulus_classes
    ]
    flags = [{"kind": f.kind, "order": f.order} for f in s.ratio_flags]
    return {
        "char_poly": list(s.char_poly.coeffs),
        "decimal_digits": _DECIMAL_DIGITS,
        "roots": roots,
        "modulus_classes": classes,
        "dominant_pair": list(s.dominant_pair) if s.dominant_pair else None,
        "ratio_flags": flags,
        "unity_orders": list(s.unity_orders),
    }


def _trace_payload(trace: CellTrace) -> dict[str, Any]:
    st = trace.status
    return {
        "window": trace.window,
        "status": st.kind,
        "cell": list(st.cell.choices) if st.cell is not None else None,
        "from_index": st.from_index,
        "period": st.period,
        "switch_count": len(trace.switch_indices),
        "switch_indices": list(trace.switch_indices),
        "tie_counts": list(trace.tie_counts),
    }


def render_json(payload: Any) -> str:
    """Single canonical JSON rendering used everywhere (round-trip stable)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _bounds(a: IntMatrix, args) -> tuple[int, int]:
    max_order = args.max_order if args.max_order else 2 * a.k * a.k
    guard = args.guard if args.guard else 4 * max_order
    return max_order, guard


def _sequence_terms(a: IntMatrix, n: int) -> list[int]:
    return list(degree_sequence(a, n).terms)


def _unresolved_in(*verdicts: Verdict | None) -> bool:
    for v in verdicts:
        if v is None:
            continue
        if v.is_unknown and "unresolved" in v.details:
            return True
        if v.details.get("unresolved_flags"):
            return True
    return False


def _cmd_sequence(a: IntMatrix, args, out) -> int:
    terms = _sequence_terms(a, args.terms)
    if args.format == "json":
        out.write(render_json({"input": [list(r) for r in a.rows], "terms": args.terms, "sequence": terms}))
    elif args.format == "csv":
        out.write("n,degree\n")
        for i, d in enumerate(terms, start=1):
            out.write(f"{i},{d}\n")
    else:
        out.write(" ".join(str(t) for t in terms) + "\n")
    return EXIT_OK


def _cmd_recurrence(a: IntMatrix, args, out) -> int:
    max_order, guard = _bounds(a, args)
    need = 2 * max_order + guard
    terms = _sequence_terms(a, max(args.terms, need))
    rec = find_recurrence(terms, max_order, guard)
    payload = {
        "input": [list(r) for r in a.rows],
        "bounds": {"max_order": max_order, "guard": guard, "terms": len(terms)},
        "recurrence": _recurrence_payload(rec),
    }
    if args.format == "json":
        out.write(render_json(payload))
    elif rec is None:
        out.write(
            f"no recurrence found within bounds "
            f"(max_order={max_order}, guard={guard}, terms={len(terms)})\n"
        )
    else:
        out.write(
            f"recurrence: {rec.format()} (order {rec.order}, valid from {rec.valid_from})\n"
        )
    return EXIT_OK


def _char_poly(a: IntMatrix, d1: Verdict) -> IntPoly:
    """chi_A, read off the forward verdict's spectral summary when it has one."""
    return d1.summary.char_poly if d1.summary is not None else char_poly(a)


def _cmd_verdict(a: IntMatrix, args, out) -> int:
    bits = args.precision
    d1 = classify_d1(a, bits)
    dual = _dual_from_forward(d1) if _char_poly(a, d1).constant in (1, -1) else None
    payload: dict[str, Any] = {
        "input": [list(r) for r in a.rows],
        "d1": d1.classification,
        "basis": d1.basis,
        "d1_details": _verdict_payload(d1)["details"],
        "dual": dual.classification if dual else None,
        "dual_basis": dual.basis if dual else None,
    }
    if args.format == "json":
        out.write(render_json(payload))
    else:
        out.write(f"d1 verdict: {d1.classification}"
                  + (f" (basis {d1.basis})" if d1.basis else "") + "\n")
        if dual is not None:
            out.write(f"dual verdict: {dual.classification}"
                      + (f" (basis {dual.basis})" if dual.basis else "") + "\n")
        else:
            out.write("dual verdict: not unimodular, undefined\n")
    if args.strict and _unresolved_in(d1, dual):
        return EXIT_UNRESOLVED
    return EXIT_OK


def _cmd_cells(a: IntMatrix, args, out) -> int:
    trace = cell_trace(a, args.terms)
    payload = {"input": [list(r) for r in a.rows], "cells": _trace_payload(trace)}
    if args.format == "json":
        out.write(render_json(payload))
    else:
        st = trace.status
        line = f"cell trace over {trace.window} powers: {st.kind}"
        if st.kind == cells_mod.STABILIZED:
            line += f" from n={st.from_index} in cell {st.cell.choices}"
        elif st.kind == cells_mod.PERIODIC:
            line += f" with period {st.period} from n={st.from_index}"
        out.write(line + "\n")
        out.write(f"switches at: {list(trace.switch_indices)}\n")
    return EXIT_OK


def _cmd_analyze(a: IntMatrix, args, out) -> int:
    bits = args.precision
    max_order, guard = _bounds(a, args)
    seq_len = max(args.terms, 2 * max_order + guard)
    report = cross_check(a, seq_len, max_order, bits, guard)
    d1 = report.verdict
    chi = _char_poly(a, d1)
    d = (-1) ** a.k * chi.constant
    dual = _dual_from_forward(d1) if d in (1, -1) else None
    if d1.summary is None:
        spectrum = {"unresolved": f"unresolved: {d1.details['unresolved']}"}
    else:
        spectrum = _spectrum_payload(d1.summary)
    payload = {
        "input": [list(r) for r in a.rows],
        "det": d,
        "char_poly": list(chi.coeffs),
        "spectrum": spectrum,
        "sequence": list(report.sequence.terms[: args.terms]),
        "recurrence": _recurrence_payload(report.recurrence),
        "search_bounds": report.bounds,
        "verdicts": {
            "d1": _verdict_payload(d1),
            "dual": _verdict_payload(dual) if dual else None,
        },
        "cells": _trace_payload(report.trace),
        "consistency": {
            "status": report.status,
            "conflicts": list(report.conflicts),
        },
    }
    if args.format == "json":
        out.write(render_json(payload))
    else:
        _render_analysis_text(payload, out)
    if report.status != "CONSISTENT":
        return EXIT_INCONSISTENT
    if args.strict and _unresolved_in(d1, dual):
        return EXIT_UNRESOLVED
    return EXIT_OK


def _render_analysis_text(payload: dict[str, Any], out) -> None:
    out.write("matrix: " + json.dumps(payload["input"]) + "\n")
    out.write(f"det: {payload['det']}\n")
    out.write("char poly (ascending): " + json.dumps(payload["char_poly"]) + "\n")
    spectrum = payload["spectrum"]
    if "unresolved" in spectrum:
        out.write(f"spectrum: {spectrum['unresolved']}\n")
        _render_analysis_tail(payload, out)
        return
    out.write("roots:\n")
    for i, r in enumerate(spectrum["roots"]):
        tag = "real" if r["is_real"] else f"pair with #{r['conjugate_partner']}"
        out.write(
            f"  #{i}: {r['re']} + {r['im']}i  (radius {r['radius']}, "
            f"mult {r['multiplicity']}, {tag})\n"
        )
    out.write("modulus classes (descending): ")
    out.write(
        "; ".join(
            f"{cls['indices']} {cls['versus_one']} 1" for cls in spectrum["modulus_classes"]
        )
        + "\n"
    )
    out.write("ratio flags: ")
    out.write(
        "; ".join(
            f"#{i} {f['kind']}" + (f"({f['order']})" if f["order"] else "")
            for i, f in enumerate(spectrum["ratio_flags"])
        )
        + "\n"
    )
    _render_analysis_tail(payload, out)


def _render_analysis_tail(payload: dict[str, Any], out) -> None:
    out.write("sequence: " + " ".join(str(t) for t in payload["sequence"]) + "\n")
    rec = payload["recurrence"]
    if rec is None:
        b = payload["search_bounds"]
        out.write(
            f"recurrence: none found within bounds (max_order={b['max_order']}, "
            f"guard={b['guard']}, window={b['window']})\n"
        )
    else:
        out.write(
            f"recurrence: {rec['polynomial']} (order {rec['order']}, "
            f"valid from {rec['valid_from']})\n"
        )
    v = payload["verdicts"]["d1"]
    out.write(f"d1 verdict: {v['classification']}"
              + (f" (basis {v['basis']})" if v["basis"] else "") + "\n")
    dv = payload["verdicts"]["dual"]
    if dv is not None:
        out.write(f"dual verdict: {dv['classification']}"
                  + (f" (basis {dv['basis']})" if dv["basis"] else "") + "\n")
    c = payload["cells"]
    out.write(f"cells: {c['status']} (switches: {c['switch_count']})\n")
    out.write(f"consistency: {payload['consistency']['status']}\n")
    for conflict in payload["consistency"]["conflicts"]:
        out.write(f"  conflict: {conflict}\n")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing never mutates
    it)."""
    parser = argparse.ArgumentParser(
        prog="monodeg",
        description="Exact degree sequences of monomial maps: analysis and verdicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("analyze", "full report: spectrum, sequence, recurrence, verdicts, cells"),
        ("sequence", "degree sequence of the iterates"),
        ("recurrence", "bounded minimal-recurrence search"),
        ("verdict", "theorem-backed classification"),
        ("cells", "achieving-cell trace of the powers"),
    ]:
        p = sub.add_parser(name, help=help_)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("-m", "--matrix", help="inline matrix literal, e.g. \"[[0,1],[1,1]]\"")
        src.add_argument("-f", "--file", help="path to a JSON file with a \"matrix\" field")
        p.add_argument("-n", "--terms", type=int, default=40,
                       help="sequence / trace length (default 40)")
        p.add_argument("--max-order", type=int, default=0,
                       help="recurrence search order bound (default 2*k^2)")
        p.add_argument("--guard", type=int, default=0,
                       help="exact verification tail length (default 4*max-order)")
        p.add_argument("--precision", type=int, default=256,
                       help="certification refinement cap exponent (default 256)")
        fmts = ["text", "json", "csv"] if name == "sequence" else ["text", "json"]
        p.add_argument("--format", choices=fmts, default="text")
        p.add_argument("--strict", action="store_true",
                       help="exit 4 when a certification stayed unresolved")
    return parser


def run(argv: list[str], out=None) -> int:
    """Parse arguments, execute one command, write the report; returns the
    exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        a = parse_matrix(args.file if args.file else args.matrix)
        if args.terms < 1:
            raise MatrixParseError("PARSE_ERROR", "--terms must be positive")
        handler = {
            "analyze": _cmd_analyze,
            "sequence": _cmd_sequence,
            "recurrence": _cmd_recurrence,
            "verdict": _cmd_verdict,
            "cells": _cmd_cells,
        }[args.command]
        return handler(a, args, out)
    except (MatrixParseError, RankDeficient, NotUnimodular, WindowTooShort, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except UnresolvedCertification as exc:
        sys.stderr.write(f"unresolved certification: {exc}\n")
        return EXIT_UNRESOLVED if args.strict else EXIT_OK
    except MonodegError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


def console_main() -> None:
    raise SystemExit(run(sys.argv[1:]))


__all__ = [
    "parse_matrix",
    "run",
    "render_json",
    "fraction_to_decimal",
    "fraction_to_scientific",
    "console_main",
]
