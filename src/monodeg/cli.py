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
from .errors import MatrixParseError, MonodegError, UnresolvedCertification
from .exact import IntMatrix
from .recur import Recurrence, find_recurrence
from .spectra import SpectralSummary
from .verdict import CONSISTENT, Verdict, _chi_and_dual, classify_d1, cross_check

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
# Commands: each returns its report as (payload, text, exit code), and run
# writes the payload as JSON or the text
# ---------------------------------------------------------------------------

_Report = tuple[dict[str, Any], str, int]


def _bounds(a: IntMatrix, args) -> tuple[int, int, int]:
    """Search bounds (max_order, guard) and the number of terms they need,
    at least --terms."""
    max_order = args.max_order if args.max_order else 2 * a.k * a.k
    guard = args.guard if args.guard else 4 * max_order
    return max_order, guard, max(args.terms, 2 * max_order + guard)


def _strict_exit(args, *verdicts: Verdict | None) -> int:
    """EXIT_UNRESOLVED under --strict when a verdict is UNKNOWN for an
    unresolved certification or carries unresolved ratio flags."""
    unresolved = any(
        v is not None
        and (v.is_unknown and "unresolved" in v.details or v.details.get("unresolved_flags"))
        for v in verdicts
    )
    return EXIT_UNRESOLVED if args.strict and unresolved else EXIT_OK


def _verdict_line(label: str, classification: str, basis: str | None) -> str:
    return f"{label} verdict: {classification}" + (f" (basis {basis})" if basis else "")


def _recurrence_line(rec: dict[str, Any]) -> str:
    """A found recurrence, from its payload."""
    return (f"recurrence: {rec['polynomial']} "
            f"(order {rec['order']}, valid from {rec['valid_from']})")


def _lines(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _cmd_sequence(a: IntMatrix, args) -> _Report:
    terms = list(degree_sequence(a, args.terms).terms)
    payload = {"input": [list(r) for r in a.rows], "terms": args.terms, "sequence": terms}
    if args.format == "csv":
        text = _lines(["n,degree"] + [f"{i},{d}" for i, d in enumerate(terms, start=1)])
    else:
        text = _lines([" ".join(str(t) for t in terms)])
    return payload, text, EXIT_OK


def _cmd_recurrence(a: IntMatrix, args) -> _Report:
    max_order, guard, need = _bounds(a, args)
    terms = degree_sequence(a, need).terms
    rec = _recurrence_payload(find_recurrence(terms, max_order, guard))
    payload = {
        "input": [list(r) for r in a.rows],
        "bounds": {"max_order": max_order, "guard": guard, "terms": len(terms)},
        "recurrence": rec,
    }
    if rec is None:
        text = (f"no recurrence found within bounds "
                f"(max_order={max_order}, guard={guard}, terms={len(terms)})")
    else:
        text = _recurrence_line(rec)
    return payload, _lines([text]), EXIT_OK


def _cmd_verdict(a: IntMatrix, args) -> _Report:
    d1 = classify_d1(a, args.precision)
    _, dual = _chi_and_dual(a, d1)
    payload = {
        "input": [list(r) for r in a.rows],
        "d1": d1.classification,
        "basis": d1.basis,
        "d1_details": _verdict_payload(d1)["details"],
        "dual": dual.classification if dual else None,
        "dual_basis": dual.basis if dual else None,
    }
    text = _lines([
        _verdict_line("d1", d1.classification, d1.basis),
        _verdict_line("dual", dual.classification, dual.basis) if dual
        else "dual verdict: not unimodular, undefined",
    ])
    return payload, text, _strict_exit(args, d1, dual)


def _cmd_cells(a: IntMatrix, args) -> _Report:
    trace = cell_trace(a, args.terms)
    st = trace.status
    line = f"cell trace over {trace.window} powers: {st.kind}"
    if st.kind == cells_mod.STABILIZED:
        line += f" from n={st.from_index} in cell {st.cell.choices}"
    elif st.kind == cells_mod.PERIODIC:
        line += f" with period {st.period} from n={st.from_index}"
    payload = {"input": [list(r) for r in a.rows], "cells": _trace_payload(trace)}
    text = _lines([line, f"switches at: {list(trace.switch_indices)}"])
    return payload, text, EXIT_OK


def _cmd_analyze(a: IntMatrix, args) -> _Report:
    max_order, guard, window = _bounds(a, args)
    report = cross_check(a, window, max_order, args.precision, guard)
    d1 = report.verdict
    chi, dual = _chi_and_dual(a, d1)
    if d1.summary is None:
        spectrum = {"unresolved": f"unresolved: {d1.details['unresolved']}"}
    else:
        spectrum = _spectrum_payload(d1.summary)
    payload = {
        "input": [list(r) for r in a.rows],
        "det": (-1) ** a.k * chi.constant,
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
    code = EXIT_INCONSISTENT if report.status != CONSISTENT else _strict_exit(args, d1, dual)
    return payload, _analysis_text(payload), code


def _analysis_text(payload: dict[str, Any]) -> str:
    lines = [
        "matrix: " + json.dumps(payload["input"]),
        f"det: {payload['det']}",
        "char poly (ascending): " + json.dumps(payload["char_poly"]),
    ]
    spectrum = payload["spectrum"]
    if "unresolved" in spectrum:
        lines.append(f"spectrum: {spectrum['unresolved']}")
    else:
        lines.append("roots:")
        for i, r in enumerate(spectrum["roots"]):
            tag = "real" if r["is_real"] else f"pair with #{r['conjugate_partner']}"
            lines.append(
                f"  #{i}: {r['re']} + {r['im']}i  (radius {r['radius']}, "
                f"mult {r['multiplicity']}, {tag})"
            )
        lines.append("modulus classes (descending): " + "; ".join(
            f"{cls['indices']} {cls['versus_one']} 1" for cls in spectrum["modulus_classes"]
        ))
        lines.append("ratio flags: " + "; ".join(
            f"#{i} {f['kind']}" + (f"({f['order']})" if f["order"] else "")
            for i, f in enumerate(spectrum["ratio_flags"])
        ))
    lines.append("sequence: " + " ".join(str(t) for t in payload["sequence"]))
    rec, b = payload["recurrence"], payload["search_bounds"]
    lines.append(_recurrence_line(rec) if rec is not None else (
        f"recurrence: none found within bounds (max_order={b['max_order']}, "
        f"guard={b['guard']}, window={b['window']})"
    ))
    for label, v in payload["verdicts"].items():
        if v is not None:
            lines.append(_verdict_line(label, v["classification"], v["basis"]))
    c = payload["cells"]
    lines.append(f"cells: {c['status']} (switches: {c['switch_count']})")
    lines.append(f"consistency: {payload['consistency']['status']}")
    lines += [f"  conflict: {conflict}" for conflict in payload["consistency"]["conflicts"]]
    return _lines(lines)


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
        payload, text, code = handler(a, args)
        out.write(render_json(payload) if args.format == "json" else text)
        return code
    except UnresolvedCertification as exc:
        sys.stderr.write(f"unresolved certification: {exc}\n")
        return EXIT_UNRESOLVED if args.strict else EXIT_OK
    except (MonodegError, ValueError) as exc:  # input errors are both
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
