"""Per-layer tracing from outside the package.

``Tracer.install`` replaces every public function of the monodeg modules,
under every name a module bound it to (``from .exact import det`` binds
``det`` in the importing module), with a wrapper that records one span per
call: name, parent span, start, end, the exception type it raised, and an
optional measured value (bit sizes, hit flags).  ``mpmath.polyroots`` is
wrapped the same way, because root isolation looks it up on the module at
call time.  ``uninstall`` restores the original bindings, so untraced ops
run the unmodified code.

Spans stay in memory until the run ends; ``summary`` derives per-function
call counts, total and self time (span duration minus the time covered by
its direct child spans) and error counts from them.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import types
from pathlib import Path
from typing import Any, Callable

PACKAGE = "monodeg"


def _max_entry_bits(m) -> int:
    return max(abs(x).bit_length() for row in m.rows for x in row)


def _max_coeff_bits(p) -> int:
    return max((abs(c).bit_length() for c in p.coeffs), default=0)


def _has_unresolved_flag(summary) -> int:
    return int(any(f.kind == "UNRESOLVED" for f in summary.ratio_flags))


def _is_hit(offset) -> int:
    return int(offset is not None)


def _term_count(seq) -> int:
    return len(seq.terms)


# Measured values attached to the spans of some functions (applied to the
# return value after the span's end time is taken).
VALUE_HOOKS: dict[str, Callable[[Any], int]] = {
    "exact.mat_mul": _max_entry_bits,
    "exact.resultant_in_y": _max_coeff_bits,
    "spectra.spectral_summary": _has_unresolved_flag,
    "recur.verify_recurrence": _is_hit,
    "degree.degree_sequence": _term_count,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # (name id, parent span id or -1, start, end, error type or None, value)
        self.spans: list[tuple | None] = []
        self.op_starts: list[int] = []  # span id of each traced op's root span
        self._stack: list[int] = []
        self._bindings: list[tuple[Any, str, Any, Any]] = []  # module, attr, original, wrapper
        self._op_name_id = self._name_id("op")
        self._op_t0 = 0.0
        self._build()

    # -- wrappers ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn: Callable, name: str) -> Callable:
        name_id = self._name_id(name)
        hook = VALUE_HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                spans[sid] = (name_id, parent, t0, t1, type(exc).__name__, None)
                raise
            t1 = clock()
            stack.pop()
            spans[sid] = (name_id, parent, t0, t1, None, hook(result) if hook else None)
            return result

        return traced

    def _build(self) -> None:
        wrappers: dict[int, Callable] = {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, value in sorted(vars(mod).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and attr == value.__name__
                    and not attr.startswith("_")
                    and value.__module__.startswith(PACKAGE + ".")
                ):
                    key = id(value)
                    if key not in wrappers:
                        short = value.__module__[len(PACKAGE) + 1:]
                        wrappers[key] = self._wrap(value, f"{short}.{attr}")
                    self._bindings.append((mod, attr, value, wrappers[key]))
        import mpmath

        original = mpmath.polyroots
        self._bindings.append(
            (mpmath, "polyroots", original, self._wrap(original, "mpmath.polyroots"))
        )

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    # -- op boundaries ----------------------------------------------------

    def begin_op(self) -> None:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self.op_starts.append(sid)
        self._op_t0 = time.perf_counter()

    def end_op(self, error: str | None) -> None:
        t1 = time.perf_counter()
        sid = self._stack.pop()
        self.spans[sid] = (self._op_name_id, -1, self._op_t0, t1, error, None)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, errors, total_s, self_s, value_sum, value_max."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            _, parent, t0, t1, _, _ = span
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for sid, (name_id, _, t0, t1, err, value) in enumerate(self.spans):
            row = out.setdefault(self.names[name_id], {
                "calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0,
                "value_sum": 0, "value_max": 0,
            })
            row["calls"] += 1
            row["errors"] += err is not None
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child_time[sid]
            if value is not None:
                row["value_sum"] += value
                row["value_max"] = max(row["value_max"], value)
        return out

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: op, span, parent, name, start,
        end, error, value.  Times are seconds on the run's perf clock."""
        path.parent.mkdir(parents=True, exist_ok=True)
        op = -1
        starts = set(self.op_starts)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart\tend\terror\tvalue\n")
            for sid, (name_id, parent, t0, t1, err, value) in enumerate(self.spans):
                if sid in starts:
                    op += 1
                fh.write(
                    f"{op}\t{sid}\t{parent}\t{self.names[name_id]}\t{t0:.9f}\t{t1:.9f}"
                    f"\t{err or ''}\t{'' if value is None else value}\n"
                )
