"""monodeg benchmark: one workload, one seed, one closed-loop run.

Usage:
    python3 perfbench/run.py --workload verdict-mix --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``verdict-mix``, ``power-stream``, ``analyze``.
One caller runs ops back to back in this process (a closed loop, no
threads or worker processes) until the ops have taken ``--seconds`` of wall
time in total.  Every answer is checked between ops, outside the timed
region; a wrong answer or an exception is a failed op.

``--trace 0`` prints the end-to-end metrics.  Their timings are scaled to
a reference machine speed (calibration.py): about once a second of op time
the loop times a fixed kernel of the benchmark's own code, and each op's time
is multiplied by the reference kernel time over the kernel time measured
around it.  The unscaled figures are printed too, under ``unscaled.``.

* ``setup_s``: median over eleven fresh processes of the time from just
  before ``import monodeg`` until one warm-up op has finished (probe.py),
  each scaled by a kernel timing in the same process.
* ``matrices_per_s``: correct ops per second of op time, the median over
  consecutive windows of whole corpus pattern cycles (at least 20 ops), so
  that every window holds the same mix of matrix sizes and one rare slow
  matrix moves one window, not the result.  Windows are kept short so that
  most hold no such matrix (verdict-mix: 75 ops, 5 of them unimodular 5x5).
* ``latency_ms_p50``, ``latency_ms_p90``: nearest-rank percentiles over all
  ops of the run; a failed op ranks slower than every success.
* ``peak_rss_mb``: this process's ``ru_maxrss`` after the loop.

Also printed, but not part of the result: ``failed_share``,
``unknown_share`` (share of forward verdicts that are UNKNOWN) and the
failures grouped by exception type and the monodeg function that raised.

``--trace 1`` wraps the monodeg functions (tracer.py) and alternates
traced and untraced runs of each case, so the tracing overhead is measured
on the same matrices.  It prints the per-layer metrics, from the traced ops
only, and writes every span and the full per-function table under
``.perfbench/`` in the checkout.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import bootstrap
import calibration

bootstrap.use_source_tree()

import corpus  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

bootstrap.check_imported(workloads.cli)

HERE = Path(__file__).resolve().parent
OUT_DIR = bootstrap.ROOT / ".perfbench"
SETUP_PROBES = 11
MIN_WINDOW_OPS = 20
CALIBRATION_INTERVAL_S = 1.0

# Per-layer metrics, "<module>.<function>.<statistic>" plus one derived
# count; the traced run also reports its overhead (trace.*).  BENCHMARK.json
# lists the same names, which smoke.py checks.
PER_LAYER = [
    "exact.mat_mul.calls_per_op",
    "exact.mat_mul.ms_per_op",
    "exact.mat_mul.max_entry_bits",
    "exact.resultant_in_y.calls_per_op",
    "exact.resultant_in_y.ms_per_op",
    "exact.resultant_in_y.max_coeff_bits",
    "exact.poly_gcd.ms_per_op",
    "exact.cyclotomic.calls_per_op",
    "exact.det.calls_per_op",
    "exact.char_poly.calls_per_op",
    "exact.inverse_unimodular.calls_per_op",
    "spectra.spectral_summary.calls_per_op",
    "spectra.spectral_summary.ms_per_op",
    "spectra.spectral_summary.self_ms_per_op",
    "spectra.spectral_summary.unresolved_per_op",
    "spectra.squarefree_part.ms_per_op",
    "spectra.ratio_polynomial.ms_per_op",
    "mpmath.polyroots.calls_per_op",
    "mpmath.polyroots.ms_per_op",
    "degree.degree_sequence.calls_per_op",
    "degree.terms_per_op",
    "degree.degree.ms_per_op",
    "degree.canonical_cell.ms_per_op",
    "cells.cell_trace.calls_per_op",
    "cells.cell_trace.self_ms_per_op",
    "cells.detect_stabilization.ms_per_op",
    "recur.find_recurrence.ms_per_op",
    "recur.berlekamp_massey.calls_per_op",
    "recur.berlekamp_massey.ms_per_op",
    "recur.berlekamp_massey.errors_per_op",
    "recur.verify_recurrence.calls_per_op",
    "recur.verify_recurrence.ms_per_op",
    "recur.verify_recurrence.hit_ratio",
    "recur.eventually_periodic.ms_per_op",
    "verdict.classify_d1.calls_per_op",
    "verdict.classify_d1.self_ms_per_op",
    "verdict.classify_dual.calls_per_op",
    "verdict.cross_check.self_ms_per_op",
    "cli.run.self_ms_per_op",
    "cli.render_json.ms_per_op",
]

# statistic -> (unit, value from a summary row and the traced op count)
STATISTICS = {
    "calls_per_op": ("count", lambda r, n: r["calls"] / n),
    "errors_per_op": ("count", lambda r, n: r["errors"] / n),
    "ms_per_op": ("ms", lambda r, n: 1e3 * r["total_s"] / n),
    "self_ms_per_op": ("ms", lambda r, n: 1e3 * r["self_s"] / n),
    "max_entry_bits": ("bits", lambda r, n: r["value_max"]),
    "max_coeff_bits": ("bits", lambda r, n: r["value_max"]),
    # calls that returned an offset, over calls made
    "hit_ratio": ("ratio", lambda r, n: r["value_sum"] / r["calls"] if r["calls"] else 0.0),
    # calls that returned an UNRESOLVED ratio flag or raised
    "unresolved_per_op": ("count", lambda r, n: (r["value_sum"] + r["errors"]) / n),
}
DERIVED = {"degree.terms_per_op": ("degree.degree_sequence", "count",
                                   lambda r, n: r["value_sum"] / n)}
EMPTY_ROW = {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0,
             "value_sum": 0, "value_max": 0}


def layer_metric(name: str, table: dict, ops: int) -> tuple[float, str]:
    if name in DERIVED:
        fn, unit, get = DERIVED[name]
    else:
        fn, stat = name.rsplit(".", 1)
        unit, get = STATISTICS[stat]
    return get(table.get(fn, EMPTY_ROW), max(ops, 1)), unit


def failure_cause(exc: BaseException) -> str:
    """Exception type and the innermost monodeg function it came from."""
    where = None
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        module = frame.f_globals.get("__name__", "")
        if module.startswith("monodeg"):
            where = f"{module.removeprefix('monodeg.')}.{frame.f_code.co_name}"
    return f"{type(exc).__name__} from {where}" if where else type(exc).__name__


def measure_setup(workload: str) -> tuple[float, float, list[str]]:
    """Median scaled and unscaled set-up time over fresh probe processes."""
    scaled, raw, errors = [], [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload],
            cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * calibration.REFERENCE_S / probe["kernel_s"])
        if probe["error"]:
            errors.append(probe["error"])
    return statistics.median(scaled), statistics.median(raw), errors


class Tally:
    """Outcomes of one kind of op (all ops, or the traced / untraced half),
    in the order they ran."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.scales: list[float] = []  # machine-speed factor of each op's time
        self.oks: list[bool] = []
        self.unknown = 0
        self.causes: Counter[str] = Counter()
        self.examples: dict[str, str] = {}

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return self.attempted - sum(self.oks)

    def add(self, dt: float, ok: bool) -> None:
        self.times.append(dt)
        self.scales.append(1.0)
        self.oks.append(ok)

    def fail(self, dt: float, cause: str, example: str) -> None:
        self.add(dt, False)
        self.causes[cause] += 1
        self.examples.setdefault(cause, example)

    def succeed(self, dt: float, unknown: bool) -> None:
        self.add(dt, True)
        self.unknown += unknown

    def scale_from(self, start: int, factor: float) -> None:
        self.scales[start:] = [factor] * (self.attempted - start)

    def op_times(self, scaled: bool) -> list[float]:
        if not scaled:
            return self.times
        return [t * f for t, f in zip(self.times, self.scales)]

    def rate(self) -> float:
        return sum(self.oks) / sum(self.times) if self.times else 0.0

    def window_rate(self, size: int, scaled: bool) -> float:
        """Median over complete windows of ``size`` consecutive ops of the
        correct ops per second; one window when the run is shorter."""
        times, n = self.op_times(scaled), self.attempted
        bounds = [(i, i + size) for i in range(0, n - size + 1, size)] or [(0, n)]
        return statistics.median(sum(self.oks[lo:hi]) / sum(times[lo:hi]) for lo, hi in bounds)

    def latency(self, q: float, scaled: bool) -> float:
        """Nearest-rank percentile in seconds, failed ops ranking last."""
        lat = sorted(t if ok else math.inf for t, ok in zip(self.op_times(scaled), self.oks))
        return lat[max(0, math.ceil(q * len(lat)) - 1)]


def run_case(w, case, ref, tally: Tally, tracer: Tracer | None) -> None:
    x = w.prepare(case.rows)
    if tracer:
        tracer.install()
        tracer.begin_op()
    t0 = time.perf_counter()
    try:
        result = w.op(x)
    except Exception as exc:
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_op(type(exc).__name__)
            tracer.uninstall()
        tally.fail(dt, failure_cause(exc), f"{case.rows}: {exc!r}")
        return
    dt = time.perf_counter() - t0
    if tracer:
        tracer.end_op(None)
        tracer.uninstall()
    problem = w.check(case, ref, result)
    if problem:
        tally.fail(dt, f"wrong answer: {problem}", str(case.rows))
    else:
        tally.succeed(dt, bool(w.forward_unknown and w.forward_unknown(result)))


def emit(name: str, value, unit: str, note: str = "") -> None:
    print(f"metric {name} = {value} {unit}{'  (' + note + ')' if note else ''}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)

    print(f"workload {w.name}: {w.why}")
    print(f"seed {args.seed}, {args.seconds:g} s of op time, closed loop, one caller, "
          f"trace {args.trace}")
    if not traced:
        setup_s, setup_raw, probe_errors = measure_setup(w.name)
        if probe_errors:
            print(f"set-up warm-up op failed in probes: {Counter(probe_errors)}")

    refs = workloads.reference_codes(w)
    try:
        w.op(w.prepare(workloads.WARMUP_ROWS))
    except Exception as exc:
        print(f"warm-up op failed: {failure_cause(exc)}")

    tracer = Tracer() if traced else None
    tallies = {"untraced": Tally(), "traced": Tally()}
    cases = corpus.stream(w.name, w.pattern, args.seed)
    calibration.kernel_seconds()  # first pass warms the kernel's own code
    kernels = [calibration.kernel_seconds()]
    segment_start, segment_time = 0, 0.0
    wall_cap = 2 * args.seconds + 30
    wall0 = time.perf_counter()
    measured = 0.0
    i = 0
    while measured < args.seconds:
        if time.perf_counter() - wall0 > wall_cap:
            print(f"stopped after {wall_cap:g} s of wall time, checks included")
            break
        case = next(cases)
        ref = refs[case.stratum][case.pool_index] if case.pool_index is not None else ("-", "-")
        order = (None, tracer) if i % 2 == 0 else (tracer, None)
        for t in order if traced else (None,):
            tally = tallies["traced" if t else "untraced"]
            run_case(w, case, ref, tally, t)
            measured += tally.times[-1]
            segment_time += tally.times[-1]
        i += 1
        if not traced and (segment_time >= CALIBRATION_INTERVAL_S or measured >= args.seconds):
            # the ops of this segment ran between two kernel timings
            kernels.append(calibration.kernel_seconds())
            tally = tallies["untraced"]
            speed = (kernels[-2] + kernels[-1]) / 2
            tally.scale_from(segment_start, calibration.REFERENCE_S / speed)
            segment_start, segment_time = tally.attempted, 0.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = time.perf_counter() - wall0

    main_tally = tallies["traced" if traced else "untraced"]
    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    print(f"ops attempted {attempted}, failed {failed}, op time {measured:.3f} s, "
          f"wall time {wall:.3f} s with checks")
    causes = tallies["untraced"].causes + tallies["traced"].causes
    if causes:
        print("failures by cause:")
        for cause, count in causes.most_common():
            example = (tallies["untraced"].examples | tallies["traced"].examples)[cause]
            print(f"  {count} x {cause}; first: {example[:300]}")

    metrics: dict[str, dict] = {}

    def record(name, value, unit, note=""):
        emit(name, value, unit, note)
        metrics[name] = {"value": value, "unit": unit}

    if not traced:
        t = main_tally
        size = len(w.pattern) * math.ceil(MIN_WINDOW_OPS / len(w.pattern))
        windows = max(1, t.attempted // size)
        record("setup_s", setup_s, "s", f"median of {SETUP_PROBES} fresh processes, scaled")
        record("matrices_per_s", t.window_rate(size, True), "1/s",
               f"median of {windows} windows of {min(size, t.attempted)} ops, scaled")
        for q in (50, 90):
            v = t.latency(q / 100, True)
            record(f"latency_ms_p{q}", None if math.isinf(v) else 1e3 * v, "ms",
                   f"{t.attempted} ops, scaled" + ("; the rank falls on failed ops" if math.isinf(v) else ""))
        record("peak_rss_mb", peak_rss_mb, "MB")
        emit("failed_share", t.failed / t.attempted, "ratio", f"{t.failed} of {t.attempted}")
        if w.forward_unknown:
            emit("unknown_share", t.unknown / t.attempted, "ratio",
                 f"{t.unknown} of {t.attempted} forward verdicts UNKNOWN")
        emit("unscaled.setup_s", setup_raw, "s")
        emit("unscaled.matrices_per_s", t.window_rate(size, False), "1/s")
        emit("unscaled.whole_run_matrices_per_s", t.rate(), "1/s")
        for q in (50, 90):
            emit(f"unscaled.latency_ms_p{q}", 1e3 * t.latency(q / 100, False), "ms")
        emit("calibration.kernel_ms", 1e3 * statistics.median(kernels), "ms",
             f"median of {len(kernels)}; reference {1e3 * calibration.REFERENCE_S:g} ms")
    else:
        table = tracer.summary()
        ops = tallies["traced"].attempted
        for name in PER_LAYER:
            record(name, *layer_metric(name, table, ops))
        untraced, traced_rate = tallies["untraced"].rate(), tallies["traced"].rate()
        record("trace.matrices_per_s_untraced", untraced, "1/s")
        record("trace.matrices_per_s_traced", traced_rate, "1/s")
        record("trace.overhead_ratio", untraced / traced_rate if traced_rate else 0.0, "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        layers = OUT_DIR / f"{w.name}-layers.json"
        layers.write_text(json.dumps({"traced_ops": ops, "functions": table}, indent=1,
                                     sort_keys=True))
        spans = OUT_DIR / f"{w.name}-spans.tsv.gz"
        tracer.write_spans(spans)
        print(f"{len(tracer.spans)} spans written to {spans.relative_to(bootstrap.ROOT)}; "
              f"per-function table in {layers.relative_to(bootstrap.ROOT)}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
