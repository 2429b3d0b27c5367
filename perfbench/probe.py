"""Set-up probe: one fresh process, timed from just before ``import
monodeg`` until one warm-up op of the named workload has finished.

Usage: python3 perfbench/probe.py <workload>
Prints one JSON object: {"setup_s": seconds, "kernel_s": seconds of one
calibration kernel run in this process afterwards, "error": exception type
or null}.
"""

import json
import sys
import time

import bootstrap
import calibration
import corpus  # noqa: F401  benchmark code, loaded before the clock starts
import oracle  # noqa: F401

bootstrap.use_source_tree()
t0 = time.perf_counter()
import workloads  # noqa: E402  imports monodeg

w = workloads.WORKLOADS[sys.argv[1]]
error = None
try:
    w.op(w.prepare(workloads.WARMUP_ROWS))
except Exception as exc:  # the failure is reported, set-up time still counts
    error = type(exc).__name__
elapsed = time.perf_counter() - t0
bootstrap.check_imported(workloads.cli)
kernel = min(calibration.kernel_seconds() for _ in range(2))
print(json.dumps({"setup_s": elapsed, "kernel_s": kernel, "error": error}))
