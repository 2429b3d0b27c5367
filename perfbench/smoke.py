"""Smoke test of the benchmark harness (a plain script, not a pytest file).

Usage: python3 perfbench/smoke.py

Runs every workload briefly with --trace 0 and --trace 1 and asserts:
  * the last line is one JSON object with exactly the contract's keys;
  * --trace 0 emits every end_to_end metric of BENCHMARK.json with its unit,
    --trace 1 every per_layer metric with its unit, and nothing else;
  * the printed metric lines include failed_share (every workload) and
    unknown_share (workloads with a forward verdict), with their units;
  * the workloads listed in BENCHMARK.json answer correctly;
  * without the source tree the benchmark exits non-zero and prints no result.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import bootstrap

ROOT = bootstrap.ROOT
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(Path(__file__).with_name("run.py"))]
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    args = ["--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(workload: str, trace: int, forward_verdict: bool) -> None:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    listed = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload} trace {trace}: {set(got) ^ set(want)}"
    printed = {m[1]: m[3] for m in map(METRIC_LINE.match, lines) if m}
    for name, unit in want.items():
        assert printed.get(name) == unit, f"{name} not printed with unit {unit}"
    if not trace:
        assert printed.get("failed_share") == "ratio"
        assert (printed.get("unknown_share") == "ratio") == forward_verdict
    if workload in {w["name"] for w in BENCH["workloads"]}:
        assert result["correct"] and result["failed"] == 0, proc.stdout[-3000:]
    print(f"ok  {workload} trace {trace}: {result['attempted']} ops, {result['failed']} failed")


def check_without_source() -> None:
    """In a directory with only BENCHMARK.json and the benchmark's files the
    run must fail without printing a result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in BENCH["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", BENCH["workloads"][0]["name"],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0, "ran without a source tree"
    assert '"metrics"' not in proc.stdout, "printed a result without a source tree"
    print(f"ok  without source tree: exit code {proc.returncode}")


def main() -> int:
    bootstrap.use_source_tree()
    import workloads as wl

    listed = {w["name"]: w["why"] for w in BENCH["workloads"]}
    for name, why in listed.items():
        assert wl.WORKLOADS[name].why == why, f"why of {name} differs from workloads.py"
    for name, w in wl.WORKLOADS.items():
        for trace in (0, 1):
            check_run(name, trace, w.forward_unknown is not None)
    check_without_source()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
