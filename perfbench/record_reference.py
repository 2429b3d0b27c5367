"""Record the reference answers for every pooled stratum.

Usage: python3 perfbench/record_reference.py

For each matrix of each pool this stores one code for the forward verdict
(classify_d1) and one for the dual verdict (classify_dual; '-' when the
matrix is not unimodular): R = RECURRENCE_PROVEN, N = NO_RECURRENCE_PROVEN,
U = UNKNOWN, E = the call raised.  Every proven recurrence is also checked
on the benchmark's own degree terms; a failure is printed and the file is
not written.

Run it only when the pools change; the benchmark compares proven answers
against the recorded ones, so re-recording after a program change would
hide a wrong answer.
"""

import json
import sys
from collections import Counter

import bootstrap

bootstrap.use_source_tree()

import oracle  # noqa: E402
import workloads  # noqa: E402
from corpus import bareiss_det, pool, pool_digest  # noqa: E402
from monodeg import verdict  # noqa: E402
from monodeg.exact import IntMatrix  # noqa: E402


def code_of(call, rows, recurrence_rows, problems: list) -> str:
    try:
        v = call(IntMatrix(rows))
    except Exception as exc:
        print(f"  {rows}: {type(exc).__name__}: {exc}")
        return "E"
    if v.classification == verdict.RECURRENCE_PROVEN and not oracle.proven_tail_ok(
        recurrence_rows, v.recurrence.coefficients
    ):
        problems.append((rows, v.recurrence.format()))
    return workloads.CODES[v.classification]


def main() -> int:
    pools: dict[str, dict] = {}
    problems: list = []
    for w in workloads.WORKLOADS.values():
        for s in sorted({s for s in w.pattern if s.pool_size is not None}, key=lambda s: s.name):
            matrices = pool(w.name, s)
            d1, dual = [], []
            for rows in matrices:
                d1.append(code_of(verdict.classify_d1, rows, rows, problems))
                if abs(bareiss_det(rows)) == 1:
                    dual.append(code_of(verdict.classify_dual, rows, oracle.inverse(rows), problems))
                else:
                    dual.append("-")
            pools.setdefault(w.name, {})[s.name] = {
                "digest": pool_digest(matrices),
                "d1": "".join(d1),
                "dual": "".join(dual),
            }
            print(f"{w.name} / {s.name}: d1 {dict(Counter(d1))}, dual {dict(Counter(dual))}")
    if problems:
        for rows, rec in problems:
            print(f"proven recurrence {rec} fails on the degree terms of {rows}")
        return 1
    payload = {
        "about": "verdict codes per pool matrix, in pool order; see record_reference.py",
        "pools": pools,
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
