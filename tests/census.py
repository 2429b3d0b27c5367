"""Exhaustive census of two small boxes of exponent matrices.

A box is every k x k integer matrix with entries from a fixed range.  The
census classifies each full-rank member with ``classify_d1`` and each
unimodular one with ``classify_dual`` too, and it tallies the verdicts by
basis (UNKNOWN for an undecided one).  It also takes a sha256 of the
per-matrix (rows, classification, basis) list, so a changed verdict shows
even when the tallies balance.  ``tests/data/census_golden.json`` pins the
result for each box.

tests/test_census.py checks the 2x2 box in tier-1.  Run as a script,

    python tests/census.py

checks both boxes against the golden and prints their tallies.  Then it
runs ``cross_check`` at the CLI's default bounds on every member of both
boxes.  It exits 1 on a census that differs from the golden, on an
INCONSISTENT cross check, or on an error that is not a MonodegError.  The
golden changes only with a declared verdict change; ``write_golden()``
rewrites it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

from monodeg import IntMatrix, MonodegError, classify_d1, classify_dual, cross_check, det
from monodeg.verdict import (
    DUALITY_GENERIC,
    DUALITY_THM_1_2,
    DUALITY_THM_1_3,
    INCONSISTENT,
    PROP_3_1,
    THM_1_1_PART1,
    THM_2_7_CHARPOLY,
    UNKNOWN,
)

GOLDEN = Path(__file__).parent / "data" / "census_golden.json"

# name -> (k, entries)
BOXES = {
    "2x2, entries in [-3, 3]": (2, range(-3, 4)),
    "3x3, entries in {-1, 0, 1}": (3, range(-1, 2)),
}

FORWARD_BASES = (THM_1_1_PART1, PROP_3_1, THM_2_7_CHARPOLY, UNKNOWN)
DUAL_BASES = (DUALITY_THM_1_2, DUALITY_THM_1_3, DUALITY_GENERIC, UNKNOWN)


def box(k: int, entries: range):
    """Every k x k matrix with entries in ``entries``, in lexicographic order
    of its entries read row by row."""
    for flat in itertools.product(entries, repeat=k * k):
        yield IntMatrix(tuple(flat[i * k:(i + 1) * k] for i in range(k)))


def _digest(records: list, bases: tuple[str, ...]) -> dict:
    tallies = dict.fromkeys(bases, 0)
    for _, classification, basis in records:
        tallies[basis or classification] += 1
    text = json.dumps([[[list(row) for row in rows], c, b] for rows, c, b in records])
    return {"tallies": tallies, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def census(k: int, entries: range) -> dict:
    """The number of full-rank members of the box, and the tallies and
    sha256 of their forward verdicts and of the unimodular members' dual
    verdicts."""
    forward, dual = [], []
    for a in box(k, entries):
        d = det(a)
        if d == 0:
            continue
        v = classify_d1(a)
        forward.append((a.rows, v.classification, v.basis))
        if abs(d) == 1:
            v = classify_dual(a)
            dual.append((a.rows, v.classification, v.basis))
    return {
        "full_rank": len(forward),
        "forward": _digest(forward, FORWARD_BASES),
        "dual": _digest(dual, DUAL_BASES),
    }


def write_golden() -> None:
    """Rewrite the golden from the census of every box."""
    golden = {name: census(k, entries) for name, (k, entries) in BOXES.items()}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")


def cross_check_box(k: int, entries: range) -> tuple[list, list, int]:
    """``cross_check`` at the CLI's default bounds (max_order 2k^2, guard
    4*max_order, window the larger of 40 and 2*max_order + guard) on every
    member of the box: the INCONSISTENT members, the members that raised an
    error other than a MonodegError, and the number that raised a
    MonodegError (a singular member raises RankDeficient)."""
    max_order = 2 * k * k
    guard = 4 * max_order
    window = max(40, 2 * max_order + guard)
    inconsistent, untyped, typed = [], [], 0
    for a in box(k, entries):
        try:
            report = cross_check(a, window, max_order, guard=guard)
        except MonodegError:
            typed += 1
            continue
        except Exception as exc:
            untyped.append((a.rows, repr(exc)))
            continue
        if report.status == INCONSISTENT:
            inconsistent.append((a.rows, report.conflicts))
    return inconsistent, untyped, typed


def main() -> int:
    golden = json.loads(GOLDEN.read_text())
    failed = False
    for name, (k, entries) in BOXES.items():
        got = census(k, entries)
        print(f"{name}: {got['full_rank']} full rank; forward {got['forward']['tallies']}; "
              f"dual {got['dual']['tallies']}")
        if got != golden[name]:
            print(f"  differs from the golden: {golden[name]}")
            failed = True
    for name, (k, entries) in BOXES.items():
        inconsistent, untyped, typed = cross_check_box(k, entries)
        print(f"{name}: cross_check on {len(entries) ** (k * k)} members, "
              f"{len(inconsistent)} INCONSISTENT, {len(untyped)} untyped errors, "
              f"{typed} typed errors")
        for item in inconsistent + untyped:
            print(f"  {item}")
        failed |= bool(inconsistent or untyped)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
