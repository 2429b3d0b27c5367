"""Pinned verdicts: the classification, criterion, details (keys in order)
and recurrence of the forward verdict, and of the dual verdict when the
matrix is unimodular, must not change when the code behind them does.

The matrices are those of the spectra golden; they cover THM_2_7_CHARPOLY,
THM_1_1_PART1 at strides 2, 4 and 12, PROP_3_1, UNKNOWN and the three
duality codes.  Run this file as a script to re-record the golden file from
the current code (only after checking that a change of output is intended):

    PYTHONPATH=src python tests/test_verdict_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from monodeg.exact import IntMatrix, det
from monodeg.verdict import Verdict, classify_d1, classify_dual
from test_spectra_golden import MATRICES

GOLDEN_PATH = Path(__file__).parent / "data" / "verdict_golden.json"


def _payload(v: Verdict) -> dict:
    rec = v.recurrence
    return {
        "classification": v.classification,
        "basis": v.basis,
        "details": [[key, val] for key, val in v.details.items()],
        "recurrence": None if rec is None else {
            "coefficients": [str(c) for c in rec.coefficients],
            "valid_from": rec.valid_from,
        },
    }


def _record(rows) -> dict:
    a = IntMatrix(rows)
    out = {"rows": [list(r) for r in rows], "classify_d1": _payload(classify_d1(a))}
    if det(a) in (1, -1):
        out["classify_dual"] = _payload(classify_dual(a))
    return json.loads(json.dumps(out))  # tuples as lists, like the file


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_verdict_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    assert golden["rows"] == [list(r) for r in MATRICES[name]]
    assert _record(MATRICES[name]) == golden


if __name__ == "__main__":
    data = {name: _record(rows) for name, rows in sorted(MATRICES.items())}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(data, indent=1) + "\n")
