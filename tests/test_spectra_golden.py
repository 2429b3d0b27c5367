"""Pinned spectral summaries: the exact certified boxes and unity orders of a
few fixed matrices must not change when the arithmetic behind them does.

Run this file as a script to re-record the golden file from the current
code (only after checking that a change of output is intended):

    PYTHONPATH=src python tests/test_spectra_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from monodeg.exact import IntMatrix
from monodeg.spectra import spectral_summary

GOLDEN_PATH = Path(__file__).parent / "data" / "spectra_golden.json"

MATRICES = {
    "k2 real unimodular (golden ratio squared)": ((2, 1), (1, 1)),
    "k2 exact integer roots": ((2, 0), (1, 3)),
    "k2 complex pair 1+-i*sqrt(2)": ((1, -2), (1, 1)),
    "k2 quarter rotation": ((0, -1), (1, 0)),
    "k3 tribonacci companion": ((0, 1, 0), (0, 0, 1), (1, 1, 1)),
    "k3 dominant complex pair": ((-1, 1, 0), (-1, 0, 1), (1, 0, 0)),
    "k3 repeated eigenvalue": ((1, 1, 0), (0, 1, 0), (0, 0, -2)),
    "k4 two unity pairs": ((0, -2, 0, 0), (2, 0, 0, 0), (0, 0, 0, 3), (0, 0, -1, -3)),
    "k4 unimodular": ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 0)),
    "k5 mixed": (
        (2, -1, 0, 3, 1), (1, 0, -2, 0, 1), (0, 3, 1, -1, 0), (-1, 0, 2, 1, -3), (3, 1, 0, 0, 2),
    ),
    "k5 unimodular": (
        (0, 0, 0, -1, 1), (0, -1, 0, 0, 0), (1, 2, 1, 0, 1), (0, 1, 1, 1, -1), (-1, -1, 0, 0, 0),
    ),
    "k5 unimodular repeated eigenvalues": (
        (0, 0, -2, -1, -1), (1, -1, -2, -1, -2), (1, -2, -1, 0, -1), (-1, 0, 0, 0, 0),
        (-1, 0, 2, 1, 2),
    ),
    "k6 mixed": (
        (1, 2, 0, -1, 0, 3), (0, -1, 2, 1, 1, 0), (3, 0, 1, 0, -2, 1),
        (0, 1, -3, 2, 0, 0), (-2, 0, 1, 0, 1, 2), (1, 1, 0, -1, 2, -1),
    ),
}


def _q(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _record(rows) -> dict:
    s = spectral_summary(IntMatrix(rows))
    return {
        "rows": [list(r) for r in rows],
        "roots": [
            {
                "center": [_q(b.center[0]), _q(b.center[1])],
                "radius": _q(b.radius),
                "multiplicity": b.multiplicity,
                "is_real": b.is_real,
            }
            for b in s.roots
        ],
    }


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_summary_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    assert golden["rows"] == [list(r) for r in MATRICES[name]]
    assert _record(MATRICES[name]) == golden


if __name__ == "__main__":
    data = {name: _record(rows) for name, rows in sorted(MATRICES.items())}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(data, indent=1) + "\n")
