"""Pinned command-line output: the exit code and stdout of `monodeg` for each
command and format on a fixed set of matrices must not change when the code
behind them does.

The cases cover every command in every format, at the default flags, under
--strict and at -n 7 where the command reads them, plus the branches that
only particular inputs reach: input errors (empty input, a JSON file that is
not an object, -n 0), an unresolved spectrum (no root starts), unresolved
ratio flags, and a forged proof that the cross check refutes (exit 3).

Run this file as a script to re-record the golden file from the current code
(only after checking that a change of output is intended):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

import monodeg.spectra as spectra_mod
import monodeg.verdict as verdict_mod
from monodeg.cli import run
from monodeg.recur import Recurrence
from monodeg.spectra import UNRESOLVED, RatioFlag

DATA = Path(__file__).parent / "data"
GOLDEN_PATH = DATA / "cli_golden.json"

MATRICES = [
    "[[1]]",
    "[[2,1],[1,1]]",  # cells STABILIZED
    "[[0,-1],[1,0]]",  # cells PERIODIC, THM_1_1_PART1 at stride 4
    "[[1,-2],[1,1]]",  # PROP_3_1, not unimodular
    "[[2,0],[0,3]]",
    "[[2,-1],[0,-3]]",  # recurrence valid from 4
    "[[-1,1,0],[-1,0,1],[1,0,0]]",  # PROP_3_1 with a dual verdict
    "[[0,0,1],[1,0,1],[0,1,1]]",  # THM_2_7_CHARPOLY, recurrence found
    "[[1,1,0],[0,1,0],[0,0,-2]]",  # repeated eigenvalue
    "[[2,3,-1],[-3,1,1],[1,3,1]]",
    "[[-1,-3,-2],[-2,-2,2],[-2,-1,3]]",  # recurrence valid from 99
    "[[1,1,0,0],[0,1,1,0],[0,0,1,1],[1,0,0,0]]",  # DUALITY_THM_1_3 slot
    "[[0,-2,0,0],[2,0,0,0],[0,0,0,3],[0,0,-1,-3]]",  # two unity pairs
    "[[0,0,0,-1,1],[0,-1,0,0,0],[1,2,1,0,1],[0,1,1,1,-1],[-1,-1,0,0,0]]",
    "[[1,1],[1,1]]",  # rank deficient
    "[[1,2],[3]]",  # not square
    "",  # empty input
]

# command -> (formats, flag variants): --strict only reaches the exit code
# of analyze and verdict, and verdict reads no -n
COMMANDS = {
    "analyze": (["text", "json"], [[], ["--strict"], ["-n", "7"]]),
    "sequence": (["text", "json", "csv"], [[], ["-n", "7"]]),
    "recurrence": (["text", "json"], [[], ["-n", "7"]]),
    "verdict": (["text", "json"], [[], ["--strict"]]),
    "cells": (["text", "json"], [[], ["-n", "7"]]),
}


def _no_starts(mp) -> None:
    """Root isolation finds no starts: every spectrum stays unresolved."""
    mp.setattr(spectra_mod, "_aberth_starts", lambda p, bits=None: None)


def _unresolved_flags(mp) -> None:
    """Every conjugate-ratio attribution comes back UNRESOLVED."""
    mp.setattr(spectra_mod, "_attribute_pair", lambda *args: RatioFlag(UNRESOLVED))


def _forged_proof(mp) -> None:
    """The cross check is handed chi_A as a proven recurrence, whatever the
    spectrum says."""
    real = verdict_mod.classify_d1

    def forged(a, precision_bits=256):
        v = real(a, precision_bits)
        return replace(
            v,
            classification=verdict_mod.RECURRENCE_PROVEN,
            basis=verdict_mod.THM_2_7_CHARPOLY,
            recurrence=Recurrence.from_poly(v.summary.char_poly),
        )

    mp.setattr(verdict_mod, "classify_d1", forged)


PATCHES = {
    "no starts": _no_starts,
    "unresolved flags": _unresolved_flags,
    "forged proof": _forged_proof,
}


def _cases() -> list[tuple[list[str], str | None]]:
    """(argv, patch name) of every pinned run; "{data}" in an argument
    stands for the tests/data directory."""
    cases = []
    for m in MATRICES:
        for command, (formats, variants) in COMMANDS.items():
            for fmt in formats:
                for variant in variants:
                    cases.append(([command, "-m", m, "--format", fmt] + variant, None))
    cases += [
        (["sequence", "-m", "[[2,1],[1,1]]", "-n", "0"], None),
        (["analyze", "-m", "[[2,1],[1,1]]", "-n", "0", "--format", "json"], None),
        (["verdict", "-f", "{data}/cli_matrix.json"], None),
        (["verdict", "-f", "{data}/cli_not_an_object.json"], None),
        (["analyze", "-m", "[[2,3,-1],[-3,1,1],[1,3,1]]", "-n", "200"], None),
        (["recurrence", "-m", "[[2,-1],[0,-3]]", "-n", "200"], None),
        (["recurrence", "-m", "[[-1,1,0],[-1,0,1],[1,0,0]]", "--max-order", "3",
          "--guard", "5", "--format", "json"], None),
        (["analyze", "-m", "[[0,0,1],[1,0,1],[0,1,1]]", "--max-order", "4",
          "--guard", "8"], None),
    ]
    for patch, matrices in [
        ("no starts", ["[[0,1],[1,1]]", "[[1,-2],[1,1]]"]),
        # the last is proven, with unresolved flags on its pair of modulus < 1
        ("unresolved flags", ["[[-1,1,0],[-1,0,1],[1,0,0]]", "[[0,-1],[1,0]]",
                              "[[0,0,1],[1,0,1],[0,1,1]]", "[[1,1,1],[-2,-1,-1],[2,0,2]]"]),
        ("forged proof", ["[[-1,1,0],[-1,0,1],[1,0,0]]"]),
    ]:
        for m in matrices:
            for command in ("analyze", "verdict"):
                for fmt in ("text", "json"):
                    for variant in ([], ["--strict"]):
                        cases.append(([command, "-m", m, "--format", fmt] + variant, patch))
    return cases


def _key(argv: list[str], patch: str | None) -> str:
    key = " ".join(json.dumps(arg) if not arg or " " in arg else arg for arg in argv)
    return f"{key} [{patch}]" if patch else key


def _record(argv: list[str], patch: str | None) -> dict:
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if patch:
            PATCHES[patch](mp)
        code = run([arg.replace("{data}", str(DATA)) for arg in argv], out=buf)
    return {"exit": code, "stdout": buf.getvalue()}


CASES = {_key(argv, patch): (argv, patch) for argv, patch in _cases()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_has_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("key", list(CASES), ids=[key.replace(" ", "_") for key in CASES])
def test_cli_matches_golden(key, golden):
    assert _record(*CASES[key]) == golden[key]


if __name__ == "__main__":
    data = {key: _record(*case) for key, case in CASES.items()}
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
