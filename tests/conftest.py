import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from monodeg.exact import IntMatrix, IntPoly
from monodeg.spectra import spectral_summary

# 3x3 exponent matrix whose degree sequence provably has no linear recurrence
# (dominant non-real eigenvalue pair with non-unity ratio); its inverse is the
# exponent matrix of a polynomial map with a tribonacci-style sequence.
NO_RECURRENCE_3X3 = IntMatrix(((-1, 1, 0), (-1, 0, 1), (1, 0, 0)))
NO_RECURRENCE_INVERSE = IntMatrix(((0, 0, 1), (1, 0, 1), (0, 1, 1)))

# companion matrix of x^3 - x^2 - x - 1 (dominant real positive eigenvalue)
TRIBONACCI_COMPANION = IntMatrix(((0, 1, 0), (0, 0, 1), (1, 1, 1)))

# quarter rotation: eigenvalues +-i, periodic degree sequence
QUARTER_ROTATION = IntMatrix(((0, -1), (1, 0)))

# eigenvalues 1 +- i*sqrt(2): dominant pair, ratio not a root of unity
PAIR_2X2 = IntMatrix(((1, -2), (1, 1)))


def recurrence_poly(rec) -> IntPoly:
    """The monic polynomial of a recurrence whose coefficients are integers."""
    assert all(c.denominator == 1 for c in rec.coefficients)
    return IntPoly(tuple(int(c) for c in rec.coefficients) + (1,))


def evict_summary():
    """Replace the held spectral summary with one of a 1x1 matrix at a
    refinement cap of 0, which no test draws, so that the next analysis
    starts cold."""
    spectral_summary(IntMatrix(((7,),)), 0)


@pytest.fixture(autouse=True)
def cold_summary():
    """Every test starts with a cold summary slot: a test that counts the
    work of an analysis must not read one an earlier test left behind."""
    evict_summary()
