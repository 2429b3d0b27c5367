"""monodeg: exact degree sequences of monomial maps on projective space.

Given an integer exponent matrix, the package computes the exact degree
sequence of the induced monomial map's iterates, detects minimal linear
recurrences in it, and decides from certified spectral data whether a
recurrence provably exists, provably cannot exist, or remains undetermined.
"""

from .cells import CellTrace, TraceStatus, cell_trace, detect_stabilization
from .degree import (
    DegreeSequence,
    FunctionalIndex,
    degree,
    degree_sequence,
    dual_degree_sequence,
    functional_set,
    functional_value,
)
from .errors import (
    DimensionMismatch,
    MatrixParseError,
    MonodegError,
    NotUnimodular,
    RankDeficient,
    UnresolvedCertification,
    WindowTooShort,
)
from .exact import (
    IntMatrix,
    IntPoly,
    char_poly,
    cyclotomic,
    det,
    inverse_unimodular,
    poly_gcd,
)
from .recur import (
    Recurrence,
    berlekamp_massey,
    eventually_periodic,
    find_recurrence,
    verify_recurrence,
)
from .spectra import (
    ModulusClass,
    RatioFlag,
    RootBox,
    SpectralSummary,
    isolate_roots,
    ratio_polynomial,
    spectral_summary,
    squarefree_part,
    unity_ratio_orders,
)
from .verdict import (
    CrossCheckReport,
    Verdict,
    classify_d1,
    classify_dual,
    cross_check,
)

__version__ = "0.1.0"
