"""Exact decision procedure for totally free central hyperplane arrangements.

An arrangement is totally free when every multiplicity on it gives a free
multiarrangement; this happens exactly when its product decomposition has
only factors of rank at most 2.  The package decides that over the
rationals with exact arithmetic, computes exponents and explicit bases in
the totally free case, and emits machine-checkable non-freeness witnesses
(generic circuit, threshold k0, LMP2/GMP2 certificate) otherwise.
"""

__version__ = "0.1.0"

from .arrangement import (
    Arrangement,
    Derivation,
    Flat2,
    Hyperplane,
    Multiplicity,
    arrangement,
    derivation,
    format_arrangement,
    normalize_hyperplane,
    parse_arrangement,
    product,
    rank2_flats,
)
from .certificates import (
    CircuitCheck,
    NonFreenessCertificate,
    Verdict,
    Witness,
    circuit_is_nonfree_check,
    decide_totally_free,
    find_generic_circuit,
    gmp2_max,
    gmp2_max_exhaustive,
    gmp2_real_bound,
    is_generic_circuit,
    lmp2,
    lmp2_breakdown,
    nonfree_by_lmp_gmp,
    verify_certificate,
)
from .errors import (
    DimensionMismatchError,
    DuplicateHyperplaneError,
    InternalInvariantError,
    MalformedFlatError,
    NotTotallyFreeError,
    ParseError,
    ReducibleInputError,
    TotalFreeError,
)
from .families import boolean_arrangement, braid_arrangement, generic_arrangement
from .linalg import Matrix
from .matroid import Decomposition, Factor, decompose
from .poly import HomPoly, divisible_by_power, parse_poly, poly_det, poly_to_str
from .rank2 import (
    ExponentPair,
    SaitoCheck,
    exponents_totally_free,
    rank2_basis,
    rank2_exponents,
    saito_check,
    saito_verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
