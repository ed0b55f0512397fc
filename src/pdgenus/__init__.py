"""Partial duals, genera, and the partial-dual genus polynomial.

Oriented ribbon graphs are handled as combinatorial maps (pairs of
permutations on half-edges) or as chord diagrams (double-occurrence
cyclic words).  The package computes partial duals and genera, the genus
generating polynomial over all partial duals, and verifies by exhaustive
enumeration and exact linear algebra that this polynomial satisfies the
four-term relation, i.e. is a weight system.
"""

from .diagrams import (
    ChordDiagram,
    CutOutOfRangeError,
    EmptyCaravanError,
    InterlaceSequence,
    LabelCountError,
    OddLengthError,
    UnknownChordError,
    caravan,
    enumerate_diagrams,
    partial_dual_diagram,
    product,
)
from .maps import (
    CombinatorialMap,
    EdgeOutOfRangeError,
    FixedPointError,
    NotAdjacentError,
    NotInvolutionError,
    SizeMismatchError,
)
from .polynomials import IntPolynomial, RationalMatrix
from .weight_system import (
    NoSolutionError,
    NotABasisError,
    check_4T,
    check_intersection_graph_invariance,
    check_multiplicativity,
    dim_quotient,
    express_modulo_4T,
    generate_4T_quadruples,
    pd_genus_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "ChordDiagram",
    "CombinatorialMap",
    "CutOutOfRangeError",
    "EdgeOutOfRangeError",
    "EmptyCaravanError",
    "FixedPointError",
    "IntPolynomial",
    "InterlaceSequence",
    "LabelCountError",
    "NoSolutionError",
    "NotABasisError",
    "NotAdjacentError",
    "NotInvolutionError",
    "OddLengthError",
    "RationalMatrix",
    "SizeMismatchError",
    "UnknownChordError",
    "caravan",
    "check_4T",
    "check_intersection_graph_invariance",
    "check_multiplicativity",
    "dim_quotient",
    "enumerate_diagrams",
    "express_modulo_4T",
    "generate_4T_quadruples",
    "partial_dual_diagram",
    "pd_genus_polynomial",
    "product",
]
