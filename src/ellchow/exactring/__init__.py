"""Exact integer computer algebra: sparse polynomials, lattice echelon
forms, Smith invariants, and finitely presented graded rings.

A graded piece is reached only through the staircase of its relation
lattice (``GradedPresentation.lattice``): residues, membership, ranks and
Smith invariants all read it, and there is no dense-matrix view of it."""

from .lattice import (
    KERNEL_NAME,
    Echelon,
    flat_from_pairs,
    smith_invariants_of_rows,
    xgcd,
)
from .poly import (
    IntPolynomial,
    Substitution,
    name_elements,
    subset_name,
    symbol_degree,
    symbol_key,
)
from .presentation import (
    GradedPresentation,
    InvariantFactors,
    NotDivisibleError,
    PresentationError,
)

__all__ = [
    "KERNEL_NAME",
    "Echelon",
    "flat_from_pairs",
    "smith_invariants_of_rows",
    "xgcd",
    "IntPolynomial",
    "Substitution",
    "name_elements",
    "subset_name",
    "symbol_degree",
    "symbol_key",
    "GradedPresentation",
    "InvariantFactors",
    "NotDivisibleError",
    "PresentationError",
]
