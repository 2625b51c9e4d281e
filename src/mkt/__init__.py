"""Exact symbol invariants of fields and commuting matrix tuples.

Everything is computed exactly over Q, finite fields, their finite
extensions, and rational function fields in one variable: weighted symbol
expressions modulo the multilinear and Steinberg relations, tame symbols,
transfers down finite extensions, canonical invariants that decide symbol
classes, reduction of commuting invertible matrix tuples, and explicit
joint determinants.
"""

from .errors import (ArityMismatch, BadModulus, DegenerateDifferences,
                     DegenerateInput, DescriptorMismatch, DivisionByZero,
                     MktError, NotUnitDeterminant, ParseError,
                     RecursionInvariantViolated, UnsupportedCombination,
                     UnsupportedFactorization, UnsupportedField,
                     UnsupportedTower, ZeroElement, ZeroEntry, ZeroInput,
                     ZeroPolynomial)
from .fields import (FieldDescriptor, FieldElement, Polynomial,
                     RationalFunction, embed, extension, function_field,
                     prime_field, rationals, tower_degree, tower_steps)
from .factor import factor, is_irreducible
from .linalg import Matrix, companion_matrix, jordan_block
from .symbols import (MilnorExpression, cyclic_difference_identity, symbol,
                      symbol_shift_identity, zero_expression)
from .canonical import CanonicalClass, canonical_class
from .valuations import (Valuation, finite_place, infinite_place,
                         rational_prime, real_place, support, tame_symbol,
                         unit_part, valuate)
from .towers import minimal_polynomial, norm_element, present_as_simple
from .transfer import (base_change, reciprocity_check, transfer, transfer_ext,
                       transfer_tower)
from .commuting import (CompositionFactor, MatrixTuple, class_of_tuple,
                        composition_series, homotopy_mult, homotopy_shear,
                        homotopy_steinberg, homotopy_swap, kronecker,
                        reduce_tuple)
from .jointdet import (JointDeterminant, check_axioms, hilbert, legendre,
                       make_determinant)
from .sampling import commuting_tuple, monic_irreducible, random_symbol
from .zkernel import backend_name

__version__ = "0.1.0"

__all__ = [
    "ArityMismatch", "BadModulus", "DegenerateDifferences", "DegenerateInput",
    "DescriptorMismatch", "DivisionByZero", "MktError", "NotUnitDeterminant",
    "ParseError", "RecursionInvariantViolated", "UnsupportedCombination",
    "UnsupportedFactorization", "UnsupportedField", "UnsupportedTower",
    "ZeroElement", "ZeroEntry", "ZeroInput", "ZeroPolynomial",
    "FieldDescriptor", "FieldElement", "Polynomial", "RationalFunction",
    "embed", "extension", "function_field", "prime_field", "rationals",
    "tower_degree", "tower_steps",
    "factor", "is_irreducible",
    "Matrix", "companion_matrix", "jordan_block",
    "MilnorExpression", "cyclic_difference_identity", "symbol",
    "symbol_shift_identity", "zero_expression",
    "CanonicalClass", "canonical_class",
    "Valuation", "finite_place", "infinite_place", "rational_prime",
    "real_place", "support", "tame_symbol", "unit_part", "valuate",
    "minimal_polynomial", "norm_element", "present_as_simple",
    "base_change", "reciprocity_check", "transfer", "transfer_ext",
    "transfer_tower",
    "CompositionFactor", "MatrixTuple", "class_of_tuple",
    "composition_series", "homotopy_mult", "homotopy_shear",
    "homotopy_steinberg", "homotopy_swap", "kronecker", "reduce_tuple",
    "JointDeterminant", "check_axioms", "hilbert", "legendre",
    "make_determinant",
    "commuting_tuple", "monic_irreducible", "random_symbol",
    "backend_name",
    "__version__",
]
