"""Exact-arithmetic toolkit for a family of simple left-symmetric algebras.

Everything computes over exact fields (rationals, odd prime fields,
quadratic extensions); no floating point anywhere.
"""

from .errors import CapError, DimensionError, FalsificationError, PrelieError
from .fields import (Field, FieldError, PrimeField, QuadraticField,
                     RationalField, make_field)
from .linalg import (Subspace, intersect, is_direct_sum, is_lagrangian,
                     kernel, rref, span, subspace_sum)
from .algebras import (Algebra, UpperTriangular, apex_algebra, check_identity,
                       dot_product_algebra, ideal_closure,
                       infinite_truncation_algebra, is_apex_algebra, is_ideal,
                       is_simple, is_subalgebra, left_mult_matrix,
                       minus_algebra, permute_basis, plus_algebra,
                       rebased_first_row, right_mult_matrix, unital_extension,
                       upper_triangular_algebra)
from .symmetry import (automorphism_orthogonal_correspondence,
                       automorphism_residuals, derivation_algebra,
                       derivation_matrices, derivation_residuals,
                       derivation_skew_correspondence, embed_orthogonal,
                       embed_skew, enumerate_automorphisms,
                       enumerate_orthogonal, is_automorphism, is_derivation)
from .rota_baxter import (classify_case, enumerate_decompositions,
                          enumerate_rb_operators, is_rb_operator,
                          is_splitting, is_trivial_operator,
                          isotropic_column_operator,
                          isotropic_line_decomposition, rb_index,
                          rb_residuals, rational_triviality_check,
                          reflect_operator, skew_pairing_operator,
                          splitting_certificate, splitting_operator,
                          square_isotropy_check, totally_real_isotropy_check)
from .reports import CheckReport

__version__ = "0.1.0"

__all__ = [
    "Algebra", "CapError", "CheckReport", "DimensionError",
    "FalsificationError", "Field", "FieldError", "PrelieError", "PrimeField",
    "QuadraticField", "RationalField", "Subspace", "UpperTriangular",
    "apex_algebra", "automorphism_orthogonal_correspondence",
    "automorphism_residuals", "check_identity", "classify_case",
    "derivation_algebra", "derivation_matrices", "derivation_residuals",
    "derivation_skew_correspondence",
    "dot_product_algebra", "embed_orthogonal", "embed_skew",
    "enumerate_automorphisms", "enumerate_decompositions",
    "enumerate_orthogonal", "enumerate_rb_operators", "ideal_closure",
    "infinite_truncation_algebra", "intersect", "is_apex_algebra",
    "is_automorphism", "is_derivation", "is_direct_sum", "is_ideal",
    "is_lagrangian", "is_rb_operator", "is_simple", "is_splitting",
    "is_subalgebra", "is_trivial_operator", "isotropic_column_operator",
    "isotropic_line_decomposition", "kernel", "left_mult_matrix",
    "make_field", "minus_algebra", "permute_basis", "plus_algebra",
    "rational_triviality_check", "rb_index", "rb_residuals",
    "rebased_first_row", "reflect_operator",
    "right_mult_matrix", "rref", "skew_pairing_operator", "span",
    "splitting_certificate", "splitting_operator", "square_isotropy_check",
    "subspace_sum", "totally_real_isotropy_check", "unital_extension",
    "upper_triangular_algebra",
]
