"""Exact decision procedures for *-homomorphisms of finite-dimensional C*-algebras.

The library represents a finite-dimensional C*-algebra by its block sizes
and a *-homomorphism by its multiplicity matrix, then decides injectivity,
surjectivity and unitality of the map and of its induced K0 map, plus
torsion-freeness of the K0 cokernel, entirely in exact integer arithmetic.
Positive answers come with certificates that are verified by
multiplication: one-sided integer inverses and Smith normal forms.

Quick tour::

    from k0hom import FdAlgebra, IntMatrix, analyze, make_hom

    phi = make_hom(FdAlgebra.of(2, 3, 4), FdAlgebra.of(5, 4),
                   IntMatrix.from_rows([[1, 1, 0], [0, 0, 1]]))
    report = analyze(phi)
    report.phi_injective, report.k0_injective   # (True, False)

The low-level integer machinery (determinants, adjugates, minor gcds,
one-sided inverses, Smith normal form) lives in :mod:`k0hom.intlin` and is
usable on its own.
"""

from .cstar import (
    AnalysisReport,
    FdAlgebra,
    FdHom,
    InvalidHomError,
    TorsionCertificate,
    analyze,
    cokernel_torsion_free,
    cokernel_torsion_free_matrix,
    compose,
    identity_hom,
    is_injective,
    is_surjective,
    is_unital,
    k0_injective,
    k0_surjective,
    make_hom,
    necessary_gcd_conditions,
    row_pattern_span_equivalence,
)
from .intlin import (
    BezoutResult,
    DimensionError,
    EnumerationCapExceeded,
    IntMatrix,
    InvariantViolation,
    MinorGcdResult,
    PreconditionError,
    ScaledLeftInverse,
    SmithDecomposition,
    adjugate,
    column_rank,
    determinant,
    full_square_submatrices,
    gcd_with_bezout,
    left_inverse,
    minor_gcd,
    right_inverse,
    scaled_left_inverse,
    scattered_adjugate,
    smith_normal_form,
)
from .workspace import Workspace, WorkspaceError, parse_workspace

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BezoutResult",
    "DimensionError",
    "EnumerationCapExceeded",
    "FdAlgebra",
    "FdHom",
    "IntMatrix",
    "InvalidHomError",
    "InvariantViolation",
    "MinorGcdResult",
    "PreconditionError",
    "ScaledLeftInverse",
    "SmithDecomposition",
    "TorsionCertificate",
    "Workspace",
    "WorkspaceError",
    "adjugate",
    "analyze",
    "cokernel_torsion_free",
    "cokernel_torsion_free_matrix",
    "column_rank",
    "compose",
    "determinant",
    "full_square_submatrices",
    "gcd_with_bezout",
    "identity_hom",
    "is_injective",
    "is_surjective",
    "is_unital",
    "k0_injective",
    "k0_surjective",
    "left_inverse",
    "make_hom",
    "minor_gcd",
    "necessary_gcd_conditions",
    "parse_workspace",
    "right_inverse",
    "row_pattern_span_equivalence",
    "scaled_left_inverse",
    "scattered_adjugate",
    "smith_normal_form",
]
