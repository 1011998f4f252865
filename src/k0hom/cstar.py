"""Finite-dimensional C*-algebras and their *-homomorphisms.

A finite-dimensional C*-algebra is a direct sum of full matrix blocks and is
modelled here by its tuple of block sizes.  A *-homomorphism between two such
algebras is determined, up to unitary equivalence, by its multiplicity
matrix: the nonnegative integer matrix whose (i, j) entry says how many
copies of source block j sit inside target block i.  The block sizes must
accommodate the copies, which leaves a nonnegative slack in every target
block; zero slack everywhere means the map is unital.

On K0 groups the map acts as multiplication by the multiplicity matrix, so
injectivity, surjectivity and unitality at the K0 level, together with
torsion-freeness of the cokernel, are all questions of exact integer linear
algebra and are decided by :mod:`k0hom.intlin`.  :func:`analyze` bundles
every decision, with certificates, into one report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .intlin import (
    IntMatrix,
    InvariantViolation,
    PreconditionError,
    SmithDecomposition,
    column_rank,
    smith_normal_form,
)

__all__ = [
    "FdAlgebra",
    "FdHom",
    "InvalidHomError",
    "TorsionCertificate",
    "AnalysisReport",
    "make_hom",
    "identity_hom",
    "is_injective",
    "is_unital",
    "is_surjective",
    "k0_injective",
    "k0_surjective",
    "row_pattern_span_equivalence",
    "cokernel_torsion_free",
    "cokernel_torsion_free_matrix",
    "necessary_gcd_conditions",
    "compose",
    "analyze",
]


class InvalidHomError(PreconditionError):
    """The data does not describe a *-homomorphism between the given algebras."""


@dataclass(frozen=True)
class FdAlgebra:
    """A finite-dimensional C*-algebra as an ordered tuple of block sizes.

    >>> FdAlgebra.of(2, 3, 4)
    FdAlgebra(blocks=(2, 3, 4))
    """

    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        blocks = tuple(int(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("an algebra needs at least one block")
        if any(b < 1 for b in blocks):
            raise ValueError(f"block sizes must be positive, got {blocks}")

    @classmethod
    def of(cls, *blocks: int) -> "FdAlgebra":
        return cls(tuple(blocks))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return " + ".join(f"M{b}" for b in self.blocks)


@dataclass(frozen=True)
class FdHom:
    """A *-homomorphism given by source, target and multiplicity matrix.

    ``matrix`` has one row per target block and one column per source block;
    entries are nonnegative.  ``slack[i]`` is the unused dimension in target
    block i and is always nonnegative for a valid homomorphism.  Use
    :func:`make_hom`, which computes the slack and validates.
    """

    source: FdAlgebra
    target: FdAlgebra
    matrix: IntMatrix
    slack: tuple[int, ...]

    def __post_init__(self) -> None:
        k = self.source.num_blocks
        ell = self.target.num_blocks
        if (self.matrix.rows, self.matrix.cols) != (ell, k):
            raise InvalidHomError(
                f"matrix is {self.matrix.rows}x{self.matrix.cols}, expected "
                f"{ell}x{k} (target blocks x source blocks)"
            )
        for i in range(ell):
            for j in range(k):
                if self.matrix[i, j] < 0:
                    raise InvalidHomError(
                        f"multiplicity at row {i}, column {j} is negative"
                    )
        expected = _slack_vector(self.source, self.target, self.matrix)
        if tuple(self.slack) != expected:
            raise InvalidHomError(
                f"slack vector {self.slack} does not match block sizes; "
                f"expected {expected}"
            )

    def __str__(self) -> str:
        return f"{self.source} -> {self.target}"


def _slack_vector(
    source: FdAlgebra, target: FdAlgebra, matrix: IntMatrix
) -> tuple[int, ...]:
    slack = []
    for i, m_i in enumerate(target.blocks):
        used = sum(
            matrix[i, j] * n_j for j, n_j in enumerate(source.blocks)
        )
        s_i = m_i - used
        if s_i < 0:
            raise InvalidHomError(
                f"row {i}: source blocks need dimension {used} but target "
                f"block size is {m_i}"
            )
        slack.append(s_i)
    return tuple(slack)


def make_hom(source: FdAlgebra, target: FdAlgebra, matrix: IntMatrix) -> FdHom:
    """Validate a multiplicity matrix against the two algebras.

    Rejects wrong shapes, negative entries, and matrices whose copies of the
    source blocks do not fit inside the target blocks (negative slack); the
    error names the offending row.

    >>> phi = make_hom(FdAlgebra.of(2, 3, 4), FdAlgebra.of(5, 4),
    ...                IntMatrix.from_rows([[1, 1, 0], [0, 0, 1]]))
    >>> phi.slack
    (0, 0)
    """
    k = source.num_blocks
    ell = target.num_blocks
    if (matrix.rows, matrix.cols) != (ell, k):
        raise InvalidHomError(
            f"matrix is {matrix.rows}x{matrix.cols}, expected {ell}x{k} "
            "(target blocks x source blocks)"
        )
    slack = _slack_vector(source, target, matrix)
    return FdHom(source=source, target=target, matrix=matrix, slack=slack)


def identity_hom(algebra: FdAlgebra) -> FdHom:
    """The identity homomorphism of an algebra."""
    return make_hom(algebra, algebra, IntMatrix.identity(algebra.num_blocks))


def is_injective(h: FdHom) -> bool:
    """True iff every source block lands somewhere: no zero column."""
    return all(
        any(h.matrix[i, j] != 0 for i in range(h.matrix.rows))
        for j in range(h.matrix.cols)
    )


def is_unital(h: FdHom) -> bool:
    """True iff the target blocks are filled exactly: all slack zero.

    Unitality of the homomorphism and of its K0 map coincide for these
    algebras, so this single test decides both.
    """
    return all(s == 0 for s in h.slack)


def _row_pattern_condition(matrix: IntMatrix) -> bool:
    """Every row has exactly one entry equal to 1 and zeros elsewhere."""
    for i in range(matrix.rows):
        row = matrix.row(i)
        if sum(1 for x in row if x != 0) != 1 or max(row) != 1:
            return False
    return True


def _column_multiplicity_condition(matrix: IntMatrix) -> bool:
    """Every column has at most one nonzero entry."""
    return all(
        sum(1 for i in range(matrix.rows) if matrix[i, j] != 0) <= 1
        for j in range(matrix.cols)
    )


def is_surjective(h: FdHom) -> bool:
    """Surjectivity of the homomorphism, decided from the multiplicity data.

    Three conditions, jointly equivalent to surjectivity: every target block
    is a single untouched copy of one source block (each row is a standard
    basis pattern), no source block is used by two target blocks (each
    column has at most one nonzero entry), and the map is unital.
    """
    return (
        _row_pattern_condition(h.matrix)
        and _column_multiplicity_condition(h.matrix)
        and is_unital(h)
    )


def k0_injective(h: FdHom) -> bool:
    """True iff the K0 map is injective: the matrix columns are independent."""
    return column_rank(h.matrix) == h.matrix.cols


def _spans_everything(matrix: IntMatrix) -> bool:
    """Do the columns generate the full integer lattice of the target?"""
    snf = smith_normal_form(matrix)
    return len(snf.invariant_factors) == matrix.rows and all(
        f == 1 for f in snf.invariant_factors
    )


def k0_surjective(h: FdHom) -> bool:
    """True iff the K0 map is surjective: the columns span the whole lattice.

    Decided through the Smith normal form: the rank must equal the number of
    target blocks and every invariant factor must be 1 (equivalently, the
    matrix has a right integer inverse).
    """
    return _spans_everything(h.matrix)


def row_pattern_span_equivalence(e: IntMatrix) -> tuple[bool, bool]:
    """Check the column condition and the span condition side by side.

    Requires every row of e to be a standard basis pattern (exactly one 1,
    rest 0).  Under that hypothesis the two returned flags are equivalent:
    every column has at most one nonzero entry iff the columns span the full
    integer lattice.  Exposed so the equivalence can be property-tested.
    """
    if not _row_pattern_condition(e):
        raise PreconditionError(
            "every row must have exactly one entry 1 and zeros elsewhere"
        )
    return _column_multiplicity_condition(e), _spans_everything(e)


@dataclass(frozen=True)
class TorsionCertificate:
    """Evidence backing a torsion-freeness decision for a cokernel.

    ``smith`` is the Smith normal form the decision was read from, verified
    by ``U @ E @ V == D`` before it is returned.  ``criterion`` is
    "minor-gcd" when the columns are independent: the cokernel is then
    torsion free iff the gcd of the full square minors is 1.  ``minor_gcd``
    holds that gcd, computed as the product of the invariant factors (the
    determinantal-divisor identity) rather than by enumerating minors, and
    when it is 1 ``left_inverse`` holds ``K = V @ [I 0] @ U``, verified by
    ``K @ E == I``.  Otherwise ``criterion`` is "invariant-factors": the
    cokernel is torsion free iff every invariant factor is 1, and both
    ``minor_gcd`` and ``left_inverse`` are None.
    """

    criterion: str
    smith: SmithDecomposition
    minor_gcd: Optional[int] = None
    left_inverse: Optional[IntMatrix] = None


def _torsion_from_smith(
    e: IntMatrix, snf: SmithDecomposition
) -> tuple[bool, TorsionCertificate]:
    """Torsion decision and certificate read off one Smith normal form of e.

    Raises InvariantViolation unless ``U @ e @ V == D`` with D the diagonal
    of the invariant factors, and, when a left inverse is built, unless
    ``K @ e == I``.
    """
    factors = snf.invariant_factors
    diagonal = [
        [factors[i] if i == j and i < len(factors) else 0 for j in range(e.cols)]
        for i in range(e.rows)
    ]
    if snf.D.to_rows() != diagonal or snf.U @ e @ snf.V != snf.D:
        raise InvariantViolation(
            "Smith normal form failed verification: U @ E @ V != diag(factors)"
        )
    torsion_free = all(f == 1 for f in factors)
    if len(factors) < e.cols:
        return torsion_free, TorsionCertificate(
            criterion="invariant-factors", smith=snf
        )
    inverse = None
    if torsion_free:
        # D = [I; 0]: the first k rows of U satisfy U_k @ E @ V == I, so
        # K = V @ U_k is a left inverse of E.
        u_top = IntMatrix(e.cols, e.rows, snf.U.entries[: e.cols * e.rows])
        inverse = snf.V @ u_top
        if inverse @ e != IntMatrix.identity(e.cols):
            raise InvariantViolation(
                "left inverse from the Smith normal form failed verification: "
                "K @ E != I"
            )
    return torsion_free, TorsionCertificate(
        criterion="minor-gcd",
        smith=snf,
        minor_gcd=math.prod(factors),
        left_inverse=inverse,
    )


def cokernel_torsion_free_matrix(e: IntMatrix) -> tuple[bool, TorsionCertificate]:
    """Is the quotient of the target lattice by the column span torsion free?

    Decided from one verified Smith normal form, with no minor enumerated:
    the cokernel is torsion free iff every invariant factor equals 1.  When
    the columns are independent this is the minor-gcd criterion (gcd of the
    full square minors equals 1, that gcd being the product of the
    invariant factors), and in the positive case a left inverse is built
    from the transforms and verified as a certificate; see
    :class:`TorsionCertificate`.
    """
    return _torsion_from_smith(e, smith_normal_form(e))


def cokernel_torsion_free(h: FdHom) -> tuple[bool, TorsionCertificate]:
    """Torsion-freeness of the cokernel of the K0 map of h, with certificate."""
    return cokernel_torsion_free_matrix(h.matrix)


def necessary_gcd_conditions(h: FdHom) -> tuple[int, tuple[int, ...]]:
    """Gcd of all entries and per-column gcds of the multiplicity matrix.

    Only defined for nonzero homomorphisms.  A torsion-free cokernel forces
    the entry gcd to be 1, and when the K0 map is also injective every
    column gcd is 1; :func:`analyze` checks both implications.
    """
    if h.matrix.is_zero():
        raise PreconditionError(
            "gcd conditions apply to nonzero homomorphisms only"
        )
    entry_gcd = math.gcd(*h.matrix.entries)
    column_gcds = tuple(
        math.gcd(*h.matrix.column(j)) for j in range(h.matrix.cols)
    )
    return entry_gcd, column_gcds


def compose(g: FdHom, f: FdHom) -> FdHom:
    """The composite g after f; multiplicity matrices multiply.

    The middle algebras must agree block for block.  Validity of the
    composite follows from validity of the factors, but is re-checked.
    """
    if f.target.blocks != g.source.blocks:
        raise InvalidHomError(
            f"cannot compose: first map lands in {f.target} but second "
            f"starts from {g.source}"
        )
    return make_hom(f.source, g.target, g.matrix @ f.matrix)


@dataclass(frozen=True)
class AnalysisReport:
    """Every decided predicate for one homomorphism, with certificates.

    The K0 predicates, the torsion decision, ``invariant_factors``,
    ``minor_gcd`` and ``left_inverse_certificate`` all come from one
    verified Smith normal form of the multiplicity matrix.  ``minor_gcd``
    is present exactly when the columns are independent (the "minor-gcd"
    criterion); it is the product of the invariant factors, which equals
    the gcd of the full square minors.  ``left_inverse_certificate`` is
    present exactly when that gcd is 1, and satisfies ``K @ E == I``.
    ``notes`` lists the cross-level implications that fired and the
    criterion used for the torsion decision.
    """

    phi_injective: bool
    phi_surjective: bool
    phi_unital: bool
    k0_injective: bool
    k0_surjective: bool
    k0_unital: bool
    cokernel_torsion_free: Optional[bool]
    torsion_criterion: str
    minor_gcd: Optional[int]
    left_inverse_certificate: Optional[IntMatrix]
    invariant_factors: tuple[int, ...]
    entry_gcd: int
    column_gcds: tuple[int, ...]
    notes: tuple[str, ...]


def analyze(h: FdHom) -> AnalysisReport:
    """Decide every predicate for h and package the evidence.

    One Smith normal form ``D = U @ E @ V`` of the multiplicity matrix E
    decides everything at the K0 level, with no minor enumerated: the rank
    is the number of invariant factors, the K0 map is injective iff the
    rank equals the number of columns and surjective iff it equals the
    number of rows with every factor 1, and the cokernel is torsion free
    iff every factor is 1.  Both certificates are verified by
    multiplication first (see :class:`TorsionCertificate`).

    The report is then cross-checked: K0-injectivity must imply
    injectivity, surjectivity must imply K0-surjectivity and unitality, the
    surjectivity equivalence must hold, and the gcd conditions required by a
    torsion-free cokernel must hold for nonzero maps.  A failed check raises
    InvariantViolation, also under ``python -O``.
    """
    e = h.matrix
    torsion_free, certificate = _torsion_from_smith(e, smith_normal_form(e))
    factors = certificate.smith.invariant_factors
    gcd_value = certificate.minor_gcd

    phi_inj = is_injective(h)
    phi_sur = is_surjective(h)
    phi_uni = is_unital(h)
    k0_inj = len(factors) == e.cols
    k0_sur = len(factors) == e.rows and torsion_free
    k0_uni = phi_uni

    if e.is_zero():
        entry_gcd = 0
        column_gcds = tuple(0 for _ in range(e.cols))
    else:
        entry_gcd, column_gcds = necessary_gcd_conditions(h)

    if k0_inj and not phi_inj:
        raise InvariantViolation("K0-injective map must be injective")
    if phi_sur and not (k0_sur and phi_uni):
        raise InvariantViolation("surjective map must be K0-surjective and unital")
    if phi_sur != (k0_sur and phi_uni and _row_pattern_condition(e)):
        raise InvariantViolation(
            "surjectivity must match the three-way characterisation"
        )
    if (certificate.left_inverse is not None) != (gcd_value == 1 and k0_inj):
        raise InvariantViolation("left inverse certificate out of sync")
    if not e.is_zero() and torsion_free:
        if entry_gcd != 1:
            raise InvariantViolation("torsion-free cokernel forces entry gcd 1")
        if k0_inj and any(c != 1 for c in column_gcds):
            raise InvariantViolation(
                "torsion-free cokernel with injective K0 map forces column gcds 1"
            )

    notes = []
    if k0_inj:
        notes.append(
            "K0 map injective, hence the homomorphism is injective "
            "(injectivity descends from the K0 level)."
        )
    if phi_sur:
        notes.append(
            "Homomorphism surjective, hence the K0 map is surjective and "
            "the map is unital."
        )
    notes.append(
        "Unitality holds at the algebra level iff it holds at the K0 level; "
        + ("both hold here." if phi_uni else "neither holds here.")
    )
    if certificate.criterion == "minor-gcd":
        notes.append(
            f"Cokernel torsion-freeness decided by the minor-gcd criterion "
            f"(gcd of full square minors = {gcd_value})."
        )
    else:
        notes.append(
            "Cokernel torsion-freeness decided by the invariant factors "
            f"{tuple(factors)} of the Smith normal form."
        )

    return AnalysisReport(
        phi_injective=phi_inj,
        phi_surjective=phi_sur,
        phi_unital=phi_uni,
        k0_injective=k0_inj,
        k0_surjective=k0_sur,
        k0_unital=k0_uni,
        cokernel_torsion_free=torsion_free,
        torsion_criterion=certificate.criterion,
        minor_gcd=gcd_value,
        left_inverse_certificate=certificate.left_inverse,
        invariant_factors=tuple(factors),
        entry_gcd=entry_gcd,
        column_gcds=column_gcds,
        notes=tuple(notes),
    )
