"""Exact integer linear algebra on arbitrary-precision integers.

All matrices are immutable and every operation is a pure function, so values
can be shared freely between threads.  Arithmetic is done with plain Python
ints; nothing here ever rounds, overflows, or touches floating point.  That
is the whole point: determinants and gcds of minors must be exact because the
downstream decisions (one-sided invertibility, torsion-freeness of cokernels)
are yes/no questions about integers.

The centrepiece is :func:`scaled_left_inverse`, which builds an integer
matrix K with ``K @ E == d * I`` where d is the gcd of the determinants of
the full square submatrices of E.  The construction scatters the adjugate of
each full square submatrix back into the tall shape and combines the pieces
with Bezout coefficients for the minor determinants.  When d == 1 this gives
a genuine one-sided integer inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence

__all__ = [
    "DimensionError",
    "PreconditionError",
    "EnumerationCapExceeded",
    "InvariantViolation",
    "IntMatrix",
    "MinorGcdResult",
    "BezoutResult",
    "ScaledLeftInverse",
    "SmithDecomposition",
    "determinant",
    "adjugate",
    "full_square_submatrices",
    "minor_gcd",
    "gcd_with_bezout",
    "scattered_adjugate",
    "scaled_left_inverse",
    "left_inverse",
    "right_inverse",
    "column_rank",
    "smith_normal_form",
    "DEFAULT_SUBMATRIX_CAP",
]


class DimensionError(ValueError):
    """Matrix shapes are incompatible with the requested operation."""


class PreconditionError(ValueError):
    """An operation was called outside its mathematical domain."""


class EnumerationCapExceeded(RuntimeError):
    """Submatrix enumeration would evaluate more minors than the cap allows."""


class InvariantViolation(RuntimeError):
    """A result failed its own verification, such as ``U @ E @ V != D``.

    Raised by explicit checks rather than ``assert``, so it also fires under
    ``python -O``.  It signals a defect in the library, never bad input.
    """


#: Default bound on the number of full square submatrices that gcd/inverse
#: routines will enumerate before giving up with EnumerationCapExceeded.
DEFAULT_SUBMATRIX_CAP = 10**6


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix, stored row-major.

    Empty matrices are rejected: every matrix has at least one row and one
    column.  Entries are arbitrary-precision Python ints.

    >>> m = IntMatrix.from_rows([[3, 3], [2, 0], [0, 5]])
    >>> m.rows, m.cols
    (3, 2)
    >>> m[2, 1]
    5
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise DimensionError("matrices must have at least one row and one column")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        if not all(isinstance(x, int) for x in self.entries):
            raise TypeError("matrix entries must be ints")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise DimensionError("matrices must have at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("all rows must have the same length")
        flat = tuple(int(x) for row in rows for x in row)
        return cls(len(rows), width, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {key} out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)),
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        return IntMatrix.from_rows([[self[i, j] for j in col_idx] for i in row_idx])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        a, b = self.to_rows(), other.to_rows()
        cols = list(zip(*b))
        prod = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
        return IntMatrix.from_rows(prod)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix addition requires equal shapes")
        return IntMatrix(
            self.rows, self.cols, tuple(x + y for x, y in zip(self.entries, other.entries))
        )

    def __rmul__(self, scalar: int) -> "IntMatrix":
        if not isinstance(scalar, int):
            return NotImplemented
        return IntMatrix(self.rows, self.cols, tuple(scalar * x for x in self.entries))

    def __neg__(self) -> "IntMatrix":
        return -1 * self

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix.from_rows({self.to_rows()!r})"

    def __str__(self) -> str:
        text = [[str(x) for x in self.row(i)] for i in range(self.rows)]
        widths = [max(len(text[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        lines = [
            "[ " + "  ".join(s.rjust(w) for s, w in zip(row, widths)) + " ]"
            for row in text
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class MinorGcdResult:
    """Gcd of the determinants of the full square submatrices of a matrix.

    ``witnesses`` records every (index set, determinant) pair that was
    actually evaluated; index sets refer to rows for tall matrices and to
    columns for wide ones.  ``exhausted`` is False only when enumeration
    stopped early because the running gcd reached 1, in which case d == 1.
    """

    d: int
    witnesses: tuple[tuple[tuple[int, ...], int], ...]
    exhausted: bool


@dataclass(frozen=True)
class BezoutResult:
    """gcd g >= 0 of a list of integers together with coefficients for it.

    The defining identity is ``sum(c * v for c, v in zip(coefficients,
    values)) == g``.  Coefficients are not unique; only the identity is part
    of the contract.
    """

    g: int
    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class ScaledLeftInverse:
    """Result of the scaled one-sided inversion: ``matrix @ e == d * I``.

    ``degenerate`` is True exactly when the input is rank-deficient; then
    d == 0 and the matrix is zero, which still satisfies the identity but
    certifies nothing.
    """

    d: int
    matrix: IntMatrix
    degenerate: bool


@dataclass(frozen=True)
class SmithDecomposition:
    """Smith normal form D = U @ E @ V with unimodular U and V.

    D is diagonal, its nonzero diagonal entries are positive and each
    divides the next; they are listed in ``invariant_factors``.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    invariant_factors: tuple[int, ...]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with g = gcd(a, b) >= 0 = a*x + b*y."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every intermediate value is a minor of the input, so the divisions are
    exact and intermediate growth stays polynomial.

    >>> determinant(IntMatrix.from_rows([[3, 3], [2, 0]]))
    -6
    """
    if m.rows != m.cols:
        raise DimensionError(f"determinant requires a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate(m: IntMatrix) -> IntMatrix:
    """Transpose of the cofactor matrix; adj(m) @ m == m @ adj(m) == det(m) * I.

    The 1x1 adjugate is [[1]] by convention, so the identity holds there too.

    >>> print(adjugate(IntMatrix.from_rows([[3, 3], [2, 0]])))
    [  0  -3 ]
    [ -2   3 ]
    """
    if m.rows != m.cols:
        raise DimensionError(f"adjugate requires a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n == 1:
        return IntMatrix.identity(1)
    indices = list(range(n))
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        keep_rows = indices[:i] + indices[i + 1 :]
        for j in range(n):
            keep_cols = indices[:j] + indices[j + 1 :]
            cof = determinant(m.submatrix(keep_rows, keep_cols))
            adj[j][i] = -cof if (i + j) % 2 else cof
    return IntMatrix.from_rows(adj)


def full_square_submatrices(
    e: IntMatrix,
) -> Iterator[tuple[tuple[int, ...], IntMatrix]]:
    """Yield the square submatrices of e with min(rows, cols) rows.

    For a tall (or square) matrix this selects subsets of rows; for a wide
    matrix it selects subsets of columns.  Index sets come out in
    lexicographic order, which fixes the enumeration order everywhere else
    in this module.
    """
    if e.rows >= e.cols:
        all_cols = range(e.cols)
        for idx in combinations(range(e.rows), e.cols):
            yield idx, e.submatrix(idx, all_cols)
    else:
        all_rows = range(e.rows)
        for idx in combinations(range(e.cols), e.rows):
            yield idx, e.submatrix(all_rows, idx)


def minor_gcd(
    e: IntMatrix,
    early_exit: bool = False,
    max_submatrices: int = DEFAULT_SUBMATRIX_CAP,
) -> MinorGcdResult:
    """Gcd of the determinants of all full square submatrices of e.

    With ``early_exit`` the enumeration stops as soon as the running gcd
    hits 1; the reported d is unchanged but ``exhausted`` is False and the
    witness list only covers the evaluated prefix.  An all-zero matrix has
    d == 0.
    """
    witnesses: list[tuple[tuple[int, ...], int]] = []
    d = 0
    count = 0
    exhausted = True
    for idx, sub in full_square_submatrices(e):
        count += 1
        if count > max_submatrices:
            raise EnumerationCapExceeded(
                f"more than {max_submatrices} full square submatrices; "
                "raise the cap or use the Smith normal form route"
            )
        det = determinant(sub)
        witnesses.append((idx, det))
        d = math.gcd(d, det)
        if early_exit and d == 1:
            exhausted = False
            break
    return MinorGcdResult(d=d, witnesses=tuple(witnesses), exhausted=exhausted)


def gcd_with_bezout(values: Sequence[int]) -> BezoutResult:
    """gcd of a list with Bezout coefficients, by left-folding extended Euclid.

    The gcd of an all-zero list is 0 with all-zero coefficients.

    >>> r = gcd_with_bezout([-6, 10, 15])
    >>> r.g
    1
    >>> sum(c * v for c, v in zip(r.coefficients, [-6, 10, 15]))
    1
    """
    values = [int(v) for v in values]
    if not values:
        raise ValueError("gcd of an empty list is undefined")
    g = 0
    coeffs: list[int] = []
    for v in values:
        g, x, y = _xgcd(g, v)
        coeffs = [c * x for c in coeffs]
        coeffs.append(y)
    if g == 0:
        coeffs = [0] * len(values)
    return BezoutResult(g=g, coefficients=tuple(coeffs))


def scattered_adjugate(
    f: IntMatrix, row_indices: Sequence[int], width: int
) -> IntMatrix:
    """Embed adj(f) into a k x width matrix along the given column positions.

    Column ``row_indices[t]`` of the result is column t of adj(f); all other
    columns are zero.  When f sits on rows ``row_indices`` of a tall matrix
    E, the result S satisfies ``S @ E == det(f) * I``: the zero columns kill
    the rows of E outside f, and adj(f) @ f accounts for the rest.
    """
    if f.rows != f.cols:
        raise DimensionError("scattered adjugate requires a square block")
    k = f.rows
    if len(row_indices) != k:
        raise ValueError("need exactly one target column per row of the block")
    if any(not 0 <= i < width for i in row_indices):
        raise ValueError("row indices out of range for the requested width")
    adj = adjugate(f)
    out = [[0] * width for _ in range(k)]
    for t, col in enumerate(row_indices):
        for r in range(k):
            out[r][col] = adj[r, t]
    return IntMatrix.from_rows(out)


def scaled_left_inverse(
    e: IntMatrix,
    coefficients: Optional[Sequence[int]] = None,
    early_exit: bool = False,
    max_submatrices: int = DEFAULT_SUBMATRIX_CAP,
) -> ScaledLeftInverse:
    """Construct K with ``K @ e == d * I`` where d is the minor gcd of e.

    Requires at least as many rows as columns.  For each full square
    submatrix F_r on rows i_1 < ... < i_k the scattered adjugate S_r
    satisfies ``S_r @ e == det(F_r) * I``; summing ``c_r * S_r`` with Bezout
    coefficients for the determinants yields ``K @ e == d * I`` exactly.

    ``coefficients`` injects a specific Bezout combination (indexed by the
    lexicographic submatrix enumeration); it must reproduce d.  With
    ``early_exit`` and no injected coefficients the enumeration stops once
    the running gcd reaches 1, combining only the evaluated prefix.

    A rank-deficient input has d == 0: the result is flagged degenerate and
    K is the zero matrix.
    """
    if e.rows < e.cols:
        raise DimensionError(
            f"need rows >= cols for a left inverse, got {e.rows}x{e.cols}"
        )
    k, width = e.cols, e.rows
    stop_at_unit = early_exit and coefficients is None
    picked: list[tuple[tuple[int, ...], int]] = []
    d = 0
    count = 0
    for idx, sub in full_square_submatrices(e):
        count += 1
        if count > max_submatrices:
            raise EnumerationCapExceeded(
                f"more than {max_submatrices} full square submatrices"
            )
        det = determinant(sub)
        picked.append((idx, det))
        d = math.gcd(d, det)
        if stop_at_unit and d == 1:
            break
    if d == 0:
        return ScaledLeftInverse(d=0, matrix=IntMatrix.zeros(k, width), degenerate=True)
    dets = [det for _, det in picked]
    if coefficients is not None:
        coeffs = [int(c) for c in coefficients]
        if len(coeffs) != len(dets):
            raise ValueError(
                f"expected {len(dets)} coefficients (one per full square submatrix), "
                f"got {len(coeffs)}"
            )
        if sum(c * det for c, det in zip(coeffs, dets)) != d:
            raise ValueError("injected coefficients do not combine the minors to d")
    else:
        coeffs = list(gcd_with_bezout(dets).coefficients)
    acc = [[0] * width for _ in range(k)]
    all_cols = range(k)
    for (idx, _), c in zip(picked, coeffs):
        if c == 0:
            continue
        block = e.submatrix(idx, all_cols)
        part = scattered_adjugate(block, idx, width)
        for r in range(k):
            row = part.row(r)
            arow = acc[r]
            for col in range(width):
                if row[col]:
                    arow[col] += c * row[col]
    return ScaledLeftInverse(d=d, matrix=IntMatrix.from_rows(acc), degenerate=False)


def left_inverse(
    e: IntMatrix, max_submatrices: int = DEFAULT_SUBMATRIX_CAP
) -> Optional[IntMatrix]:
    """K with ``K @ e == I`` if the minor gcd of e is 1, else None.

    Requires rows >= cols.
    """
    if e.rows < e.cols:
        raise DimensionError(
            f"need rows >= cols for a left inverse, got {e.rows}x{e.cols}"
        )
    result = scaled_left_inverse(e, early_exit=True, max_submatrices=max_submatrices)
    if result.d != 1:
        return None
    return result.matrix


def right_inverse(
    e: IntMatrix, max_submatrices: int = DEFAULT_SUBMATRIX_CAP
) -> Optional[IntMatrix]:
    """R with ``e @ R == I`` if the minor gcd of e is 1, else None.

    Requires cols >= rows; reduces to the left inverse of the transpose.
    """
    if e.cols < e.rows:
        raise DimensionError(
            f"need cols >= rows for a right inverse, got {e.rows}x{e.cols}"
        )
    k = left_inverse(e.transpose(), max_submatrices=max_submatrices)
    if k is None:
        return None
    return k.transpose()


def column_rank(e: IntMatrix) -> int:
    """Rank of e over the rationals, by fraction-free elimination.

    The columns of e are linearly independent (over Z, equivalently over Q)
    exactly when the rank equals the number of columns.
    """
    a = e.to_rows()
    rows, cols = e.rows, e.cols
    rank = 0
    prev = 1
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        p = a[rank][col]
        for i in range(rank + 1, rows):
            f = a[i][col]
            for j in range(col, cols):
                a[i][j] = (a[i][j] * p - f * a[rank][j]) // prev
        prev = p
        rank += 1
        if rank == rows:
            break
    return rank


def smith_normal_form(e: IntMatrix) -> SmithDecomposition:
    """Smith normal form of e: D = U @ e @ V with unimodular U, V.

    Pivots are chosen with smallest nonzero absolute value, ties broken
    row-major.  After diagonalisation the diagonal is made nonnegative and
    the standard fix-up step enforces the divisibility chain d1 | d2 | ...
    The nonzero diagonal entries are the invariant factors of the cokernel.

    >>> snf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    >>> snf.invariant_factors
    (1, 6)
    """
    rows, cols = e.rows, e.cols
    a = e.to_rows()
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for mat in (a, v):
            for row in mat:
                row[i], row[j] = row[j], row[i]

    def add_row(dst: int, src: int, c: int) -> None:
        for mat in (a, u):
            srow = mat[src]
            mat[dst] = [x + c * y for x, y in zip(mat[dst], srow)]

    def add_col(dst: int, src: int, c: int) -> None:
        for mat in (a, v):
            for row in mat:
                row[dst] += c * row[src]

    def combine_rows(i: int, j: int, x: int, y: int, z: int, w: int) -> None:
        # (row_i, row_j) <- (x*row_i + y*row_j, z*row_i + w*row_j), det +-1
        for mat in (a, u):
            ri, rj = mat[i], mat[j]
            mat[i] = [x * p + y * q for p, q in zip(ri, rj)]
            mat[j] = [z * p + w * q for p, q in zip(ri, rj)]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def select_pivot(t: int) -> Optional[tuple[int, int]]:
        best = 0
        where: Optional[tuple[int, int]] = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (where is None or abs(x) < best):
                    best, where = abs(x), (i, j)
        return where

    limit = min(rows, cols)
    t = 0
    while t < limit:
        pivot = select_pivot(t)
        if pivot is None:
            break
        while True:
            pi, pj = pivot
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        add_row(i, t, -q)
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        add_col(j, t, -q)
                    if a[t][j]:
                        dirty = True
            if not dirty:
                break
            pivot = select_pivot(t)
        t += 1

    for i in range(limit):
        if a[i][i] < 0:
            negate_row(i)

    r = sum(1 for i in range(limit) if a[i][i] != 0)
    i = 0
    while i + 1 < r:
        di, dj = a[i][i], a[i + 1][i + 1]
        if dj % di == 0:
            i += 1
            continue
        # Pull d_{i+1} into column i, replace d_i by gcd and d_{i+1} by lcm,
        # then clear the fill-in; both updated entries stay positive.
        add_col(i, i + 1, 1)
        g, x, y = _xgcd(di, dj)
        combine_rows(i, i + 1, x, y, -(dj // g), di // g)
        add_col(i + 1, i, -(a[i][i + 1] // a[i][i]))
        i = max(i - 1, 0)

    d_matrix = IntMatrix.from_rows(a)
    factors = tuple(a[i][i] for i in range(limit) if a[i][i] != 0)
    return SmithDecomposition(
        U=IntMatrix.from_rows(u),
        D=d_matrix,
        V=IntMatrix.from_rows(v),
        invariant_factors=factors,
    )
