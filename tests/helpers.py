"""Shared generators and small independent oracles for the test suite.

The rank and product oracles here deliberately avoid the library's own code
paths (Fractions instead of fraction-free elimination, plain list products
instead of IntMatrix.__matmul__) so agreement checks mean something.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

from hypothesis import strategies as st

from k0hom import (
    FdAlgebra,
    FdHom,
    IntMatrix,
    SmithDecomposition,
    make_hom,
    smith_normal_form,
)


def fraction_rank(rows: list[list[int]]) -> int:
    """Rank over Q by textbook Gaussian elimination on Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        for r in range(rank + 1, nrows):
            if mat[r][col] != 0:
                f = mat[r][col] / lead
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def matmul_lists(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Plain list-of-lists matrix product, the oracle for composition."""
    assert len(a[0]) == len(b)
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def is_row_pattern(m: IntMatrix) -> bool:
    """Every row has exactly one entry equal to 1 and zeros elsewhere."""
    for i in range(m.rows):
        row = m.row(i)
        if sum(1 for x in row if x != 0) != 1 or max(row) != 1:
            return False
    return True


def random_matrix(
    rng: random.Random, rows: int, cols: int, lo: int = -9, hi: int = 9
) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def random_full_column_rank(rng: random.Random, max_rows: int = 6) -> IntMatrix:
    """Tall matrix with independent columns: rows <= 6, cols <= rows, entries in [-9, 9]."""
    while True:
        ell = rng.randint(1, max_rows)
        k = rng.randint(1, ell)
        m = random_matrix(rng, ell, k)
        if fraction_rank(m.to_rows()) == k:
            return m


def random_rank_deficient(rng: random.Random, max_rows: int = 6) -> IntMatrix:
    """Tall matrix whose columns are dependent: one column is a combination
    of the others."""
    ell = rng.randint(2, max_rows)
    k = rng.randint(2, ell)
    base = [[rng.randint(-9, 9) for _ in range(k - 1)] for _ in range(ell)]
    coeffs = [rng.randint(-2, 2) for _ in range(k - 1)]
    dep = [sum(c * row[j] for j, c in enumerate(coeffs)) for row in base]
    pos = rng.randrange(k)
    rows = [row[:pos] + [d] + row[pos:] for row, d in zip(base, dep)]
    return IntMatrix.from_rows(rows)


def random_hom(rng: random.Random) -> FdHom:
    """Valid-by-construction homomorphism: block counts <= 4, block sizes <= 5,
    multiplicities <= 3, slack in {0, 1, 2} (bumped to 1 for all-zero rows so
    every target block size stays positive)."""
    k = rng.randint(1, 4)
    ell = rng.randint(1, 4)
    source = FdAlgebra(tuple(rng.randint(1, 5) for _ in range(k)))
    entries = [[rng.randint(0, 3) for _ in range(k)] for _ in range(ell)]
    target_blocks = []
    for i in range(ell):
        used = sum(entries[i][j] * source.blocks[j] for j in range(k))
        s = rng.randint(0, 2)
        if used + s == 0:
            s = 1
        target_blocks.append(used + s)
    target = FdAlgebra(tuple(target_blocks))
    return make_hom(source, target, IntMatrix.from_rows(entries))


def random_chain(rng: random.Random, length: int) -> list[FdHom]:
    """Composable homs built stage by stage with the recipe above."""
    k = rng.randint(1, 4)
    current = FdAlgebra(tuple(rng.randint(1, 5) for _ in range(k)))
    chain = []
    for _ in range(length):
        ell = rng.randint(1, 4)
        width = current.num_blocks
        entries = [[rng.randint(0, 3) for _ in range(width)] for _ in range(ell)]
        blocks = []
        for i in range(ell):
            used = sum(entries[i][j] * current.blocks[j] for j in range(width))
            s = rng.randint(0, 2)
            if used + s == 0:
                s = 1
            blocks.append(used + s)
        target = FdAlgebra(tuple(blocks))
        chain.append(make_hom(current, target, IntMatrix.from_rows(entries)))
        current = target
    return chain


def random_row_pattern_matrix(
    rng: random.Random, max_rows: int = 5, max_cols: int = 5
) -> IntMatrix:
    ell = rng.randint(1, max_rows)
    k = rng.randint(1, max_cols)
    rows = []
    for _ in range(ell):
        row = [0] * k
        row[rng.randrange(k)] = 1
        rows.append(row)
    return IntMatrix.from_rows(rows)


# --- hypothesis strategies ------------------------------------------------


@st.composite
def st_matrices(draw, max_rows=5, max_cols=5, lo=-9, hi=9):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    rows = draw(
        st.lists(
            st.lists(st.integers(lo, hi), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return IntMatrix.from_rows(rows)


@st.composite
def st_square_matrices(draw, max_n=5, lo=-9, hi=9):
    n = draw(st.integers(1, max_n))
    rows = draw(
        st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    return IntMatrix.from_rows(rows)


@st.composite
def st_tall_matrices(draw, max_rows=5, lo=-9, hi=9):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, r))
    rows = draw(
        st.lists(
            st.lists(st.integers(lo, hi), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return IntMatrix.from_rows(rows)


def _draw_hom(draw, k: int, ell: int) -> FdHom:
    source = FdAlgebra(tuple(draw(st.integers(1, 5)) for _ in range(k)))
    entries = [[draw(st.integers(0, 3)) for _ in range(k)] for _ in range(ell)]
    blocks = []
    for i in range(ell):
        used = sum(entries[i][j] * source.blocks[j] for j in range(k))
        s = draw(st.integers(0, 2))
        if used + s == 0:
            s = 1
        blocks.append(used + s)
    return make_hom(
        source, FdAlgebra(tuple(blocks)), IntMatrix.from_rows(entries)
    )


@st.composite
def st_homs(draw):
    """The randomized-hom recipe as a hypothesis strategy."""
    k = draw(st.integers(1, 4))
    ell = draw(st.integers(1, 4))
    return _draw_hom(draw, k, ell)


@st.composite
def st_tall_homs(draw, max_rows=8, max_cols=4):
    """The same recipe restricted to tall and square multiplicity matrices."""
    k = draw(st.integers(1, max_cols))
    ell = draw(st.integers(k, max_rows))
    return _draw_hom(draw, k, ell)


@st.composite
def st_row_pattern_matrices(draw, max_rows=5, max_cols=5):
    ell = draw(st.integers(1, max_rows))
    k = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(ell):
        row = [0] * k
        row[draw(st.integers(0, k - 1))] = 1
        rows.append(row)
    return IntMatrix.from_rows(rows)


def corrupted_smith_normal_form(e: IntMatrix) -> SmithDecomposition:
    """A Smith normal form whose first invariant factor is off by one.

    D still equals the diagonal of the reported factors, so only the
    multiplication check ``U @ E @ V == D`` can notice.
    """
    snf = smith_normal_form(e)
    rows = snf.D.to_rows()
    rows[0][0] += 1
    factors = (rows[0][0],) + snf.invariant_factors[1:]
    return dataclasses.replace(
        snf, D=IntMatrix.from_rows(rows), invariant_factors=factors
    )
