import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fraction_rank,
    random_matrix,
    st_matrices,
    st_square_matrices,
    st_tall_matrices,
)
from k0hom import intlin, oracle
from k0hom.intlin import (
    DimensionError,
    EnumerationCapExceeded,
    IntMatrix,
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

# The running example used throughout: a 3x2 matrix whose full square minors
# are -6, 15, 10 with gcd 1.
EXAMPLE = IntMatrix.from_rows([[3, 3], [2, 0], [0, 5]])


class TestIntMatrix:
    def test_construction_and_indexing(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert m[1, 2] == 6
        assert m.row(0) == (1, 2, 3)
        assert m.column(1) == (2, 5)
        assert m.transpose().to_rows() == [[1, 4], [2, 5], [3, 6]]

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            IntMatrix.from_rows([])
        with pytest.raises(DimensionError):
            IntMatrix(0, 3, ())

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_entry_count_enforced(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            IntMatrix(1, 2, (1.5, 2))

    def test_matmul_shapes(self):
        a = IntMatrix.from_rows([[1, 2]])
        with pytest.raises(DimensionError):
            a @ a

    def test_matmul_and_scalar(self):
        assert (EXAMPLE.transpose() @ EXAMPLE).to_rows() == [[13, 9], [9, 34]]
        assert (2 * IntMatrix.identity(2)).to_rows() == [[2, 0], [0, 2]]
        assert (-EXAMPLE).to_rows() == [[-3, -3], [-2, 0], [0, -5]]

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            EXAMPLE[3, 0]


class TestDeterminant:
    def test_identity(self):
        assert determinant(IntMatrix.identity(2)) == 1

    def test_two_by_two(self):
        assert determinant(IntMatrix.from_rows([[3, 3], [2, 0]])) == -6

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            determinant(EXAMPLE)

    def test_random_against_permutation_expansion(self):
        rng = random.Random(505)
        for _ in range(25):
            m = random_matrix(rng, 5, 5)
            assert determinant(m) == oracle.det_permutation(m)

    @given(st_square_matrices(max_n=5))
    def test_matches_permutation_oracle(self, m):
        assert determinant(m) == oracle.det_permutation(m)

    @given(st_square_matrices(max_n=5))
    def test_transpose_invariant(self, m):
        assert determinant(m) == determinant(m.transpose())


class TestAdjugate:
    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[3, 3], [2, 0]], [[0, -3], [-2, 3]]),
            ([[2, 0], [0, 5]], [[5, 0], [0, 2]]),
            ([[3, 3], [0, 5]], [[5, -3], [0, 3]]),
        ],
    )
    def test_two_by_two_blocks(self, rows, expected):
        assert adjugate(IntMatrix.from_rows(rows)).to_rows() == expected

    def test_identity(self):
        assert adjugate(IntMatrix.identity(3)) == IntMatrix.identity(3)

    def test_one_by_one_convention(self):
        assert adjugate(IntMatrix.from_rows([[7]])).to_rows() == [[1]]

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            adjugate(EXAMPLE)

    @given(st_square_matrices(max_n=5))
    def test_adjugate_identity(self, m):
        d = determinant(m)
        scaled_identity = d * IntMatrix.identity(m.rows)
        assert adjugate(m) @ m == scaled_identity
        assert m @ adjugate(m) == scaled_identity


class TestFullSquareSubmatrices:
    def test_tall_example(self):
        got = list(full_square_submatrices(EXAMPLE))
        assert [idx for idx, _ in got] == [(0, 1), (0, 2), (1, 2)]
        assert got[0][1].to_rows() == [[3, 3], [2, 0]]
        assert got[1][1].to_rows() == [[3, 3], [0, 5]]
        assert got[2][1].to_rows() == [[2, 0], [0, 5]]

    def test_square_yields_itself(self):
        got = list(full_square_submatrices(IntMatrix.identity(2)))
        assert got == [((0, 1), IntMatrix.identity(2))]

    def test_wide_selects_columns(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        got = list(full_square_submatrices(m))
        assert [idx for idx, _ in got] == [(0, 1), (0, 2), (1, 2)]
        assert got[1][1].to_rows() == [[1, 3], [4, 6]]

    @given(st_matrices(max_rows=5, max_cols=5))
    def test_lexicographic_order(self, m):
        indices = [idx for idx, _ in full_square_submatrices(m)]
        assert indices == sorted(indices)


class TestMinorGcd:
    def test_example(self):
        result = minor_gcd(EXAMPLE)
        assert result.d == 1
        assert result.exhausted
        assert sorted(det for _, det in result.witnesses) == [-6, 10, 15]

    def test_identity(self):
        result = minor_gcd(IntMatrix.identity(4))
        assert result.d == 1 and len(result.witnesses) == 1

    def test_enumerated_two_by_two_minors(self):
        m = IntMatrix.from_rows([[2, 0], [0, 2], [0, 0]])
        # direct enumeration oracle for the expected gcd
        dets = [
            oracle.det_permutation(sub) for _, sub in full_square_submatrices(m)
        ]
        assert sorted(dets) == [0, 0, 4]
        assert minor_gcd(m).d == 4

    def test_zero_matrix(self):
        assert minor_gcd(IntMatrix.zeros(3, 2)).d == 0

    def test_early_exit_stops_at_unit_gcd(self):
        # first full square minor is already 1, so only one witness is kept
        m = IntMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
        result = minor_gcd(m, early_exit=True)
        assert result.d == 1
        assert not result.exhausted
        assert result.witnesses == (((0, 1), 1),)

    def test_early_exit_agrees(self):
        rng = random.Random(99)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert minor_gcd(m, early_exit=True).d == minor_gcd(m).d

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            minor_gcd(EXAMPLE, max_submatrices=2)

    def test_cap_decided_before_any_determinant(self, monkeypatch):
        calls = []

        def counting(m):
            calls.append(m)
            return determinant(m)

        monkeypatch.setattr(intlin, "determinant", counting)
        tall = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]] * 2)
        with pytest.raises(EnumerationCapExceeded):
            scaled_left_inverse(tall, max_submatrices=5)
        with pytest.raises(EnumerationCapExceeded):
            minor_gcd(tall, max_submatrices=5)
        assert calls == []
        # with early exit only the evaluated prefix counts against the cap
        assert minor_gcd(tall, early_exit=True, max_submatrices=1).d == 1
        assert len(calls) == 1

    @given(st_matrices(max_rows=5, max_cols=5))
    def test_early_exit_property(self, m):
        assert minor_gcd(m, early_exit=True).d == minor_gcd(m).d


class TestGcdWithBezout:
    def test_example_list(self):
        values = [-6, 10, 15]
        result = gcd_with_bezout(values)
        assert result.g == 1
        assert sum(c * v for c, v in zip(result.coefficients, values)) == 1

    def test_all_zero(self):
        result = gcd_with_bezout([0, 0])
        assert result.g == 0
        assert result.coefficients == (0, 0)

    def test_pair(self):
        values = [6, 10]
        result = gcd_with_bezout(values)
        assert result.g == 2
        assert sum(c * v for c, v in zip(result.coefficients, values)) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gcd_with_bezout([])

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=8))
    def test_identity_and_divisibility(self, values):
        result = gcd_with_bezout(values)
        assert result.g >= 0
        assert sum(c * v for c, v in zip(result.coefficients, values)) == result.g
        for v in values:
            assert result.g == 0 and v == 0 or v % result.g == 0


class TestScatteredAdjugate:
    @given(st_tall_matrices(max_rows=5))
    def test_key_identity(self, e):
        k = e.cols
        for idx, block in full_square_submatrices(e):
            scattered = scattered_adjugate(block, idx, e.rows)
            assert scattered @ e == determinant(block) * IntMatrix.identity(k)

    def test_bad_width(self):
        block = IntMatrix.identity(2)
        with pytest.raises(ValueError):
            scattered_adjugate(block, (0, 5), 3)


class TestScaledLeftInverse:
    def test_injected_coefficients_reproduce_published_inverse(self):
        result = scaled_left_inverse(EXAMPLE, coefficients=(4, 1, 1))
        assert result.d == 1
        assert not result.degenerate
        assert result.matrix.to_rows() == [[5, -7, -3], [-8, 12, 5]]
        assert result.matrix @ EXAMPLE == IntMatrix.identity(2)

    def test_identity(self):
        result = scaled_left_inverse(IntMatrix.identity(3))
        assert result.d == 1 and result.matrix == IntMatrix.identity(3)

    def test_single_column(self):
        e = IntMatrix.from_rows([[2], [0]])
        result = scaled_left_inverse(e)
        assert result.d == 2
        assert result.matrix @ e == IntMatrix.from_rows([[2]])

    def test_degenerate(self):
        e = IntMatrix.from_rows([[1, 2], [2, 4], [3, 6]])
        result = scaled_left_inverse(e)
        assert result.d == 0 and result.degenerate
        assert result.matrix.is_zero()

    def test_wide_rejected(self):
        with pytest.raises(DimensionError):
            scaled_left_inverse(IntMatrix.from_rows([[1, 2, 3]]))

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            scaled_left_inverse(EXAMPLE, coefficients=(1, 1))
        with pytest.raises(ValueError):
            scaled_left_inverse(EXAMPLE, coefficients=(1, 1, 1))

    @given(st_tall_matrices(max_rows=5))
    def test_scaled_identity_everywhere(self, e):
        result = scaled_left_inverse(e)
        assert result.matrix @ e == result.d * IntMatrix.identity(e.cols)
        if fraction_rank(e.to_rows()) == e.cols:
            assert result.d >= 1
        else:
            assert result.d == 0 and result.degenerate


class TestOneSidedInverses:
    def test_left_example(self):
        k = left_inverse(EXAMPLE)
        assert k is not None and k @ EXAMPLE == IntMatrix.identity(2)

    def test_left_none(self):
        assert left_inverse(IntMatrix.from_rows([[2], [0]])) is None

    def test_left_identity(self):
        assert left_inverse(IntMatrix.identity(3)) == IntMatrix.identity(3)

    def test_left_dimension_error(self):
        with pytest.raises(DimensionError):
            left_inverse(IntMatrix.from_rows([[1, 2]]))

    def test_right_of_transposed_example(self):
        wide = EXAMPLE.transpose()
        r = right_inverse(wide)
        assert r is not None and wide @ r == IntMatrix.identity(2)

    def test_right_identity(self):
        assert right_inverse(IntMatrix.identity(2)) == IntMatrix.identity(2)

    def test_right_none(self):
        assert right_inverse(IntMatrix.from_rows([[2, 4]])) is None

    def test_right_dimension_error(self):
        with pytest.raises(DimensionError):
            right_inverse(EXAMPLE)


class TestColumnRank:
    def test_example(self):
        assert column_rank(EXAMPLE) == 2

    def test_wide(self):
        assert column_rank(IntMatrix.from_rows([[1, 1, 0], [0, 0, 1]])) == 2

    def test_zero(self):
        assert column_rank(IntMatrix.zeros(3, 3)) == 0

    @given(st_matrices(max_rows=6, max_cols=6))
    def test_matches_fraction_elimination(self, m):
        assert column_rank(m) == fraction_rank(m.to_rows())


class TestSmithNormalForm:
    def test_identity(self):
        snf = smith_normal_form(IntMatrix.identity(3))
        assert snf.D == IntMatrix.identity(3)
        assert snf.invariant_factors == (1, 1, 1)

    def test_diag_two_three(self):
        snf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert snf.invariant_factors == (1, 6)

    def test_example(self):
        assert smith_normal_form(EXAMPLE).invariant_factors == (1, 1)

    @given(st_matrices(max_rows=5, max_cols=5))
    @settings(max_examples=150)
    def test_decomposition_valid(self, e):
        snf = smith_normal_form(e)
        assert snf.D == snf.U @ e @ snf.V
        assert abs(determinant(snf.U)) == 1
        assert abs(determinant(snf.V)) == 1
        diag = [snf.D[i, i] for i in range(min(e.rows, e.cols))]
        for i in range(snf.D.rows):
            for j in range(snf.D.cols):
                if i != j:
                    assert snf.D[i, j] == 0
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x != 0]
        assert snf.invariant_factors == tuple(nonzero)
        # zeros only after the nonzero prefix
        assert diag[: len(nonzero)] == nonzero
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


class TestThreeWayEquivalence:
    @given(st_tall_matrices(max_rows=5))
    def test_invertibility_gcd_and_factors_agree(self, e):
        d = minor_gcd(e).d
        inverse = left_inverse(e)
        snf = smith_normal_form(e)
        unit_factors = (
            len(snf.invariant_factors) == e.cols
            and all(f == 1 for f in snf.invariant_factors)
        )
        assert (d == 1) == (inverse is not None) == unit_factors
        if inverse is not None:
            assert inverse @ e == IntMatrix.identity(e.cols)
