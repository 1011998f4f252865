import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from helpers import (
    corrupted_smith_normal_form,
    is_row_pattern,
    matmul_lists,
    random_chain,
    st_homs,
    st_row_pattern_matrices,
    st_tall_homs,
)
from k0hom import cstar, oracle
from k0hom.cstar import (
    FdAlgebra,
    FdHom,
    InvalidHomError,
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
from k0hom.intlin import (
    DEFAULT_SUBMATRIX_CAP,
    IntMatrix,
    InvariantViolation,
    PreconditionError,
    minor_gcd,
)

# phi: M2 + M3 + M4 -> M5 + M4, (x, y, z) |-> (diag(x, y), z)
A = FdAlgebra.of(2, 3, 4)
B = FdAlgebra.of(5, 4)
PHI_MATRIX = IntMatrix.from_rows([[1, 1, 0], [0, 0, 1]])

# the 3x2 matrix with minor gcd 1, wrapped as a hom from M1 + M1
TALL = IntMatrix.from_rows([[3, 3], [2, 0], [0, 5]])


def phi() -> FdHom:
    return make_hom(A, B, PHI_MATRIX)


def tall_hom() -> FdHom:
    return make_hom(FdAlgebra.of(1, 1), FdAlgebra.of(6, 2, 5), TALL)


def _capped_tall() -> IntMatrix:
    # [I; R], 30x15: C(30, 15) ~ 1.55e8 full square minors, far past the
    # enumeration cap, while the identity block fixes the minor gcd at 1
    rng = random.Random(2001)
    rows = [[int(i == j) for j in range(15)] for i in range(15)]
    rows += [[rng.randint(0, 3) for _ in range(15)] for _ in range(15)]
    return IntMatrix.from_rows(rows)


CAPPED_TALL = _capped_tall()


def unit_block_hom(e: IntMatrix) -> FdHom:
    """e as a hom out of M1 + ... + M1; only zero rows leave slack (of 1)."""
    target = tuple(max(sum(e.row(i)), 1) for i in range(e.rows))
    return make_hom(FdAlgebra((1,) * e.cols), FdAlgebra(target), e)


class TestFdAlgebra:
    def test_of_and_str(self):
        a = FdAlgebra.of(2, 3, 4)
        assert a.blocks == (2, 3, 4)
        assert a.num_blocks == 3
        assert str(a) == "M2 + M3 + M4"

    def test_validation(self):
        with pytest.raises(ValueError):
            FdAlgebra(())
        with pytest.raises(ValueError):
            FdAlgebra.of(2, 0)


class TestMakeHom:
    def test_valid_with_zero_slack(self):
        h = phi()
        assert h.slack == (0, 0)

    def test_identity(self):
        h = identity_hom(FdAlgebra.of(2))
        assert h.slack == (0,)
        assert h.matrix == IntMatrix.identity(1)

    def test_infeasible_rejected_with_row(self):
        with pytest.raises(InvalidHomError, match="row 0"):
            make_hom(A, B, IntMatrix.from_rows([[1, 1, 1], [0, 0, 1]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidHomError, match="negative"):
            make_hom(A, B, IntMatrix.from_rows([[1, -1, 0], [0, 0, 1]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidHomError):
            make_hom(A, B, IntMatrix.identity(2))

    def test_zero_hom_accepted(self):
        h = make_hom(FdAlgebra.of(2), FdAlgebra.of(3), IntMatrix.zeros(1, 1))
        assert h.slack == (3,)


class TestPredicates:
    def test_phi_flags(self):
        h = phi()
        assert is_injective(h)
        assert not k0_injective(h)
        assert k0_surjective(h)
        assert not is_surjective(h)
        assert is_unital(h)

    def test_zero_column_not_injective(self):
        h = make_hom(
            FdAlgebra.of(2, 3), FdAlgebra.of(5), IntMatrix.from_rows([[0, 1]])
        )
        assert not is_injective(h)
        assert not k0_injective(h)

    def test_tall_hom_injective_both_levels(self):
        h = tall_hom()
        assert is_injective(h)
        assert k0_injective(h)

    def test_unital_needs_zero_slack(self):
        h = make_hom(FdAlgebra.of(2), FdAlgebra.of(3), IntMatrix.from_rows([[1]]))
        assert h.slack == (1,)
        assert not is_unital(h)

    def test_identity_surjective(self):
        assert is_surjective(identity_hom(FdAlgebra.of(2, 3)))

    def test_row_pattern_not_enough_without_unitality(self):
        h = make_hom(FdAlgebra.of(2, 3), FdAlgebra.of(5, 4), IntMatrix.identity(2))
        assert not is_surjective(h)

    def test_k0_surjective_identity(self):
        assert k0_surjective(identity_hom(FdAlgebra.of(2, 3, 4)))

    def test_k0_not_surjective_for_doubling(self):
        h = make_hom(FdAlgebra.of(1), FdAlgebra.of(2), IntMatrix.from_rows([[2]]))
        assert not k0_surjective(h)


class TestRowPatternSpanEquivalence:
    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[1, 0], [0, 1]], (True, True)),
            ([[1, 0, 0], [1, 0, 0]], (False, False)),
            ([[1, 0, 0], [0, 0, 1]], (True, True)),
        ],
    )
    def test_examples(self, rows, expected):
        assert row_pattern_span_equivalence(IntMatrix.from_rows(rows)) == expected

    def test_hypothesis_violation_rejected(self):
        with pytest.raises(PreconditionError):
            row_pattern_span_equivalence(IntMatrix.from_rows([[2, 0]]))

    @given(st_row_pattern_matrices())
    def test_flags_always_agree(self, m):
        column_flag, span_flag = row_pattern_span_equivalence(m)
        assert column_flag == span_flag


class TestCokernelTorsionFree:
    def test_tall_hom_torsion_free_with_certificate(self):
        flag, cert = cokernel_torsion_free(tall_hom())
        assert flag
        assert cert.criterion == "minor-gcd"
        assert cert.minor_gcd == 1
        assert cert.left_inverse is not None
        assert cert.left_inverse @ TALL == IntMatrix.identity(2)

    def test_torsion_case(self):
        h = make_hom(
            FdAlgebra.of(1), FdAlgebra.of(2, 1), IntMatrix.from_rows([[2], [0]])
        )
        flag, cert = cokernel_torsion_free(h)
        assert not flag
        assert cert.criterion == "minor-gcd"
        assert cert.minor_gcd == 2
        assert cert.left_inverse is None

    def test_identity(self):
        flag, _ = cokernel_torsion_free(identity_hom(FdAlgebra.of(2, 3)))
        assert flag

    def test_matrix_level_handles_negative_entries(self):
        m = IntMatrix.from_rows([[2, 1], [-1, 0], [0, 3]])
        flag, cert = cokernel_torsion_free_matrix(m)
        assert flag == oracle.torsion_free_by_snf(m)

    def test_dependent_columns_fall_back_to_invariant_factors(self):
        m = IntMatrix.from_rows([[1, 2], [2, 4]])
        flag, cert = cokernel_torsion_free_matrix(m)
        assert cert.criterion == "invariant-factors"
        assert flag == oracle.torsion_free_by_snf(m)

    def test_beyond_enumeration_cap_decided_by_minor_gcd(self):
        e = CAPPED_TALL
        assert math.comb(e.rows, e.cols) > DEFAULT_SUBMATRIX_CAP
        report = analyze(unit_block_hom(e))
        assert report.torsion_criterion == "minor-gcd"
        assert report.cokernel_torsion_free
        assert report.minor_gcd == 1
        assert report.invariant_factors == (1,) * e.cols
        assert report.left_inverse_certificate is not None
        assert report.left_inverse_certificate @ e == IntMatrix.identity(e.cols)

        flag, cert = cokernel_torsion_free_matrix(e)
        assert flag and cert.criterion == "minor-gcd" and cert.minor_gcd == 1
        assert cert.smith.U @ e @ cert.smith.V == cert.smith.D
        assert cert.left_inverse @ e == IntMatrix.identity(e.cols)

    def test_doubled_column_beyond_enumeration_cap_has_even_minor_gcd(self):
        rows = CAPPED_TALL.to_rows()
        for row in rows:
            row[3] *= 2
        e = IntMatrix.from_rows(rows)
        report = analyze(unit_block_hom(e))
        assert report.torsion_criterion == "minor-gcd"
        assert not report.cokernel_torsion_free
        assert report.minor_gcd is not None and report.minor_gcd % 2 == 0
        assert report.left_inverse_certificate is None

        flag, cert = cokernel_torsion_free_matrix(e)
        assert not flag and cert.minor_gcd % 2 == 0 and cert.left_inverse is None


class TestNecessaryGcdConditions:
    def test_tall_hom(self):
        assert necessary_gcd_conditions(tall_hom()) == (1, (1, 1))

    def test_doubled_identity(self):
        h = make_hom(
            FdAlgebra.of(1, 1),
            FdAlgebra.of(2, 2),
            IntMatrix.from_rows([[2, 0], [0, 2]]),
        )
        entry_gcd, column_gcds = necessary_gcd_conditions(h)
        assert entry_gcd == 2
        flag, _ = cokernel_torsion_free(h)
        assert not flag

    def test_single_entry(self):
        h = make_hom(FdAlgebra.of(1), FdAlgebra.of(1), IntMatrix.from_rows([[1]]))
        assert necessary_gcd_conditions(h) == (1, (1,))

    def test_zero_hom_rejected(self):
        h = make_hom(FdAlgebra.of(2), FdAlgebra.of(3), IntMatrix.zeros(1, 1))
        with pytest.raises(PreconditionError):
            necessary_gcd_conditions(h)


class TestCompose:
    def test_identity_laws(self):
        h = phi()
        assert compose(identity_hom(B), h) == h
        assert compose(h, identity_hom(A)) == h

    def test_hand_product(self):
        f = make_hom(
            FdAlgebra.of(1), FdAlgebra.of(2, 3), IntMatrix.from_rows([[1], [1]])
        )
        g = make_hom(
            FdAlgebra.of(2, 3), FdAlgebra.of(5), IntMatrix.from_rows([[1, 1]])
        )
        composite = compose(g, f)
        assert composite.matrix.to_rows() == [[2]]
        assert composite.source == f.source and composite.target == g.target

    def test_middle_mismatch(self):
        f = make_hom(FdAlgebra.of(1), FdAlgebra.of(2), IntMatrix.from_rows([[1]]))
        with pytest.raises(InvalidHomError, match="compose"):
            compose(phi(), f)

    def test_random_chains_match_product_oracle(self):
        rng = random.Random(1234)
        for _ in range(60):
            chain = random_chain(rng, rng.randint(2, 4))
            composite = chain[0]
            for step in chain[1:]:
                composite = compose(step, composite)
            product = chain[0].matrix.to_rows()
            for step in chain[1:]:
                product = matmul_lists(step.matrix.to_rows(), product)
            assert composite.matrix.to_rows() == product


class TestAnalyze:
    def test_phi_report(self):
        report = analyze(phi())
        assert (
            report.phi_injective,
            report.k0_injective,
            report.k0_surjective,
            report.phi_surjective,
            report.phi_unital,
        ) == (True, False, True, False, True)
        assert report.k0_unital is True
        assert report.cokernel_torsion_free is True
        assert report.left_inverse_certificate is None
        assert report.minor_gcd is None

    def test_identity_report(self):
        report = analyze(identity_hom(FdAlgebra.of(2, 3)))
        assert report.phi_injective and report.phi_surjective and report.phi_unital
        assert report.k0_injective and report.k0_surjective and report.k0_unital
        assert report.cokernel_torsion_free
        assert report.left_inverse_certificate == IntMatrix.identity(2)

    def test_tall_hom_report(self):
        report = analyze(tall_hom())
        assert report.k0_injective
        assert report.cokernel_torsion_free
        assert report.minor_gcd == 1
        assert report.left_inverse_certificate is not None
        assert report.left_inverse_certificate @ TALL == IntMatrix.identity(2)
        assert report.invariant_factors == (1, 1)
        assert report.entry_gcd == 1 and report.column_gcds == (1, 1)

    def test_zero_hom_report(self):
        h = make_hom(FdAlgebra.of(2), FdAlgebra.of(3), IntMatrix.zeros(1, 1))
        report = analyze(h)
        assert report.entry_gcd == 0 and report.column_gcds == (0,)
        assert report.cokernel_torsion_free  # cokernel is the free group
        assert not report.phi_injective and not report.k0_injective

    @given(st_homs())
    @settings(max_examples=200)
    def test_cross_level_invariants(self, h):
        report = analyze(h)
        if report.k0_injective:
            assert report.phi_injective
        if report.phi_surjective:
            assert report.k0_surjective and report.phi_unital
        assert report.phi_unital == report.k0_unital == is_unital(h)
        assert report.phi_surjective == (
            report.k0_surjective
            and report.phi_unital
            and is_row_pattern(h.matrix)
        )
        assert (report.left_inverse_certificate is not None) == (
            report.minor_gcd == 1 and report.k0_injective
        )
        if report.left_inverse_certificate is not None:
            assert (
                report.left_inverse_certificate @ h.matrix
                == IntMatrix.identity(h.matrix.cols)
            )
        if not h.matrix.is_zero() and report.cokernel_torsion_free:
            assert report.entry_gcd == 1
            if report.k0_injective:
                assert all(c == 1 for c in report.column_gcds)

    @given(st_homs())
    @settings(max_examples=150)
    def test_minor_criterion_agrees_with_invariant_factors(self, h):
        report = analyze(h)
        factors_all_one = all(f == 1 for f in report.invariant_factors)
        assert report.cokernel_torsion_free == factors_all_one
        if report.k0_injective:
            assert (report.minor_gcd == 1) == factors_all_one

    @given(st_tall_homs(max_rows=8, max_cols=4))
    @settings(max_examples=100)
    def test_snf_route_agrees_with_minor_enumeration(self, h):
        # independent references: the enumerating minor gcd and the
        # determinantal divisors, neither of which runs inside analyze
        report = analyze(h)
        if report.k0_injective:
            assert report.minor_gcd == minor_gcd(h.matrix).d
        assert report.invariant_factors == oracle.invariant_factors_by_minors(h.matrix)


OPTIMIZED_CHECK = """
import sys
from helpers import corrupted_smith_normal_form
from k0hom import FdAlgebra, IntMatrix, InvariantViolation, analyze, cstar, make_hom

if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
cstar.smith_normal_form = corrupted_smith_normal_form
h = make_hom(FdAlgebra.of(1, 1), FdAlgebra.of(6, 2, 5),
             IntMatrix.from_rows([[3, 3], [2, 0], [0, 5]]))
try:
    analyze(h)
except InvariantViolation:
    sys.exit(0)
sys.exit("a corrupted Smith normal form went unnoticed")
"""


class TestInvariantViolation:
    def test_corrupted_smith_form_is_rejected(self, monkeypatch):
        monkeypatch.setattr(cstar, "smith_normal_form", corrupted_smith_normal_form)
        with pytest.raises(InvariantViolation):
            analyze(tall_hom())
        with pytest.raises(InvariantViolation):
            cokernel_torsion_free_matrix(TALL)

    def test_corrupted_smith_form_is_rejected_under_optimize(self):
        root = Path(__file__).resolve().parents[1]
        path = [str(root / "src"), str(root / "tests")]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        done = subprocess.run(
            [sys.executable, "-O", "-c", OPTIMIZED_CHECK],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
