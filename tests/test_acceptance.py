"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance
(exact integer equality throughout; runtimes where stated) and prints one
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines as they happen.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from helpers import (
    is_row_pattern,
    matmul_lists,
    random_chain,
    random_full_column_rank,
    random_hom,
    random_rank_deficient,
    random_row_pattern_matrix,
    run_cli,
)
from k0hom import oracle
from k0hom.cstar import (
    FdAlgebra,
    analyze,
    cokernel_torsion_free,
    cokernel_torsion_free_matrix,
    compose,
    is_injective,
    is_surjective,
    is_unital,
    k0_injective,
    k0_surjective,
    make_hom,
    row_pattern_span_equivalence,
)
from k0hom.intlin import (
    IntMatrix,
    determinant,
    left_inverse,
    minor_gcd,
    scaled_left_inverse,
    smith_normal_form,
)
from k0hom.workspace import matrix_from_document

TALL = IntMatrix.from_rows([[3, 3], [2, 0], [0, 5]])


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [FAIL] {description}")
        raise
    print(f"criterion {number:2d} [PASS] {description}")


@pytest.fixture(scope="module")
def full_rank_suite():
    rng = random.Random(0xC0FFEE)
    return [random_full_column_rank(rng) for _ in range(1000)]


@pytest.fixture(scope="module")
def rank_deficient_suite():
    rng = random.Random(0xDEF1C17)
    return [random_rank_deficient(rng) for _ in range(100)]


@pytest.fixture(scope="module")
def hom_suite():
    rng = random.Random(0xFDA1)
    return [random_hom(rng) for _ in range(1000)]


def test_criterion_1_exact_reproduction_of_worked_inverse():
    with criterion(1, "worked 3x2 example reproduced exactly, under 10 ms"):
        def construct():
            gcds = minor_gcd(TALL)
            built = scaled_left_inverse(TALL, coefficients=(4, 1, 1))
            return gcds, built

        construct()  # warm up allocator and caches
        start = time.perf_counter()
        gcds, built = construct()
        elapsed = time.perf_counter() - start

        assert gcds.d == 1
        assert sorted(det for _, det in gcds.witnesses) == [-6, 10, 15]
        assert built.d == 1
        assert built.matrix.to_rows() == [[5, -7, -3], [-8, 12, 5]]
        assert built.matrix @ TALL == IntMatrix.identity(2)
        # the default Bezout route must also produce a verified unit inverse
        default = left_inverse(TALL)
        assert default is not None and default @ TALL == IntMatrix.identity(2)
        assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms"


def test_criterion_2_three_way_equivalence(full_rank_suite):
    with criterion(2, "minor gcd 1 <=> verified left inverse <=> unit invariant factors, 1000 matrices"):
        assert len(full_rank_suite) >= 1000
        for e in full_rank_suite:
            d = minor_gcd(e).d
            inverse = left_inverse(e)
            factors = smith_normal_form(e).invariant_factors
            unit_factors = len(factors) == e.cols and all(f == 1 for f in factors)
            assert (d == 1) == (inverse is not None) == unit_factors, repr(e)
            if inverse is not None:
                assert inverse @ e == IntMatrix.identity(e.cols), repr(e)


def test_criterion_3_scaled_inverse_identity(full_rank_suite, rank_deficient_suite):
    with criterion(3, "K @ E == d*I everywhere; degenerate flag on 100 rank-deficient"):
        for e in full_rank_suite:
            result = scaled_left_inverse(e)
            assert result.matrix @ e == result.d * IntMatrix.identity(e.cols), repr(e)
            assert result.d >= 1 and not result.degenerate
        assert len(rank_deficient_suite) >= 100
        for e in rank_deficient_suite:
            result = scaled_left_inverse(e)
            assert result.d == 0 and result.degenerate, repr(e)
            assert result.matrix @ e == IntMatrix.zeros(e.cols, e.cols), repr(e)


def test_criterion_4_determinant_oracle():
    with criterion(4, "Bareiss equals permutation expansion, 500 matrices, under 5 s"):
        rng = random.Random(0xBA5E)
        cases = []
        for _ in range(500):
            n = rng.randint(1, 6)
            cases.append(
                IntMatrix.from_rows(
                    [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                )
            )
        start = time.perf_counter()
        for m in cases:
            assert determinant(m) == oracle.det_permutation(m), repr(m)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_5_hom_implications(hom_suite):
    with criterion(5, "cross-level implications and surjectivity equivalence, 1000 homs"):
        assert len(hom_suite) >= 1000
        for h in hom_suite:
            if k0_injective(h):
                assert is_injective(h), repr(h)
            if is_surjective(h):
                assert k0_surjective(h) and is_unital(h), repr(h)
            assert is_surjective(h) == (
                k0_surjective(h) and is_unital(h) and is_row_pattern(h.matrix)
            ), repr(h)


def test_criterion_6_example_report():
    with criterion(6, "block-embedding example analysed with the published flags"):
        phi = make_hom(
            FdAlgebra.of(2, 3, 4),
            FdAlgebra.of(5, 4),
            IntMatrix.from_rows([[1, 1, 0], [0, 0, 1]]),
        )
        report = analyze(phi)
        assert (
            report.phi_injective,
            report.k0_injective,
            report.k0_surjective,
            report.phi_surjective,
            report.phi_unital,
        ) == (True, False, True, False, True)


def test_criterion_7_snf_validity(full_rank_suite):
    with criterion(7, "D == U E V with unimodular U, V and divisibility chain"):
        for e in full_rank_suite:
            snf = smith_normal_form(e)
            assert snf.D == snf.U @ e @ snf.V, repr(e)
            assert abs(determinant(snf.U)) == 1, repr(e)
            assert abs(determinant(snf.V)) == 1, repr(e)
            for a, b in zip(snf.invariant_factors, snf.invariant_factors[1:]):
                assert b % a == 0, repr(e)


def test_criterion_8_torsion_oracle_agreement(full_rank_suite, hom_suite):
    with criterion(8, "torsion decisions agree with the minor-based oracle; witnesses contradict torsion-freeness"):
        for e in full_rank_suite:
            assert (
                cokernel_torsion_free_matrix(e)[0] == oracle.torsion_free_by_snf(e)
            ), repr(e)
        for h in hom_suite:
            assert (
                cokernel_torsion_free(h)[0] == oracle.torsion_free_by_snf(h.matrix)
            ), repr(h)

        searchable = [
            e for e in full_rank_suite if e.rows <= 4 and e.cols <= 4
        ][:30]
        searchable += [
            h.matrix for h in hom_suite if h.matrix.rows <= 4 and h.matrix.cols <= 4
        ][:30]
        torsion_examples = [
            IntMatrix.from_rows([[2], [0]]),
            IntMatrix.from_rows([[1, 0], [0, 2]]),
            IntMatrix.from_rows([[2, 0], [0, 2], [0, 0]]),
            IntMatrix.from_rows([[3, 0], [0, 1], [0, 0]]),
        ]
        witnesses_found = 0
        for e in searchable + torsion_examples:
            witness = oracle.bounded_torsion_search(e, box=2, max_n=3)
            if witness is not None:
                witnesses_found += 1
                assert not oracle.torsion_free_by_snf(e), repr(e)
                assert not cokernel_torsion_free_matrix(e)[0], repr(e)
        for e in torsion_examples:
            assert oracle.bounded_torsion_search(e, box=2, max_n=3) is not None
        assert witnesses_found >= len(torsion_examples)


def test_criterion_9_functoriality():
    with criterion(9, "composites multiply multiplicity matrices, 200 chains"):
        rng = random.Random(0xC4A1)
        for _ in range(200):
            chain = random_chain(rng, rng.randint(2, 4))
            composite = chain[0]
            for step in chain[1:]:
                composite = compose(step, composite)
            product = chain[0].matrix.to_rows()
            for step in chain[1:]:
                product = matmul_lists(step.matrix.to_rows(), product)
            assert composite.matrix.to_rows() == product
            assert composite.source == chain[0].source
            assert composite.target == chain[-1].target
            h = composite
            if k0_injective(h):
                assert is_injective(h)
            if is_surjective(h):
                assert k0_surjective(h) and is_unital(h)
            assert is_surjective(h) == (
                k0_surjective(h) and is_unital(h) and is_row_pattern(h.matrix)
            )


def test_criterion_10_row_pattern_span_property():
    with criterion(10, "column condition equals span condition, 500 row-pattern matrices"):
        rng = random.Random(0x5BA1)
        for _ in range(500):
            m = random_row_pattern_matrix(rng)
            column_flag, span_flag = row_pattern_span_equivalence(m)
            assert column_flag == span_flag, repr(m)


def test_criterion_11_cli_round_trip(tmp_path):
    with criterion(11, "machine output round-trips to library values; exit codes conform"):
        workspace = {
            "algebras": {"A": [2, 3, 4], "B": [5, 4], "C": [1, 1], "D": [6, 2, 5]},
            "homs": {
                "phi": {"source": "A", "target": "B", "matrix": [[1, 1, 0], [0, 0, 1]]},
                "eta": {"source": "C", "target": "D", "matrix": [[3, 3], [2, 0], [0, 5]]},
            },
        }
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(workspace), encoding="utf-8")

        expectations = {
            "phi": make_hom(
                FdAlgebra.of(2, 3, 4),
                FdAlgebra.of(5, 4),
                IntMatrix.from_rows([[1, 1, 0], [0, 0, 1]]),
            ),
            "eta": make_hom(
                FdAlgebra.of(1, 1),
                FdAlgebra.of(6, 2, 5),
                IntMatrix.from_rows([[3, 3], [2, 0], [0, 5]]),
            ),
        }
        for name, hom in expectations.items():
            invoked = run_cli(
                "analyze", "--workspace", str(path), "--hom", name, "--format", "machine"
            )
            assert invoked.exit_code == 0, invoked.output
            doc = json.loads(invoked.output)
            report = analyze(hom)
            analysis = doc["analysis"]
            assert matrix_from_document(doc["matrix"]) == hom.matrix
            assert tuple(int(s) for s in doc["slack"]) == hom.slack
            assert analysis["phi_injective"] == report.phi_injective
            assert analysis["phi_surjective"] == report.phi_surjective
            assert analysis["phi_unital"] == report.phi_unital
            assert analysis["k0_injective"] == report.k0_injective
            assert analysis["k0_surjective"] == report.k0_surjective
            assert analysis["k0_unital"] == report.k0_unital
            assert analysis["cokernel_torsion_free"] == report.cokernel_torsion_free
            assert analysis["torsion_criterion"] == report.torsion_criterion
            if report.minor_gcd is None:
                assert analysis["minor_gcd"] is None
            else:
                assert int(analysis["minor_gcd"]) == report.minor_gcd
            if report.left_inverse_certificate is None:
                assert analysis["left_inverse"] is None
            else:
                assert (
                    matrix_from_document(analysis["left_inverse"])
                    == report.left_inverse_certificate
                )
            assert tuple(int(s) for s in analysis["invariant_factors"]) == (
                report.invariant_factors
            )
            assert int(analysis["entry_gcd"]) == report.entry_gcd
            assert tuple(int(s) for s in analysis["column_gcds"]) == report.column_gcds

        # exit status table: 0 success, 2 usage/parse, 3 precondition, 4 no unit inverse
        ok = run_cli("analyze", "--workspace", str(path), "--hom", "phi")
        assert ok.exit_code == 0
        unknown = run_cli("analyze", "--workspace", str(path), "--hom", "ghost")
        assert unknown.exit_code == 2
        bad_path = tmp_path / "bad.json"
        bad_path.write_text("{", encoding="utf-8")
        malformed = run_cli("analyze", "--workspace", str(bad_path), "--hom", "phi")
        assert malformed.exit_code == 2
        infeasible = dict(workspace)
        infeasible["homs"] = {
            "bad": {"source": "A", "target": "B", "matrix": [[1, 1, 1], [0, 0, 1]]}
        }
        bad_hom_path = tmp_path / "infeasible.json"
        bad_hom_path.write_text(json.dumps(infeasible), encoding="utf-8")
        precondition = run_cli("analyze", "--workspace", str(bad_hom_path), "--hom", "bad")
        assert precondition.exit_code == 3
        unit = run_cli("invert", "--side", "left", "--matrix", "3 3; 2 0; 0 5")
        assert unit.exit_code == 0
        scaled = run_cli("invert", "--side", "left", "--matrix", "2; 0")
        assert scaled.exit_code == 4
