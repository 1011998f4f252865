import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import run_cli
from k0hom import cli
from k0hom.cli import main
from k0hom.cstar import FdAlgebra, analyze, make_hom
from k0hom.intlin import IntMatrix, InvariantViolation, ScaledLeftInverse
from k0hom.workspace import matrix_from_document

WORKSPACE = {
    "algebras": {"A": [2, 3, 4], "B": [5, 4], "C": [1, 1], "D": [6, 2, 5]},
    "homs": {
        "phi": {"source": "A", "target": "B", "matrix": [[1, 1, 0], [0, 0, 1]]},
        "eta": {"source": "C", "target": "D", "matrix": [[3, 3], [2, 0], [0, 5]]},
        "idB": {"source": "B", "target": "B", "matrix": [[1, 0], [0, 1]]},
        "psi": {"source": "C", "target": "C", "matrix": [[1, 0], [0, 1]]},
    },
}


@pytest.fixture()
def workspace_path(tmp_path):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(WORKSPACE), encoding="utf-8")
    return str(path)


def run(*args):
    return run_cli(*args)


class TestAnalyze:
    def test_text_output(self, workspace_path):
        result = run("analyze", "--workspace", workspace_path, "--hom", "phi")
        assert result.exit_code == 0
        assert "injective:               yes" in result.output
        assert "K0 injective:            no" in result.output
        assert "surjective:              no" in result.output

    def test_machine_matches_library(self, workspace_path):
        result = run(
            "analyze", "--workspace", workspace_path, "--hom", "eta",
            "--format", "machine",
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        hom = make_hom(
            FdAlgebra.of(1, 1),
            FdAlgebra.of(6, 2, 5),
            IntMatrix.from_rows([[3, 3], [2, 0], [0, 5]]),
        )
        report = analyze(hom)
        analysis = doc["analysis"]
        assert analysis["k0_injective"] == report.k0_injective
        assert analysis["cokernel_torsion_free"] == report.cokernel_torsion_free
        assert int(analysis["minor_gcd"]) == report.minor_gcd
        assert (
            matrix_from_document(analysis["left_inverse"])
            == report.left_inverse_certificate
        )
        assert matrix_from_document(doc["matrix"]) == hom.matrix

    def test_identity_hom_is_all_true(self, workspace_path):
        result = run(
            "analyze", "--workspace", workspace_path, "--hom", "idB",
            "--format", "machine",
        )
        assert result.exit_code == 0
        analysis = json.loads(result.output)["analysis"]
        for key in (
            "phi_injective", "phi_surjective", "phi_unital",
            "k0_injective", "k0_surjective", "k0_unital",
            "cokernel_torsion_free",
        ):
            assert analysis[key] is True, key

    def test_unknown_hom_is_usage_error(self, workspace_path):
        result = run("analyze", "--workspace", workspace_path, "--hom", "nope")
        assert result.exit_code == 2

    def test_missing_option_is_usage_error(self, workspace_path):
        result = run("analyze", "--workspace", workspace_path)
        assert result.exit_code == 2

    def test_malformed_workspace(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        result = run("analyze", "--workspace", str(path), "--hom", "phi")
        assert result.exit_code == 2

    def test_infeasible_hom_is_precondition_error(self, tmp_path):
        doc = {
            "algebras": {"A": [2, 3, 4], "B": [5, 4]},
            "homs": {
                "bad": {"source": "A", "target": "B", "matrix": [[1, 1, 1], [0, 0, 1]]}
            },
        }
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = run("analyze", "--workspace", str(path), "--hom", "bad")
        assert result.exit_code == 3


class TestInvert:
    def test_left_unit_inverse(self):
        result = run("invert", "--side", "left", "--matrix", "3 3; 2 0; 0 5")
        assert result.exit_code == 0
        assert "d = 1" in result.output
        assert "verified" in result.output

    def test_left_identity(self):
        result = run("invert", "--side", "left", "--matrix", "1 0; 0 1")
        assert result.exit_code == 0

    def test_no_unit_inverse(self):
        result = run("invert", "--side", "left", "--matrix", "2; 0")
        assert result.exit_code == 4
        assert "d = 2" in result.output
        assert "scaled inverse" in result.output

    def test_right_side(self):
        result = run("invert", "--side", "right", "--matrix", "3 2 0; 3 0 5")
        assert result.exit_code == 0
        assert "d = 1" in result.output

    def test_dimension_error(self):
        result = run("invert", "--side", "left", "--matrix", "1 2 3")
        assert result.exit_code == 3

    def test_both_sources_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1")
        result = run(
            "invert", "--side", "left", "--matrix", "1",
            "--matrix-file", str(path),
        )
        assert result.exit_code == 2

    def test_matrix_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3 3\n2 0\n0 5\n", encoding="utf-8")
        result = run("invert", "--side", "left", "--matrix-file", str(path))
        assert result.exit_code == 0

    def test_rank_deficient(self):
        result = run("invert", "--side", "left", "--matrix", "1 2; 2 4; 3 6")
        assert result.exit_code == 4
        assert "d = 0" in result.output


class TestSnf:
    def test_prints_factors_and_transforms(self):
        result = run("snf", "--matrix", "2 0; 0 3")
        assert result.exit_code == 0
        assert "invariant factors: [1, 6]" in result.output
        assert "U =" in result.output and "V =" in result.output

    def test_bad_matrix(self):
        result = run("snf", "--matrix", "nonsense")
        assert result.exit_code == 2

    def test_value_starting_with_minus(self):
        result = run("snf", "--matrix", "-2,0;0,3")
        assert result.exit_code == 0
        assert "invariant factors: [1, 6]" in result.output


class TestCompose:
    def test_compose_with_identity_matches_analyze(self, workspace_path):
        composed = run(
            "compose", "--workspace", workspace_path, "--homs", "phi,idB",
            "--format", "machine",
        )
        plain = run(
            "analyze", "--workspace", workspace_path, "--hom", "phi",
            "--format", "machine",
        )
        assert composed.exit_code == 0 and plain.exit_code == 0
        composed_doc = json.loads(composed.output)
        plain_doc = json.loads(plain.output)
        assert composed_doc["analysis"] == plain_doc["analysis"]
        assert composed_doc["matrix"] == plain_doc["matrix"]

    def test_chain_matrix_is_product(self, workspace_path):
        result = run(
            "compose", "--workspace", workspace_path, "--homs", "psi,eta",
            "--format", "machine",
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert matrix_from_document(doc["matrix"]) == IntMatrix.from_rows(
            [[3, 3], [2, 0], [0, 5]]
        )

    def test_mismatch_names_pair(self, workspace_path):
        result = run("compose", "--workspace", workspace_path, "--homs", "phi,eta")
        assert result.exit_code == 3
        assert "phi" in result.output and "eta" in result.output

    def test_needs_two_names(self, workspace_path):
        result = run("compose", "--workspace", workspace_path, "--homs", "phi")
        assert result.exit_code == 2


class TestExitStatus:
    """``main(args, prog_name=...)`` always ends in SystemExit with the status."""

    @pytest.mark.parametrize(
        "args, status",
        [
            (["snf", "--matrix", "2 0; 0 3"], 0),
            (["snf", "--matrix", "nonsense"], 2),
            (["invert", "--side", "left", "--matrix", "1 2 3"], 3),
            (["invert", "--side", "left", "--matrix", "2; 0"], 4),
        ],
    )
    def test_status(self, args, status):
        with pytest.raises(SystemExit) as exc:
            main(args, prog_name="k0hom")
        assert exc.value.code == status

    def test_invert_checks_before_printing(self, monkeypatch):
        def wrong(e):
            return ScaledLeftInverse(d=1, matrix=IntMatrix.zeros(e.cols, e.rows), degenerate=False)

        monkeypatch.setattr(cli, "scaled_left_inverse", wrong)
        with pytest.raises(InvariantViolation):
            run("invert", "--side", "left", "--matrix", "1 0; 0 1")

    def test_imports_with_the_standard_library_only(self):
        # -S leaves site-packages off sys.path, so any third-party import fails
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run(
            [sys.executable, "-S", "-c", "import k0hom.cli"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["analyze", "--workspace", "ws.json"],
            ["invert", "--side", "left", "--matrix", "1", "--matrix-file", "m.txt"],
            ["invert", "--side", "left"],
            ["invert", "--side", "up", "--matrix", "1"],
            ["analyze", "--workspace", "ws.json", "--hom", "phi", "--format", "xml"],
            ["compose", "--workspace", "ws.json", "--hom", "phi,eta"],
            [],
        ],
    )
    def test_usage_error_exits_2(self, args):
        result = run(*args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage: k0hom")

    def test_missing_file_names_it(self, tmp_path):
        missing = tmp_path / "absent.txt"
        result = run("snf", "--matrix-file", str(missing))
        assert result.exit_code == 2
        assert result.stderr == f"error: cannot read {missing}: No such file or directory\n"


BIG = "9" * (sys.get_int_max_str_digits() + 700)


class TestParseBoundary:
    """Inputs that used to end in a traceback exit 2 with one short stderr line."""

    def check_one_line(self, result):
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1
        assert len(result.stderr) < 200
        return result.stderr

    def workspace(self, tmp_path, text):
        path = tmp_path / "ws.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_non_string_algebra_name(self, tmp_path):
        doc = {
            "algebras": {"A": [1], "B": [1]},
            "homs": {"h": {"source": ["A"], "target": "B", "matrix": [[1]]}},
        }
        path = self.workspace(tmp_path, json.dumps(doc))
        message = self.check_one_line(run("analyze", "--workspace", path, "--hom", "h"))
        assert "source" in message

    def test_long_block_size_literal(self, tmp_path):
        path = self.workspace(
            tmp_path, '{"algebras": {"A": [%s]}, "homs": {}}' % BIG
        )
        message = self.check_one_line(run("analyze", "--workspace", path, "--hom", "h"))
        assert str(sys.get_int_max_str_digits()) in message

    def test_long_block_size_string(self, tmp_path):
        path = self.workspace(tmp_path, json.dumps({"algebras": {"A": [BIG]}}))
        message = self.check_one_line(run("analyze", "--workspace", path, "--hom", "h"))
        assert str(sys.get_int_max_str_digits()) in message

    def test_long_json_matrix_literal(self):
        message = self.check_one_line(run("snf", "--matrix", f"[[{BIG}, 1]]"))
        assert str(sys.get_int_max_str_digits()) in message

    def test_long_inline_matrix_token(self):
        message = self.check_one_line(run("snf", "--matrix", f"{BIG} 1"))
        assert message.startswith("error: matrix, row 0: '99")
        assert str(sys.get_int_max_str_digits()) in message

    def test_deeply_nested_json_matrix(self):
        self.check_one_line(run("snf", "--matrix", "[" * 100_000))
