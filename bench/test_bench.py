"""The benchmark counts wrong outputs and crashes as failures.

Run from the checkout root: ``python3 -m pytest bench/test_bench.py -q``.
"""

import sys
from dataclasses import replace

import pytest

import run
from workloads import Workload, build

sys.path.insert(0, str(run.SRC))
run.import_k0hom()


def _first(workload: Workload, label: str):
    return next(op for op in workload.cycles[0] if op.label == label)


def _measure_one(op) -> run.Measurement:
    workload = Workload("test", "", [[op]], [], {})
    return run.measure(workload, seconds=1e-9)


def _corrupt_last_digit(text: str) -> str:
    i = max(i for i, ch in enumerate(text) if ch in "123456789")
    return text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:]


@pytest.fixture(scope="module")
def workloads(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    return {
        name: build(name, 7, root / "work", root)
        for name in ("tall_hom_analyze", "square_snf", "bigint_invert", "cli_small")
    }


@pytest.mark.parametrize(
    "name, label",
    [
        ("tall_hom_analyze", "8x4/plain"),
        ("square_snf", "10x10"),
        ("bigint_invert", "6x3/left/64b"),
    ],
)
def test_correct_output_passes_and_corrupted_output_fails(workloads, name, label):
    op = _first(workloads[name], label)
    good = _measure_one(op)
    assert (good.failed, good.wrong) == (0, 0)

    corrupted = replace(op, run=lambda: _corrupt_last_digit(op.run()))
    bad = _measure_one(corrupted)
    assert bad.failed == bad.wrong == len(bad.latencies) and bad.ok == 0


def test_cli_wrong_stdout_and_wrong_status_fail(workloads):
    op = _first(workloads["cli_small"], "analyze-machine")
    garbled = _measure_one(replace(op, run=lambda: (0, b"{}\n")))
    assert garbled.wrong == garbled.failed == len(garbled.latencies)
    crashed = _measure_one(replace(op, run=lambda: (1, b"")))
    assert crashed.wrong == 0 and crashed.failed == len(crashed.latencies)


def test_exception_is_a_failure_but_not_a_wrong_answer(workloads):
    def boom():
        raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")

    op = replace(_first(workloads["square_snf"], "10x10"), run=boom)
    m = _measure_one(op)
    assert m.failed == len(m.latencies) and (m.wrong, m.ok) == (0, 0)


def test_missing_sources_exit_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "square_snf", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
