"""k0hom benchmark: one workload, one seed, one closed-loop client.

Usage, from the root of a source checkout (nothing needs installing)::

    python3 bench/run.py --workload tall_hom_analyze --seed 1 --seconds 20 --trace 0

The next operation starts only when the previous one has finished.  Whole
cycles of the workload's fixed mix are run until the operations themselves
have taken ``--seconds``; every output is checked after its operation,
outside the timed region.  The last line of stdout is the result, the line
before it the record of what ran (seed, mix, environment, raw timings).

Times are calibrated.  A fixed pure-Python calibration round runs right
before and right after every timed region, and the wall time is rescaled
by ``CALIBRATION_REFERENCE_S`` over the mean of the two rounds: the time
the operation would take on a core that runs the calibration round in the
reference time.  On shared 2-core VMs the core can run 1.6-2x slower for
seconds or minutes at a time while other tenants are busy, which moves raw
wall times of whole runs by 20-40%; the calibrated times follow the work
done, not the neighbours.  Raw wall-clock figures are in the record.  The
process pins itself to one CPU so that the calibration, the operation and
any child process run on the same core.

Set-up (fresh import of k0hom, input generation, file writing, warm-up) is
timed SETUP_SAMPLES times spread over the run, and ``setup_s`` is the
median.

``--trace 0`` reports the end-to-end metrics with no wrappers installed.
``--trace 1`` runs half the time untraced and half traced, reports the
per-layer metrics and the tracing overhead, and writes the spans to
``.bench_out/spans-<workload>-seed<seed>.tsv.gz``.

Exit status 2, with no result printed, when ``src/k0hom`` is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from checks import Mismatch, OpFailed
from spans import Tracer
from workloads import WORKLOAD_NAMES, Workload, build

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
MIN_SAMPLES = 100
INTERP_SAMPLES = 5
TICK_S = 0.05

#: Duration of one calibration round on an uncontended core of an Intel
#: Xeon VM running CPython 3.11.7.
CALIBRATION_REFERENCE_S = 330e-6
_CALIBRATION_MATRIX = [[(3 * i + 7 * j) % 10 + (i == j) for j in range(7)] for i in range(7)]


def _calibration_round() -> None:
    """Fixed fraction-free elimination on small ints, the kind of work k0hom does."""
    for _ in range(20):
        a = [row[:] for row in _CALIBRATION_MATRIX]
        prev = 1
        for k in range(6):
            for i in range(k + 1, 7):
                for j in range(k + 1, 7):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k] or 1


def calibration_s() -> float:
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _calibration_round()
        best = min(best, time.perf_counter() - t0)
    return best


class _Ticks:
    """Calibration rounds taken from SIGALRM every TICK_S during a long operation."""

    def __init__(self) -> None:
        self.rounds: list[float] = []
        self.spent = 0.0

    def __call__(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.rounds.append(calibration_s())
        self.spent += time.perf_counter() - t0


def calibrated(fn: Callable[[], object], ticks: bool) -> tuple[object, Exception | None, float, float]:
    """Run fn; return its result, the exception it raised, its wall time and its calibrated time.

    Calibration rounds run before and after fn and, with ``ticks``, every
    TICK_S inside it, so that the speed of the core is followed through
    operations that take a second.  The time spent in those rounds is taken
    out of the wall time.  Use no ticks while fn waits for a child process:
    the rounds would compete with the child for the core.

    An exception from fn is a failure of the program under test: it is
    returned, not raised, so that the time spent before it still counts.
    """
    result = error = None
    tick = _Ticks()
    before = calibration_s()
    if ticks:
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:
        error = exc
    finally:
        wall = time.perf_counter() - t0
        if ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    after = calibration_s()
    rounds = [before, *tick.rounds, after]
    busy = wall - tick.spent
    return result, error, busy, busy * CALIBRATION_REFERENCE_S * len(rounds) / sum(rounds)


def traced_call(tracer: Tracer, fn: Callable[[], object]) -> object:
    with tracer.op():
        return fn()


@dataclass
class Measurement:
    latencies: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    by_op: dict[int, list[float]] = field(default_factory=dict)
    setup_times: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    cycles: int = 0
    failed: int = 0
    wrong: int = 0
    out_bytes: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    by_label: dict[str, list[float]] = field(default_factory=dict)
    first_errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return len(self.latencies) - self.failed

    def ops_per_s(self, workload: Workload) -> float:
        """Verified operations per calibrated second, over one rotation of the mix.

        Each operation of every cycle variant costs the median of its own
        calibrated samples, so one sample disturbed mid-operation does not
        move the rate; an input shared by all variants counts once per variant.
        """
        costs = [
            statistics.median(self.by_op[id(op)])
            for cycle in workload.cycles for op in cycle if id(op) in self.by_op
        ]
        return (self.ok / len(self.latencies)) * len(costs) / sum(costs)

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        self.failures[label] = self.failures.get(label, 0) + 1
        if len(self.first_errors) < 5:
            self.first_errors.append(f"{label}: {why}")


def import_k0hom() -> None:
    """(Re-)import k0hom from ``src``; a fresh import is part of set-up time."""
    for name in [m for m in sys.modules if m == "k0hom" or m.startswith("k0hom.")]:
        del sys.modules[name]
    k0 = importlib.import_module("k0hom")
    importlib.import_module("k0hom.cli")
    if Path(k0.__file__).resolve().parent != (SRC / "k0hom").resolve():
        raise ImportError(f"k0hom imported from {k0.__file__}, not from {SRC}")


def set_up(name: str, seed: int, workdir: Path) -> tuple[Workload, float]:
    """Import k0hom, generate the inputs, write files and warm up.

    Returns the workload and the calibrated set-up time.
    """
    shutil.rmtree(workdir, ignore_errors=True)

    def steps() -> Workload:
        import_k0hom()
        workload = build(name, seed, workdir, ROOT)
        for op in workload.warmup:
            op.run()
        return workload

    workload, error, _, seconds = calibrated(steps, ticks=name != "cli_small")
    if error is not None:
        raise error
    return workload, seconds


def extra_set_up(name: str, seed: int, workdir: Path) -> float:
    """Time one more set-up, then put the measured modules back in place."""
    saved = {k: v for k, v in sys.modules.items() if k == "k0hom" or k.startswith("k0hom.")}
    try:
        return set_up(name, seed, workdir)[1]
    finally:
        for k in [k for k in sys.modules if k == "k0hom" or k.startswith("k0hom.")]:
            del sys.modules[k]
        sys.modules.update(saved)
        shutil.rmtree(workdir, ignore_errors=True)


def measure(
    workload: Workload,
    seconds: float,
    tracer: Tracer | None = None,
    set_up_again: Callable[[], float] | None = None,
) -> Measurement:
    """Run whole cycles until the operations have taken ``seconds`` and there
    are MIN_SAMPLES of them, so that at least ten lie beyond the 90th percentile.

    ``set_up_again``, when given, is timed SETUP_SAMPLES - 1 times at even
    steps of busy time, between cycles.
    """
    m = Measurement()
    child_spans = workload.cli.trace_file if workload.cli and tracer else None
    setup_step = seconds / SETUP_SAMPLES
    while m.busy_s < seconds or len(m.latencies) < MIN_SAMPLES:
        for op in workload.cycles[m.cycles % len(workload.cycles)]:
            if child_spans is not None:
                child_spans.unlink(missing_ok=True)
            run = op.run
            if tracer is not None and child_spans is None:
                run = lambda op=op: traced_call(tracer, op.run)  # noqa: E731
            out, error, wall, dt = calibrated(run, ticks=workload.cli is None)
            if tracer is not None:
                if child_spans is not None and child_spans.exists():
                    tracer.absorb(json.loads(child_spans.read_text(encoding="utf-8")))
                tracer.settle()
            m.latencies.append(dt)
            m.wall.append(wall)
            m.by_op.setdefault(id(op), []).append(dt)
            m.by_label.setdefault(op.label, []).append(dt)
            m.busy_s += wall
            if error is not None:
                m.fail(op.label, f"{type(error).__name__}: {str(error)[:120]}")
                continue
            m.out_bytes += len(out[1] if isinstance(out, tuple) else out)
            try:
                op.check(out)
            except OpFailed as exc:
                m.fail(op.label, str(exc))
            except (Mismatch, ValueError, KeyError, IndexError, TypeError) as exc:
                m.wrong += 1
                m.fail(op.label, f"wrong output: {type(exc).__name__}: {exc}")
        m.cycles += 1
        if set_up_again is not None and len(m.setup_times) < SETUP_SAMPLES - 1 and (
            m.busy_s >= setup_step * (len(m.setup_times) + 1)
        ):
            m.setup_times.append(set_up_again())
    return m


def bare_interpreter_ms() -> float:
    samples = []
    for _ in range(INTERP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "client": "closed loop, 1 client, one operation (or child process) at a time",
    }


def quantile_ms(latencies: list[float], index: int) -> float:
    return statistics.quantiles(latencies, n=10, method="inclusive")[index] * 1e3


def wall_clock(m: Measurement) -> dict:
    """Uncalibrated figures of one measurement, for the record."""
    return {
        "samples": len(m.latencies),
        "ops_per_s": round(m.ok / m.busy_s, 4),
        "p50_ms": round(quantile_ms(m.wall, 4), 4),
        "p90_ms": round(quantile_ms(m.wall, 8), 4),
        "mean_slowdown_vs_reference": round(sum(m.wall) / sum(m.latencies), 4),
    }


def end_to_end(workload: Workload, m: Measurement, setup_times: list[float]) -> dict:
    who = resource.RUSAGE_CHILDREN if workload.cli else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (m.ops_per_s(workload), "ops/s"),
        "op_p50_ms": (quantile_ms(m.latencies, 4), "ms"),
        "op_p90_ms": (quantile_ms(m.latencies, 8), "ms"),
        "ok_ratio": (m.ok / len(m.latencies), "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def traced(workload: Workload, seconds: float, workdir: Path, seed: int) -> tuple[dict, list[Measurement]]:
    plain = measure(workload, seconds / 2)
    tracer = Tracer()
    if workload.cli:
        workload.cli.trace_file = workdir / "child-spans.json"
    else:
        tracer.install()
    try:
        with_spans = measure(workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()
        if workload.cli:
            workload.cli.trace_file = None
    tracer.write(ROOT / ".bench_out" / f"spans-{workload.name}-seed{seed}.tsv.gz")
    metrics = tracer.metrics()
    untraced_rate, traced_rate = plain.ops_per_s(workload), with_spans.ops_per_s(workload)
    metrics.update({
        "workspace.out_bytes": (with_spans.out_bytes / len(with_spans.latencies), "bytes/op"),
        "cli.interp_ms": (bare_interpreter_ms() if workload.cli else 0.0, "ms"),
        "trace.untraced_ops_per_s": (untraced_rate, "ops/s"),
        "trace.traced_ops_per_s": (traced_rate, "ops/s"),
        "trace.overhead_ops_per_s": (untraced_rate - traced_rate, "ops/s"),
        "trace.overhead_pct": (100 * (untraced_rate - traced_rate) / untraced_rate, "%"),
    })
    return metrics, [plain, with_spans]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "k0hom" / "__init__.py").is_file():
        print(f"error: no k0hom sources under {SRC}; run from a k0hom checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload, first_setup = set_up(args.workload, args.seed, workdir)
        if args.trace:
            metrics, runs = traced(workload, args.seconds, workdir, args.seed)
        else:
            again = workdir.with_name(workdir.name + "-setup")
            runs = [measure(workload, args.seconds,
                            set_up_again=lambda: extra_set_up(args.workload, args.seed, again))]
            metrics = end_to_end(workload, runs[0], [first_setup, *runs[0].setup_times])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mix": workload.mix,
        "cycles_run": [m.cycles for m in runs],
        "samples": [len(m.latencies) for m in runs],
        "setup_s_samples": [round(t, 6) for t in [first_setup, *runs[0].setup_times]],
        "wall_clock": [wall_clock(m) for m in runs],
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "failures_by_label": [m.failures for m in runs],
        "first_errors": [e for m in runs for e in m.first_errors],
        "p50_ms_by_label": {
            label: round(statistics.median(v) * 1e3, 4) for label, v in runs[0].by_label.items()
        },
        "environment": environment(),
    }
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": all(m.wrong == 0 for m in runs),
        "attempted": sum(len(m.latencies) for m in runs),
        "failed": sum(m.failed for m in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
