"""Span recording for the traced benchmark run.

The tracer wraps k0hom's public functions from the outside: every function
listed in the ``__all__`` of ``k0hom.intlin``, ``k0hom.cstar`` and
``k0hom.workspace`` is replaced at every module attribute that refers to it
(``k0hom``, ``k0hom.intlin``, ``k0hom.cstar``, ``k0hom.workspace`` and
``k0hom.cli``, aliases such as ``cli.analyze_hom`` included), and
``IntMatrix.submatrix``, ``IntMatrix.__matmul__`` and ``IntMatrix.__str__``
are replaced on the class.  Calls made outside an operation pass straight
through, so the benchmark's own checks are never traced.

Each span is one row of five parallel arrays: name id, parent span index,
operation id, start and end (``time.perf_counter`` seconds).  Parents are
appended before their children, which lets the summary walk the arrays
once.  Results that feed size counters (bit lengths, routes) are queued
inside the operation and inspected by :meth:`Tracer.settle` after it ends,
so the inspection is not charged to any span.
"""

from __future__ import annotations

import gzip
import sys
import time
import types
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

WRAPPED_MODULES = ("k0hom.intlin", "k0hom.cstar", "k0hom.workspace", "k0hom.cli", "k0hom")
DEFINING_MODULES = ("k0hom.intlin", "k0hom.cstar", "k0hom.workspace")
MATRIX_METHODS = (
    ("submatrix", "intlin.submatrix"),
    ("__matmul__", "intlin.matmul"),
    ("__str__", "intlin.str"),
)
CLI_SUBCOMMANDS = ("analyze", "compose", "invert", "snf")


def _max_bits(matrix) -> int:
    return max(abs(x).bit_length() for x in matrix.entries)


def _observe_snf(tracer: "Tracer", snf) -> None:
    bits = max(_max_bits(snf.U), _max_bits(snf.V))
    tracer.maxes["snf_uv_bits"] = max(tracer.maxes["snf_uv_bits"], bits)


def _observe_scaled_inverse(tracer: "Tracer", result) -> None:
    bits = _max_bits(result.matrix)
    tracer.maxes["cert_bits"] = max(tracer.maxes["cert_bits"], bits)


def _observe_analyze(tracer: "Tracer", report) -> None:
    tracer.sums["route." + report.torsion_criterion] += 1


OBSERVERS = {
    "intlin.smith_normal_form": _observe_snf,
    "intlin.scaled_left_inverse": _observe_scaled_inverse,
    "cstar.analyze": _observe_analyze,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.ops = 0
        self.pending: list[tuple] = []
        self.sums: defaultdict[str, float] = defaultdict(float)
        self.maxes: defaultdict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_of.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def op(self):
        """Root span of one benchmark operation; spans inside it share its id."""
        self.op_id = self.ops
        self.ops += 1
        try:
            with self.span("op"):
                yield
        finally:
            self.op_id = -1

    def wrap(self, name: str, fn):
        nid = self._id(name)
        observe = OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                tracer.pending.append((observe, result))
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of an imported k0hom at every name."""
        wrappers = {}
        for mname in DEFINING_MODULES:
            module = sys.modules[mname]
            short = mname.split(".", 1)[1]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType):
                    wrappers[fn] = self.wrap(f"{short}.{fn.__name__}", fn)
        for mname in WRAPPED_MODULES:
            module = sys.modules[mname]
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        matrix_cls = sys.modules["k0hom.intlin"].IntMatrix
        for attr, name in MATRIX_METHODS:
            original = matrix_cls.__dict__[attr]
            self._restore.append((matrix_cls, attr, original))
            setattr(matrix_cls, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def settle(self) -> None:
        """Inspect the results queued during the last operation."""
        for observe, result in self.pending:
            observe(self, result)
        self.pending.clear()

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                list(self.name), list(self.parent), list(self.op_of),
                list(self.start), list(self.end),
            ],
            "ops": self.ops,
            "sums": dict(self.sums),
            "maxes": dict(self.maxes),
        }

    def absorb(self, other: dict) -> None:
        """Append the spans and counters of a tracer dumped in another process."""
        offset = len(self.start)
        op_offset = self.ops
        ids = [self._id(n) for n in other["names"]]
        names, parents, ops, starts, ends = other["spans"]
        self.name.extend(ids[n] for n in names)
        self.parent.extend(p + offset if p >= 0 else -1 for p in parents)
        self.op_of.extend(o + op_offset if o >= 0 else -1 for o in ops)
        self.start.extend(starts)
        self.end.extend(ends)
        self.ops += other["ops"]
        for key, value in other["sums"].items():
            self.sums[key] += value
        for key, value in other["maxes"].items():
            self.maxes[key] = max(self.maxes[key], value)

    def write(self, path: Path) -> None:
        """Spans as gzip'd tab-separated rows: op, index, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op_of[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )

    def layer_totals(self) -> dict[str, list[float]]:
        """Per span name: [calls, total seconds, self seconds].

        Self time is the span's duration minus the durations of its direct
        children; spans in one process never overlap except by nesting.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        totals: dict[str, list[float]] = {}
        for i in range(n):
            row = totals.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return totals

    def analysis_counts(self) -> dict[str, int]:
        """Calls made on behalf of ``cstar.analyze``, counted at their parent."""
        aid = self._ids.get("cstar.analyze", -2)
        enum_ids = {self._ids.get("intlin.minor_gcd", -2), self._ids.get("intlin.scaled_left_inverse", -2)}
        det = self._ids.get("intlin.determinant", -2)
        snf = self._ids.get("intlin.smith_normal_form", -2)
        rank = self._ids.get("intlin.column_rank", -2)
        inside = bytearray(len(self.start))
        counts = {"analyses": 0, "minors": 0, "snf": 0, "rank": 0}
        for i in range(len(self.start)):
            nid, p = self.name[i], self.parent[i]
            parent_inside = p >= 0 and inside[p]
            inside[i] = nid == aid or parent_inside
            if nid == aid:
                counts["analyses"] += 1
            elif parent_inside:
                if nid == det and self.name[p] in enum_ids:
                    counts["minors"] += 1
                elif nid == snf:
                    counts["snf"] += 1
                elif nid == rank:
                    counts["rank"] += 1
        return counts

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, normalised per benchmark operation."""
        totals = self.layer_totals()
        ops = max(self.ops, 1)

        def per_op_ms(name: str, column: int = 1) -> float:
            row = totals.get(name)
            return row[column] * 1e3 / ops if row else 0.0

        def per_op_calls(name: str) -> float:
            row = totals.get(name)
            return row[0] / ops if row else 0.0

        counts = self.analysis_counts()
        analyses = max(counts["analyses"], 1)
        out: dict[str, tuple[float, str]] = {
            "trace.op_ms": (per_op_ms("op"), "ms/op"),
            "intlin.determinant.calls": (per_op_calls("intlin.determinant"), "calls/op"),
            "intlin.determinant.self_ms": (per_op_ms("intlin.determinant", 2), "ms/op"),
            "intlin.submatrix.self_ms": (per_op_ms("intlin.submatrix", 2), "ms/op"),
            "intlin.minor_gcd.ms": (per_op_ms("intlin.minor_gcd"), "ms/op"),
            "intlin.smith_normal_form.ms": (per_op_ms("intlin.smith_normal_form"), "ms/op"),
            "intlin.smith_normal_form.calls": (per_op_calls("intlin.smith_normal_form"), "calls/op"),
            "intlin.snf.uv_bits_max": (float(self.maxes["snf_uv_bits"]), "bits"),
            "intlin.str.ms": (per_op_ms("intlin.str"), "ms/op"),
            "intlin.scaled_left_inverse.ms": (per_op_ms("intlin.scaled_left_inverse"), "ms/op"),
            "intlin.adjugate.ms": (per_op_ms("intlin.adjugate"), "ms/op"),
            "intlin.gcd_with_bezout.ms": (per_op_ms("intlin.gcd_with_bezout"), "ms/op"),
            "intlin.cert_bits_max": (float(self.maxes["cert_bits"]), "bits"),
            "intlin.column_rank.ms": (per_op_ms("intlin.column_rank"), "ms/op"),
            "intlin.matmul.ms": (per_op_ms("intlin.matmul"), "ms/op"),
            "cstar.analyze.ms": (per_op_ms("cstar.analyze"), "ms/op"),
            "cstar.analyze.self_ms": (per_op_ms("cstar.analyze", 2), "ms/op"),
            "cstar.make_hom.ms": (per_op_ms("cstar.make_hom"), "ms/op"),
            "cstar.analyze.minors_per_op": (counts["minors"] / analyses, "minors/analysis"),
            "cstar.analyze.snf_calls_per_op": (counts["snf"] / analyses, "calls/analysis"),
            "cstar.analyze.rank_calls_per_op": (counts["rank"] / analyses, "calls/analysis"),
            "cstar.route.minor_gcd": (self.sums["route.minor-gcd"] / analyses, "share"),
            "cstar.route.invariant_factors": (
                self.sums["route.invariant-factors"] / analyses, "share"),
            "workspace.parse_workspace.ms": (per_op_ms("workspace.parse_workspace"), "ms/op"),
            "workspace.parse_matrix_text.ms": (per_op_ms("workspace.parse_matrix_text"), "ms/op"),
            "workspace.analysis_document.ms": (per_op_ms("workspace.analysis_document"), "ms/op"),
            "workspace.machine_dumps.ms": (per_op_ms("workspace.machine_dumps"), "ms/op"),
        }
        children = self.sums["cli.children"]
        out["cli.import_ms"] = (
            self.sums["cli.import_s"] * 1e3 / children if children else 0.0, "ms")
        for sub in CLI_SUBCOMMANDS:
            row = totals.get(f"cli.{sub}")
            out[f"cli.{sub}.ms"] = (row[1] * 1e3 / row[0] if row else 0.0, "ms")
        return out
