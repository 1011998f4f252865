"""The four benchmark workloads: seeded inputs, timed operations and checks.

Every workload is a fixed cycle of operation slots.  The seed chooses only
the matrix entries (and block sizes), never the shapes or the mix, so the
cost of a cycle barely moves from seed to seed.  A workload may hold
several variants of its cycle; cycle k runs variant ``k % len(cycles)``.
A slot either keeps one input in every variant or rotates through one
input per variant; rotation averages the input-dependent cost of the few
expensive slots over more inputs.

The slot counts put the heaviest slots at about 3% of a cycle, so the
median and the 90th percentile of the latencies fall inside a cost class
of many inputs, not on the border between two classes.

An operation's ``run`` is the timed part: it calls into k0hom through
module attributes looked up at call time, so the wrappers of the traced run
see every call.  ``check`` runs afterwards, untimed, and uses only
:mod:`checks`.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from checks import (
    P61,
    OpFailed,
    check_inverse_text,
    check_snf_text,
    expect,
    matmul,
    prime_factors,
    rank_mod,
)

WORKLOAD_NAMES = ("tall_hom_analyze", "square_snf", "bigint_invert", "cli_small")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    name: str
    why: str
    cycles: list[list[Op]]
    warmup: list[Op]
    mix: dict
    cli: Optional["CliRunner"] = None


@dataclass
class CliRunner:
    """Starts one ``k0hom`` process at a time from the checkout root.

    Untraced, the child is ``python -m k0hom.cli`` with ``PYTHONPATH=src``.
    When ``trace_file`` is set the child is ``bench/cli_child.py``, which
    installs the span wrappers, calls ``k0hom.cli.main`` and dumps its spans
    to that file.
    """

    root: Path
    trace_file: Optional[Path] = None
    env: dict = field(init=False)

    def __post_init__(self) -> None:
        self.env = dict(os.environ)
        existing = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = "src" + (os.pathsep + existing if existing else "")

    def __call__(self, args: list[str]) -> tuple[int, bytes]:
        if self.trace_file is None:
            argv = [sys.executable, "-m", "k0hom.cli", *args]
        else:
            argv = [sys.executable, str(Path("bench") / "cli_child.py"), str(self.trace_file), *args]
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True)
        return proc.returncode, proc.stdout


def _modules():
    return sys.modules["k0hom"], sys.modules["k0hom.workspace"]


def _entries_text(rows: list[list[int]], row_sep: str) -> str:
    return row_sep.join(" ".join(str(x) for x in row) for row in rows)


def _full_rank_matrix(rng: random.Random, r: int, c: int, draw: Callable[[], int]) -> list[list[int]]:
    while True:
        rows = [[draw() for _ in range(c)] for _ in range(r)]
        if rank_mod(rows, P61) == min(r, c):
            return rows


def _rotate(slots: list[tuple], variants: int, make_op: Callable[..., Op], rotates: Callable[[tuple], bool]) -> list[list[Op]]:
    """Cycle variants in which only the slots selected by ``rotates`` change input."""
    per_slot = [
        [make_op(*slot) for _ in range(variants if rotates(slot) else 1)] for slot in slots
    ]
    return [[ops[v % len(ops)] for ops in per_slot] for v in range(variants)]


def _mix_summary(slots: list[tuple], cost_key: Callable[[tuple], str]) -> dict:
    counts: dict[str, int] = {}
    for slot in slots:
        counts[cost_key(slot)] = counts.get(cost_key(slot), 0) + 1
    total = len(slots)
    return {"ops_per_cycle": total, "slots": counts, "shares": {k: round(v / total, 4) for k, v in counts.items()}}


# --------------------------------------------------------------------------
# tall_hom_analyze

TALL_WHY = (
    "Library pipeline make_hom -> analyze -> analysis_document -> machine_dumps on "
    "tall homs; intlin.minor_gcd enumerates C(rows, cols) minors and does nearly all "
    "the work, so taking the enumeration off the default path should move this by "
    "orders of magnitude."
)

# (rows, cols, kind, slots per cycle).  "plain": full column rank, usually
# minor gcd 1 and a left-inverse certificate.  "scaled": last column doubled
# in value, so every maximal minor is even and no certificate exists.
# "doubled": last column repeats the first, so the columns are dependent and
# the Smith normal form decides with no enumeration.  The enumerating 14x7
# and 16x8 slots rotate through TALL_VARIANTS inputs: their cost depends on
# how many minors hit a zero pivot column early, by about 12% between inputs.
TALL_SLOTS = (
    (8, 4, "plain", 52), (8, 4, "scaled", 10), (8, 4, "doubled", 6),
    (12, 6, "plain", 18), (12, 6, "scaled", 7), (12, 6, "doubled", 2),
    (14, 7, "plain", 1), (14, 7, "scaled", 1), (14, 7, "doubled", 1),
    (16, 8, "plain", 1), (16, 8, "doubled", 1),
)
TALL_VARIANTS = 4


def _tall_matrix(rng: random.Random, r: int, c: int, kind: str) -> list[list[int]]:
    rows = _full_rank_matrix(rng, r, c, lambda: rng.randint(0, 3))
    for row in rows:
        if kind == "scaled":
            row[-1] *= 2
        elif kind == "doubled":
            row[-1] = row[0]
    return rows


def _tall_op(rng: random.Random, r: int, c: int, kind: str) -> Op:
    k0, ws = _modules()
    e = _tall_matrix(rng, r, c, kind)
    source = [rng.randint(1, 3) for _ in range(c)]
    slack = [rng.choice((0, 0, 1, 2)) for _ in range(r)]
    target = [sum(a * n for a, n in zip(row, source)) + s for row, s in zip(e, slack)]
    slack = [s if t else 1 for s, t in zip(slack, target)]
    target = [t or 1 for t in target]
    src_alg, tgt_alg = k0.FdAlgebra(tuple(source)), k0.FdAlgebra(tuple(target))
    matrix = k0.IntMatrix.from_rows(e)
    name = f"h{r}x{c}"

    def run() -> str:
        k0, ws = _modules()
        hom = k0.make_hom(src_alg, tgt_alg, matrix)
        report = k0.analyze(hom)
        return ws.machine_dumps(ws.analysis_document(name, "S", "T", hom, report))

    def check(text: str) -> None:
        doc = json.loads(text)
        a = doc["analysis"]
        expect((doc["hom"], doc["source"], doc["target"]) == (name, "S", "T"), "wrong names")
        expect(doc["source_blocks"] == [str(b) for b in source], "wrong source blocks")
        expect(doc["target_blocks"] == [str(b) for b in target], "wrong target blocks")
        expect(doc["matrix"] == [[str(x) for x in row] for row in e], "matrix echoed wrongly")
        expect(doc["slack"] == [str(s) for s in slack], "wrong slack")
        expect(a["entry_gcd"] == str(math.gcd(*(x for row in e for x in row))), "wrong entry gcd")
        expect(a["column_gcds"] == [str(math.gcd(*col)) for col in zip(*e)], "wrong column gcds")
        expect(a["phi_injective"] == all(any(col) for col in zip(*e)), "wrong phi_injective")
        expect(a["phi_unital"] == a["k0_unital"] == (not any(slack)), "wrong unitality")
        expect(a["phi_surjective"] is False and a["k0_surjective"] is False, "tall map cannot be onto")
        expect(a["k0_injective"] == (kind != "doubled"), "wrong k0_injective")
        factors = [int(f) for f in a["invariant_factors"]]
        if kind == "doubled":
            expect(a["torsion_criterion"] == "invariant-factors", "wrong route")
            expect(a["minor_gcd"] is None and a["left_inverse"] is None, "unexpected certificate")
            expect(len(factors) == rank_mod(e, P61), "wrong rank")
            expect(a["cokernel_torsion_free"] == all(f == 1 for f in factors), "wrong torsion flag")
            return
        expect(a["torsion_criterion"] == "minor-gcd", "wrong route")
        d = int(a["minor_gcd"])
        expect(len(factors) == c and math.prod(factors) == d, "invariant factors disagree with d")
        expect(a["cokernel_torsion_free"] == (d == 1), "torsion flag disagrees with d")
        if d == 1:
            k = [[int(x) for x in row] for row in a["left_inverse"]]
            expect(matmul(k, e) == [[int(i == j) for j in range(c)] for i in range(c)], "K @ E != I")
        else:
            expect(a["left_inverse"] is None, "certificate despite d > 1")
            expect(kind != "scaled" or d % 2 == 0, "scaled column but odd d")
            for p in prime_factors(d):
                expect(rank_mod(e, p) < c, f"{p} does not divide every maximal minor")

    return Op(f"{r}x{c}/{kind}", run, check)


def build_tall(seed: int) -> Workload:
    rng = random.Random(f"tall_hom_analyze:{seed}")
    slots = [(r, c, kind) for r, c, kind, n in TALL_SLOTS for _ in range(n)]
    cycles = _rotate(
        slots, TALL_VARIANTS, lambda r, c, kind: _tall_op(rng, r, c, kind),
        lambda slot: slot[0] >= 14 and slot[2] != "doubled",
    )
    warm_rng = random.Random(f"tall_hom_analyze:warmup:{seed}")
    warmup = [_tall_op(warm_rng, 8, 4, kind) for kind in ("plain", "scaled", "doubled")]
    mix = _mix_summary(slots, lambda s: f"{s[0]}x{s[1]}/{s[2]}")
    routes = {"minor-gcd": 0, "invariant-factors": 0}
    minors = 0
    for r, c, kind in slots:
        routes["invariant-factors" if kind == "doubled" else "minor-gcd"] += 1
        minors += 0 if kind == "doubled" else math.comb(r, c)
    mix.update(
        entries="0..3 (2 bits); the scaled column 0..6 (3 bits)",
        minors_by_shape={f"{r}x{c}": math.comb(r, c) for r, c, _, _ in TALL_SLOTS},
        route_shares={k: round(v / len(slots), 4) for k, v in routes.items()},
        kind_shares={
            kind: round(sum(1 for s in slots if s[2] == kind) / len(slots), 4)
            for kind in ("plain", "scaled", "doubled")
        },
        minors_per_op=round(minors / len(slots), 2),
    )
    return Workload("tall_hom_analyze", TALL_WHY, cycles, warmup, mix)


# --------------------------------------------------------------------------
# square_snf

SNF_WHY = (
    "In-process mirror of `k0hom snf`: parse_matrix_text -> smith_normal_form -> str() "
    "of U, D, V. Coefficient growth in U and V and decimal output do the work; no minor "
    "is enumerated. The 60x60 case keeps the int->str digit-limit crash visible."
)

# (n, slots per cycle).  The 40x40 and 60x60 slots rotate through
# SNF_VARIANTS inputs: their cost differs by 10-20% between inputs.
SNF_SLOTS = ((10, 35), (20, 62), (40, 2), (60, 1))
SNF_VARIANTS = 4


def _snf_output(snf) -> str:
    parts = []
    for label, m in (("U", snf.U), ("D", snf.D), ("V", snf.V)):
        parts.append(f"{label} =\n{m}\n")
    parts.append(f"invariant factors: {list(snf.invariant_factors)}\n")
    return "".join(parts)


def _snf_op(rng: random.Random, n: int) -> Op:
    e = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    text = _entries_text(e, "\n")
    check_rng = random.Random(rng.random())

    def run() -> str:
        k0, ws = _modules()
        return _snf_output(k0.smith_normal_form(ws.parse_matrix_text(text)))

    return Op(f"{n}x{n}", run, lambda out: check_snf_text(out, e, check_rng))


def build_snf(seed: int) -> Workload:
    rng = random.Random(f"square_snf:{seed}")
    slots = [(n,) for n, count in SNF_SLOTS for _ in range(count)]
    cycles = _rotate(slots, SNF_VARIANTS, lambda n: _snf_op(rng, n), lambda slot: slot[0] >= 40)
    warm_rng = random.Random(f"square_snf:warmup:{seed}")
    warmup = [_snf_op(warm_rng, 10)]
    mix = _mix_summary(slots, lambda s: f"{s[0]}x{s[0]}")
    mix.update(
        entries="uniform in [-9, 9] (4 bits with sign)",
        minors_per_op=0,
        known_defect="60x60: U and V exceed the 4300-digit int->str limit; counted as failed",
    )
    return Workload("square_snf", SNF_WHY, cycles, warmup, mix)


# --------------------------------------------------------------------------
# bigint_invert

INVERT_WHY = (
    "In-process mirror of `k0hom invert --side left|right` on entries up to 2^64: "
    "scaled_left_inverse runs the full minor enumeration plus adjugate, "
    "scattered_adjugate and gcd_with_bezout on big integers, the construction that "
    "analyze reaches only through an early-exit prefix."
)

# (rows, cols, side, entry bits, slots per cycle); right-side inputs are
# wide (cols > rows) and are inverted through their transpose.
INVERT_SLOTS = (
    (6, 3, "left", 8, 2), (6, 3, "left", 64, 3), (3, 6, "right", 8, 2), (3, 6, "right", 64, 3),
    (8, 4, "left", 16, 3), (8, 4, "left", 64, 3), (4, 8, "right", 16, 3), (4, 8, "right", 64, 3),
    (10, 5, "left", 32, 2), (10, 5, "left", 64, 2), (5, 10, "right", 32, 2), (5, 10, "right", 64, 2),
    (12, 6, "left", 64, 1), (6, 12, "right", 32, 1),
)


def _invert_op(rng: random.Random, r: int, c: int, side: str, bits: int) -> Op:
    e = _full_rank_matrix(rng, r, c, lambda: rng.randrange(1 << bits))
    text = _entries_text(e, "; ")

    def run() -> str:
        k0, ws = _modules()
        m = ws.parse_matrix_text(text)
        result = k0.scaled_left_inverse(m if side == "left" else m.transpose())
        inverse = result.matrix if side == "left" else result.matrix.transpose()
        label = "left inverse" if side == "left" else "right inverse"
        header = f"{label} (verified):" if result.d == 1 else (
            f"no unit {label} exists; scaled inverse with product {result.d}*I:")
        return f"d = {result.d}\n{header}\n{inverse}\n"

    return Op(f"{r}x{c}/{side}/{bits}b", run, lambda out: check_inverse_text(out, e, side, None))


def build_invert(seed: int) -> Workload:
    rng = random.Random(f"bigint_invert:{seed}")
    slots = [(r, c, side, bits) for r, c, side, bits, n in INVERT_SLOTS for _ in range(n)]
    cycles = [[_invert_op(rng, *slot) for slot in slots] for _ in range(2)]
    warm_rng = random.Random(f"bigint_invert:warmup:{seed}")
    warmup = [_invert_op(warm_rng, 6, 3, "left", 64), _invert_op(warm_rng, 3, 6, "right", 64)]
    mix = _mix_summary(slots, lambda s: f"{s[0]}x{s[1]}/{s[2]}/{s[3]}b")
    mix.update(
        entries="uniform in [0, 2^bits) per slot, bits in {8, 16, 32, 64}",
        entry_bits_shares={
            str(b): round(sum(1 for s in slots if s[3] == b) / len(slots), 4) for b in (8, 16, 32, 64)
        },
        minors_per_op=round(sum(math.comb(max(r, c), min(r, c)) for r, c, _, _ in slots) / len(slots), 2),
    )
    return Workload("bigint_invert", INVERT_WHY, cycles, warmup, mix)


# --------------------------------------------------------------------------
# cli_small

CLI_WHY = (
    "One `python -m k0hom.cli` process at a time over a fixed mix of analyze (text and "
    "machine), compose, invert (exit 0 and exit 4) and snf on matrices of at most 6x4: "
    "interpreter start, import and parse_workspace dominate, so intlin optimisations "
    "should leave it unchanged."
)

CLI_MIX = ("analyze-text", "analyze-machine", "compose-machine", "invert-left", "invert-right-exit4", "snf")


def _valid_hom(rng: random.Random, source: list[int], rows: list[list[int]]) -> list[int]:
    """Target block sizes that fit the copies, with a small random slack."""
    return [max(1, sum(a * n for a, n in zip(row, source)) + rng.choice((0, 0, 1))) for row in rows]


def _cli_variant(rng: random.Random, v: int) -> tuple[dict, dict, dict]:
    """Algebras, homs and matrix files of one variant of the cli mix."""
    algebras: dict[str, list[int]] = {}
    homs: dict[str, dict] = {}
    a_name, b_name, c_name, s_name, t_name = (f"{x}{v}" for x in "ABCST")
    algebras[a_name] = [rng.randint(1, 3) for _ in range(3)]
    f_rows = [[rng.randint(0, 2) for _ in range(3)] for _ in range(4)]
    algebras[b_name] = _valid_hom(rng, algebras[a_name], f_rows)
    g_rows = [[rng.randint(0, 2) for _ in range(4)] for _ in range(2)]
    algebras[c_name] = _valid_hom(rng, algebras[b_name], g_rows)
    homs[f"f{v}"] = {"source": a_name, "target": b_name, "matrix": f_rows}
    homs[f"g{v}"] = {"source": b_name, "target": c_name, "matrix": g_rows}
    algebras[s_name] = [rng.randint(1, 3) for _ in range(4)]
    t_rows = _full_rank_matrix(rng, 6, 4, lambda: rng.randint(0, 3))
    algebras[t_name] = _valid_hom(rng, algebras[s_name], t_rows)
    homs[f"t{v}"] = {"source": s_name, "target": t_name, "matrix": t_rows}
    # unit left inverse guaranteed: the top 4x4 block is unit upper triangular
    left = [[1 if i == j else (rng.randint(-5, 5) if j > i else 0) for j in range(4)] for i in range(4)]
    left += [[rng.randint(-5, 5) for _ in range(4)] for _ in range(2)]
    # every maximal minor even: first row doubled, so invert exits with 4
    right = _full_rank_matrix(rng, 3, 6, lambda: rng.randint(-5, 5))
    right[0] = [2 * x for x in right[0]]
    snf = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(rng.choice((4, 6)))]
    return algebras, homs, {"left": left, "right": right, "snf": snf}


def build_cli(seed: int, workdir: Path, root: Path) -> Workload:
    rng = random.Random(f"cli_small:{seed}")
    k0, ws = _modules()
    runner = CliRunner(root)
    workdir.mkdir(parents=True, exist_ok=True)
    rel = workdir.relative_to(root)
    algebras: dict = {}
    homs: dict = {}
    variants = []
    for v in range(4):
        a, h, mats = _cli_variant(rng, v)
        algebras.update(a)
        homs.update(h)
        files = {}
        for key, rows in mats.items():
            files[key] = str(rel / f"{key}{v}.txt")
            (root / files[key]).write_text(_entries_text(rows, "\n") + "\n", encoding="utf-8")
        variants.append((v, mats, files))
    workspace = rel / "workspace.json"
    (root / workspace).write_text(json.dumps({"algebras": algebras, "homs": homs}, indent=1), encoding="utf-8")

    def machine_expected(name: str, src: str, tgt: str, hom) -> bytes:
        report = k0.analyze(hom)
        return ws.machine_dumps(ws.analysis_document(name, src, tgt, hom, report)).encode()

    def make_hom(name: str):
        spec = homs[name]
        return k0.make_hom(
            k0.FdAlgebra(tuple(algebras[spec["source"]])),
            k0.FdAlgebra(tuple(algebras[spec["target"]])),
            k0.IntMatrix.from_rows(spec["matrix"]),
        )

    def op(label: str, args: list[str], status: int, check_stdout: Callable[[bytes], None]) -> Op:
        def check(result: tuple[int, bytes]) -> None:
            code, stdout = result
            if code != status:
                raise OpFailed(f"{label}: exit status {code}, expected {status}")
            check_stdout(stdout)

        return Op(label, lambda: runner(args), check)

    def equals(expected: bytes) -> Callable[[bytes], None]:
        return lambda out: expect(out == expected, "machine output differs from the in-process document")

    def text_report(name: str) -> Callable[[bytes], None]:
        spec = homs[name]
        rows = spec["matrix"]
        source, target = algebras[spec["source"]], algebras[spec["target"]]
        unital = all(sum(a * n for a, n in zip(row, source)) == t for row, t in zip(rows, target))
        flags = {
            "injective": all(any(col) for col in zip(*rows)),
            "unital": unital,
            "K0 injective": rank_mod(rows, P61) == len(rows[0]),
        }

        def check(out: bytes) -> None:
            lines = out.decode().splitlines()
            expect(lines[0].startswith(f"hom {name}: "), "wrong header")
            seen = dict(line.split(":", 1) for line in lines[1:] if ":" in line)
            for key, value in flags.items():
                expect(seen.get(key, "").strip() == ("yes" if value else "no"), f"wrong {key!r} line")

        return check

    cycles = []
    for v, mats, files in variants:
        ws_arg = ["--workspace", str(workspace)]
        compose_expected = machine_expected(
            f"compose(f{v},g{v})", f"A{v}", f"C{v}", k0.compose(make_hom(f"g{v}"), make_hom(f"f{v}")))
        cycles.append([
            op("analyze-text", ["analyze", *ws_arg, "--hom", f"t{v}"], 0, text_report(f"t{v}")),
            op("analyze-machine", ["analyze", *ws_arg, "--hom", f"f{v}", "--format", "machine"], 0,
               equals(machine_expected(f"f{v}", f"A{v}", f"B{v}", make_hom(f"f{v}")))),
            op("compose-machine", ["compose", *ws_arg, "--homs", f"f{v},g{v}", "--format", "machine"], 0,
               equals(compose_expected)),
            op("invert-left", ["invert", "--side", "left", "--matrix-file", files["left"]], 0,
               lambda out, e=mats["left"]: check_inverse_text(out.decode(), e, "left", True)),
            op("invert-right-exit4", ["invert", "--side", "right", "--matrix-file", files["right"]], 4,
               lambda out, e=mats["right"]: check_inverse_text(out.decode(), e, "right", False)),
            op("snf", ["snf", "--matrix-file", files["snf"]], 0,
               lambda out, e=mats["snf"], r=random.Random(f"cli_small:check:{seed}:{v}"):
               check_snf_text(out.decode(), e, r)),
        ])
    mix = _mix_summary(list(CLI_MIX), lambda s: s)
    mix.update(
        shapes="workspace homs 4x3, 2x4, 6x4; invert 6x4 and 3x6; snf 4x4 or 6x4",
        entries="homs 0..2 and 0..3; invert in [-5, 5] (first right row doubled); snf in [-9, 9]",
        workspace_homs=len(homs),
        minors_per_op={
            "analyze-text": math.comb(6, 4), "analyze-machine (0 if rank-deficient)": math.comb(4, 3),
            "compose-machine": 0, "invert-left": math.comb(6, 4),
            "invert-right-exit4": math.comb(6, 3), "snf": 0,
        },
    )
    warmup = [cycles[0][1]]
    return Workload("cli_small", CLI_WHY, cycles, warmup, mix, cli=runner)


def build(name: str, seed: int, workdir: Path, root: Path) -> Workload:
    if name == "tall_hom_analyze":
        return build_tall(seed)
    if name == "square_snf":
        return build_snf(seed)
    if name == "bigint_invert":
        return build_invert(seed)
    if name == "cli_small":
        return build_cli(seed, workdir, root)
    raise ValueError(f"unknown workload {name!r}")
