"""Output checks that use only the benchmark's own integer arithmetic.

Nothing here calls k0hom: each check parses the text an operation printed
and verifies it by multiplication, so a fault in the library cannot vouch
for itself.  Checks raise :class:`Mismatch` on a wrong answer and
:class:`OpFailed` when the program produced no answer (unexpected exit
status); they return None when the output is correct.
"""

from __future__ import annotations

import random

Rows = list[list[int]]

#: Prime for rank tests; full rank mod P61 proves full rank over Q.
P61 = (1 << 61) - 1


class Mismatch(Exception):
    """The operation produced an output, and the output is wrong."""


class OpFailed(Exception):
    """The operation produced no usable output (for example a bad exit status)."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def matmul(a: Rows, b: Rows) -> Rows:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def scaled_identity(n: int, d: int) -> Rows:
    return [[d if i == j else 0 for j in range(n)] for i in range(n)]


def rank_mod(a: Rows, p: int) -> int:
    """Rank of a over GF(p).

    ``rank_mod(a, p) == len(a[0])`` proves the columns independent over Q;
    ``rank_mod(a, p) < len(a[0])`` proves p divides every maximal minor.
    """
    m = [[x % p for x in row] for row in a]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        for i in range(rank + 1, len(m)):
            f = m[i][col] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def parse_matrix_lines(lines: list[str]) -> Rows:
    """Parse the ``[ a  b ]`` rows that ``IntMatrix.__str__`` prints."""
    rows = []
    for line in lines:
        line = line.strip()
        expect(line.startswith("[") and line.endswith("]"), f"not a matrix row: {line[:40]!r}")
        rows.append([int(tok) for tok in line[1:-1].split()])
    expect(bool(rows) and all(len(r) == len(rows[0]) for r in rows), "ragged matrix")
    return rows


def check_inverse_text(text: str, e: Rows, side: str, unit: bool | None) -> None:
    """Verify the output of ``k0hom invert``: ``K @ E == d*I`` (or ``E @ K``).

    ``unit`` True requires d == 1, False requires d > 1, None accepts both.
    """
    lines = text.splitlines()
    expect(lines[0].startswith("d = "), "missing d line")
    d = int(lines[0][4:])
    expect(d >= 1, f"d = {d} certifies nothing")
    if unit is not None:
        expect((d == 1) == unit, f"unexpected d = {d}")
    label = "left inverse" if side == "left" else "right inverse"
    header = f"{label} (verified):" if d == 1 else (
        f"no unit {label} exists; scaled inverse with product {d}*I:")
    expect(lines[1] == header, f"unexpected header {lines[1]!r}")
    k = parse_matrix_lines(lines[2:])
    if side == "left":
        expect(matmul(k, e) == scaled_identity(len(e[0]), d), "K @ E != d*I")
    else:
        expect(matmul(e, k) == scaled_identity(len(e), d), "E @ K != d*I")


def _split_sections(lines: list[str], labels: tuple[str, ...]) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current = None
    for line in lines:
        if line.endswith(" =") and line[:-2] in labels:
            current = sections.setdefault(line[:-2], [])
        elif current is not None:
            current.append(line)
    return sections


def check_snf_text(text: str, e: Rows, rng: random.Random) -> None:
    """Verify the output of ``k0hom snf``: ``U @ E @ V == D`` and the chain.

    The product is checked exactly on two random 64-bit vectors x
    (``U(E(Vx)) == Dx``); a wrong product passes one vector with
    probability at most 2**-64.  D must be diagonal and nonnegative, its
    nonzero entries must come first and divide each other in order, and
    the printed invariant factors must equal them.
    """
    lines = text.splitlines()
    expect(lines[-1].startswith("invariant factors: "), "missing invariant factors line")
    sections = _split_sections(lines[:-1], ("U", "D", "V"))
    expect(set(sections) == {"U", "D", "V"}, "missing U, D or V")
    u, d, v = (parse_matrix_lines(sections[k]) for k in ("U", "D", "V"))
    rows, cols = len(e), len(e[0])
    expect(len(u) == len(u[0]) == rows and len(v) == len(v[0]) == cols, "bad shapes")
    expect((len(d), len(d[0])) == (rows, cols), "D has the wrong shape")
    for _ in range(2):
        x = [rng.randrange(1 << 64) for _ in range(cols)]
        vx = [sum(a * b for a, b in zip(row, x)) for row in v]
        evx = [sum(a * b for a, b in zip(row, vx)) for row in e]
        uevx = [sum(a * b for a, b in zip(row, evx)) for row in u]
        dx = [sum(a * b for a, b in zip(row, x)) for row in d]
        expect(uevx == dx, "U @ E @ V != D")
    diagonal = [d[i][i] for i in range(min(rows, cols))]
    expect(
        all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j),
        "D is not diagonal",
    )
    expect(all(x >= 0 for x in diagonal), "negative diagonal entry")
    factors = [x for x in diagonal if x]
    expect(diagonal[: len(factors)] == factors, "zero before a nonzero factor")
    expect(all(b % a == 0 for a, b in zip(factors, factors[1:])), "divisibility chain broken")
    expect(lines[-1] == f"invariant factors: {factors}", "invariant factors line disagrees with D")
