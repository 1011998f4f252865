"""Command-line front end.

Subcommands: ``analyze`` a named hom from a workspace file, ``invert`` an
integer matrix from the left or right, ``compose`` a chain of homs and
analyse the composite, and ``snf`` for the Smith normal form of a matrix.

Exit status: 0 on success, 2 for usage or parse errors, 3 for mathematical
precondition failures (infeasible hom, bad dimensions), 4 when ``invert``
finds no unit inverse.  Diagnostics go to stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn, Optional, Sequence

from .cstar import (
    AnalysisReport,
    FdHom,
    InvalidHomError,
    analyze as analyze_hom,
    compose as compose_homs,
)
from .intlin import (
    DimensionError,
    EnumerationCapExceeded,
    IntMatrix,
    InvariantViolation,
    PreconditionError,
    scaled_left_inverse,
    smith_normal_form,
)
from .workspace import (
    HomEntry,
    Workspace,
    WorkspaceError,
    analysis_document,
    machine_dumps,
    parse_matrix_text,
    parse_workspace,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_NO_UNIT_INVERSE = 4


def _fail(code: int, message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _entry(ws: Workspace, name: str) -> HomEntry:
    if name not in ws.homs:
        _fail(EXIT_USAGE, f"workspace declares no hom named {name!r}")
    return ws.homs[name]


def _read_matrix(args: argparse.Namespace) -> IntMatrix:
    if args.matrix_file is None:
        return parse_matrix_text(args.matrix_inline)
    with open(args.matrix_file, "r", encoding="utf-8") as fh:
        return parse_matrix_text(fh.read())


def _yesno(flag: Optional[bool]) -> str:
    if flag is None:
        return "undecided"
    return "yes" if flag else "no"


def _render_text(name: str, hom: FdHom, report: AnalysisReport) -> str:
    lines = [
        f"hom {name}: {hom.source} -> {hom.target}",
        "multiplicity matrix:",
    ]
    lines += [f"  {line}" for line in str(hom.matrix).splitlines()]
    lines.append(f"slack: {hom.slack}")
    lines.append(f"injective:               {_yesno(report.phi_injective)}")
    lines.append(f"surjective:              {_yesno(report.phi_surjective)}")
    lines.append(f"unital:                  {_yesno(report.phi_unital)}")
    lines.append(f"K0 injective:            {_yesno(report.k0_injective)}")
    lines.append(f"K0 surjective:           {_yesno(report.k0_surjective)}")
    lines.append(f"K0 unital:               {_yesno(report.k0_unital)}")
    lines.append(
        f"cokernel torsion free:   {_yesno(report.cokernel_torsion_free)}"
        f"  (by {report.torsion_criterion})"
    )
    if report.minor_gcd is not None:
        lines.append(f"minor gcd:               {report.minor_gcd}")
    lines.append(f"invariant factors:       {list(report.invariant_factors)}")
    lines.append(f"entry gcd:               {report.entry_gcd}")
    lines.append(f"column gcds:             {list(report.column_gcds)}")
    if report.left_inverse_certificate is not None:
        lines.append("left inverse certificate:")
        lines += [
            f"  {line}" for line in str(report.left_inverse_certificate).splitlines()
        ]
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _emit_report(
    name: str, source_name: str, target_name: str, hom: FdHom, fmt: str
) -> int:
    report = analyze_hom(hom)
    if fmt == "machine":
        doc = analysis_document(name, source_name, target_name, hom, report)
        sys.stdout.write(machine_dumps(doc))
    else:
        print(_render_text(name, hom, report))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    """Analyse one named homomorphism from a workspace file."""
    entry = _entry(parse_workspace(args.workspace), args.hom)
    return _emit_report(
        entry.name, entry.source_name, entry.target_name, entry.hom, args.format
    )


def cmd_compose(args: argparse.Namespace) -> int:
    """Compose a chain of homs (first listed is applied first) and analyse it."""
    names = [n.strip() for n in args.homs.split(",") if n.strip()]
    if len(names) < 2:
        _fail(EXIT_USAGE, "compose needs at least two hom names")
    ws = parse_workspace(args.workspace)
    entries = [_entry(ws, n) for n in names]
    composite = entries[0].hom
    for previous, entry in zip(entries, entries[1:]):
        try:
            composite = compose_homs(entry.hom, composite)
        except InvalidHomError:
            _fail(
                EXIT_PRECONDITION,
                f"cannot compose {previous.name} -> {entry.name}: middle "
                f"algebras differ ({previous.target_name} vs {entry.source_name})",
            )
    name = "compose(" + ",".join(names) + ")"
    return _emit_report(
        name, entries[0].source_name, entries[-1].target_name, composite, args.format
    )


def cmd_invert(args: argparse.Namespace) -> int:
    """One-sided integer inversion: prints d and a verified (scaled) inverse.

    A unit inverse exists exactly when d, the gcd of the determinants of the
    full square submatrices, equals 1; otherwise the scaled inverse with
    product d*I is printed and the exit status is 4.
    """
    e = _read_matrix(args)
    left = args.side == "left"
    work = e if left else e.transpose()
    result = scaled_left_inverse(work)
    inverse = result.matrix if left else result.matrix.transpose()
    print(f"d = {result.d}")
    if result.degenerate:
        print("matrix is rank deficient (d = 0); no one-sided inverse exists")
        return EXIT_NO_UNIT_INVERSE
    product = inverse @ e if left else e @ inverse
    if product != result.d * IntMatrix.identity(work.cols):
        raise InvariantViolation("inverse failed verification before printing")
    label = f"{args.side} inverse"
    if result.d == 1:
        print(f"{label} (verified):")
        print(inverse)
        return EXIT_OK
    print(f"no unit {label} exists; scaled inverse with product {result.d}*I:")
    print(inverse)
    return EXIT_NO_UNIT_INVERSE


def cmd_snf(args: argparse.Namespace) -> int:
    """Smith normal form: prints U, D, V with D = U*E*V and the invariant factors."""
    snf = smith_normal_form(_read_matrix(args))
    for label, m in (("U", snf.U), ("D", snf.D), ("V", snf.V)):
        print(f"{label} =")
        print(m)
    print(f"invariant factors: {list(snf.invariant_factors)}")
    return EXIT_OK


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Exact analysis of homomorphisms between finite-dimensional C*-algebras.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    sub = {}
    for handler in (cmd_analyze, cmd_compose, cmd_invert, cmd_snf):
        name, doc = handler.__name__.removeprefix("cmd_"), handler.__doc__
        sub[name] = commands.add_parser(
            name, help=doc.splitlines()[0], description=doc, allow_abbrev=False
        )
        sub[name].set_defaults(handler=handler)
    for name in ("analyze", "compose"):
        sub[name].add_argument("--workspace", required=True, metavar="PATH")
    sub["analyze"].add_argument("--hom", required=True, metavar="NAME")
    sub["compose"].add_argument(
        "--homs",
        required=True,
        metavar="NAME,NAME,...",
        help="At least two hom names, listed in application order.",
    )
    for name in ("analyze", "compose"):
        sub[name].add_argument("--format", choices=["text", "machine"], default="text")
    sub["invert"].add_argument("--side", choices=["left", "right"], required=True)
    for name in ("invert", "snf"):
        source = sub[name].add_mutually_exclusive_group(required=True)
        source.add_argument("--matrix-file", metavar="PATH")
        source.add_argument("--matrix", dest="matrix_inline", metavar="ROWS")
    return parser


def _attach_values(args: Sequence[str]) -> list[str]:
    """Rewrite each ``--option value`` pair as ``--option=value``.

    Every long option except ``--help`` takes one value.  argparse would
    read a value that starts with '-', such as the inline matrix "-1,2;3,4",
    as an option of its own; attached, it stays the option's value.
    """
    out = []
    rest = iter(args)
    for arg in rest:
        if arg.startswith("--") and arg not in ("--", "--help") and "=" not in arg:
            value = next(rest, None)
            if value is not None:
                arg = f"{arg}={value}"
        out.append(arg)
    return out


def main(args: Optional[Sequence[str]] = None, prog_name: Optional[str] = None) -> NoReturn:
    """Run one subcommand and exit with its status; errors map to 2 or 3."""
    argv = sys.argv[1:] if args is None else args
    parsed = _parser(prog_name or "k0hom").parse_args(_attach_values(argv))
    try:
        status = parsed.handler(parsed)
    except OSError as exc:
        if exc.filename is None:
            _fail(EXIT_USAGE, str(exc))
        _fail(EXIT_USAGE, f"cannot read {exc.filename}: {exc.strerror}")
    except WorkspaceError as exc:
        _fail(EXIT_USAGE, str(exc))
    except (PreconditionError, DimensionError, EnumerationCapExceeded) as exc:
        _fail(EXIT_PRECONDITION, str(exc))
    raise SystemExit(status)


if __name__ == "__main__":
    main()
