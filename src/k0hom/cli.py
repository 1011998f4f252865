"""Command-line front end.

Subcommands: ``analyze`` a named hom from a workspace file, ``invert`` an
integer matrix from the left or right, ``compose`` a chain of homs and
analyse the composite, and ``snf`` for the Smith normal form of a matrix.

Exit status: 0 on success, 2 for usage or parse errors, 3 for mathematical
precondition failures (infeasible hom, bad dimensions), 4 when ``invert``
finds no unit inverse.  Diagnostics go to stderr, results to stdout.
"""

from __future__ import annotations

import sys
from typing import Optional

import click

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
    PreconditionError,
    scaled_left_inverse,
    smith_normal_form,
)
from .workspace import (
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


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_workspace(path: str) -> Workspace:
    try:
        return parse_workspace(path)
    except WorkspaceError as exc:
        _fail(EXIT_USAGE, str(exc))
    except InvalidHomError as exc:
        _fail(EXIT_PRECONDITION, str(exc))
    except OSError as exc:
        _fail(EXIT_USAGE, f"cannot read workspace: {exc}")
    raise AssertionError("unreachable")


def _read_matrix(matrix_file: Optional[str], matrix_inline: Optional[str]) -> IntMatrix:
    if (matrix_file is None) == (matrix_inline is None):
        _fail(EXIT_USAGE, "provide exactly one of --matrix-file or --matrix")
    try:
        if matrix_file is not None:
            with open(matrix_file, "r", encoding="utf-8") as fh:
                return parse_matrix_text(fh.read())
        assert matrix_inline is not None
        return parse_matrix_text(matrix_inline)
    except WorkspaceError as exc:
        _fail(EXIT_USAGE, str(exc))
    except OSError as exc:
        _fail(EXIT_USAGE, f"cannot read matrix file: {exc}")
    raise AssertionError("unreachable")


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
) -> None:
    report = analyze_hom(hom)
    if fmt == "machine":
        doc = analysis_document(name, source_name, target_name, hom, report)
        click.echo(machine_dumps(doc), nl=False)
    else:
        click.echo(_render_text(name, hom, report))


@click.group()
def main() -> None:
    """Exact analysis of homomorphisms between finite-dimensional C*-algebras."""


@main.command("analyze")
@click.option("--workspace", "workspace_path", required=True, metavar="PATH")
@click.option("--hom", "hom_name", required=True, metavar="NAME")
@click.option(
    "--format", "fmt", type=click.Choice(["text", "machine"]), default="text"
)
def cmd_analyze(workspace_path: str, hom_name: str, fmt: str) -> None:
    """Analyse one named homomorphism from a workspace file."""
    ws = _load_workspace(workspace_path)
    if hom_name not in ws.homs:
        _fail(EXIT_USAGE, f"workspace declares no hom named {hom_name!r}")
    entry = ws.homs[hom_name]
    _emit_report(entry.name, entry.source_name, entry.target_name, entry.hom, fmt)


@main.command("compose")
@click.option("--workspace", "workspace_path", required=True, metavar="PATH")
@click.option(
    "--homs",
    "hom_names",
    required=True,
    metavar="NAME,NAME,...",
    help="At least two hom names, listed in application order.",
)
@click.option(
    "--format", "fmt", type=click.Choice(["text", "machine"]), default="text"
)
def cmd_compose(workspace_path: str, hom_names: str, fmt: str) -> None:
    """Compose a chain of homs (first listed is applied first) and analyse it."""
    names = [n.strip() for n in hom_names.split(",") if n.strip()]
    if len(names) < 2:
        _fail(EXIT_USAGE, "compose needs at least two hom names")
    ws = _load_workspace(workspace_path)
    for n in names:
        if n not in ws.homs:
            _fail(EXIT_USAGE, f"workspace declares no hom named {n!r}")
    entries = [ws.homs[n] for n in names]
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
    _emit_report(
        name, entries[0].source_name, entries[-1].target_name, composite, fmt
    )


@main.command("invert")
@click.option("--side", type=click.Choice(["left", "right"]), required=True)
@click.option("--matrix-file", "matrix_file", metavar="PATH", default=None)
@click.option("--matrix", "matrix_inline", metavar="ROWS", default=None)
def cmd_invert(side: str, matrix_file: Optional[str], matrix_inline: Optional[str]) -> None:
    """One-sided integer inversion: prints d and a verified (scaled) inverse.

    A unit inverse exists exactly when d, the gcd of the determinants of the
    full square submatrices, equals 1; otherwise the scaled inverse with
    product d*I is printed and the exit status is 4.
    """
    e = _read_matrix(matrix_file, matrix_inline)
    work = e if side == "left" else e.transpose()
    try:
        result = scaled_left_inverse(work)
    except (DimensionError, PreconditionError, EnumerationCapExceeded) as exc:
        _fail(EXIT_PRECONDITION, str(exc))
        raise AssertionError("unreachable")
    inverse = result.matrix if side == "left" else result.matrix.transpose()
    click.echo(f"d = {result.d}")
    if result.degenerate:
        click.echo("matrix is rank deficient (d = 0); no one-sided inverse exists")
        sys.exit(EXIT_NO_UNIT_INVERSE)
    n = work.cols
    product = inverse @ e if side == "left" else e @ inverse
    if product != result.d * IntMatrix.identity(n):
        raise AssertionError("inverse failed verification before printing")
    label = "left inverse" if side == "left" else "right inverse"
    if result.d == 1:
        click.echo(f"{label} (verified):")
        click.echo(str(inverse))
        sys.exit(EXIT_OK)
    click.echo(f"no unit {label} exists; scaled inverse with product {result.d}*I:")
    click.echo(str(inverse))
    sys.exit(EXIT_NO_UNIT_INVERSE)


@main.command("snf")
@click.option("--matrix-file", "matrix_file", metavar="PATH", default=None)
@click.option("--matrix", "matrix_inline", metavar="ROWS", default=None)
def cmd_snf(matrix_file: Optional[str], matrix_inline: Optional[str]) -> None:
    """Smith normal form: prints U, D, V with D = U*E*V and the invariant factors."""
    e = _read_matrix(matrix_file, matrix_inline)
    snf = smith_normal_form(e)
    for label, m in (("U", snf.U), ("D", snf.D), ("V", snf.V)):
        click.echo(f"{label} =")
        click.echo(str(m))
    click.echo(f"invariant factors: {list(snf.invariant_factors)}")


if __name__ == "__main__":
    main()
