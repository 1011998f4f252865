"""Workspace files and the machine-readable report format.

A workspace is a single JSON document declaring named algebras and named
homomorphisms between them::

    {
      "algebras": {"A": [2, 3, 4], "B": [5, 4]},
      "homs": {
        "phi": {"source": "A", "target": "B",
                "matrix": [[1, 1, 0], [0, 0, 1]]}
      }
    }

Matrices are row-major with one row per target block.  Every hom is
validated on parse, so infeasible multiplicities are rejected immediately
with the offending row named.

Machine output serialises every integer as a decimal string so consumers
never lose precision on large minors, and uses canonical JSON (sorted keys)
so that parse -> serialise round-trips are byte-stable.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .cstar import AnalysisReport, FdAlgebra, FdHom, make_hom
from .intlin import IntMatrix

__all__ = [
    "WorkspaceError",
    "HomEntry",
    "Workspace",
    "parse_workspace",
    "parse_matrix_text",
    "analysis_document",
    "machine_dumps",
    "matrix_to_document",
    "matrix_from_document",
]


class WorkspaceError(ValueError):
    """The workspace document is malformed or references unknown names."""


@dataclass(frozen=True)
class HomEntry:
    name: str
    source_name: str
    target_name: str
    hom: FdHom


@dataclass
class Workspace:
    algebras: dict[str, FdAlgebra]
    homs: dict[str, HomEntry]


def _load_json(text: str, what: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkspaceError(
            f"malformed {what} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise WorkspaceError(f"malformed {what}: nested too deeply") from None
    except ValueError:
        # json converts integer literals with int(), which refuses long ones
        raise WorkspaceError(
            f"malformed {what}: an integer literal has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def _as_int(value: object, context: str) -> int:
    if isinstance(value, bool):
        raise WorkspaceError(f"{context}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            # int() refuses more digits than the process-wide limit
            limit = sys.get_int_max_str_digits()
            why = f" of at most {limit} digits" if 0 < limit < len(value) else ""
            shown = repr(value) if len(value) <= 40 else f"{value[:40]!r}..."
            raise WorkspaceError(f"{context}: {shown} is not an integer{why}") from None
    raise WorkspaceError(f"{context}: expected an integer, got {type(value).__name__}")


def _parse_matrix(raw: object, context: str) -> IntMatrix:
    if not isinstance(raw, list) or not raw:
        raise WorkspaceError(f"{context}: matrix must be a non-empty array of rows")
    rows = []
    width = None
    for i, row in enumerate(raw):
        if not isinstance(row, list) or not row:
            raise WorkspaceError(f"{context}: row {i} must be a non-empty array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise WorkspaceError(
                f"{context}: row {i} has {len(row)} entries, expected {width}"
            )
        rows.append([_as_int(x, f"{context}, row {i}") for x in row])
    return IntMatrix.from_rows(rows)


def parse_workspace(path: Union[str, Path]) -> Workspace:
    """Load and validate a workspace document.

    Syntax errors carry the line and column; unresolved algebra names, shape
    mismatches and infeasible homs are rejected with the offending name or
    row.
    """
    doc = _load_json(Path(path).read_text(encoding="utf-8"), "workspace")
    if not isinstance(doc, dict):
        raise WorkspaceError("workspace must be a JSON object")

    raw_algebras = doc.get("algebras")
    if not isinstance(raw_algebras, dict) or not raw_algebras:
        raise WorkspaceError("workspace needs a non-empty 'algebras' section")
    algebras: dict[str, FdAlgebra] = {}
    for name, raw_blocks in raw_algebras.items():
        if not isinstance(raw_blocks, list) or not raw_blocks:
            raise WorkspaceError(
                f"algebra {name!r}: block sizes must be a non-empty array"
            )
        blocks = tuple(
            _as_int(b, f"algebra {name!r}, block {i}")
            for i, b in enumerate(raw_blocks)
        )
        if any(b < 1 for b in blocks):
            raise WorkspaceError(f"algebra {name!r}: block sizes must be positive")
        algebras[name] = FdAlgebra(blocks)

    homs: dict[str, HomEntry] = {}
    raw_homs = doc.get("homs", {})
    if not isinstance(raw_homs, dict):
        raise WorkspaceError("'homs' must be an object of named homomorphisms")
    for name, raw in raw_homs.items():
        if not isinstance(raw, dict):
            raise WorkspaceError(f"hom {name!r} must be an object")
        for key in ("source", "target", "matrix"):
            if key not in raw:
                raise WorkspaceError(f"hom {name!r} is missing {key!r}")
        source_name, target_name = raw["source"], raw["target"]
        for which, algebra_name in (("source", source_name), ("target", target_name)):
            if not isinstance(algebra_name, str):
                raise WorkspaceError(
                    f"hom {name!r}: {which} must be an algebra name, "
                    f"got {type(algebra_name).__name__}"
                )
            if algebra_name not in algebras:
                raise WorkspaceError(
                    f"hom {name!r}: {which} algebra {algebra_name!r} is not declared"
                )
        source = algebras[source_name]
        target = algebras[target_name]
        matrix = _parse_matrix(raw["matrix"], f"hom {name!r}")
        if (matrix.rows, matrix.cols) != (target.num_blocks, source.num_blocks):
            raise WorkspaceError(
                f"hom {name!r}: matrix is {matrix.rows}x{matrix.cols} but "
                f"target has {target.num_blocks} blocks and source has "
                f"{source.num_blocks}"
            )
        hom = make_hom(source, target, matrix)
        homs[name] = HomEntry(
            name=name, source_name=source_name, target_name=target_name, hom=hom
        )
    return Workspace(algebras=algebras, homs=homs)


def parse_matrix_text(text: str) -> IntMatrix:
    """Parse a matrix from inline text or file content.

    Accepts a JSON array of rows, or rows separated by ';' or newlines with
    entries separated by commas or whitespace: "3 3; 2 0; 0 5".
    """
    text = text.strip()
    if not text:
        raise WorkspaceError("empty matrix")
    if text.startswith("["):
        return _parse_matrix(_load_json(text, "matrix"), "matrix")
    rows = [
        chunk.replace(",", " ").split()
        for chunk in text.replace("\n", ";").split(";")
        if chunk.strip()
    ]
    return _parse_matrix(rows, "matrix")


def matrix_to_document(m: IntMatrix) -> list[list[str]]:
    """Row-major array of decimal strings."""
    return [[str(x) for x in m.row(i)] for i in range(m.rows)]


def matrix_from_document(rows: list[list[str]]) -> IntMatrix:
    return IntMatrix.from_rows([[int(x, 10) for x in row] for row in rows])


def analysis_document(
    name: str,
    source_name: str,
    target_name: str,
    hom: FdHom,
    report: AnalysisReport,
) -> dict:
    """The machine-format document for one analysed homomorphism.

    Every report field appears; integers are decimal strings, matrices are
    row-major arrays of decimal strings, flags are JSON booleans.
    """
    certificate = (
        matrix_to_document(report.left_inverse_certificate)
        if report.left_inverse_certificate is not None
        else None
    )
    return {
        "hom": name,
        "source": source_name,
        "target": target_name,
        "source_blocks": [str(b) for b in hom.source.blocks],
        "target_blocks": [str(b) for b in hom.target.blocks],
        "matrix": matrix_to_document(hom.matrix),
        "slack": [str(s) for s in hom.slack],
        "analysis": {
            "phi_injective": report.phi_injective,
            "phi_surjective": report.phi_surjective,
            "phi_unital": report.phi_unital,
            "k0_injective": report.k0_injective,
            "k0_surjective": report.k0_surjective,
            "k0_unital": report.k0_unital,
            "cokernel_torsion_free": report.cokernel_torsion_free,
            "torsion_criterion": report.torsion_criterion,
            "minor_gcd": None if report.minor_gcd is None else str(report.minor_gcd),
            "left_inverse": certificate,
            "invariant_factors": [str(f) for f in report.invariant_factors],
            "entry_gcd": str(report.entry_gcd),
            "column_gcds": [str(c) for c in report.column_gcds],
            "notes": list(report.notes),
        },
    }


def machine_dumps(document: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
