"""Torsion in cokernels of integer matrices, decided three ways.

The cokernel of E (the target lattice modulo the column span) is torsion
free exactly when every nonzero invariant factor of E is 1.  When the
columns are independent this is also equivalent to the gcd of the full
square minors being 1, and to the existence of an integer left inverse.
This script decides a torsion-free and a torsion example by all routes,
and hunts for explicit torsion witnesses with a bounded search.

Run:  python demos/torsion_and_cokernels.py
"""

from k0hom import IntMatrix, cokernel_torsion_free_matrix, smith_normal_form
from k0hom.oracle import bounded_torsion_search, torsion_free_by_snf

GOOD = IntMatrix.from_rows([[3, 3], [2, 0], [0, 5]])   # minor gcd 1
BAD = IntMatrix.from_rows([[2], [0]])                  # minor gcd 2

for name, e in (("GOOD", GOOD), ("BAD", BAD)):
    print(f"{name} =")
    print(e)

    snf = smith_normal_form(e)
    print(f"invariant factors: {snf.invariant_factors}")
    assert snf.D == snf.U @ e @ snf.V  # the decomposition is exact

    flag, certificate = cokernel_torsion_free_matrix(e)
    print(f"cokernel torsion free: {flag}  (decided by {certificate.criterion})")
    if certificate.minor_gcd is not None:
        print(f"  minor gcd: {certificate.minor_gcd}")
    if certificate.left_inverse is not None:
        print("  certified left inverse:")
        for line in str(certificate.left_inverse).splitlines():
            print("   ", line)

    # Independent cross-check: gcds of rank-sized minors, no elimination.
    assert torsion_free_by_snf(e) == flag

    # A torsion element is a vector outside the column span with a multiple
    # inside it.  The bounded search scans a small box exhaustively; finding
    # a witness proves torsion, finding none proves nothing.
    witness = bounded_torsion_search(e, box=2, max_n=3)
    if witness is None:
        print("no torsion witness in the search box")
    else:
        y, n = witness.vector, witness.multiplier
        print(f"torsion witness: {y} is outside the span, {n}*{y} is inside")
    print()

# The invariant factors also name the cokernel: for BAD they are (2,), so
# the cokernel of [[2], [0]] is Z/2 + Z.
print("cokernel of BAD is Z/2 + Z: the factor 2 is the torsion part.")
