"""Ground-truth spanning-tree counts via the matrix-tree theorem.

The count equals any cofactor of the Laplacian, here the determinant of the
Laplacian with row and column 0 deleted.  The determinant is computed by
Bareiss fraction-free elimination over Python integers: every intermediate
entry is an exact minor of the original matrix, the final pivot is the
determinant, and the interior division is exact at each step.  No rationals,
no floating point.

This path is deliberately independent of the Chebyshev closed forms in
:mod:`circtrees.chebyshev`; agreement between the two is the core
correctness check of the package.
"""

import os

from .errors import OracleCeilingError
from .graph import component_count, laplacian

DEFAULT_ORACLE_CEILING = 512

_ENV_CEILING = "CIRC_ORACLE_CEILING"


def oracle_ceiling():
    """Current oracle size limit (vertices); CIRC_ORACLE_CEILING overrides."""
    raw = os.environ.get(_ENV_CEILING)
    if raw is None:
        return DEFAULT_ORACLE_CEILING
    try:
        return int(raw)
    except ValueError:
        raise OracleCeilingError(
            f"{_ENV_CEILING}={raw!r} is not an integer") from None


def bareiss_determinant(matrix):
    """Exact determinant of a square integer matrix, fraction-free.

    A vanishing pivot is replaced by swapping in a lower row with a nonzero
    entry in that column, flipping the sign; only a column with no such
    entry makes the matrix singular and yields 0.  The reduced Laplacian of
    a connected graph has strictly positive leading minors, so its pivots
    never vanish and no swap happens.
    """
    m = len(matrix)
    if m == 0:
        return 1
    a = [list(row) for row in matrix]
    prev = 1
    sign = 1
    for k in range(m - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, m) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, m):
            aik = a[i][k]
            rowi = a[i]
            rowk = a[k]
            for j in range(k + 1, m):
                rowi[j] = (rowi[j] * pivot - aik * rowk[j]) // prev
        prev = pivot
    return sign * a[m - 1][m - 1]


def tau_oracle(spec, ceiling=None):
    """Exact spanning-tree count of ``spec`` by reduced-Laplacian determinant.

    Returns 0 for disconnected graphs.  Refuses graphs larger than the
    ceiling (default :func:`oracle_ceiling`) instead of approximating.
    """
    n = spec.vertex_count
    limit = ceiling if ceiling is not None else oracle_ceiling()
    if n > limit:
        raise OracleCeilingError(
            f"{spec} has {n} vertices, above the oracle ceiling {limit}")
    if component_count(spec) != 1:
        return 0
    lap = laplacian(spec)
    reduced = [row[1:] for row in lap[1:]]
    det = bareiss_determinant(reduced)
    if det < 0:
        # cannot happen for a reduced Laplacian; guard against misuse
        raise AssertionError(f"negative tree count {det} for {spec}")
    return det
