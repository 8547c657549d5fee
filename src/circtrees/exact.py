"""Ground-truth spanning-tree counts via the matrix-tree theorem.

The count equals any cofactor of the Laplacian, here the determinant of the
Laplacian with row and column 0 deleted.  The determinant is computed by
Bareiss fraction-free elimination over Python integers: every intermediate
entry is an exact minor of the original matrix, the final pivot is the
determinant, and the interior division is exact at each step.  No rationals,
no floating point.

Circulant Laplacians are sparse, and the elimination is arranged so that
the cost follows the nonzeros: the reduced Laplacian is put in reverse
Cuthill-McKee order, which keeps its nonzeros near the diagonal (the
antipodal step of the diagonal family otherwise spreads them over the whole
matrix), and a row with a zero in the pivot column is left alone until it
is next needed.

This path is deliberately independent of the Chebyshev closed forms in
:mod:`circtrees.chebyshev`; agreement between the two is the core
correctness check of the package.
"""

import os
from collections import deque

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

    At step k a row with a zero in column k is only multiplied by the pivot
    and divided by the previous one.  Over consecutive skipped steps these
    factors telescope, so such a row is left as it is and brought up to
    date in one multiplication and one exact division when it is next used.
    """
    m = len(matrix)
    if m == 0:
        return 1
    a = [list(row) for row in matrix]
    divisors = [1]  # divisors[k]: the divisor of step k, the previous pivot
    level = [0] * m  # row i holds the values of step level[i]
    sign = 1

    def bring_up(i, k):
        low = level[i]
        if low < k:
            num, den = divisors[k], divisors[low]
            row = a[i]
            for j in range(k, m):
                if row[j]:
                    row[j] = row[j] * num // den
            level[i] = k

    for k in range(m - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, m) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            level[k], level[swap] = level[swap], level[k]
            sign = -sign
        bring_up(k, k)
        rowk = a[k]
        pivot, divisor = rowk[k], divisors[k]
        for i in range(k + 1, m):
            rowi = a[i]
            if rowi[k] == 0:
                continue
            bring_up(i, k)
            aik = rowi[k]
            for j in range(k + 1, m):
                if rowi[j] or rowk[j]:
                    rowi[j] = (rowi[j] * pivot - aik * rowk[j]) // divisor
            level[i] = k + 1
        divisors.append(pivot)
    bring_up(m - 1, m - 1)
    return sign * a[m - 1][m - 1]


def _band_order(matrix):
    """Reverse Cuthill-McKee order of the rows of a symmetric matrix.

    Breadth-first search from a row of fewest off-diagonal nonzeros,
    visiting neighbours by increasing count, reversed; every component is
    searched.  Nonzeros of the reordered matrix lie near its diagonal.
    """
    neighbours = [[j for j, x in enumerate(row) if x and j != i]
                  for i, row in enumerate(matrix)]
    count = [len(ns) for ns in neighbours]
    seen = [False] * len(matrix)
    order = []
    for start in sorted(range(len(matrix)), key=count.__getitem__):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted(neighbours[v], key=count.__getitem__):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    order.reverse()
    return order


def tau_oracle(spec, ceiling=None):
    """Exact spanning-tree count of ``spec`` by reduced-Laplacian determinant.

    Returns 0 for disconnected graphs.  Refuses graphs larger than the
    ceiling (default :func:`oracle_ceiling`) instead of approximating; a
    ceiling below 0 is invalid input and raises ``ValueError``.
    """
    n = spec.vertex_count
    limit = ceiling if ceiling is not None else oracle_ceiling()
    if limit < 0:
        raise ValueError(f"oracle ceiling {limit} is negative")
    if n > limit:
        raise OracleCeilingError(
            f"{spec} has {n} vertices, above the oracle ceiling {limit}")
    if component_count(spec) != 1:
        return 0
    lap = laplacian(spec)
    reduced = [row[1:] for row in lap[1:]]
    # a symmetric permutation keeps the determinant
    order = _band_order(reduced)
    det = bareiss_determinant([[reduced[i][j] for j in order] for i in order])
    if det < 0:
        # cannot happen for a reduced Laplacian; guard against misuse
        raise AssertionError(f"negative tree count {det} for {spec}")
    return det
