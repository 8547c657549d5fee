"""Ground-truth spanning-tree counts via the matrix-tree theorem.

The count equals any cofactor of the Laplacian, here the determinant of the
Laplacian with row and column 0 deleted.  The determinant is computed by
Bareiss fraction-free elimination over Python integers: every intermediate
entry is an exact minor of the original matrix, the final pivot is the
determinant, and the interior division is exact at each step.  No rationals,
no floating point.

Circulant Laplacians are sparse, and the elimination is arranged so that
the cost follows the band: the reduced Laplacian is built from the step
offsets directly in reverse Cuthill-McKee order, which keeps its nonzeros
near the diagonal (the antipodal step of the diagonal family otherwise
spreads them over the whole matrix), and each elimination step touches
only the rows and columns the band can reach.

This path is deliberately independent of the Chebyshev closed forms in
:mod:`circtrees.chebyshev`; agreement between the two is the core
correctness check of the package.
"""

from collections import deque
from itertools import compress, count

from .errors import InternalConsistencyError, NotAttemptedError
from .graph import component_count, neighbour_offsets

DEFAULT_ORACLE_CEILING = 512


def bareiss_determinant(matrix):
    """Exact determinant of a square integer matrix, fraction-free.

    A vanishing pivot is replaced by swapping in a lower row with a nonzero
    entry in that column, flipping the sign; only a column with no such
    entry makes the matrix singular and yields 0.  The reduced Laplacian of
    a connected graph has strictly positive leading minors, so its pivots
    never vanish and no swap happens.

    The work follows the band: with p the input's lower bandwidth, step k
    updates and searches only rows k+1..k+p, and each row is read only up
    to the last column that can be nonzero in it, which an update widens
    to the pivot row's and a swap moves with the row.

    At step k a row with a zero in column k is only multiplied by the pivot
    and divided by the previous one.  Over consecutive skipped steps these
    factors telescope, so such a row is left as it is and brought up to
    date in one multiplication and one exact division when it is next used.
    """
    m = len(matrix)
    if m == 0:
        return 1
    a = [list(row) for row in matrix]
    # end[i]: the last column that can be nonzero in row i, -1 for none
    end = [next(compress(range(m - 1, -1, -1), reversed(row)), -1)
           for row in a]
    band = max(i - next(compress(count(), row), i) for i, row in enumerate(a))
    divisors = [1]  # divisors[k]: the divisor of step k, the previous pivot
    level = [0] * m  # row i holds the values of step level[i]
    sign = 1

    def bring_up(i, k):
        low = level[i]
        if low < k:
            num, den = divisors[k], divisors[low]
            row = a[i]
            for j in range(k, end[i] + 1):
                if row[j]:
                    row[j] = row[j] * num // den
            level[i] = k

    for k in range(m - 1):
        below = range(k + 1, min(k + band + 1, m))
        if a[k][k] == 0:
            swap = next((i for i in below if a[i][k] != 0), None)
            if swap is None:
                return 0
            for v in (a, level, end):
                v[k], v[swap] = v[swap], v[k]
            sign = -sign
        bring_up(k, k)
        rowk, endk = a[k], end[k]
        pivot, divisor = rowk[k], divisors[k]
        for i in below:
            rowi = a[i]
            if rowi[k] == 0:
                continue
            bring_up(i, k)
            aik = rowi[k]
            endi = end[i] = max(end[i], endk)
            for j in range(k + 1, endi + 1):
                if rowi[j] or rowk[j]:
                    rowi[j] = (rowi[j] * pivot - aik * rowk[j]) // divisor
            level[i] = k + 1
        divisors.append(pivot)
    bring_up(m - 1, m - 1)
    return sign * a[m - 1][m - 1]


def _band_order(neighbours):
    """Reverse Cuthill-McKee order of the graph with these neighbour lists.

    Breadth-first search from a vertex of fewest neighbours, visiting
    neighbours by increasing count, reversed; every component is searched.
    A symmetric matrix with these off-diagonal nonzeros has them near its
    diagonal in this order.
    """
    degree = [len(ns) for ns in neighbours]
    seen = [False] * len(neighbours)
    order = []
    for start in sorted(range(len(neighbours)), key=degree.__getitem__):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted(neighbours[v], key=degree.__getitem__):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    order.reverse()
    return order


def tau_oracle(spec, ceiling=DEFAULT_ORACLE_CEILING):
    """Exact spanning-tree count of ``spec`` by reduced-Laplacian determinant.

    Returns 0 for disconnected graphs.  A graph with more vertices than
    ``ceiling`` raises :class:`NotAttemptedError` instead of approximating;
    a ceiling below 0 is invalid input and raises ``ValueError``.
    """
    n = spec.vertex_count
    if ceiling < 0:
        raise ValueError(f"oracle ceiling {ceiling} is negative")
    if n > ceiling:
        raise NotAttemptedError(
            f"{spec} has {n} vertices, above the oracle ceiling {ceiling}",
            "ceiling")
    if component_count(spec) != 1:
        return 0
    # the reduced Laplacian drops vertex 0, so vertex v is index v - 1; it
    # is built in band order, a symmetric permutation keeping the determinant
    offsets = neighbour_offsets(spec)
    neighbours = [sorted(w - 1 for w in ((v + d) % n for d in offsets) if w)
                  for v in range(1, n)]
    order = _band_order(neighbours)
    position = {v: r for r, v in enumerate(order)}
    matrix = [[0] * (n - 1) for _ in order]
    for r, v in enumerate(order):
        matrix[r][r] = len(offsets)
        for w in neighbours[v]:
            matrix[r][position[w]] = -1
    det = bareiss_determinant(matrix)
    if det < 0:
        # cannot happen for a reduced Laplacian; guard against misuse
        raise InternalConsistencyError(f"negative tree count {det} for {spec}")
    return det
