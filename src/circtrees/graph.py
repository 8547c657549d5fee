"""Circulant graph specifications and their Laplacians.

A circulant graph on N vertices 0..N-1 connects i to i +/- s (mod N) for
each step s in a fixed step set.  Two families are handled:

* even valency: C_N(s_1,...,s_k) with s_k < N/2, every vertex has degree 2k;
* odd valency:  C_{2n}(s_1,...,s_k,n) with s_k < n, where the extra step n
  joins antipodal vertices ("diagonal" step) and raises the degree to 2k+1.

``CirculantSpec`` stores the diagonal step as a flag rather than a list
element, and for diagonal specs ``order`` holds the half-order n (the graph
has 2n vertices).  Step sets are kept canonical: folded into 1..floor(N/2),
strictly increasing, with a step equal to N/2 expressed only via the flag.
The Laplacian and the oracle's matrix are built from neighbour_offsets.
"""

import math
import re
from collections import namedtuple

from .errors import SpecError, SpecParseError

_LITERAL_RE = re.compile(r"^C(\d+)\(\s*(\d+(?:\s*,\s*\d+)*)\s*(;d)?\s*\)$")


class CirculantSpec(namedtuple("CirculantSpec", "order steps diagonal")):
    """Canonical description of a circulant graph, as a named tuple
    validated by ``__new__`` and ``_make`` (so by ``_replace`` too).

    order    -- number of vertices for even-valency specs; half-order n for
                diagonal specs (the graph then has 2n vertices).
    steps    -- strictly increasing positive steps, diagonal step excluded.
    diagonal -- True for the odd-valency family C_{2n}(steps, n).
    """

    __slots__ = ()

    def __new__(cls, order, steps, diagonal=False):
        self = super().__new__(cls, order, steps, diagonal)
        if not self.steps:
            raise SpecError("step set must be nonempty")
        if list(self.steps) != sorted(set(self.steps)):
            raise SpecError(f"steps must be strictly increasing: {self.steps}")
        if self.steps[0] < 1:
            raise SpecError(f"steps must be positive: {self.steps}")
        lo = self.smallest_order(self.steps, self.diagonal)
        if self.order < lo:
            raise SpecError(
                f"{self.family} spec with s_k = {self.steps[-1]} needs order "
                f">= {lo}, got {self.order}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @staticmethod
    def smallest_order(steps, diagonal=False):
        """Smallest order at which the (steps, family) family keeps every step.

        It is 2 s_k + 1 for even valency and half-order s_k + 1 for the
        diagonal family; below it the steps fold together or onto the
        diagonal step, so the graph leaves the family.
        """
        s_k = max(steps)
        return s_k + 1 if diagonal else 2 * s_k + 1

    @property
    def vertex_count(self):
        return 2 * self.order if self.diagonal else self.order

    @property
    def valency(self):
        return 2 * len(self.steps) + (1 if self.diagonal else 0)

    @property
    def family(self):
        return "diagonal" if self.diagonal else "even"

    @property
    def literal(self):
        body = ",".join(str(s) for s in self.steps)
        if self.diagonal:
            return f"C{self.order}({body};d)"
        return f"C{self.order}({body})"

    def __str__(self):
        return self.literal


def canonicalize(order, raw_steps, diagonal=False):
    """Fold a raw step list into a canonical :class:`CirculantSpec`.

    ``order`` is the full vertex count, unless ``diagonal`` is set, in which
    case it is the half-order n of C_{2n}(..., n).  Steps are reduced mod N
    and folded via s -> min(s mod N, N - s mod N).  A step folding onto N/2
    of an even N becomes the diagonal flag; two steps folding together are a
    multigraph and are rejected.
    """
    if order < 2:
        raise SpecError(f"order must be at least 2, got {order}")
    n_full = 2 * order if diagonal else order
    has_diag = bool(diagonal)
    folded = set()
    for s in raw_steps:
        t = s % n_full
        if t == 0:
            raise SpecError(f"step {s} is zero mod {n_full}")
        t = min(t, n_full - t)
        if n_full % 2 == 0 and t == n_full // 2:
            if has_diag:
                raise SpecError(
                    f"step {s} duplicates the diagonal step {n_full // 2}")
            has_diag = True
            continue
        if t in folded:
            raise SpecError(
                f"steps fold together at {t} mod {n_full} (multigraph)")
        folded.add(t)
    if not folded:
        raise SpecError("step set is empty after folding")
    steps = tuple(sorted(folded))
    if has_diag:
        return CirculantSpec(n_full // 2, steps, diagonal=True)
    return CirculantSpec(n_full, steps, diagonal=False)


def parse_spec(literal):
    """Parse a spec literal like ``C12(1,3)`` or ``C12(1,2;d)``.

    The ``;d`` marker selects the diagonal family, with the leading number
    read as the half-order: ``C12(1,2;d)`` is the 24-vertex graph
    C_24(1,2,12).
    """
    m = _LITERAL_RE.match(literal.strip())
    if not m:
        raise SpecParseError(f"cannot parse spec literal {literal!r}")
    order = int(m.group(1))
    steps = [int(tok) for tok in m.group(2).split(",")]
    diagonal = m.group(3) is not None
    try:
        return canonicalize(order, steps, diagonal)
    except SpecError as exc:
        raise SpecParseError(f"invalid spec {literal!r}: {exc}") from exc


def diagonal_flag(family):
    """True for "diagonal", False for "even"; other names are a ValueError."""
    if family not in ("even", "diagonal"):
        raise ValueError(f"unknown family {family!r}")
    return family == "diagonal"


def component_count(spec):
    """Number of connected components of ``spec``.

    This is gcd(steps, order) in both families: for the diagonal family the
    order is the half-order n, and the diagonal step n adds nothing to the
    gcd with the vertex count 2n.
    """
    return math.gcd(spec.order, *spec.steps)


def is_connected(spec):
    return component_count(spec) == 1


def neighbour_offsets(spec):
    """The ``spec.valency`` distinct offsets d, 0 < d < N, such that each
    vertex i is adjacent to i + d (mod N): s and N - s per step, and N/2."""
    n = spec.vertex_count
    return (*spec.steps, *(n - s for s in spec.steps),
            *((spec.order,) if spec.diagonal else ()))


def laplacian(spec):
    """Exact integer Laplacian (degree matrix minus adjacency matrix).

    Returns an N x N list of Python ints; the matrix is circulant and
    symmetric, and every row sums to zero.
    """
    n = spec.vertex_count
    row = [0] * n
    row[0] = spec.valency
    for d in neighbour_offsets(spec):
        row[d] -= 1
    return [[row[(j - i) % n] for j in range(n)] for i in range(n)]


def eigenvalue(spec, j):
    """The j-th Laplacian eigenvalue, j = 0..N-1.

    For the even family this is 2k - sum_i 2 cos(2 pi j s_i / N); the
    diagonal step contributes a further 1 - (-1)^j.
    """
    n = spec.vertex_count
    if not 0 <= j < n:
        raise ValueError(f"eigenvalue index {j} out of range 0..{n - 1}")
    lam = 2.0 * len(spec.steps)
    for s in spec.steps:
        lam -= 2.0 * math.cos(2.0 * math.pi * j * s / n)
    if spec.diagonal:
        lam += 1.0 - (-1.0) ** j
    return lam


def multiplier_conjugate(spec, r):
    """Canonical spec for the step set {r * s_i mod N}, gcd(r, N) = 1.

    Conjugation by a unit multiplier is a graph isomorphism, so the result
    has the same spanning-tree count as ``spec``.
    """
    n = spec.vertex_count
    if math.gcd(r, n) != 1:
        raise ValueError(f"multiplier {r} is not a unit mod {n}")
    raw = [r * s for s in spec.steps]
    if spec.diagonal:
        raw.append(r * spec.order)
    return canonicalize(n, raw, diagonal=False)
