"""Square-free arithmetic structure of spanning-tree counts.

For every connected circulant graph the count factors as

    tau = c * n * a^2

with an integer a and a proven square-free coefficient c depending only on
the step parities and the parity of n:

* even valency: c = 1 for odd n, else the square-free part of p, where p
  counts the odd steps;
* diagonal family: c = square-free part of 2p + 1 for odd n, of 2p for
  even n.

``decompose`` verifies the divisibility and the perfect square exactly; a
failure is a theorem violation, not a recoverable condition.
"""

import math
from collections import namedtuple

from . import algebra
from .errors import DisconnectedGraphError, InternalConsistencyError
from .graph import CirculantSpec, component_count, diagonal_flag


def square_free_part(m):
    """Unique square-free q with m = q * r^2, by wheel trial division.

    The inputs of interest here are tiny (coefficients bounded by twice the
    number of steps), so no heavy factorization machinery is warranted.
    """
    if m < 1:
        raise ValueError(f"square_free_part needs a positive integer, got {m}")
    q = 1
    for p in _trial_divisors(m):
        if p * p > m:
            break
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e % 2 == 1:
            q *= p
    return q * m


def _trial_divisors(limit):
    yield 2
    yield 3
    d = 5
    while d * d <= limit:
        yield d
        yield d + 2
        d += 6


class Decomposition(namedtuple("Decomposition",
                                "family n coefficient a tau")):
    """tau = coefficient * n * a^2 with square-free coefficient."""

    __slots__ = ()


def expected_coefficient(spec):
    """The proven square-free coefficient for a connected canonical spec."""
    if component_count(spec) != 1:
        raise DisconnectedGraphError(f"{spec} is disconnected", spec=spec)
    p = sum(1 for s in spec.steps if s % 2 == 1)
    n = spec.order
    if spec.diagonal:
        return square_free_part(2 * p + 1 if n % 2 == 1 else 2 * p)
    if n % 2 == 1:
        return 1
    if p == 0:
        # all steps even with n even means gcd >= 2; unreachable when connected
        raise DisconnectedGraphError(f"{spec} has no odd step", spec=spec)
    return square_free_part(p)


def decompose(spec, tau):
    """Verified decomposition tau = c * n * a^2; raises if the shape fails."""
    if tau <= 0:
        raise ValueError(f"decompose needs tau > 0, got {tau}")
    c = expected_coefficient(spec)
    n = spec.order
    if tau % (c * n) != 0:
        raise InternalConsistencyError(
            f"tau={tau} for {spec} is not divisible by {c}*{n}")
    quotient = tau // (c * n)
    a = math.isqrt(quotient)
    if a * a != quotient:
        raise InternalConsistencyError(
            f"tau/(c n) = {quotient} for {spec} is not a perfect square")
    return Decomposition(spec.family, n, c, a, tau)


def family_spec(steps, family, n):
    """Canonical spec of the (steps, family) sweep at order n.

    Raises :class:`SpecError` below the family's smallest order, where the
    steps fold away from the nominal family (duplicate steps or diagonal
    conversion), and :class:`DisconnectedGraphError` when disconnected.
    """
    spec = CirculantSpec(n, tuple(sorted(steps)), diagonal_flag(family))
    if component_count(spec) != 1:
        raise DisconnectedGraphError(
            f"{family} family {steps} is disconnected at order {n}", spec=spec)
    return spec


def sequence_a(steps, family, orders):
    """The integer sequence a(n) of the family over the given orders.

    Each order must yield a connected spec of the nominal family; the counts
    come from the closed-form path.
    """
    values = []
    for n in orders:
        spec = family_spec(steps, family, n)
        values.append(decompose(spec, algebra.tau_closed_form(spec)).a)
    return values
