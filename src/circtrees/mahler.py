"""Mahler measures of the associated Laurent polynomials and growth laws.

An even-valency step set s_1 < ... < s_k has the symmetric Laurent
polynomial

    L(z) = 2k - sum_i (z^{s_i} + z^{-s_i}),

whose Mahler measure M(L) (geometric mean of |L| on the unit circle, equal
to the product of the off-circle root moduli exceeding 1) controls the
spanning-tree growth: tau(n) ~ (n d^2 / q) M(L)^n with d = gcd(steps) and
q the step square sum.  The diagonal family uses R(z) = L(z)(L(z) + 2) and
tau(n) ~ (n d^2 / 2q) M(R)^n.  The count-per-order entropy log tau(n) / n
converges to the small measure m = log M.

Two independent evaluation routes are provided: the root product over
certified polynomial roots (method of record) and the periodic trapezoid
rule for log|.| over the circle, with the z = 1 singularity subtracted in
closed form, which reads only the steps and the family.  Their agreement
is asserted in the test suite, never assumed.  With z + 1/z = 2w, z^(s_k)
L(z) is -(z - 1)^2 times the z-image of the characteristic polynomial P(w)
of :mod:`circtrees.chebyshev`, and z^(s_k) (L(z) + 2) is minus that of
P_odd(w) + 1: M is the product of |b| = |w + sqrt(w^2 - 1)| >= 1 over
their roots w, which the root product reads from the certified products'
root store and multiplies on integer mantissas.
"""

import decimal
import math
from collections import namedtuple

from .algebra import ordinary_image, tau_closed_form
from .arithmetic import family_spec
from .chebyshev import factor_roots
from .dyadic import _add, _at_most, _branch, _float, _magnitude, _sqrt, _trim
from .errors import QuadratureError
from .graph import diagonal_flag

_QUADRATURE_TOL = 1e-10
_MAX_QUADRATURE_POINTS = 1 << 22
SPECTRUM_PRECISION = 256


class LaurentSpectrum(namedtuple(
        "LaurentSpectrum", "steps family reduced reduced_steps laurent_coeffs "
                           "poly root_groups precision")):
    """L(z) (or R(z) = L(L+2)) together with its certified roots.

    ``reduced_steps`` divides out gcd(steps) when the spectrum was built
    with reduction (the measure is invariant under step scaling, and the
    reduced form has z = 1 as a root of multiplicity exactly two).  ``poly``
    is the ordinary-polynomial image z^deg * L (or the product image for the
    diagonal family); ``root_groups`` holds one CertifiedRoots for P (and
    one for P_odd + 1): roots w, triples (x, y, e) for (x + iy) 2^e, each
    standing for the roots b and 1/b of ``poly``, and radii (m, e), m 2^e.
    """

    __slots__ = ()

    def all_roots(self):
        """(root, radius, multiplicity) across every factor, the root a
        triple (x, y, e) and the radius a bound (m, e)."""
        for group in self.root_groups:
            yield from zip(group.roots, group.radii, group.multiplicities)


class MahlerEstimate(namedtuple("MahlerEstimate",
                                "value error_bound method small_measure")):
    """A Mahler measure value with provenance and an error figure: from the
    roots' radii for the root product, and for the quadrature an estimate,
    not a bound (the last doubling's move plus 1e-14, times the value)."""

    __slots__ = ()


def associated_laurent(steps, family="even", reduce=True):
    """Build the spectrum of a step set: polynomial images plus certified roots.

    With ``reduce`` (the default) a step set with gcd d > 1 is replaced by
    steps/d, which leaves the measure unchanged and keeps z = 1 the only
    unit-circle root.  Pass ``reduce=False`` to analyze the unreduced
    polynomial; its extra unit-circle roots sit at d-th roots of unity.
    The roots are the root store's
    (:func:`~circtrees.chebyshev.factor_roots`) at SPECTRUM_PRECISION
    bits, not stored back: a count refines its roots as it would without
    the measure.  A factor above the store's seeding budget raises
    :class:`NotAttemptedError`.
    """
    steps = tuple(sorted(steps))
    diagonal = diagonal_flag(family)
    d = math.gcd(*steps)
    use = tuple(s // d for s in steps) if (reduce and d > 1) else steps
    lcoeffs = {0: 2 * len(use), **{t: -1 for s in use for t in (s, -s)}}
    poly = ordinary_image(use) * (ordinary_image(use, shift=2)
                                  if diagonal else 1)
    groups = factor_roots(use, diagonal, SPECTRUM_PRECISION)
    return LaurentSpectrum(steps, family, bool(reduce and d > 1), use,
                           lcoeffs, poly, groups, SPECTRUM_PRECISION)


def mahler_root_product(spectrum):
    """Mahler measure as the product of |b|^mult over the spectrum's roots.

    A root w stands for the roots b and 1/b of the ordinary image, whose
    leading coefficient is -1, with |b| >= 1 from
    :func:`~circtrees.dyadic._branch`; a real w in [-1, 1] has |b| = 1
    exactly.  The product's square is taken on the integer mantissas at the
    spectrum's precision.  A root within r of w moves |b| by about
    r / |sqrt(w^2 - 1)|, or sqrt(r) near w = +-1, so the relative error
    bound is 2^-50 plus mult 4r / max(|b - w|, sqrt r) per root, in floats.
    Each of the three floats is rounded once at the end, the small measure
    through an 80-digit logarithm.
    """
    prec = spectrum.precision
    m, e = 1, 0                                 # the product's square
    rel_err = 2.0 ** -50
    for w, radius, mult in spectrum.all_roots():
        b = _branch(w, prec)
        r = _float(*radius)                     # 0.0 below the double range
        s = _float(*_magnitude(_add(*b, -w[0], -w[1], w[2])))
        rel_err += mult * 4 * r / max(s, math.sqrt(r)) if r else 0.0
        if not w[1] and _at_most((abs(w[0]), w[2]), (1, 0)):
            continue                            # |b| = 1
        x, y, f = b
        for _ in range(mult):
            m, _, e = _trim(m * (x * x + y * y), 0, e + 2 * f, prec)
    value, f = _sqrt(m, e, prec)
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        square = decimal.Decimal(m << max(e, 0)) / (1 << max(-e, 0))
        m_small = square.ln() / 2
    value = _float(value, f)
    return MahlerEstimate(value, value * rel_err, "root-product",
                          float(m_small))


def mahler_quadrature(steps, family="even"):
    """Mahler measure by integrating log|.| over the unit circle.

    The measure does not change when the steps are scaled, so gcd(steps)
    is divided out first; then the double root at z = 1 is the integrand's
    only singularity.  Subtracting log|e^{2 pi i t} - 1|^2 (whose circle
    integral is 0) from log|L(e^{2 pi i t})| leaves the smooth 1-periodic

        f(t) = log(sum_i sin^2(pi s_i t) / sin^2(pi t)),

    plus log(L + 2) in the diagonal family, with f(0) = log q (plus log 2).
    The trapezoid rule on t = j/N converges geometrically on it and nests:
    doubling N adds only the new odd nodes, which pair up as f(t) = f(1 - t).
    The rule stops once two successive doublings each move the value less
    than 1e-10.  Its ``error_bound`` is the last doubling's move plus 1e-14,
    times the value: an estimate, not a bound.  No roots are read.
    """
    diagonal = diagonal_flag(family)
    d = math.gcd(*steps)
    reduced = [s // d for s in steps]

    def integrand(t):
        s2 = sum(math.sin(math.pi * (t * s)) ** 2 for s in reduced)
        base = math.sin(math.pi * t)
        f = math.log(s2 / (base * base))
        if diagonal:
            f += math.log(4.0 * s2 + 2.0)
        return f

    f0 = math.log(sum(s * s for s in reduced) * (2 if diagonal else 1))
    points, previous, last = 2, (f0 + integrand(0.5)) / 2, math.inf
    while points < _MAX_QUADRATURE_POINTS:
        points *= 2
        odd = math.fsum(integrand(j / points)
                        for j in range(1, points // 2, 2))
        current = previous / 2 + 2 * odd / points
        err = abs(current - previous)
        if max(err, last) < _QUADRATURE_TOL:
            value = math.exp(current)
            return MahlerEstimate(value, value * (err + 1e-14),
                                  "quadrature", current)
        previous, last = current, err
    raise QuadratureError(
        f"quadrature for {tuple(steps)} did not stabilize below "
        f"{_QUADRATURE_TOL} within {points} points")


def growth_ratio(tau, spec, measure):
    """tau q / (n d^2 M^n), with 2q in place of q for the diagonal family."""
    q = sum(s * s for s in spec.steps) * (2 if spec.diagonal else 1)
    return math.exp(math.log(tau) + math.log(q) - math.log(spec.order)
                    - 2 * math.log(math.gcd(*spec.steps))
                    - spec.order * measure.small_measure)


def asymptotic_ratio(steps, family, n, measure=None):
    """tau(n) q / (n d^2 M^n) for the even family (2q for diagonal).

    Tends to 1 as n grows; tau(n) is the closed form at the spec of
    :func:`~circtrees.arithmetic.family_spec`, so an order below the
    family's smallest raises :class:`SpecError` and a disconnected one
    :class:`DisconnectedGraphError`.  When sweeping orders, pass the
    step set's ``measure``: without it each call refines the roots again
    from their seeds, since the measure stores no roots.
    """
    spec = family_spec(steps, family, n)
    if measure is None:
        measure = mahler_root_product(associated_laurent(steps, family))
    return growth_ratio(tau_closed_form(spec), spec, measure)


class ThermoSeries(namedtuple("ThermoSeries", "orders values target")):
    """Per-order entropies log tau(n) / n with their limiting value."""

    __slots__ = ()


def thermo_limit(steps, family, orders, measure=None):
    """log tau(n) / n over the given orders, with the limit m(L) or m(R).

    An order outside the family raises as in :func:`asymptotic_ratio`,
    before the measure is computed.  As there, pass ``measure`` when
    calling again for the same step set: each call without it refines the
    roots again from their seeds.
    """
    specs = [family_spec(steps, family, n) for n in orders]
    if measure is None:
        measure = mahler_root_product(associated_laurent(steps, family))
    values = [math.log(tau_closed_form(spec)) / n
              for n, spec in zip(orders, specs)]
    return ThermoSeries(tuple(orders), tuple(values), measure.small_measure)
