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
is asserted in the test suite, never assumed.  The root product reads
the roots as :func:`~circtrees.chebyshev.find_roots` gives them, integer
triples with integer radii: the unit-circle tests are exact compares of
squared moduli and the product is taken on the mantissas, so no floating
point enters before the result is rounded.
"""

import decimal
import math
from collections import namedtuple

from .algebra import _ordinary_image, tau_closed_form
from .arithmetic import family_spec
from .chebyshev import _add, _at_most, _plus, _sqrt, _trim, find_roots
from .errors import CertificationError, QuadratureError
from .graph import diagonal_flag

_MAX_MEASURE_BITS = 4096
_QUADRATURE_TOL = 1e-10
_MAX_QUADRATURE_POINTS = 1 << 22


class LaurentSpectrum(namedtuple(
        "LaurentSpectrum", "steps family reduced reduced_steps laurent_coeffs "
                           "poly root_groups precision")):
    """L(z) (or R(z) = L(L+2)) together with its certified roots.

    ``reduced_steps`` divides out gcd(steps) when the spectrum was built
    with reduction (the measure is invariant under step scaling, and the
    reduced form has z = 1 as a root of multiplicity exactly two).  ``poly``
    is the ordinary-polynomial image z^deg * L (or the product image for the
    diagonal family); ``root_groups`` holds one CertifiedRoots per
    irreducible-by-construction factor, its roots integer triples (x, y, e)
    for (x + iy) 2^e and its radii bounds (m, e) for m 2^e.
    """

    __slots__ = ()

    def all_roots(self):
        """(root, radius, multiplicity) across every factor, the root a
        triple (x, y, e) and the radius a bound (m, e)."""
        for group in self.root_groups:
            yield from zip(group.roots, group.radii, group.multiplicities)


class MahlerEstimate(namedtuple("MahlerEstimate",
                                "value error_bound method small_measure")):
    """A Mahler measure value with provenance and an error bound."""

    __slots__ = ()


def associated_laurent(steps, family="even", precision=256, reduce=True):
    """Build the spectrum of a step set: polynomial images plus certified roots.

    With ``reduce`` (the default) a step set with gcd d > 1 is replaced by
    steps/d, which leaves the measure unchanged and keeps z = 1 the only
    unit-circle root.  Pass ``reduce=False`` to analyze the unreduced
    polynomial; its extra unit-circle roots sit exactly at d-th roots of
    unity and are recognized as such during classification.
    """
    steps = tuple(sorted(steps))
    diagonal = diagonal_flag(family)
    d = math.gcd(*steps)
    use = tuple(s // d for s in steps) if (reduce and d > 1) else steps
    lcoeffs = {0: 2 * len(use), **{t: -1 for s in use for t in (s, -s)}}
    p_l = _ordinary_image(use)
    groups = [find_roots(p_l, precision)]
    poly = p_l
    if diagonal:
        p_l2 = _ordinary_image(use, shift=2)
        groups.append(find_roots(p_l2, precision))
        poly = p_l * p_l2
    return LaurentSpectrum(steps, family, bool(reduce and d > 1), use,
                           lcoeffs, poly, tuple(groups), precision)


def _square_modulus(x, y, e):
    """|(x + iy) 2^e|^2 as a value (m, e), m 2^e, exactly."""
    return x * x + y * y, 2 * e


def _classify_roots(spectrum):
    """Split roots into moduli > 1 and unit-circle roots; None if ambiguous.

    Unit-circle roots of L are exactly d-th roots of unity (d the gcd of the
    steps the polynomial was built from), so a root hugging the circle is
    accepted as on-circle only with a vanishing |z^d - 1| residual.  A root
    z of radius r is off the circle when ||z| - 1| > 8r + 2^(-precision/4),
    and a root of unity when |z^d - 1| <= 2^(-precision/4); both tests
    compare squared moduli, exactly.
    """
    d = math.gcd(*spectrum.reduced_steps)
    unity_tol = -spectrum.precision // 4        # the tolerance 2^unity_tol
    outside = []
    for z, radius, mult in spectrum.all_roots():
        square = _square_modulus(*z)
        m, e = _plus((radius[0], radius[1] + 3), (1, unity_tol))
        high, f = _plus((1, 0), (m, e))
        if not _at_most(square, (high * high, 2 * f)):
            outside.append((z, radius, mult))       # |z| > 1 + 8r + tol
            continue
        low, f = _plus((1, 0), (-m, e))
        if low > 0 and not _at_most((low * low, 2 * f), square):
            continue                                # |z| < 1 - 8r - tol
        x, y, e = z
        px, py = 1, 0
        for _ in range(d):
            px, py = px * x - py * y, px * y + py * x
        if _at_most(_square_modulus(*_add(px, py, d * e, -1, 0, 0)),
                    (1, 2 * unity_tol)):
            continue  # certified root of unity, contributes nothing
        return None
    return outside


def _float(m, e):
    """m 2^e, correctly rounded to a float."""
    return m / (1 << -e) if e < 0 else float(m << e)


def mahler_root_product(spectrum):
    """Mahler measure as |leading coeff| * product of root moduli above 1.

    Roots straddling the unit circle within their certification radius force
    a precision escalation (they cannot occur for gcd-1 step sets); the
    error bound propagates the certified root radii.  The product is taken
    on the roots' integer mantissas at the spectrum's precision, as its
    square lead^2 prod |z|^(2 mult); each of the three floats is rounded
    once at the end, the small measure through an 80-digit logarithm.
    """
    current = spectrum
    while True:
        outside = _classify_roots(current)
        if outside is not None:
            break
        if current.precision * 2 > _MAX_MEASURE_BITS:
            raise CertificationError(
                f"roots of {spectrum.steps} straddle the unit circle at "
                f"{current.precision} bits")
        current = associated_laurent(
            spectrum.steps, spectrum.family,
            precision=current.precision * 2, reduce=spectrum.reduced)
    prec = current.precision
    m, e = current.poly.leading ** 2, 0         # the product's square
    rel_err = (1, -50)
    for z, (r, re), mult in outside:
        zm, ze = _square_modulus(*z)
        for _ in range(mult):
            m, _, e = _trim(m * zm, 0, e + ze, prec)
        root, f = _sqrt(zm, ze, prec)           # |z|
        rel_err = _plus(rel_err, ((mult * r << 2 * prec) // root,
                                  re - f - 2 * prec))
    value, f = _sqrt(m, e, prec)
    err, g = rel_err
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        square = decimal.Decimal(m << max(e, 0)) / (1 << max(-e, 0))
        m_small = square.ln() / 2
    return MahlerEstimate(_float(value, f), _float(value * err, f + g),
                          "root-product", float(m_small))


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
    than 1e-10; the last move is the error estimate.  No roots are read.
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


def _growth_ratio(tau, spec, measure):
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
    :class:`DisconnectedGraphError`.
    """
    spec = family_spec(steps, family, n)
    if measure is None:
        measure = mahler_root_product(associated_laurent(steps, family))
    return _growth_ratio(tau_closed_form(spec), spec, measure)


class ThermoSeries(namedtuple("ThermoSeries", "orders values target")):
    """Per-order entropies log tau(n) / n with their limiting value."""

    __slots__ = ()


def thermo_limit(steps, family, orders, measure=None):
    """log tau(n) / n over the given orders, with the limit m(L) or m(R).

    An order outside the family raises as in :func:`asymptotic_ratio`,
    before the measure is computed.
    """
    specs = [family_spec(steps, family, n) for n in orders]
    if measure is None:
        measure = mahler_root_product(associated_laurent(steps, family))
    values = [math.log(tau_closed_form(spec)) / n
              for n, spec in zip(orders, specs)]
    return ThermoSeries(tuple(orders), tuple(values), measure.small_measure)
