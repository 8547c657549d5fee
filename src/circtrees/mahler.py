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
certified polynomial roots (method of record) and direct quadrature of
log|.| over the circle with the z = 1 singularity subtracted in closed
form.  Their agreement is asserted in the test suite, never assumed.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

from .algebra import IntPolynomial, _ordinary_image, tau_closed_form
from .arithmetic import family_spec
from .chebyshev import find_roots
from .errors import CertificationError, QuadratureError
from .graph import diagonal_flag

_MAX_MEASURE_BITS = 4096


@dataclass(frozen=True)
class LaurentSpectrum:
    """L(z) (or R(z) = L(L+2)) together with its certified roots.

    ``reduced_steps`` divides out gcd(steps) when the spectrum was built
    with reduction (the measure is invariant under step scaling, and the
    reduced form has z = 1 as a root of multiplicity exactly two).  ``poly``
    is the ordinary-polynomial image z^deg * L (or the product image for the
    diagonal family); ``root_groups`` holds one CertifiedRoots per
    irreducible-by-construction factor.
    """

    steps: tuple
    family: str
    reduced: bool
    reduced_steps: tuple
    laurent_coeffs: dict
    poly: IntPolynomial
    root_groups: tuple
    precision: int

    def all_roots(self):
        """(root, radius, multiplicity) across every factor."""
        for group in self.root_groups:
            yield from zip(group.roots, group.radii, group.multiplicities)


@dataclass(frozen=True)
class MahlerEstimate:
    """A Mahler measure value with provenance and an error bound."""

    value: float
    error_bound: float
    method: str
    small_measure: float


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
    k = len(use)
    lcoeffs = {0: 2 * k}
    for s in use:
        lcoeffs[s] = -1
        lcoeffs[-s] = -1
    p_l = _ordinary_image(use)
    groups = [find_roots(p_l, precision)]
    poly = p_l
    if diagonal:
        p_l2 = _ordinary_image(use, shift=2)
        groups.append(find_roots(p_l2, precision))
        poly = p_l * p_l2
    return LaurentSpectrum(steps, family, bool(reduce and d > 1), use,
                           lcoeffs, poly, tuple(groups), precision)


def _classify_roots(spectrum):
    """Split roots into moduli > 1 and unit-circle roots; None if ambiguous.

    Unit-circle roots of L are exactly d-th roots of unity (d the gcd of the
    steps the polynomial was built from), so a root hugging the circle is
    accepted as on-circle only with a vanishing |z^d - 1| residual.
    """
    d = math.gcd(*spectrum.reduced_steps)
    unity_tol = mp.mpf(2) ** (-spectrum.precision // 4)
    outside = []
    for z, radius, mult in spectrum.all_roots():
        az = abs(z)
        if abs(az - 1) > 8 * radius + unity_tol:
            if az > 1:
                outside.append((z, radius, mult))
            continue
        if abs(z ** d - 1) <= unity_tol:
            continue  # certified root of unity, contributes nothing
        return None
    return outside


def mahler_root_product(spectrum):
    """Mahler measure as |leading coeff| * product of root moduli above 1.

    Roots straddling the unit circle within their certification radius force
    a precision escalation (they cannot occur for gcd-1 step sets); the
    error bound propagates the certified root radii.
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
    with mp.workprec(current.precision):
        value = mp.mpf(abs(current.poly.leading))
        rel_err = mp.mpf(2) ** (-50)
        for z, radius, mult in outside:
            az = abs(z)
            value *= az ** mult
            rel_err += mult * radius / az
        m_small = mp.log(value)
        return MahlerEstimate(float(value), float(value * rel_err),
                              "root-product", float(m_small))


@lru_cache(maxsize=None)
def _gauss_legendre(order):
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on [-1, 1].

    Each node is a root of P_order, found by Newton from the estimate
    cos(pi (i + 3/4) / (order + 1/2)); its weight is 2 / ((1 - x^2) P'(x)^2).
    """
    rule = []
    for i in range(order):
        x = math.cos(math.pi * (i + 0.75) / (order + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x                     # P_{k-1}(x), P_k(x)
            for k in range(2, order + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = order * (x * p1 - p0) / (x * x - 1)
            step = p1 / dp
            x -= step
            if abs(step) <= 1e-16:
                break
        rule.append((x, 2 / ((1 - x * x) * dp * dp)))
    return tuple(rule)


def _gl_panels(f, panels, rule):
    """Composite Gauss-Legendre of f over [0, 1] with equal panels."""
    width = 1.0 / panels
    half = width / 2.0
    # nodes are on [-1, 1]; map into each panel
    return math.fsum(f(p * width + (x + 1.0) * half) * (w * half)
                     for p in range(panels) for x, w in rule)


def mahler_quadrature(spectrum, tol=1e-10, max_panels=4096):
    """Mahler measure by integrating log|.| over the unit circle.

    The integrand log|L(e^{2 pi i t})| has a log singularity from the double
    root at z = 1; subtracting log|e^{2 pi i t} - 1|^2 (whose circle integral
    is 0) leaves the smooth ratio

        sum_i sin^2(pi s_i t) / sin^2(pi t),

    integrated by composite Gauss-Legendre with panel doubling until two
    successive refinements agree; the last difference is the error estimate.
    """
    steps = spectrum.reduced_steps
    if math.gcd(*steps) != 1:
        raise ValueError(
            "quadrature needs a reduced step set (gcd 1); rebuild the "
            "spectrum with reduce=True")
    diagonal = spectrum.family == "diagonal"

    def integrand(t):
        s2 = sum(v * v for v in (math.sin(math.pi * (t * s)) for s in steps))
        base = math.sin(math.pi * t)
        f = math.log(s2 / (base * base))
        if diagonal:
            f += math.log(4.0 * s2 + 2.0)
        return f

    rule = _gauss_legendre(16)
    panels = 8
    previous = _gl_panels(integrand, panels, rule)
    while panels <= max_panels:
        panels *= 2
        current = _gl_panels(integrand, panels, rule)
        err = abs(current - previous)
        previous = current
        if err < tol:
            m_small = current
            value = math.exp(m_small)
            return MahlerEstimate(value, value * (err + 1e-14),
                                  "quadrature", m_small)
    raise QuadratureError(
        f"quadrature for {spectrum.steps} did not stabilize below {tol} "
        f"within {max_panels} panels")


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


@dataclass(frozen=True)
class ThermoSeries:
    """Per-order entropies log tau(n) / n with their limiting value."""

    orders: tuple
    values: tuple
    target: float


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
