"""Mahler measures: root product vs quadrature, growth laws, entropies.

The root product reads the roots w of the characteristic polynomials from
the root store and multiplies |b|, b = w + sqrt(w^2 - 1).  The form it had
before, an mpmath product over the roots outside the unit circle that
root finding gives for the ordinary image z^(s_k) L itself, is kept here as
its reference, and the two must give the same three floats, bit for bit.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circtrees import (DisconnectedGraphError, SpecError, associated_laurent,
                       asymptotic_ratio, find_roots, mahler_quadrature,
                       mahler_root_product, thermo_limit)
from circtrees import mahler
from circtrees.algebra import ordinary_image
from circtrees.mahler import MahlerEstimate
from triples import to_mpc, to_mpf

# closed forms verified to high precision; the two-decimal figures carry a
# relative tolerance since they are truncated rather than rounded
A_12 = (3 + math.sqrt(5)) / 2
A_123 = 0.5 * (2 + math.sqrt(7) + math.sqrt(7 + 4 * math.sqrt(7)))
K_12 = 0.25 * (3 + math.sqrt(5)) * (4 + math.sqrt(3)
                                    + math.sqrt(15 + 8 * math.sqrt(3)))

GOLDEN = [
    ((1, 2), "even", 2.618033988749895),
    ((1, 3), "even", 2.89),
    ((2, 3), "even", 2.96),
    ((1, 2, 3), "even", 4.42),
    ((1, 2), "diagonal", 14.54),
    ((1, 2, 3), "diagonal", 32.7865),
]


def reference_classify(steps, groups, precision):
    """The off-circle and root-of-unity tests in mpmath, at its ambient
    precision, over the roots z of the ordinary images: split them into
    moduli > 1 and unit-circle roots, None if ambiguous."""
    d = math.gcd(*steps)
    unity_tol = mp.mpf(2) ** (-precision // 4)
    outside = []
    for group in groups:
        for z, radius, mult in zip(group.roots, group.radii,
                                   group.multiplicities):
            z, radius = to_mpc(z), to_mpf(radius)
            az = abs(z)
            if abs(az - 1) > 8 * radius + unity_tol:
                if az > 1:
                    outside.append((z, radius, mult))
                continue
            if abs(z ** d - 1) <= unity_tol:
                continue
            return None
    return outside


def reference_root_product(spectrum):
    """|lead| prod |z|^mult over the roots outside the circle that
    find_roots gives for the ordinary images themselves, in mpmath at the
    spectrum's precision, doubled while a root straddles the circle."""
    steps = spectrum.reduced_steps
    images = [ordinary_image(steps)]
    if spectrum.family == "diagonal":
        images.append(ordinary_image(steps, shift=2))
    precision = spectrum.precision
    while True:
        outside = reference_classify(
            steps, [find_roots(p, precision) for p in images], precision)
        if outside is not None:
            break
        precision *= 2
        assert precision <= 4096, "straddles the unit circle"
    with mp.workprec(precision):
        value = mp.mpf(1)       # every image has leading coefficient -1
        rel_err = mp.mpf(2) ** (-50)
        for z, radius, mult in outside:
            az = abs(z)
            value *= az ** mult
            rel_err += mult * radius / az
        m_small = mp.log(value)
        return MahlerEstimate(float(value), float(value * rel_err),
                              "root-product", float(m_small))


REFERENCE_CASES = [
    pytest.param(steps, family, reduce, id=f"{family}{steps}-{reduce}")
    for steps, family in [((1, 2), "even"), ((1, 3), "even"),
                          ((2, 3), "even"), ((1, 2, 3), "even"),
                          ((1, 2), "diagonal"), ((1, 2, 3), "diagonal"),
                          ((1,), "even"), ((1,), "diagonal"),
                          ((1, 2, 3, 4, 5), "even"), ((2, 3, 7), "even"),
                          ((1, 60), "even"), ((1, 3, 4), "diagonal"),
                          ((2, 4), "even"), ((3, 6, 9), "even"),
                          ((6, 10, 15), "even")]
    for reduce in (True, False)] + [
    pytest.param(steps, family, True, id=f"{family}{steps}")
    for steps, family in [((1, 150), "even"), ((5, 60), "even"),
                          ((1, 40), "diagonal")]]


class TestAgainstTheMpmathReference:
    @pytest.mark.parametrize("steps,family,reduce", REFERENCE_CASES)
    def test_same_floats(self, steps, family, reduce):
        spectrum = associated_laurent(steps, family, reduce=reduce)
        assert mahler_root_product(spectrum) \
            == reference_root_product(spectrum)

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=40)
    @given(st.sets(st.integers(1, 9), min_size=1, max_size=4),
           st.sampled_from(("even", "diagonal")), st.booleans())
    def test_same_floats_on_random_step_sets(self, steps, family, reduce):
        spectrum = associated_laurent(steps, family, reduce=reduce)
        assert mahler_root_product(spectrum) \
            == reference_root_product(spectrum)


class TestSpectrum:
    def test_cycle_spectrum_is_trivial(self):
        spectrum = associated_laurent((1,), "even")
        est = mahler_root_product(spectrum)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.small_measure == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("steps", [(1, 2), (1, 3), (2, 3), (1, 2, 3),
                                       (1, 4), (2, 3, 5)])
    def test_unit_root_multiplicity_exactly_two(self, steps):
        # z = 1 is a double root of the polynomial image, exactly
        poly = ordinary_image(steps)
        assert poly(1) == 0
        assert poly.derivative()(1) == 0
        assert poly.derivative().derivative()(1) != 0

    @pytest.mark.parametrize("steps", [(1, 2), (1, 3), (2, 3), (1, 2, 3)])
    def test_palindromic_coefficients(self, steps):
        poly = ordinary_image(steps)
        assert poly.coeffs == tuple(reversed(poly.coeffs))
        spectrum = associated_laurent(steps, "even")
        for e, c in spectrum.laurent_coeffs.items():
            assert spectrum.laurent_coeffs[-e] == c

    @pytest.mark.parametrize("steps", [(1, 2), (1, 3), (2, 3), (1, 2, 3),
                                       (1, 2, 4)])
    def test_off_circle_roots_pair_up(self, steps):
        # the s_k - 1 roots w of P give the 2(s_k - 1) roots of the ordinary
        # image off the circle, in pairs (b, 1/b), none on it
        spectrum = associated_laurent(steps, "even")
        poly = spectrum.poly
        count = 0
        with mp.workprec(spectrum.precision):
            for w, radius, mult in spectrum.all_roots():
                w, radius = to_mpc(w), to_mpf(radius)
                s = mp.sqrt(w * w - 1)
                b = w + s if abs(w + s) >= 1 else w - s
                # strict dichotomy: |b| - 1 is far above the radius
                assert abs(b) - 1 > 100 * radius
                for z in (b, 1 / b):
                    assert abs(poly(z)) < 1e-60 * abs(
                        poly.derivative()(z))
                count += mult
        assert count == max(steps) - 1

    def test_reduction_divides_out_gcd(self):
        spectrum = associated_laurent((2, 4), "even")
        assert spectrum.reduced and spectrum.reduced_steps == (1, 2)
        raw = associated_laurent((2, 4), "even", reduce=False)
        assert not raw.reduced and raw.reduced_steps == (2, 4)


class TestGoldenValues:
    @pytest.mark.parametrize("steps,family,target", GOLDEN)
    def test_root_product(self, steps, family, target):
        est = mahler_root_product(associated_laurent(steps, family))
        assert est.value == pytest.approx(target, rel=5e-3)

    def test_closed_forms_tight(self):
        rp = lambda s, f: mahler_root_product(associated_laurent(s, f)).value
        assert abs(rp((1, 2), "even") - A_12) < 1e-9
        assert abs(rp((1, 2, 3), "even") - A_123) < 1e-9
        assert abs(rp((1, 2), "diagonal") - K_12) < 1e-9
        assert abs(rp((1,), "diagonal") - (2 + math.sqrt(3))) < 1e-9

    def test_2_3_measure_is_quartic_root(self):
        # the growth constant of the (2,3) family is the lone real root
        # above 1 of  1 - 3z + z^2 - 3z^3 + z^4
        candidates = [z.real for z in np.roots([1, -3, 1, -3, 1])
                      if abs(z.imag) < 1e-9 and z.real > 1]
        assert len(candidates) == 1
        est = mahler_root_product(associated_laurent((2, 3), "even"))
        # refine the double-precision quartic root before the 1e-9 compare
        with mp.workprec(120):
            root = mp.findroot(
                lambda z: 1 - 3 * z + z ** 2 - 3 * z ** 3 + z ** 4,
                candidates[0])
            assert abs(est.value - root) < 1e-9

    @pytest.mark.parametrize("steps,family,target", GOLDEN + [
        ((2, 4), "even", A_12), ((3, 6, 9), "diagonal", 32.7865)])
    def test_quadrature_agrees(self, steps, family, target):
        rp = mahler_root_product(associated_laurent(steps, family))
        quad = mahler_quadrature(steps, family)
        assert abs(rp.value - quad.value) < 1e-8
        assert abs(rp.value - quad.value) <= \
            rp.error_bound + quad.error_bound + 1e-12
        assert quad.method == "quadrature" and rp.method == "root-product"
        # the measure ignores a common factor of the steps
        d = math.gcd(*steps)
        assert quad == mahler_quadrature([s // d for s in steps], family)

    def test_large_step_agrees_with_quadrature(self):
        # every root of the degree-120 image of (1, 60) lies within 3% of
        # the circle, and those of (1, 150) to (1, 220) closer still: the
        # rule takes 2^16 to 2^19 points.  Horner's rule on the w-basis
        # polynomial of (1, 220) overflowed before the roots were seeded on
        # its z-image.
        for steps in ((1, 60), (1, 150), (1, 200), (1, 220)):
            rp = mahler_root_product(associated_laurent(steps, "even"))
            quad = mahler_quadrature(steps, "even")
            assert abs(rp.value - quad.value) < 1e-8
            assert abs(rp.value - quad.value) <= \
                rp.error_bound + quad.error_bound + 1e-12

    def test_estimate_consistency(self):
        est = mahler_root_product(associated_laurent((1, 3), "even"))
        assert est.value >= 1
        assert abs(est.value - math.exp(est.small_measure)) <= est.error_bound


class TestScalingInvariance:
    @pytest.mark.parametrize("base,scale", [((1, 2), 2), ((1, 2), 3),
                                            ((1, 3), 2), ((1, 2, 3), 2)])
    def test_scaled_steps_same_measure(self, base, scale):
        plain = mahler_root_product(associated_laurent(base, "even"))
        scaled_steps = tuple(scale * s for s in base)
        scaled = mahler_root_product(
            associated_laurent(scaled_steps, "even", reduce=False))
        assert abs(plain.value - scaled.value) < 1e-9

    def test_scaled_rebuild_reduces(self):
        auto = mahler_root_product(associated_laurent((2, 4), "even"))
        base = mahler_root_product(associated_laurent((1, 2), "even"))
        assert abs(auto.value - base.value) < 1e-12


class TestMultiplicativity:
    @pytest.mark.parametrize("steps", [(1,), (1, 2), (1, 2, 3)])
    def test_diagonal_measure_factorizes(self, steps):
        # M(L (L+2)) = M(L) M(L+2)
        whole = mahler_root_product(associated_laurent(steps, "diagonal"))
        left = mahler_root_product(associated_laurent(steps, "even"))
        shifted = ordinary_image(steps, shift=2)
        right = mp.mpf(1)
        cr = find_roots(shifted, 256)
        for z, m in zip(map(to_mpc, cr.roots), cr.multiplicities):
            if abs(z) > 1:
                right *= abs(z) ** m
        assert whole.value == pytest.approx(left.value * float(right),
                                            rel=1e-12)


class TestAsymptotics:
    def test_fibonacci_family_ratio(self):
        assert abs(asymptotic_ratio((1, 2), "even", 30) - 1) < 1e-4

    def test_cycle_family_is_exact(self):
        for n in (5, 12, 30):
            assert asymptotic_ratio((1,), "even", n) == pytest.approx(
                1.0, abs=1e-12)

    def test_diagonal_family(self):
        assert abs(asymptotic_ratio((1, 2, 3), "diagonal", 20) - 1) < 0.02

    def test_gcd_family_with_scaling_factor(self):
        # d = 2 enters as d^2/q; odd orders only
        assert abs(asymptotic_ratio((2, 4), "even", 29) - 1) < 0.05
        with pytest.raises(DisconnectedGraphError):
            asymptotic_ratio((2, 4), "even", 12)

    def test_orders_below_the_family_rejected(self):
        # at n = 4 the steps 1 and 2 = 4 - 2 fold together: a multigraph
        with pytest.raises(SpecError):
            asymptotic_ratio((1, 2), "even", 4)
        with pytest.raises(SpecError):
            thermo_limit((1, 2), "even", [4])

    def test_orders_rejected_before_the_measure(self, monkeypatch):
        def refuse(spectrum):
            raise AssertionError("measure computed for a rejected order")
        monkeypatch.setattr(mahler, "mahler_root_product", refuse)
        with pytest.raises(SpecError):
            thermo_limit((1, 40), "even", [4])

    @pytest.mark.parametrize("steps,family", [
        ((1, 2), "even"), ((1, 3), "even"), ((2, 3), "even"),
        ((1, 2, 3), "even"), ((1,), "diagonal"), ((1, 2), "diagonal"),
        ((1, 2, 3), "diagonal")])
    def test_error_shrinks_with_order(self, steps, family):
        measure = mahler_root_product(associated_laurent(steps, family))
        lo = abs(asymptotic_ratio(steps, family, 10, measure=measure) - 1)
        hi = abs(asymptotic_ratio(steps, family, 20, measure=measure) - 1)
        assert hi < lo


class TestThermoLimit:
    def test_cycle_entropy_vanishes(self):
        series = thermo_limit((1,), "even", [10, 100])
        assert series.target == pytest.approx(0.0, abs=1e-12)
        assert series.values[1] == pytest.approx(math.log(100) / 100)

    def test_fibonacci_family_entropy(self):
        series = thermo_limit((1, 2), "even", [40])
        assert abs(series.values[0] - math.log(A_12)) < 0.1
        assert series.target == pytest.approx(math.log(A_12), abs=1e-12)

    def test_2_3_family_target(self):
        # the finite-size error ~ log(n/q)/n peaks near n = e q, so compare
        # well past the hump
        series = thermo_limit((2, 3), "even", [40, 400])
        assert series.target == pytest.approx(math.log(2.9655726339), abs=1e-6)
        assert abs(series.values[1] - series.target) < 0.01
        assert abs(series.values[1] - series.target) < \
            abs(series.values[0] - series.target)

    def test_diagonal_entropy(self):
        series = thermo_limit((1, 2), "diagonal", [30])
        assert abs(series.values[0] - math.log(14.5351502718)) < 0.15
