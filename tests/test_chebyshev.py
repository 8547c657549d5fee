"""Integer Chebyshev algebra, certified roots, and closed-form counts."""

import cmath
import logging
import math
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import mpmath as mp
import numpy as np
import pytest

from circtrees import (CertificationError, DisconnectedGraphError,
                       IntPolynomial, NotAttemptedError, RootRefinementError,
                       associated_laurent, asymptotic_ratio, build_even_char,
                       build_odd_char, canonicalize, cheb_t, cheb_u,
                       decompose, family_spec, find_roots,
                       mahler_root_product, parse_spec, tau_closed_form,
                       tau_even, tau_odd, tau_oracle)
from circtrees import algebra, chebyshev
from circtrees.algebra import ordinary_image
from circtrees.exact import DEFAULT_ORACLE_CEILING
from circtrees.chebyshev import (GUARD_BITS, MAX_CERTIFY_BITS,
                                 _double_precision_roots, _laid_out,
                                 _newton_step, _refine_roots, _yun, poly_gcd,
                                 square_free_decomposition)
from circtrees.dyadic import _exact
from modular import primes_one_mod, spec_tau_mod
from triples import cheb_value, records_of, to_mpc, to_mpf

W = IntPolynomial([0, 1])
STEP_SETS = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 4), (2, 5),
             (1, 2, 3), (1, 3, 5), (2, 3, 7), (1, 2, 3, 4), (3, 5, 12)]


def on_grid(bits):
    """``bits`` rounded up to the precision grid the root store refines on."""
    return -(-bits // chebyshev.ROOT_GRID_BITS) * chebyshev.ROOT_GRID_BITS


@pytest.fixture(autouse=True)
def empty_root_store():
    # each test starts with no stored roots, so a test cannot pass only on
    # roots another test left behind, and leaves none, failed seedings
    # included, to the tests of other files
    chebyshev._root_setup.cache_clear()
    yield
    chebyshev._root_setup.cache_clear()


class TestIntPolynomial:
    def test_trims_and_compares(self):
        assert IntPolynomial([1, 2, 0, 0]) == IntPolynomial([1, 2])
        assert IntPolynomial([]).is_zero and IntPolynomial([0]).is_zero
        assert IntPolynomial([3]).degree == 0
        assert IntPolynomial([]).degree == -1

    def test_ring_operations(self):
        p = IntPolynomial([1, 1])       # 1 + w
        q = IntPolynomial([-1, 1])      # w - 1
        assert p * q == IntPolynomial([-1, 0, 1])
        assert p + q == IntPolynomial([0, 2])
        assert p - q == IntPolynomial([2])
        assert 3 * p == IntPolynomial([3, 3])
        assert (p * q).derivative() == IntPolynomial([0, 2])

    def test_evaluation_rings(self):
        p = IntPolynomial([3, 2])
        assert p(2) == 7
        assert p(Fraction(-3, 2)) == 0
        assert p(1.5) == pytest.approx(6.0)
        assert p(1j) == 3 + 2j

    def test_exact_division(self):
        num = IntPolynomial([-6, 13, 6]) * IntPolynomial([5, 0, 1])
        assert num.div_exact(IntPolynomial([5, 0, 1])) \
            == IntPolynomial([-6, 13, 6])
        q, r = IntPolynomial([1, 0, 1]).divmod_exact(IntPolynomial([1, 1]))
        assert q == IntPolynomial([-1, 1]) and r == IntPolynomial([2])

    def test_gcd_and_square_free(self):
        a = IntPolynomial([-1, 1]) * IntPolynomial([-1, 1]) \
            * IntPolynomial([3, 2])
        g = poly_gcd(a, a.derivative())
        assert g == IntPolynomial([-1, 1])
        decomp = square_free_decomposition(a)
        assert (IntPolynomial([3, 2]), 1) in decomp
        assert (IntPolynomial([-1, 1]), 2) in decomp


class TestChebPolynomials:
    def test_first_kind_small(self):
        assert cheb_t(0) == IntPolynomial([1])
        assert cheb_t(1) == W
        assert cheb_t(2) == IntPolynomial([-1, 0, 2])
        assert cheb_t(3) == IntPolynomial([0, -3, 0, 4])

    def test_second_kind_small(self):
        assert cheb_u(0) == IntPolynomial([1])
        assert cheb_u(1) == IntPolynomial([0, 2])
        assert cheb_u(2) == IntPolynomial([-1, 0, 4])

    @pytest.mark.parametrize("m", [1, 2, 5, 9, 16])
    def test_classical_identities(self, m):
        assert cheb_t(m)(1) == 1
        assert cheb_u(m)(1) == m + 1
        # T_m' = m U_{m-1}
        assert cheb_t(m).derivative() == m * cheb_u(m - 1)
        # composition T_2(T_m) = T_{2m}
        t2 = cheb_t(2)
        composed = IntPolynomial([-1]) + 2 * cheb_t(m) * cheb_t(m)
        assert composed == cheb_t(2 * m) and t2(2) == 7

    def test_explicit_coefficients_follow_the_recurrence(self):
        # P_{m+1} = 2w P_m - P_{m-1}, from T_1 = w and U_1 = 2w
        for cheb, first in ((cheb_t, W), (cheb_u, 2 * W)):
            prev, cur = IntPolynomial([1]), first
            for m in range(2, 80):
                prev, cur = cur, 2 * W * cur - prev
                assert cheb(m) == cur, (cheb.__name__, m)

    def test_large_degree_without_recursion(self):
        t = cheb_t(1500)
        assert t.degree == 1500 and t(1) == 1 and t.leading == 2 ** 1499
        assert cheb_u(1500)(1) == 1501
        assert build_even_char((1, 1200))(1) == 1 + 1200 ** 2

    def test_built_polynomials_are_not_kept(self):
        # a sweep over many largest steps builds T_m and U_m once each; a
        # cache of them all held about 52 MB after T_2..T_1200
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for m in range(2, 601):
                cheb_t(m), cheb_u(m)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 2 ** 20


def as_mpmath(cr):
    """(root, radius, multiplicity) of ``cr`` with the root an mpc and the
    radius an mpf, both exact."""
    return [(to_mpc(z), to_mpf(r), m)
            for z, r, m in zip(cr.roots, cr.radii, cr.multiplicities)]


class TestQuantumEvaluation:
    # T_n on the kernels the certified products run: _branch, _inverse and
    # _ladder
    def test_frozen_values(self):
        assert abs(cheb_value(2, 3, 128) - 26) < 1e-30
        assert abs(cheb_value(Fraction(-3, 2), 5, 128)
                   + mp.mpf(61.5)) < 1e-30
        for n in (1, 7, 40):
            assert abs(cheb_value(1, n, 128) - 1) < 1e-30

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 64])
    def test_matches_exact_polynomial(self, n):
        # oracle: exact integer-coefficient T_n evaluated over the rationals,
        # at w rounded to 2 prec bits
        prec = 192
        with mp.workprec(prec + 64):
            for w in [Fraction(7, 3), Fraction(-12, 5), Fraction(1, 2),
                      Fraction(-1, 1), Fraction(31, 7)]:
                k = 2 * prec - abs(w.numerator).bit_length() \
                    + w.denominator.bit_length()
                w = Fraction(round(w * 2 ** k), 2 ** k)
                exact = cheb_t(n)(w)
                got = cheb_value(w, n, prec)
                err = abs(got - mp.mpf(exact.numerator) / exact.denominator)
                scale = max(1, abs(mp.mpf(exact.numerator))
                            / exact.denominator)
                assert err <= mp.mpf(2) ** (-prec // 2) * scale, (n, w)

    def test_complex_arguments(self):
        z = mp.mpc(0.5, 1.25)
        with mp.workprec(160):
            direct = cheb_t(9)(z)
            assert abs(cheb_value(z, 9, 160) - direct) < 1e-40

    def test_binary_powering_at_large_order(self):
        # mpmath's own power goes through exp(n log b) at this size
        with mp.workprec(4096):
            w = mp.mpc(mp.mpf(1) / 3, mp.mpf(2) / 7)
            b = w + mp.sqrt(w * w - 1)
            if abs(b) < 1:
                b = 1 / b
            reference = (b ** 6000 + b ** -6000) / 2
            got = cheb_value(w, 6000, 4096)
            assert abs(got - reference) <= abs(reference) * mp.mpf(2) ** -4000

    def test_non_finite_argument_is_rejected(self):
        # mantissas have no infinity or NaN to carry: a seed must be finite
        for w in (float("inf"), float("nan"), complex(1, float("nan"))):
            with pytest.raises(ValueError, match="not a finite number"):
                _exact(w)

    def test_second_kind_evaluation(self):
        # T_m = (U_m - U_{m-2}) / 2 checks the evaluator against U_m,
        # including at the branch points w = +/-1
        assert cheb_u(4)(2) == 209
        assert cheb_u(6)(1) == 7 and cheb_u(6)(-1) == 7
        with mp.workprec(128):
            for w, m in ((2, 6), (1, 6), (-1, 6), (mp.mpc(0, 0.5), 6)):
                u_form = (cheb_u(m)(w) - cheb_u(m - 2)(w)) / 2
                assert abs(cheb_value(w, m, 128) - u_form) < 1e-30


class TestCharacteristicPolynomials:
    def test_even_frozen_cases(self):
        assert build_even_char((1, 2)) == IntPolynomial([3, 2])
        assert build_even_char((1,)) == IntPolynomial([1])
        assert build_even_char((1, 3))(1) == 10

    @pytest.mark.parametrize("steps", STEP_SETS)
    def test_even_defining_identity(self, steps):
        # (w - 1) P(w) = sum_j (T_{s_j} - 1), exactly, with P(1) = sum s^2
        p = build_even_char(steps)
        total = IntPolynomial([])
        for s in steps:
            total = total + (cheb_t(s) - 1)
        assert IntPolynomial([-1, 1]) * p == total
        assert p.degree == max(steps) - 1
        assert p(1) == sum(s * s for s in steps)
        # leading coefficient of (w-1)P is 2^(s_k - 1)
        assert total.leading == 2 ** (max(steps) - 1)

    def test_odd_frozen_cases(self):
        assert build_odd_char((1,)) == IntPolynomial([3, -2])
        assert build_odd_char((1, 2))(1) == 1
        assert build_odd_char((1, 2)).derivative()(1) == -10

    @pytest.mark.parametrize("steps", STEP_SETS)
    def test_odd_structure(self, steps):
        p = build_odd_char(steps)
        assert p.degree == max(steps)
        assert p(1) == 1
        assert p.derivative()(1) == -2 * sum(s * s for s in steps)
        assert p.leading == -(2 ** max(steps))


class TestFindRoots:
    def test_linear(self):
        cr = find_roots(IntPolynomial([3, 2]), 128)
        assert cr.total_count == 1
        assert abs(to_mpc(cr.roots[0]) + 1.5) < 1e-30

    def test_shifted_linear(self):
        cr = find_roots(IntPolynomial([4, -2]), 128)
        assert abs(to_mpc(cr.roots[0]) - 2) < 1e-30

    def test_double_root_flagged(self):
        cr = find_roots(IntPolynomial([1, -2, 1]), 128)
        assert cr.multiplicities == (2,)
        assert abs(to_mpc(cr.roots[0]) - 1) < 1e-30
        assert cr.expanded() == (cr.roots[0], cr.roots[0])
        x, y, e = cr.roots[0]
        assert isinstance(x, int) and y == 0 and isinstance(e, int)

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            find_roots(IntPolynomial([5]), 128)

    @pytest.mark.parametrize("steps, prec", [
        pytest.param(steps, prec, id=f"steps{i}" + suffix)
        for prec, suffix in ((256, ""), (4096, "-4096"))
        for i, steps in enumerate(STEP_SETS)])
    def test_residuals_within_radius(self, steps, prec):
        poly = build_even_char(steps)
        if poly.degree < 1:
            return
        cr = find_roots(poly, prec)
        assert cr.total_count == poly.degree
        # the residual bound applies to the square-free factor each root
        # was refined on (single-step sets give perfect squares)
        factors = square_free_decomposition(poly)
        with mp.workprec(prec + 64):
            for z, radius, mult in as_mpmath(cr):
                factor = next(f for f, m in factors if m == mult)
                residual = abs(factor(z))
                bound = radius * (abs(factor.derivative()(z)) + 1) \
                    + mp.mpf(2) ** (-prec)
                assert residual <= bound, (steps, z)

    @pytest.mark.parametrize("poly", [
        pytest.param(poly, id=f"{name}{steps}")
        for steps in [(1, 3), (2, 3, 7), (1, 2, 3, 4), (3, 5, 12)]
        for name, poly in (("even", build_even_char(steps)),
                           ("odd+1", build_odd_char(steps) + 1))] + [
        pytest.param(IntPolynomial([-3, 1]) * IntPolynomial([-2, 0, 1])
                     * IntPolynomial([-2, 0, 1]), id="mixed")])
    @pytest.mark.parametrize("low, target", [(128, 256), (200, 4096)])
    def test_refined_roots_match_a_fresh_solve(self, poly, low, target):
        # the confirm pass refines the roots of the pass before: each stays
        # within its radius and is the root a solve from the seeds finds
        previous = find_roots(poly, low)
        carried = _refine_roots(poly, target, previous)
        fresh = find_roots(poly, target)
        assert carried.working_precision == target
        assert carried.multiplicities == previous.multiplicities
        with mp.workprec(target + 64):
            for (z, r, _), (p, pr, _) in zip(as_mpmath(carried),
                                             as_mpmath(previous)):
                assert r < mp.mpf(2) ** (8 - target) * max(1, abs(z))
                assert abs(z - p) <= r + pr
            for z, r, mult in as_mpmath(carried):
                assert any(abs(z - f) <= r + fr and m == mult
                           for f, fr, m in as_mpmath(fresh))

    @pytest.mark.parametrize("precision, carried", [
        (256, False), (4096, False), (256, True)])
    def test_roots_closed_under_conjugation(self, precision, carried):
        # one root of each pair is refined; its mirror is its exact
        # conjugate, with the same radius and multiplicity
        pairs = 0
        for poly in seed_factors(6):
            cr = find_roots(poly, precision)
            if carried:
                cr = _refine_roots(poly, 2 * precision, cr)
            with mp.workprec(cr.working_precision + 64):
                entries = as_mpmath(cr)
                for z, radius, mult in entries:
                    if z.imag != 0:
                        assert (mp.conj(z), radius, mult) in entries, poly
                        pairs += z.imag > 0
        assert pairs > 200

    @pytest.mark.parametrize("precision", [256, 4096])
    def test_radius_bounds_the_last_step_and_the_root(self, precision):
        # the 24-bit radius is at least the full-precision bound on the last
        # Newton step, and holds the root refined to four times the
        # precision; for roots refined from the seeds and from roots twice
        # as precise.  A mirror is its representative's exact conjugate,
        # with its radius, so it is checked through the representative.
        def check(cr, finest):
            # refinement keeps the order of the roots, so finest[i] is the
            # refined roots[i]
            with mp.workprec(precision + 64):
                entries = as_mpmath(cr)
                for (z, radius, mult), exact, root in zip(entries, cr.roots,
                                                          finest):
                    if z.imag < 0:
                        assert (mp.conj(z), radius, mult) in entries
                        continue
                    # the last step, recomputed where Newton stopped
                    step = to_mpc(_newton_step(
                        factors[mult], derivatives[mult], exact,
                        precision + 64 + GUARD_BITS))
                    bound = 4 * abs(step) \
                        + mp.mpf(2) ** (4 - precision) * max(1, abs(z))
                    assert radius >= bound, (factors[mult], z)
                    assert abs(z - root) <= radius, (factors[mult], z)

        mirrors = 0
        for poly in seed_factors(6):
            factors = {m: f for f, m in square_free_decomposition(poly)}
            derivatives = {m: f.derivative() for m, f in factors.items()}
            cr = find_roots(poly, precision)
            finer = _refine_roots(poly, 2 * precision, cr)
            # one Newton step at 4x from the 2x roots, at representatives
            with mp.workprec(4 * precision + 64):
                finest = [to_mpc(z) - to_mpc(_newton_step(
                              factors[m], derivatives[m], z,
                              4 * precision + 64 + GUARD_BITS))
                          if z[1] >= 0 else None
                          for z, m in zip(finer.roots, finer.multiplicities)]
            check(cr, finest)
            check(_refine_roots(poly, precision, finer), finest)
            mirrors += sum(y < 0 for _, y, _ in cr.roots)
        assert mirrors > 400

    def test_near_real_seeds_are_not_paired(self):
        # roots 1 and 1 + 1e-7 stay unsnapped seeds with tiny imaginary
        # parts of opposite sign; only +-i form a pair, laid out together.
        # So also where the store seeds them, on the z-image: its seeds
        # near 1 lie 3e-5 and more apart, but the snap is decided once, on
        # their images in w
        poly = IntPolynomial([-10**7, 10**7]) \
            * IntPolynomial([-10**7 - 1, 10**7]) * IntPolynomial([1, 0, 1])
        for found in (_double_precision_roots(poly), chebyshev._seeds(poly)):
            seeds, mirrors = _laid_out(found)
            assert len(mirrors) == 1
            (mirror,) = mirrors
            assert abs(seeds[mirror - 1] - 1j) < 1e-12
            assert abs(seeds[mirror] + 1j) < 1e-12
            assert all(z.imag != 0 for z in seeds)
        cr = find_roots(poly, 256)
        assert cr.total_count == 4
        with mp.workprec(256):
            for want in (1, 1 + mp.mpf(10) ** -7, 1j, -1j):
                assert min(abs(to_mpc(z) - want)
                           for z in cr.roots) < 2 ** -200

    def test_mixed_multiplicities(self):
        poly = IntPolynomial([-1, 1]) * IntPolynomial([-1, 1]) \
            * IntPolynomial([-1, 1]) * IntPolynomial([1, 1]) \
            * IntPolynomial([3, 2])
        cr = find_roots(poly, 160)
        assert sorted(cr.multiplicities) == [1, 1, 3]
        assert cr.total_count == 5


def seed_factors(s_max):
    """Distinct Yun factors of every polynomial whose roots get seeded.

    For each step set with largest step at most ``s_max``: the even
    characteristic polynomial, the odd u and v polynomials, and the Laurent
    images z^{s_k} L and z^{s_k} (L + 2).
    """
    factors = {}
    for top in range(1, s_max + 1):
        for size in range(top):
            for smaller in combinations(range(1, top), size):
                steps = smaller + (top,)
                odd = build_odd_char(steps)
                polys = (build_even_char(steps),
                         (odd - 1).div_exact(IntPolynomial([-1, 1])), odd + 1,
                         ordinary_image(steps), ordinary_image(steps, 2))
                for poly in polys:
                    if poly.degree >= 1:
                        for factor, _ in square_free_decomposition(poly):
                            factors[factor] = None
    return tuple(factors)


def positive_primitive(poly):
    a = poly.primitive()
    return -a if a.leading < 0 else a


class TestSquareFreeTest:
    """The test modulo 2^61 - 1 decides as Yun's algorithm does."""

    def test_agrees_with_yun(self):
        single_steps = [build_even_char((s,)) for s in range(3, 40)]
        corpus = [f for factor in seed_factors(8)
                  for f in (factor, factor * factor)] + single_steps
        for poly in corpus:
            assert square_free_decomposition(poly) \
                == _yun(positive_primitive(poly)), poly
        # single-step sets give perfect squares (times w + 1 at even s)
        assert all(any(m > 1 for _, m in square_free_decomposition(p))
                   for p in single_steps)

    def test_prime_dividing_the_leading_coefficient_falls_back(self):
        p = 2 ** 61 - 1
        poly = IntPolynomial([-1, 0, p])           # p w^2 - 1: square-free
        assert square_free_decomposition(poly) == [(poly, 1)]
        cube = IntPolynomial([1, p]) * IntPolynomial([1, p]) \
            * IntPolynomial([1, p])
        assert square_free_decomposition(cube) == [(IntPolynomial([1, p]), 3)]

    def test_large_step_returns_quickly(self):
        poly = build_even_char((1, 1200))
        start = time.perf_counter()
        assert square_free_decomposition(poly) == [(poly, 1)]
        assert time.perf_counter() - start < 2


class TestSeeds:
    """Aberth-Ehrlich seeds against the companion-matrix roots of numpy."""

    def test_match_numpy_root_for_root(self):
        factors = seed_factors(8)
        assert len(factors) > 1000
        for factor in factors:
            scale = max(abs(c) for c in factor.coeffs)
            expected = [complex(z) for z in
                        np.roots([c / scale for c in reversed(factor.coeffs)])]
            # the classified seeds: the exact-real ones are snapped there
            seeds = list(_laid_out(_double_precision_roots(factor))[0])
            assert len(seeds) == len(expected) == factor.degree
            for want in expected:
                got = min(seeds, key=lambda z: abs(z - want))
                seeds.remove(got)
                assert abs(got - want) <= 1e-12 * max(1, abs(want)), factor
                if want.imag == 0:
                    assert got.imag == 0.0, (factor, got)

    def test_conjugate_pair_near_the_axis_not_snapped(self):
        # (w - e)^2 + e^2 with e = 1e-11, scaled to integers: roots e +- ie
        pair, mirrors = _laid_out(_double_precision_roots(
            IntPolynomial([2, -2 * 10**11, 10**22])))
        for root in (1e-11 + 1e-11j, 1e-11 - 1e-11j):
            assert min(abs(z - root) for z in pair) <= 1e-12 * abs(root)
        assert all(z.imag != 0 for z in pair) and not mirrors

    def test_coefficients_beyond_double_range(self):
        # float() of these coefficients overflows; int / int does not
        (root,) = _double_precision_roots(IntPolynomial([-3 * 2**1100,
                                                         2**1100]))
        assert root == 3

    def test_zero_division_is_a_refinement_error(self):
        # 2^2200 w^2 + 1: the start radius 2^-1100 underflows to 0.0, so
        # every seed starts at 0 and the Aberth pull divides by zero.  Root
        # finding seeds on the palindromic z-image, which starts on the
        # unit circle, but its roots i(1 +- 2^-1100) and -i(1 +- 2^-1100)
        # are not apart in double precision: a refinement error too
        poly = IntPolynomial([1, 0, 2**2200])
        with pytest.raises(RootRefinementError, match="divided by zero"):
            _double_precision_roots(poly)
        with pytest.raises(RootRefinementError):
            find_roots(poly, 128)

    def test_non_finite_iterate_is_a_refinement_error(self):
        # a root at 2^1100, beyond the double range, puts the start circle
        # there too: a seeding failure, not an OverflowError
        with pytest.raises(RootRefinementError, match="not finite"):
            _double_precision_roots(IntPolynomial([-2**1100, 1]))

    @pytest.mark.parametrize("steps", [(1, 2), (2, 3, 7), (1, 60),
                                       (1, 2, 3, 4, 5)])
    def test_z_images_are_the_ordinary_images(self, steps):
        # z^(s_k - 1) P((z + 1/z)/2) is -p_L / (z - 1)^2 and z^(s_k)
        # (P_odd + 1)((z + 1/z)/2) is p_L2, up to sign and content
        image = chebyshev._laurent_image
        reduced = ordinary_image(steps).div_exact(IntPolynomial([1, -2, 1]))
        assert image(build_even_char(steps)) in (reduced, -reduced)
        shifted = ordinary_image(steps, 2)
        assert image(build_odd_char(steps) + 1) in (shifted, -shifted)

    def test_large_step_seeds_on_the_z_image(self):
        # Horner's rule on the degree-249 w-basis polynomial of (1, 250),
        # coefficients up to 2^318, overflowed to NaN; Aberth on its
        # degree-498 z-image, with the Newton ratio at |z| > 1 taken from
        # the reversed polynomial, keeps every iterate finite, and the
        # roots certify
        poly = build_even_char((1, 250))
        image = chebyshev._laurent_image(poly)
        assert image.degree == 498 and max(map(abs, image.coeffs)) < 2**9
        assert all(map(cmath.isfinite, _double_precision_roots(image)))
        cr = find_roots(poly, 256)
        assert cr.total_count == 249
        # the monomial coefficients reach 2^318: evaluate at 1024 bits
        with mp.workprec(1024):
            for z, radius, _ in as_mpmath(cr)[::8]:
                residual = abs(poly(z))
                assert residual <= radius * (abs(poly.derivative()(z)) + 1)

    def test_failed_seeding_is_stored(self, monkeypatch):
        # a seeding that fails is kept with its error: later orders of the
        # step set, and root finding on the polynomial, raise it again
        # without seeding again
        seeded = []

        def failing(poly):
            seeded.append(poly)
            raise RootRefinementError("overflowed")

        monkeypatch.setattr(chebyshev, "_seeds", failing)
        for n in (41, 43):
            with pytest.raises(CertificationError,
                               match="failed to seed its roots: overflowed"
                               ) as failed:
                tau_even(canonicalize(n, [1, 20]))
        with pytest.raises(RootRefinementError, match="overflowed"):
            find_roots(build_even_char((1, 20)), 128)
        assert seeded == [build_even_char((1, 20))]


class TestClosedFormCounts:
    def test_even_frozen(self):
        assert tau_even(canonicalize(5, [1, 2])) == 125
        assert tau_even(canonicalize(6, [1, 2])) == 384
        assert tau_even(canonicalize(7, [1])) == 7

    def test_odd_frozen(self):
        assert tau_odd(canonicalize(4, [1, 2])) == 16       # K_4
        assert tau_odd(canonicalize(6, [1, 3])) == 81       # Moebius, n=3
        assert tau_odd(canonicalize(6, [2, 3])) == 75       # prism, n=3
        assert tau_odd(canonicalize(6, [1, 2, 3])) == 1296  # K_6

    def test_closed_form_dispatch(self):
        assert tau_closed_form(canonicalize(5, [1, 2])) == 125
        assert tau_closed_form(canonicalize(9, [1])) == 9
        spec = canonicalize(7, [2, 3])
        assert tau_closed_form(spec) == tau_oracle(spec) == tau_even(spec)
        moebius = parse_spec("C3(1;d)")
        assert tau_closed_form(moebius) == tau_odd(moebius) == 81
        moebius = family_spec(moebius.steps, moebius.family, 5)
        assert tau_closed_form(moebius) == tau_odd(moebius)
        with pytest.raises(DisconnectedGraphError):
            tau_closed_form(canonicalize(12, [2, 4]))

    def test_diagonal_u_polynomial_is_the_even_one(self):
        # (P_odd - 1) / (w - 1) = -2 P: both families take the roots of P
        for size in range(1, 9):
            for steps in combinations(range(1, 9), size):
                u_poly = (build_odd_char(steps) - 1).div_exact(
                    IntPolynomial([-1, 1]))
                assert u_poly == -2 * build_even_char(steps), steps

    @pytest.mark.parametrize("count, literal", [
        (tau_even, "C5(1,2)"), (tau_odd, "C3(1;d)"),
        (tau_closed_form, "C5(1,2)")])
    def test_counts_take_only_the_spec(self, count, literal):
        with pytest.raises(TypeError):
            count(parse_spec(literal), 7)

    def test_over_cap_refused_without_attempt(self):
        with pytest.raises(NotAttemptedError,
                           match="not attempted: needs about 9264 bits"
                           ) as refused:
            tau_even(canonicalize(3000, [1, 2, 3, 4, 5]))
        assert refused.value.limit == "cap"

    @pytest.mark.parametrize("literal, bits", [
        ("C1200(1,3)", 1845), ("C1500(1,2,4)", 3314), ("C900(2,3;d)", 3659),
        ("C1000(1,3,4;d)", 5137)])
    def test_certified_products_at_large_counts(self, literal, bits):
        spec = parse_spec(literal)
        tau = tau_closed_form(spec)
        assert tau.bit_length() == bits
        certified = tau_odd if spec.diagonal else tau_even
        assert certified(spec) == tau

    @pytest.mark.parametrize("literal", ["C130(1,60)", "C301(1,150)",
                                         "C441(1,220)", "C151(1,150;d)"])
    def test_certified_products_at_large_steps(self, literal):
        # P's monomial coefficients reach 2^(s_k): its roots are seeded on
        # the z-image and Newton evaluates with as many guard bits
        spec = parse_spec(literal)
        certified = tau_odd if spec.diagonal else tau_even
        assert certified(spec) == tau_closed_form(spec)

    @pytest.mark.parametrize("literal", ["C40(1,2,5)", "C20(1,3,4;d)"])
    def test_chebyshev_values_once_per_conjugate_pair(self, monkeypatch,
                                                       literal):
        # the product runs the ladder once per value; the records it reads
        # come from _stored_roots, and each is branched from its
        # representative root
        calls, records, representatives = [], [], []
        ladder, stored_roots = chebyshev._ladder, chebyshev._stored_roots
        branch = chebyshev._branch

        def counted(pair, n, prec):
            calls.append(pair)
            return ladder(pair, n, prec)

        def spied(poly, bits):
            out = stored_roots(poly, bits)
            records.extend(out)
            return out

        def branched(w, prec):
            representatives.append(w)
            return branch(w, prec)

        monkeypatch.setattr(chebyshev, "_ladder", counted)
        monkeypatch.setattr(chebyshev, "_stored_roots", spied)
        monkeypatch.setattr(chebyshev, "_branch", branched)
        spec = parse_spec(literal)
        certified = tau_odd if spec.diagonal else tau_even
        assert certified(spec) == tau_oracle(spec)
        if spec.diagonal:
            char = build_odd_char(spec.steps)
            polys = [(char - 1).div_exact(IntPolynomial([-1, 1])), char + 1]
        else:
            polys = [build_even_char(spec.steps)]
        real = pairs = 0
        for poly in polys:
            for _, y, _ in find_roots(poly, 128).roots:
                real += y == 0
                pairs += y > 0
        assert pairs > 0
        # one value per real root and per pair, at each of two passes
        assert len(calls) == 2 * (real + pairs)
        assert [pair for pair, _, _ in records] == calls
        assert sum(paired for *_, paired in records) == 2 * pairs
        assert representatives
        # each is a root (x, y, e), (x + iy) 2^e, on or above the axis
        assert all(y >= 0 for _, y, _ in representatives)

    @pytest.mark.parametrize("literal, larger", [
        ("C40(1,2,5)", "C400(1,2,5)"), ("C20(1,3,4;d)", "C300(1,3,4;d)")])
    def test_passes_recertify_stored_roots(self, monkeypatch, literal,
                                           larger):
        # a larger order fills the store at a higher precision; a later
        # count makes no find_roots call, and each pass multiplies the
        # stored roots themselves
        spec = parse_spec(literal)
        certified = tau_odd if spec.diagonal else tau_even
        certified(parse_spec(larger))
        polys = [build_even_char(spec.steps)]
        if spec.diagonal:
            polys.append(build_odd_char(spec.steps) + 1)
        entries = [chebyshev._root_setup(p) for p in polys]
        stored = [entry.best for entry in entries]
        records = [entry.records for entry in entries]
        passes, multiplied = [], []
        certify = chebyshev._certified_integer
        stored_roots = chebyshev._stored_roots

        def spied_certify(evaluate, *args):
            def spied(bits):
                passes.append(bits)
                return evaluate(bits)
            return certify(spied, *args)

        def spied_stored_roots(poly, bits):
            # each pass takes the polynomials in the order of ``polys``,
            # and their stored records as they are
            out = stored_roots(poly, bits)
            assert out is records[len(multiplied) % len(polys)]
            multiplied.append(out)
            return out

        def unexpected(*args):
            raise AssertionError("find_roots called on a filled store")

        monkeypatch.setattr(chebyshev, "_certified_integer", spied_certify)
        monkeypatch.setattr(chebyshev, "_stored_roots", spied_stored_roots)
        monkeypatch.setattr(chebyshev, "find_roots", unexpected)
        assert certified(spec) == tau_closed_form(spec)
        start = passes[0]
        assert passes == [start, 2 * start]
        assert len(multiplied) == len(passes) * len(polys)
        assert all(cr.working_precision > 2 * start for cr in stored)
        assert [entry.best for entry in entries] == stored
        assert all(entry.records == records_of(cr)
                   for entry, cr in zip(entries, stored))

    @pytest.mark.parametrize("literal, larger", [
        ("C40(1,2,5)", "C400(1,2,5)"), ("C20(1,3,4;d)", "C300(1,3,4;d)")])
    def test_stored_roots_serve_lower_passes_without_newton(
            self, monkeypatch, literal, larger):
        # passes at or below the store's precision take the stored roots as
        # they are, with no Newton step, and keep the store as it is; a pass
        # above it runs Newton, and its roots replace the stored ones
        spec = parse_spec(literal)
        certified = tau_odd if spec.diagonal else tau_even
        certified(parse_spec(larger))
        polys = [build_even_char(spec.steps)]
        if spec.diagonal:
            polys.append(build_odd_char(spec.steps) + 1)
        entries = [chebyshev._root_setup(p) for p in polys]
        stored = [entry.best for entry in entries]
        newton_step = chebyshev._newton_step

        def no_newton(*args):
            raise AssertionError("Newton step on a store-served pass")

        monkeypatch.setattr(chebyshev, "_newton_step", no_newton)
        assert certified(spec) == tau_closed_form(spec)
        assert all(entry.best is cr for entry, cr in zip(entries, stored))

        steps = []

        def counted(*args):
            steps.append(args)
            return newton_step(*args)

        # both passes above the store: 128 + headroom = top + 1 bits
        top = max(cr.working_precision for cr in stored)
        monkeypatch.setattr(chebyshev, "_newton_step", counted)
        monkeypatch.setattr(chebyshev, "_headroom_bits",
                            lambda *args: top - 127)
        assert certified(spec) == tau_closed_form(spec)
        assert steps
        assert all(entry.best.working_precision == on_grid(2 * (top + 1))
                   for entry in entries)

    @pytest.mark.parametrize("literal, larger", [
        ("C40(1,2,5)", "C400(1,2,5)"), ("C20(1,3,4;d)", "C300(1,3,4;d)")])
    def test_store_keeps_the_pairs_of_its_roots(self, monkeypatch,
                                                literal, larger):
        # a served pass branches nothing and takes no square root; a Newton
        # refresh branches each representative once, and its records
        # replace the stored ones together with the roots
        spec = parse_spec(literal)
        certified = tau_odd if spec.diagonal else tau_even
        want = tau_closed_form(spec)
        certified(parse_spec(larger))
        polys = [build_even_char(spec.steps)]
        if spec.diagonal:
            polys.append(build_odd_char(spec.steps) + 1)
        entries = [chebyshev._root_setup(p) for p in polys]
        stored = [(entry.best, entry.records) for entry in entries]
        branch, isqrt = chebyshev._branch, math.isqrt
        branched = []

        def counted(w, prec):
            branched.append(w)
            return branch(w, prec)

        def no_isqrt(*args):
            raise AssertionError("square root on a store-served pass")

        monkeypatch.setattr(chebyshev, "_branch", counted)
        monkeypatch.setattr(chebyshev.math, "isqrt", no_isqrt)
        assert certified(spec) == want
        monkeypatch.setattr(chebyshev.math, "isqrt", isqrt)
        assert branched == []
        assert all(entry.best is cr and entry.records is records
                   for entry, (cr, records) in zip(entries, stored))
        assert all(records == records_of(cr) for cr, records in stored)

        # both passes above the store: 128 + headroom = top + 1 bits
        top = max(cr.working_precision for cr, _ in stored)
        monkeypatch.setattr(chebyshev, "_headroom_bits",
                            lambda *args: top - 127)
        assert certified(spec) == want
        representatives = sum(len(entry.records) for entry in entries)
        assert representatives > 0
        assert len(branched) == 2 * representatives
        for entry, (cr, records) in zip(entries, stored):
            assert entry.best is not cr and entry.records is not records
            assert entry.best.working_precision == on_grid(2 * (top + 1))
            assert entry.records == records_of(entry.best)

    def test_refusal_and_failure_are_distinct_errors(self):
        # a refusal above the cap was not attempted; a failure at every
        # precision up to it was, and is a certification error
        with pytest.raises(NotAttemptedError):
            chebyshev._certified_integer(lambda bits: (1, -1), 1, 16384, "v")
        with pytest.raises(CertificationError, match="failed to certify"):
            chebyshev._certified_integer(lambda bits: (1, -1), 1, 128, "v")
        assert not issubclass(NotAttemptedError, CertificationError)

    def test_escalations_are_logged(self, monkeypatch, caplog):
        # a start too low for a 261-bit count must escalate, and say why
        monkeypatch.setattr(chebyshev, "_headroom_bits", lambda *args: 0)
        spec = canonicalize(120, [1, 2, 3])
        with caplog.at_level(logging.DEBUG, logger="circtrees.chebyshev"):
            assert tau_even(spec) == tau_closed_form(spec)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "circtrees.chebyshev"]
        assert messages and all(r.levelno == logging.DEBUG
                                for r in caplog.records)
        assert "at 128 bits: not within 2^-20 of a positive multiple of 14;" \
            " escalating to 256 bits" in messages[0]

    def test_unresolved_pass_is_rejected(self, caplog):
        # 14 * 2^200 is a multiple of 2^-20 at 128 bits whatever its error,
        # so that pass proves nothing: it is rejected without a confirm pass
        calls = []

        def evaluate(bits):
            calls.append(bits)
            return 14 * 2 ** 200, 0

        with caplog.at_level(logging.DEBUG, logger="circtrees.chebyshev"):
            assert chebyshev._certified_integer(evaluate, 14, 128, "v") \
                == 2 ** 200
        assert calls == [128, 256, 512]
        assert "v at 128 bits: not within 2^-20 of a positive multiple of " \
            "14; escalating to 256 bits" in caplog.text

    @pytest.mark.parametrize("values", [
        [14, 14],                           # a steady accept
        [(1, -1), 28, 28],                  # an invalid first candidate
        [28, 14, 14],                       # a confirm pass disagrees
        [14, RootRefinementError, 28, 28]])  # a confirm pass fails
    def test_chain_evaluates_each_precision_once(self, values):
        # bits, 2 bits, 4 bits, ...: a candidate is accepted when the next
        # evaluation reproduces it, and a disagreeing next value is the next
        # candidate, not evaluated again
        calls = []

        def evaluate(bits):
            calls.append(bits)
            value = values[len(calls) - 1]
            if value is RootRefinementError:
                raise RootRefinementError("stalled")
            return value if isinstance(value, tuple) else (value, 0)

        assert chebyshev._certified_integer(evaluate, 14, 128, "v") \
            == values[-1] // 14
        assert calls == [128 << k for k in range(len(values))]

    @pytest.mark.parametrize("start, at_last, evaluations, rejections", [
        (128, (14, 0), 8, 7), (128, (1, -1), 7, 7), (3000, (1, -1), 2, 2)])
    def test_last_precision_gives_up_at_the_cap(self, caplog, start, at_last,
                                                evaluations, rejections):
        # the last precision is the last one up to the cap; a candidate
        # there takes one confirm pass above it, and after it only the
        # certification error follows, so the log gives up, escalating to
        # nothing
        calls = []
        last = start << ((MAX_CERTIFY_BITS // start).bit_length() - 1)

        def evaluate(bits):
            calls.append(bits)
            return at_last if bits == last else (1, -1)

        with caplog.at_level(logging.DEBUG, logger="circtrees.chebyshev"):
            with pytest.raises(CertificationError, match="failed to certify"):
                chebyshev._certified_integer(evaluate, 14, start, "v")
        logged = [r.getMessage() for r in caplog.records
                  if r.name == "circtrees.chebyshev"]
        assert len(calls) == evaluations and len(logged) == rejections
        cause = ("the confirm pass at 16384 bits disagreed"
                 if at_last == (14, 0) else
                 "not within 2^-20 of a positive multiple of 14")
        assert logged[-1] == \
            f"v at {last} bits: {cause}; giving up at the 8192-bit cap"
        assert all("escalating" in m for m in logged[:-1])
        assert f"escalating to {2 * last} bits" not in caplog.text

    def test_root_failure_escalation_is_logged(self, monkeypatch, caplog):
        calls = []

        def flaky(poly, precision):
            calls.append(precision)
            if len(calls) == 1:
                raise RootRefinementError("stalled")
            return find_roots(poly, precision)

        monkeypatch.setattr(chebyshev, "find_roots", flaky)
        with caplog.at_level(logging.DEBUG, logger="circtrees.chebyshev"):
            assert tau_even(canonicalize(7, [1, 2])) == 7 * 13 ** 2
        start = 128 + chebyshev._headroom_bits([build_even_char((1, 2))], 7)
        # the confirm pass at 4 * start refines carried roots: no third call;
        # each refinement runs on the store's precision grid
        assert calls == [on_grid(start), on_grid(2 * start)]
        assert f"at {start} bits: root refinement failed: stalled; " \
            f"escalating to {2 * start} bits" in caplog.text

    def test_escalations_silent_by_default(self):
        code = ("from circtrees import chebyshev, canonicalize\n"
                "chebyshev._headroom_bits = lambda *args: 0\n"
                "print(chebyshev.tau_even(canonicalize(120, [1, 2, 3])))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip().isdigit()
        assert proc.stderr == ""

    @pytest.mark.parametrize("family", ["even", "diagonal"])
    def test_grid_certifies_without_escalation(self, family, caplog):
        # a kernel short of precision still counts right after escalating,
        # so only the log shows it: gcd-1 steps within 1..7, at most three,
        # at the smallest order, seven above it, and an order whose count
        # has about 6000 bits (none for the cycle, whose count is n), all
        # certify at the first pass
        step_sets = [steps for size in (1, 2, 3)
                     for steps in combinations(range(1, 8), size)
                     if math.gcd(*steps) == 1]
        with caplog.at_level(logging.DEBUG, logger="circtrees.chebyshev"):
            for steps in step_sets:
                smallest = (max(steps) + 1 if family == "diagonal"
                            else 2 * max(steps) + 1)
                log_m = mahler_root_product(
                    associated_laurent(steps, family)).small_measure
                orders = [smallest, smallest + 7]
                if log_m > 0:
                    orders.append(round(6000 * math.log(2) / log_m))
                for n in orders:
                    spec = family_spec(steps, family, n)
                    certified = tau_odd if spec.diagonal else tau_even
                    assert certified(spec) == tau_closed_form(spec), spec
        assert [r.getMessage() for r in caplog.records
                if r.name == "circtrees.chebyshev"] == []

    def test_exact_route_at_large_steps(self):
        # multiplier conjugates share their count; at steps up to 35 (200)
        # the norm is taken modulo a polynomial of degree 34 (199)
        assert tau_closed_form(parse_spec("C3000(7,14,21,28,35)")) \
            == tau_closed_form(parse_spec("C3000(1,2,3,4,5)"))
        spec = parse_spec("C401(1,200)")
        assert tau_closed_form(spec) == tau_oracle(spec)

    @pytest.mark.parametrize("literal", ["C3000(1,2,3,4,5)",
                                         "C2000(1,2,3;d)"])
    def test_exact_route_beyond_the_cap(self, literal):
        # both counts are refused by the certified products
        spec = parse_spec(literal)
        tau = tau_closed_form(spec)
        assert decompose(spec, tau).tau == tau
        ratio = asymptotic_ratio(spec.steps, spec.family, spec.order)
        assert abs(ratio - 1) < 1e-9

    @pytest.mark.parametrize("literal", ["C20000(1,2,3,4,5)",
                                         "C5000(1,2,3;d)",
                                         "C3000(7,14,21,28,35)",
                                         "C1201(1,1200;d)"])
    def test_exact_route_above_both_ceilings(self, literal):
        # counts beyond the oracle's ceiling that the certified products
        # refuse, by their cap or, at large steps, by their seeding
        # budget, checked modulo three 61-bit primes by the matrix-tree
        # product over the Laplacian's eigenvalues
        spec = parse_spec(literal)
        assert spec.vertex_count > DEFAULT_ORACLE_CEILING
        with pytest.raises(NotAttemptedError) as refused:
            (tau_odd if spec.diagonal else tau_even)(spec)
        assert refused.value.limit == (
            "seeding budget" if spec.steps[-1] > chebyshev.MAX_SEED_DEGREE
            else "cap")
        tau = tau_closed_form(spec)
        for p in primes_one_mod(spec.vertex_count, 3):
            assert tau % p == spec_tau_mod(spec, p), p

    def test_size_limit_refuses_before_any_work(self):
        started = time.perf_counter()
        for spec in (parse_spec("C10000000000(1,2)"),
                     parse_spec("C5000000000(1,2,3;d)"),
                     canonicalize(10 ** 400 + 1, [1, 2, 3])):
            with pytest.raises(NotAttemptedError,
                               match="bits, above the 4194304-bit size limit"
                               ) as refused:
                tau_closed_form(spec)
            assert refused.value.limit == "size"
        assert time.perf_counter() - started < 1

    def test_size_bound_holds(self, monkeypatch):
        # the bound on the count's bits, read from the refusal that a
        # zero limit gives, holds in both families and at large steps;
        # C100000(1,2,3,4,5) stays far below the limit
        def bound(literal):
            with pytest.raises(NotAttemptedError) as refused:
                tau_closed_form(parse_spec(literal))
            return int(re.search(r"up to (\d+) bits", str(refused.value))[1])

        limit = algebra.MAX_COUNT_BITS
        monkeypatch.setattr(algebra, "MAX_COUNT_BITS", 0)
        assert 4 * bound("C100000(1,2,3,4,5)") < limit
        literals = ("C5(1,2)", "C3(1;d)", "C3(1)", "C401(1,200)",
                    "C100(1,2,3,4,5)", "C50(1,2,3;d)", "C201(1,200;d)")
        bounds = [bound(literal) for literal in literals]
        monkeypatch.undo()
        for literal, bits in zip(literals, bounds):
            assert tau_closed_form(parse_spec(literal)).bit_length() <= bits

    @pytest.mark.parametrize("steps", [(1,), (1, 2), (1, 3), (2, 3), (1, 4),
                                       (2, 5), (1, 2, 3), (1, 2, 5)])
    def test_even_equals_oracle(self, steps):
        import math
        for n in range(2 * max(steps) + 1, 2 * max(steps) + 14):
            if math.gcd(math.gcd(*steps), n) != 1:
                continue
            spec = canonicalize(n, list(steps))
            assert tau_even(spec) == tau_oracle(spec), (steps, n)

    @pytest.mark.parametrize("steps", [(1,), (2,), (1, 2), (1, 3), (2, 3),
                                       (1, 2, 3)])
    def test_odd_equals_oracle(self, steps):
        import math
        for n in range(max(steps) + 1, max(steps) + 11):
            if math.gcd(math.gcd(*steps), n) != 1:
                continue
            spec = canonicalize(n, list(steps), diagonal=True)
            assert tau_odd(spec) == tau_oracle(spec), (steps, n)

    def test_family_evaluation_at_other_orders(self):
        # same step set swept over n, one spec per order
        fib = [0, 1]
        while len(fib) < 30:
            fib.append(fib[-1] + fib[-2])
        for n in (5, 9, 16, 25):
            spec = family_spec((1, 2), "even", n)
            assert tau_even(spec) == n * fib[n] ** 2

    def test_family_builds_its_polynomials_once(self, monkeypatch):
        # the characteristic polynomials and the divisor do not depend on
        # the order, so a family builds them once
        chebyshev._product_factors.cache_clear()
        built = []
        build = chebyshev.build_odd_char

        def counted(steps):
            built.append(steps)
            return build(steps)

        monkeypatch.setattr(chebyshev, "build_odd_char", counted)
        for n in (20, 21, 22, 40):
            spec = family_spec((1, 3, 4), "diagonal", n)
            assert tau_odd(spec) == tau_closed_form(spec)
        assert built == [(1, 3, 4)]

    @pytest.mark.parametrize("steps, family, orders, most", [
        ((1, 2, 3, 4, 5), "even", range(11, 400), 45),
        ((2, 3), "diagonal", range(4, 200), 60)])
    def test_ascending_sweep_refines_on_the_grid(self, monkeypatch, steps,
                                                 family, orders, most):
        # each count asks a few bits more than the last, for its first pass
        # and its confirm pass; refining on the 64-bit grid serves most of
        # them from the store, where refining at the bits asked would take
        # about one refinement per count
        refinements = []
        refine = chebyshev._refine_roots

        def counted(poly, precision, previous=None):
            refinements.append(precision)
            return refine(poly, precision, previous)

        monkeypatch.setattr(chebyshev, "_refine_roots", counted)
        for n in orders:
            spec = family_spec(steps, family, n)
            certified = tau_odd if spec.diagonal else tau_even
            assert certified(spec) == tau_closed_form(spec)
        assert 0 < len(refinements) <= most
        assert all(bits % chebyshev.ROOT_GRID_BITS == 0
                   for bits in refinements)

    @pytest.mark.parametrize("poly", [
        build_even_char((1, 3, 4)), build_odd_char((1, 3, 4)) + 1,
        IntPolynomial([1, -2, 1]) * IntPolynomial([3, 2])])
    def test_headroom_sums_each_seeds_stored_growth(self, poly):
        # the slope stored once per polynomial sums, seed by seed, the
        # growth the estimate takes from the seeds, and the estimate at
        # each order is linear in it
        entry = chebyshev._root_setup(poly)
        slope = 0.0
        for _, _, mult, seeds, _ in entry.factors:
            for w in seeds:
                s = (w * w - 1) ** 0.5
                grow = max(abs(w + s), abs(w - s))
                if grow > 1:
                    slope += mult * math.log2(grow)
        assert entry.slope == slope
        for n in (5, 40, 1000):
            bits = math.log2(n) + 8 + n * slope
            assert chebyshev._headroom_bits([poly], n) == int(bits) + 1

    def test_gcd_step_sets_still_certify(self):
        for n in (9, 11, 15, 21):
            spec = canonicalize(n, [2, 4])
            assert tau_even(spec) == tau_oracle(spec)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            tau_even(canonicalize(12, [2, 4]))
        with pytest.raises(DisconnectedGraphError):
            tau_odd(canonicalize(8, [2, 4]))

    def test_wrong_family_rejected(self):
        with pytest.raises(ValueError):
            tau_odd(canonicalize(5, [1, 2]))
        with pytest.raises(ValueError):
            tau_even(parse_spec("C5(1,2;d)"))

    def test_moebius_and_prism_families(self):
        # tau = n (T_n(2) + 1) for the Moebius ladder, n (T_n(2) - 1) for
        # the prism at odd n; exact integer evaluation on both sides
        for n in range(2, 12):
            moebius = canonicalize(2 * n, [1, n])
            assert tau_odd(moebius) == n * (cheb_t(n)(2) + 1)
        for n in range(3, 12, 2):
            prism = canonicalize(2 * n, [2, n])
            assert tau_odd(prism) == n * (cheb_t(n)(2) - 1)
