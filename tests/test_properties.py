"""Property tests of the family rule, spec literals, the closed forms and
the integer polynomial layer.

Random step sets from {1..6} in either family, on at most 40 vertices
where the determinant oracle takes part and at most 250 where only the two
closed forms are compared; gcd-1 step sets from {1..9} at orders up to 600
compare the two closed forms at counts of thousands of bits, and at
orders up to 300 over sequences of orders counted one after another.  The
``asymptote`` and ``sequence`` rows at orders 2..40 carry the family
rule's count.  Polynomials
are products of small integer factors with leading coefficients 2..5,
repeated factors and a content, checked against a Euclid over the
rationals written here.  The mantissa kernels of the certified products
(T_n, the Newton step, the magnitude bound) are checked against mpmath at
three times their precision, from 64 to 4096 bits, and Newton from
stored roots, below or above their precision, leaves a radius that bounds
its last step and holds the root refined further.  Examples are
derandomized and have no deadline, so the suite is deterministic and does
not depend on the speed of the machine.
"""

import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circtrees import (DisconnectedGraphError, IntPolynomial,
                       InternalConsistencyError, SpecError, build_even_char,
                       build_odd_char, canonicalize, find_roots,
                       multiplier_conjugate, parse_spec, tau_closed_form,
                       tau_even, tau_odd, tau_oracle)
from circtrees.arithmetic import family_spec
from circtrees.chebyshev import (GUARD_BITS, RootRefinementError, _branch,
                                 _inverse, _ladder, _magnitude, _newton_step,
                                 _refine_roots, cheb_eval_large, poly_gcd,
                                 square_free_decomposition)
from circtrees.cli import main

MAX_VERTICES = 40
MAX_CLOSED_FORM_VERTICES = 250

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60)

steps_st = st.sets(st.integers(1, 6), min_size=1, max_size=4).map(
    lambda s: tuple(sorted(s)))
family_st = st.sampled_from(("even", "diagonal"))


@st.composite
def family_orders(draw, max_vertices=MAX_VERTICES):
    """(steps, family, n) with n any order whose graph has <= max_vertices."""
    family = draw(family_st)
    top = max_vertices // 2 if family == "diagonal" else max_vertices
    return draw(steps_st), family, draw(st.integers(1, top))


def certified_product(spec):
    """The paper's certified Chebyshev product for the spec's family."""
    return (tau_odd if spec.diagonal else tau_even)(spec)


@PROPERTY
@given(family_orders())
def test_literal_round_trip_and_canonical_fixed_point(case):
    steps, family, n = case
    try:
        spec = canonicalize(n, list(steps), diagonal=family == "diagonal")
    except SpecError:
        assume(False)
    assert parse_spec(spec.literal) == spec
    assert canonicalize(spec.order, list(spec.steps), spec.diagonal) == spec
    raw = list(spec.steps) + ([spec.order] if spec.diagonal else [])
    assert canonicalize(spec.vertex_count, raw) == spec


@PROPERTY
@given(family_orders())
def test_family_spec_follows_the_family_rule(case):
    steps, family, n = case
    smallest = max(steps) + 1 if family == "diagonal" else 2 * max(steps) + 1
    connected = math.gcd(n, *steps) == 1
    try:
        spec = family_spec(steps, family, n)
    except SpecError:
        assert n < smallest
        return
    except DisconnectedGraphError:
        assert n >= smallest and not connected
        return
    assert n >= smallest and connected
    assert (spec.order, spec.steps, spec.family) == (n, steps, family)


@PROPERTY
@given(steps_st, family_st, st.integers(2, 40))
def test_sweep_rows_carry_the_family_spec_count(steps, family, n):
    try:
        expected = str(tau_closed_form(family_spec(steps, family, n)))
    except SpecError:
        expected = None
    except DisconnectedGraphError:
        expected = "0"
    for command in ("asymptote", "sequence"):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main([command, ",".join(map(str, steps)),
                         "--family", family, "--n", f"{n}..{n}"])
        (row,) = [json.loads(line) for line in out.getvalue().splitlines()]
        assert code == 0 and (row["n"], row["tau"]) == (n, expected)


@PROPERTY
@given(family_orders(), st.integers(2, MAX_VERTICES))
def test_closed_form_equals_oracle_and_conjugates(case, r):
    steps, family, n = case
    try:
        spec = family_spec(steps, family, n)
    except (SpecError, DisconnectedGraphError):
        assume(False)
    assume(math.gcd(r, spec.vertex_count) == 1)
    tau = tau_oracle(spec)
    assert tau_closed_form(spec) == tau
    assert certified_product(spec) == tau
    assert tau_oracle(multiplier_conjugate(spec, r)) == tau


@PROPERTY
@given(family_orders(MAX_CLOSED_FORM_VERTICES))
def test_exact_route_equals_certified_product(case):
    steps, family, n = case
    try:
        spec = family_spec(steps, family, n)
    except (SpecError, DisconnectedGraphError):
        assume(False)
    assert tau_closed_form(spec) == certified_product(spec)


@st.composite
def large_order_specs(draw, s_max=9, n_max=600):
    """A gcd-1 step set with s_k <= s_max at an order up to n_max.

    The order is drawn down from n_max, so examples shrink toward the
    largest counts, where certification is hardest.
    """
    steps = draw(st.sets(st.integers(1, s_max), min_size=1, max_size=s_max)
                 .map(lambda s: tuple(sorted(s))))
    assume(math.gcd(*steps) == 1)
    family = draw(family_st)
    smallest = max(steps) + 1 if family == "diagonal" else 2 * max(steps) + 1
    n = n_max - draw(st.integers(0, n_max - smallest))
    return family_spec(steps, family, n)


@PROPERTY
@given(large_order_specs())
def test_certified_product_equals_exact_at_large_orders(spec):
    assert certified_product(spec) == tau_closed_form(spec)


@st.composite
def order_sequences(draw, s_max=9, n_max=300):
    """A gcd-1 step set with s_k <= s_max, a family and orders up to n_max.

    Two to five orders come ascending, descending or as drawn, and one of
    them is counted again at the end.
    """
    steps = draw(st.sets(st.integers(1, s_max), min_size=1, max_size=s_max)
                 .map(lambda s: tuple(sorted(s))))
    assume(math.gcd(*steps) == 1)
    family = draw(family_st)
    smallest = max(steps) + 1 if family == "diagonal" else 2 * max(steps) + 1
    orders = draw(st.lists(st.integers(smallest, n_max), min_size=2,
                           max_size=5))
    arrange = draw(st.sampled_from(
        (sorted, lambda o: sorted(o, reverse=True), list)))
    orders = arrange(orders)
    return steps, family, orders + [draw(st.sampled_from(orders))]


@PROPERTY
@given(order_sequences())
def test_certified_product_over_a_sequence_of_orders(case):
    # roots stored by one order start Newton at the next, in this process
    steps, family, orders = case
    for n in orders:
        spec = family_spec(steps, family, n)
        assert certified_product(spec) == tau_closed_form(spec), spec


def exact_mpf(q):
    """The dyadic rational ``q`` as an mpf, with no rounding."""
    q = Fraction(q)
    return mp.make_mpf(mp.libmp.from_man_exp(
        q.numerator, 1 - q.denominator.bit_length()))


def exact_value(x):
    """An mpf as a Fraction."""
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


@st.composite
def exact_arguments(draw, bits):
    """A point the kernels hold exactly at ``bits`` bits plus guard bits.

    Near w = +-1, T_n magnifies the rounding of its argument up to n^2
    times, whatever evaluates it, so the points are exact: w = +-1 as an
    int, a Fraction or an mpc, ints, dyadic Fractions, and real or complex
    mpc whose parts are both dyadic with at most 80 bits or both full
    ``bits``-bit mantissas below 4 in size.
    """
    kind = draw(st.sampled_from(
        ("branch point", "int", "fraction", "real", "complex")))
    if kind == "branch point":
        return draw(st.sampled_from((1, -1, Fraction(-1), mp.mpc(1),
                                     mp.mpc(-1))))
    if kind == "int":
        return draw(st.integers(-40, 40))
    part = draw(st.sampled_from((
        st.builds(lambda k, j: Fraction(k, 2 ** j),
                  st.integers(-2 ** 39, 2 ** 39), st.integers(0, 40)),
        st.integers(-2 ** bits, 2 ** bits).map(
            lambda k: Fraction(k, 2 ** (bits - 2))))))
    if kind == "fraction":
        return draw(part)
    imag = draw(part) if kind == "complex" else 0
    return mp.mpc(exact_mpf(draw(part)), exact_mpf(imag))


def as_mpc(w):
    return w if isinstance(w, mp.mpc) else mp.mpc(exact_mpf(w))


@PROPERTY
@given(st.data(), st.integers(64, 4096), st.integers(0, 10 ** 4))
def test_chebyshev_kernel_against_mpmath(data, bits, n):
    # (b^n + b^-n) / 2 at three times the precision, within 2^-bits |b^n|
    w = data.draw(exact_arguments(bits))
    got = cheb_eval_large(w, n, precision=bits)
    with mp.workprec(3 * bits):
        z = as_mpc(w)
        s = mp.sqrt(z * z - 1)
        b = z + s if abs(z + s) >= 1 else z - s
        power = b ** n
        want = (power + 1 / power) / 2
        assert abs(got - want) <= mp.ldexp(max(1, abs(power)), -bits)


@st.composite
def ladder_orders(draw):
    """An order in 1..10^4: 1, 2, 2^k - 1, 2^k, 2^k + 1, or any."""
    k = draw(st.integers(2, 13))
    return draw(st.sampled_from((1, 2, 2 ** k - 1, 2 ** k, 2 ** k + 1,
                                 draw(st.integers(1, 10 ** 4)))))


@st.composite
def ladder_arguments(draw, bits):
    """A point held exactly at ``bits`` bits: real with |w| > 1 of either
    sign, complex, or within a dyadic 2^-j of +-1, real or complex."""
    kind = draw(st.sampled_from(("real", "complex", "near one")))
    part = st.builds(lambda k, j: Fraction(k, 2 ** j),
                     st.integers(-2 ** 39, 2 ** 39), st.integers(0, 40))
    if kind == "real":
        w = draw(part.filter(lambda q: abs(q) > 1))
        return draw(st.sampled_from((w, mp.mpc(exact_mpf(w)))))
    if kind == "complex":
        return mp.mpc(exact_mpf(draw(part)),
                      exact_mpf(draw(part.filter(bool))))
    j = draw(st.integers(1, bits - 8))
    offset = draw(st.sampled_from((1, -1))) * Fraction(1, 2 ** j)
    imag = draw(st.sampled_from((0, offset)))
    return mp.mpc(exact_mpf(draw(st.sampled_from((1, -1))) + offset),
                  exact_mpf(imag))


@PROPERTY
@given(st.data(), st.integers(64, 2048), ladder_orders())
def test_ladder_from_a_stored_pair_against_mpmath(data, bits, n):
    # a pair (b, 1/b) built at a store precision in bits..4 bits, as the
    # root store keeps it, then cut to ``bits`` by the ladder: (b^n +
    # b^-n) / 2 at three times the precision, within 2^-bits |b^n|
    w = data.draw(ladder_arguments(bits))
    stored = data.draw(st.integers(bits, 4 * bits)) + GUARD_BITS
    b = _branch(w, stored)
    with mp.workprec(bits):
        got = _ladder((b, _inverse(*b, stored)), n, bits + GUARD_BITS)
    with mp.workprec(3 * bits):
        z = as_mpc(w)
        s = mp.sqrt(z * z - 1)
        b = z + s if abs(z + s) >= 1 else z - s
        power = b ** n
        want = (power + 1 / power) / 2
        assert abs(got - want) <= mp.ldexp(max(1, abs(power)), -bits)


@PROPERTY
@given(st.data(), st.integers(64, 4096),
       st.lists(st.integers(-2 ** 60, 2 ** 60), min_size=2, max_size=13)
       .filter(lambda c: c[-1] != 0))
def test_newton_step_kernel_against_mpmath(data, bits, coeffs):
    # P(z) / P'(z) at three times the precision, within the error of
    # evaluating P and P' at ``bits`` bits
    poly = IntPolynomial(coeffs)
    dpoly = poly.derivative()
    z = data.draw(exact_arguments(bits))
    with mp.workprec(3 * bits):
        zc = as_mpc(z)
        p, dp = poly(zc), dpoly(zc)
    if dp == 0:
        with pytest.raises(RootRefinementError, match="derivative vanished"):
            with mp.workprec(bits):
                _newton_step(poly, dpoly, z)
        return
    with mp.workprec(bits):
        got = _newton_step(poly, dpoly, z)
    with mp.workprec(3 * bits):
        size, dsize = (sum(abs(c) * abs(zc) ** i
                           for i, c in enumerate(f.coeffs))
                       for f in (poly, dpoly))
        step = p / dp
        assert abs(got - step) \
            <= mp.ldexp(size + abs(step) * dsize, -bits) / abs(dp)


@st.composite
def stored_root_cases(draw):
    """(poly, stored, bits): a characteristic polynomial of a gcd-1 step set
    within 1..9 (P for the even family, P_odd + 1 for the diagonal one), a
    store precision in 128..4096 and a pass precision in 64..2 stored."""
    steps = draw(st.sets(st.integers(1, 9), min_size=1, max_size=9)
                 .map(lambda s: tuple(sorted(s))))
    assume(math.gcd(*steps) == 1)
    family = draw(family_st)
    poly = (build_even_char(steps) if family == "even"
            else build_odd_char(steps) + 1)
    assume(poly.degree >= 1)
    stored = draw(st.integers(128, 4096))
    return poly, stored, draw(st.integers(64, 2 * stored))


@PROPERTY
@given(stored_root_cases())
def test_newton_from_stored_roots_stays_certified(case):
    # Newton at ``bits`` from roots certified at another precision, as a
    # pass above the store runs it: at most bits + 64 bits of mantissa, a
    # radius above four times a Newton step taken at the new root plus the
    # Newton floor, and holding the root refined to four times the stored
    # precision
    poly, stored, bits = case
    source = find_roots(poly, stored)
    cr = _refine_roots(poly, bits, source)
    finest = _refine_roots(poly, 4 * stored, source)
    factors = {m: f for f, m in square_free_decomposition(poly)}
    assert cr.working_precision == bits
    assert cr.multiplicities == source.multiplicities
    with mp.workprec(bits + 64):
        for z, radius, mult, root in zip(cr.roots, cr.radii,
                                         cr.multiplicities, finest.roots):
            assert max(z.real._mpf_[3], z.imag._mpf_[3]) <= bits + 64
            factor = factors[mult]
            step = _newton_step(factor, factor.derivative(), z)
            assert radius >= 4 * abs(step) \
                + mp.ldexp(max(1, abs(z)), 4 - bits), (poly, z)
            assert abs(z - root) <= radius, (poly, z)


mpf_st = st.builds(
    lambda man, exp: mp.make_mpf(mp.libmp.from_man_exp(man, exp)),
    st.integers(-2 ** 300, 2 ** 300), st.integers(-3000, 3000))


@PROPERTY
@given(mpf_st, mpf_st)
def test_magnitude_bounds_the_modulus(re, im):
    # a 24-bit upper bound on |z|, below |z| (1 + 2^-20)
    bound = _magnitude(mp.mpc(re, im))
    square = exact_value(re) ** 2 + exact_value(im) ** 2
    assert bound._mpf_[3] <= 24
    assert square <= exact_value(bound) ** 2 \
        <= square * (1 + Fraction(1, 2 ** 20)) ** 2


small_factor_st = st.builds(
    lambda low, lead: IntPolynomial(low + [lead]),
    st.lists(st.integers(-4, 4), min_size=1, max_size=2), st.integers(2, 5))


@st.composite
def int_products(draw):
    """content * prod f_i^{m_i}: 1-3 small factors, each to the power 1-3."""
    poly = IntPolynomial([draw(st.sampled_from((-1, 1)))
                          * draw(st.integers(1, 6))])
    for _ in range(draw(st.integers(1, 3))):
        factor = draw(small_factor_st)
        for _ in range(draw(st.integers(1, 3))):
            poly = poly * factor
    return poly


def rational_divmod(a, b):
    """Long division of coefficient lists over Q, lowest degree first."""
    rem = [Fraction(c) for c in a]
    quot = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    for i in range(len(rem) - len(b), -1, -1):
        f = quot[i] = rem[i + len(b) - 1] / b[-1]
        for j, c in enumerate(b):
            rem[i + j] -= f * c
    rem = rem[:len(b) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def rational_gcd_degree(a, b):
    """Degree of gcd(a, b) by Euclid over Q."""
    a, b = list(a.coeffs), list(b.coeffs)
    while b:
        a, b = b, rational_divmod(a, b)[1]
    return len(a) - 1


@PROPERTY
@given(int_products())
def test_square_free_decomposition_invariants(poly):
    factors = square_free_decomposition(poly)
    product = IntPolynomial([1])
    for f, m in factors:
        assert f.degree >= 1 and f.leading > 0 and f.content() == 1
        assert rational_gcd_degree(f, f.derivative()) == 0
        for _ in range(m):
            product = product * f
    for (f, _), (g, _) in combinations(factors, 2):
        assert rational_gcd_degree(f, g) == 0
    assert len({m for _, m in factors}) == len(factors)
    assert product in (poly.primitive(), -poly.primitive())


@PROPERTY
@given(int_products(), int_products())
def test_gcd_is_the_rational_gcd(a, b):
    g = poly_gcd(a, b)
    assert g.leading > 0 and g.content() == 1
    assert g.degree == rational_gcd_degree(a, b)
    a.div_exact(g)
    b.div_exact(g)


@PROPERTY
@given(int_products(), st.one_of(small_factor_st, int_products()))
def test_divmod_exact_is_integer_long_division(a, b):
    quot = rational_divmod(a.coeffs, b.coeffs)[0]
    try:
        q, r = a.divmod_exact(b)
    except InternalConsistencyError:
        assert any(f.denominator != 1 for f in quot)
        return
    assert list(q.coeffs) == quot
    assert q * b + r == a and r.degree < b.degree


def test_divmod_exact_raises_on_a_fractional_quotient():
    with pytest.raises(InternalConsistencyError,
                       match="non-integer quotient dividing"):
        IntPolynomial([1, 0, 1]).divmod_exact(IntPolynomial([1, 2]))
