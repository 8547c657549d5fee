"""Property tests of the family rule, spec literals, the closed forms and
the integer polynomial layer.

Random step sets from {1..6} in either family, on at most 40 vertices
where the determinant oracle takes part and at most 250 where only the two
closed forms are compared; gcd-1 step sets from {1..9} at orders up to 600
compare the two closed forms at counts of thousands of bits, and at
orders up to 300 over sequences of orders counted one after another;
gcd-1 step sets with a largest step up to 60 compare them near their
smallest orders, and the exact route's half-degree polynomials with the
certified products' characteristic polynomials.  The ``asymptote`` and
``sequence`` rows at orders 2..40 carry the family rule's count.
Polynomials are products of small integer factors with leading
coefficients 2..5, repeated factors and a content, checked against a
Euclid over the rationals written here, and the resultant against the
determinant of the Sylvester matrix on polynomials of degree up to 7
with coefficients in -9..9 and small common factors.  The mantissa
kernels of the certified products (T_n, the Newton step, the magnitude
bound, the product over the stored roots) are checked against mpmath at
three times their precision, from 64 to 4096 bits, and Newton from
stored roots, below or above their precision, leaves a radius that
bounds its last step and holds the root refined further.  The
certification's nearest-integer rule is checked against Fractions, at
ties and at the edges of its 2^-20 window and of the values a pass can
resolve.  Examples are derandomized and have no deadline, so the suite
is deterministic and does not depend on the speed of the machine.
"""

import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circtrees import (DisconnectedGraphError, IntPolynomial,
                       InternalConsistencyError, SpecError,
                       bareiss_determinant, build_even_char, build_odd_char,
                       canonicalize, find_roots, multiplier_conjugate,
                       parse_spec, tau_closed_form, tau_even, tau_odd,
                       tau_oracle)
from circtrees.algebra import _half_images, _resultant
from circtrees.arithmetic import family_spec
from circtrees.chebyshev import (GUARD_BITS, RootRefinementError,
                                 _integer_near, _ladder, _newton_step,
                                 _product, _refine_roots, _root_setup,
                                 _stored_roots, poly_gcd,
                                 square_free_decomposition)
from circtrees.cli import main
from circtrees.dyadic import _branch, _inverse, _magnitude
from triples import (cheb_value, pair_representatives, to_mpc, to_mpf,
                     triple)

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
    conjugate = multiplier_conjugate(spec, r)
    assert tau_oracle(conjugate) == tau
    # the conjugate's steps reach half the vertex count, which the strategy
    # never draws
    assert tau_closed_form(conjugate) == tau


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
def large_step_specs(draw, s_max=60):
    """A gcd-1 step set with s_k in 10..s_max at one of its nine smallest
    orders; s_k is drawn down from s_max, so examples shrink toward it."""
    top = s_max - draw(st.integers(0, s_max - 10))
    steps = tuple(sorted(draw(st.sets(st.integers(1, top - 1), max_size=3))
                         | {top}))
    assume(math.gcd(*steps) == 1)
    family = draw(family_st)
    smallest = top + 1 if family == "diagonal" else 2 * top + 1
    return family_spec(steps, family, smallest + draw(st.integers(0, 8)))


@PROPERTY
@given(large_step_specs())
def test_certified_product_equals_exact_at_large_steps(spec):
    # seeded on the z-image, the roots of P certify where the w-basis
    # coefficients reach 2^(s_k)
    assert certified_product(spec) == tau_closed_form(spec)


@PROPERTY
@given(st.sets(st.integers(1, 60), min_size=1, max_size=4))
@example({1})
@example({1, 60})
def test_half_images_are_the_characteristic_polynomials(steps):
    # the exact route's Lucas-built Q~ (both families) and Q~_2 (diagonal)
    # and the certified products' Chebyshev-built P and P_odd check each
    # other at x = 2w
    steps = tuple(sorted(steps))
    assume(math.gcd(*steps) == 1)
    half, shifted = _half_images(steps)
    at_2w = [IntPolynomial([c << i for i, c in enumerate(poly.coeffs)])
             for poly in (half, shifted)]
    assert at_2w[0] == -build_even_char(steps)
    assert at_2w[1] == build_odd_char(steps) + 1


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
@given(st.data(), st.integers(64, 4096), st.integers(1, 10 ** 4))
def test_chebyshev_kernel_against_mpmath(data, bits, n):
    # the branch, its reciprocal and the ladder against (b^n + b^-n) / 2 at
    # three times the precision, within 2^-bits |b^n|
    w = data.draw(exact_arguments(bits))
    got = cheb_value(w, n, bits)
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
    b = _branch(triple(w), stored)
    got = to_mpc(_ladder((b, _inverse(*b, stored)), n, bits + GUARD_BITS),
                 bits)
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
            _newton_step(poly, dpoly, triple(z), bits + GUARD_BITS)
        return
    got = to_mpc(_newton_step(poly, dpoly, triple(z), bits + GUARD_BITS),
                 bits)
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
        for exact, radius, mult, root in zip(cr.roots, cr.radii,
                                             cr.multiplicities, finest.roots):
            z, radius, root = to_mpc(exact), to_mpf(radius), to_mpc(root)
            assert max(z.real._mpf_[3], z.imag._mpf_[3]) <= bits + 64
            factor = factors[mult]
            step = to_mpc(_newton_step(factor, factor.derivative(), exact,
                                       bits + 64 + GUARD_BITS))
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
    m, e = _magnitude(triple(mp.mpc(re, im)))
    bound = Fraction(m) * Fraction(2) ** e
    square = exact_value(re) ** 2 + exact_value(im) ** 2
    assert m.bit_length() <= 24
    assert square <= bound ** 2 \
        <= square * (1 + Fraction(1, 2 ** 20)) ** 2


@st.composite
def integer_near_cases(draw):
    """(m, e, bits): a pass's product m 2^e at ``bits`` bits, of any sign.

    Any mantissa and exponent (e >= 0 included), a tie k + 1/2, a value
    at or just inside or outside the 2^-20 window around an integer k, or
    one at or just below 2^(bits - 21), where a pass stops resolving it.
    """
    bits = draw(st.integers(128, 1024))
    sign = draw(st.sampled_from((1, -1)))
    kind = draw(st.sampled_from(("any", "tie", "window", "resolution")))
    if kind == "any":
        return (draw(st.integers(-2 ** 300, 2 ** 300)),
                draw(st.integers(-400, 400)), bits)
    if kind == "resolution":
        e = draw(st.integers(-60, 60))
        m = (1 << (bits - 21 - e)) + draw(st.integers(-2, 1))
        return sign * m, e, bits
    k = draw(st.integers(0, 2 ** 80))
    s = draw(st.integers(21, 100))
    if kind == "tie":
        return sign * ((k << s) + (1 << (s - 1))), -s, bits
    offset = (1 << (s - 20)) + draw(st.integers(-1, 1))
    return sign * ((k << s) + draw(st.sampled_from((1, -1))) * offset), -s, bits


@PROPERTY
@given(integer_near_cases())
def test_integer_near_against_fractions(case):
    # the integer within 2^-20 of the value, or None, also when the value
    # is 2^(bits - 21) or more in size
    m, e, bits = case
    value = Fraction(m) * Fraction(2) ** e
    nearest = round(value)
    want = (nearest if abs(value - nearest) < Fraction(1, 2 ** 20)
            and abs(value) < Fraction(2) ** (bits - 21) else None)
    assert _integer_near((m, e), bits) == want


def check_mantissa_product(factors, n, bits):
    """The product over the stored roots, one value per conjugate pair on
    mantissas, against mpmath over every root CertifiedRoots.roots holds,
    at three times the precision: within 2^-(bits - 8) relative."""
    got = to_mpc(_product(factors, n, bits))
    with mp.workprec(3 * bits):
        want = mp.mpc(n)
        for poly, shift in factors:
            cr = _root_setup(poly).best
            assert cr.working_precision >= bits
            for w, mult in zip(map(to_mpc, cr.roots), cr.multiplicities):
                s = mp.sqrt(w * w - 1)
                b = w + s if abs(w + s) >= 1 else w - s
                want *= (b ** n + b ** -n + shift) ** mult
        assert abs(got - want) <= abs(want) * mp.ldexp(1, 8 - bits)


@PROPERTY
@given(family_orders(MAX_CLOSED_FORM_VERTICES), st.integers(64, 1024))
def test_mantissa_product_against_mpmath(case, bits):
    steps, family, n = case
    try:
        spec = family_spec(steps, family, n)
    except (SpecError, DisconnectedGraphError):
        assume(False)
    factors = [(build_even_char(spec.steps), -2)]
    if spec.diagonal:
        factors.append((build_odd_char(spec.steps) + 1, 2))
    check_mantissa_product(
        [(poly, shift) for poly, shift in factors if poly.degree >= 1],
        n, bits)


@pytest.mark.parametrize("n", [5, 12, 40])
@pytest.mark.parametrize("shift", [-2, 2])
def test_mantissa_product_over_an_unpaired_pair(n, shift):
    # roots 3 +- 2^-20 i lie too near the axis to be paired, so each is
    # multiplied as a complex value of its own
    poly = IntPolynomial([9 * 2 ** 40 + 1, -6 * 2 ** 40, 2 ** 40])
    check_mantissa_product([(poly, shift)], n, 128)
    best = _root_setup(poly).best
    assert all(y for _, y, _ in best.roots)
    assert [paired for *_, paired in _root_setup(poly).records] \
        == [paired for *_, paired in pair_representatives(best)] \
        == [False, False]


@st.composite
def product_polys(draw):
    """A polynomial of the certified products, P or P_odd + 1: of a gcd-1
    step set with s_k <= 12, or of a single step, whose P has repeated
    roots on [-1, 1]."""
    steps = draw(st.one_of(
        st.integers(2, 12).map(lambda s: (s,)),
        st.sets(st.integers(1, 12), min_size=1, max_size=4).map(
            lambda s: tuple(sorted(s))).filter(lambda s: math.gcd(*s) == 1)))
    if draw(family_st) == "diagonal":
        return build_odd_char(steps) + 1
    poly = build_even_char(steps)
    assume(poly.degree >= 1)
    return poly


@PROPERTY
@given(product_polys(), st.integers(64, 512))
@example(IntPolynomial([9 * 2 ** 40 + 1, -6 * 2 ** 40, 2 ** 40]), 128)
def test_stored_records_pair_as_the_reference(poly, bits):
    # the records, laid out from the seeds, give each representative's
    # multiplicity and pairing as the reference rule reads them off the
    # stored roots: a root above the axis followed by its exact conjugate
    records = _stored_roots(poly, bits)
    want = pair_representatives(_root_setup(poly).best)
    assert [(mult, paired) for _, mult, paired in records] \
        == [(mult, paired) for _, mult, paired in want]


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


def sylvester(a, b):
    """The Sylvester matrix of ``a`` and ``b``, highest coefficients first."""
    m, n = a.degree, b.degree
    top, bottom = a.coeffs[::-1], b.coeffs[::-1]
    return ([[0] * i + list(top) + [0] * (n - 1 - i) for i in range(n)]
            + [[0] * i + list(bottom) + [0] * (m - 1 - i) for i in range(m)])


nonzero_poly_st = st.builds(
    lambda low, lead: IntPolynomial(low + [lead]),
    st.lists(st.integers(-9, 9), max_size=7), st.integers(-9, 9).filter(bool))


@settings(PROPERTY, max_examples=300)
@given(nonzero_poly_st,
       st.one_of(nonzero_poly_st,
                 st.integers(-9, 9).map(lambda c: IntPolynomial([c]))),
       st.one_of(st.just(IntPolynomial([1])), small_factor_st))
def test_resultant_is_the_sylvester_determinant(a, b, common):
    # leading coefficients of either sign, any degree gap, constant and
    # zero b; a common factor makes the resultant 0
    a, b = a * common, b * common
    if a.is_zero or b.is_zero:
        assert _resultant(a, b) == 0
        return
    expected = bareiss_determinant(sylvester(a, b))
    assert _resultant(a, b) == expected
    if common.degree > 0:
        assert expected == 0


def fraction_determinant(m):
    """Gaussian elimination over the rationals with row swaps."""
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(len(a)):
        swap = next((i for i in range(k, len(a)) if a[i][k]), None)
        if swap is None:
            return 0
        if swap != k:
            a[k], a[swap] = a[swap], a[k]
            det = -det
        det *= a[k][k]
        for row in a[k + 1:]:
            factor = row[k] / a[k][k]
            for j in range(k, len(a)):
                row[j] -= factor * a[k][j]
    return det


@st.composite
def banded_matrices(draw):
    """Square integer matrices up to 12 x 12, zero outside a band of random
    lower and upper widths (a full band gives a sparse matrix), with many
    zero entries, so pivots vanish and rows swap; a copied row makes one
    singular."""
    size = draw(st.integers(1, 12))
    lower = draw(st.integers(0, size - 1))
    upper = draw(st.integers(0, size - 1))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 7, 12))
    m = [[draw(entry) if -lower <= j - i <= upper else 0
          for j in range(size)] for i in range(size)]
    if size > 1 and draw(st.integers(0, 3)) == 0:
        source, target = draw(st.permutations(range(size)))[:2]
        m[target] = list(m[source])
    return m


@settings(PROPERTY, max_examples=400)
@given(banded_matrices())
@example([[0, 1], [1, 0]])                          # a swap at the first step
@example([[1, 1, 0], [1, 1, 1], [0, 1, 1]])         # a zero pivot in the band
@example([[1, 2, 0], [2, 4, 0], [0, 0, 3]])         # singular
def test_bareiss_equals_rational_elimination(m):
    det = bareiss_determinant(m)
    assert type(det) is int and det == fraction_determinant(m)


def test_divmod_exact_raises_on_a_fractional_quotient():
    with pytest.raises(InternalConsistencyError,
                       match="non-integer quotient dividing"):
        IntPolynomial([1, 0, 1]).divmod_exact(IntPolynomial([1, 2]))
