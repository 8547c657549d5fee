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
rationals written here.  Examples are derandomized and have no deadline,
so the suite is deterministic and does not depend on the speed of the
machine.
"""

import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circtrees import (DisconnectedGraphError, IntPolynomial,
                       InternalConsistencyError, SpecError, canonicalize,
                       multiplier_conjugate, parse_spec, tau_closed_form,
                       tau_even, tau_odd, tau_oracle)
from circtrees.arithmetic import family_spec
from circtrees.chebyshev import poly_gcd, square_free_decomposition
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
