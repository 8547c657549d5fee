"""Property tests of the family rule, spec literals and the closed forms.

Random step sets from {1..6} in either family, on at most 40 vertices
where the determinant oracle takes part and at most 250 where only the two
closed forms are compared.  Examples are derandomized and have no
deadline, so the suite is deterministic and does not depend on the speed
of the machine.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circtrees import (DisconnectedGraphError, SpecError, canonicalize,
                       multiplier_conjugate, parse_spec, tau_closed_form,
                       tau_even, tau_odd, tau_oracle)
from circtrees.arithmetic import family_spec

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
