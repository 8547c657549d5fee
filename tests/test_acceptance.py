"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 1 sweeps every connected canonical spec with steps from
{1..5} up to 40 vertices (even valency) and steps from {1..4} up to
half-order 20 (odd valency), comparing both closed forms, the exact
resultant and the certified Chebyshev product, against the exact
determinant oracle; the other criteria pin the classical families,
the square-free decompositions, the Mahler measure constants, and the
growth laws at their stated tolerances.
"""

import math
from itertools import chain, combinations

import pytest

from circtrees import (associated_laurent, asymptotic_ratio, canonicalize,
                       cheb_t, decompose, expected_coefficient,
                       mahler_quadrature, mahler_root_product, parse_spec,
                       tau_closed_form, tau_even, tau_odd, tau_oracle)
from circtrees.arithmetic import family_spec
from circtrees.errors import DisconnectedGraphError, SpecError

EVEN_N_MAX = 40
EVEN_STEP_POOL = (1, 2, 3, 4, 5)
DIAG_N_MAX = 20
DIAG_STEP_POOL = (1, 2, 3, 4)


def nonempty_subsets(pool):
    return chain.from_iterable(
        combinations(pool, r) for r in range(1, len(pool) + 1))


def fibonacci(count):
    fib = [0, 1]
    while len(fib) <= count:
        fib.append(fib[-1] + fib[-2])
    return fib


def connected_family_orders(steps, family, n_max):
    lo = max(steps) + 1 if family == "diagonal" else 2 * max(steps) + 1
    for n in range(max(lo, 2 if family == "diagonal" else 3), n_max + 1):
        if math.gcd(math.gcd(*steps), n) == 1:
            yield n


@pytest.fixture(scope="module")
def sweep_results():
    """(spec, certified tau, exact tau, oracle tau) per criterion-1 spec."""
    results = []
    for steps in nonempty_subsets(EVEN_STEP_POOL):
        for n in connected_family_orders(steps, "even", EVEN_N_MAX):
            spec = canonicalize(n, list(steps))
            results.append((spec, tau_even(spec), tau_closed_form(spec),
                            tau_oracle(spec)))
    for steps in nonempty_subsets(DIAG_STEP_POOL):
        for n in connected_family_orders(steps, "diagonal", DIAG_N_MAX):
            spec = canonicalize(n, list(steps), diagonal=True)
            results.append((spec, tau_odd(spec), tau_closed_form(spec),
                            tau_oracle(spec)))
    return results


def test_criterion_01_formula_equals_oracle(sweep_results):
    even = diag = 0
    for spec, certified, exact, oracle in sweep_results:
        assert certified == oracle, (
            f"certified product {certified} != oracle {oracle} for {spec}")
        assert exact == oracle, (
            f"exact resultant {exact} != oracle {oracle} for {spec}")
        if spec.diagonal:
            diag += 1
        else:
            even += 1
    assert even > 800 and diag > 150  # the sweep really covered the space
    for route in ("certified product", "exact resultant"):
        print(f"\ncriterion 1: PASS - {route} == oracle on {even} "
              f"even-valency and {diag} diagonal specs")


def test_criterion_02_fibonacci_family():
    fib = fibonacci(EVEN_N_MAX)
    for n in range(5, EVEN_N_MAX + 1):
        spec = family_spec((1, 2), "even", n)
        assert tau_even(spec) == n * fib[n] ** 2, n
    ratio = asymptotic_ratio((1, 2), "even", 30)
    target = (3 + math.sqrt(5)) / 2
    measured = mahler_root_product(associated_laurent((1, 2), "even"))
    assert abs(measured.value - target) < 1e-12
    assert abs(ratio - 1) < 1e-4
    print(f"\ncriterion 2: PASS - tau = n F_n^2 for n=5..40; "
          f"|ratio(30) - 1| = {abs(ratio - 1):.2e} < 1e-4")


def test_criterion_03_moebius_and_prism():
    for n in range(3, 16):
        moebius = canonicalize(2 * n, [1, n])
        assert tau_odd(moebius) == n * (cheb_t(n)(2) + 1), f"Moebius {n}"
    for n in range(3, 16, 2):
        prism = canonicalize(2 * n, [2, n])
        assert tau_odd(prism) == n * (cheb_t(n)(2) - 1), f"prism {n}"
    assert tau_odd(canonicalize(6, [1, 3])) == 81
    assert tau_odd(canonicalize(6, [2, 3])) == 75
    print("\ncriterion 3: PASS - Moebius n(T_n(2)+1) and prism n(T_n(2)-1) "
          "for n=3..15; spots 81 and 75")


def test_criterion_04_decompositions(sweep_results):
    checked = 0
    for spec, _, formula, _ in sweep_results:
        dec = decompose(spec, formula)
        assert dec.coefficient == expected_coefficient(spec), spec
        assert dec.tau == dec.coefficient * spec.order * dec.a ** 2
        checked += 1
    # the cited coefficient patterns
    for n in (8, 10, 12):
        assert decompose(family_spec((1, 3), "even", n),
                         tau_even(canonicalize(n, [1, 3]))).coefficient == 2
    for n in (3, 5, 7):
        assert expected_coefficient(canonicalize(n, [1], True)) == 3
    for n in (4, 6, 8):
        assert expected_coefficient(canonicalize(n, [1], True)) == 2
    print(f"\ncriterion 4: PASS - decompose + coefficient match on "
          f"{checked} specs; (1,3) even -> 2, Moebius -> 3/2")


def test_criterion_05_mahler_constants():
    rp = lambda s, f: mahler_root_product(associated_laurent(s, f)).value
    a12 = rp((1, 2), "even")
    a13 = rp((1, 3), "even")
    a23 = rp((2, 3), "even")
    a123 = rp((1, 2, 3), "even")
    k12 = rp((1, 2), "diagonal")
    k123 = rp((1, 2, 3), "diagonal")
    # closed forms at 1e-9
    assert abs(a12 - (3 + math.sqrt(5)) / 2) < 1e-9
    assert abs(a123 - (2 + math.sqrt(7) + math.sqrt(7 + 4 * math.sqrt(7)))
               / 2) < 1e-9
    quartic = [z.real for z in __import__("numpy").roots([1, -3, 1, -3, 1])
               if abs(z.imag) < 1e-12 and z.real > 1]
    assert len(quartic) == 1 and abs(a23 - quartic[0]) < 1e-9
    # the truncated two-to-four decimal figures at relative 5e-3
    for got, figure in [(a12, 2.618033), (a13, 2.89), (a23, 2.96),
                        (a123, 4.42), (k12, 14.54), (k123, 32.7865)]:
        assert abs(got - figure) <= 5e-3 * figure, (got, figure)
    print(f"\ncriterion 5: PASS - A(1,2)={a12:.6f} A(1,3)={a13:.4f} "
          f"A(2,3)={a23:.4f} A(1,2,3)={a123:.4f} K(1,2)={k12:.4f} "
          f"K(1,2,3)={k123:.4f}")


def test_criterion_06_cross_method_agreement():
    worst = 0.0
    for steps, family in [((1, 2), "even"), ((1, 3), "even"),
                          ((2, 3), "even"), ((1, 2, 3), "even"),
                          ((1, 2), "diagonal"), ((1, 2, 3), "diagonal")]:
        gap = abs(mahler_root_product(associated_laurent(steps, family)).value
                  - mahler_quadrature(steps, family).value)
        assert gap < 1e-8, (steps, family, gap)
        worst = max(worst, gap)
    print(f"\ncriterion 6: PASS - root product vs quadrature agree; "
          f"worst gap {worst:.2e} < 1e-8")


def test_criterion_07_growth_law():
    families = [((1, 2), "even"), ((1, 3), "even"), ((2, 3), "even"),
                ((1, 2, 3), "even"), ((1,), "diagonal"),
                ((1, 2), "diagonal"), ((1, 2, 3), "diagonal")]
    for steps, family in families:
        measure = mahler_root_product(associated_laurent(steps, family))
        at_30 = abs(asymptotic_ratio(steps, family, 30, measure=measure) - 1)
        at_10 = abs(asymptotic_ratio(steps, family, 10, measure=measure) - 1)
        assert at_30 <= 0.05, (steps, family, at_30)
        assert at_30 < at_10, (steps, family)
    print(f"\ncriterion 7: PASS - |ratio(30) - 1| <= 0.05 and shrinking "
          f"from n=10, all {len(families)} families")


def test_criterion_08_scaling_invariance():
    base = mahler_root_product(associated_laurent((1, 2), "even"))
    scaled = mahler_root_product(
        associated_laurent((2, 4), "even", reduce=False))
    assert abs(base.value - scaled.value) < 1e-9
    # tau of the d=2 family at odd orders: equal to the conjugate (1,2)
    # family and predicted by the d^2/q-scaled growth law
    for n in range(9, 16, 2):
        assert tau_oracle(canonicalize(n, [2, 4])) \
            == tau_oracle(canonicalize(n, [1, 2]))
    ratio = asymptotic_ratio((2, 4), "even", 29)
    assert abs(ratio - 1) < 0.05
    print(f"\ncriterion 8: PASS - M(2,4) == M(1,2) within 1e-9; "
          f"d=2 ratio(29) = {ratio:.6f}")


def test_criterion_09_isomorphic_pair():
    a = tau_oracle(parse_spec("C16(1,2,7)"))
    b = tau_oracle(parse_spec("C16(2,3,5)"))
    assert a == b
    print(f"\ncriterion 9: PASS - tau(C16(1,2,7)) == tau(C16(2,3,5)) == {a}")


def test_criterion_10_order4_recursion():
    # seeds 0,1,1,1 continued by a(n) = a(n-1)+a(n-2)+a(n-3)-a(n-4);
    # the graph family exists for n >= 7 (n = 4,5,6 fold away) and must
    # continue the seeded sequence
    ref = [0, 1, 1, 1]
    for n in range(4, 21):
        ref.append(ref[-1] + ref[-2] + ref[-3] - ref[-4])
    graph_a = {}
    for n in range(4, 21):
        try:
            spec = family_spec((2, 3), "even", n)
        except (SpecError, DisconnectedGraphError):
            continue
        graph_a[n] = decompose(spec, tau_even(spec)).a
    assert sorted(graph_a) == list(range(7, 21))
    for n, a in graph_a.items():
        assert a == ref[n], (n, a, ref[n])
    for n in range(11, 21):
        assert graph_a[n] == graph_a[n - 1] + graph_a[n - 2] \
            + graph_a[n - 3] - graph_a[n - 4]
    print("\ncriterion 10: PASS - a(n) for the (2,3) family continues the "
          "0,1,1,1-seeded order-4 recursion on n=7..20")
