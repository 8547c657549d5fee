"""How fast do spanning-tree counts grow?

Attach to a step set the Laurent polynomial L(z) = 2k - sum(z^s + z^-s).
Its Mahler measure M -- the geometric mean of |L| on the unit circle,
equally the product of root moduli exceeding 1 -- is the exact exponential
growth rate:

    tau(n) ~ (n d^2 / q) M^n,     q = sum of squared steps, d = gcd(steps).

The odd-valency family uses R(z) = L(z)(L(z) + 2) and tau ~ (n d^2/2q) M^n.
This script computes the measures by two independent methods, tabulates the
convergence of the growth ratio, and shows the per-order entropy
log tau / n approaching log M.
"""

import math

from circtrees import (associated_laurent, asymptotic_ratio,
                       mahler_quadrature, mahler_root_product, thermo_limit)

print("Mahler measures, root product vs circle quadrature")
print("--------------------------------------------------")
print(f"  {'steps':14s} {'family':9s} {'root product':>16} {'quadrature':>16}")
for steps, family in [((1, 2), "even"), ((1, 3), "even"), ((2, 3), "even"),
                      ((1, 2, 3), "even"), ((1,), "diagonal"),
                      ((1, 2), "diagonal"), ((1, 2, 3), "diagonal")]:
    rp = mahler_root_product(associated_laurent(steps, family))
    quad = mahler_quadrature(steps, family)
    body = ",".join(map(str, steps))
    print(f"  ({body:12s}) {family:9s} {rp.value:>16.12f} {quad.value:>16.12f}")

print()
print("Known closed forms:")
print(f"  (1,2)  even:     (3 + sqrt 5)/2        = {(3 + math.sqrt(5)) / 2:.12f}")
a123 = (2 + math.sqrt(7) + math.sqrt(7 + 4 * math.sqrt(7))) / 2
print(f"  (1,2,3) even:    (2 + sqrt7 + sqrt(7+4 sqrt7))/2 = {a123:.12f}")
print(f"  (2,3)  even:     largest root of 1 - 3z + z^2 - 3z^3 + z^4")

print()
print("Growth ratio tau q / (n d^2 M^n) -> 1   [steps (1,2,3), odd valency]")
measure = mahler_root_product(associated_laurent((1, 2, 3), "diagonal"))
print(f"  {'n':>3} {'ratio':>22} {'|ratio-1|':>12}")
for n in (5, 10, 15, 20, 25, 30):
    ratio = asymptotic_ratio((1, 2, 3), "diagonal", n, measure=measure)
    print(f"  {n:>3} {ratio:>22.15f} {abs(ratio - 1):>12.3e}")

print()
print("Scaling invariance: doubling every step leaves the measure alone")
plain = mahler_root_product(associated_laurent((1, 2), "even"))
scaled = mahler_root_product(associated_laurent((2, 4), "even",
                                                reduce=False))
print(f"  M(1,2) = {plain.value:.15f}")
print(f"  M(2,4) = {scaled.value:.15f}")

print()
print("Tree entropy log tau / n -> log M   [steps (2,3)]")
series = thermo_limit((2, 3), "even", [10, 20, 40, 80, 160, 320])
for n, value in zip(series.orders, series.values):
    print(f"  n={n:>4}  log tau / n = {value:.9f}")
print(f"  limit         log M       = {series.target:.9f}")
