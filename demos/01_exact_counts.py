"""Counting spanning trees two independent ways.

A circulant graph C_n(s_1,...,s_k) connects vertex i to i +/- s_j mod n.
Famous graphs are circulants: C_n(1) is the n-cycle, C_5(1,2) = K_5, the
Moebius ladder is C_{2n}(1,n), the prism is C_{2n}(2,n) for odd n.

This script counts their spanning trees twice: with the exact matrix-tree
determinant (Bareiss elimination over big integers) and with the Chebyshev
closed form (a certified arbitrary-precision product), and shows they agree
digit for digit.
"""

from circtrees import (canonicalize, family_spec, laplacian, parse_spec,
                       tau_even, tau_odd, tau_oracle)


def count_both_ways(spec):
    formula = tau_odd(spec) if spec.diagonal else tau_even(spec)
    oracle = tau_oracle(spec)
    marker = "ok" if formula == oracle else "MISMATCH"
    print(f"  {str(spec):14s} tau = {formula}  [{marker}]")
    return formula


print("Classic graphs as circulants")
print("----------------------------")
count_both_ways(canonicalize(3, [1]))          # triangle: 3
count_both_ways(canonicalize(4, [1, 2]))       # K_4: 16 = 4^2
count_both_ways(canonicalize(5, [1, 2]))       # K_5: 125 = 5^3
count_both_ways(canonicalize(6, [1, 2, 3]))    # K_6: 1296 = 6^4
count_both_ways(parse_spec("C3(1;d)"))         # Moebius ladder, 81
count_both_ways(parse_spec("C3(2;d)"))         # triangular prism, 75

print()
print("Step sets that look different can give the same graph:")
a = parse_spec("C16(1,2,7)")
b = parse_spec("C16(2,3,5)")
print(f"  {a} -> {tau_oracle(a)}")
print(f"  {b} -> {tau_oracle(b)}")
print("  (isomorphic, though no step-set multiplier maps one to the other)")

print()
print("Canonicalization folds steps mod n:")
spec = canonicalize(16, [5, 7, 14])
print(f"  C16 with raw steps 5,7,14 -> {spec}   (14 = -2 mod 16)")
spec = canonicalize(6, [1, 3])
print(f"  C6 with raw steps 1,3    -> {spec}   (step n/2 marks odd valency)")

print()
print("The Laplacian of C4(1) (the 4-cycle):")
for row in laplacian(canonicalize(4, [1])):
    print("   ", row)

print()
print("Counts grow fast; the closed form keeps up effortlessly:")
for n in (10, 50, 200):
    tau = tau_even(family_spec((1, 2), "even", n))
    print(f"  C_{n}(1,2): {len(str(tau))} digits")
print()
print("tau(C_200(1,2)) =", tau)
