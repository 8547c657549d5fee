"""Square-free decompositions tau = c n a^2 and the sequences a(n)."""

import math

import pytest

from circtrees import (DisconnectedGraphError, InternalConsistencyError,
                       MahlerEstimate, SpecError, asymptotic_ratio,
                       canonicalize, cheb_t, cheb_u, decompose,
                       expected_coefficient, sequence_a, square_free_part,
                       tau_even, tau_oracle, thermo_limit)
from circtrees.arithmetic import family_spec

SIEVE_LIMIT = 100_000
MEASURE = MahlerEstimate(2.618033988749895, 0.0, "given", 0.9624236501192069)
IDENTITY_LIMIT = 1_000_000


def spf_sieve(limit):
    """Smallest-prime-factor table: an independent factorization route."""
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for multiple in range(p * p, limit + 1, p):
                if spf[multiple] == multiple:
                    spf[multiple] = p
    return spf


class TestSquareFreePart:
    def test_frozen(self):
        assert square_free_part(1) == 1
        assert square_free_part(8) == 2
        assert square_free_part(12) == 3
        assert square_free_part(2 * 3 * 3 * 7) == 2 * 7

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            square_free_part(0)

    def test_against_sieve_oracle(self):
        spf = spf_sieve(SIEVE_LIMIT)
        for m in range(1, SIEVE_LIMIT + 1):
            q = 1
            x = m
            while x > 1:
                p = spf[x]
                e = 0
                while x % p == 0:
                    x //= p
                    e += 1
                if e % 2:
                    q *= p
            assert square_free_part(m) == q, m

    def test_factor_identity_to_million(self):
        for m in range(1, IDENTITY_LIMIT + 1):
            q = square_free_part(m)
            r = math.isqrt(m // q)
            assert q * r * r == m, m


class TestExpectedCoefficient:
    def test_even_family_table(self):
        # (1,3): two odd steps -> square-free part 2 at even orders
        assert expected_coefficient(canonicalize(8, [1, 3])) == 2
        assert expected_coefficient(canonicalize(9, [1, 3])) == 1
        # (2,3): one odd step -> coefficient 1 at every order
        assert expected_coefficient(canonicalize(8, [2, 3])) == 1
        assert expected_coefficient(canonicalize(9, [2, 3])) == 1
        # (1,3,5): three odd steps -> 3 at even orders
        assert expected_coefficient(canonicalize(12, [1, 3, 5])) == 3

    def test_diagonal_family_table(self):
        # Moebius ladder (one odd step): 3 at odd n, 2 at even n
        assert expected_coefficient(canonicalize(6, [1], diagonal=False)) == 1
        assert expected_coefficient(canonicalize(3, [1], diagonal=True)) == 3
        assert expected_coefficient(canonicalize(4, [1], diagonal=True)) == 2
        # prism (no odd steps), odd n only: 2p + 1 = 1
        assert expected_coefficient(canonicalize(3, [2], diagonal=True)) == 1
        # steps (1,2,3): p = 2 -> 5 at odd n, 1 at even n
        assert expected_coefficient(canonicalize(5, [1, 2, 3],
                                                 diagonal=True)) == 5
        assert expected_coefficient(canonicalize(6, [1, 2, 3],
                                                 diagonal=True)) == 1

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            expected_coefficient(canonicalize(6, [2]))


class TestDecompose:
    def test_frozen_cases(self):
        d = decompose(canonicalize(5, [1, 2]), 125)
        assert (d.coefficient, d.a) == (1, 5)
        d = decompose(canonicalize(6, [1, 3]), 81)  # Moebius n=3
        assert (d.coefficient, d.a, d.n) == (3, 3, 3)
        d = decompose(canonicalize(6, [2, 3]), 75)  # prism n=3
        assert (d.coefficient, d.a) == (1, 5)

    def test_invariant_shape(self):
        d = decompose(canonicalize(12, [1, 3]), tau_oracle(canonicalize(12, [1, 3])))
        assert d.tau == d.coefficient * d.n * d.a ** 2
        assert square_free_part(d.coefficient) == d.coefficient

    def test_rejects_wrong_count(self):
        spec = canonicalize(5, [1, 2])
        with pytest.raises(InternalConsistencyError):
            decompose(spec, 126)
        with pytest.raises(ValueError):
            decompose(spec, 0)

    @pytest.mark.parametrize("steps,diag,max_s", [
        ((1,), False, 1), ((1, 2), False, 2), ((1, 3), False, 3),
        ((2, 3), False, 3), ((1, 2, 3), False, 3), ((1, 4), False, 4),
        ((1,), True, 1), ((2,), True, 2), ((1, 2), True, 2),
        ((1, 2, 3), True, 3), ((3, 4), True, 4),
    ])
    def test_theorem_holds_against_oracle(self, steps, diag, max_s):
        # machine check of the decomposition theorems on oracle counts
        lows = max_s + 1 if diag else 2 * max_s + 1
        cap = 32 if diag else 64
        for n in range(lows, cap + 1, 3):
            g = math.gcd(math.gcd(*steps), n)
            if g != 1:
                continue
            spec = canonicalize(n, list(steps), diagonal=diag)
            if spec.vertex_count > 64:
                break
            tau = tau_oracle(spec)
            d = decompose(spec, tau)
            assert d.coefficient == expected_coefficient(spec)
            assert d.tau == d.coefficient * spec.order * d.a ** 2


class TestSequences:
    def test_fibonacci_family(self):
        fib = [0, 1]
        while len(fib) < 41:
            fib.append(fib[-1] + fib[-2])
        values = sequence_a((1, 2), "even", range(5, 25))
        assert values == fib[5:25]

    def test_order4_recursion_family_2_3(self):
        values = sequence_a((2, 3), "even", range(7, 21))
        by_n = dict(zip(range(7, 21), values))
        for n in range(11, 21):
            assert by_n[n] == by_n[n - 1] + by_n[n - 2] + by_n[n - 3] \
                - by_n[n - 4], n

    def test_moebius_closed_forms(self):
        # a(2m+1) = T_m(2) + U_{m-1}(2), a(2m) = T_m(2)
        values = sequence_a((1,), "diagonal", range(2, 14))
        by_n = dict(zip(range(2, 14), values))
        for m in range(1, 7):
            assert by_n[2 * m] == cheb_t(m)(2)
            if 2 * m + 1 < 14:
                assert by_n[2 * m + 1] == cheb_t(m)(2) + cheb_u(m - 1)(2)

    def test_prism_closed_form(self):
        # a(2m+1) = T_m(2) + 3 U_{m-1}(2); even orders are disconnected
        values = sequence_a((2,), "diagonal", range(3, 14, 2))
        for m, a in zip(range(1, 7), values):
            assert a == cheb_t(m)(2) + 3 * cheb_u(m - 1)(2)

    def test_family_spec_guards(self):
        with pytest.raises(SpecError):
            family_spec((2, 3), "even", 5)  # folds onto a multigraph
        with pytest.raises(SpecError):
            family_spec((2, 3), "even", 6)  # becomes the diagonal family
        with pytest.raises(DisconnectedGraphError):
            family_spec((2, 4), "even", 10)
        with pytest.raises(DisconnectedGraphError):
            sequence_a((2,), "diagonal", [4])

    @pytest.mark.parametrize("call", [
        lambda family: family_spec((1, 2), family, 7),
        lambda family: sequence_a((1, 2), family, [7]),
        lambda family: asymptotic_ratio((1, 2), family, 10, measure=MEASURE),
        lambda family: thermo_limit((1, 2), family, [10], measure=MEASURE),
    ], ids=["family_spec", "sequence_a", "asymptotic_ratio", "thermo_limit"])
    @pytest.mark.parametrize("family", ["diag", "odd"])
    def test_unknown_family_rejected(self, call, family):
        with pytest.raises(ValueError, match=f"unknown family '{family}'"):
            call(family)

    def test_tau_growth_is_fibonacci_squared(self):
        fib = [0, 1]
        while len(fib) < 31:
            fib.append(fib[-1] + fib[-2])
        for n in (7, 12, 19, 30):
            spec = family_spec((1, 2), "even", n)
            assert tau_even(spec) == n * fib[n] ** 2
