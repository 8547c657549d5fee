"""The determinant oracle against first-principles computations."""

import math
import random

import pytest

from circtrees import (NotAttemptedError, bareiss_determinant, canonicalize,
                       eigenvalue, laplacian, parse_spec, tau_closed_form,
                       tau_odd, tau_oracle)
from circtrees.exact import _band_order


def cofactor_det(m):
    """Textbook expansion along the first row; independent of Bareiss."""
    size = len(m)
    if size == 1:
        return m[0][0]
    total = 0
    for j in range(size):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


class TestBareiss:
    def test_empty_and_single(self):
        assert bareiss_determinant([]) == 1
        assert bareiss_determinant([[7]]) == 7

    def test_against_cofactor_expansion(self):
        # random diagonally-dominant symmetric matrices: the oracle's domain
        # (reduced Laplacians), where sequential pivots never vanish
        rng = random.Random(20240817)
        for size in (2, 3, 4, 5, 6):
            for _ in range(8):
                m = [[0] * size for _ in range(size)]
                for i in range(size):
                    for j in range(i + 1, size):
                        m[i][j] = m[j][i] = -rng.randint(0, 3)
                for i in range(size):
                    m[i][i] = -sum(m[i]) + rng.randint(1, 4)
                assert bareiss_determinant(m) == cofactor_det(m), m

    def test_zero_pivot_reports_singular(self):
        # a zero pivot of a nonsingular matrix swaps rows; only a zero
        # column below the pivot means singular
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1
        m = [[0, 2, 1], [1, 0, 0], [0, 1, 3]]
        assert bareiss_determinant(m) == cofactor_det(m) == -5
        assert bareiss_determinant([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0

    def test_sparse_rows_against_cofactor_expansion(self):
        # mostly-zero matrices, not symmetric: rows skip steps before they
        # are used, zero pivots swap rows that stand at different steps,
        # and some matrices are singular
        rng = random.Random(20261018)
        for size in (2, 3, 4, 5, 6, 7):
            for _ in range(40):
                m = [[rng.choice((0, 0, 0, 0, 1, -1, 2, -3, 7))
                      for _ in range(size)] for _ in range(size)]
                assert bareiss_determinant(m) == cofactor_det(m), m

    def test_big_integer_growth_is_exact(self):
        # Vandermonde determinant has a closed form
        xs = [3, 5, 11, 17, 23, 31]
        m = [[x ** j for j in range(len(xs))] for x in xs]
        expected = 1
        for i in range(len(xs)):
            for j in range(i):
                expected *= xs[i] - xs[j]
        assert bareiss_determinant(m) == expected


class TestTauOracle:
    def test_triangle(self):
        assert tau_oracle(canonicalize(3, [1])) == 3

    def test_complete_graphs(self):
        # K_m has m^(m-2) spanning trees
        assert tau_oracle(canonicalize(4, [1, 2])) == 16
        assert tau_oracle(canonicalize(5, [1, 2])) == 125
        assert tau_oracle(canonicalize(7, [1, 2, 3])) == 7 ** 5

    def test_disconnected_counts_zero(self):
        assert tau_oracle(canonicalize(6, [2])) == 0
        assert tau_oracle(canonicalize(10, [2, 4])) == 0

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycles(self, n):
        assert tau_oracle(canonicalize(n, [1])) == n

    def test_isomorphic_non_conjugate_pair(self):
        a = tau_oracle(parse_spec("C16(1,2,7)"))
        b = tau_oracle(parse_spec("C16(2,3,5)"))
        assert a == b == 33525997568

    @pytest.mark.parametrize("literal", ["C8(1,3)", "C9(1,2)", "C10(1,4)",
                                         "C6(1,2;d)", "C7(2,3;d)"])
    def test_eigenvalue_product_matches(self, literal):
        # product of the nonzero float eigenvalues approximates N * tau
        spec = parse_spec(literal)
        n = spec.vertex_count
        product = 1.0
        for j in range(1, n):
            product *= eigenvalue(spec, j)
        assert product == pytest.approx(n * tau_oracle(spec), rel=1e-8)

    @pytest.mark.parametrize("literal", ["C9(1,2)", "C12(1,3)", "C15(2,3)",
                                         "C8(1,2;d)", "C9(1,4;d)"])
    def test_count_is_multiple_of_order(self, literal):
        # even family: divisible by the vertex count; diagonal: by the
        # half-order (the full 2n need not divide)
        spec = parse_spec(literal)
        assert tau_oracle(spec) % spec.order == 0
        if not spec.diagonal:
            assert tau_oracle(spec) % spec.vertex_count == 0

    @pytest.mark.parametrize("literal", ["C31(2,5)", "C40(1,2,4,5)",
                                         "C20(1,3;d)", "C25(1,2,4;d)"])
    def test_band_order_keeps_the_count(self, literal):
        # the oracle's order, taken here from the dense reduced Laplacian,
        # is a permutation, and permuting rows and columns alike keeps the
        # determinant
        spec = parse_spec(literal)
        reduced = [row[1:] for row in laplacian(spec)[1:]]
        neighbours = [[j for j, x in enumerate(row) if x and j != i]
                      for i, row in enumerate(reduced)]
        order = _band_order(neighbours)
        assert sorted(order) == list(range(len(reduced)))
        permuted = [[reduced[i][j] for j in order] for i in order]
        assert tau_oracle(spec) == bareiss_determinant(permuted) \
            == bareiss_determinant(reduced)

    @pytest.mark.parametrize("literal", ["C305(1,3,4)", "C250(2,3;d)"])
    def test_closed_form_at_a_few_hundred_vertices(self, literal):
        # the sizes of the CLI's slowest commands, whose band orders have
        # bandwidth 11 and 15
        spec = parse_spec(literal)
        assert tau_oracle(spec) == tau_closed_form(spec)

    def test_diagonal_family_at_size(self):
        # the antipodal step spreads the unordered Laplacian over the whole
        # matrix; 190 vertices against the certified closed form
        spec = parse_spec("C95(1,3;d)")
        assert tau_oracle(spec) == tau_odd(spec)

    def test_ceiling_refusal(self):
        spec = canonicalize(40, [1, 2])
        with pytest.raises(NotAttemptedError) as refused:
            tau_oracle(spec, ceiling=39)
        assert refused.value.limit == "ceiling"
        assert tau_oracle(spec, ceiling=40) > 0
        # the default ceiling is 512 vertices
        with pytest.raises(NotAttemptedError,
                           match="513 vertices, above the oracle ceiling 512"):
            tau_oracle(canonicalize(513, [1]))

    def test_negative_ceiling_is_invalid_input(self):
        spec = canonicalize(12, [1, 3])
        with pytest.raises(ValueError, match="oracle ceiling -5 is negative"):
            tau_oracle(spec, ceiling=-5)
        with pytest.raises(NotAttemptedError):
            tau_oracle(spec, ceiling=0)

    def test_multiplier_invariance_across_units(self):
        spec = canonicalize(16, [1, 2, 7])
        base = tau_oracle(spec)
        for r in range(3, 16, 2):
            if math.gcd(r, 16) != 1:
                continue
            folded = canonicalize(16, [r * s for s in spec.steps])
            assert tau_oracle(folded) == base
