"""Canonicalization, Laplacians, and eigenvalue identities."""

import math

import pytest

from circtrees import (CirculantSpec, SpecError, SpecParseError, canonicalize,
                       component_count, eigenvalue, is_connected, laplacian,
                       multiplier_conjugate, parse_spec, tau_oracle)


def edge_set(n_full, steps, diagonal_half=None):
    """Independent adjacency builder straight from the definition."""
    edges = set()
    all_steps = list(steps)
    if diagonal_half is not None:
        all_steps.append(diagonal_half)
    for i in range(n_full):
        for s in all_steps:
            edges.add(frozenset({i, (i + s) % n_full}))
    return edges


def spec_edge_set(spec):
    return edge_set(spec.vertex_count, spec.steps,
                    spec.order if spec.diagonal else None)


class TestCanonicalize:
    def test_already_canonical(self):
        spec = canonicalize(5, [1, 2])
        assert (spec.order, spec.steps, spec.diagonal) == (5, (1, 2), False)

    def test_fold_rule(self):
        # 14 folds to 2 = min(14, 16-14); 5 and 7 stay
        spec = canonicalize(16, [5, 7, 14])
        assert spec.steps == (2, 5, 7)
        assert spec_edge_set(spec) == edge_set(16, [5, 7, 14])

    def test_half_step_becomes_diagonal(self):
        spec = canonicalize(6, [1, 3])
        assert spec.diagonal and spec.order == 3 and spec.steps == (1,)
        assert spec_edge_set(spec) == edge_set(6, [1, 3])

    def test_adjacency_preserved_by_folding(self):
        cases = [(9, [4, 7]), (12, [5, 8, 11]), (10, [3, 9]), (15, [11, 13])]
        for n, raw in cases:
            spec = canonicalize(n, raw)
            assert spec_edge_set(spec) == edge_set(n, raw), (n, raw)

    def test_idempotent(self):
        for n, raw, diag in [(16, [5, 7, 14], False), (6, [1, 3], False),
                             (12, [1, 2], True), (9, [2, 5], False)]:
            spec = canonicalize(n, raw, diag)
            again = canonicalize(spec.order, list(spec.steps), spec.diagonal)
            assert again == spec

    def test_duplicate_steps_rejected(self):
        with pytest.raises(SpecError):
            canonicalize(5, [2, 3])  # 3 folds onto 2 mod 5

    def test_duplicate_diagonal_rejected(self):
        with pytest.raises(SpecError):
            canonicalize(3, [1, 3], diagonal=True)  # 3 is the diagonal of C6

    def test_zero_step_rejected(self):
        with pytest.raises(SpecError):
            canonicalize(6, [6])

    def test_empty_after_folding_rejected(self):
        with pytest.raises(SpecError):
            canonicalize(4, [2])  # lone diagonal step leaves no steps

    def test_spec_is_a_validated_named_tuple(self):
        # a spec unpacks and compares as its fields; every way of making
        # one validates them, _make and _replace included
        spec = CirculantSpec(12, (1, 3))
        order, steps, diagonal = spec
        assert spec == (order, steps, diagonal) == (12, (1, 3), False)
        assert hash(spec) == hash((12, (1, 3), False))
        assert repr(spec) == "CirculantSpec(order=12, steps=(1, 3), " \
                             "diagonal=False)"
        assert str(spec) == "C12(1,3)"
        assert spec._replace(order=13) == CirculantSpec._make((13, (1, 3),
                                                               False))
        for make in (lambda: CirculantSpec(6, (1, 3)),
                     lambda: CirculantSpec._make((6, (1, 3), False)),
                     lambda: spec._replace(order=6),
                     lambda: spec._replace(steps=(3, 1))):
            with pytest.raises(SpecError):
                make()
        with pytest.raises(AttributeError):
            spec.order = 13


class TestParse:
    def test_literal_roundtrip(self):
        for text in ["C5(1,2)", "C12(1,3)", "C12(1,2;d)", "C16(2,5,7)"]:
            spec = parse_spec(text)
            assert spec.literal == text
            assert parse_spec(spec.literal) == spec

    def test_diagonal_literal_is_half_order(self):
        spec = parse_spec("C12(1,2;d)")
        assert spec.vertex_count == 24 and spec.order == 12

    @pytest.mark.parametrize("bad", ["", "C5", "C5()", "K5(1)", "C5(1;x)",
                                     "C5(a)", "C(1)"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(SpecParseError):
            parse_spec(bad)


class TestComponents:
    def test_connected_with_unit_step(self):
        assert component_count(canonicalize(5, [1, 2])) == 1

    def test_c6_2_has_two_components(self):
        assert component_count(canonicalize(6, [2])) == 2

    def test_gcd_rule(self):
        assert component_count(canonicalize(10, [2, 4])) == 2
        assert component_count(canonicalize(9, [3])) == 3
        assert is_connected(canonicalize(9, [2, 4]))

    def test_diagonal_uses_half_order_gcd(self):
        # gcd(2, 3) = 1: prism is connected even though both steps are even
        assert component_count(canonicalize(6, [2, 3])) == 1
        assert component_count(canonicalize(8, [2, 4])) == 2


class TestLaplacian:
    def test_triangle(self):
        assert laplacian(canonicalize(3, [1])) == [
            [2, -1, -1], [-1, 2, -1], [-1, -1, 2]]

    def test_four_cycle_row(self):
        assert laplacian(canonicalize(4, [1]))[0] == [2, -1, 0, -1]

    def test_k4_diagonal_form(self):
        assert laplacian(canonicalize(4, [1, 2]))[0] == [3, -1, -1, -1]

    @pytest.mark.parametrize("literal", ["C7(1,2)", "C12(1,3)", "C5(1,2;d)",
                                         "C16(2,5,7)"])
    def test_structure(self, literal):
        spec = parse_spec(literal)
        lap = laplacian(spec)
        n = spec.vertex_count
        assert len(lap) == n
        for i in range(n):
            assert sum(lap[i]) == 0
            assert lap[i][i] == spec.valency
            for j in range(n):
                assert lap[i][j] == lap[j][i]


class TestEigenvalues:
    def test_four_cycle_extreme(self):
        assert eigenvalue(canonicalize(4, [1]), 2) == pytest.approx(4.0)

    @pytest.mark.parametrize("literal", ["C8(1,3)", "C9(2,4)", "C6(1,2;d)",
                                         "C10(1,2,3)"])
    def test_zero_mode_and_symmetry(self, literal):
        spec = parse_spec(literal)
        n = spec.vertex_count
        assert eigenvalue(spec, 0) == pytest.approx(0.0, abs=1e-12)
        for j in range(1, n):
            assert eigenvalue(spec, j) == pytest.approx(
                eigenvalue(spec, n - j), abs=1e-9)
            if is_connected(spec):
                assert eigenvalue(spec, j) > 1e-9

    @pytest.mark.parametrize("half,steps", [(4, (1, 3)), (5, (1, 2)),
                                            (6, (1, 2, 5)), (7, (2, 3))])
    def test_diagonal_midpoint_eigenvalue(self, half, steps):
        # at j = n the value is 4p (n even) or 4p + 2 (n odd), p = # odd steps
        spec = canonicalize(half, list(steps), diagonal=True)
        p = sum(1 for s in steps if s % 2)
        expected = 4 * p if half % 2 == 0 else 4 * p + 2
        assert eigenvalue(spec, half) == pytest.approx(expected, abs=1e-9)


class TestMultiplierConjugacy:
    @pytest.mark.parametrize("literal", ["C7(1,2)", "C12(1,3)", "C9(1,2,4)",
                                         "C8(1,2;d)"])
    def test_conjugates_count_trees_alike(self, literal):
        spec = parse_spec(literal)
        n = spec.vertex_count
        base = tau_oracle(spec)
        units = [r for r in range(2, n) if math.gcd(r, n) == 1][:4]
        for r in units:
            conj = multiplier_conjugate(spec, r)
            assert conj.family == spec.family
            assert tau_oracle(conj) == base, (literal, r, conj)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            multiplier_conjugate(parse_spec("C12(1,3)"), 4)
