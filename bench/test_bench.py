"""Tests of the benchmark's own output checks, tracer and input generation.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

import math
import os
import random
import re
from itertools import combinations
from pathlib import Path

import pytest

import checks
import tracer
import workloads
import circtrees
from circtrees import (associated_laurent, canonicalize, expected_coefficient,
                       mahler_root_product, tau_even, tau_oracle)


def small_specs():
    for r in (1, 2, 3):
        for steps in combinations((1, 2, 3, 4), r):
            for n in range(2 * steps[-1] + 1, 19):
                yield steps, n, False
            for n in range(steps[-1] + 1, 10):
                yield steps, n, True


@pytest.fixture(scope="module")
def residue():
    return checks.ResidueCheck()


def test_residue_matches_oracle_on_both_families(residue):
    seen = {False: 0, True: 0}
    for steps, n, diagonal in small_specs():
        spec = canonicalize(n, list(steps), diagonal=diagonal)
        if spec.steps != steps or spec.diagonal != diagonal:
            continue  # steps fold away at this order
        tau = tau_oracle(spec)
        assert residue.matches(tau, steps, n, diagonal), spec
        seen[diagonal] += 1
    assert seen[False] > 100 and seen[True] > 50


def test_residue_rejects_wrong_counts(residue):
    for steps, n, diagonal in [((1, 2), 11, False), ((1, 3), 16, False),
                               ((1, 2), 7, True), ((2, 3), 8, True)]:
        tau = tau_oracle(canonicalize(n, list(steps), diagonal=diagonal))
        assert residue.matches(tau, steps, n, diagonal)
        assert not residue.matches(tau + 1, steps, n, diagonal)
        assert not residue.matches(tau - 1, steps, n, diagonal)


def test_residue_is_zero_for_disconnected_graphs(residue):
    assert tau_oracle(canonicalize(12, [2, 4])) == 0
    assert residue.matches(0, (2, 4), 12, False)
    assert not residue.matches(1, (2, 4), 12, False)


def test_residue_at_a_large_order(residue):
    tau = tau_even(canonicalize(500, [1, 2, 3]))
    assert residue.matches(tau, (1, 2, 3), 500, False)
    assert not residue.matches(tau + 2 ** 40, (1, 2, 3), 500, False)


def test_fields_hold_primitive_roots_of_unity(residue):
    for N in (7, 24, 360):
        for p, w in residue.fields(N):
            assert checks.is_prime(p) and p % N == 1
            assert pow(w, N, p) == 1
            assert all(pow(w, N // r, p) != 1 for r in checks.prime_factors(N))


def test_coefficient_and_measure_agree_with_the_package():
    for steps, n, diagonal in small_specs():
        spec = canonicalize(n, list(steps), diagonal=diagonal)
        if spec.steps != steps or spec.diagonal != diagonal \
                or not checks.is_connected(steps, n):
            continue
        assert checks.expected_coefficient(steps, n, diagonal) \
            == expected_coefficient(spec)
    for steps in [(1, 2), (2, 3), (1, 2, 4), (2, 4, 6)]:
        for family in ("even", "diagonal"):
            ours = checks.mahler_measure(steps, family == "diagonal")
            theirs = mahler_root_product(associated_laurent(steps, family))
            assert math.isclose(ours, theirs.value, rel_tol=1e-12)


def test_self_time_subtracts_direct_children():
    spans = [("a", 0.0, 10.0, -1, 0, None),
             ("b", 1.0, 4.0, 0, 0, None),
             ("c", 2.0, 3.0, 1, 0, None),
             ("b", 5.0, 7.0, 0, 0, None)]
    assert tracer.self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_tracer_sees_calls_between_modules():
    import circtrees.chebyshev
    original = circtrees.chebyshev.find_roots
    tr = tracer.Tracer()
    tr.install()
    try:
        circtrees.chebyshev.tau_even(canonicalize(9, [1, 2]))
    finally:
        tr.uninstall()
    assert circtrees.chebyshev.find_roots is original
    names = [s[0] for s in tr.spans]
    assert names[0] == "chebyshev.tau_even"
    roots = [s for s in tr.spans if s[0] == "chebyshev.find_roots"]
    assert roots and all(tr.spans[s[3]][0] == "chebyshev.tau_even"
                         for s in roots)
    metrics = tracer.layer_metrics(tr.spans, 1)
    assert metrics["chebyshev.tau.calls"][0] == 1
    assert metrics["chebyshev.find_roots.per_tau"][0] == len(roots)


@pytest.mark.parametrize("workload", [workloads.Sweep, workloads.LargeOrder,
                                      workloads.Cli])
def test_passes_depend_only_on_the_seed(workload):
    w = workload()
    first = w.make_pass(random.Random(5))
    assert first == w.make_pass(random.Random(5))
    assert first != w.make_pass(random.Random(6))


def test_cli_checks_accept_real_output_and_reject_changed_counts(residue):
    env = dict(os.environ,
               PYTHONPATH=str(Path(circtrees.__file__).resolve().parents[1]))
    cli = workloads.Cli(env=env)
    ops = [workloads.Op("verify", (1, 2), True, (3, 4, 5, 6),
                        ("verify", "C*(1,2;d)", "--n-max", "6")),
           cli._ranged("asymptote", (1, 3), False, 7, 9),
           cli._ranged("sequence", (2, 3), True, 4, 6),
           workloads.Op("mahler", (2, 4), False, (),
                        ("mahler", "2,4", "--method", "both"))]
    count = re.compile(r'(?<=a=)\d+|(?<="tau": ")\d+|(?<="mahler": )[\d.]+')
    for op in ops:
        code, stdout = cli.run(op)
        assert cli.check(residue, op, (code, stdout)), op
        changed = count.sub(lambda m: str(float(m.group()) + 1)
                            if "." in m.group() else str(int(m.group()) + 1),
                            stdout, count=1)
        assert changed != stdout
        assert not cli.check(residue, op, (code, changed)), op


def test_tail_latency_has_ten_slower_operations():
    import run
    metrics = run.latency_metrics([float(i) for i in range(100, 0, -1)])
    assert metrics["op_tail_ms"] == 90_000.0
    assert metrics["op_p50_ms"] == 50_500.0
    assert metrics["ops_per_s"] == 100 / 5050
