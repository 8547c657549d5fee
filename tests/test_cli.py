"""The circtrees command line: formats, exit codes, schema conformance."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circtrees import (CertificationError, NotAttemptedError,
                       QuadratureError, RootRefinementError, chebyshev,
                       mahler, parse_spec, tau_closed_form, tau_even)
from circtrees.cli import main

SCHEMA = json.loads(
    resources.files("circtrees.schemas")
    .joinpath("output_record.schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_rows(out):
    rows = [json.loads(line) for line in out.splitlines() if line]
    for row in rows:
        jsonschema.validate(row, SCHEMA)
    return rows


class TestTau:
    def test_both_methods_agree(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "C5(1,2)", "--method", "both")
        rows = json_rows(out)
        assert code == 0
        assert len(rows) == 1 and rows[0]["tau"] == "125"
        assert rows[0]["family"] == "even" and rows[0]["n"] == 5

    def test_moebius_literal(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "C3(1;d)")
        assert code == 0
        assert json_rows(out)[0]["tau"] == "81"

    def test_disconnected_exit_3(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "C6(2)")
        assert code == 3
        row = json_rows(out)[0]
        assert row["tau"] == "0" and row["coefficient"] is None

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "tau", "Q6(2)")
        assert code == 2 and "parse" in err

    def test_invalid_spec_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "tau", "C5(2,3)")  # folds to multigraph
        assert code == 2

    @pytest.mark.parametrize("literal, ceiling", [("C16(1,2,7)", 8),
                                                  ("C12(1,3)", 0)])
    def test_ceiling_exit_2(self, capsys, literal, ceiling):
        # a graph above the oracle's ceiling is refused, not a failed
        # certification
        code, out, err = run_cli(capsys, "tau", literal, "--method",
                                 "oracle", "--oracle-ceiling", str(ceiling))
        assert code == 2 and out == ""
        assert err == (f"not attempted: {literal} has {literal[1:3]} "
                       f"vertices, above the oracle ceiling {ceiling}\n")

    @pytest.mark.parametrize("argv", [
        ["tau", "C12(1,3)", "--method", "oracle"], ["verify", "C12(1,3)"]])
    def test_negative_ceiling_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--oracle-ceiling", "-5")
        assert code == 2 and out == ""
        assert err == "invalid input: oracle ceiling -5 is negative\n"

    @pytest.mark.parametrize("command", ["tau", "decompose", "verify"])
    def test_size_limit_exit_2(self, capsys, command):
        # the exact route refuses a count that may have more bits than its
        # size limit, before any work, as not attempted
        started = time.perf_counter()
        code, out, err = run_cli(capsys, command, "C10000000000(1,2)")
        assert time.perf_counter() - started < 1
        assert code == 2 and out == ""
        assert err == ("not attempted: the count of C10000000000(1,2) may "
                       "have up to 30156249997 bits, above the 4194304-bit "
                       "size limit\n")

    def test_invalid_order_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "asymptote", "1,2", "--n", "1..6")
        assert code == 2 and out == "" and "order 1 too small" in err

    def test_invalid_order_rejected_before_the_measure(self, capsys,
                                                       monkeypatch):
        def refuse(spectrum):
            raise AssertionError("measure computed for a rejected range")
        monkeypatch.setattr("circtrees.mahler.mahler_root_product", refuse)
        code, out, err = run_cli(capsys, "asymptote", "1,40", "--n", "1..3")
        assert code == 2 and out == "" and "order 1 too small" in err

    def test_internal_error_exit_6(self, capsys, monkeypatch):
        # a count that is not c n a^2 breaks a theorem: an internal error,
        # not a verification failure
        monkeypatch.setattr("circtrees.algebra.tau_closed_form",
                            lambda spec, n=None: 7)
        code, _, err = run_cli(capsys, "decompose", "C12(1,3)")
        assert code == 6 and "internal error" in err

    def test_value_error_in_a_computation_exit_6(self, capsys, monkeypatch):
        # only parsing and validation make invalid input (exit 2): a
        # ValueError from inside a computation is an internal error
        def broken(spec):
            raise ValueError("broken")

        monkeypatch.setattr("circtrees.algebra.tau_closed_form", broken)
        for argv in (["tau", "C5(1,2)"], ["verify", "C5(1,2)"],
                     ["asymptote", "1,2", "--n", "5..6"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 6 and out == "", argv
            assert err == "internal error: broken\n"

    def test_negative_oracle_count_exit_6(self, capsys, monkeypatch):
        # the oracle's guard is an internal error, not a traceback
        monkeypatch.setattr("circtrees.exact.bareiss_determinant",
                            lambda matrix: -1)
        code, out, err = run_cli(capsys, "tau", "C12(1,3)", "--method",
                                 "oracle")
        assert code == 6 and out == ""
        assert err == ("internal error: negative tree count -1 for "
                       "C12(1,3)\n")

    def test_count_beyond_the_certification_cap(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "C3000(1,2,3,4,5)")
        assert code == 0
        assert int(json_rows(out)[0]["tau"]).bit_length() == 9122

    def test_count_above_4300_digits(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "C20000(1,2,3,4,5)")
        assert code == 0
        tau = int(json_rows(out)[0]["tau"])
        assert tau.bit_length() == 60779
        assert tau == tau_closed_form(parse_spec("C20000(1,2,3,4,5)"))

    def test_big_count_roundtrips_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "C16(1,2,7)", "--method",
                               "both")
        assert code == 0
        assert int(json_rows(out)[0]["tau"]) == 33525997568


class TestFormats:
    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "tau", "C12(1,3)")
        _, second, _ = run_cli(capsys, "tau", "C12(1,3)")
        assert first == second
        assert "timings" not in first or json_rows(first)[0]["timings"] is None

    def test_timings_flag_attaches_timings(self, capsys):
        _, out, _ = run_cli(capsys, "tau", "C12(1,3)", "--timings")
        assert json_rows(out)[0]["timings"].keys() == {"seconds"}

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "C12(1,3)",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["tau"] == "405600"  # oracle-confirmed: 2 * 12 * 130^2
        assert rows[0]["coefficient"] == "2"
        assert rows[0]["a"] == "130" and rows[0]["mahler"] == ""

    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "C5(1,2)", "--format", "table")
        assert code == 0
        header, row = out.splitlines()[:2]
        assert "tau" in header and "125" in row

    def test_table_timings_cell_is_json(self, capsys):
        # the timings cell reads as in the csv format, not as a Python repr
        code, out, _ = run_cli(capsys, "tau", "C5(1,2)", "--format", "table",
                               "--timings")
        assert code == 0
        header, row = out.splitlines()
        cell = row[header.index("timings"):].strip()
        assert json.loads(cell).keys() == {"seconds"}

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "rows.json"
        code, out, _ = run_cli(capsys, "tau", "C5(1,2)", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["tau"] == "125"

    def test_out_file_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "tau", "C5(1,2)", "--out",
                               str(tmp_path / "missing" / "rows.json"))
        assert code == 5 and "I/O" in err


class TestVerify:
    def test_family_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "C*(1,2)", "--n-max", "14")
        assert code == 0
        assert "0 failures" in out and "PASS" in out

    def test_coefficient_two_at_even_orders(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "C*(1,3)", "--n-max", "16")
        assert code == 0
        even_rows = [line for line in out.splitlines()
                     if line.startswith("n=") and
                     int(line.replace("n=", "").split()[0]) % 2 == 0]
        assert even_rows and all("c=2" in line for line in even_rows)

    def test_diagonal_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "C*(1;d)", "--n-max", "10")
        assert code == 0 and "0 failures" in out

    def test_iso_pair(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "C16-iso-pair")
        assert code == 0 and "PASS" in out

    def test_single_literal(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "C9(2,4)")
        assert code == 0 and "PASS" in out

    def test_certified_product_cross_checks(self, capsys, monkeypatch):
        def refuse(spec, n=None):
            raise NotAttemptedError("not attempted", "cap")

        monkeypatch.setattr("circtrees.chebyshev.tau_even", refuse)
        code, out, _ = run_cli(capsys, "verify", "C9(1,2)")
        assert code == 0 and "PASS  chebyshev skipped (cap); formula=oracle" \
            in out
        monkeypatch.setattr("circtrees.chebyshev.tau_even",
                            lambda spec, n=None: 7)
        code, out, _ = run_cli(capsys, "verify", "C9(1,2)")
        assert code == 1 and "FAIL  exact 10404 != chebyshev 7" in out

    def test_seeding_budget_skip_names_its_limit(self, capsys):
        # a 3,343-bit count, far below the 8192-bit cap, whose degree-1199
        # characteristic polynomial the seeding budget refuses
        code, out, _ = run_cli(capsys, "verify", "C2401(1,1200)")
        assert code == 0
        assert "PASS  chebyshev skipped (seeding budget); oracle skipped " \
            "(ceiling); decomp" in out

    def test_failed_certification_is_not_a_cap_skip(self, capsys,
                                                     monkeypatch):
        # a certified product that ran and failed to certify below its cap
        # is noted as a failure to certify, not as a skip
        def fail(spec):
            raise CertificationError("failed to certify")

        monkeypatch.setattr("circtrees.chebyshev.tau_even", fail)
        code, out, _ = run_cli(capsys, "verify", "C130(1,60)")
        assert code == 0
        assert "PASS  chebyshev failed to certify; formula=oracle" in out
        assert "skipped" not in out

    @pytest.mark.parametrize("literal", ["C130(1,60)", "C441(1,220)"])
    def test_large_step_certifies(self, capsys, literal):
        # the roots of (1, 60) were too poor to certify, and the seeds of
        # (1, 220) overflowed, until both were seeded on the z-image: the
        # cross-check agrees and adds no note
        code, out, _ = run_cli(capsys, "verify", literal)
        assert code == 0
        assert out.startswith(f"n={literal[1:4]:>4}  PASS  formula=oracle; ")
        assert "chebyshev" not in out

    def test_failed_seeding_is_noted_on_each_row(self, capsys, monkeypatch):
        # a seeding failure (the Aberth iteration dividing by zero) is a
        # failure to certify that order, not the end of the sweep
        def fail(poly):
            raise RootRefinementError("Aberth seeding divided by zero")

        chebyshev._root_setup.cache_clear()
        monkeypatch.setattr(chebyshev, "_double_precision_roots", fail)
        try:
            code, out, _ = run_cli(capsys, "verify", "C*(1,2)", "--n-max",
                                   "8")
            rows = out.splitlines()
            assert code == 0 and rows[-1] == "checked 4 orders, 0 failures"
            for row in rows[:-1]:
                assert "PASS  chebyshev failed to certify; formula=oracle" \
                    in row
            with pytest.raises(CertificationError,
                               match="failed to seed its roots") as failed:
                tau_even(parse_spec("C7(1,2)"))
            assert isinstance(failed.value.__cause__, RootRefinementError)
        finally:
            # the failed seeding stays stored; later tests read (1, 2)
            chebyshev._root_setup.cache_clear()

    def test_sweep_skips_disconnected(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "C*(2,3)", "--n-max", "12")
        assert code == 0
        assert "skip" not in out  # gcd(2,3)=1: nothing to skip
        code, out, _ = run_cli(capsys, "verify", "C*(2,4)", "--n-max", "13")
        assert code == 0 and "skip (disconnected)" in out

    def test_disconnected_literal_exit_3(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "C10(2,4)")
        assert code == 3 and "skip (disconnected)" in out

    def test_empty_sweep_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "C*(1,2)", "--n-max", "1")
        assert code == 1 and "nothing to check in range" in out


class TestMahlerCommand:
    def test_single_value(self, capsys):
        code, out, _ = run_cli(capsys, "mahler", "1,2", "--family", "even")
        assert code == 0
        row = json_rows(out)[0]
        assert row["mahler"] == pytest.approx(2.6180339887, abs=1e-9)

    def test_both_methods(self, capsys):
        code, out, err = run_cli(capsys, "mahler", "1,2,3", "--family",
                                 "diagonal", "--method", "both")
        assert code == 0
        rows = json_rows(out)
        assert len(rows) == 2
        assert rows[0]["mahler"] == pytest.approx(rows[1]["mahler"], abs=1e-8)
        assert "root-product" in err and "quadrature" in err

    def test_quadrature_runs_without_the_root_finder(self, capsys,
                                                      monkeypatch):
        def refuse(*args):
            raise AssertionError("roots found for the quadrature")
        monkeypatch.setattr(chebyshev, "find_roots", refuse)
        monkeypatch.setattr(chebyshev, "_refine_roots", refuse)
        monkeypatch.setattr(mahler, "factor_roots", refuse)
        code, out, _ = run_cli(capsys, "mahler", "1,2", "--method",
                               "quadrature")
        assert code == 0
        (row,) = json_rows(out)
        assert row["mahler"] == pytest.approx(2.6180339887, abs=1e-9)

    def test_quadrature_past_its_point_cap_exit_4(self, capsys, monkeypatch):
        # (1, 60) needs 2^16 points; capped at 2^10 the rule cannot settle
        monkeypatch.setattr(mahler, "_MAX_QUADRATURE_POINTS", 1 << 10)
        with pytest.raises(QuadratureError, match="within 1024 points"):
            mahler.mahler_quadrature((1, 60))
        code, out, err = run_cli(capsys, "mahler", "1,60", "--method",
                                 "quadrature")
        assert code == 4 and out == ""
        assert err.startswith("certification failure: ")

    def test_large_step_root_product(self, capsys):
        # the w-basis seeds of (1, 220) overflowed to NaN; on the z-image
        # they do not, and the two methods agree
        code, out, err = run_cli(capsys, "mahler", "1,220", "--method",
                                 "both")
        assert code == 0
        rows = json_rows(out)
        assert rows[0]["mahler"] == pytest.approx(rows[1]["mahler"],
                                                  rel=1e-10)

    def test_above_the_seeding_budget_not_attempted(self, capsys):
        # a degree-1199 characteristic polynomial is refused before any
        # seeding, as a measure not attempted
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "mahler", "1,1200")
        assert time.perf_counter() - started < 5
        assert code == 2 and out == ""
        assert err == ("not attempted: a degree-1199 factor is above the "
                       "512-degree seeding budget\n")


class TestAsymptote:
    def test_ratio_approaches_one(self, capsys):
        code, out, _ = run_cli(capsys, "asymptote", "1,2,3", "--family",
                               "diagonal", "--n", "5..25", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        ratios = [float(r["ratio"]) for r in rows]
        assert abs(ratios[-1] - 1) < 0.01
        assert abs(ratios[-1] - 1) < abs(ratios[0] - 1)
        assert float(rows[0]["mahler"]) == pytest.approx(32.7865, rel=5e-3)

    def test_timings_are_per_row(self, capsys):
        started = time.perf_counter()
        code, out, _ = run_cli(capsys, "asymptote", "1,2", "--n", "5..40",
                               "--timings")
        elapsed = time.perf_counter() - started
        seconds = [row["timings"]["seconds"] for row in json_rows(out)]
        assert code == 0 and len(seconds) == 36
        # per-row readings add up to at most the run time; readings
        # cumulative since the start would add up to about 18 times it
        assert sum(seconds) <= elapsed

    def test_disconnected_orders_marked(self, capsys):
        code, out, _ = run_cli(capsys, "asymptote", "2,4", "--n", "9..12")
        assert code == 0
        rows = json_rows(out)
        by_n = {r["n"]: r for r in rows}
        assert by_n[10]["tau"] == "0" and by_n[10]["ratio"] is None
        assert by_n[11]["ratio"] is not None

    def test_orders_below_the_family_are_null(self, capsys):
        # C3(1,2) and C4(1,2) are multigraphs, not members of the family
        code, out, _ = run_cli(capsys, "asymptote", "1,2", "--n", "3..6")
        assert code == 0
        rows = json_rows(out)
        assert [r["n"] for r in rows] == [3, 4, 5, 6]
        for row in rows[:2]:
            assert (row["tau"], row["ratio"], row["a"]) == (None, None, None)
        assert [r["tau"] for r in rows[2:]] == ["125", "384"]
        assert rows[2]["ratio"] == pytest.approx(1.016327344472919, abs=1e-15)
        assert rows[3]["ratio"] == pytest.approx(0.9937984048453938,
                                                 abs=1e-15)


class TestDecompose:
    def test_json_row(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "C3(1;d)")
        assert code == 0
        row = json_rows(out)[0]
        assert (row["tau"], row["coefficient"], row["a"]) == ("81", 3, "3")

    def test_count_above_4300_digits(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "C20000(1,2,3,4,5)")
        assert code == 0
        row = json_rows(out)[0]
        tau = int(row["tau"])
        assert tau.bit_length() == 60779
        assert row["coefficient"] * row["n"] * int(row["a"]) ** 2 == tau

    def test_disconnected(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "C9(3)")
        assert code == 3


class TestSequence:
    def test_recursion_check_passes(self, capsys):
        code, out, err = run_cli(capsys, "sequence", "2,3", "--n", "4..20",
                                 "--check-recursion", "1,1,1,-1")
        assert code == 0 and "recursion verified" in err
        rows = json_rows(out)
        by_n = {r["n"]: r for r in rows}
        assert by_n[4]["a"] is None            # degenerate orders are null
        assert by_n[7]["a"] == "13"
        assert by_n[20]["a"] == "14592"

    def test_recursion_check_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "sequence", "1,2", "--n", "5..15",
                               "--check-recursion", "2,1")
        assert code == 1 and "recursion fails" in err

    def test_fibonacci_recursion(self, capsys):
        code, _, err = run_cli(capsys, "sequence", "1,2", "--n", "5..15",
                               "--check-recursion", "1,1")
        assert code == 0 and "recursion verified" in err

    def test_disconnected_order_has_tau_zero(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "2,4", "--n", "9..11")
        assert code == 0
        by_n = {r["n"]: r for r in json_rows(out)}
        assert by_n[10]["tau"] == "0"
        assert by_n[10]["coefficient"] is None and by_n[10]["a"] is None
        assert (by_n[9]["a"], by_n[11]["a"]) == ("34", "89")

    def test_invalid_order_exit_2_without_rows(self, capsys):
        code, out, err = run_cli(capsys, "sequence", "1,2", "--n", "1..4")
        assert code == 2 and out == "" and "order 1 too small" in err

    def test_bad_recursion_rejected_before_any_row(self, capsys):
        code, out, err = run_cli(capsys, "sequence", "1,2", "--n", "5..9",
                                 "--check-recursion", "1,,2")
        assert code == 2 and out == ""
        assert "cannot parse recursion coefficients" in err


NO_NUMPY_SCRIPT = """
import json, sys
import circtrees
from circtrees.cli import main
codes = [main(argv) for argv in (
    ["tau", "C5(1,2)"], ["verify", "C*(1,2)", "--n-max", "8"],
    ["mahler", "1,2", "--method", "both"], ["asymptote", "1,2", "--n", "5..7"],
    ["decompose", "C12(1,3)"], ["sequence", "2,3", "--n", "7..9"])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}),
      file=sys.stderr)
"""


class TestEntryPoint:
    def test_runs_without_numpy(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.pathsep.join(filter(None, [os.path.join(root, "src"),
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", NO_NUMPY_SCRIPT],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stderr.splitlines()[-1])
        assert result == {"codes": [0] * 6, "numpy": False}

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "circtrees", "tau", "C5(1,2)"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["tau"] == "125"

    def test_refusals_exit_2_in_a_fresh_process(self):
        for argv in (["C16(1,2,7)", "--method", "oracle",
                      "--oracle-ceiling", "8"], ["C10000000000(1,2)"]):
            proc = subprocess.run(
                [sys.executable, "-m", "circtrees", "tau", *argv],
                capture_output=True, text=True)
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr.startswith("not attempted: ")


# the command-line contract over generated argv: spec literals at orders
# 0..3, small and huge orders, steps up to 60 and ';d'; ranges from order
# 0; oracle ceilings from -1 to 600; every --format
SMALL_ORDERS = st.one_of(st.integers(0, 3), st.integers(4, 40),
                         st.sampled_from([10 ** 10, 3 * 10 ** 9 + 1,
                                          10 ** 30]))
STEP_SETS = st.one_of(st.sets(st.integers(1, 6), min_size=1, max_size=4),
                      st.sets(st.integers(1, 60), min_size=1, max_size=2))
EXIT_2_LINES = ("parse error", "invalid ", "not attempted")
EXIT_1_LINES = ("FAIL", "MISMATCH", "recursion fails", "nothing to check")


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(
        ("tau", "decompose", "verify", "sequence", "asymptote")))
    body = ",".join(map(str, sorted(draw(STEP_SETS))))
    diagonal = draw(st.booleans())
    if command == "verify":
        order = draw(SMALL_ORDERS)
    elif command in ("tau", "decompose"):
        order = draw(st.one_of(SMALL_ORDERS, st.integers(41, 130)))
    else:
        low = draw(st.integers(0, 40))
        argv = [command, body, "--family", "diagonal" if diagonal else "even",
                "--n", f"{low}..{low + draw(st.integers(0, 6))}"]
    if command in ("tau", "decompose", "verify"):
        argv = [command, f"C{order}({body}{';d' if diagonal else ''})"]
    if command == "tau":
        argv += ["--method", draw(st.sampled_from(("formula", "oracle",
                                                   "both")))]
    if command in ("tau", "verify") and draw(st.booleans()):
        argv += ["--oracle-ceiling", str(draw(st.integers(-1, 600)))]
    if command != "verify":
        argv += ["--format", draw(st.sampled_from(("json", "csv", "table")))]
    return argv


@settings(derandomize=True, deadline=None, database=None, max_examples=57)
@given(cli_argv())
@example(["tau", "C10000000000(1,2)", "--method", "both", "--format", "csv"])
@example(["verify", "C12(1,3;d)", "--oracle-ceiling", "-1"])
@example(["tau", "C250(1,2;d)", "--method", "oracle", "--oracle-ceiling",
          "600", "--format", "json"])
def test_cli_contract(argv):
    # every run exits with a documented code and no traceback; exit 2 and
    # exit 1 name their cause, and every JSON row validates
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith(EXIT_2_LINES), (argv, err)
    if code == 1:
        assert any(word in out + err for word in EXIT_1_LINES), argv
    if "json" in argv:
        json_rows(out)
