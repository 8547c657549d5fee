"""The circtrees command line: formats, exit codes, schema conformance."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import pytest

from circtrees import CertificationError, parse_spec, tau_closed_form
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
    def test_negative_ceiling_exit_2(self, capsys, monkeypatch, argv):
        code, out, err = run_cli(capsys, *argv, "--oracle-ceiling", "-5")
        assert code == 2 and out == ""
        assert "invalid input: oracle ceiling -5 is negative" in err
        monkeypatch.setenv("CIRC_ORACLE_CEILING", "-5")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "is negative" in err
        monkeypatch.setenv("CIRC_ORACLE_CEILING", "x")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == ("invalid input: CIRC_ORACLE_CEILING='x' is not an "
                       "integer\n")

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
            raise CertificationError("not attempted")

        monkeypatch.setattr("circtrees.chebyshev.tau_even", refuse)
        code, out, _ = run_cli(capsys, "verify", "C9(1,2)")
        assert code == 0 and "PASS  chebyshev skipped (cap); formula=oracle" \
            in out
        monkeypatch.setattr("circtrees.chebyshev.tau_even",
                            lambda spec, n=None: 7)
        code, out, _ = run_cli(capsys, "verify", "C9(1,2)")
        assert code == 1 and "FAIL  exact 10404 != chebyshev 7" in out

    def test_failed_certification_is_not_a_cap_skip(self, capsys):
        # the certified product of C130(1,60) runs and fails to certify far
        # below its cap (the seeds of its degree-59 polynomial are poor):
        # noted as a failure to certify, not as a skip
        code, out, _ = run_cli(capsys, "verify", "C130(1,60)")
        assert code == 0
        assert "PASS  chebyshev failed to certify; formula=oracle" in out
        assert "skipped" not in out

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

    def test_env_ceiling_respected(self):
        proc = subprocess.run(
            [sys.executable, "-m", "circtrees", "tau", "C16(1,2,7)",
             "--method", "oracle"],
            capture_output=True, text=True,
            env={**os.environ, "CIRC_ORACLE_CEILING": "8"})
        assert proc.returncode == 2
        assert proc.stderr.startswith("not attempted: ")
