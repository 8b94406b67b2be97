import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from lattice_qre import cli


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class TestEstimate:
    def test_qubitization_table_row(self, capsys):
        code, out, _ = run_cli(
            ["estimate", "--model", "fh", "--method", "qubitization", "--L", "8"],
            capsys)
        assert code == 0
        assert "1.36e+06" in out
        assert " 160" in out

    def test_json_full_precision(self, capsys):
        code, out, _ = run_cli(
            ["estimate", "--model", "fh", "--method", "trotter",
             "--strategy", "catalyzed", "--L", "4", "--format", "json"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        row = payload["rows"][0]
        assert row["L"] == 4
        assert row["qubits"] == 66
        assert isinstance(row["toffoli"], float)

    def test_coupling_override(self, capsys):
        code, out, _ = run_cli(
            ["estimate", "--model", "fh", "--method", "qubitization",
             "--L", "4", "--u", "16", "--format", "json"], capsys)
        assert code == 0
        # doubling u raises lambda from 96 to 128, scaling the query count
        assert json.loads(out)["rows"][0]["toffoli"] > 5e5

    def test_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("model = cuprate\nL = 8\nt_prime = 0.3\n")
        code, out, _ = run_cli(
            ["estimate", "--config", str(path), "--method", "qubitization",
             "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["rows"][0]["model"] == "cuprate"

    def test_config_delta_e_override(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("model = fh\nL = 8\ndelta_E_override = 0.1632\n")
        code, out, _ = run_cli(
            ["estimate", "--config", str(path), "--method", "qubitization",
             "--format", "json"], capsys)
        assert code == 0
        # halving the error target doubles the leading toffoli cost
        assert json.loads(out)["rows"][0]["toffoli"] > 2.4e6

    def test_missing_model_exits_2(self, capsys):
        code, _, err = run_cli(["estimate", "--L", "4"], capsys)
        assert code == 2
        assert "--model" in err

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate", "--model", "bogus", "--L", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("method", ["trotter", "qubitization"])
    @pytest.mark.parametrize("delta_e", ["-1", "0", "nan", "inf"])
    def test_bad_delta_e_exits_2(self, capsys, method, delta_e):
        code, out, err = run_cli(
            ["estimate", "--model", "fh", "--method", method, "--L", "4",
             "--delta-e", delta_e], capsys)
        assert code == 2
        assert out == ""
        assert "delta" in err

    @pytest.mark.parametrize("method,delta_e", [
        ("trotter", "1e9"), ("qubitization", "1e9"), ("trotter", "100")])
    def test_loose_delta_e_exits_2(self, capsys, method, delta_e):
        code, out, err = run_cli(
            ["estimate", "--model", "fh", "--method", method, "--L", "8",
             "--delta-e", delta_e], capsys)
        assert code == 2
        assert out == ""
        assert f"delta_e={float(delta_e):g}" in err
        assert "fewer than one" in err

    @pytest.mark.parametrize("method,flags", [
        ("trotter", ["--t", "1e120"]), ("trotter", ["--u", "1e200"]),
        ("qubitization", ["--u", "1e307"]),
        ("trotter", ["--delta-e", "1e-300"]), ("qubitization", ["--delta-e", "1e-300"]),
        ("trotter", ["--delta-e", "1e-170"])])   # r = 6.4e85, beyond exact float integers
    def test_overflow_exits_2(self, capsys, method, flags):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no RuntimeWarning on the way
            code, out, err = run_cli(
                ["estimate", "--model", "fh", "--method", method, "--L", "8", *flags], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "overflows" in err

    def test_box_edge_warning_on_stderr(self):
        # a fresh interpreter, so the warning takes Python's default route
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-m", "lattice_qre.cli", "estimate", "--model", "fh",
             "--method", "qubitization", "--L", "64"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.startswith("model")
        assert "RuntimeWarning: qubitization error split x=0.9999 sits on the search-box edge" \
            in proc.stderr


class TestSweep:
    def test_range(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--model", "fh", "--method", "qubitization",
             "--L-range", "4:8", "--format", "csv"], capsys)
        assert code == 0
        assert [r["L"] for r in csv_rows(out)] == ["4", "6", "8"]

    def test_comma_list(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--model", "pnictide", "--method", "qubitization",
             "--L-range", "4,8", "--format", "csv"], capsys)
        assert code == 0
        assert [r["L"] for r in csv_rows(out)] == ["4", "8"]

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--model", "fh", "--L-range", "4:8:2:1"], capsys)
        assert code == 2
        assert "error" in err

    def test_empty_range_exits_2(self, capsys):
        code, out, err = run_cli(["sweep", "--model", "fh", "--L-range", "8:4"], capsys)
        assert code == 2
        assert out == ""
        assert "empty L range" in err


class TestAmortizeCatalyst:
    def test_flag_never_increases_cost(self, capsys):
        base_args = ["estimate", "--model", "fh", "--method", "trotter",
                     "--strategy", "catalyzed", "--L", "4", "--format", "json"]
        code, out, _ = run_cli(base_args, capsys)
        assert code == 0
        charged = json.loads(out)["rows"][0]["toffoli"]
        code, out, _ = run_cli(base_args + ["--amortize-catalyst"], capsys)
        assert code == 0
        amortized = json.loads(out)["rows"][0]["toffoli"]
        assert amortized <= charged


class TestReproduce:
    def test_table_one_deviations(self, capsys):
        code, out, err = run_cli(
            ["reproduce", "supp-table-1", "--format", "csv"], capsys)
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 15
        assert all(abs(float(r["rel_dev"])) <= 0.02 for r in rows)
        assert "max relative toffoli deviation" in err

    def test_strategy_filter(self, capsys):
        code, out, _ = run_cli(
            ["reproduce", "supp-table-5", "--strategy", "batched-baseline",
             "--format", "csv"], capsys)
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 8
        assert {r["strategy"] for r in rows} == {"batched-baseline"}

    def test_unknown_table_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reproduce", "supp-table-9"])
        assert exc.value.code == 2


class TestTrotterOnlyFlags:
    @pytest.mark.parametrize("flag", [["--strategy", "baseline"], ["--amortize-catalyst"]])
    @pytest.mark.parametrize("command", [
        ["estimate", "--model", "fh", "--method", "qubitization", "--L", "4"],
        ["sweep", "--model", "fh", "--method", "qubitization", "--L-range", "4:6"],
        ["reproduce", "supp-table-1"],
        ["reproduce", "supp-table-3"],
    ], ids=["estimate", "sweep", "table-1", "table-3"])
    def test_rejected_without_trotter(self, capsys, command, flag):
        code, out, err = run_cli(command + flag, capsys)
        assert code == 2
        assert out == ""
        assert f"{flag[0]} applies only to Trotter" in err


class TestCsvRoundTrip:
    def test_exact(self, capsys):
        # every printed float parses back to the in-process value
        code, out, _ = run_cli(
            ["reproduce", "supp-table-4", "--strategy", "catalyzed",
             "--format", "csv"], capsys)
        assert code == 0
        expected = cli.reproduce_table(4, cli.Strategy.CATALYZED)
        rows = csv_rows(out)
        assert len(rows) == len(expected)
        for printed, row in zip(rows, expected):
            for column in ("W", "x", "y", "z", "tau", "toffoli", "rel_dev"):
                assert float(printed[column]) == getattr(row, column)
            assert int(printed["qubits"]) == row.qubits

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            ["sweep", "--model", "fh", "--method", "qubitization",
             "--L-range", "4:6", "--format", "csv", "--output", str(path)],
            capsys)
        assert code == 0
        assert len(csv_rows(path.read_text())) == 2


class TestVerifyCommand:
    def test_exit_zero_and_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, _, _ = run_cli(["verify", "--output", str(path)], capsys)
        assert code == 0
        report = json.loads(path.read_text())
        assert all(entry["passed"] for entry in report)

    def test_report_times_each_check(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        report = json.loads(out)
        assert len(report) == 9
        assert all(entry["seconds"] >= 0.0 for entry in report)

    def test_cli_import_leaves_the_lab_out(self):
        # the estimators start without the circuit lab, numpy or scipy
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        for module in ("lattice_qre.cli", "lattice_qre"):
            proc = subprocess.run(
                [sys.executable, "-c", f"import sys, {module}; print(sorted(m for m in "
                 "sys.modules if m.startswith(('lattice_qre.circuitlab', 'numpy', 'scipy'))))"],
                env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "[]", module
