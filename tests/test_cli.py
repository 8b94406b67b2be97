import csv
import io
import json
import os
import re
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

    @pytest.mark.parametrize("model,flag,r,toffoli", [
        ("cuprate", "--u", 12_020_572, 1.5634524545129034e+24),
        ("pnictide", "--v", 18_699_484, 1.0152632837192645e+25)])
    def test_coupling_whose_cube_overflows(self, capsys, model, flag, r, toffoli):
        # W takes u and v at most squared: 1e110 gives a finite bound and an
        # estimate, although (1e110)**3 would overflow
        code, out, _ = run_cli(
            ["estimate", "--model", model, "--method", "trotter", "--L", "4",
             flag, "1e110", "--delta-e", "1e60", "--format", "json"], capsys)
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert (row["r"], row["toffoli"]) == (r, toffoli)

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

    @pytest.mark.parametrize("command", [["estimate", "--L", "4"], ["sweep", "--L-range", "4:6"]])
    def test_foreign_coupling_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "run.cfg"
        path.write_text("model = fh\nt1 = 5\n")
        for route in (["--model", "fh", "--t-prime", "0.3"], ["--config", str(path)]):
            code, out, err = run_cli(command + route, capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error: the fh model has no coupling t")

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

    @pytest.mark.parametrize("method", ["trotter", "qubitization"])
    @pytest.mark.parametrize("delta_e", ["1e18", "1e32", "1e156", "1e300"])
    def test_very_loose_delta_e_exits_2(self, capsys, method, delta_e):
        # far past one query the rotations' synthesis T count turns negative
        # and dE**2 overflows; the target is still reported as too loose
        code, out, err = run_cli(
            ["estimate", "--model", "fh", "--method", method, "--L", "4",
             "--delta-e", delta_e], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: error target delta_e={float(delta_e):g} is too loose")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("method,flags", [
        ("trotter", ["--t", "1e120"]), ("trotter", ["--u", "1e200"]),
        ("qubitization", ["--u", "1e307"]),
        ("trotter", ["--delta-e", "1e-300"]), ("qubitization", ["--delta-e", "1e-302"]),
        ("trotter", ["--delta-e", "1e-170"]),   # r = 6.4e85, beyond exact float integers
        ("trotter", ["--delta-e", "1e-27"]),    # r = 2e14 and 2e15: above 1e13 steps,
        ("trotter", ["--delta-e", "1e-29"])])   # a pinned tau no longer gives back r
    def test_overflow_exits_2(self, capsys, method, flags):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no RuntimeWarning on the way
            code, out, err = run_cli(
                ["estimate", "--model", "fh", "--method", method, "--L", "8", *flags], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "overflows" in err

    @pytest.mark.parametrize("model,L,flag", [("fh", "8", "--u"), ("pnictide", "4", "--v")])
    def test_overflowing_lambda_exits_2(self, capsys, model, L, flag):
        code, out, err = run_cli(["estimate", "--model", model, "--method", "qubitization",
                                  "--L", L, flag, "1e308"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: the LCU 1-norm lambda overflows at L={L} for the couplings ")
        assert f"{flag[2:]}=1e+308" in err
        assert err.count("\n") == 1

    def test_phase_register_past_the_float_range(self, capsys):
        # pi lam L^6 / (2 sqrt(x) dE) overflows a float here while its log2,
        # the phase-register size, does not: this used to exit 2
        code, out, err = run_cli(["estimate", "--model", "fh", "--method", "qubitization",
                                  "--L", "8", "--u", "1e303", "--delta-e", "1e299",
                                  "--format", "json"], capsys)
        assert (code, err) == (0, "")
        row, = json.loads(out)["rows"]
        assert row["qubits"] == 167
        assert row["toffoli"] == pytest.approx(1.887e8, rel=1e-3)

    def test_zero_trotter_bound_exits_2(self, capsys):
        args = ["estimate", "--model", "fh", "--L", "4", "--u", "0", "--method"]
        code, out, err = run_cli(args + ["trotter"], capsys)
        assert code == 2
        assert out == ""
        assert "W is 0" in err
        assert run_cli(args + ["qubitization"], capsys)[0] == 0

    def test_subnormal_trotter_bound_exits_2(self, capsys):
        # W = 2.7e-319 leaves no finite time step: refused for W, not as an
        # infinite step count
        code, out, err = run_cli(["estimate", "--model", "fh", "--L", "4", "--u", "1e-320",
                                  "--method", "trotter"], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "W=2.7" in err
        assert "r=inf" not in err

    def test_untabulated_fh_norms_exit_2(self, capsys):
        code, out, err = run_cli(
            ["estimate", "--model", "fh", "--method", "trotter", "--L", "34"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: no tabulated norms for L=34")

    def test_x_past_the_old_box_edge_leaves_stderr_empty(self):
        # FH L = 64 used to warn that x sat on the search-box edge 0.9999; a
        # fresh interpreter, so any warning would take Python's default route
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-m", "lattice_qre.cli", "estimate", "--model", "fh",
             "--method", "qubitization", "--L", "64", "--format", "json"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert 0.9999 < json.loads(proc.stdout)["rows"][0]["x"] < 1.0

    def test_x_within_float_resolution_of_one_exits_2(self, capsys):
        code, out, err = run_cli(
            ["estimate", "--model", "fh", "--method", "qubitization", "--L", "100000000"],
            capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: the qubitization error split overflows")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("model,method", [
        ("fh", "qubitization"), ("cuprate", "qubitization"), ("cuprate", "trotter"),
        ("pnictide", "trotter")])
    @pytest.mark.parametrize("L", [10**160, 2 * 10**200])
    @pytest.mark.parametrize("flags", [[], ["--delta-e", "1"]])
    def test_l_whose_square_overflows_exits_2(self, capsys, model, method, L, flags):
        # L^2 does not fit in a float: refused for L, not as an OverflowError
        # of the error target or of lambda, nor blamed on the couplings' W
        code, out, err = run_cli(["estimate", "--model", model, "--method", method,
                                  "--L", str(L), *flags], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: L={L} is too large: L^2 overflows a float\n"
        assert "Traceback" not in err

    def test_uncertified_rotation_share_exits_2(self, capsys):
        # at r = 1 the per-query cost has fallen to the synthesis T count's
        # slope, so no Newton root certifies a rotation share
        code, out, err = run_cli(
            ["estimate", "--model", "fh", "--L", "4", "--method", "trotter",
             "--strategy", "batched-catalyzed", "--delta-e", "8.16e16"], capsys)
        assert code == 2
        assert out == ""
        assert err == ("error: error target delta_e=8.16e+16 is too loose: no Newton root "
                       "certifies a rotation share at r=1 (it needs a per-query cost above "
                       "7.26)\n")

    @pytest.mark.parametrize("model", ["fh", "cuprate", "pnictide"])
    @pytest.mark.parametrize("L", ["4", "8"])
    @pytest.mark.parametrize("strategy", ["catalyzed", "batched-catalyzed"])
    @pytest.mark.parametrize("delta_e", ["1e18", "1e100", "1e300", "1.7e308"])
    def test_very_loose_amortized_delta_e_exits_2(self, capsys, model, L, strategy, delta_e):
        # catalysts charged once: phase estimation's share p can be subnormal,
        # and at the top of the float range p * tau * dE underflowed to 0
        code, out, err = run_cli(
            ["estimate", "--model", model, "--method", "trotter", "--L", L,
             "--strategy", strategy, "--delta-e", delta_e, "--amortize-catalyst"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: error target delta_e={float(delta_e):g} is too loose")
        assert err.count("\n") == 1


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

    def test_descending_range_keeps_stop(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--model", "fh", "--method", "qubitization",
             "--L-range", "8:4:-2", "--format", "csv"], capsys)
        assert code == 0
        assert [r["L"] for r in csv_rows(out)] == ["8", "6", "4"]

    def test_zero_step_exits_2(self, capsys):
        code, out, err = run_cli(["sweep", "--model", "fh", "--L-range", "4:8:0"], capsys)
        assert code == 2
        assert out == ""
        assert "L range step must not be zero" in err

    def test_empty_range_exits_2(self, capsys):
        code, out, err = run_cli(["sweep", "--model", "fh", "--L-range", "8:4"], capsys)
        assert code == 2
        assert out == ""
        assert "empty L range" in err


class TestAbbreviations:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--model", "fh", "--L-range", "4:8", "--L", "6"],
        ["estimate", "--model", "fh", "--L", "4", "--delta", "1e-2"],
        ["estimate", "--model", "fh", "--L", "4", "--form", "csv"],
        ["estimate", "--model", "cuprate", "--L", "4", "--t-p", "0.3"],
    ], ids=["L", "delta", "form", "t-p"])
    def test_prefix_of_a_flag_exits_2(self, capsys, argv):
        # a prefix is not taken for the flag it begins: --L is not --L-range
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {argv[-2]} {argv[-1]}" in err

    def test_full_names_still_work(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--model", "cuprate", "--L-range", "4:8", "--delta-e", "1e-2",
             "--t-prime", "0.3", "--format", "csv"], capsys)
        assert code == 0
        assert [r["L"] for r in csv_rows(out)] == ["4", "6", "8"]


def printed_rows(out: str, fmt: str) -> tuple[list[str], list[dict]]:
    """The column names and the rows of printed output, each row keyed by
    column; a table cell is read from under its column's header."""
    if fmt == "json":
        rows = json.loads(out)["rows"]
        assert all(list(row) == list(rows[0]) for row in rows)
        return list(rows[0]), rows
    if fmt == "csv":
        columns, *lines = csv.reader(io.StringIO(out))
    else:
        header, *body = out.splitlines()
        columns = header.split()
        starts = [m.start() for m in re.finditer(r"\S+", header)]
        lines = [[line[a:b].strip() for a, b in zip(starts, starts[1:] + [None])]
                 for line in body]
    return columns, [dict(zip(columns, line)) for line in lines]


class TestOutputLayout:
    COLUMNS = ["model", "method", "strategy", "L", "W", "r", "x", "y", "z", "tau",
               "toffoli", "qubits", "ref_toffoli", "ref_qubits", "rel_dev"]
    REFERENCE = COLUMNS[-3:]

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("command,empty", [
        (["estimate", "--model", "fh", "--method", "qubitization", "--L", "4"],
         ["strategy", "W", "r", "y", "z", "tau", *REFERENCE]),
        (["estimate", "--model", "fh", "--method", "trotter", "--L", "4"], REFERENCE),
        (["reproduce", "supp-table-1"], ["strategy", "W", "r", "y", "z", "tau"]),
        (["reproduce", "supp-table-4", "--strategy", "baseline"], []),
    ], ids=["qubitization", "trotter", "reproduce-1", "reproduce-4"])
    def test_columns_in_order_and_empty_cells(self, capsys, fmt, command, empty):
        code, out, _ = run_cli(command + ["--format", fmt], capsys)
        assert code == 0
        columns, rows = printed_rows(out, fmt)
        assert columns == list(cli.CSV_COLUMNS) == self.COLUMNS
        for row in rows:
            assert [c for c in columns if row[c] in ("", None)] == empty
            if fmt == "json":   # an empty column is null, but a blank strategy is ""
                assert [c for c in columns if row[c] is None] == [
                    c for c in empty if c != "strategy"]


class TestBadPaths:
    @pytest.mark.parametrize("command", [
        ["estimate", "--model", "fh", "--L", "4"],
        ["sweep", "--model", "fh", "--L-range", "4:6"],
        ["reproduce", "supp-table-1"],
        ["verify"],
    ], ids=["estimate", "sweep", "reproduce", "verify"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # the path is refused before any check or estimate runs
        def no_work(*args, **kwargs):
            raise AssertionError("ran work for an unwritable --output")
        from lattice_qre.circuitlab import verify
        monkeypatch.setattr(verify, "run_all", no_work)
        monkeypatch.setattr(cli, "estimate_row", no_work)
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(command + ["--output", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].startswith("error: ")
        assert str(path) in err
        assert not path.parent.exists()

    def test_output_directory_exits_2(self, tmp_path, capsys):
        code, out, err = run_cli(["estimate", "--model", "fh", "--L", "4",
                                  "--output", str(tmp_path)], capsys)
        assert code == 2
        assert out == "" and str(tmp_path) in err

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing.cfg"
        code, out, err = run_cli(["estimate", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert str(path) in err

    @pytest.mark.parametrize("line", ["L = 4.0", "u = eight", "model = foo"])
    def test_bad_config_value_names_its_line(self, tmp_path, capsys, line):
        path = tmp_path / "run.cfg"
        path.write_text(f"# a comment\n\n{line}\n")
        code, out, err = run_cli(["estimate", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        key = line.split(" = ")[0]
        assert err.startswith(f"error: config line 3: {key}: ")

    @pytest.mark.parametrize("text", ["4,,6", "4:", "x", "4.0,6", ""])
    def test_malformed_l_range_item_names_the_range(self, capsys, text):
        code, out, err = run_cli(["sweep", "--model", "fh", "--L-range", text], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == f"error: bad L range {text!r}"

    def test_repeated_config_key_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("model = fh\nL = 4\n# a comment\nL = 8\n")
        code, out, err = run_cli(["estimate", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: config line 4: L: repeated")


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

    @pytest.mark.parametrize("strategy", ["baseline", "batched-baseline"])
    @pytest.mark.parametrize("command", [
        ["estimate", "--model", "fh", "--method", "trotter", "--L", "4"],
        ["sweep", "--model", "fh", "--method", "trotter", "--L-range", "4:6"],
        ["reproduce", "supp-table-4"],
    ], ids=["estimate", "sweep", "table-4"])
    def test_amortize_rejected_without_catalyst(self, capsys, command, strategy):
        code, out, err = run_cli(
            command + ["--strategy", strategy, "--amortize-catalyst"], capsys)
        assert code == 2
        assert out == ""
        assert "--amortize-catalyst applies only to catalyzed strategies" in err

    @pytest.mark.parametrize("table,strategy,amortize", [
        (1, cli.Strategy.BASELINE, False), (3, None, True), (5, cli.Strategy.BASELINE, True)])
    def test_reproduce_table_refuses_what_its_method_cannot_take(self, table, strategy, amortize):
        # the function the command calls checks its own flags; a qubitization
        # table used to drop a strategy or amortization silently
        with pytest.raises(ValueError, match="applies only to"):
            cli.reproduce_table(table, strategy, amortize)

    def test_amortize_allowed_on_a_whole_table(self, capsys):
        code, out, _ = run_cli(
            ["reproduce", "supp-table-6", "--amortize-catalyst", "--format", "csv"], capsys)
        assert code == 0
        assert {r["strategy"] for r in csv_rows(out)} == {s.value for s in cli.Strategy}


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
                assert float(printed[column]) == row[column]
            assert int(printed["qubits"]) == row["qubits"]

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
        # the estimators start without the circuit lab, numpy or scipy (and
        # never import mpmath or sympy), and the CLI without the published
        # tables (reproduce loads them) or the csv and json modules (their
        # formats load them)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        unloaded = ("('lattice_qre.circuitlab', 'numpy', 'scipy', 'lattice_qre.reference_tables', "
                    "'mpmath', 'sympy')")
        for module in ("lattice_qre.cli", "lattice_qre"):
            proc = subprocess.run(
                [sys.executable, "-c", f"import sys, {module}; print(sorted(m for m in "
                 f"sys.modules if m.startswith({unloaded}) or m in ('csv', 'json')))"],
                env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "[]", module

    @pytest.mark.parametrize("argv,loaded", [
        (["reproduce", "supp-table-1", "--format", "csv"], ["csv", "lattice_qre.reference_tables"]),
        (["estimate", "--model", "fh", "--L", "4", "--format", "json"], ["json"]),
    ])
    def test_each_command_loads_what_it_runs(self, argv, loaded):
        # the lazily imported modules arrive with the command that reads them
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        names = ("csv", "json", "lattice_qre.reference_tables")
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, io, contextlib, lattice_qre.cli as c\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = c.main({argv!r})\n"
             f"print(code, sorted(m for m in sys.modules if m in {names!r}))"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"0 {sorted(loaded)}"
