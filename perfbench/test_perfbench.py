"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from lattice_qre import optimize, qubitization, trotter_cost  # noqa: E402
from lattice_qre.circuitlab import statevector, verify  # noqa: E402
from lattice_qre.model import Model, ModelSpec, extensive_error  # noqa: E402
from lattice_qre.trotter_cost import Strategy  # noqa: E402

FH4 = ModelSpec(Model.FERMI_HUBBARD, 4)


@pytest.fixture(scope="module")
def trotter_cell():
    cell = wl.Cell(FH4, "trotter", Strategy.BATCHED_BASELINE)
    return cell, wl.solve(cell)


@pytest.fixture(scope="module")
def qubitization_cell():
    cell = wl.Cell(FH4, "qubitization", None)
    return cell, wl.solve(cell)


# -- inputs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload):
    assert wl.make_inputs(workload, 5) == wl.make_inputs(workload, 5)


@pytest.mark.parametrize("workload", ["precision-scan", "cold-cli"])
def test_seeds_draw_different_inputs(workload):
    assert wl.make_inputs(workload, 5) != wl.make_inputs(workload, 6)


def test_paper_tables_are_the_197_published_cells_in_seeded_order():
    first, second = wl.make_inputs("paper-tables", 1), wl.make_inputs("paper-tables", 2)
    assert len(first) == 197 and first != second
    assert sorted(c.key for c in first) == sorted(c.key for c in second)
    assert sum(c.method == "qubitization" for c in first) == 45
    assert set(c.key for c in first) == set(wl.load_snapshot())


def test_precision_draws_stay_in_their_ranges():
    for q_cell, t_cell in wl.make_inputs("precision-scan", 9):
        L = t_cell.spec.L
        assert q_cell.spec == t_cell.spec and q_cell.delta_e == t_cell.delta_e
        assert 4 <= L <= 32 and L % (4 if t_cell.spec.kind is Model.CUPRATE else 2) == 0
        depth = -math.log10(t_cell.delta_e / extensive_error(L))
        assert 0.0 <= depth < wl.PRECISION_DEPTH


# -- output checks ----------------------------------------------------------


def test_checks_accept_true_results(trotter_cell, qubitization_cell):
    assert wl.check_table_cell(*trotter_cell) == []
    assert wl.check_table_cell(*qubitization_cell) == []


def test_trotter_check_rejects_a_total_off_by_1e_6(trotter_cell):
    cell, est = trotter_cell
    bad = replace(est, total_toffoli=est.total_toffoli * (1 + 1e-6))
    assert any("evaluate() gives" in p for p in wl.check_cell(cell, bad))


def test_qubitization_check_rejects_a_total_off_by_1e_6(qubitization_cell):
    cell, est = qubitization_cell
    bad = replace(est, n_toffoli=est.n_toffoli + 1e-6 * est.total_toffoli)
    assert any("estimate() at x gives" in p for p in wl.check_cell(cell, bad))


@pytest.mark.parametrize("fixture", ["trotter_cell", "qubitization_cell"])
def test_table_check_rejects_a_wrong_qubit_count(fixture, request):
    cell, est = request.getfixturevalue(fixture)
    bad = replace(est, total_qubits=est.total_qubits + 1)
    assert any("published" in p for p in wl.check_table_cell(cell, bad))


def test_trotter_check_rejects_r_at_the_scan_limit(trotter_cell):
    cell, est = trotter_cell
    bad = replace(est, r=wl.scan_limit())
    assert any("scan limit" in p for p in wl.check_cell(cell, bad))


@pytest.mark.parametrize("total", [0.5, float("nan"), float("inf")])
def test_totals_must_be_finite_and_at_least_one(total):
    assert wl.check_total(total)


def test_verify_check_rejects_a_failed_check():
    results = [verify.CheckResult(f"c{i}", 0.0, 1.0) for i in range(len(verify.ALL_CHECKS))]
    assert wl.check_verify(results) == []
    results[3] = verify.CheckResult("c3", 2.0, 1.0)
    assert wl.check_verify(results) == ["c3: deviation 2 > 1"]


def _in_process_cli(command):
    from lattice_qre import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(command.argv))
    return code, buf.getvalue(), ""


@pytest.mark.parametrize("fmt", wl.CLI_FORMATS)
def test_cli_check_compares_printed_and_in_process_results(fmt, qubitization_cell):
    cell = replace(qubitization_cell[0], spec=FH4.with_couplings(u=8.123456789))
    argv = ("sweep", "--model", "fh", "--method", "qubitization", "--u", "8.123456789",
            "--format", fmt, "--L-range", "4,6")
    cells = (cell, replace(cell, spec=replace(cell.spec, L=6)))
    command = wl.Command(argv, fmt, cells)
    refs = wl.reference_estimates([command])
    output = _in_process_cli(command)
    assert wl.check_cli(command, output, refs) == []
    assert [round(t, -4) for t in wl.cli_totals(command, output)] == [
        round(refs[c].total_toffoli, -4) for c in cells]

    shifted = {c: replace(e, n_toffoli=e.n_toffoli * 1.01) for c, e in refs.items()}
    assert any("toffoli" in p for p in wl.check_cli(command, output, shifted))
    code, out, err = output
    assert wl.check_cli(command, (code, "\n".join(out.splitlines()[:-1]), err), refs)
    assert wl.check_cli(command, (2, out, "error"), refs)


def test_an_op_that_raises_or_breaks_its_check_counts_as_failed(trotter_cell):
    cell, est = trotter_cell
    outputs = [est, ValueError("boom"), replace(est, budget=None)]
    problems = run.check_outputs(wl, "paper-tables", [cell] * 3, outputs)
    assert problems[0] == [] and "boom" in problems[1][0] and problems[2]


def test_cells_moved_counts_cells_off_the_snapshot(trotter_cell):
    cell, est = trotter_cell
    snapshot = wl.load_snapshot()
    assert wl.cells_moved([cell], [est], snapshot) == 0
    moved = replace(est, total_toffoli=est.total_toffoli * (1 + 2e-6))
    assert wl.cells_moved([cell, cell], [est, moved], snapshot) == 1


# -- tracing ----------------------------------------------------------------


def _traced_counts(items):
    tracer = tracing.Tracer()
    with tracer:
        tracing.install(tracer)
        run.run_ops(wl, "paper-tables", items, 0.0, True, tracer)
    metrics = tracing.layer_metrics(tracer)
    return {k: v for k, v in metrics.items() if not k.endswith("_ms")}


def test_two_traced_runs_give_identical_counters():
    items = [c for c in wl.make_inputs("paper-tables", 1)
             if c.spec.L == 4 and c.spec.kind is not Model.PNICTIDE]
    first, second = _traced_counts(items), _traced_counts(list(reversed(items)))
    assert first == second
    assert first["optimize.minimize_calls"] > 0 and first["qubitization.evaluations"] > 0
    assert first["trotter_bounds.w_calls"] == sum(c.method == "trotter" for c in items)


def test_wrappers_are_removed_after_a_traced_run():
    originals = (trotter_cost.minimize, qubitization.minimize, verify.ALL_CHECKS,
                 statevector.apply_circuit, trotter_cost.optimize_trotter)
    with tracing.Tracer() as tracer:
        tracing.install(tracer)
        assert trotter_cost.minimize is not optimize.minimize
    assert (trotter_cost.minimize, qubitization.minimize, verify.ALL_CHECKS,
            statevector.apply_circuit, trotter_cost.optimize_trotter) == originals
    assert trotter_cost.minimize is optimize.minimize


def test_self_time_excludes_wrapped_children():
    class Box:
        @staticmethod
        def inner():
            return sum(range(20000))

        @staticmethod
        def outer():
            return Box.inner() + Box.inner()

    with tracing.Tracer() as tracer:
        tracer.wrap(Box, "inner", "inner")
        tracer.wrap(Box, "outer", "outer")
        Box.outer()
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.total["outer"] - tracer.total["inner"], abs=1e-9)


def test_importtime_parser_takes_outermost_scipy_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy._lib",
        "import time:       500 |        600 |       scipy",
        "import time:      1000 |       2000 |     scipy.linalg",
        "import time:       300 |       3000 |   lattice_qre.circuitlab",
        "import time:       200 |        200 |   scipy.special",
        "import time:       400 |       4000 | lattice_qre.cli",
    ])
    assert tracing.parse_importtime(text) == {
        "import.cli_ms": 4.0, "import.circuitlab_ms": 3.0, "import.scipy_ms": 2.2}


# -- the result line --------------------------------------------------------


@pytest.mark.parametrize("traced", [False, True])
def test_a_run_reports_exactly_the_metrics_of_benchmark_json(traced):
    import json

    bench = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer"] if traced else bench["end_to_end"]
    result, host = run.run("verify", 1, 0.0, traced)
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert host["nproc"] >= 1 and set(host["ref_start"]) == {"ref_py_ms", "ref_np_ms"}
