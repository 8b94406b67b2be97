"""The benchmark's output checks hold on every published-table cell and on
the precision-scan draws of its first seed.

``perfbench/workloads.py`` checks each solver output it times: the total is
at least one Toffoli and ``evaluate`` (or ``estimate``) gives it back, the
budget's tau sits below ``tau_max`` and gives back r through
``trotter_steps``, and the qubits and Toffolis match the published tables.
A solver change that breaks one of them fails here, before the benchmark
runs.
"""

import importlib.util
import sys
from pathlib import Path


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_table_cells_pass_the_benchmark_checks(qubitization_sweep, trotter_sweep):
    workloads = _workloads()
    cells = workloads.table_cells()
    assert len(cells) == 197
    problems = {}
    for cell in cells:
        kind, L = cell.spec.kind, cell.spec.L
        est = (qubitization_sweep.results[kind, L] if cell.method == "qubitization"
               else trotter_sweep.results[kind, L, cell.strategy])
        if found := workloads.check_table_cell(cell, est):
            problems[cell.key] = found
    assert problems == {}


def test_precision_draws_pass_the_benchmark_checks():
    # the precision-scan workload's own checks, on the 192 cells of its first
    # seed: jittered couplings and targets down to 10**-1.5 of the extensive one
    workloads = _workloads()
    cells = [cell for pair in workloads.precision_draws(1) for cell in pair]
    assert len(cells) == 192
    problems = {}
    for i, cell in enumerate(cells):
        if found := workloads.check_cell(cell, workloads.solve(cell)):
            problems[i, cell.key] = found
    assert problems == {}
