"""The benchmark's output checks hold on every published-table cell.

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
