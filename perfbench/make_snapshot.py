"""Write seed_snapshot.json: the per-cell Toffoli totals and qubit counts
of the 197 paper-table cells as the package in this checkout computes them.

    python3 perfbench/make_snapshot.py

The stored snapshot is the reference that the traced paper-tables run
compares against (trotter_cost.cells_moved); rewrite it only on purpose.
"""

import json

import workloads


def main() -> None:
    cells = {}
    for cell in sorted(workloads.table_cells(), key=lambda c: c.key):
        est = workloads.solve(cell)
        cells[cell.key] = {"toffoli": est.total_toffoli, "qubits": est.total_qubits}
    workloads.SNAPSHOT_PATH.write_text(json.dumps({"cells": cells}, indent=1) + "\n")


if __name__ == "__main__":
    main()
