"""Guard for the rule that a change keeps every paper-table total within
1e-6 relative of the previous output: no total of the 197 cells of tables
1-6 may sit more than 1e-6 relative above the stored seed snapshot
(perfbench/seed_snapshot.json, read only), and every qubit count must match
it exactly."""

import json
from pathlib import Path

SNAPSHOT = Path(__file__).resolve().parents[1] / "perfbench" / "seed_snapshot.json"
MAX_RISE = 1e-6


def test_table_totals_not_above_snapshot(qubitization_sweep, trotter_sweep):
    snapshot = json.loads(SNAPSHOT.read_text())["cells"]
    current = {f"{kind.value}/qubitization/-/{L}": est
               for (kind, L), est in qubitization_sweep.results.items()}
    current.update({f"{kind.value}/trotter/{strategy.value}/{L}": est
                    for (kind, L, strategy), est in trotter_sweep.results.items()})
    assert len(current) == 197
    assert set(current) == set(snapshot)
    risen = {key: rise for key, est in current.items()
             if (rise := est.total_toffoli / snapshot[key]["toffoli"] - 1.0) > MAX_RISE}
    assert risen == {}
    assert {key: est.total_qubits for key, est in current.items()} == \
        {key: cell["qubits"] for key, cell in snapshot.items()}
