import numpy as np
import pytest

from lattice_qre.primitives import HwpStrategy, hamming_adders, hwp_cost
from lattice_qre.circuitlab import Circuit, FermionOracle, apply_circuit, zero_state
from lattice_qre.circuitlab.gadgets import (
    build_fswap,
    build_hamming_weight,
    build_hwp,
    build_plaquette_evolution,
    two_site_fourier,
)
from lattice_qre.circuitlab.statevector import (
    GateKind,
    basis_state,
    max_unitary_deviation,
)
from lattice_qre.circuitlab import verify


def _kron_unitary(gate, n):
    """Independent dense matrix for a gate: explicit embedding via kron."""
    eye = np.eye(2, dtype=complex)
    one_q = {
        GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
        GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
        GateKind.S: np.diag([1, 1j]).astype(complex),
        GateKind.SDG: np.diag([1, -1j]).astype(complex),
        GateKind.T: np.diag([1, np.exp(0.25j * np.pi)]),
        GateKind.TDG: np.diag([1, np.exp(-0.25j * np.pi)]),
    }
    if gate.kind in one_q or gate.kind is GateKind.RZ:
        mat = one_q.get(gate.kind)
        if mat is None:
            mat = np.diag([1, np.exp(1j * gate.angle)])
        factors = [mat if q == gate.qubits[0] else eye for q in range(n)]
    else:
        dim = 1 << n
        full = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
            phase = 1.0
            if gate.kind is GateKind.CNOT:
                c, t = gate.qubits
                if bits[c]:
                    bits[t] ^= 1
            elif gate.kind is GateKind.CZ:
                a, b = gate.qubits
                phase = -1.0 if bits[a] and bits[b] else 1.0
            elif gate.kind is GateKind.SWAP:
                a, b = gate.qubits
                bits[a], bits[b] = bits[b], bits[a]
            elif gate.kind is GateKind.CRZ:
                c, t = gate.qubits
                phase = np.exp(1j * gate.angle) if bits[c] and bits[t] else 1.0
            elif gate.kind is GateKind.TOFFOLI:
                c1, c2, t = gate.qubits
                if bits[c1] and bits[c2]:
                    bits[t] ^= 1
            row = sum(b << (n - 1 - q) for q, b in enumerate(bits))
            full[row, col] = phase
        return full
    out = np.eye(1, dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


class TestStateVector:
    def test_every_gate_against_kron_embedding(self):
        from lattice_qre.circuitlab.statevector import Gate, apply_gate

        rng = np.random.default_rng(23)
        n = 4
        cases = [
            Gate(GateKind.X, (2,)), Gate(GateKind.H, (0,)), Gate(GateKind.S, (3,)),
            Gate(GateKind.SDG, (1,)), Gate(GateKind.T, (2,)), Gate(GateKind.TDG, (0,)),
            Gate(GateKind.RZ, (1,), 0.913), Gate(GateKind.CNOT, (3, 1)),
            Gate(GateKind.CZ, (0, 2)), Gate(GateKind.SWAP, (1, 3)),
            Gate(GateKind.CRZ, (2, 0), -1.37), Gate(GateKind.TOFFOLI, (3, 0, 2)),
        ]
        for gate in cases:
            state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            state /= np.linalg.norm(state)
            fast = apply_gate(state.copy(), gate, n)
            dense = _kron_unitary(gate, n) @ state
            assert np.max(np.abs(fast - dense)) < 1e-14, gate.kind

    def test_norm_preserved(self):
        rng = np.random.default_rng(17)
        circ = Circuit(4)
        circ.h(0); circ.t(1); circ.cnot(0, 2); circ.rz(3, 0.77)
        circ.toffoli(0, 1, 3); circ.swap(1, 2); circ.crz(2, 0, -1.3)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        out = apply_circuit(state, circ)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_inverse_round_trip(self):
        circ = Circuit(3)
        circ.h(0); circ.s(1); circ.t(2); circ.cnot(0, 1)
        circ.rz(2, 0.41); circ.toffoli(0, 1, 2); circ.cz(1, 2)
        state = zero_state(3)
        state[3] = 0.6
        state[0] = 0.8
        round_trip = apply_circuit(apply_circuit(state, circ), circ.inverted())
        assert np.max(np.abs(round_trip - state)) < 1e-12

    def test_qubit_ceiling(self):
        with pytest.raises(ValueError):
            Circuit(16)

    def test_duplicate_qubits_rejected(self):
        circ = Circuit(2)
        with pytest.raises(ValueError):
            circ.cnot(1, 1)


class TestHammingWeight:
    def test_all_ones_reads_count(self):
        gadget = build_hamming_weight(8)
        n = gadget.circuit.n_qubits
        index = sum(1 << (n - 1 - i) for i in range(8))
        out = apply_circuit(basis_state(n, index), gadget.circuit)
        hot = int(np.argmax(np.abs(out)))
        weight = sum(
            ((hot >> (n - 1 - wire)) & 1) << bit
            for bit, wire in enumerate(gadget.outputs)
        )
        assert weight == 8

    def test_single_bit_is_identity(self):
        gadget = build_hamming_weight(1)
        assert gadget.adder_count == 0
        assert gadget.outputs == [0]

    def test_adder_counts(self):
        for m in range(1, 9):
            assert build_hamming_weight(m).adder_count == hamming_adders(m)

    def test_exhaustive_check_passes(self):
        assert verify.check_hamming_weight().passed


class TestHwpGadgets:
    def test_zero_angle_is_identity(self):
        gadget = build_hwp(4, 0.0, HwpStrategy.BASELINE)
        u, leak = verify._hwp_induced_matrix(
            gadget, zero_state(gadget.circuit.n_qubits - 4))
        assert leak < 1e-12
        assert max_unitary_deviation(u, np.eye(16)) < 1e-12

    def test_baseline_m2_matches_direct(self):
        theta = np.pi / 7
        gadget = build_hwp(2, theta, HwpStrategy.BASELINE)
        u, _ = verify._hwp_induced_matrix(
            gadget, zero_state(gadget.circuit.n_qubits - 2))
        rz = np.diag([1.0, np.exp(1j * theta)])
        assert max_unitary_deviation(u, np.kron(rz, rz)) < 1e-10

    def test_counted_tallies_match_cost_model(self):
        for m in (1, 2, 3, 4, 5):
            for strategy in HwpStrategy:
                gadget = build_hwp(m, 0.37, strategy)
                predicted = hwp_cost(m, strategy)
                assert gadget.counted.toffoli == predicted.toffoli
                assert gadget.counted.rz == predicted.rz

    def test_size_limit(self):
        with pytest.raises(ValueError):
            build_hwp(6, 0.1, HwpStrategy.BASELINE)


class TestFswap:
    def test_adjacent_action(self):
        u = build_fswap(2, 0, 1).circuit.unitary()
        assert abs(u[2, 1] - 1.0) < 1e-12  # |01> -> |10>
        assert abs(u[1, 2] - 1.0) < 1e-12
        assert abs(u[3, 3] + 1.0) < 1e-12  # |11> -> -|11>

    def test_involution(self):
        u = build_fswap(2, 0, 1).circuit.unitary()
        assert np.max(np.abs(u @ u - np.eye(4))) < 1e-12

    def test_long_range_swap_count(self):
        assert build_fswap(4, 0, 3).adjacent_swaps == 5
        assert build_fswap(6, 1, 5).adjacent_swaps == 7

    def test_conjugation(self):
        oracle = FermionOracle(4)
        gadget = build_fswap(4, 0, 3)
        u = gadget.circuit.unitary()
        assert np.max(np.abs(u @ oracle.a(3) @ u.conj().T - oracle.a(0))) < 1e-12
        assert np.max(np.abs(u @ oracle.a(1) @ u.conj().T - oracle.a(1))) < 1e-12


class TestFourierAndPlaquette:
    def test_vacuum_fixed(self):
        circ = Circuit(2)
        two_site_fourier(circ, 0, 1)
        u = circ.unitary()
        assert abs(u[0, 0] - 1.0) < 1e-12

    def test_t_count(self):
        circ = Circuit(2)
        two_site_fourier(circ, 0, 1)
        assert circ.counts()["t"] == 2

    def test_mode_relations(self):
        assert verify.check_two_site_fourier().passed

    def test_plaquette_zero_angle(self):
        u = build_plaquette_evolution(0.0).circuit.unitary()
        assert max_unitary_deviation(u, np.eye(16)) < 1e-12

    def test_plaquette_tally(self):
        gadget = build_plaquette_evolution(0.37)
        counts = gadget.circuit.counts()
        assert counts["t"] == 8
        assert counts["rz"] == 2
        assert counts["toffoli"] == 0

    def test_plaquette_matches_exponential(self):
        assert verify.check_plaquette(angles=(0.37, -0.9)).passed


class TestFermionOracle:
    def test_car_enforced(self):
        FermionOracle(5)  # raises on violation

    def test_mode_limit(self):
        with pytest.raises(ValueError):
            FermionOracle(8)


class TestVerifySuite:
    def test_all_checks_pass(self, circuit_checks):
        failures = [r.name for r in circuit_checks.results.values() if not r.passed]
        assert failures == []

    def test_json_report(self, circuit_checks):
        import json

        text = verify.report_json(list(circuit_checks.results.values()))
        parsed = json.loads(text)
        assert all(entry["passed"] for entry in parsed)
        assert {e["name"] for e in parsed} == set(circuit_checks.results)
