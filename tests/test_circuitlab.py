import numpy as np
import pytest

from lattice_qre.model import Model
from lattice_qre.primitives import HwpStrategy, floor_log2, hamming_adders, hwp_cost
from lattice_qre.trotter_cost import _STEPS, Strategy, _hwp_runs
from lattice_qre.circuitlab import Circuit, FermionOracle, apply_circuit, zero_state
from lattice_qre.circuitlab import gadgets
from lattice_qre.circuitlab.gadgets import (
    build_fswap,
    build_hamming_weight,
    build_hwp,
    build_plaquette_evolution,
    half_adder,
    two_site_fourier,
)
from lattice_qre.circuitlab.statevector import (
    _ARITY,
    Gate,
    GateKind,
    max_unitary_deviation,
    simulate,
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


def _random_gate(rng, kind, n):
    qubits = tuple(int(q) for q in rng.permutation(n)[:_ARITY[kind]])
    angle = float(rng.uniform(-np.pi, np.pi)) if kind in (GateKind.RZ, GateKind.CRZ) else None
    return Gate(kind, qubits, angle)


def _random_states(rng, n, batch):
    states = rng.normal(size=(1 << n, batch)) + 1j * rng.normal(size=(1 << n, batch))
    return states / np.linalg.norm(states, axis=0)


class TestStateVector:
    CASES = [
        Gate(GateKind.X, (2,)), Gate(GateKind.H, (0,)), Gate(GateKind.S, (3,)),
        Gate(GateKind.SDG, (1,)), Gate(GateKind.T, (2,)), Gate(GateKind.TDG, (0,)),
        Gate(GateKind.RZ, (1,), 0.913), Gate(GateKind.CNOT, (3, 1)),
        Gate(GateKind.CZ, (0, 2)), Gate(GateKind.SWAP, (1, 3)),
        Gate(GateKind.CRZ, (2, 0), -1.37), Gate(GateKind.TOFFOLI, (3, 0, 2)),
    ]

    def test_every_gate_against_kron_embedding(self):
        rng = np.random.default_rng(23)
        n = 4
        assert {gate.kind for gate in self.CASES} == set(GateKind)
        for gate in self.CASES:
            circ = Circuit(n)
            circ.extend([gate])
            dense = _kron_unitary(gate, n)
            state = _random_states(rng, n, 1)[:, 0]
            assert np.max(np.abs(apply_circuit(state, circ) - dense @ state)) < 1e-14, gate.kind
            states = _random_states(rng, n, 5)
            assert np.max(np.abs(apply_circuit(states, circ) - dense @ states)) < 1e-14, gate.kind

    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits_match_kron_product(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(3, 7))
        kinds = list(GateKind) * 3 + [GateKind.H] * 4   # every kind, several H
        circ = Circuit(n)
        reference = np.eye(1 << n, dtype=complex)
        for i in rng.permutation(len(kinds)):
            gate = _random_gate(rng, kinds[i], n)
            circ.extend([gate])
            reference = _kron_unitary(gate, n) @ reference
        states = _random_states(rng, n, 4)
        assert np.max(np.abs(apply_circuit(states, circ) - reference @ states)) < 1e-12
        # sparse input: a few basis states, some columns holding two entries
        index = rng.choice(1 << n, size=6, replace=False)
        column = np.array([0, 0, 1, 2, 3, 3])
        amp = rng.normal(size=6) + 1j * rng.normal(size=6)
        out_index, out_amp, out_column = simulate(circ, index, amp, column)
        dense_in = np.zeros((1 << n, 4), dtype=complex)
        dense_in[index, column] = amp
        dense_out = np.zeros_like(dense_in)
        np.add.at(dense_out, (out_index, out_column), out_amp)
        assert len(set(zip(out_index.tolist(), out_column.tolist()))) == out_index.size
        assert np.max(np.abs(dense_out - reference @ dense_in)) < 1e-12

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
        # the ceiling sits at the dense boundary; sparse simulation goes past it
        circ = Circuit(16)
        circ.x(0)
        circ.cnot(0, 15)
        index, amp, column = simulate(circ, [0], [1.0], [0])
        assert index.tolist() == [(1 << 15) | 1] and amp.tolist() == [1.0]
        with pytest.raises(ValueError):
            apply_circuit(np.zeros(1 << 16, dtype=complex), circ)
        with pytest.raises(ValueError):
            Circuit(11).unitary()
        with pytest.raises(ValueError):
            Circuit(0)

    def test_duplicate_qubits_rejected(self):
        circ = Circuit(2)
        with pytest.raises(ValueError):
            circ.cnot(1, 1)


class TestHammingWeight:
    def test_all_ones_reads_count(self):
        gadget = build_hamming_weight(8)
        n = gadget.circuit.n_qubits
        index = sum(1 << (n - 1 - i) for i in range(8))
        out, amp, _ = simulate(gadget.circuit, [index], [1.0], [0])
        assert amp.tolist() == [1.0]
        hot = int(out[0])
        weight = sum(
            ((hot >> (n - 1 - wire)) & 1) << bit
            for bit, wire in enumerate(gadget.outputs)
        )
        assert weight == 8

    def test_single_bit_is_identity(self):
        gadget = build_hamming_weight(1)
        assert gadget.circuit.gates == []
        assert gadget.outputs == [0]

    def test_adder_counts(self):
        for m in range(1, 9):
            assert build_hamming_weight(m).circuit.counts()["toffoli"] == hamming_adders(m)

    def test_exhaustive_check_passes(self):
        assert verify.check_hamming_weight().passed


class TestHwpGadgets:
    def test_zero_angle_is_identity(self):
        gadget = build_hwp(4, 0.0, HwpStrategy.BASELINE)
        u, leak = verify._hwp_induced_matrix(gadget)
        assert leak < 1e-12
        assert max_unitary_deviation(u, np.eye(16)) < 1e-12

    def test_baseline_m2_matches_direct(self):
        theta = np.pi / 7
        gadget = build_hwp(2, theta, HwpStrategy.BASELINE)
        u, _ = verify._hwp_induced_matrix(gadget)
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
        for strategy in HwpStrategy:
            with pytest.raises(ValueError):
                build_hwp(0, 0.1, strategy)

    def test_tallies_at_the_charged_sizes(self):
        # every run size M the step table charges for L = 4..16: the tally of
        # the circuit's compute direction is hwp_cost(M), and its wires are
        # the M targets plus the workspace, catalyst and borrow registers
        # that total_qubits counts
        sizes = {_hwp_runs(L, size, strategy)[0]
                 for kind, (_, layers, _) in _STEPS.items() for size, *_ in layers
                 for L in range(4, 17, 4 if kind is Model.CUPRATE else 2)
                 for strategy in Strategy}
        assert len(sizes) == 22
        for m in sorted(sizes):
            for strategy in HwpStrategy:
                gadget = build_hwp(m, 0.731, strategy)
                assert gadget.counted == hwp_cost(m, strategy)
                registers = 2 * (floor_log2(m) + 1) if strategy is HwpStrategy.CATALYZED else 0
                assert gadget.circuit.n_qubits == m + hamming_adders(m) + registers

    @pytest.mark.parametrize("m", range(6, 11))
    def test_induced_matrix_beyond_dense_sizes(self, m):
        # exhaustive over the 2**m target states, both strategies, two angles;
        # the catalyzed gadget at m = 10 has 26 qubits
        result = verify.check_hwp_unitary(sizes=(m,), n_angles=2)
        assert result.passed, result.max_deviation


def _without_last(circuit, kind=None):
    """Copy of ``circuit`` missing its last gate of ``kind`` (of any kind:
    None); an empty circuit stays empty."""
    gates = list(circuit.gates)
    found = [i for i, g in enumerate(gates) if kind is None or g.kind is kind]
    out = Circuit(circuit.n_qubits)
    out.gates = gates[:found[-1]] + gates[found[-1] + 1:] if found else gates
    return out


class TestMutantsFail:
    """Broken gadgets, swapped in where the checks look them up, must fail."""

    def test_hwp_missing_uncompute_toffoli(self, monkeypatch):
        def broken(m, theta, strategy):
            gadget = build_hwp(m, theta, strategy)
            gadget.circuit = _without_last(gadget.circuit, GateKind.TOFFOLI)
            return gadget
        monkeypatch.setattr(verify, "build_hwp", broken)
        assert not verify.check_hwp_unitary().passed

    def test_hwp_angle_off_by_1e_4(self, monkeypatch):
        monkeypatch.setattr(verify, "build_hwp",
                            lambda m, theta, strategy: build_hwp(m, 1.0001 * theta, strategy))
        assert not verify.check_hwp_unitary().passed

    def test_hwp_cancelling_toffoli_pair(self, monkeypatch):
        # a Toffoli pair that cancels leaves every unitary intact; only the
        # tallies read from the circuits see the two extra gates
        def padded(circ, a, b, carry):
            circ.toffoli(a, b, carry)
            circ.toffoli(a, b, carry)
            half_adder(circ, a, b, carry)
        monkeypatch.setattr(gadgets, "half_adder", padded)
        assert verify.check_hwp_unitary().passed
        assert not verify.check_hwp_tallies().passed
        assert not verify.check_hamming_weight().passed

    def test_adder_chain_missing_last_gate(self, monkeypatch):
        def broken(m):
            gadget = build_hamming_weight(m)
            gadget.circuit = _without_last(gadget.circuit)
            return gadget
        monkeypatch.setattr(verify, "build_hamming_weight", broken)
        assert not verify.check_hamming_weight().passed


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
