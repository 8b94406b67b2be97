import itertools
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_qre.model import Model
from lattice_qre.primitives import HwpStrategy, hamming_adders, hwp_counts
from lattice_qre.trotter_cost import _STEPS, Strategy, _hwp_runs
from lattice_qre.circuitlab import Circuit, FermionOracle, apply_circuit
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
    _KEY_BITS,
    _SQRT_HALF,
    _hadamard,
    Gate,
    GateKind,
    max_unitary_deviation,
    simulate,
)
from lattice_qre.circuitlab import fermion, verify


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
    angle = float(rng.uniform(-np.pi, np.pi)) if kind is GateKind.RZ else None
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
        Gate(GateKind.TOFFOLI, (3, 0, 2)),
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

    @pytest.mark.parametrize("seed", range(6))
    def test_family_matches_one_simulation_per_member(self, seed):
        # every RZ gate carries k angles; column c of the batch runs
        # member c % k, which is the circuit with each gate's angle[c % k]
        rng = np.random.default_rng(2000 + seed)
        n, k = int(rng.integers(3, 7)), int(rng.integers(2, 5))
        kinds = list(GateKind) * 3 + [GateKind.H] * 4
        layout = [_random_gate(rng, kinds[i], n) for i in rng.permutation(len(kinds))]
        family = Circuit(n)
        family.extend(Gate(g.kind, g.qubits, None if g.angle is None
                           else rng.uniform(-np.pi, np.pi, size=k)) for g in layout)
        members = []
        for a in range(k):
            circ = Circuit(n)
            circ.extend(Gate(g.kind, g.qubits, None if g.angle is None else float(g.angle[a]))
                        for g in family.gates)
            members.append(circ)
        n_columns = 3 * k
        index = rng.integers(0, 1 << n, size=4 * n_columns)
        column = np.repeat(np.arange(n_columns), 4)
        distinct = np.unique((column << n) | index, return_index=True)[1]
        index, column = index[distinct], column[distinct]
        amp = rng.normal(size=index.size) + 1j * rng.normal(size=index.size)

        def by_key(out):
            order = np.argsort((out[2] << n) | out[0])
            return [part[order] for part in out]

        together = by_key(simulate(family, index, amp, column))
        alone = by_key([np.concatenate(parts) for parts in zip(*(
            simulate(circ, index[column % k == a], amp[column % k == a],
                     column[column % k == a])
            for a, circ in enumerate(members)))])
        assert np.array_equal(together[0], alone[0])
        assert np.array_equal(together[2], alone[2])
        assert np.max(np.abs(together[1] - alone[1])) < 1e-14

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(data=st.data(), n=st.integers(1, 5), batch=st.integers(1, 3))
    def test_hadamard_pairs_match_dense_and_the_merge(self, data, n, batch):
        # sparse batches where an entry's partner (index ^ bit) is present or
        # not, with amplitudes from a small set so that some pairs cancel
        keys = np.array(sorted(data.draw(st.sets(st.integers(0, (batch << n) - 1),
                                                 min_size=1, max_size=batch << n))))
        values = st.sampled_from([1.0, -1.0, 0.5, 1j, -1j, 0.5 - 0.5j]) | st.complex_numbers(
            max_magnitude=2.0, allow_nan=False, allow_infinity=False)
        amp = np.array(data.draw(st.lists(values, min_size=keys.size, max_size=keys.size)),
                       dtype=complex)
        qubit = data.draw(st.integers(0, n - 1))
        index, column = keys & ((1 << n) - 1), keys >> n
        out_keys, out_amp = _hadamard(keys, amp, 1 << (n - 1 - qubit))
        out_index, out_column = out_keys & ((1 << n) - 1), out_keys >> n
        assert np.unique(out_keys).size == out_keys.size and np.all(out_amp != 0)
        dense_in = np.zeros((1 << n, batch), dtype=complex)
        dense_in[index, column] = amp
        dense_out = np.zeros_like(dense_in)
        dense_out[out_index, out_column] = out_amp
        dense_h = _kron_unitary(Gate(GateKind.H, (qubit,)), n)
        assert np.max(np.abs(dense_out - dense_h @ dense_in)) < 1e-14
        # the earlier kernel: both images of every entry, equal keys merged by
        # np.unique and summed by np.bincount
        bit = 1 << (n - 1 - qubit)
        merged_keys, slot = np.unique(np.concatenate(((keys & ~bit), keys | bit)),
                                      return_inverse=True)
        half = _SQRT_HALF * amp
        weights = np.concatenate((half, np.where(index & bit, -1, 1) * half))
        merged = np.bincount(slot, weights.real) + 1j * np.bincount(slot, weights.imag)
        assert dict(zip(out_keys.tolist(), out_amp.tolist())) == {
            key: value for key, value in zip(merged_keys.tolist(), merged.tolist()) if value != 0}

    @pytest.mark.parametrize("angle", [np.zeros((2, 2)), np.array([]), 1j, None, [0.1, "x"]])
    def test_angle_is_a_real_number_or_a_1d_array(self, angle):
        with pytest.raises(ValueError):
            Gate(GateKind.RZ, (0,), angle)
        assert Gate(GateKind.RZ, (0,), [0.1, -2]).angle.tolist() == [0.1, -2.0]
        with pytest.raises(ValueError):
            Gate(GateKind.T, (0,), 0.1)

    def test_family_unitary_is_one_matrix_per_member(self):
        angles = [0.1, 0.7]
        stack = build_plaquette_evolution(np.array(angles)).unitary()
        assert stack.shape == (2, 16, 16)
        for u, theta in zip(stack, angles):
            assert np.array_equal(u, build_plaquette_evolution(theta).unitary())
        assert build_plaquette_evolution(np.array([0.37])).unitary().shape == (1, 16, 16)
        assert build_plaquette_evolution(0.37).unitary().shape == (16, 16)

    def test_family_angles_of_different_lengths_have_no_unitary(self):
        circ = Circuit(2)
        circ.rz(0, np.array([0.1, 0.2]))
        circ.rz(1, np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError):
            circ.unitary()

    def test_family_angles_of_different_lengths_do_not_simulate(self):
        # column 2 would mix member 0 of the first RZ with member 2 of the second
        circ = Circuit(2)
        circ.rz(0, [0.1, 0.2])
        circ.rz(1, [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="no member count"):
            simulate(circ, [3, 3, 3], [1.0, 1.0, 1.0], [0, 1, 2])
        with pytest.raises(ValueError, match="no member count"):
            apply_circuit(np.eye(4, dtype=complex)[:, [3, 3, 3]], circ)

    def test_gates_compare_by_identity(self):
        a, b = (Gate(GateKind.RZ, (0,), np.array([1.0, 2.0])) for _ in range(2))
        assert a != b and a == a
        assert len({a, b}) == 2

    def test_extend_checks_the_qubit_range(self):
        circ = Circuit(2)
        with pytest.raises(ValueError):
            circ.extend([Gate(GateKind.CNOT, (0, 2))])
        assert circ.gates == []

    def test_norm_preserved(self):
        rng = np.random.default_rng(17)
        circ = Circuit(4)
        circ.h(0); circ.t(1); circ.cnot(0, 2); circ.rz(3, 0.77)
        circ.toffoli(0, 1, 3); circ.swap(1, 2); circ.rz(0, -1.3)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        out = apply_circuit(state, circ)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_inverse_round_trip(self):
        circ = Circuit(3)
        circ.h(0); circ.s(1); circ.t(2); circ.cnot(0, 1)
        circ.rz(2, 0.41); circ.toffoli(0, 1, 2); circ.cz(1, 2)
        state = np.eye(8, dtype=complex)[0]
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

    def test_append_checks_the_qubit_range(self):
        circ = Circuit(3)
        with pytest.raises(ValueError, match="qubit 3 out of range"):
            circ.cnot(0, 3)
        with pytest.raises(ValueError, match="qubit -1 out of range"):
            circ.x(-1)
        assert circ.gates == []

    @pytest.mark.parametrize("qubit", [1.5, True, np.True_, np.float64(1.0), "1", None])
    def test_non_integer_qubits_rejected(self, qubit):
        # refused when the gate is made, naming the qubit, not taken as an
        # index (True as 1) or left to fail inside the simulation
        named = re.escape(f"qubit {qubit!r} is not an integer")
        with pytest.raises(ValueError, match=named):
            Circuit(3).x(qubit)
        with pytest.raises(ValueError, match=named):
            Circuit(3).cnot(qubit, 2)
        with pytest.raises(ValueError, match=named):
            Gate(GateKind.TOFFOLI, (0, 2, qubit))
        circ = Circuit(3)
        with pytest.raises(ValueError, match="is not an integer"):
            circ.extend([Gate(GateKind.X, [qubit])])
        assert circ.gates == []

    @pytest.mark.parametrize("n", [3.0, True, "3", np.float64(3)],
                             ids=["float", "bool", "str", "float64"])
    def test_non_integer_qubit_counts_rejected(self, n):
        # refused when the circuit is made, not at the first shift by it
        with pytest.raises(ValueError, match=re.escape(f"n_qubits {n!r} is not an integer")):
            Circuit(n)
        assert Circuit(np.int64(3)).n_qubits == 3 and type(Circuit(np.int64(3)).n_qubits) is int

    @pytest.mark.parametrize("index, column, named", [
        ([1.5], [0], "index"), ([1], [0.7], "column"), ([1.0], [0], "index"),
        ([True], [0], "index")], ids=["float-index", "float-column", "whole-float", "bool"])
    def test_non_integer_index_or_column_rejected(self, index, column, named):
        # refused, naming the array, rather than truncated to index 1 or column 0
        with pytest.raises(ValueError, match=f"^{named} must be integers"):
            simulate(Circuit(2), index, [1.0], column)
        out = simulate(Circuit(2), [], [], [])   # empty input of any kind stays accepted
        assert all(a.size == 0 for a in out)

    def test_integer_like_qubits_become_ints(self):
        gate = Gate(GateKind.CNOT, [np.int64(2), np.uint8(0)])
        assert gate.qubits == (2, 0) and all(type(q) is int for q in gate.qubits)
        assert Gate(GateKind.CNOT, iter([np.int64(2), 0])).qubits == (2, 0)
        circ = Circuit(3)
        circ.toffoli(np.int32(0), 1, np.int64(2))
        assert circ.gates[0].qubits == (0, 1, 2)
        with pytest.raises(ValueError, match="out of range"):
            circ.x(np.int64(3))


def _reference_simulate(circuit, index, amp, column):
    """An independent reference kernel: every gate on the int64 basis
    indices through per-wire shifts, H pairing partners by one stable sort
    of the (column, index) keys and no split without a sort."""
    n = circuit.n_qubits
    circuit.members()
    index = np.array(index, dtype=np.int64).ravel()
    amp = np.array(amp, dtype=complex).ravel()
    column = np.array(column, dtype=np.int64).ravel()
    phases = {GateKind.S: 1j, GateKind.SDG: -1j, GateKind.T: np.exp(0.25j * np.pi),
              GateKind.TDG: np.exp(-0.25j * np.pi), GateKind.CZ: -1.0}
    for gate in circuit.gates:
        kind = gate.kind
        shift = [n - 1 - q for q in gate.qubits]
        if kind is GateKind.H:
            bit = 1 << shift[0]
            key = (column << n) | (index & ~bit)
            order = np.argsort(key, kind="stable")
            key, half = key[order], _SQRT_HALF * amp[order]
            first = np.ones(key.size, dtype=bool)
            first[1:] = key[1:] != key[:-1]
            start = np.flatnonzero(first)
            key = np.concatenate((key[start], key[start] | bit))
            amp = np.concatenate((np.add.reduceat(half, start), np.add.reduceat(
                np.where(index[order] & bit, -half, half), start)))
            keep = amp != 0
            key = key[keep]
            index, amp, column = key & ((1 << n) - 1), amp[keep], key >> n
        elif kind is GateKind.X:
            index ^= 1 << shift[0]
        elif kind is GateKind.CNOT:
            index ^= ((index >> shift[0]) & 1) << shift[1]
        elif kind is GateKind.TOFFOLI:
            index ^= ((index >> shift[0]) & (index >> shift[1]) & 1) << shift[2]
        elif kind is GateKind.SWAP:
            differ = ((index >> shift[0]) ^ (index >> shift[1])) & 1
            index ^= (differ << shift[0]) | (differ << shift[1])
        else:
            mask = sum(1 << s for s in shift)
            hit = (index & mask) == mask
            if gate.angle is None:
                amp[hit] *= phases[kind]
            else:
                phase = np.exp(1j * np.atleast_1d(gate.angle))
                amp[hit] *= phase[column[hit] % phase.size]
    return index, amp, column


def _as_dict(index, amp, column):
    out = dict(zip(zip(column.tolist(), index.tolist()), amp.tolist()))
    assert len(out) == index.size   # distinct (column, index) keys
    return out


@st.composite
def _circuits_and_inputs(draw):
    """A circuit of every gate kind on 1-5 wires, with scalar or family
    angles, and a sparse batch over 1-3 columns (times the family size) on
    which some wires are never set, so that an H on them finds no partner;
    the amplitudes include exact zeros and pairs that cancel."""
    n = draw(st.integers(1, 5))
    k = draw(st.sampled_from([None, 1, 2, 3]))
    kinds = [kind for kind in GateKind if _ARITY[kind] <= n]
    circ = Circuit(n)
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(kinds))
        qubits = tuple(draw(st.permutations(range(n)))[:_ARITY[kind]])
        angle = None
        if kind is GateKind.RZ:
            angle = (draw(st.floats(-4.0, 4.0)) if k is None else
                     np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=k, max_size=k))))
        circ.extend([Gate(kind, qubits, angle)])
    columns = draw(st.integers(1, 3)) * (k or 1)
    quiet = draw(st.integers(0, (1 << n) - 1))   # wires set on no input entry
    keys = sorted(draw(st.sets(st.integers(0, (columns << n) - 1), min_size=1, max_size=12)))
    keys = np.unique(np.array(keys) & ~quiet)
    values = st.sampled_from([1.0, -1.0, 0.5, 1j, 0.0]) | st.complex_numbers(
        max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    amp = np.array(draw(st.lists(values, min_size=keys.size, max_size=keys.size)), dtype=complex)
    return circ, keys & ((1 << n) - 1), amp, keys >> n


class TestKernelAgainstReference:
    """The kernel against the reference kernel above."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(case=_circuits_and_inputs())
    def test_random_circuits(self, case):
        # the same entries and amplitudes within 1e-15; an entry only one
        # kernel has is one the other rounded to exactly zero and dropped
        # (numpy multiplies a one-element complex array in place without
        # the fused multiply-add its vector loops use, so a phase on a
        # single hit entry can round differently in the last bit)
        circ, index, amp, column = case
        got = _as_dict(*simulate(circ, index, amp, column))
        want = _as_dict(*_reference_simulate(circ, index, amp, column))
        assert all(abs(got.get(key, 0.0) - want.get(key, 0.0)) <= 1e-15
                   for key in got.keys() | want.keys())

    def test_classical_runs_between_merging_hadamards(self):
        # runs of CNOT/Toffoli/SWAP/X between H gates whose partners are
        # present, so that every H merges entries the classical gates
        # moved, on a family
        rng = np.random.default_rng(31)
        n, k = 6, 3
        circ = Circuit(n)
        for _ in range(4):
            circ.h(int(rng.integers(n)))
            circ.rz(int(rng.integers(n)), rng.uniform(-3, 3, size=k))
            for _ in range(5):
                kind = [GateKind.CNOT, GateKind.TOFFOLI, GateKind.SWAP, GateKind.X][rng.integers(4)]
                circ.extend([_random_gate(rng, kind, n)])
            circ.t(int(rng.integers(n)))
            circ.cz(0, 5)
        index = np.arange(1 << n).repeat(2 * k)
        column = np.tile(np.arange(2 * k), 1 << n)
        amp = rng.normal(size=index.size) + 1j * rng.normal(size=index.size)
        got = _as_dict(*simulate(circ, index, amp, column))
        assert got == _as_dict(*_reference_simulate(circ, index, amp, column))

    def test_family_of_more_members_than_a_byte_counts(self):
        k = 300
        angles = np.linspace(-3.0, 3.0, k)
        circ = Circuit(3)
        circ.cnot(0, 1); circ.toffoli(0, 1, 2); circ.swap(0, 2)
        circ.rz(2, angles)
        circ.cnot(2, 0)
        column = np.arange(2 * k)
        index = np.full(column.size, 0b110)
        got = _as_dict(*simulate(circ, index, np.ones(column.size), column))
        assert got == _as_dict(*_reference_simulate(circ, index, np.ones(column.size), column))

    @pytest.mark.parametrize("n", [53, 54, 62])
    def test_wide_circuits_pack_exactly(self, n):
        # keys of 53, 54 and 62 bits: the classical gates' shifts and masks
        # and the H split reach the top index bit, and the output index is
        # cut from the key exactly, past the 53 bits a float64 holds
        circ = Circuit(n)
        circ.x(0); circ.cnot(0, n - 1); circ.toffoli(0, n - 1, 1); circ.swap(1, n - 2)
        circ.h(0); circ.cnot(n - 2, 2); circ.x(3); circ.toffoli(2, 3, n - 3); circ.h(n - 1)
        index = np.array([0, (1 << (n - 1)) | 5, (1 << n) - 1])
        got = simulate(circ, index, np.ones(3), [0, 0, 0])
        assert _as_dict(*got) == _as_dict(*_reference_simulate(circ, index, np.ones(3), [0, 0, 0]))
        assert got[0].max() >= 1 << (n - 2)

    def test_every_simulation_of_a_verify_pass_is_bit_identical(self, monkeypatch):
        from lattice_qre.circuitlab import statevector

        seen = []

        def recorded(circuit, index, amp, column):
            out = simulate(circuit, index, amp, column)
            seen.append(((circuit, index, amp, column), out))
            return out

        monkeypatch.setattr(verify, "simulate", recorded)
        monkeypatch.setattr(statevector, "simulate", recorded)
        assert all(r.passed for r in verify.run_all())
        assert len(seen) == 27
        for args, out in seen:
            assert _as_dict(*out) == _as_dict(*_reference_simulate(*args))


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
        gadget = build_hwp(4, np.array([0.7, 0.0]), HwpStrategy.BASELINE)
        diagonal, leakage, off = verify._hwp_family(gadget, 2)
        assert diagonal.shape == leakage.shape == (2, 16) and off == 0.0
        assert np.max(np.abs(diagonal[1] - 1.0)) < 1e-12 and leakage[1].max() < 1e-12
        assert max_unitary_deviation(diagonal[1], np.ones(16)) < 1e-12

    def test_baseline_m2_matches_direct(self):
        theta = np.pi / 7
        gadget = build_hwp(2, np.array([theta, 0.0, -2.0 * theta]), HwpStrategy.BASELINE)
        diagonal, leakage, off = verify._hwp_family(gadget, 3)
        assert off == 0.0   # no entry off the diagonal: it is the induced matrix
        rz = np.diag([1.0, np.exp(1j * theta)])
        assert max_unitary_deviation(np.diag(diagonal[0]), np.kron(rz, rz)) < 1e-10
        assert leakage[0].max() < 1e-10

    @pytest.mark.parametrize("mutant", ["none", "angle", "no_toffoli", "no_gate", "phase",
                                        "off_diagonal"])
    def test_sparse_comparison_equals_dense(self, monkeypatch, mutant):
        # the family comparison against diag(e^{i theta HW}) restated densely:
        # max_unitary_deviation of each member's induced block, from its dense
        # unitary and the closed-form catalyst state, and the column norms;
        # the phase and off-diagonal mutants act on the simulated outputs
        m, thetas = 3, np.array((0.913, -2.2, 1.4))

        def mutated(circuit, index, amp, column):
            index, amp, column = simulate(circuit, index, amp, column)
            if mutant == "phase":
                amp = amp * np.exp(0.3j)
            elif mutant == "off_diagonal":   # 1e-3 at row 1 of column 0, each member
                row_1 = 1 << (circuit.n_qubits - m)
                for a in range(thetas.size):
                    at = np.flatnonzero((index == row_1) & (column == a))
                    if at.size:
                        amp[at] += 1e-3
                    else:
                        index, column = np.append(index, row_1), np.append(column, a)
                        amp = np.append(amp, 1e-3)
            return index, amp, column

        monkeypatch.setattr(verify, "simulate", mutated)
        weights = np.array([bin(x).count("1") for x in range(1 << m)])
        targets = np.exp(1j * thetas[:, None] * weights)
        built = (1.0001 if mutant == "angle" else 1.0) * thetas
        for strategy in HwpStrategy:
            gadget = build_hwp(m, built, strategy)
            if mutant == "no_toffoli":
                gadget.circuit = _without_last(gadget.circuit, GateKind.TOFFOLI)
            elif mutant == "no_gate":
                gadget.circuit = _without_last(gadget.circuit)
            dense = 0.0
            for u, target in zip(_projected_family(gadget, built), targets):
                if mutant == "phase":
                    u = u * np.exp(0.3j)
                elif mutant == "off_diagonal":
                    u[1, 0] += 1e-3
                dense = max(dense, float(np.max(np.abs(1.0 - np.linalg.norm(u, axis=0)))),
                            max_unitary_deviation(u, np.diag(target)))
            diagonal, leakage, off = verify._hwp_family(gadget, thetas.size)
            sparse = max(float(leakage.max()), off,
                         max_unitary_deviation(diagonal[:, None], targets[:, None]))
            assert sparse == pytest.approx(dense, rel=0, abs=1e-15)
            assert (sparse > 1e-9) == (mutant not in ("none", "phase"))
            assert (sparse == pytest.approx(1e-3)) == (mutant == "off_diagonal")

    def test_family_members_match_separate_simulations(self):
        # member a of the gadget built at all the angles induces exactly what
        # the gadget built at angle a alone induces
        thetas = np.array([0.3, -1.9, 2.6])
        for strategy in HwpStrategy:
            diagonal, leakage, off = verify._hwp_family(build_hwp(4, thetas, strategy),
                                                        thetas.size)
            offs = []
            for a, theta in enumerate(thetas):
                alone = verify._hwp_family(build_hwp(4, float(theta), strategy), 1)
                assert np.array_equal(diagonal[a], alone[0][0])
                assert np.array_equal(leakage[a], alone[1][0])
                offs.append(alone[2])
            assert off == max(offs)

    @pytest.mark.parametrize("m", [2, 3])
    def test_induced_matrix_equals_the_dense_catalyst_projection(self, m):
        # <x', phi|U|x, phi> from the dense unitary of each family member and
        # the closed-form catalyst state: its diagonal, its column norms and
        # its largest entry off the diagonal; also for the circuit without its
        # last Toffoli, which leaves garbage outside the targets
        thetas = np.array([0.913, -2.2, 1.4])
        for strategy, broken in itertools.product(HwpStrategy, (False, True)):
            gadget = build_hwp(m, thetas, strategy)
            if broken:
                gadget.circuit = _without_last(gadget.circuit, GateKind.TOFFOLI)
            projected = _projected_family(gadget, thetas)
            diagonal, leakage, off = verify._hwp_family(gadget, thetas.size)
            assert np.max(np.abs(diagonal - np.diagonal(projected, axis1=1, axis2=2))) < 1e-13
            norms = np.linalg.norm(projected, axis=1)
            assert np.max(np.abs(leakage - np.abs(1.0 - norms))) < 1e-13
            assert (leakage.max() > 0.1) == broken
            off_diagonal = projected * (1 - np.eye(1 << m))
            assert abs(off - np.max(np.abs(off_diagonal))) < 1e-13

    def test_counted_tallies_match_cost_model(self):
        for m in (1, 2, 3, 4, 5):
            for strategy in HwpStrategy:
                gadget = build_hwp(m, 0.37, strategy)
                toffoli, rz = hwp_counts(m, strategy is HwpStrategy.CATALYZED)
                assert gadget.counted.toffoli == toffoli
                assert gadget.counted.rz == rz

    def test_size_limit(self):
        for strategy in HwpStrategy:
            with pytest.raises(ValueError):
                build_hwp(0, 0.1, strategy)

    def test_tallies_at_the_charged_sizes(self):
        # every run size M the step table charges for L = 4..16: the tally of
        # the circuit's compute direction is hwp_counts(M), and its wires are
        # the M targets plus the workspace, catalyst and borrow registers
        # that total_qubits counts
        sizes = {_hwp_runs(L, size, strategy.batched)[0]
                 for kind, (_, layers, _) in _STEPS.items() for size, *_ in layers
                 for L in range(4, 17, 4 if kind is Model.CUPRATE else 2)
                 for strategy in Strategy}
        assert len(sizes) == 22
        for m in sorted(sizes):
            for strategy in HwpStrategy:
                gadget = build_hwp(m, 0.731, strategy)
                catalyzed = strategy is HwpStrategy.CATALYZED
                toffoli, rz = hwp_counts(m, catalyzed)
                assert gadget.counted == (toffoli, 0, rz)
                registers = 2 * m.bit_length() if catalyzed else 0
                assert gadget.circuit.n_qubits == m + hamming_adders(m) + registers

    @pytest.mark.parametrize("m", range(6, 15))
    def test_induced_matrix_beyond_dense_sizes(self, m):
        # exhaustive over the 2**m target states, both strategies, two angles
        # as one family; the catalyzed gadget at m = 14 has 33 qubits, and
        # its batch columns x*2 + a stay inside the (column, index) keys
        n = build_hwp(m, 1.0, HwpStrategy.CATALYZED).circuit.n_qubits
        assert n + (2 * (1 << m) - 1).bit_length() <= _KEY_BITS
        if m == 14:
            assert n == 33
        result = verify.check_hwp_unitary(sizes=(m,), n_angles=2)
        assert result.passed, result.max_deviation


def _projected_family(gadget, thetas):
    """<x', phi|U|x, phi> for each member of a gadget family, (k, 2**M, 2**M),
    from its dense unitary and the closed-form catalyst state
    (x)_i (|0> + e^{i 2^i theta}|1>)/sqrt2, every other environment wire at 0."""
    m, n = gadget.M, gadget.circuit.n_qubits
    base = m + hamming_adders(m)
    catalyst = range(base, base + m.bit_length())   # a baseline gadget ends at base
    out = []
    for theta, u in zip(thetas, gadget.circuit.unitary()):
        env = np.ones(1, dtype=complex)
        for wire in range(m, n):
            if wire in catalyst:
                i = wire - base
                factor = np.array([1.0, np.exp(1j * (1 << i) * theta)]) / np.sqrt(2.0)
            else:
                factor = np.array([1.0, 0.0])
            env = np.kron(env, factor)
        frame = np.kron(np.eye(1 << m), env[:, None])   # |x> -> |x, phi>
        out.append(frame.conj().T @ u @ frame)
    return np.array(out)


def _without_last(circuit, kind=None):
    """Copy of ``circuit`` missing its last gate of ``kind`` (of any kind:
    None); an empty circuit stays empty."""
    gates = list(circuit.gates)
    found = [i for i, g in enumerate(gates) if kind is None or g.kind is kind]
    out = Circuit(circuit.n_qubits)
    out.gates = gates[:found[-1]] + gates[found[-1] + 1:] if found else gates
    return out


def _dense_catalyst_invariance(sizes):
    """``check_catalyst_invariance``'s deviation from dense states: the same
    seeded gadgets and targets, P†UP applied by ``apply_circuit`` to the
    2**n-entry state, and the targets read at every 2**(n - M)-th entry."""
    rng = random.Random(verify.HWP_ANGLE_SEED + 1)
    worst = 0.0
    for m in sizes:
        gadget = build_hwp(m, rng.uniform(0.1, 2.0), HwpStrategy.CATALYZED)
        stride = 1 << (gadget.circuit.n_qubits - m)
        target = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << m)])
        state = np.zeros(stride << m, dtype=complex)
        state[::stride] = target / np.linalg.norm(target)
        state = apply_circuit(state, verify._in_catalyst_frame(gadget))
        worst = max(worst, 1.0 - float(np.sum(np.abs(state[::stride]) ** 2)))
    return worst


class TestCatalystInvariance:
    def test_runs_on_the_sparse_targets(self, monkeypatch):
        # no dense state is formed, and the deviation is the dense
        # projection's to the last bit, at each size and over the pass's sizes
        from lattice_qre.circuitlab import statevector

        def refused(state, circuit):
            raise RuntimeError("dense state formed")
        monkeypatch.setattr(verify, "apply_circuit", refused)
        monkeypatch.setattr(statevector, "apply_circuit", refused)
        assert verify.check_catalyst_invariance().passed
        for sizes in ((2,), (3,), (5,), (2, 3, 5)):
            result = verify.check_catalyst_invariance(sizes)
            assert float.hex(result.max_deviation) == float.hex(_dense_catalyst_invariance(sizes))


class TestMutantsFail:
    """Broken gadgets, swapped in where the checks look them up, must fail."""

    @pytest.mark.parametrize("kind", [GateKind.TOFFOLI, GateKind.CNOT])
    def test_catalyst_invariance_sees_uncompute_garbage(self, monkeypatch, kind):
        # an uncompute without its last Toffoli or CNOT leaves the catalyst
        # wires intact and garbage in the adder workspace
        def broken(m, theta, strategy):
            gadget = build_hwp(m, theta, strategy)
            gadget.circuit = _without_last(gadget.circuit, kind)
            return gadget
        monkeypatch.setattr(verify, "build_hwp", broken)
        result = verify.check_catalyst_invariance()
        assert not result.passed and result.max_deviation > 0.1

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

    @pytest.mark.parametrize("mutant", ["angle_off_by_1e_4", "missing_first_h"])
    def test_catalyst_prep_mutant(self, monkeypatch, mutant):
        # the circuit is intact and only the catalyst preparation is broken:
        # built at 1.0001 theta, or without its first H
        def broken(m, theta, strategy):
            gadget = build_hwp(m, theta, strategy)
            prep = gadget.catalyst_prep
            if prep is not None:
                if mutant == "angle_off_by_1e_4":
                    prep = build_hwp(m, 1.0001 * theta, strategy).catalyst_prep
                else:
                    assert prep.gates[0].kind is GateKind.H
                    prep = Circuit(prep.n_qubits, prep.gates[1:])
            gadget.catalyst_prep = prep
            return gadget
        monkeypatch.setattr(verify, "build_hwp", broken)
        assert not verify.check_hwp_unitary().passed
        assert not verify.check_catalyst_invariance().passed

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

    @pytest.mark.parametrize("mutant", ["amplitude_scaled", "two_columns_on_one_index"])
    def test_sparse_unitarity_mutant(self, monkeypatch, mutant):
        # the H-free circuits' basis outputs, one amplitude scaled by 1 + 1e-6
        # or basis column 1 sent where column 0 goes
        def broken(circuit, index, amp, column):
            index, amp, column = simulate(circuit, index, amp, column)
            if mutant == "amplitude_scaled":
                amp[3] *= 1 + 1e-6
            else:
                index[column == 1] = index[column == 0]
            return index, amp, column
        monkeypatch.setattr(verify, "simulate", broken)
        result = verify.check_unitarity()
        assert not result.passed
        assert (result.max_deviation == np.inf) == (mutant == "two_columns_on_one_index")

    def test_adder_chain_missing_last_gate(self, monkeypatch):
        def broken(m):
            gadget = build_hamming_weight(m)
            return gadget._replace(circuit=_without_last(gadget.circuit))
        monkeypatch.setattr(verify, "build_hamming_weight", broken)
        assert not verify.check_hamming_weight().passed


class TestFswap:
    def test_adjacent_action(self):
        u = build_fswap(2, 0, 1).unitary()
        assert abs(u[2, 1] - 1.0) < 1e-12  # |01> -> |10>
        assert abs(u[1, 2] - 1.0) < 1e-12
        assert abs(u[3, 3] + 1.0) < 1e-12  # |11> -> -|11>

    def test_involution(self):
        u = build_fswap(2, 0, 1).unitary()
        assert np.max(np.abs(u @ u - np.eye(4))) < 1e-12

    def test_long_range_swap_count(self):
        assert build_fswap(4, 0, 3).counts()["swap"] == 5
        assert build_fswap(6, 1, 5).counts()["swap"] == 7
        assert build_fswap(6, 2, 3).counts()["swap"] == 1

    def test_conjugation(self):
        oracle = FermionOracle(4)
        u = build_fswap(4, 0, 3).unitary()
        assert np.max(np.abs(u @ oracle.a(3) @ u.conj().T - oracle.a(0))) < 1e-12
        assert np.max(np.abs(u @ oracle.a(1) @ u.conj().T - oracle.a(1))) < 1e-12

    def test_cancelling_pair_fails_the_check(self, monkeypatch):
        # an adjacent fswap and its inverse leave the unitary as it was, but
        # not the swap count the check reads from the circuit
        def padded(n_modes, i, j):
            circ = build_fswap(n_modes, i, j)
            gadgets.adjacent_fswap(circ, i)
            gadgets.adjacent_fswap(circ, i)
            return circ
        assert max_unitary_deviation(padded(5, 0, 3).unitary(),
                                     build_fswap(5, 0, 3).unitary()) < 1e-12
        monkeypatch.setattr(verify, "build_fswap", padded)
        result = verify.check_fswap()
        assert not result.passed
        assert result.max_deviation == 2.0


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

    def test_extra_t_pair_fails_the_check(self, monkeypatch):
        def padded(circ, a, b):
            two_site_fourier(circ, a, b)
            circ.t(a)
            circ.tdg(a)
        monkeypatch.setattr(verify, "two_site_fourier", padded)
        result = verify.check_two_site_fourier()
        assert not result.passed
        assert result.max_deviation == 2.0

    def test_plaquette_zero_angle(self):
        u = build_plaquette_evolution(0.0).unitary()
        assert max_unitary_deviation(u, np.eye(16)) < 1e-12

    def test_plaquette_tally(self):
        counts = build_plaquette_evolution(0.37).counts()
        assert counts["t"] == 8
        assert counts["rz"] == 2
        assert counts["toffoli"] == 0

    def test_plaquette_matches_exponential(self):
        assert verify.check_plaquette(angles=(0.37, -0.9)).passed
        assert verify.check_plaquette(angles=(0.37,)).passed


def _kron_annihilation(n, j):
    """a_j by its definition: Z on the modes before j, |0><1| on mode j."""
    factors = [np.diag([1.0, -1.0])] * j + [np.array([[0.0, 1.0], [0.0, 0.0]])]
    out = np.eye(1)
    for f in factors + [np.eye(2)] * (n - 1 - j):
        out = np.kron(out, f)
    return out


def _dense_car_deviation(ops):
    """The anticommutators of every ordered pair as dense products."""
    n, eye = len(ops), np.eye(ops[0].shape[0])
    anti, mixed = np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            a, b, b_dag = ops[i], ops[j], ops[j].conj().T
            anti[i, j] = np.max(np.abs(a @ b + b @ a))
            mixed[i, j] = np.max(np.abs(a @ b_dag + b_dag @ a - (eye if i == j else 0.0)))
    return anti, mixed


def _mutate_annihilation(monkeypatch, mode, change):
    """FermionOracle whose a_mode is ``change`` applied to the true one."""
    build = FermionOracle._annihilation

    def mutant(self, j):
        op = build(self, j)
        if j == mode:
            change(op)
        return op

    monkeypatch.setattr(FermionOracle, "_annihilation", mutant)


def _flip_first_sign(op):
    rows, columns = np.nonzero(op)
    op[rows[0], columns[0]] *= -1


class TestFermionOracle:
    def test_car_enforced(self):
        assert FermionOracle(5).car_deviation == 0.0   # raises on violation

    def test_mode_limit(self):
        assert FermionOracle(5).n_modes == fermion.MAX_MODES
        with pytest.raises(ValueError):
            FermionOracle(6)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_convention_matches_kron_product(self, n):
        # qubit 0 is the top index bit, and mode j carries Z on modes < j
        oracle = FermionOracle(n)
        for j in range(n):
            assert np.array_equal(oracle.a(j), _kron_annihilation(n, j))

    def test_dropped_z_fails(self, monkeypatch):
        # a_3 without the Z on mode 1 commutes with a_1
        sign = 1 - 2 * ((np.arange(32) >> 3) & 1)   # Z on qubit 1 of 5

        def drop_z(op):
            op *= sign[:, None]

        _mutate_annihilation(monkeypatch, 3, drop_z)
        with pytest.raises(AssertionError, match=r"\{a_1, a_3\} != 0"):
            FermionOracle(5)

    def test_flipped_sign_fails(self, monkeypatch):
        _mutate_annihilation(monkeypatch, 1, _flip_first_sign)
        with pytest.raises(AssertionError, match=r"\{a_0, a_1\} != 0"):
            FermionOracle(5)

    def test_extra_nonzero_fails(self, monkeypatch):
        def add_entry(op):
            op[1, 0b00100] = 1.0   # column 4 already holds a_2's entry at row 0

        # a_2 a_0 maps |10100> to |00001> through the new entry, and nothing
        # in a_0 a_2 cancels it
        _mutate_annihilation(monkeypatch, 2, add_entry)
        with pytest.raises(AssertionError, match=r"\{a_0, a_2\} != 0 \(deviation 1\)"):
            FermionOracle(5)

    def test_agrees_with_dense_products(self, monkeypatch):
        # seeded single-entry mutations of the n = 5 operators: the check's
        # verdict and worst deviation equal the dense anticommutators'
        true_ops = [FermionOracle(5).a(j) for j in range(5)]
        rng = np.random.default_rng(5)
        current = []
        monkeypatch.setattr(FermionOracle, "_annihilation", lambda self, j: current[j])
        verdicts = set()
        for _ in range(200):
            current[:] = [op.copy() for op in true_ops]
            op = current[int(rng.integers(5))]
            factor = [-1.0, 1j, 0.5, 1.0 + 1e-13, None][int(rng.integers(5))]
            if factor is None:   # a new entry in an empty column and an empty row
                empty_rows = np.flatnonzero(~op.any(axis=1))
                empty_columns = np.flatnonzero(~op.any(axis=0))
                op[rng.choice(empty_rows), rng.choice(empty_columns)] = rng.choice([1.0, -1j])
            else:
                rows, columns = np.nonzero(op)
                k = int(rng.integers(rows.size))
                op[rows[k], columns[k]] *= factor
            anti, mixed = fermion._car_deviation(current)
            dense_anti, dense_mixed = _dense_car_deviation(current)
            assert np.max(np.abs(anti - dense_anti)) <= 1e-15
            assert np.max(np.abs(mixed - dense_mixed)) <= 1e-15
            worst = max(dense_anti.max(), dense_mixed.max())
            if worst > fermion.CAR_TOLERANCE:
                with pytest.raises(AssertionError):
                    FermionOracle(5)
            else:
                assert FermionOracle(5).car_deviation == pytest.approx(worst, rel=0, abs=1e-15)
            verdicts.add(worst > fermion.CAR_TOLERANCE)
        assert verdicts == {True, False}


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

    def test_report_names_thresholds_and_keys(self, circuit_checks):
        # the nine checks, in order, with the thresholds they are held to
        import json

        assert [(r.name, r.threshold) for r in circuit_checks.results.values()] == [
            ("hamming_weight", 1e-12), ("hwp_unitary", 1e-9), ("hwp_tallies", 0.0),
            ("catalyst_invariance", 1e-12), ("fswap", 1e-12), ("two_site_fourier", 1e-12),
            ("plaquette_evolution", 1e-9), ("unitarity", 1e-10), ("fermion_oracle_car", 1e-12),
        ]
        parsed = json.loads(verify.report_json(list(circuit_checks.results.values())))
        assert all(list(entry) == ["name", "max_deviation", "threshold", "seconds", "passed"]
                   for entry in parsed)

    def test_sparse_unitarity_reads_the_dense_unitary(self, monkeypatch):
        # the three H-free circuits are simulated on their basis states, and
        # the (row, column, amp) triples are exactly the nonzeros of their
        # dense unitaries; only the plaquette, which has H, forms U densely
        seen = []

        def recorded(circuit, index, amp, column):
            seen.append((circuit, simulate(circuit, index, amp, column)))
            return seen[-1][1]
        monkeypatch.setattr(verify, "simulate", recorded)
        assert verify.check_unitarity().passed
        assert len(seen) == 3
        for circ, (index, amp, column) in seen:
            assert all(g.kind is not GateKind.H for g in circ.gates)
            u = circ.unitary()
            rows, columns = np.nonzero(u)
            assert dict(zip(zip(rows.tolist(), columns.tolist()), u[rows, columns].tolist())) \
                == dict(zip(zip(index.tolist(), column.tolist()), amp.tolist()))

    def test_one_build_per_gadget_family(self, monkeypatch):
        # the HWP check builds each (M, strategy) once at all ten angles, and
        # the plaquette check its circuit once at all five
        builds = {"build_hwp": 0, "build_plaquette_evolution": 0}
        for name in builds:
            def counted(*args, name=name, build=getattr(verify, name)):
                builds[name] += 1
                return build(*args)
            monkeypatch.setattr(verify, name, counted)
        assert verify.check_hwp_unitary().passed
        assert builds == {"build_hwp": 8, "build_plaquette_evolution": 0}
        assert verify.check_plaquette().passed
        assert builds == {"build_hwp": 8, "build_plaquette_evolution": 1}

    def test_a_pass_leaves_numpy_random_unloaded(self):
        # the seeded angles and target states come from the standard library,
        # so a cold verify does not pay for importing numpy.random; nor does
        # the package ever import mpmath or sympy
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(verify.__file__).resolve().parents[2])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from lattice_qre.circuitlab import verify; "
             "assert all(r.passed for r in verify.run_all()); print('numpy.random' in sys.modules, "
             "sorted(m for m in sys.modules if m.startswith(('mpmath', 'sympy'))))"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False []"

    def test_oracle_sizes_match_the_checks(self, monkeypatch):
        # the suite builds oracles of exactly the sizes its gadget checks
        # use, and the largest of them is the oracle's limit
        sizes = set()
        init = FermionOracle.__init__

        def recorded(self, n_modes):
            sizes.add(n_modes)
            init(self, n_modes)

        monkeypatch.setattr(FermionOracle, "__init__", recorded)
        assert all(r.passed for r in verify.run_all())
        assert sizes == {2, 4, 5}
        assert max(sizes) == fermion.MAX_MODES

    def test_a_pass_builds_each_oracle_size_once(self, monkeypatch):
        # the checks of one pass share its oracles; the next pass builds and
        # verifies its own
        built = Counter()
        init = FermionOracle.__init__

        def counted(self, n_modes):
            built[n_modes] += 1
            init(self, n_modes)

        monkeypatch.setattr(FermionOracle, "__init__", counted)
        assert all(r.passed for r in verify.run_all())
        assert built == {2: 1, 4: 1, 5: 1}
        assert all(r.passed for r in verify.run_all())
        assert built == {2: 2, 4: 2, 5: 2}

    def test_no_oracle_outlives_its_pass(self, monkeypatch):
        # after a pass, finished or ended by a raising check, a check called
        # on its own builds the (here broken) oracle afresh
        def raising():
            raise RuntimeError("check crashed")

        assert all(r.passed for r in verify.run_all())
        monkeypatch.setattr(verify, "ALL_CHECKS", (verify.check_fswap, raising))
        with pytest.raises(RuntimeError, match="check crashed"):
            verify.run_all()
        _mutate_annihilation(monkeypatch, 1, _flip_first_sign)
        assert verify.check_fswap().max_deviation == np.inf

    def test_broken_oracle_gives_a_failing_report(self, monkeypatch, tmp_path):
        # a sign-flipped a_1: the four checks that build oracles fail with an
        # unbounded deviation, the report is still written and verify exits 1
        import json

        from lattice_qre import cli

        _mutate_annihilation(monkeypatch, 1, _flip_first_sign)
        path = tmp_path / "report.json"
        assert cli.main(["verify", "--output", str(path)]) == 1
        report = {entry["name"]: entry for entry in json.loads(path.read_text())}
        failed = {name for name, entry in report.items() if not entry["passed"]}
        assert failed == {"fswap", "two_site_fourier", "plaquette_evolution",
                          "fermion_oracle_car"}
        assert all(report[name]["max_deviation"] == np.inf for name in failed)
        assert len(report) == len(verify.ALL_CHECKS)
