import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_qre.primitives import HwpStrategy, hamming_adders, hwp_counts
from lattice_qre.reference_tables import TROTTER_TABLES
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
    _SQRT_HALF,
    _evaluate,
    _lanes,
    _masks,
    _permute,
    _phased,
    Gate,
    GateKind,
    max_unitary_deviation,
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


def _circuit(n, gates):
    """A circuit on n wires of the ``(kind, qubits, angle)`` records
    ``gates``, each entered through ``append``."""
    circ = Circuit(n)
    for kind, qubits, angle in gates:
        circ.append(kind, *qubits, angle=angle)
    return circ


def _random_states(rng, n, batch):
    states = rng.normal(size=(1 << n, batch)) + 1j * rng.normal(size=(1 << n, batch))
    return states / np.linalg.norm(states, axis=0)


class TestStateVector:
    CASES = [
        Gate(GateKind.X, (2,), None), Gate(GateKind.H, (0,), None), Gate(GateKind.S, (3,), None),
        Gate(GateKind.SDG, (1,), None), Gate(GateKind.T, (2,), None),
        Gate(GateKind.TDG, (0,), None), Gate(GateKind.RZ, (1,), 0.913),
        Gate(GateKind.CNOT, (3, 1), None), Gate(GateKind.CZ, (0, 2), None),
        Gate(GateKind.SWAP, (1, 3), None), Gate(GateKind.TOFFOLI, (3, 0, 2), None),
    ]

    def test_every_gate_against_kron_embedding(self):
        rng = np.random.default_rng(23)
        n = 4
        assert {gate.kind for gate in self.CASES} == set(GateKind)
        for gate in self.CASES:
            circ = _circuit(n, [gate])
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
            circ.append(gate.kind, *gate.qubits, angle=gate.angle)
            reference = _kron_unitary(gate, n) @ reference
        states = _random_states(rng, n, 4)
        assert np.max(np.abs(apply_circuit(states, circ) - reference @ states)) < 1e-12
        # mostly zero input: a few basis states, some columns holding two
        index = rng.choice(1 << n, size=6, replace=False)
        column = np.array([0, 0, 1, 2, 3, 3])
        dense_in = np.zeros((1 << n, 4), dtype=complex)
        dense_in[index, column] = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.max(np.abs(apply_circuit(dense_in, circ) - reference @ dense_in)) < 1e-12

    @pytest.mark.parametrize("angle", [np.zeros((2, 2)), np.array([]), 1j, None, [0.1, "x"]])
    def test_angle_is_a_real_number_or_a_1d_array(self, angle):
        circ = Circuit(1)
        with pytest.raises(ValueError):
            circ.append(GateKind.RZ, 0, angle=angle)
        with pytest.raises(ValueError):
            circ.append(GateKind.T, 0, angle=0.1)
        assert circ.gates == []
        circ.rz(0, [0.1, -2])
        assert circ.gates[0].angle.tolist() == [0.1, -2.0]

    def test_real_angles_are_floats_and_bools_are_refused(self):
        # a Fraction or an int is applied as the float it is (a Fraction
        # used to be stored as given and fail inside np.exp); a bool is no
        # angle, Python's as much as numpy's
        circ = Circuit(1)
        circ.rz(0, Fraction(1, 3))
        circ.rz(0, 2)
        assert [(type(g.angle), g.angle) for g in circ.gates] == [(float, 1 / 3), (float, 2.0)]
        amp = apply_circuit(np.array([0.0, 1.0]), circ)
        assert abs(amp[1] - np.exp(1j * (1 / 3 + 2.0))) < 1e-15
        for angle in (True, False, np.True_):
            with pytest.raises(ValueError, match="^rz needs a real angle"):
                circ.rz(0, angle)
        with pytest.raises(ValueError, match="is not finite$"):
            circ.rz(0, Fraction(10 ** 400))
        assert len(circ.gates) == 2

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

    def test_extend_checks_the_qubit_range(self):
        # extend takes a circuit on at most as many wires: a wider one is
        # refused, even where its gates would fit, and leaves the gates as
        # they were; a narrower one's gates are appended as they are
        circ = Circuit(2)
        circ.h(0)
        gates = list(circ.gates)
        for wide in ([Gate(GateKind.CNOT, (0, 2), None)], [Gate(GateKind.X, (0,), None)]):
            with pytest.raises(ValueError, match="3-qubit circuit does not fit on 2 qubits"):
                circ.extend(_circuit(3, wide))
            assert circ.gates == gates
        narrow = _circuit(1, [Gate(GateKind.RZ, (0,), 0.5)])
        circ.extend(narrow)
        circ.extend(Circuit(2))
        assert circ.gates == gates + narrow.gates and circ.gates[-1] is narrow.gates[0]

    def test_no_unchecked_gate_enters_a_circuit(self):
        # a gate enters only through append: neither the constructor nor
        # extend takes gate records, so a qubit out of range cannot get in
        # and fail later inside the simulation
        bad = Gate(GateKind.X, (5,), None)
        with pytest.raises(TypeError):
            Circuit(2, [bad])
        circ = Circuit(2)
        with pytest.raises(TypeError, match="extend takes a Circuit, got list"):
            circ.extend([bad])
        with pytest.raises(ValueError, match="qubit 5 out of range"):
            circ.append(bad.kind, *bad.qubits)
        assert circ.gates == []

    @pytest.mark.parametrize("kind, qubits, angle", [
        ("x", (0,), None), ("cnot", (0, 1), None), ("rz", (1,), 0.1), ("toffoli", (0, 1, 2), None)])
    def test_gate_kinds_given_as_strings(self, kind, qubits, angle):
        # a kind's value stands for the kind, and simulates as the member
        circ = Circuit(3)
        circ.append(kind, *qubits, angle=angle)
        gate = circ.gates[0]
        assert gate.kind is GateKind(kind)
        member = _circuit(3, [Gate(GateKind(kind), qubits, angle)])
        state = _random_states(np.random.default_rng(3), 3, 2)
        assert np.array_equal(apply_circuit(state, circ), apply_circuit(state, member))

    @pytest.mark.parametrize("kind", ["bogus", "X", 7, None])
    def test_unknown_gate_kind_rejected(self, kind):
        circ = Circuit(2)
        with pytest.raises(ValueError, match=re.escape(f"unknown gate kind {kind!r}")):
            circ.append(kind, 0)
        assert circ.gates == []

    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf, np.float32("nan"),
                                       [0.1, np.nan], np.array([np.inf, 0.2])],
                             ids=["nan", "inf", "-inf", "float32-nan", "list-nan", "array-inf"])
    def test_non_finite_angles_rejected(self, angle):
        # refused where the gate enters, naming it, rather than simulated to
        # NaN amplitudes, or passed where only finite members are simulated
        circ = Circuit(2)
        with pytest.raises(ValueError, match="^rz angle .*(nan|inf).* is not finite$"):
            circ.rz(0, angle)
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
        # the ceiling sits at the dense boundary; the evaluator goes past it
        circ = Circuit(16)
        circ.x(0)
        circ.cnot(0, 15)
        index, hits = _evaluate(circ, [0])
        assert index.tolist() == [(1 << 15) | 1] and hits == []
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
        circ = Circuit(3)
        with pytest.raises(ValueError, match=named):
            circ.x(qubit)
        with pytest.raises(ValueError, match=named):
            circ.cnot(qubit, 2)
        with pytest.raises(ValueError, match=named):
            circ.append(GateKind.TOFFOLI, 0, 2, qubit)
        with pytest.raises(ValueError, match=named):
            circ.append("x", qubit)
        assert circ.gates == []

    @pytest.mark.parametrize("n", [3.0, True, "3", np.float64(3)],
                             ids=["float", "bool", "str", "float64"])
    def test_non_integer_qubit_counts_rejected(self, n):
        # refused when the circuit is made, not at the first shift by it
        with pytest.raises(ValueError, match=re.escape(f"n_qubits {n!r} is not an integer")):
            Circuit(n)
        assert Circuit(np.int64(3)).n_qubits == 3 and type(Circuit(np.int64(3)).n_qubits) is int

    @pytest.mark.parametrize("index", [[1.5], [1.0], [True]],
                             ids=["float-index", "whole-float", "bool"])
    def test_non_integer_index_rejected(self, index):
        # refused, naming the array, rather than truncated to index 1
        with pytest.raises(ValueError, match="^index must be integers"):
            _evaluate(Circuit(2), index)
        out, hits = _evaluate(Circuit(2), [])   # empty input of any kind stays accepted
        assert out.size == 0 and hits == []

    def test_integer_like_qubits_become_ints(self):
        circ = Circuit(3)
        circ.append(GateKind.CNOT, np.int64(2), np.uint8(0))
        circ.cnot(np.int64(2), 0)
        circ.toffoli(np.int32(0), 1, np.int64(2))
        assert [g.qubits for g in circ.gates] == [(2, 0), (2, 0), (0, 1, 2)]
        assert all(type(q) is int for g in circ.gates for q in g.qubits)
        with pytest.raises(ValueError, match="out of range"):
            circ.x(np.int64(3))


def _reference_simulate(circuit, index, amp, column):
    """An independent reference kernel: every gate on the int64 basis
    indices through per-wire shifts, H pairing partners by one stable sort
    of the (column, index) keys and no split without a sort.  A phase gate
    multiplies the whole batch by its complex factor where it hits and
    1 + 0j elsewhere, as the kernel does: numpy rounds a one-entry multiply
    without the fused multiply-add of its vector loops, so a multiply of
    the hit entries alone differs in the last bit when one entry is hit."""
    n = circuit.n_qubits
    circuit.members()
    index = np.array(index, dtype=np.int64).ravel()
    amp = np.array(amp, dtype=complex).ravel()
    column = np.array(column, dtype=np.int64).ravel()
    phases = {GateKind.S: 1j, GateKind.SDG: -1j, GateKind.T: np.exp(0.25j * np.pi),
              GateKind.TDG: np.exp(-0.25j * np.pi), GateKind.CZ: -1 + 0j}
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
                phase = phases[kind]
            else:
                phase = np.exp(1j * np.atleast_1d(gate.angle))
                phase = phase[column % phase.size]
            amp *= np.where(hit, phase, 1.0)
    return index, amp, column


@st.composite
def _circuits_and_inputs(draw, hadamard=True):
    """A circuit of every gate kind (every one but H unless ``hadamard``)
    on 1-5 wires, with scalar or family angles, and a sparse batch over 1-3
    columns (times the family size) on which some wires are never set, so
    that an H on them finds no partner; the amplitudes include exact zeros
    and pairs that cancel.  Without H the batch has exactly 0, 1, 13 or
    2-12 entries, over as many columns as that takes: 13 lanes fill more
    than a byte of a wire mask."""
    n = draw(st.integers(1, 5))
    k = draw(st.sampled_from([None, 1, 2, 3]))
    kinds = [kind for kind in GateKind
             if _ARITY[kind] <= n and (hadamard or kind is not GateKind.H)]
    circ = Circuit(n)
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(kinds))
        qubits = tuple(draw(st.permutations(range(n)))[:_ARITY[kind]])
        angle = None
        if kind is GateKind.RZ:
            angle = (draw(st.floats(-4.0, 4.0)) if k is None else
                     np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=k, max_size=k))))
        circ.append(kind, *qubits, angle=angle)
    if hadamard:
        columns = draw(st.integers(1, 3)) * (k or 1)
        quiet = draw(st.integers(0, (1 << n) - 1))   # wires set on no input entry
        keys = sorted(draw(st.sets(st.integers(0, (columns << n) - 1), min_size=1, max_size=12)))
        keys = np.unique(np.array(keys) & ~quiet)
    else:   # no H to find partners: only the number of entries matters
        size = draw(st.sampled_from([0, 1, 13]) | st.integers(2, 12))
        columns = max(draw(st.integers(1, 3)), -(-size >> n)) * (k or 1)
        keys = np.array(sorted(draw(st.sets(st.integers(0, (columns << n) - 1),
                                            min_size=size, max_size=size))), dtype=np.int64)
    values = st.sampled_from([1.0, -1.0, 0.5, 1j, 0.0]) | st.complex_numbers(
        max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    amp = np.array(draw(st.lists(values, min_size=keys.size, max_size=keys.size)), dtype=complex)
    return circ, keys & ((1 << n) - 1), amp, keys >> n


class TestKernelAgainstReference:
    """The evaluator, and the dense kernel on what a verify pass runs, against
    the reference kernel above."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(case=_circuits_and_inputs(hadamard=False))
    def test_circuits_without_h_match_to_the_bit(self, case):
        # without H no entry merges or splits: the evaluator's indices are
        # the reference's entry for entry, in the input order, and so are
        # the amplitudes times the factors of the diagonal gates that hit
        # each lane, member c % k's in column c, bit for bit
        circ, index, amp, column = case
        want = _reference_simulate(circ, index, amp, column)
        moved, hits = _evaluate(circ, index)
        assert np.array_equal(moved, want[0])
        assert (list(map(float.hex, _phased(amp, hits, column).view(float)))
                == list(map(float.hex, want[1].view(float))))

    def test_the_evaluator_refuses_h_by_name(self):
        # an H sends a basis state to two: no lane can follow it
        circ = Circuit(3)
        circ.x(0)
        circ.h(2)
        with pytest.raises(ValueError, match="^h on qubit 2 is not a permutation of basis states$"):
            _permute(circ, [0, 0, 0], 1)

    def test_family_of_more_members_than_a_byte_counts(self):
        k = 300
        angles = np.linspace(-3.0, 3.0, k)
        circ = Circuit(3)
        circ.cnot(0, 1); circ.toffoli(0, 1, 2); circ.swap(0, 2)
        circ.rz(2, angles)
        circ.cnot(2, 0)
        column = np.arange(2 * k)
        index = np.full(column.size, 0b110)
        moved, hits = _evaluate(circ, index)
        want = _reference_simulate(circ, index, np.ones(column.size), column)
        assert np.array_equal(moved, want[0])
        assert np.array_equal(_phased(np.ones(column.size), hits, column), want[1])

    def test_classical_runs_between_merging_hadamards(self):
        # runs of CNOT/Toffoli/SWAP/X between H gates, so that every H of
        # the dense kernel first puts back in index order the rows the
        # classical gates moved, on a family; every entry the reference's
        # to the bit
        rng = np.random.default_rng(31)
        n, k = 6, 3
        circ = Circuit(n)
        for _ in range(4):
            circ.h(int(rng.integers(n)))
            circ.rz(int(rng.integers(n)), rng.uniform(-3, 3, size=k))
            for _ in range(5):
                kind = [GateKind.CNOT, GateKind.TOFFOLI, GateKind.SWAP, GateKind.X][rng.integers(4)]
                gate = _random_gate(rng, kind, n)
                circ.append(gate.kind, *gate.qubits, angle=gate.angle)
            circ.t(int(rng.integers(n)))
            circ.cz(0, 5)
        states = _random_states(rng, n, 2 * k)
        assert np.array_equal(apply_circuit(states, circ), _reference_apply(states, circ))

    @pytest.mark.parametrize("n", [53, 54, 62])
    def test_wide_circuits_pack_exactly(self, n):
        # indices of 53, 54 and 62 bits: the classical gates' masks reach
        # the top index bit, the diagonal gates hit there, and the output
        # index is exact past the 53 bits a float64 holds
        circ = Circuit(n)
        circ.x(0); circ.cnot(0, n - 1); circ.toffoli(0, n - 1, 1); circ.swap(1, n - 2)
        circ.t(0); circ.cnot(n - 2, 2); circ.x(3); circ.toffoli(2, 3, n - 3); circ.cz(0, n - 1)
        index = np.array([0, (1 << (n - 1)) | 5, (1 << n) - 1])
        column = np.zeros(3, dtype=np.int64)
        moved, hits = _evaluate(circ, index)
        want = _reference_simulate(circ, index, np.ones(3), column)
        assert np.array_equal(moved, want[0]) and moved.max() >= 1 << (n - 2)
        assert np.array_equal(_phased(np.ones(3), hits, column), want[1])

    def test_every_dense_state_of_a_verify_pass_is_bit_identical(self, monkeypatch):
        # a pass applies 8 circuits of 108 gates in all to dense states
        # (what perfbench counts as apply_calls and gates_applied), all
        # through the two names its tracer wraps: the 4 unitaries (two
        # fermionic swaps, the two-site Fourier transform and the plaquette
        # family, which the unitarity check reads too), and the 4 catalyst
        # preparations of the HWP families, M = 2..5, which both HWP checks
        # read, each on its k catalyst wires alone and none inverted; every
        # output is the reference kernel's, scattered back, to the bit
        from lattice_qre.circuitlab import statevector

        applied = []

        def recorded(state, circuit):
            out = apply_circuit(state, circuit)
            applied.append((state, circuit, out))
            return out

        monkeypatch.setattr(verify, "apply_circuit", recorded)
        monkeypatch.setattr(statevector, "apply_circuit", recorded)
        assert all(r.passed for r in verify.run_all())
        monkeypatch.undo()
        assert len(applied) == 8 and sum(len(c.gates) for _, c, _ in applied) == 108

        def layout(circuit):
            return circuit.n_qubits, tuple((g.kind, g.qubits) for g in circuit.gates)
        preps = [build_hwp(m, 1.0, HwpStrategy.CATALYZED).catalyst_prep
                 for m in (2, 3, 4, 5)]
        assert [prep.n_qubits for prep in preps] == [2, 2, 3, 3]
        seen = Counter(layout(circuit) for _, circuit, _ in applied)
        assert not Counter(map(layout, preps)) - seen
        for state, circuit, out in applied:
            assert np.array_equal(out, _reference_apply(state, circuit))

    @pytest.mark.parametrize("index", [[6], [-2], [0, 6], [3, -1]])
    def test_the_evaluator_refuses_indices_out_of_range(self, index):
        # on 2 qubits the basis indices are 0..3: a CNOT must not map 6 to 7
        # or -2 to -1
        circ = Circuit(2)
        circ.cnot(0, 1)
        with pytest.raises(ValueError, match="^basis index out of range for 2 qubits$"):
            _evaluate(circ, np.array(index))

    def test_the_evaluator_takes_integers_and_returns_int64(self):
        circ = Circuit(2)
        circ.cnot(0, 1)
        for index in (np.array([2, 3], dtype=np.int32), np.array([2, 3], dtype=np.uint8), [2, 3]):
            moved, hits = _evaluate(circ, index)
            assert moved.dtype == np.int64 and moved.tolist() == [3, 2] and hits == []
        with pytest.raises(ValueError, match="^index must be integers, got dtype float64$"):
            _evaluate(circ, np.array([2.0, 3.0]))

    def test_the_evaluator_takes_62_qubits(self):
        # the lanes' indices are int64
        circ = Circuit(63)
        circ.x(0)
        with pytest.raises(ValueError, match="^63 qubits exceed 62-bit indices$"):
            _evaluate(circ, np.zeros(1, dtype=np.int64))
        circ = Circuit(62)
        circ.x(0); circ.cnot(0, 61); circ.t(61)
        moved, hits = _evaluate(circ, np.array([0, 1]))
        assert moved.tolist() == [(1 << 61) | 1, 1 << 61] and hits[0][1].tolist() == [1, 0]


def _reference_apply(state, circuit):
    """``apply_circuit`` by the reference kernel: the nonzero entries of the
    dense ``state`` through ``_reference_simulate``, scattered back."""
    columns = np.asarray(state).reshape(1 << circuit.n_qubits, -1)
    index, column = np.nonzero(columns)
    index, amp, column = _reference_simulate(circuit, index, columns[index, column], column)
    out = np.zeros(columns.shape, dtype=complex)
    out[index, column] = amp
    return out.reshape(np.shape(state))


class TestDenseKernel:
    """``apply_circuit`` against the reference kernel and against itself."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(case=_circuits_and_inputs())
    def test_random_states_match_the_sparse_route(self, case):
        # the sparse batches as dense states, with exact zeros, partners
        # missing and pairs that cancel; one column as a 1-D state
        circ, index, amp, column = case
        state = np.zeros((1 << circ.n_qubits, int(column.max(initial=0)) + 1), dtype=complex)
        state[index, column] = amp
        if state.shape[1] == 1:
            state = state[:, 0]
        assert np.max(np.abs(apply_circuit(state, circ) - _reference_apply(state, circ))) <= 1e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_family_matches_one_apply_per_member(self, seed):
        # column c of the batch runs member c % k, the circuit with each
        # RZ gate's angle[c % k]
        rng = np.random.default_rng(3000 + seed)
        n, k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        kinds = list(GateKind) * 3 + [GateKind.H] * 4
        layout = [_random_gate(rng, kinds[i], n) for i in rng.permutation(len(kinds))]
        family = _circuit(n, [g._replace(angle=rng.uniform(-np.pi, np.pi, size=k))
                              if g.angle is not None else g for g in layout])
        states = _random_states(rng, n, 3 * k)
        states[rng.random(states.shape) < 0.25] = 0.0
        together = apply_circuit(states, family)
        for a in range(k):
            member = _circuit(n, [g if g.angle is None else g._replace(angle=float(g.angle[a]))
                                  for g in family.gates])
            assert np.array_equal(together[:, a::k], apply_circuit(states[:, a::k], member))

    @pytest.mark.parametrize("first", [0.3, [0.3, 0.4]], ids=["float", "family"])
    def test_family_angles_of_different_lengths_raise(self, first):
        # whether the first family comes before or after an H and a CNOT
        circ = Circuit(2)
        circ.rz(0, first)
        circ.h(1)
        circ.cnot(1, 0)
        circ.rz(1, [0.1, 0.2, 0.3])
        circ.rz(0, [0.1, 0.2])
        with pytest.raises(ValueError, match="no member count"):
            apply_circuit(np.ones((4, 6), dtype=complex), circ)

    @pytest.mark.parametrize("state", [np.array(["1", "0", "0", "0"]), np.array([b"1"] * 4),
                                       np.array([1, 0, 0, 0], dtype=object),
                                       np.array([None] * 4)],
                             ids=["str", "bytes", "object", "none"])
    def test_amplitudes_must_be_numbers(self, state):
        # a string array was read as |00>: refused, naming its dtype
        message = rf"^amplitudes must be numbers, got dtype {re.escape(str(state.dtype))}$"
        with pytest.raises(ValueError, match=message):
            apply_circuit(state, Circuit(2))

    def test_bool_and_integer_amplitudes_are_numbers(self):
        circ = Circuit(2)
        circ.h(0)
        circ.cnot(0, 1)
        want = apply_circuit(np.array([1.0, 0.0, 0.0, 0.0]), circ)
        for state in (np.array([True, False, False, False]), np.array([1, 0, 0, 0], np.uint8)):
            got = apply_circuit(state, circ)
            assert got.dtype == complex and np.array_equal(got, want)


class TestHammingWeight:
    def test_all_ones_reads_count(self):
        gadget = build_hamming_weight(8)
        n = gadget.circuit.n_qubits
        index = sum(1 << (n - 1 - i) for i in range(8))
        out, hits = _evaluate(gadget.circuit, [index])
        assert hits == []
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
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 100, 4096])
    def test_catalyst_state_is_the_phase_gradient(self, m):
        # P|0> on the k catalyst wires, member a at theta_a: amplitude
        # 2**(-k/2) e^{i*theta_a*g} at basis state j, where g reads j with
        # wire i (index bit k - 1 - i) worth 2**i; the thetas are exact in
        # binary, and so are the angles 2**i * theta
        thetas = np.array([0.375, -1.25])
        gadget = build_hwp(m, thetas, HwpStrategy.CATALYZED)
        prep, k, base = gadget.catalyst_prep, m.bit_length(), m + hamming_adders(m)
        assert prep.n_qubits == k and gadget.catalyst_wires == range(base, base + k)
        assert not build_hwp(m, 1.0, HwpStrategy.BASELINE).catalyst_wires
        zero = np.zeros((1 << k, thetas.size))
        zero[0] = 1.0
        j = np.arange(1 << k)
        g = sum(((j >> (k - 1 - i)) & 1) << i for i in range(k))
        want = np.exp(1j * np.outer(g, thetas)) / np.sqrt(1 << k)
        assert np.max(np.abs(apply_circuit(zero, prep) - want)) < 1e-14

    def test_zero_angle_is_identity(self):
        gadget = build_hwp(4, np.array([0.7, 0.0]), HwpStrategy.BASELINE)
        diagonal, leakage, off = _family(gadget, 2)
        assert diagonal.shape == leakage.shape == (2, 16) and off == 0.0
        assert np.max(np.abs(diagonal[1] - 1.0)) < 1e-12 and leakage[1].max() < 1e-12
        assert max_unitary_deviation(diagonal[1], np.ones(16)) < 1e-12

    def test_baseline_m2_matches_direct(self):
        theta = np.pi / 7
        gadget = build_hwp(2, np.array([theta, 0.0, -2.0 * theta]), HwpStrategy.BASELINE)
        diagonal, leakage, off = _family(gadget, 3)
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
        # the phase and off-diagonal mutants act on the terms of the lanes
        # the evaluator ran, before they are summed into entries
        m, thetas = 3, np.array((0.913, -2.2, 1.4))
        frame_lanes = verify._frame_lanes

        def mutated(gadget, k):
            row, column, term = frame_lanes(gadget, k)
            if mutant == "phase":
                term = term * np.exp(0.3j)
            elif mutant == "off_diagonal":   # 1e-3 at row 1 of column 0, each member
                row, column = np.insert(row, 0, 1), np.insert(column, 0, 0)
                term = np.insert(term, 0, 1e-3, axis=1)
            return row, column, term

        monkeypatch.setattr(verify, "_frame_lanes", mutated)
        weights = np.array([bin(x).count("1") for x in range(1 << m)])
        targets = np.exp(1j * thetas[:, None] * weights)
        built = (1.0001 if mutant == "angle" else 1.0) * thetas
        for strategy in HwpStrategy:
            gadget = build_hwp(m, built, strategy)
            if mutant == "no_toffoli":
                gadget = gadget._replace(circuit=_without_last(gadget.circuit, GateKind.TOFFOLI))
            elif mutant == "no_gate":
                gadget = gadget._replace(circuit=_without_last(gadget.circuit))
            dense = 0.0
            for u, target in zip(_projected_family(gadget, built), targets):
                if mutant == "phase":
                    u = u * np.exp(0.3j)
                elif mutant == "off_diagonal":
                    u[1, 0] += 1e-3
                dense = max(dense, float(np.max(np.abs(1.0 - np.linalg.norm(u, axis=0)))),
                            max_unitary_deviation(u, np.diag(target)))
            diagonal, leakage, off = _family(gadget, thetas.size)
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
            diagonal, leakage, off = _family(build_hwp(4, thetas, strategy), thetas.size)
            offs = []
            for a, theta in enumerate(thetas):
                alone = _family(build_hwp(4, float(theta), strategy), 1)
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
                gadget = gadget._replace(circuit=_without_last(gadget.circuit, GateKind.TOFFOLI))
            projected = _projected_family(gadget, thetas)
            diagonal, leakage, off = _family(gadget, thetas.size)
            assert np.max(np.abs(diagonal - np.diagonal(projected, axis1=1, axis2=2))) < 1e-13
            norms = np.linalg.norm(projected, axis=1)
            assert np.max(np.abs(leakage - np.abs(1.0 - norms))) < 1e-13
            assert (leakage.max() > 0.1) == broken
            off_diagonal = projected * (1 - np.eye(1 << m))
            assert abs(off - np.max(np.abs(off_diagonal))) < 1e-13

    @pytest.mark.parametrize("thetas", [[0.3, -1.9], (0.3, -1.9)], ids=["list", "tuple"])
    def test_a_sequence_of_angles_builds_the_family(self, thetas):
        # one member per angle, as the array of them builds: a list used to
        # be repeated by each rotation's 1 << i, not scaled, and the
        # plaquette's -2.0 * theta raised TypeError
        array = np.array(thetas)
        for strategy in HwpStrategy:
            built, want = build_hwp(2, thetas, strategy), build_hwp(2, array, strategy)
            for got, expected in zip(_family(built, 2), _family(want, 2)):
                assert np.array_equal(got, expected)
        assert np.array_equal(build_plaquette_evolution(thetas).unitary(),
                              build_plaquette_evolution(array).unitary())

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

    @pytest.mark.parametrize("theta", [0.731, -1e-300, [0.3, -1.7], (2.5, 0.1, -0.4),
                                       np.array([-2.2, 0.6, 7e5])],
                             ids=["float", "tiny", "list", "tuple", "array"])
    def test_the_unit_build_scaled_is_the_build(self, theta):
        # what a verify pass relies on when it builds each shape once, at
        # theta = 1: the builders lay out their rotations at unit angle and
        # scale them, so the unit build scaled is the build, gate for gate
        # and bit for bit, circuit and catalyst preparation
        for m in range(1, 9):
            for strategy in HwpStrategy:
                built, unit = build_hwp(m, theta, strategy), build_hwp(m, 1.0, strategy)
                scaled = unit.scaled(theta)
                assert _gate_records(scaled.circuit) == _gate_records(built.circuit)
                if strategy is HwpStrategy.CATALYZED:
                    assert (_gate_records(scaled.catalyst_prep)
                            == _gate_records(built.catalyst_prep))
                else:
                    assert scaled.catalyst_prep is built.catalyst_prep is None
                assert scaled.counted == unit.counted == built.counted
        assert (_gate_records(build_plaquette_evolution(1.0).scaled(theta))
                == _gate_records(build_plaquette_evolution(theta)))

    @pytest.mark.parametrize("theta", [1e308, [0.5, 1e308]], ids=["float", "family"])
    def test_scaling_refuses_an_angle_that_overflows(self, theta):
        # as append refuses it when the gadget is built at that angle, and
        # with no warning first (the suite makes a RuntimeWarning an error)
        message = r"^rz angle .*inf.* is not finite$"
        for strategy in HwpStrategy:
            unit = build_hwp(4, 1.0, strategy)
            for build in (lambda: build_hwp(4, theta, strategy),
                          lambda: unit.circuit.scaled(theta)):
                with pytest.raises(ValueError, match=message):
                    build()
        with pytest.raises(ValueError, match=message):
            build_plaquette_evolution(1.0).scaled(theta)

    @pytest.mark.parametrize("theta, message", [
        (True, r"^rz needs a real angle .*got True$"),
        ([True, False], r"^rz needs a real angle .*got \[True, False\]$"),
        ("0.5", r"^rz needs a real angle .*got '0.5'$"),
        (None, r"^rz needs a real angle .*got None$"),
        (2 ** 1100, r"^rz angle \d+ is not finite$"),
    ], ids=["bool", "bools", "str", "none", "huge_int"])
    def test_scaling_refuses_what_append_refuses(self, theta, message):
        # theta is checked once, as append checks an angle, before any
        # product: Circuit.rz(0, True) is refused, so is a build at True
        # (a bool used to build at 1.0 or 0.0, a str or None to raise
        # TypeError, and 2**1100 OverflowError)
        with pytest.raises(ValueError):
            Circuit(1).rz(0, theta)
        for build in (lambda: build_hwp(3, theta, HwpStrategy.CATALYZED),
                      lambda: build_hwp(3, 1.0, HwpStrategy.BASELINE).scaled(theta),
                      lambda: build_plaquette_evolution(theta)):
            with pytest.raises(ValueError, match=message):
                build()

    @pytest.mark.parametrize("m", [True, 2.0, "3", None])
    def test_the_builders_refuse_an_m_that_is_not_an_integer(self, m):
        # as the lab takes every integer: a bool is no size, and a float
        # used to reach M.bit_length()
        message = rf"^M {re.escape(repr(m))} is not an integer$"
        for build in (lambda: build_hamming_weight(m),
                      lambda: build_hwp(m, 1.0, HwpStrategy.BASELINE),
                      lambda: build_hwp(m, 1.0, HwpStrategy.CATALYZED)):
            with pytest.raises(ValueError, match=message):
                build()

    def test_a_gadget_checks_its_theta_once(self, monkeypatch):
        # one check of theta serves the circuit and the preparation; only
        # the products are checked one by one
        from lattice_qre.circuitlab import statevector

        checked = []

        def counted(angle):
            checked.append(angle)
            return statevector._rz_angle(angle)
        monkeypatch.setattr(gadgets, "_rz_angle", counted)
        unit = build_hwp(3, 1.0, HwpStrategy.CATALYZED)
        assert checked == [1.0]
        assert (_gate_records(unit.scaled(0.5).catalyst_prep)
                == _gate_records(unit.catalyst_prep.scaled(0.5)))
        assert checked == [1.0, 0.5]

    def test_scaling_reuses_the_other_gates(self):
        circ = build_hwp(3, 1.0, HwpStrategy.BASELINE).circuit
        scaled = circ.scaled(0.25)
        assert scaled is not circ and scaled.n_qubits == circ.n_qubits
        assert all((a is b) == (a.kind is not GateKind.RZ) for a, b in zip(circ.gates, scaled.gates))
        assert [g.angle for g in circ.gates if g.angle is not None] == [1.0, 2.0]

    def test_tallies_at_the_charged_sizes(self):
        # every run size M the Trotter tables charge (L <= 32, up to
        # M = 4,096), both strategies: the tally of the circuit's compute
        # direction is hwp_counts(M), its wires are the M targets plus the
        # workspace, catalyst and borrow registers that total_qubits counts,
        # and on wire masks it computes the phase it is charged for
        sizes = {_hwp_runs(L, size, strategy.batched)[0]
                 for kind, table in TROTTER_TABLES.items() for L in table
                 for size, *_ in _STEPS[kind][1] for strategy in Strategy}
        assert len(sizes) == 46 and max(sizes) == 4096
        for m in sorted(sizes):
            for strategy in HwpStrategy:
                gadget = build_hwp(m, 1.0, strategy)
                catalyzed = strategy is HwpStrategy.CATALYZED
                toffoli, rz = hwp_counts(m, catalyzed)
                assert gadget.counted == (toffoli, 0, rz)
                registers = 2 * m.bit_length() if catalyzed else 0
                assert gadget.circuit.n_qubits == m + hamming_adders(m) + registers
                assert _phasing_identity(gadget) == [], (m, strategy)

    @pytest.mark.parametrize("strategy, mutant, broken", [
        pytest.param(strategy, mutant, broken, id=f"{strategy.value}-{mutant}")
        for strategy, mutant, broken in [
            (HwpStrategy.BASELINE, "no_last_toffoli", {"workspace"}),
            (HwpStrategy.CATALYZED, "no_last_toffoli", {"workspace"}),
            (HwpStrategy.BASELINE, "doubled_rotation", {"phase"}),
            (HwpStrategy.CATALYZED, "doubled_rotation", {"phase"}),
            (HwpStrategy.BASELINE, "swapped_weight_bits", {"phase"}),
            (HwpStrategy.CATALYZED, "swapped_weight_bits", {"catalyst", "phase"}),
            (HwpStrategy.CATALYZED, "catalyst_off_by_one", {"catalyst"}),
        ]])
    def test_phasing_identity_sees_a_broken_charged_gadget(self, monkeypatch, strategy, mutant,
                                                           broken):
        # at a charged size: the uncompute without its last Toffoli leaves
        # the workspace dirty, a repeated last rotation adds a phase, weight
        # bits 0 and 1 swapped phase (or subtract) the wrong weight, and an X
        # on the lowest catalyst wire at the end shifts the catalyst by one
        if mutant == "swapped_weight_bits":
            def swapped(m, n_extra_qubits=0):
                gadget = build_hamming_weight(m, n_extra_qubits)
                outputs = gadget.outputs
                return gadget._replace(outputs=[outputs[1], outputs[0]] + outputs[2:])
            monkeypatch.setattr(gadgets, "build_hamming_weight", swapped)
        m = 1024
        gadget = build_hwp(m, 1.0, strategy)
        gates = gadget.circuit.gates
        if mutant == "no_last_toffoli":
            gadget = gadget._replace(circuit=_without_last(gadget.circuit, GateKind.TOFFOLI))
        elif mutant == "doubled_rotation":
            last = max(i for i, g in enumerate(gates) if g.kind is GateKind.RZ)
            gadget = gadget._replace(circuit=_circuit(gadget.circuit.n_qubits,
                                                      gates[:last + 1] + gates[last:]))
        elif mutant == "catalyst_off_by_one":
            shifted = _circuit(gadget.circuit.n_qubits, gates)
            shifted.x(m + hamming_adders(m))
            gadget = gadget._replace(circuit=shifted)
        failures = _phasing_identity(gadget)
        assert {f.split()[0] for f in failures} == broken, failures

    @pytest.mark.parametrize("m", range(6, 15))
    def test_induced_matrix_beyond_dense_sizes(self, m):
        # exhaustive over the 2**m target states, both strategies, two angles
        # as one family; the catalyzed gadget at m = 14 has 33 qubits and
        # runs on 2**18 lanes of wire masks
        n = build_hwp(m, 1.0, HwpStrategy.CATALYZED).circuit.n_qubits
        if m == 14:
            assert n == 33
        result = verify.check_hwp_unitary(sizes=(m,), n_angles=2)
        assert result.passed, result.max_deviation


def _phasing_identity(gadget, draws=6):
    """What breaks the permutation-and-phase identity of a gadget built at
    theta = 1.0, run on wire masks: the targets hold x, each input in
    8 * 2**k lanes, x in {0, all ones, ``draws`` seeded draws}, and,
    catalyzed, the catalyst wires hold each of the 2**k basis states j (bit
    i on catalyst wire i), every other wire at zero.  Every RZ angle is then
    an integer, so the phase c of a lane is the exact sum of the angles that
    hit it.  Baseline: c = w = HW(x).  Catalyzed: the catalyst ends at
    j' = (j - w) mod 2**k and j + c - j' = w.  The targets must be
    unchanged and every other wire back at zero.  Returns the broken parts,
    one string each; [] when none is."""
    m, circuit = gadget.M, gadget.circuit
    k = m.bit_length()
    rng = random.Random(verify.HWP_ANGLE_SEED + m)
    inputs = [0, (1 << m) - 1] + [rng.getrandbits(m) for _ in range(draws)]
    size = 1 if gadget.catalyst_prep is None else 1 << k
    lanes = len(inputs) * size
    wires = [0] * circuit.n_qubits
    for t, x in enumerate(inputs):   # target wire q holds bit q of x in lanes t*size ...
        block = ((1 << size) - 1) << (t * size)
        for q, bit in enumerate(reversed(f"{x:b}")):
            if bit == "1":
                wires[q] |= block
    lane = np.arange(lanes)
    j, w = lane % size, np.array([x.bit_count() for x in inputs])[lane // size]
    base = m + hamming_adders(m)
    catalyst = range(base, base + k) if size > 1 else range(0)
    for wire, mask in zip(catalyst, _masks([j & (1 << i) for i in range(k)])):
        wires[wire] = mask
    out, hits = _permute(circuit, wires, lanes)
    c = np.zeros(lanes, dtype=np.int64)
    for ((kind, _, angle), _), hit in zip(hits, _lanes([mask for _, mask in hits], lanes)):
        assert kind is GateKind.RZ and float(angle).is_integer()
        c += np.where(hit, int(angle), 0)
    failures = [f"target {q}" for q in range(m) if out[q] != wires[q]]
    failures += [f"workspace {q}" for q in range(m, circuit.n_qubits)
                 if q not in catalyst and out[q]]
    if size > 1:
        shifted = (j - w) % size
        failures += [f"catalyst {i}" for i, (wire, mask) in enumerate(
            zip(catalyst, _masks([shifted & (1 << i) for i in range(k)]))) if out[wire] != mask]
        c += j - shifted
    if not np.array_equal(c, w):
        failures.append("phase")
    return failures


def _family(gadget, k):
    """``verify._hwp_family`` of the k members of a gadget family, read from
    its catalyst frame's lanes (``verify._frame_lanes``, looked up at each
    call, so a patched one is the one read)."""
    return verify._hwp_family(gadget.M, *verify._frame_lanes(gadget, k))


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


def _gate_records(circuit):
    """The circuit's width and its gates, each angle as its type and the
    ``float.hex`` of each of its values, so that equal records mean equal
    gates to the bit."""
    def angle(value):
        return None if value is None else (
            type(value), [float.hex(float(a)) for a in np.atleast_1d(value)])
    return circuit.n_qubits, [(g.kind, g.qubits, angle(g.angle)) for g in circuit.gates]


def _without_last(circuit, kind=None):
    """Copy of ``circuit`` missing its last gate of ``kind`` (of any kind:
    None); an empty circuit stays empty."""
    gates = circuit.gates
    found = [i for i, g in enumerate(gates) if kind is None or g.kind is kind]
    return _circuit(circuit.n_qubits, gates[:found[-1]] + gates[found[-1] + 1:] if found else gates)


def _placed_prep(gadget):
    """The gadget's k-wire catalyst preparation placed on its catalyst
    wires, as a circuit on all of the gadget's wires."""
    first = gadget.catalyst_wires.start
    return _circuit(gadget.circuit.n_qubits, [(kind, tuple(q + first for q in qubits), angle)
                                              for kind, qubits, angle in gadget.catalyst_prep.gates])


def _seeded_targets(sizes):
    """(M, theta, t) for each size, as ``check_catalyst_invariance`` reads
    them: theta is the angle of the family member it reads, the first of
    the ten seeded angles of ``check_hwp_unitary`` in [0.1, 2], and t the
    normalized target state it draws for the size."""
    rng = random.Random(verify.HWP_ANGLE_SEED)
    angles = [rng.uniform(-2.0 * np.pi, 2.0 * np.pi) for _ in range(10)]
    theta = next(angle for angle in angles if 0.1 <= angle <= 2.0)
    rng = random.Random(verify.HWP_ANGLE_SEED + 1)
    for m in sizes:
        target = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << m)])
        yield m, theta, target / np.linalg.norm(target)


def _dense_catalyst_invariance(sizes, build=build_hwp):
    """``check_catalyst_invariance``'s readout from dense states: the same
    seeded gadgets (made by ``build``) and targets t, P†UP composed as one
    circuit, with the preparation placed on the catalyst wires, and applied
    by ``apply_circuit`` to the 2**n-entry state.  A t is read at every
    2**(n - M)-th entry, and the larger of |1 - ||A t||**2| and
    |1 - |<D t, A t>|**2| reported, D the diagonal e^{i*theta*HW(x)}."""
    worst = 0.0
    for m, theta, target in _seeded_targets(sizes):
        gadget = build(m, theta, HwpStrategy.CATALYZED)
        n, prep = gadget.circuit.n_qubits, _placed_prep(gadget)
        framed = Circuit(n)
        for part in (prep, gadget.circuit, prep.inverted()):
            framed.extend(part)
        stride = 1 << (n - m)
        state = np.zeros(stride << m, dtype=complex)
        state[::stride] = target
        image = apply_circuit(state, framed)[::stride]
        weights = np.array([x.bit_count() for x in range(1 << m)])
        overlap = np.vdot(np.exp(1j * theta * weights) * target, image)
        worst = max(worst, abs(1.0 - np.vdot(image, image).real), abs(1.0 - abs(overlap) ** 2))
    return worst


class TestCatalystInvariance:
    def test_runs_on_the_sparse_targets(self, monkeypatch):
        # the only dense states are the catalyst preparations of the ten
        # member families that the unitary check shares with it in a pass,
        # on their k wires, (2**k, 10) arrays; the readout of one member
        # from the catalyst's frame is the dense P†UP reference's within
        # 1e-15, at each size and over the pass's sizes; also for an
        # uncompute without its last Toffoli or CNOT, which leaves garbage
        # in the workspace
        from lattice_qre.circuitlab import statevector

        shapes = []

        def recorded(state, circuit):
            shapes.append((state.shape, circuit.n_qubits))
            return apply_circuit(state, circuit)
        monkeypatch.setattr(verify, "apply_circuit", recorded)
        monkeypatch.setattr(statevector, "apply_circuit", recorded)
        assert verify.check_catalyst_invariance().passed
        assert shapes == [((4, 10), 2), ((4, 10), 2), ((8, 10), 3)]   # M = 2, 3, 5
        for garbage in (None, GateKind.TOFFOLI, GateKind.CNOT):
            def build(m, theta, strategy):
                gadget = build_hwp(m, theta, strategy)
                return gadget if garbage is None else gadget._replace(
                    circuit=_without_last(gadget.circuit, garbage))
            monkeypatch.setattr(verify, "build_hwp", build)
            for sizes in ((2,), (3,), (5,), (2, 3, 5)):
                result = verify.check_catalyst_invariance(sizes)
                assert result.max_deviation == pytest.approx(
                    _dense_catalyst_invariance(sizes, build), rel=0, abs=1e-15)
            assert result.passed == (garbage is None)   # over the pass's sizes

    def test_a_norm_above_one_is_a_deviation(self, monkeypatch):
        # terms scaled by 1 + 1e-6 give ||A t||**2 = (1 + 1e-6)**2 at each
        # size: reported as its distance from 1, not clipped to 0
        frame_lanes = verify._frame_lanes

        def inflated(gadget, k):
            row, column, term = frame_lanes(gadget, k)
            return row, column, term * (1.0 + 1e-6)
        monkeypatch.setattr(verify, "_frame_lanes", inflated)
        result = verify.check_catalyst_invariance()
        assert not result.passed
        assert result.max_deviation == pytest.approx(2e-6 + 1e-12, rel=0, abs=1e-13)

    def test_a_component_orthogonal_to_the_charged_image_is_a_deviation(self, monkeypatch):
        # lanes from column 0 add w = 1e-3 (e_0 - <D t, e_0> D t), orthogonal
        # to D t, to A t at each size, in every member of the family (the
        # check reads one): the overlap with D t does not move, but
        # ||A t||**2 = 1 + ||w||**2 does
        frame_lanes, drawn = verify._frame_lanes, _seeded_targets((2, 3, 5))

        def grown(gadget, k):
            row, column, term = frame_lanes(gadget, k)
            m, theta, target = next(drawn)
            charged = np.exp(1j * theta * np.bitwise_count(np.arange(1 << m))) * target
            w = -1e-3 * charged.conj()[0] * charged
            w[0] += 1e-3
            return (np.append(row, np.arange(1 << m)), np.append(column, np.zeros(1 << m, int)),
                    np.append(term, np.broadcast_to(w / target[0], (k, w.size)), axis=1))
        monkeypatch.setattr(verify, "_frame_lanes", grown)
        result = verify.check_catalyst_invariance()
        assert not result.passed and result.max_deviation > 1e-7

    @pytest.mark.parametrize("mutant", [np.abs, np.conj], ids=["abs", "conj"])
    def test_the_phases_of_the_image_are_a_deviation(self, monkeypatch, mutant):
        # |term| or conj(term) keep ||A t|| = 1, since the gadget acts
        # diagonally on the targets, but not the phases of A t, which the
        # overlap with D t reads
        frame_lanes = verify._frame_lanes

        def mutated(gadget, k):
            row, column, term = frame_lanes(gadget, k)
            return row, column, mutant(term)
        monkeypatch.setattr(verify, "_frame_lanes", mutated)
        result = verify.check_catalyst_invariance()
        assert not result.passed and result.max_deviation > 0.5

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_frame_lanes_match_the_dense_frame(self, m):
        # the lanes' terms, summed per member, row x' and column x, are
        # <x', phi|U|x, phi> from dense states of the whole register, with
        # the k-wire preparation placed on the catalyst wires, for a family
        # of 3 members
        thetas = np.array([0.7, -1.9, 2.6])
        k = thetas.size
        gadget = build_hwp(m, thetas, HwpStrategy.CATALYZED)
        row, column, term = verify._frame_lanes(gadget, k)
        got = np.zeros((k, 1 << m, 1 << m), dtype=complex)
        for a in range(k):
            np.add.at(got[a], (row, column), term[a])
        n, prep = gadget.circuit.n_qubits, _placed_prep(gadget)
        # column x*k + a holds |x, phi_a>, and runs member a
        start = np.zeros((1 << n, k << m), dtype=complex)
        start[np.arange(1 << m).repeat(k) << (n - m), np.arange(k << m)] = 1.0
        framed = apply_circuit(start, prep)
        overlap = framed.conj().T @ apply_circuit(framed, gadget.circuit)
        want = np.stack([overlap[a::k, a::k] for a in range(k)])
        assert np.max(np.abs(got - want)) < 1e-14


class TestMutantsFail:
    """Broken gadgets, swapped in where the checks look them up, must fail."""

    @pytest.mark.parametrize("kind", [GateKind.TOFFOLI, GateKind.CNOT])
    def test_catalyst_invariance_sees_uncompute_garbage(self, monkeypatch, kind):
        # an uncompute without its last Toffoli or CNOT leaves the catalyst
        # wires intact and garbage in the adder workspace
        def broken(m, theta, strategy):
            gadget = build_hwp(m, theta, strategy)
            return gadget._replace(circuit=_without_last(gadget.circuit, kind))
        monkeypatch.setattr(verify, "build_hwp", broken)
        result = verify.check_catalyst_invariance()
        assert not result.passed and result.max_deviation > 0.1

    def test_hwp_missing_uncompute_toffoli(self, monkeypatch):
        def broken(m, theta, strategy):
            gadget = build_hwp(m, theta, strategy)
            return gadget._replace(circuit=_without_last(gadget.circuit, GateKind.TOFFOLI))
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
                    prep = _circuit(prep.n_qubits, prep.gates[1:])
            return gadget._replace(catalyst_prep=prep)
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
        # the H-free circuits' basis outputs on wire masks, one amplitude
        # scaled by 1 + 1e-6 (a factor on lane 3 alone) or basis column 1
        # sent where column 0 goes
        def broken(circuit, index):
            index, hits = _evaluate(circuit, index)
            if mutant == "amplitude_scaled":
                hits.append((1 + 1e-6, (np.arange(index.size) == 3).astype(np.uint8)))
            else:
                index[1] = index[0]
            return index, hits
        monkeypatch.setattr(verify, "_evaluate", broken)
        result = verify.check_unitarity()
        assert not result.passed
        assert (result.max_deviation == np.inf) == (mutant == "two_columns_on_one_index")

    def test_adder_chain_missing_last_gate(self, monkeypatch):
        def broken(m):
            gadget = build_hamming_weight(m)
            return gadget._replace(circuit=_without_last(gadget.circuit))
        monkeypatch.setattr(verify, "build_hamming_weight", broken)
        assert not verify.check_hamming_weight().passed

    @pytest.mark.parametrize("max_bits", [1, 8])
    @pytest.mark.parametrize("mutant", ["dropped_output", "phase"])
    def test_adder_chain_wrong_outputs(self, monkeypatch, mutant, max_bits):
        # the chain is intact but its outputs list lost its top weight wire
        # (at m = 1 none is left), or a T on the lowest weight wire phases
        # every odd weight
        def broken(m):
            gadget = build_hamming_weight(m)
            if mutant == "dropped_output":
                return gadget._replace(outputs=gadget.outputs[:-1])
            gadget.circuit.t(gadget.outputs[0])
            return gadget
        monkeypatch.setattr(verify, "build_hamming_weight", broken)
        assert not verify.check_hamming_weight(max_bits).passed


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


def _pairwise_car_deviation(ops):
    """``fermion._car_deviation`` as it was formed before the row-wise one:
    the products of all (i, j) pairs at once, as (n, n, d, d) arrays."""
    a = np.stack(ops)
    if not a.imag.any():
        a = np.ascontiguousarray(a.real)
    n, dim = a.shape[:2]
    dag = np.ascontiguousarray(a.conj().transpose(0, 2, 1))
    product = a[:, None] @ a[None, :]
    anti = product + product.transpose(1, 0, 2, 3)
    mixed = a[:, None] @ dag[None, :] + dag[None, :] @ a[:, None]
    diagonal = np.arange(n)
    mixed[diagonal, diagonal] -= np.eye(dim)
    return tuple(np.abs(x).reshape(n, n, -1).max(axis=2) for x in (anti, mixed))


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

    @pytest.mark.parametrize("n", range(1, 6))
    def test_row_wise_products_equal_the_pairwise_ones(self, monkeypatch, n):
        # the (n, d, d) products of one row i at a time give the (n, n)
        # deviations of the (n, n, d, d) products of all pairs at once, to
        # the bit: the valid operators, and each mode's with its first sign
        # flipped, for which the oracle names the first failing pair in
        # (i, j) order of the pairwise deviations (a lone mode, n = 1, stays
        # valid with its sign flipped)
        valid = [FermionOracle(n).a(j) for j in range(n)]
        got = fermion._car_deviation(valid)
        assert all(np.array_equal(a, b) for a, b in zip(got, _pairwise_car_deviation(valid)))
        assert all(x.shape == (n, n) and not x.any() for x in got)
        tol = fermion.CAR_TOLERANCE
        for mode in range(n):
            ops = [op.copy() for op in valid]
            _flip_first_sign(ops[mode])
            anti, mixed = _pairwise_car_deviation(ops)
            got = fermion._car_deviation(ops)
            assert np.array_equal(got[0], anti) and np.array_equal(got[1], mixed)
            monkeypatch.setattr(FermionOracle, "_annihilation", lambda self, j, ops=ops: ops[j])
            failing = np.argwhere((anti > tol) | (mixed > tol))
            assert (failing.size == 0) == (n == 1)
            if n == 1:
                assert FermionOracle(n).car_deviation == 0.0
            else:
                i, j = failing[0]
                name = (rf"\{{a_{i}, a_{j}\}} != 0" if anti[i, j] > tol
                        else rf"\{{a_{i}, a_{j}\^dag\}} != delta")
                with pytest.raises(AssertionError, match=name):
                    FermionOracle(n)
            monkeypatch.undo()

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


def _counted_builds(monkeypatch):
    """Count the calls of the two builders ``verify`` shares within a pass,
    by name, with the builders themselves behind the count."""
    builds = {"build_hwp": 0, "build_plaquette_evolution": 0}
    for name in builds:
        def counted(*args, name=name, build=getattr(verify, name)):
            builds[name] += 1
            return build(*args)
        monkeypatch.setattr(verify, name, counted)
    return builds


def _without_last_toffoli(m, theta, strategy):
    """``build_hwp`` with an uncompute missing its last Toffoli."""
    gadget = build_hwp(m, theta, strategy)
    return gadget._replace(circuit=_without_last(gadget.circuit, GateKind.TOFFOLI))


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
        # the three H-free circuits run on wire masks from their basis
        # states, and the (row, column, amp) triples, each amp the product of
        # the factors that hit its lane in gate order, are exactly the
        # nonzeros of their dense unitaries; only the plaquette, which has H,
        # forms U densely
        seen = []

        def recorded(circuit, index):
            seen.append((circuit, index, _evaluate(circuit, index)))
            return seen[-1][2]
        monkeypatch.setattr(verify, "_evaluate", recorded)
        assert verify.check_unitarity().passed
        assert len(seen) == 3
        for circ, column, (index, hits) in seen:
            assert all(g.kind is not GateKind.H for g in circ.gates)
            amp = _phased(np.ones(index.size, dtype=complex), hits)
            u = circ.unitary()
            rows, columns = np.nonzero(u)
            assert dict(zip(zip(rows.tolist(), columns.tolist()), u[rows, columns].tolist())) \
                == dict(zip(zip(index.tolist(), column.tolist()), amp.tolist()))

    def test_no_circuit_runs_twice_in_a_pass(self, monkeypatch):
        # every apply_circuit and _evaluate call of a pass, keyed by its
        # circuit's gate layout and its input's shape: 8 dense applications
        # of 108 gates and 19 evaluations of 470 gates.  No key repeats but
        # the catalyst preparations: those of M = 2 and 3 (k = 2) are one
        # circuit, and so are those of M = 4 and 5 (k = 3).  The next pass
        # runs every key again, as often
        from lattice_qre.circuitlab import statevector

        def layout(circuit):
            return circuit.n_qubits, tuple((g.kind, g.qubits) for g in circuit.gates)
        runs = Counter()

        def dense(state, circuit):
            runs["dense", layout(circuit), np.shape(state)] += 1
            return apply_circuit(state, circuit)

        def lanes(circuit, index):
            runs["lanes", layout(circuit), np.shape(index)] += 1
            return _evaluate(circuit, index)
        monkeypatch.setattr(verify, "apply_circuit", dense)
        monkeypatch.setattr(statevector, "apply_circuit", dense)
        monkeypatch.setattr(verify, "_evaluate", lanes)
        assert all(r.passed for r in verify.run_all())
        one_pass = runs.copy()
        for kernel, calls, gates in (("dense", 8, 108), ("lanes", 19, 470)):
            assert sum(n for key, n in runs.items() if key[0] == kernel) == calls
            assert sum(n * len(key[1][1]) for key, n in runs.items() if key[0] == kernel) == gates
        preps = [build_hwp(m, 1.0, HwpStrategy.CATALYZED).catalyst_prep for m in (2, 4)]
        assert {key: n for key, n in runs.items() if n > 1} == {
            ("dense", layout(prep), (1 << prep.n_qubits, 10)): 2 for prep in preps}
        assert all(r.passed for r in verify.run_all())
        assert runs == one_pass + one_pass

    def test_a_check_alone_reads_what_it_reads_in_a_pass(self, circuit_checks):
        # what a pass shares, each check called on its own makes afresh, to
        # the same deviation by float.hex: catalyst invariance the HWP
        # families' frames, unitarity and the plaquette check the plaquette
        # family's unitary
        for check in verify.ALL_CHECKS:
            alone = check()
            assert (float.hex(alone.max_deviation)
                    == float.hex(circuit_checks.results[alone.name].max_deviation)), alone.name

    def test_one_build_per_gadget_family(self, monkeypatch):
        # called on its own, the HWP check builds each (M, strategy) once
        # and scales it to all ten angles, and the plaquette check builds its
        # circuit once for all five
        builds = _counted_builds(monkeypatch)
        assert verify.check_hwp_unitary().passed
        assert builds == {"build_hwp": 8, "build_plaquette_evolution": 0}
        assert verify.check_plaquette().passed
        assert builds == {"build_hwp": 8, "build_plaquette_evolution": 1}

    def test_a_pass_builds_each_gadget_shape_once(self, monkeypatch):
        # the checks of one pass share one build of each HWP shape, ten
        # (M, strategy) pairs, and one plaquette, all at unit angle; the next
        # pass builds its own
        builds = _counted_builds(monkeypatch)
        assert all(r.passed for r in verify.run_all())
        assert builds == {"build_hwp": 10, "build_plaquette_evolution": 1}
        assert all(r.passed for r in verify.run_all())
        assert builds == {"build_hwp": 20, "build_plaquette_evolution": 2}

    def test_no_gadget_outlives_its_pass(self, monkeypatch):
        # after a pass, finished or ended by a raising check, a check called
        # on its own builds its (here broken) gadgets afresh
        def raising():
            raise RuntimeError("check crashed")

        assert all(r.passed for r in verify.run_all())
        monkeypatch.setattr(verify, "ALL_CHECKS",
                            (verify.check_hwp_unitary, verify.check_plaquette, raising))
        with pytest.raises(RuntimeError, match="check crashed"):
            verify.run_all()
        monkeypatch.setattr(verify, "build_hwp", _without_last_toffoli)
        monkeypatch.setattr(verify, "build_plaquette_evolution",
                            lambda theta: build_plaquette_evolution(1.0001 * theta))
        assert not verify.check_hwp_unitary().passed
        assert not verify.check_plaquette().passed

    def test_a_broken_builder_fails_a_pass(self, monkeypatch):
        # the shapes a pass shares come from the builder swapped in
        monkeypatch.setattr(verify, "build_hwp", _without_last_toffoli)
        failed = {r.name for r in verify.run_all() if not r.passed}
        assert failed == {"hwp_unitary", "catalyst_invariance"}

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
