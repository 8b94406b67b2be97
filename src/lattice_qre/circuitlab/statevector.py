"""Sparse simulation of small Clifford+T+rotation circuits.

``simulate`` carries a batch of states as three aligned arrays: ``index``
(basis index), ``amp`` (amplitude) and ``column`` (the batch member an
entry belongs to).  The gadgets the cost model counts are X, CNOT, Toffoli
and phase gates, which map each entry to one entry, so a basis input stays
a single entry however many qubits the gadget has; H, which appears only
in basis changes and the catalyst preparation, pairs entries by one sort.

Qubit 0 is the most significant bit of the basis index, matching the
Kronecker-product ordering used by the fermionic operator oracle.  RZ here
is the phase-gate convention diag(1, e^{i*angle}); it differs from the
symmetric convention only by a global phase, and every equivalence check
in this package is up to global phase.

An RZ gate carries one angle, or a 1-D array with one angle per
member of a family: the same gadget at k angles is then one circuit, built
once, whose batch column c runs member ``c % k``, and whose ``unitary()``
is a stack of k matrices.  The per-gate work is paid once for all members.

Dense arrays appear only at the boundary: ``apply_circuit`` takes
statevectors of at most 15 qubits (the catalyzed HWP gadget at M = 5,
14 qubits, in ``check_catalyst_invariance``) and ``Circuit.unitary``
matrices of at most 10.  A circuit itself may be larger, up to the 62 bits
of a (column, index) key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from numbers import Real

import numpy as np

MAX_DENSE_QUBITS = 15
MAX_DENSE_UNITARY_QUBITS = 10
_KEY_BITS = 62


class GateKind(str, Enum):
    X = "x"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    RZ = "rz"
    CNOT = "cnot"
    CZ = "cz"
    SWAP = "swap"
    TOFFOLI = "toffoli"


_ARITY = {
    GateKind.X: 1, GateKind.H: 1, GateKind.S: 1, GateKind.SDG: 1,
    GateKind.T: 1, GateKind.TDG: 1, GateKind.RZ: 1,
    GateKind.CNOT: 2, GateKind.CZ: 2, GateKind.SWAP: 2,
    GateKind.TOFFOLI: 3,
}

_INVERSE = {
    GateKind.S: GateKind.SDG, GateKind.SDG: GateKind.S,
    GateKind.T: GateKind.TDG, GateKind.TDG: GateKind.T,
}

_SQRT_HALF = 1.0 / np.sqrt(2.0)

_PHASE = {   # the diagonal gates without an angle
    GateKind.S: 1j, GateKind.SDG: -1j,
    GateKind.T: np.exp(0.25j * np.pi), GateKind.TDG: np.exp(-0.25j * np.pi),
    GateKind.CZ: -1.0,
}


@dataclass(frozen=True, eq=False)   # equal only to itself: array angles have no truth value
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | np.ndarray | None = None   # RZ: one, or one per family member

    def __post_init__(self):
        if len(self.qubits) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind.value} expects {_ARITY[self.kind]} qubits")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate qubits must be distinct")
        if (self.kind is GateKind.RZ) != (self.angle is not None):
            raise ValueError(f"angle mismatch for {self.kind.value}")
        if self.angle is not None and not isinstance(self.angle, Real):
            angle = np.asarray(self.angle)
            if angle.ndim != 1 or angle.size == 0 or angle.dtype.kind not in "iuf":
                raise ValueError(f"{self.kind.value} needs a real angle or a non-empty "
                                 f"1-D array of them, got {self.angle!r}")
            object.__setattr__(self, "angle", angle)

    def inverse(self) -> "Gate":
        if self.kind in _INVERSE:
            return Gate(_INVERSE[self.kind], self.qubits)
        if self.angle is not None:
            return Gate(self.kind, self.qubits, -self.angle)
        return self  # self-inverse


@dataclass
class Circuit:
    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be at least 1")

    def append(self, kind: GateKind, *qubits: int, angle=None) -> None:
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"qubit {q} out of range")
        self.gates.append(Gate(kind, tuple(qubits), angle))

    def extend(self, gates) -> None:
        """Append ``gates`` as they are: a ``Gate`` validated its own kind,
        arity and angle when it was made, so only the qubit range is left."""
        gates = list(gates)
        for g in gates:
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"qubit {q} out of range")
        self.gates.extend(gates)

    def x(self, q): self.append(GateKind.X, q)
    def h(self, q): self.append(GateKind.H, q)
    def s(self, q): self.append(GateKind.S, q)
    def sdg(self, q): self.append(GateKind.SDG, q)
    def t(self, q): self.append(GateKind.T, q)
    def tdg(self, q): self.append(GateKind.TDG, q)
    def rz(self, q, angle): self.append(GateKind.RZ, q, angle=angle)
    def cnot(self, c, t): self.append(GateKind.CNOT, c, t)
    def cz(self, a, b): self.append(GateKind.CZ, a, b)
    def swap(self, a, b): self.append(GateKind.SWAP, a, b)
    def toffoli(self, c1, c2, t): self.append(GateKind.TOFFOLI, c1, c2, t)

    def inverted(self) -> "Circuit":
        inv = Circuit(self.n_qubits)
        inv.gates = [g.inverse() for g in reversed(self.gates)]
        return inv

    def counts(self) -> dict[str, int]:
        out = {"toffoli": 0, "t": 0, "rz": 0, "swap": 0}
        for g in self.gates:
            if g.kind is GateKind.TOFFOLI:
                out["toffoli"] += 1
            elif g.kind in (GateKind.T, GateKind.TDG):
                out["t"] += 1
            elif g.kind is GateKind.RZ:
                out["rz"] += 1
            elif g.kind is GateKind.SWAP:
                out["swap"] += 1
        return out

    def unitary(self) -> np.ndarray:
        """Dense matrix of the circuit; a family whose array angles have length
        k gives a (k, 2**n, 2**n) stack, one matrix per member."""
        if self.n_qubits > MAX_DENSE_UNITARY_QUBITS:
            raise ValueError(f"dense unitary limited to {MAX_DENSE_UNITARY_QUBITS} qubits")
        dim, k = 1 << self.n_qubits, self.members()
        # column b*k + a holds basis state b under member a
        u = apply_circuit(np.repeat(np.eye(dim, dtype=complex), k or 1, axis=1), self)
        return u if k is None else u.reshape(dim, dim, k).transpose(2, 0, 1)

    def members(self) -> int | None:
        """The family size k, the one length of every array angle, or None
        when all angles are numbers.  Raises ``ValueError`` when array angles
        differ in length: such a circuit has no member count."""
        sizes = {g.angle.size for g in self.gates if isinstance(g.angle, np.ndarray)}
        if len(sizes) > 1:
            raise ValueError(f"family angles of lengths {sorted(sizes)}: no member count")
        return sizes.pop() if sizes else None


def zero_state(n_qubits: int) -> np.ndarray:
    state = np.zeros(1 << n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def _hadamard(index, amp, column, n: int, shift: int):
    """H on the qubit at bit ``shift``: a stable sort of the keys with that
    bit cleared puts each entry next to its partner (index ^ bit), if any; a
    pair's h = amp/sqrt2 give h0 + h1 and h0 - h1, and exact zeros drop."""
    bit = 1 << shift
    key = (column << n) | (index & ~bit)
    order = np.argsort(key, kind="stable")
    key, half = key[order], _SQRT_HALF * amp[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    start = np.flatnonzero(first)
    key = np.concatenate((key[start], key[start] | bit))
    amp = np.concatenate((np.add.reduceat(half, start),
                          np.add.reduceat(np.where(index[order] & bit, -half, half), start)))
    keep = amp != 0
    key = key[keep]
    return key & ((1 << n) - 1), amp[keep], key >> n


def simulate(circuit, index, amp, column):
    """Apply ``circuit`` to a sparse batch of states.

    Entry i is amplitude ``amp[i]`` on basis state ``index[i]`` of batch
    column ``column[i]``; absent entries are zero.  Returns new
    ``(index, amp, column)`` arrays.  X, CNOT, Toffoli and SWAP move each
    entry to one new index, and the diagonal gates multiply ``amp`` where
    their qubits are all set; only H changes the number of entries.  Keys
    that are distinct on input stay distinct, and H drops exact zeros.

    An RZ gate multiplies the entries it hits in column c by
    e^{i*angle[c % len(angle)]}: a circuit whose angles are arrays of length
    k is a family of k circuits, and column c runs member ``c % k``.  A
    float angle is a family of one.  Array angles of different lengths
    raise ``ValueError`` (see ``Circuit.members``).
    """
    n = circuit.n_qubits
    circuit.members()
    index = np.array(index, dtype=np.int64).ravel()
    amp = np.array(amp, dtype=complex).ravel()
    column = np.array(column, dtype=np.int64).ravel()
    if not index.size == amp.size == column.size:
        raise ValueError("index, amp and column must have the same length")
    if n + int(column.max(initial=0)).bit_length() > _KEY_BITS:
        raise ValueError(f"{n} qubits and batch {column.max() + 1} exceed {_KEY_BITS}-bit keys")
    if np.any(index < 0) or np.any(index >= 1 << n) or np.any(column < 0):
        raise ValueError(f"basis index or column out of range for {n} qubits")
    for gate in circuit.gates:
        kind = gate.kind
        shift = [n - 1 - q for q in gate.qubits]   # qubit 0 is the top index bit
        if kind is GateKind.H:
            index, amp, column = _hadamard(index, amp, column, n, shift[0])
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
                amp[hit] *= _PHASE[kind]
            else:
                phase = np.exp(1j * np.atleast_1d(gate.angle))
                amp[hit] *= phase[column[hit] % phase.size]
    return index, amp, column


def apply_circuit(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Dense boundary of ``simulate``: ``state`` has shape (2**n,) or
    (2**n, batch), with n at most ``MAX_DENSE_QUBITS``; batch column c runs
    family member ``c % k`` as in ``simulate``."""
    n = circuit.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense states limited to {MAX_DENSE_QUBITS} qubits, got {n}")
    state = np.asarray(state)
    if state.ndim not in (1, 2) or state.shape[0] != 1 << n:
        raise ValueError(f"expected shape (2**{n},) or (2**{n}, batch), got {state.shape}")
    columns = state.reshape(1 << n, -1)
    index, column = np.nonzero(columns)
    index, amp, column = simulate(circuit, index, columns[index, column], column)
    out = np.zeros(columns.shape, dtype=complex)
    out[index, column] = amp
    return out.reshape(state.shape)


def max_unitary_deviation(u: np.ndarray, v: np.ndarray) -> float:
    """Max entrywise distance between u and v after removing a global phase
    (u/v where |v| is largest, if within 1e-6 of unit modulus); a stack of
    matrices, shape (k, rows, columns), has one phase per member."""
    u, v = (np.reshape(a, (len(a) if np.ndim(a) == 3 else 1, -1)) for a in (u, v))
    at = np.argmax(np.abs(v), axis=1, keepdims=True)
    phase = np.take_along_axis(u, at, 1) / np.take_along_axis(v, at, 1)
    phase[np.abs(np.abs(phase) - 1.0) > 1e-6] = 1.0
    return float(np.max(np.abs(u - phase * v)))
