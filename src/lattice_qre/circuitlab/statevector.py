"""Sparse simulation of small Clifford+T+rotation circuits.

``simulate`` takes a batch of states as three aligned arrays: ``index``
(basis index), ``amp`` (amplitude) and ``column`` (the batch member an
entry belongs to), and works on one int64 key ``column << n | index`` per
entry from input to output.  X, CNOT, Toffoli and SWAP are XORs of the
keys; a diagonal gate multiplies each entry by a factor picked by its hit,
``(key & mask) == mask``.  The gadgets the cost model counts are mostly
these gates, which map each entry to one entry, so a basis input stays a
single entry however many qubits the gadget has.  H finds each entry's
partner (key ^ bit): one sort puts partners side by side, a pair's
h = amp/sqrt2 give h0 + h1 and h0 - h1, and exact zeros drop.  An H whose
bit no key has cannot merge: each entry just splits in two, without a
sort.  Entry order is not part of the result.

Qubit 0 is the most significant bit of the basis index, matching the
Kronecker-product ordering used by the fermionic operator oracle.  RZ here
is the phase-gate convention diag(1, e^{i*angle}); it differs from the
symmetric convention only by a global phase, and every equivalence check
in this package is up to global phase.

An RZ gate carries one angle, or a 1-D array with one angle per
member of a family: the same gadget at k angles is then one circuit, built
once, whose batch column c runs member ``c % k``, and whose ``unitary()``
is a stack of k matrices.  The per-gate work is paid once for all members.

Dense arrays appear only at the boundary: ``Circuit.unitary`` forms
matrices of at most 10 qubits, and ``apply_circuit``, public API that no
check of ``verify`` calls on a state (each runs ``simulate`` on sparse
inputs), takes statevectors of at most 15.  A circuit itself may be
larger, up to the 62 bits of a (column, index) key.
"""

from __future__ import annotations

import operator
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


# the members by plain name: ``GateKind.H`` goes through the enum class's
# attribute lookup, and the kernel and the builders name a kind per gate
X, H, S, SDG, T, TDG, RZ, CNOT, CZ, SWAP, TOFFOLI = GateKind

_ARITY = {
    X: 1, H: 1, S: 1, SDG: 1, T: 1, TDG: 1, RZ: 1,
    CNOT: 2, CZ: 2, SWAP: 2,
    TOFFOLI: 3,
}

_INVERSE = {S: SDG, SDG: S, T: TDG, TDG: T}

_SQRT_HALF = 1.0 / np.sqrt(2.0)

# the phases of the diagonal gates without an angle, CZ's complex too: every
# factor is then complex, 1 + 0j where a gate misses, and an entry's product
# is the same complex multiply, signed zeros included, whichever gate it is
_PHASE = {S: 1j, SDG: -1j, T: np.exp(0.25j * np.pi), TDG: np.exp(-0.25j * np.pi), CZ: -1 + 0j}


_PLAIN_INT = {int}


def _qubit(q, name: str = "qubit") -> int:
    """``q`` through ``operator.index``; a bool (an int to Python, but no
    wire number or count) or anything without ``__index__`` is refused,
    naming it."""
    if not isinstance(q, bool):
        try:
            return operator.index(q)
        except TypeError:
            pass
    raise ValueError(f"{name} {q!r} is not an integer")


@dataclass(frozen=True, eq=False, init=False)   # equal only to itself: array angles have no truth value
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | np.ndarray | None = None   # RZ: one, or one per family member

    def __init__(self, kind: GateKind, qubits, angle=None):
        # the builders make a gate per call: plain ints and floats take the
        # short way through the checks (``_qubit`` runs only on qubits that
        # are not all ints), and the fields are written straight into the
        # instance dict rather than by one frozen setattr each
        qubits = tuple(qubits)
        if set(map(type, qubits)) != _PLAIN_INT:
            qubits = tuple(map(_qubit, qubits))
        arity = _ARITY[kind]
        if len(qubits) != arity:
            raise ValueError(f"{kind.value} expects {arity} qubits")
        if arity > 1 and (qubits[0] == qubits[1] or qubits[-1] in qubits[:-1]):
            raise ValueError("gate qubits must be distinct")
        if (kind is RZ) != (angle is not None):
            raise ValueError(f"angle mismatch for {kind.value}")
        if angle is not None and not isinstance(angle, (float, int)) \
                and not isinstance(angle, Real):   # the ABC check only for the rest
            given, angle = angle, np.asarray(angle)
            if angle.ndim != 1 or angle.size == 0 or angle.dtype.kind not in "iuf":
                raise ValueError(f"{kind.value} needs a real angle or a non-empty "
                                 f"1-D array of them, got {given!r}")
        fields = self.__dict__
        fields["kind"], fields["qubits"], fields["angle"] = kind, qubits, angle

    def inverse(self) -> "Gate":
        kind = self.kind
        if kind in _INVERSE:
            return Gate(_INVERSE[kind], self.qubits)
        if self.angle is not None:
            return Gate(kind, self.qubits, -self.angle)
        return self  # self-inverse


@dataclass
class Circuit:
    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        self.n_qubits = _qubit(self.n_qubits, "n_qubits")
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be at least 1")

    def append(self, kind: GateKind, *qubits: int, angle=None) -> None:
        gate = Gate(kind, qubits, angle)
        self._check_range(gate)
        self.gates.append(gate)

    def extend(self, gates) -> None:
        """Append ``gates`` as they are: a ``Gate`` validated its own kind,
        arity, qubits and angle when it was made, so only the qubit range
        is left."""
        gates = list(gates)
        for g in gates:
            self._check_range(g)
        self.gates.extend(gates)

    def _check_range(self, gate: Gate) -> None:
        n = self.n_qubits
        for q in gate.qubits:
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} out of range")

    def x(self, q): self.append(X, q)
    def h(self, q): self.append(H, q)
    def s(self, q): self.append(S, q)
    def sdg(self, q): self.append(SDG, q)
    def t(self, q): self.append(T, q)
    def tdg(self, q): self.append(TDG, q)
    def rz(self, q, angle): self.append(RZ, q, angle=angle)
    def cnot(self, c, t): self.append(CNOT, c, t)
    def cz(self, a, b): self.append(CZ, a, b)
    def swap(self, a, b): self.append(SWAP, a, b)
    def toffoli(self, c1, c2, t): self.append(TOFFOLI, c1, c2, t)

    def inverted(self) -> "Circuit":
        return Circuit(self.n_qubits, [g.inverse() for g in reversed(self.gates)])

    def counts(self) -> dict[str, int]:
        kinds = [g.kind for g in self.gates]
        return {"toffoli": kinds.count(TOFFOLI), "t": kinds.count(T) + kinds.count(TDG),
                "rz": kinds.count(RZ), "swap": kinds.count(SWAP)}

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


def _hadamard(key, amp, bit: int):
    """H on the key bit ``bit``, with h = amp/sqrt2 per entry.  When no key
    has the bit, nothing merges: each entry splits in two, into (h, h),
    without a sort.  Otherwise a sort of the keys with that bit cleared puts
    each entry next to its partner (key ^ bit), if any, and a pair's h give
    h0 + h1 and h0 - h1.  Each sum has at most two terms, which add alike
    in either order, so any sort pairs them alike; the stable one is the
    fastest on the sorted runs that earlier gates leave in the keys.  Exact
    zeros drop."""
    half = _SQRT_HALF * amp
    if not (key & bit).any():
        key, amp = np.concatenate((key, key | bit)), np.concatenate((half, half))
    else:
        low = key & ~bit
        order = np.argsort(low, kind="stable")
        low, half = low[order], half[order]
        # each group's first entry, where the sorted keys with the bit cleared change
        start = np.flatnonzero(np.concatenate(((True,), low[1:] != low[:-1])))
        signed = np.where(key[order] & bit, -half, half)
        low = low[start]
        key = np.concatenate((low, low | bit))
        amp = np.concatenate((np.add.reduceat(half, start), np.add.reduceat(signed, start)))
    keep = amp != 0
    if not keep.all():
        key, amp = key[keep], amp[keep]
    return key, amp


def _integers(values, name: str) -> np.ndarray:
    """``values`` as a flat int64 array; an array of any other kind (a float,
    bool or object one) is refused, naming it, rather than truncated.  An
    empty input is empty whatever its kind."""
    values = np.asarray(values).ravel()
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {values.dtype}")
    return values.astype(np.int64)


def simulate(circuit, index, amp, column):
    """Apply ``circuit`` to a sparse batch of states.

    Entry i is amplitude ``amp[i]`` on basis state ``index[i]`` of batch
    column ``column[i]``; absent entries are zero.  Returns new
    ``(index, amp, column)`` arrays.  X, CNOT, Toffoli and SWAP move each
    entry to one new index, and the diagonal gates multiply ``amp`` where
    their qubits are all set; only H changes the number of entries.  Keys
    that are distinct on input stay distinct, and H drops exact zeros.
    ``index`` and ``column`` must be integer arrays: any other kind raises
    ``ValueError``.

    An RZ gate multiplies the entries it hits in column c by
    e^{i*angle[c % len(angle)]}: a circuit whose angles are arrays of length
    k is a family of k circuits, and column c runs member ``c % k``.  A
    float angle is a family of one.  Array angles of different lengths
    raise ``ValueError`` (see ``Circuit.members``).
    """
    n = circuit.n_qubits
    index, column = _integers(index, "index"), _integers(column, "column")
    amp = np.array(amp, dtype=complex).ravel()
    if not index.size == amp.size == column.size:
        raise ValueError("index, amp and column must have the same length")
    if n + int(column.max(initial=0)).bit_length() > _KEY_BITS:
        raise ValueError(f"{n} qubits and batch {column.max() + 1} exceed {_KEY_BITS}-bit keys")
    if index.min(initial=0) < 0 or index.max(initial=0) >= 1 << n or column.min(initial=0) < 0:
        raise ValueError(f"basis index or column out of range for {n} qubits")
    key = (column << n) | index
    bits = [1 << (n - 1 - q) for q in range(n)]   # qubit 0 is the top index bit
    k = None        # the family size, found at the first RZ of more than one angle
    member = None   # each entry's family member, column % k, until an H reorders the entries
    for gate in circuit.gates:
        kind, qubits = gate.kind, gate.qubits
        if kind is CNOT:   # the control's bit moved onto the target's
            c, t = qubits
            moved = key >> (t - c) if t > c else key << (c - t)
            moved &= bits[t]
            key ^= moved
        elif kind is TOFFOLI:
            mask = bits[qubits[0]] | bits[qubits[1]]
            key ^= ((key & mask) == mask) * bits[qubits[2]]
        elif kind is X:
            key ^= bits[qubits[0]]
        elif kind is SWAP:   # where the two bits differ, flip both
            a, b = sorted(qubits)
            differ = (key ^ (key >> (b - a))) & bits[b]
            key ^= differ | (differ << (b - a))
        elif kind is H:
            key, amp = _hadamard(key, amp, bits[qubits[0]])
            member = None
        else:   # diagonal: each entry's phase where it hits, else 1
            mask = bits[qubits[0]] | bits[qubits[-1]]   # CZ's two bits, or one
            phase = _PHASE.get(kind)
            if phase is None:   # RZ: one angle, or one per family member
                phase = np.exp(1j * np.atleast_1d(gate.angle))
                if phase.size > 1:
                    if member is None:
                        if k is None:   # members() raises if array angles differ in length
                            k = circuit.members()
                        member = (key >> n) % k
                    phase = phase.take(member)
            amp *= np.where((key & mask) == mask, phase, 1.0)
    return key & ((1 << n) - 1), amp, key >> n


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
