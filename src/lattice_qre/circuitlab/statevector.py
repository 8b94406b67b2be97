"""Simulation of small Clifford+T+rotation circuits, on sparse or dense
states.

``simulate`` takes a batch of states as three aligned arrays: ``index``
(basis index), ``amp`` (amplitude) and ``column`` (the batch member an
entry belongs to).  It works on one int64 key ``column << n | index`` per
entry from input to output.  X, CNOT, Toffoli and SWAP are XORs of the
keys; a diagonal gate multiplies each entry by a factor picked by its hit,
``(key & mask) == mask``.  H finds each entry's partner (key ^ bit): one
sort puts partners side by side, a pair's h = amp/sqrt2 give h0 + h1 and
h0 - h1, and exact zeros drop.  An H whose bit no key has cannot merge:
each entry just splits in two, without a sort.  Entry order is not part of
the result.

A circuit without H sends each basis state to one basis state with a
phase.  ``_evaluate`` runs one on wire masks (``_permute``): each basis
state is a lane, each wire one Python int whose bit l is the wire's value
in lane l, X, CNOT, Toffoli and SWAP are one int operation each, and each
diagonal gate records its hit mask.  It converts in bulk: one
``unpackbits`` of the indices' bytes and one ``packbits`` of the (wires,
lanes) bit matrix, a byte per bit, form the masks, one ``unpackbits`` reads
back the wires the circuit changed, and one more the hit masks.
``_phased`` is the one place those factors enter amplitudes: it
multiplies them in gate order and in place, as ``simulate`` does.  The
gadgets the cost model counts are mostly of this kind: X, CNOT, Toffoli
and RZ.  ``verify`` runs on it the adder chains, the H-free circuits of
its unitarity check, and the Hamming-weight phasing (HWP) gadgets in
their catalyst's frame: for the catalyst state |phi> = P|0>,
<x', phi|U|x, phi> = sum_{e, e'} conj(phi_e') phi_e <x', e'|U|x, e>, so
only the preparation P is simulated, and U runs once on x (x) supp(phi),
since its permutation does not depend on the angle.  Both HWP checks
read that frame, so no check simulates P†.

Qubit 0 is the most significant bit of the basis index, matching the
Kronecker-product ordering used by the fermionic operator oracle.  RZ here
is the phase-gate convention diag(1, e^{i*angle}); it differs from the
symmetric convention only by a global phase, and every equivalence check
in this package is up to global phase.

An RZ gate carries one angle, or a 1-D array with one angle per
member of a family: the same gadget at k angles is then one circuit, built
once, whose batch column c runs member ``c % k``, and whose ``unitary()``
is a stack of k matrices.  The per-gate work is paid once for all members.

A gate is a plain ``(kind, qubits, angle)`` record, checked once, where it
enters a ``Circuit`` through ``append``: its kind (a ``GateKind`` or its
value, such as ``"cnot"``), the number of its qubits, which must be
distinct integers on the circuit's wires, and an angle, finite, for RZ
alone, a real number (stored as a float; a bool is refused) or a 1-D
array.  ``extend`` appends a circuit on at most as many wires, and
``inverted`` reverses one; both reuse gates already checked, so composing
circuits does no per-gate work.  ``scaled`` multiplies every RZ angle by
theta, which it checks once as ``append`` checks an angle, and checks
each product; the gadget builders lay out their rotations at unit angle
and return them scaled, so a gadget built once at theta = 1 serves every
angle.

``apply_circuit`` runs a circuit on dense states, a (2**n, batch) array of
at most 15 qubits, and ``Circuit.unitary`` on the identity's columns, for
matrices of at most 10.  Every entry is present there, so nothing merges:
X, CNOT, Toffoli and SWAP move each row's basis index as ``simulate``
moves its keys, a diagonal gate multiplies the rows it hits, and H is a
butterfly on the rows in index order, forming the sums ``simulate`` forms,
so the unitaries of a ``verify`` pass are the sparse route's bit for bit.
The form of the input picks the kernel: the dense unitaries go through
``apply_circuit``, the catalyst preparations, sparse, through
``simulate``.  A circuit given to
``simulate`` or ``_evaluate`` may be larger, up to the 62 bits of a
(column, index) key.  ``_permute`` itself has no such limit: the tests run
the HWP gadget of every size the estimator charges on it, up to M = 4,096
(8,217 wires catalyzed).
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
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


def _phase(kind: GateKind, angle):
    """The factor a diagonal gate multiplies where it hits: a number, or
    for RZ a 1-D array, one factor per family member (one for a float)."""
    phase = _PHASE.get(kind)
    return np.exp(1j * np.atleast_1d(angle)) if phase is None else phase


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


# RZ's angle is one real number, or a 1-D array of them, one per family member
Gate = namedtuple("Gate", "kind qubits angle")


def _rz_angle(angle):
    """An RZ angle as a gate stores it: a float (an int, a ``Fraction`` or a
    numpy scalar converted; a bool refused), or a non-empty 1-D real array;
    a non-finite one is refused, naming it."""
    if type(angle) is float:
        pass
    elif isinstance(angle, Real) and not isinstance(angle, bool):   # ABC after float
        try:   # an int, a Fraction or a numpy scalar, simulated as the float it is
            angle = float(angle)
        except OverflowError:
            raise ValueError(f"rz angle {angle!r} is not finite") from None
    else:
        given, angle = angle, np.asarray(angle)
        if angle.ndim != 1 or angle.size == 0 or angle.dtype.kind not in "iuf":
            raise ValueError(f"rz needs a real angle or a non-empty 1-D array of them, "
                             f"got {given!r}")
    if not (np.isfinite(angle).all() if isinstance(angle, np.ndarray) else math.isfinite(angle)):
        raise ValueError(f"rz angle {angle!r} is not finite")
    return angle


class Circuit:
    """Gates on ``n_qubits`` wires.  A gate enters through ``append``, which
    checks it; ``extend`` and ``inverted`` reuse gates already checked."""

    def __init__(self, n_qubits: int):
        self.n_qubits = _qubit(n_qubits, "n_qubits")
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be at least 1")
        self.gates: list[Gate] = []

    def append(self, kind: GateKind, *qubits: int, angle=None) -> None:
        if type(kind) is not GateKind:
            try:
                kind = GateKind(kind)
            except ValueError:
                raise ValueError(f"unknown gate kind {kind!r}") from None
        n = self.n_qubits
        for q in qubits:   # plain ints pass as they are; the rest convert, then pass again
            if type(q) is not int:
                return self.append(kind, *map(_qubit, qubits), angle=angle)
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} out of range")
        arity = _ARITY[kind]
        if len(qubits) != arity:
            raise ValueError(f"{kind.value} expects {arity} qubits")
        if arity > 1 and (qubits[0] == qubits[1] or qubits[-1] in qubits[:-1]):
            raise ValueError("gate qubits must be distinct")
        if (kind is RZ) != (angle is not None):
            raise ValueError(f"angle mismatch for {kind.value}")
        self.gates.append(Gate(kind, qubits, None if angle is None else _rz_angle(angle)))

    def extend(self, other: "Circuit") -> None:
        """Append the gates of ``other``, a circuit on at most as many wires,
        as they are: its ``append`` checked them."""
        if not isinstance(other, Circuit):
            raise TypeError(f"extend takes a Circuit, got {type(other).__name__}")
        if other.n_qubits > self.n_qubits:
            raise ValueError(f"a {other.n_qubits}-qubit circuit does not fit "
                             f"on {self.n_qubits} qubits")
        self.gates += other.gates

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
        """The gates in reverse, each inverted; a gate that is its own
        inverse is reused as it is."""
        out = Circuit(self.n_qubits)
        out.gates = [gate if gate.angle is None and gate.kind not in _INVERSE else
                     Gate(_INVERSE.get(gate.kind, gate.kind), gate.qubits,
                          None if gate.angle is None else -gate.angle)
                     for gate in reversed(self.gates)]
        return out

    def scaled(self, theta) -> "Circuit":
        """A copy in which each RZ angle is multiplied by ``theta``, the
        other gates reused.  ``theta`` is checked once as ``append`` checks
        an angle, so it is a real number (a bool refused) or a non-empty
        1-D sequence of them, one per family member (a list or tuple too,
        not a list to repeat); each product is checked again, so one that
        overflows is refused, not warned about.  The gadget builders lay
        out their rotations at unit angle and return them scaled, so a
        build at unit angle scaled by theta is the build at theta."""
        return self._scaled(_rz_angle(theta))

    def _scaled(self, theta) -> "Circuit":
        """``scaled`` by a ``theta`` that ``_rz_angle`` already checked, so
        that a gadget of several circuits checks its theta once."""
        out = Circuit(self.n_qubits)
        with np.errstate(over="ignore"):   # _rz_angle refuses an inf product; no warning first
            out.gates = [gate if gate.angle is None else
                         Gate(RZ, gate.qubits, _rz_angle(gate.angle * theta))
                         for gate in self.gates]
        return out

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


def _masks(bits: np.ndarray) -> list[int]:
    """The rows of ``bits``, a (wires, lanes) array of 0s and 1s, as wire
    masks, one int each whose bit l is lane l's value; one ``packbits``."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    step = 8 * packed.shape[1]   # the bits of one row, lane 0 lowest
    whole, row = int.from_bytes(packed.tobytes(), "little"), (1 << step) - 1
    return [(whole >> (r * step)) & row for r in range(len(packed))]


def _lanes(masks: list[int], lanes: int) -> np.ndarray:
    """The wire masks ``masks`` over ``lanes`` lanes as a (len(masks), lanes)
    uint8 array of 0s and 1s; one ``unpackbits``."""
    width = (lanes + 7) >> 3
    packed = np.frombuffer(b"".join(mask.to_bytes(width, "little") for mask in masks), np.uint8)
    return np.unpackbits(packed.reshape(len(masks), width), axis=1, count=lanes,
                         bitorder="little")


def _permute(circuit, wires: list[int], lanes: int):
    """Run the H-free ``circuit`` on wire masks: ``wires[q]`` is an int
    whose bit l is wire q's value in lane l, for ``lanes`` lanes.  X, CNOT,
    Toffoli and SWAP are one int operation each.  Returns the output wires
    and, in gate order, each diagonal gate (S, T, their inverses, CZ and RZ)
    with its hit mask, the lanes where all its qubits are set.  An H has no
    basis state to send a lane to: it raises ``ValueError``, naming it."""
    wires = list(wires)
    every = (1 << lanes) - 1
    hits = []
    for gate in circuit.gates:
        kind, qubits, _ = gate
        if kind is CNOT:
            wires[qubits[1]] ^= wires[qubits[0]]
        elif kind is TOFFOLI:
            a, b, t = qubits
            wires[t] ^= wires[a] & wires[b]
        elif kind is X:
            wires[qubits[0]] ^= every
        elif kind is SWAP:
            a, b = qubits
            wires[a], wires[b] = wires[b], wires[a]
        elif kind is H:
            raise ValueError(f"h on qubit {qubits[0]} is not a permutation of basis states")
        else:
            hits.append((gate, wires[qubits[0]] & wires[qubits[-1]]))
    return wires, hits


def _evaluate(circuit, index):
    """Run the H-free ``circuit`` on the basis states ``index``, integers in
    [0, 2**n), one lane each, on wire masks (``_permute``).  Returns each
    lane's output basis index, an int64 array, and, in gate order, each
    diagonal gate's factor (``_phase``) with its hit lanes, an array of 0s
    and 1s.  The conversions are in bulk: one ``unpackbits`` of the
    indices' bytes and one ``packbits`` of the (wires, lanes) bit matrix, a
    byte per bit, form the masks, one ``unpackbits`` reads back the wires
    the circuit changed, and one more the hit masks.  Like
    ``simulate``, it takes at most 62 qubits, and refuses non-integer or
    out-of-range indices."""
    n = circuit.n_qubits
    if n > _KEY_BITS:
        raise ValueError(f"{n} qubits exceed {_KEY_BITS}-bit indices")
    index = _integers(index, "index")
    if index.min(initial=0) < 0 or index.max(initial=0) >= 1 << n:
        raise ValueError(f"basis index or column out of range for {n} qubits")
    lanes = index.size
    # each lane's index bits, one byte each, from its little-endian bytes:
    # (lanes, n), column j for index bit j, so qubit q's row is n - 1 - q
    bits = np.unpackbits(index.astype("<i8", copy=False).view(np.uint8).reshape(lanes, 8),
                         axis=1, count=n, bitorder="little")
    before = _masks(np.ascontiguousarray(bits.T[::-1]))
    after, hits = _permute(circuit, before, lanes)
    changed = [q for q in range(n) if before[q] != after[q]]
    if changed:   # flip each changed wire's bit in the lanes where it changed
        bit = 1 << (n - 1 - np.array(changed))   # qubit 0 is the top index bit
        index = index ^ bit @ _lanes([before[q] ^ after[q] for q in changed], lanes)
    return index, [(_phase(kind, angle), hit) for ((kind, _, angle), _), hit
                   in zip(hits, _lanes([mask for _, mask in hits], lanes))]


def _phased(amp, hits, column=0):
    """A copy of ``amp`` times ``_evaluate``'s diagonal factors ``hits``
    where they hit, in gate order, lane i taking member ``column[i] % k`` of
    an RZ of k angles (``column`` broadcasts against ``amp``: a (k, 1)
    column for a (k, lanes) ``amp`` gives row a member a): in place, as
    ``simulate`` multiplies, since numpy's in-place complex product can
    round otherwise than one into a new array.  ``amp`` stays as it was."""
    amp = np.array(amp, dtype=complex)
    for phase, hit in hits:
        if np.size(phase) > 1:   # one factor per family member
            phase = phase[column % phase.size]
        amp *= np.where(hit, phase, 1.0)
    return amp


def _permuted(key, kind, qubits, bits) -> bool:
    """X, CNOT, Toffoli or SWAP applied in place to the basis indices in the
    low bits of ``key``, qubit q's bit being ``bits[q]``: True; any other
    kind leaves ``key`` as it is: False."""
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
    else:
        return False
    return True


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
    for kind, qubits, angle in circuit.gates:
        if kind is H:
            key, amp = _hadamard(key, amp, bits[qubits[0]])
            member = None
        elif not _permuted(key, kind, qubits, bits):   # diagonal: each entry's phase, else 1
            mask = bits[qubits[0]] | bits[qubits[-1]]   # CZ's two bits, or one
            phase = _phase(kind, angle)
            if kind is RZ and phase.size > 1:   # one angle per family member
                if member is None:
                    if k is None:   # members() raises if array angles differ in length
                        k = circuit.members()
                    member = (key >> n) % k
                phase = phase.take(member)
            amp *= np.where((key & mask) == mask, phase, 1.0)
    return key & ((1 << n) - 1), amp, key >> n


def apply_circuit(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Apply ``circuit`` to dense states: ``state`` has shape (2**n,) or
    (2**n, batch), with n at most ``MAX_DENSE_QUBITS``, and a numeric dtype
    (any other, such as a string one, raises ``ValueError``); batch column
    c runs family member ``c % k`` as in ``simulate``.  Row i holds basis
    state ``key[i]``, which X, CNOT, Toffoli and SWAP move as ``simulate``
    moves its keys.  A diagonal gate multiplies every row in place, by 1
    where it misses, as ``simulate`` multiplies.  H puts the rows back in
    index order and forms h0 + h1 and h0 - h1 of each pair, h = amp/sqrt2,
    the two-term sums of ``simulate``'s merge."""
    n = circuit.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense states limited to {MAX_DENSE_QUBITS} qubits, got {n}")
    state = np.asarray(state)
    if state.dtype.kind not in "biufc":
        raise ValueError(f"amplitudes must be numbers, got dtype {state.dtype}")
    if state.ndim not in (1, 2) or state.shape[0] != 1 << n:
        raise ValueError(f"expected shape (2**{n},) or (2**{n}, batch), got {state.shape}")
    amp = np.array(state.reshape(1 << n, -1), dtype=complex, order="C")
    key, ordered = np.arange(1 << n), True   # row i holds basis state key[i]
    bits = [1 << (n - 1 - q) for q in range(n)]   # qubit 0 is the top index bit
    member = None   # each column's family member, column % k, at the first RZ family
    for kind, qubits, angle in circuit.gates:
        if kind is H:   # rows in index order: qubit q pairs (.., 0, ..) with (.., 1, ..)
            if not ordered:
                amp[key] = amp.copy()
                key, ordered = np.arange(1 << n), True
            half = _SQRT_HALF * amp.reshape(1 << qubits[0], 2, -1)
            h0, h1 = half[:, 0], half[:, 1]
            amp = np.concatenate((h0 + h1, h0 - h1), axis=1).reshape(1 << n, -1)
        elif _permuted(key, kind, qubits, bits):
            ordered = False
        else:   # diagonal: each row's phase where it hits, else 1
            mask = bits[qubits[0]] | bits[qubits[-1]]   # CZ's two bits, or one
            phase = _phase(kind, angle)
            if kind is RZ and phase.size > 1:   # one angle per family member
                if member is None:   # members() raises if array angles differ in length
                    member = np.arange(amp.shape[1]) % circuit.members()
                phase = phase.take(member)
            amp *= np.where(((key & mask) == mask)[:, None], phase, 1.0)
    amp[key] = amp.copy()
    return amp.reshape(state.shape)


def max_unitary_deviation(u: np.ndarray, v: np.ndarray) -> float:
    """Max entrywise distance between u and v after removing a global phase
    (u/v where |v| is largest, if within 1e-6 of unit modulus); a stack of
    matrices, shape (k, rows, columns), has one phase per member."""
    u, v = (np.reshape(a, (len(a) if np.ndim(a) == 3 else 1, -1)) for a in (u, v))
    at = np.argmax(np.abs(v), axis=1, keepdims=True)
    phase = np.take_along_axis(u, at, 1) / np.take_along_axis(v, at, 1)
    phase[np.abs(np.abs(phase) - 1.0) > 1e-6] = 1.0
    return float(np.max(np.abs(u - phase * v)))
