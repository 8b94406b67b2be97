"""Circuit builders for the gadgets the cost model counts.

Uncomputation of adders and borrow chains is modeled unitarily (inverse
Toffolis); the cost model credits uncomputation as measurement-plus-
Clifford, so the phasing gadget reports the counted cost alongside the
circuit, tallied from the gates it appends before the uncompute starts: the
forward adders, phase-gradient additions, and rotations.  The other
builders have no uncompute and return plain circuits, whose gates are the
tally.
"""

from __future__ import annotations

from collections import namedtuple

from ..primitives import CostVector, HwpStrategy, hamming_adders
from .statevector import Circuit, _qubit, _rz_angle

# ---------------------------------------------------------------------------
# Adders and Hamming-weight computation
# ---------------------------------------------------------------------------


def half_adder(circ: Circuit, a: int, b: int, carry: int) -> None:
    """(a, b, 0) -> (a, a XOR b, a AND b); one Toffoli."""
    circ.toffoli(a, b, carry)
    circ.cnot(a, b)


def full_adder(circ: Circuit, a: int, b: int, c: int, carry: int) -> None:
    """(a, b, c, 0) -> (a, b, a XOR b XOR c, MAJ(a, b, c)); one Toffoli."""
    circ.cnot(a, b)
    circ.cnot(a, c)
    circ.toffoli(b, c, carry)
    circ.cnot(a, carry)
    circ.cnot(b, c)
    circ.cnot(a, c)
    circ.cnot(a, b)


# The compute direction of the adder chain and its weight bits, least
# significant first.
HammingWeightGadget = namedtuple("HammingWeightGadget", "circuit outputs")


def build_hamming_weight(M: int, n_extra_qubits: int = 0) -> HammingWeightGadget:
    """Chain of half/full adders summing M one-bit inputs, on wires 0..M-1,
    into their weight.

    Uses exactly ``hamming_adders(M) = M - popcount(M)`` adders (one Toffoli
    each), writing each carry into a fresh ancilla, the wires from M on.
    ``n_extra_qubits`` reserves trailing wires for callers that extend the
    circuit.
    """
    M = _qubit(M, "M")
    n_anc = hamming_adders(M)
    circ = Circuit(M + n_anc + n_extra_qubits)
    next_free = M
    outputs = []

    bits = list(range(M))  # wires holding weight-1 bits
    while bits:
        # the running sum moves onto the last wire each adder reads; bits[i:]
        # are still unread
        carries, total, i = [], bits[0], 1
        while i < len(bits):
            carry = next_free
            next_free += 1
            if i + 1 < len(bits):
                full_adder(circ, total, bits[i], bits[i + 1], carry)
                total, i = bits[i + 1], i + 2
            else:
                half_adder(circ, total, bits[i], carry)
                total, i = bits[i], i + 1
            carries.append(carry)
        outputs.append(total)
        bits = carries

    assert next_free == M + n_anc
    return HammingWeightGadget(circ, outputs)


# ---------------------------------------------------------------------------
# Hamming-weight phasing
# ---------------------------------------------------------------------------


class HwpGadget(namedtuple("HwpGadget", "circuit catalyst_prep M counted")):
    """A ``build_hwp`` layer of ``M`` rotations, on the wires ``build_hwp``
    lays out: the full application (compute, phase, uncompute), the catalyst
    preparation (None for a baseline gadget), and the ``CostVector`` tally
    of the gates before the uncompute.  The preparation is a circuit on the
    k = M.bit_length() catalyst wires alone, its wire i the gadget's wire
    ``catalyst_wires[i]``."""

    __slots__ = ()

    @property
    def catalyst_wires(self) -> range:
        """The gadget's catalyst wires, where ``build_hwp`` places them:
        just above its k borrow wires, which are the last wires (none for a
        baseline gadget)."""
        k = 0 if self.catalyst_prep is None else self.catalyst_prep.n_qubits
        return range(self.circuit.n_qubits - 2 * k, self.circuit.n_qubits - k)

    def scaled(self, theta) -> "HwpGadget":
        """The gadget with the RZ angles of its circuit and preparation
        multiplied by ``theta`` (``Circuit.scaled``), which is checked once
        for both; the tally is the shape's, whatever the angle."""
        theta, prep = _rz_angle(theta), self.catalyst_prep
        return self._replace(circuit=self.circuit._scaled(theta),
                             catalyst_prep=None if prep is None else prep._scaled(theta))


def _phase_gradient(circ: Circuit, weight: list[int], catalyst: list[int],
                    borrows: list[int]) -> dict[str, int]:
    """Kick the phase e^{i*w} back from the catalyst register (unit angle).

    Subtracts the weight register from the catalyst modulo 2^k via a borrow
    ripple (k Toffolis), fixes the modular wrap with one rotation on the
    final borrow, then uncomputes the borrows through the carry chain of
    the complementary addition (the uncompute direction is free in the
    cost model).  Returns ``circ.counts()`` where the uncompute starts.
    """
    k = len(weight)

    def majority_into(u: int, v: int, w: int | None, target: int) -> None:
        # target ^= MAJ(u, v, w); u, v restored.  w = None means w = 0.
        if w is None:
            circ.toffoli(u, v, target)
            return
        circ.cnot(w, u)
        circ.cnot(w, v)
        circ.toffoli(u, v, target)
        circ.cnot(w, target)
        circ.cnot(w, v)
        circ.cnot(w, u)

    # borrows of (catalyst - weight)
    for i in range(k):
        prev = borrows[i - 1] if i else None
        circ.x(catalyst[i])
        majority_into(catalyst[i], weight[i], prev, borrows[i])
        circ.x(catalyst[i])
    # difference bits, in place on the catalyst
    for i in range(k):
        circ.cnot(weight[i], catalyst[i])
        if i:
            circ.cnot(borrows[i - 1], catalyst[i])
    # wrap correction: the final borrow flags catalyst + weight >= 2^k
    circ.rz(borrows[k - 1], 1 << k)
    # borrows equal the carries of (difference + weight); uncompute top-down
    counts = circ.counts()
    for i in range(k - 1, -1, -1):
        prev = borrows[i - 1] if i else None
        majority_into(catalyst[i], weight[i], prev, borrows[i])
    return counts


def build_hwp(M: int, theta, strategy: HwpStrategy) -> HwpGadget:
    """One layer of M same-angle phase rotations via Hamming-weight phasing.

    The induced action on the M target qubits, wires 0..M-1, is
    diag(e^{i*theta*HW(x)}), i.e. a tensor power of single-qubit phase
    rotations.  The adder workspace follows (``build_hamming_weight``) and,
    catalyzed, the k = M.bit_length() catalyst wires, then k borrow wires.
    Every wire but the targets returns to |0>, the catalyst wires in the
    frame of their preparation: the catalyst state returns unchanged.  A 1-D
    ``theta`` (an array, list or tuple) builds the family of these gadgets,
    one per angle.  The gadget is laid out at unit angle, each rotation at
    2**i, and scaled by ``theta`` (``HwpGadget.scaled``), so
    ``build_hwp(M, 1.0, strategy).scaled(theta)`` is this build to the bit.
    """
    M = _qubit(M, "M")
    catalyzed = HwpStrategy(strategy) is HwpStrategy.CATALYZED
    k = M.bit_length()
    hw = build_hamming_weight(M, n_extra_qubits=2 * k if catalyzed else 0)
    circ = hw.circuit
    uncompute = circ.inverted()
    prep = None
    if catalyzed:
        base = M + hamming_adders(M)
        catalyst = list(range(base, base + k))
        borrows = list(range(base + k, base + 2 * k))
        prep = Circuit(k)
        for i in range(k):
            prep.h(i)
            prep.rz(i, 1 << i)
        # the adder chain always yields exactly k weight bits
        assert len(hw.outputs) == k
        counts = _phase_gradient(circ, hw.outputs, catalyst, borrows)
    else:
        for i, wire in enumerate(hw.outputs):
            circ.rz(wire, 1 << i)
        counts = circ.counts()
    circ.extend(uncompute)
    counted = CostVector(float(counts["toffoli"]), float(counts["t"]), counts["rz"])
    return HwpGadget(circ, prep, M, counted).scaled(theta)


# ---------------------------------------------------------------------------
# Fermionic swaps and the two-site Fourier transform
# ---------------------------------------------------------------------------


def adjacent_fswap(circ: Circuit, i: int) -> None:
    """Exchange neighbouring modes i, i+1: a swap plus a phase fix."""
    circ.swap(i, i + 1)
    circ.cz(i, i + 1)


def build_fswap(n_modes: int, i: int, j: int) -> Circuit:
    """Fermionic swap of modes i < j on a register of n_modes wires.

    Non-adjacent pairs are composed from 2(j - i) - 1 adjacent swaps:
    shift mode i up to j, then shift the displaced mode j back down to i,
    leaving the modes in between untouched.
    """
    if not 0 <= i < j < n_modes:
        raise ValueError(f"need 0 <= i < j < n_modes, got {i}, {j}, {n_modes}")
    circ = Circuit(n_modes)
    for p in range(i, j):
        adjacent_fswap(circ, p)
    for p in range(j - 2, i - 1, -1):
        adjacent_fswap(circ, p)
    return circ


def controlled_h(circ: Circuit, control: int, target: int) -> None:
    """Controlled Hadamard via two T gates and Cliffords."""
    circ.s(target)
    circ.h(target)
    circ.t(target)
    circ.cnot(control, target)
    circ.tdg(target)
    circ.h(target)
    circ.sdg(target)


def two_site_fourier(circ: Circuit, a: int, b: int) -> None:
    """Fourier transform of two adjacent modes (wires a, b); two T gates.

    Self-inverse; fixes |00>, phases |11> by -1, and rotates the
    single-particle block so that mode a maps to (a + b)/sqrt(2) and
    mode b to (a - b)/sqrt(2).
    """
    circ.cnot(b, a)
    controlled_h(circ, a, b)
    circ.cnot(b, a)
    circ.cz(a, b)


def xx_plus_yy_rotation(circ: Circuit, a: int, b: int) -> None:
    """exp(i*(XX + YY)) on wires a, b: Cliffords plus two rotations, laid
    out at unit angle; scaled by theta (``Circuit.scaled``) it is
    exp(i*theta*(XX + YY))."""
    # exp(i XX)
    circ.h(a); circ.h(b)
    circ.cnot(a, b)
    circ.rz(b, -2.0)
    circ.cnot(a, b)
    circ.h(a); circ.h(b)
    # exp(i YY) = (S ⊗ S) exp(i XX) (S ⊗ S)^dag
    circ.sdg(a); circ.sdg(b)
    circ.h(a); circ.h(b)
    circ.cnot(a, b)
    circ.rz(b, -2.0)
    circ.cnot(a, b)
    circ.h(a); circ.h(b)
    circ.s(a); circ.s(b)


def build_plaquette_evolution(theta) -> Circuit:
    """Evolution under one plaquette hopping generator on four modes.

    The basis change (fermionic swaps and two two-site Fourier pairs)
    diagonalizes the generator into two same-angle rotations on the middle
    mode pair.  Counted cost: eight T gates and two rotations.  A 1-D
    ``theta`` (an array, list or tuple) builds the family of these
    evolutions, one per angle.  It is laid out at unit angle and scaled
    (``Circuit.scaled``), as ``build_hwp`` is.
    """
    circ = Circuit(4)
    basis_change = Circuit(4)
    adjacent_fswap(basis_change, 1)          # modes 2,3
    two_site_fourier(basis_change, 0, 1)
    two_site_fourier(basis_change, 2, 3)
    adjacent_fswap(basis_change, 0)          # modes 1,2

    circ.extend(basis_change)
    xx_plus_yy_rotation(circ, 1, 2)
    circ.extend(basis_change.inverted())
    return circ.scaled(theta)
