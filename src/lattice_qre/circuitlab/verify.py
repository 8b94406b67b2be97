"""Verification suite tying the built circuits back to the cost model.

Each check reports its worst observed deviation against a threshold (inf
when the fermion oracle refuses its operators); the CLI serializes the
results as JSON and fails on any check that misses its threshold.

A pass, ``run_all``, builds the fermion oracle of each size once (2, 4
and 5 modes) and every check of the pass reads that one; the oracles go
with the pass, so each pass verifies the anticommutation relations anew.
A check called on its own builds its oracles afresh.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
from dataclasses import asdict, dataclass

import numpy as np

from ..primitives import HwpStrategy, hamming_adders, hwp_counts
from .fermion import CAR_TOLERANCE, FermionOracle
from .gadgets import (
    build_fswap,
    build_hamming_weight,
    build_hwp,
    build_plaquette_evolution,
    two_site_fourier,
)
from .statevector import (
    H,
    Circuit,
    apply_circuit,  # noqa: F401  no check calls it; perfbench's tracer wraps verify.apply_circuit
    max_unitary_deviation,
    simulate,
)

HWP_ANGLE_SEED = 20240811


@dataclass
class CheckResult:
    name: str
    max_deviation: float
    threshold: float
    seconds: float = 0.0      # wall time of the check, set by ``_check``

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.threshold

    def as_dict(self) -> dict:
        d = asdict(self)
        d["passed"] = self.passed
        return d


def _check(name: str, threshold: float):
    """A check of the suite: the decorated function returns its worst
    deviation, and the check times it and returns it as
    ``CheckResult(name, worst, threshold, seconds)``.  An
    ``AssertionError`` raised on the way (the fermion oracle refuses an
    operator that breaks the anticommutation relations) is a deviation of
    inf, so a broken oracle gives a failing report, not a traceback."""
    def decorate(measure):
        @functools.wraps(measure)
        def check(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            try:
                worst = measure(*args, **kwargs)
            except AssertionError:
                worst = math.inf
            return CheckResult(name, worst, threshold, time.perf_counter() - start)
        return check
    return decorate


def _hamming_weights(m: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << m))


@_check("hamming_weight", 1e-12)
def check_hamming_weight(max_bits: int = 8) -> float:
    """Exhaustive basis check of the adder chain for every input width."""
    worst = 0.0
    for m in range(1, max_bits + 1):
        gadget = build_hamming_weight(m)
        if gadget.circuit.counts()["toffoli"] != hamming_adders(m):
            return math.inf
        n = gadget.circuit.n_qubits
        x, wire = np.arange(1 << m), np.arange(m)
        # input bit i of x goes to wire i; wire w is bit (n-1-w) of the index
        index = (((x[:, None] >> wire) & 1) << (n - 1 - wire)).sum(axis=1)
        index, amp, column = simulate(gadget.circuit, index, np.ones(x.size), x)
        out_bit = n - 1 - np.array(gadget.outputs)   # the index bit of each output wire
        weight = (((index[:, None] >> out_bit) & 1) << np.arange(out_bit.size)).sum(axis=1)
        dev = np.where(weight == _hamming_weights(m)[column], np.abs(amp - 1.0), 1.0)
        worst = max(worst, float(dev.max()))
    return worst


def _in_catalyst_frame(gadget) -> Circuit:
    """P†UP for the gadget's circuit U and catalyst preparation P, so that
    <x', phi|U|x, phi> = <x', 0|P†UP|x, 0> with every other wire at zero;
    the bare circuit for a baseline gadget, whose reference is all zeros."""
    prep = gadget.catalyst_prep
    if prep is None:
        return gadget.circuit
    return Circuit(prep.n_qubits, prep.gates + gadget.circuit.gates + prep.inverted().gates)


def _hwp_family(gadget, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Induced action on the targets of each of the k members of a gadget
    family (``build_hwp`` at k angles) when the other wires start and end in
    the gadget's reference state (the catalyst state, or all zeros): the
    members' diagonals and leakages |1 - column norm|, both (k, 2**M), and
    the largest |entry| off any diagonal.  One simulation of P†UP on the
    inputs x (x) 0 runs the family, batch column x*k + a holding target x of
    member a; the induced matrix is the outputs whose environment is zero."""
    m = gadget.M
    env_bits = gadget.circuit.n_qubits - m
    column = np.arange(k << m)
    index, amp, column = simulate(_in_catalyst_frame(gadget), (column // k) << env_bits,
                                  np.ones(column.size), column)
    kept = (index & ((1 << env_bits) - 1)) == 0
    row, amp, column = index[kept] >> env_bits, amp[kept], column[kept]
    on = row == column // k
    diagonal = np.zeros(k << m, dtype=complex)
    diagonal[column[on]] = amp[on]
    norm = np.sqrt(np.bincount(column, np.abs(amp) ** 2, minlength=k << m))
    return (diagonal.reshape(1 << m, k).T, np.abs(1.0 - norm).reshape(1 << m, k).T,
            float(np.abs(amp[~on]).max(initial=0.0)))


@_check("hwp_unitary", 1e-9)
def check_hwp_unitary(sizes=(2, 3, 4, 5), n_angles: int = 10) -> float:
    """Both phasing strategies act as a tensor power of phase rotations:
    exhaustively over the 2**M target states, against the diagonal
    e^{i*theta*HW(x)}.  Each (M, strategy) is built once, as the family of
    its gadgets at all the angles, simulated once and compared at once."""
    rng = random.Random(HWP_ANGLE_SEED)
    angles = np.array([rng.uniform(-2.0 * math.pi, 2.0 * math.pi) for _ in range(n_angles)])
    worst = 0.0
    for m in sizes:
        targets = np.exp(1j * angles[:, None] * _hamming_weights(m))
        for strategy in HwpStrategy:
            diagonal, leakage, off = _hwp_family(build_hwp(m, angles, strategy), n_angles)
            worst = max(worst, float(leakage.max()), off,
                        max_unitary_deviation(diagonal[:, None], targets[:, None]))
    return worst


@_check("hwp_tallies", 0.0)
def check_hwp_tallies(sizes=(1, 2, 3, 4, 5)) -> float:
    """Toffoli/rotation tallies read from the built circuits match hwp_counts."""
    worst = 0.0
    for m in sizes:
        for strategy in HwpStrategy:
            counted = build_hwp(m, 0.731, strategy).counted
            toffoli, rz = hwp_counts(m, strategy is HwpStrategy.CATALYZED)
            worst = max(worst, abs(counted.toffoli - toffoli), abs(counted.rz - rz))
    return worst


@_check("catalyst_invariance", 1e-12)
def check_catalyst_invariance(sizes=(2, 3, 5)) -> float:
    """Every wire outside the targets comes back unentangled and unchanged,
    the catalyst register in its state |phi> and the workspace at zero: with
    rho_in pure, tr(rho_in rho_out) is the probability that P†UP, run on
    (target) (x) |0>, leaves all those wires at zero.  The targets are the
    top wires, so the sparse state holds only the target's 2**M entries,
    and the probability is summed in target order, as over a dense state."""
    rng = random.Random(HWP_ANGLE_SEED + 1)
    worst = 0.0
    for m in sizes:
        theta = rng.uniform(0.1, 2.0)
        gadget = build_hwp(m, theta, HwpStrategy.CATALYZED)
        env_bits = gadget.circuit.n_qubits - m
        # arbitrary fixed target state entangling all weight sectors
        target = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << m)])
        index, amp, _ = simulate(_in_catalyst_frame(gadget), np.arange(1 << m) << env_bits,
                                 target / np.linalg.norm(target), np.zeros(1 << m, dtype=np.int64))
        kept = (index & ((1 << env_bits) - 1)) == 0
        landed = np.bincount(index[kept] >> env_bits, np.abs(amp[kept]) ** 2, minlength=1 << m)
        worst = max(worst, 1.0 - float(landed.sum()))
    return worst


def _conjugation_deviation(u: np.ndarray, oracle: FermionOracle, targets) -> float:
    """max over the modes i of max |U a_i U† - targets[i]|."""
    u_dagger = u.conj().T
    return max(float(np.max(np.abs(u @ oracle.a(i) @ u_dagger - target)))
               for i, target in enumerate(targets))


_oracles = None   # n -> FermionOracle(n) while ``run_all`` runs a pass


def _oracle(n: int) -> FermionOracle:
    """The pass's one oracle of n modes while ``run_all`` runs; otherwise a
    new one on every call."""
    if _oracles is None:
        return FermionOracle(n)
    if n not in _oracles:
        _oracles[n] = FermionOracle(n)
    return _oracles[n]


@_check("fswap", 1e-12)
def check_fswap() -> float:
    """Fermionic swaps exchange their two modes, and the long-range one is
    built from 2(j - i) - 1 adjacent swaps."""
    oracle = _oracle(2)
    u = build_fswap(2, 0, 1).unitary()
    worst = _conjugation_deviation(u, oracle, [oracle.a(1), oracle.a(0)])
    worst = max(worst, float(np.max(np.abs(u @ u - np.eye(4)))))  # involution
    # |01> -> |10>, |11> -> -|11>
    worst = max(worst, float(abs(u[2, 1] - 1.0)), float(abs(u[3, 3] + 1.0)))

    oracle5 = _oracle(5)
    circ = build_fswap(5, 0, 3)
    worst = max(worst, float(abs(circ.counts()["swap"] - 5)))
    return max(worst, _conjugation_deviation(circ.unitary(), oracle5,
                                             [oracle5.a(j) for j in (3, 1, 2, 0, 4)]))


@_check("two_site_fourier", 1e-12)
def check_two_site_fourier() -> float:
    oracle = _oracle(2)
    circ = Circuit(2)
    two_site_fourier(circ, 0, 1)
    f = circ.unitary()
    sqrt_half = 1.0 / math.sqrt(2.0)
    worst = float(abs(circ.counts()["t"] - 2))
    worst = max(worst, float(np.max(np.abs(f @ f.conj().T - np.eye(4)))))
    worst = max(worst, float(abs(f[0, 0] - 1.0)))  # fixes the vacuum
    return max(worst, _conjugation_deviation(f, oracle, [
        sqrt_half * (oracle.a(0) + oracle.a(1)), sqrt_half * (oracle.a(0) - oracle.a(1))]))


def plaquette_generator(oracle: FermionOracle) -> np.ndarray:
    """K = 2 (b'b - c'c) with b, c the symmetric/antisymmetric mode sums."""
    half = 0.5
    b = oracle.mode_combination([half, half, half, half])
    c = oracle.mode_combination([half, -half, half, -half])
    return 2.0 * (b.conj().T @ b - c.conj().T @ c)


@_check("plaquette_evolution", 1e-9)
def check_plaquette(angles=(0.0, 0.37, -0.9, 1.71, 2.5)) -> float:
    oracle = _oracle(4)
    # exp(i*theta*K) from the eigenbasis of the Hermitian generator K
    energies, modes = np.linalg.eigh(plaquette_generator(oracle))
    circ = build_plaquette_evolution(np.array(angles))
    counts = circ.counts()
    worst = 0.0 if (counts["t"], counts["rz"], counts["toffoli"]) == (8, 2, 0) else 1.0
    targets = (modes * np.exp(1j * np.array(angles)[:, None, None] * energies)) @ modes.conj().T
    return max(worst, max_unitary_deviation(circ.unitary(), targets))


@_check("unitarity", 1e-10)
def check_unitarity() -> float:
    """U†U = I for representative small gadgets.  Without H a circuit sends
    each basis state to one: U†U is then diagonal, the column norms, unless
    two land on one index (inf).  Only a circuit with H forms U densely."""
    worst = 0.0
    for circ in (
        build_hwp(3, 0.913, HwpStrategy.CATALYZED).circuit,
        build_hwp(4, -1.21, HwpStrategy.BASELINE).circuit,
        build_plaquette_evolution(0.61),
        build_fswap(5, 0, 4),
    ):
        dim = 1 << circ.n_qubits
        if any(g.kind is H for g in circ.gates):
            u = circ.unitary()
            worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(dim)))))
        else:
            index, amp, column = simulate(circ, np.arange(dim), np.ones(dim), np.arange(dim))
            if np.bincount(index, minlength=dim).max() > 1:
                return math.inf
            norm = np.bincount(column, np.abs(amp) ** 2, minlength=dim)
            worst = max(worst, float(np.max(np.abs(norm - 1.0))))
    return worst


@_check("fermion_oracle_car", CAR_TOLERANCE)
def check_fermion_oracle() -> float:
    """The oracles of the sizes the checks above build (2, 4 and 5 modes)
    satisfy the anticommutation relations; construction checks them."""
    return max(_oracle(n).car_deviation for n in (2, 4, 5))


ALL_CHECKS = (
    check_hamming_weight,
    check_hwp_unitary,
    check_hwp_tallies,
    check_catalyst_invariance,
    check_fswap,
    check_two_site_fourier,
    check_plaquette,
    check_unitarity,
    check_fermion_oracle,
)


def run_all() -> list[CheckResult]:
    """One pass of ``ALL_CHECKS``, sharing one oracle per size."""
    global _oracles
    _oracles = {}
    try:
        return [check() for check in ALL_CHECKS]
    finally:
        _oracles = None


def report_json(results) -> str:
    return json.dumps([r.as_dict() for r in results], indent=2)
