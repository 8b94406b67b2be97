"""Verification suite tying the built circuits back to the cost model.

Each check reports its worst observed deviation against a threshold (inf
when the fermion oracle refuses its operators); the CLI serializes the
results as JSON and fails on any check that misses its threshold.

A pass, ``run_all``, builds what its checks share once (``_once``), and
every check of the pass reads that one: the fermion oracle of each size
(2, 4 and 5 modes), each HWP shape (``build_hwp`` at theta = 1 for ten
(M, strategy) pairs) and the plaquette (``build_plaquette_evolution`` at
1).  A check takes its angles by scaling the shape (``HwpGadget.scaled``,
``Circuit.scaled``), the step by which the builders themselves turn their
unit-angle layout into a build at theta, so it checks what a build at its
angles returns.  What a pass built goes with it, so each pass builds its
gadgets and verifies the anticommutation relations anew, and a check
called on its own builds afresh.

Both HWP checks read a gadget in its catalyst's frame one way: the terms
of <x', phi|U|x, phi> (``_frame_lanes``), where |phi> = P|0> is the
catalyst state.  The unitary check compares the induced action with
diag(e^{i*theta*HW(x)}); catalyst invariance applies it to a seeded target
and reads the norm that stays in the frame.  Only the preparation P is
simulated, never its inverse, and U runs on wire masks (``_evaluate``).
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
from collections import namedtuple

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
    _evaluate,
    _phased,
    apply_circuit,  # noqa: F401  no check calls it; perfbench's tracer wraps verify.apply_circuit
    max_unitary_deviation,
    simulate,
)

HWP_ANGLE_SEED = 20240811


class CheckResult(namedtuple("CheckResult", "name max_deviation threshold seconds",
                             defaults=(0.0,))):
    """A check's worst deviation against its threshold; ``seconds`` is the
    wall time of the check, set by ``_check``."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.threshold


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
    """Exhaustive basis check of the adder chain for every input width, on
    wire masks (``_evaluate``): the weight read from the output wires must
    be each input's, and the chain applies no phase, so a diagonal gate
    that hits a lane is a deviation too."""
    worst = 0.0
    for m in range(1, max_bits + 1):
        gadget = build_hamming_weight(m)
        if gadget.circuit.counts()["toffoli"] != hamming_adders(m):
            return math.inf
        n = gadget.circuit.n_qubits
        x, wire = np.arange(1 << m), np.arange(m)
        # input bit i of x goes to wire i; wire w is bit (n-1-w) of the index
        index = (((x[:, None] >> wire) & 1) << (n - 1 - wire)).sum(axis=1)
        index, hits = _evaluate(gadget.circuit, index)
        out_bit = n - 1 - np.array(gadget.outputs, dtype=np.int64)   # each output wire's index bit
        weight = (((index[:, None] >> out_bit) & 1) << np.arange(out_bit.size)).sum(axis=1)
        if any(hit.any() for _, hit in hits) or not np.array_equal(weight, _hamming_weights(m)):
            worst = 1.0
    return worst


def _frame_lanes(gadget, k: int):
    """The terms of <x', phi|U|x, phi> = sum_{e, e'} conj(phi_e') phi_e
    <x', e'|U|x, e> for the k members of a gadget family (``build_hwp`` at k
    angles), where |phi> is the catalyst state P|0> (all zeros for a
    baseline gadget) and <x', e'| has every other wire at zero.  phi comes
    from simulating the preparation P alone, for all members.  U, free of H,
    runs once on wire masks (``_evaluate``), one lane per target x and
    catalyst basis state e in the support of phi, lane x*|supp| + e: its
    permutation does not depend on the angle, and ``_phased`` multiplies
    its factors into the terms, member a's into row a.  Returns each lane's
    row x' and column x, and the members' (k, lanes) terms, zero where the
    environment does not end in the support.  Both HWP checks read a
    gadget in its catalyst's frame from here, and from nowhere else."""
    m, circuit, prep = gadget.M, gadget.circuit, gadget.catalyst_prep
    if prep is None:
        support, phi = np.zeros(1, dtype=np.int64), np.ones((k, 1), dtype=complex)
    else:
        index, amp, member = simulate(prep, np.zeros(k, dtype=np.int64), np.ones(k), np.arange(k))
        support, at = np.unique(index, return_inverse=True)
        phi = np.zeros((k, support.size), dtype=complex)
        phi[member, at] = amp
    size, env_bits = support.size, circuit.n_qubits - m
    lanes = size << m
    # lane x*size + e holds x on the targets and support[e] on the other wires
    column = np.arange(lanes) // size
    index, hits = _evaluate(circuit, column << env_bits | np.tile(support, 1 << m))
    row, end = index >> env_bits, index & ((1 << env_bits) - 1)
    landed = np.searchsorted(support, end).clip(max=size - 1)
    term = np.where(support[landed] == end, phi.conj()[:, landed], 0.0)
    term = (term.reshape(k, -1, size) * phi[:, None]).reshape(k, lanes)
    return row, column, _phased(term, hits, np.arange(k)[:, None])


def _hwp_family(gadget, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Induced action on the targets of each of the k members of a gadget
    family (``build_hwp`` at k angles) when the other wires start and end in
    the gadget's reference state (the catalyst state, or all zeros): the
    members' diagonals and leakages |1 - column norm|, both (k, 2**M), and
    the largest |entry| off any diagonal.  Each entry <x', phi|U|x, phi> sums
    the terms of its lanes (``_frame_lanes``), which come ordered by column:
    the diagonal in one pass over each column's lanes, and only lanes that
    leave the diagonal grouped by (row, column)."""
    row, column, term = _frame_lanes(gadget, k)
    on = row == column
    starts = np.searchsorted(column, np.arange(1 << gadget.M))   # each column's first lane
    diagonal = np.add.reduceat(np.where(on, term, 0.0), starts, axis=1)
    norm = np.abs(diagonal) ** 2
    off = 0.0
    if not on.all():   # lanes that leave the diagonal: sum each (row, column) entry
        pairs, pair = np.unique(row[~on] << gadget.M | column[~on], return_inverse=True)
        entry = np.zeros((k, pairs.size), dtype=complex)
        np.add.at(entry, (slice(None), pair), term[:, ~on])
        np.add.at(norm, (slice(None), pairs & ((1 << gadget.M) - 1)), np.abs(entry) ** 2)
        off = float(np.abs(entry).max())
    return diagonal, np.abs(1.0 - np.sqrt(norm)), off


@_check("hwp_unitary", 1e-9)
def check_hwp_unitary(sizes=(2, 3, 4, 5), n_angles: int = 10) -> float:
    """Both phasing strategies act as a tensor power of phase rotations:
    exhaustively over the 2**M target states, against the diagonal
    e^{i*theta*HW(x)}.  Each (M, strategy) is built once, as the family of
    its gadgets at all the angles, run once on wire masks in its catalyst's
    frame (``_hwp_family``) and compared at once."""
    rng = random.Random(HWP_ANGLE_SEED)
    angles = np.array([rng.uniform(-2.0 * math.pi, 2.0 * math.pi) for _ in range(n_angles)])
    worst = 0.0
    for m in sizes:
        targets = np.exp(1j * angles[:, None] * _hamming_weights(m))
        for strategy in HwpStrategy:
            diagonal, leakage, off = _hwp_family(_hwp(m, angles, strategy), n_angles)
            worst = max(worst, float(leakage.max()), off,
                        max_unitary_deviation(diagonal[:, None], targets[:, None]))
    return worst


@_check("hwp_tallies", 0.0)
def check_hwp_tallies(sizes=(1, 2, 3, 4, 5)) -> float:
    """Toffoli/rotation tallies read from the built circuits match
    hwp_counts; a tally depends on the shape alone, not on the angle."""
    worst = 0.0
    for m in sizes:
        for strategy in HwpStrategy:
            counted = _hwp_shape(m, strategy).counted
            toffoli, rz = hwp_counts(m, strategy is HwpStrategy.CATALYZED)
            worst = max(worst, abs(counted.toffoli - toffoli), abs(counted.rz - rz))
    return worst


@_check("catalyst_invariance", 1e-12)
def check_catalyst_invariance(sizes=(2, 3, 5)) -> float:
    """Every wire outside the targets comes back unentangled and unchanged,
    the catalyst register in its state |phi> and the workspace at zero.
    With rho_in pure, tr(rho_in rho_out) is ||A t||**2 for the seeded
    target state t, where A is the gadget's induced action
    <x', phi|U|x, phi> on the targets, summed from the terms of its lanes
    (``_frame_lanes``).  Since P|x, 0> = |x, phi>, this is the probability
    that P†UP leaves every wire outside the targets at zero, read without
    inverting the preparation.  The check reports |1 - ||A t||**2|: a
    unitary U cannot give ||A t|| > 1, so a norm above 1 is a fault too."""
    rng = random.Random(HWP_ANGLE_SEED + 1)
    worst = 0.0
    for m in sizes:
        theta = rng.uniform(0.1, 2.0)
        # arbitrary fixed target state entangling all weight sectors
        target = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << m)])
        row, column, term = _frame_lanes(_hwp(m, theta, HwpStrategy.CATALYZED), 1)
        image = np.zeros(1 << m, dtype=complex)   # A t
        np.add.at(image, row, term[0] * (target / np.linalg.norm(target))[column])
        worst = max(worst, abs(1.0 - float(np.sum(np.abs(image) ** 2))))
    return worst


def _conjugation_deviation(u: np.ndarray, oracle: FermionOracle, targets) -> float:
    """max over the modes i of max |U a_i U† - targets[i]|."""
    u_dagger = u.conj().T
    return max(float(np.max(np.abs(u @ oracle.a(i) @ u_dagger - target)))
               for i, target in enumerate(targets))


_pass = None   # key -> what ``_once`` made, while ``run_all`` runs a pass


def _once(key, make):
    """``make()``, made once per pass: while ``run_all`` runs, the pass's one
    result under ``key``; otherwise a new one on every call."""
    if _pass is None:
        return make()
    if key not in _pass:
        _pass[key] = make()
    return _pass[key]


def _oracle(n: int) -> FermionOracle:
    return _once(("oracle", n), lambda: FermionOracle(n))


def _hwp_shape(m: int, strategy: HwpStrategy):
    """``build_hwp(m, 1.0, strategy)``, the shape at unit angle, once per
    pass; ``build_hwp`` is looked up at each build, so a builder swapped in
    is the one a pass uses."""
    return _once(("hwp", m, strategy), lambda: build_hwp(m, 1.0, strategy))


def _hwp(m: int, theta, strategy: HwpStrategy):
    """``build_hwp(m, theta, strategy)``: the pass's shape scaled by theta,
    as ``build_hwp`` scales its unit-angle layout."""
    return _hwp_shape(m, strategy).scaled(theta)


def _plaquette(theta) -> Circuit:
    """``build_plaquette_evolution(theta)``: the pass's one build at unit
    angle, scaled, as the builder scales its layout."""
    return _once("plaquette", lambda: build_plaquette_evolution(1.0)).scaled(theta)


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
    circ = _plaquette(angles)
    counts = circ.counts()
    worst = 0.0 if (counts["t"], counts["rz"], counts["toffoli"]) == (8, 2, 0) else 1.0
    targets = (modes * np.exp(1j * np.array(angles)[:, None, None] * energies)) @ modes.conj().T
    return max(worst, max_unitary_deviation(circ.unitary(), targets))


@_check("unitarity", 1e-10)
def check_unitarity() -> float:
    """U†U = I for representative small gadgets.  Without H a circuit sends
    each basis state to one, run on wire masks (``_evaluate``): U†U is then
    diagonal, the column norms, each the product of the diagonal factors
    that hit its lane, unless two land on one index (inf).  Only a circuit
    with H forms U densely."""
    worst = 0.0
    for circ in (
        _hwp_shape(3, HwpStrategy.CATALYZED).circuit.scaled(0.913),
        _hwp_shape(4, HwpStrategy.BASELINE).circuit.scaled(-1.21),
        _plaquette(0.61),
        build_fswap(5, 0, 4),
    ):
        dim = 1 << circ.n_qubits
        if any(g.kind is H for g in circ.gates):
            u = circ.unitary()
            worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(dim)))))
        else:
            index, hits = _evaluate(circ, np.arange(dim))
            if np.bincount(index, minlength=dim).max() > 1:
                return math.inf
            amp = _phased(np.ones(dim, dtype=complex), hits)
            worst = max(worst, float(np.max(np.abs(np.abs(amp) ** 2 - 1.0))))
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
    """One pass of ``ALL_CHECKS``, sharing what ``_once`` makes: one oracle
    per size, one HWP shape per (M, strategy) and one plaquette."""
    global _pass
    _pass = {}
    try:
        return [check() for check in ALL_CHECKS]
    finally:
        _pass = None


def report_json(results) -> str:
    return json.dumps([r._asdict() | {"passed": r.passed} for r in results], indent=2)
