"""Trotter-algorithm resource estimates under four phasing strategies.

One phase-estimation query evolves the state once through the second-order
product formula with r steps.  Every Hamiltonian summand becomes layers of
same-angle Z-rotations (after Clifford conjugation), effected by
Hamming-weight phasing in one of four modes: catalyzed or baseline, each
optionally batched into groups of L^2/2 rotations to cap the ancilla count.

Per query the non-Clifford cost is the layer Toffolis plus T gates: bare T
gates from two-site Fourier transforms, synthesized T for the per-layer
rotations (budget slice x), and synthesized T for the catalyst states
(budget slice z, catalyzed only).  The total is
``N_q * (N_tof + N_t / 2)`` with ``N_q = 0.76*pi / (y * tau * dE)``.

One table, ``_STEPS``, holds each model's step structure (layer sizes,
multiplicities a + b*r, catalyst angles and direct T gates), so the step
cost is an exact affine function of r.  For the pnictide model the
diagonal-hopping layers appear 2r times each (16r in total) plus 3r
on-site layers; the published per-model tables are reproduced only with
this count.

The solver needs no general-purpose search.  At each step count r the
budget split solves its first-order conditions: the Trotter share of dE in
closed form, the catalyst share in proportion to the rotation share, and the
rotation share by bisecting, from a Newton seed, a closed-form residual that
one ``_cost`` fixes (``_best_budget``).  r starts at the step count at which
the tau-cap kink reaches the Trotter share 1/3, takes at most one step
below it or walks up by single steps, and the estimate is built from that
solve, as ``evaluate`` would re-derive it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .model import (
    InvalidLattice,
    Model,
    ModelSpec,
    error_target,
    require_one_query,
    system_qubits,
)
from .optimize import minimize
from .primitives import (
    CostVector,
    HwpStrategy,
    RUS_T_OFFSET,
    RUS_T_SLOPE,
    floor_log2,
    hamming_adders,
    hwp_cost,
)
from .trotter_bounds import TrotterBudget, tau_max, trotter_bound, trotter_steps

QPE_QUERY_CONSTANT = 0.76 * math.pi


class Strategy(str, Enum):
    CATALYZED = "catalyzed"
    BASELINE = "baseline"
    BATCHED_CATALYZED = "batched-catalyzed"
    BATCHED_BASELINE = "batched-baseline"

    @property
    def batched(self) -> bool:
        return self in (Strategy.BATCHED_CATALYZED, Strategy.BATCHED_BASELINE)

    @property
    def catalyzed(self) -> bool:
        return self in (Strategy.CATALYZED, Strategy.BATCHED_CATALYZED)

    @property
    def hwp(self) -> HwpStrategy:
        return HwpStrategy.CATALYZED if self.catalyzed else HwpStrategy.BASELINE


# The step structure of each model: the only source of layer sizes,
# multiplicities, direct T gates and catalyst sizes.  Per model:
#   (a, b): bare T gates per evolution (two-site Fourier transforms),
#       (a + b*r) * L^2;
#   per layer kind (size, a, b, angles): size * L^2 same-angle rotations,
#       applied a + b*r times per evolution, with a catalyst per angle;
#   (unbatched, batched): catalyst qubits beyond one register per angle.
# The multiplicities follow the second-order formula with adjacent identical
# factors merged.  The merged double-angle slot gives the leading hopping
# catalyst one extra qubit, except in the batched pnictide accounting, where
# the published qubit columns require the plain size.
_STEPS = {
    Model.FERMI_HUBBARD: ((0, 12), ((1, 1, 4, 2),), (2, 2)),
    Model.CUPRATE: ((4, 28), ((1, 1, 8, 3), (2, 0, 8, 1)), (1, 1)),
    Model.PNICTIDE: ((0, 0), ((4, 1, 7, 2), (2, 0, 19, 4)), (1, 0)),
}


def _hwp_runs(L: int, size: int, strategy: Strategy) -> tuple[int, int]:
    """(rotations M per Hamming-weight phasing run, runs per application)
    of a layer of size * L^2 rotations: one run over all of them, or,
    batched, 2 * size runs of L^2 / 2.  Batching caps the workspace at the
    batch; the same-angle batches share their catalyst, so only the adders
    and phase-gradient additions repeat."""
    return (L * L // 2, 2 * size) if strategy.batched else (size * L * L, 1)


def _catalysts(kind: Model, L: int, strategy: Strategy) -> tuple[int, int]:
    """(charged, count): catalyst rotations charged with synthesis T gates,
    and the qubits of (equivalently, rotations to synthesize) all catalyst
    states, whose budget slice z they share.

    Each angle's catalyst is sized by its layer's weight register,
    floor(log2 M) + 1 for runs of M rotations.  The Fermi-Hubbard catalysts
    are charged with one rotation fewer than their register size, matching
    the published accounting.
    """
    if not strategy.catalyzed:
        return 0, 0
    _, layers, extra = _STEPS[kind]
    count = extra[strategy.batched] + sum(
        angles * (floor_log2(_hwp_runs(L, size, strategy)[0]) + 1)
        for size, _, _, angles in layers)
    return (count - 1 if kind is Model.FERMI_HUBBARD else count), count


def _check_lattice(kind: Model, L: int) -> None:
    if L < 2 or L % 2:
        raise InvalidLattice(f"L={L}: need even L >= 2")
    if kind is Model.CUPRATE and L % 4:
        raise InvalidLattice(f"L={L}: the cuprate Trotter scheme needs L % 4 == 0")


def _step_line(kind: Model, L: int, strategy: Strategy) -> tuple[tuple[int, int], ...]:
    """(intercept, slope) in r of the Toffoli, T and rz fields of
    ``step_cost``, as exact ints: each layer's runs cost ``hwp_cost`` per
    application, and every multiplicity and the direct T count are affine
    in r."""
    direct_t, layers, _ = _STEPS[kind]
    toffoli, rz = [0, 0], [0, 0]
    for size, a, b, _ in layers:
        m, runs = _hwp_runs(L, size, strategy)
        run = hwp_cost(m, strategy.hwp)
        for i, reps in enumerate((a, b)):
            toffoli[i] += reps * runs * int(run.toffoli)
            rz[i] += reps * runs * run.rz
    return tuple(toffoli), (direct_t[0] * L * L, direct_t[1] * L * L), tuple(rz)


def _step_at(line: tuple[tuple[int, int], ...], r: int) -> CostVector:
    """The r-step evolution's cost from its ``_step_line``."""
    toffoli, t_gates, rz = (a + b * r for a, b in line)
    return CostVector(float(toffoli), float(t_gates), rz)


def step_cost(kind: Model, L: int, r: int, strategy: Strategy) -> CostVector:
    """Layer Toffoli/rz tally for one r-step evolution, plus direct T gates.

    Catalyst-state synthesis is excluded; the cost kernel charges it.
    """
    kind, strategy = Model(kind), Strategy(strategy)
    _check_lattice(kind, L)
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    return _step_at(_step_line(kind, L, strategy), r)


def total_qubits(spec: ModelSpec, strategy: Strategy) -> int:
    """Logical qubits: system register, weight workspace, phase-estimation
    and rotation-synthesis ancillas, plus catalyst and phase-gradient
    registers for catalyzed strategies."""
    kind, L, strategy = spec.kind, spec.L, Strategy(strategy)
    _check_lattice(kind, L)
    m_hw = max(_hwp_runs(L, size, strategy)[0] for size, *_ in _STEPS[kind][1])
    qubits = system_qubits(spec) + hamming_adders(m_hw) + 2  # +1 phase qubit, +1 synthesis ancilla
    if strategy.catalyzed:
        qubits += _catalysts(kind, L, strategy)[1] + floor_log2(m_hw) + 1
    return qubits


def _cost(step: CostVector, catalysts: tuple[int, int], p: float, q: float, c: float,
          tau: float, delta_e: float, amortize: bool) -> tuple[float, float, float, float]:
    """(N_t1, N_t2, N_q, total Toffolis) of a run whose r-step evolution is
    ``step``, at the shares of dE p (phase estimation), q (rotations) and c
    (catalysts): N_q = 0.76*pi / (p * tau * dE) queries at N_tof + N_t / 2
    each.

    Each synthesis group splits its phase budget (share q resp. c of dE,
    times tau) equally across its rotations: N_t2 for the per-layer
    rotations, N_t1 for the catalyst states.  ``amortize`` charges N_t1
    once instead of per query.
    """
    n_t2 = step.rz * (RUS_T_SLOPE * math.log2(step.rz / (q * delta_e * tau)) + RUS_T_OFFSET)
    n_t1 = 0.0
    charged, count = catalysts
    if count:
        n_t1 = charged * (RUS_T_SLOPE * math.log2(count / (c * delta_e * tau)) + RUS_T_OFFSET)
    n_q = QPE_QUERY_CONSTANT / ((tau * delta_e) * p)   # tau * dE first: p may be subnormal
    per_query = step.toffoli + (step.t_gates + n_t2 + (0.0 if amortize else n_t1)) / 2.0
    return n_t1, n_t2, n_q, n_q * per_query + (n_t1 / 2.0 if amortize else 0.0)


@dataclass(frozen=True)
class TrotterEstimate:
    spec: ModelSpec
    strategy: Strategy
    budget: TrotterBudget
    w_bound: float
    r: int
    n_queries: float
    n_toffoli_per_u: float
    n_t_direct: float
    n_t1: float
    n_t2: float
    total_toffoli: float
    total_qubits: int


def evaluate(spec: ModelSpec, strategy: Strategy, budget: TrotterBudget,
             w_bound: float | None = None, amortize_catalyst: bool = False) -> TrotterEstimate:
    """Cost at explicit budget parameters (tau must respect tau_max)."""
    strategy = Strategy(strategy)
    w = trotter_bound(spec) if w_bound is None else w_bound
    if budget.tau >= tau_max(w):
        raise ValueError(f"tau={budget.tau} exceeds the step bound {tau_max(w):.6g}")
    if strategy.catalyzed and budget.z <= 0:
        raise ValueError("catalyzed strategy needs a positive z budget")
    r = trotter_steps(w, budget.tau, budget)
    return _estimate(spec, strategy, budget, w, r, step_cost(spec.kind, spec.L, r, strategy),
                     _catalysts(spec.kind, spec.L, strategy), amortize_catalyst)


def _estimate(spec: ModelSpec, strategy: Strategy, budget: TrotterBudget, w: float, r: int,
              step: CostVector, catalysts: tuple[int, int], amortize: bool) -> TrotterEstimate:
    """The estimate of ``budget`` at r steps whose evolution costs ``step``,
    costed at the budget's own shares."""
    n_t1, n_t2, n_q, total = _cost(step, catalysts, *budget.shares,
                                   budget.tau, budget.delta_e, amortize)
    return TrotterEstimate(
        spec=spec, strategy=strategy, budget=budget, w_bound=w, r=r,
        n_queries=n_q, n_toffoli_per_u=step.toffoli, n_t_direct=step.t_gates,
        n_t1=n_t1, n_t2=n_t2, total_toffoli=total,
        total_qubits=total_qubits(spec, strategy),
    )


_TAU_MARGIN = 1.0 - 1e-12
# Up to here trotter_steps gives back the r a pinned tau was pinned to: its
# relative slack of 1e-14 is then at most 0.1 of a step (at 2**53 it is 90).
_MAX_EXACT_R = 10**13


def _pinned_tau(r: int, t: float, w: float, tau_cap: float, delta_e: float) -> float:
    """Largest tau still giving r steps under the Trotter share t of dE, at most tau_cap."""
    return min(r * math.sqrt(t * delta_e / w), tau_cap)


def _newton_share(a: float, lam_u: float, q_max: float, k: float) -> float | None:
    """Newton root in u = ln q of ln(q P) = ln(Λ_u (q_max - q) / (1 + k q)), P = a - Λ_u u,
    from u0 = ln q_max - ln(a / Λ_u + 1 - ln q_max), the W_-1 log-form seed at k = 0.  None once
    a step leaves P > Λ_u (where the residual rises with u) or q < q_max, or never settles."""
    u = math.log(q_max)
    u -= math.log(max(a / lam_u + 1.0 - u, 1.0))   # below 1, P(q_max) <= 0: refused next
    for _ in range(8):
        q, per_query = math.exp(u), a - lam_u * u
        if not (per_query > lam_u and q < q_max):
            return None
        step = ((u + math.log(per_query / lam_u * (1.0 + k * q) / (q_max - q)))
                / (1.0 - lam_u / per_query + q / (q_max - q) + k * q / (1.0 + k * q)))
        u -= step
        if abs(step) < 1e-12:
            return math.exp(u)
    return None


def _best_budget(step: CostVector, catalysts: tuple[int, int], r: int, w: float,
                 tau_cap: float, delta_e: float, amortize: bool
                 ) -> tuple[float, float, float, float]:
    """(p, q, c, tau): the cheapest shares of dE for the r-step evolution
    ``step``, and the tau that the Trotter share pins.

    The shares -- phase estimation p, rotations q, catalysts c and Trotter
    t -- sum to 1, and the Lagrange conditions of the total give:
    - t = min(1/3, v_k).  Below the kink v_k = (tau_cap / r)**2 W / dE the
      share buys tau = r * sqrt(t dE / W), and the conditions balance it at
      1/3; beyond the kink tau stays at its cap and the share buys nothing.
    - c = q * charged / rz, or c = q * p * tau * dE * charged / (0.76*pi * rz)
      when the catalysts are charged once (``amortize``).
    - q * P = Λ * p with Λ = RUS_T_SLOPE * rz / (2 ln 2) and P the per-query
      cost of ``_cost``: P = a - Λ_u ln q with Λ_u = Λ (1 + charged / rz), or Λ
      amortized, and a read from one ``_cost`` at q_max / 2.  The residual
      q (a - Λ_u ln q) - Λ_u (q_max - q) / (1 + k q) rises with q from -Λ (1 - t);
      ``minimize`` bisects it to adjacent floats within 1e-13 of its log form's
      Newton root (``_newton_share``), which keeps P > Λ_u and so q < q_max / 2.
    Raises ``ValueError`` (too loose) when Newton finds no root or the residual
    does not change sign across that bracket: on every solve checked that did,
    P had fallen to Λ_u, and a bisection of all of (0, q_max) refused it too.
    """
    t = min(1.0 / 3.0, (tau_cap / r) ** 2 * w / delta_e)
    tau = _pinned_tau(r, t, w, tau_cap, delta_e)
    ratio = catalysts[0] / step.rz
    k = ratio * tau * delta_e / QPE_QUERY_CONSTANT if amortize else 0.0   # c = k * q * p

    def shares(q: float) -> tuple[float, float, float]:
        """(p, q, c) at rotation share q."""
        if amortize:
            p = (1.0 - t - q) / (1.0 + k * q)
            return p, q, k * q * p
        return 1.0 - t - (1.0 + ratio) * q, q, ratio * q

    q_max = (1.0 - t) / (1.0 if amortize else 1.0 + ratio)   # p = 0
    lam_u = RUS_T_SLOPE * step.rz / (2.0 * math.log(2.0)) * (1.0 if amortize else 1.0 + ratio)
    q_in = 0.5 * q_max   # the middle of q's domain: at q = 1, c * dE can overflow
    n_t1, _, n_q, total = _cost(step, catalysts, *shares(q_in), tau, delta_e, amortize)
    a = (total - n_t1 / 2.0 if amortize else total) / n_q + lam_u * math.log(q_in)

    def slope(q: float) -> float:
        return q * (a - lam_u * math.log(q)) - lam_u * (q_max - q) / (1.0 + k * q)

    g = _newton_share(a, lam_u, q_max, k)
    if g is not None:
        lo, hi = g * (1.0 - 1e-13), g * (1.0 + 1e-13)
    if g is None or not slope(lo) < 0.0 <= slope(hi):
        raise ValueError(f"error target delta_e={delta_e:g} is too loose: no Newton root certifies "
                         f"a rotation share at r={r} (it needs a per-query cost above {lam_u:.3g})")
    return (*shares(minimize(slope, lo, hi).point), tau)


def _best_step_count(cost, r0: int) -> int:
    """Integer r >= 1 minimizing the unimodal ``cost`` from r0, the step
    count at which the tau-cap kink reaches the Trotter share 1/3.

    Below r0 the Trotter share is 1/3 and the feasible shares (p, q, c) do
    not depend on r, while tau grows with it: at any fixed shares every
    term of the total falls with r as long as the synthesis T count per
    rotation and per catalyst exceeds -0.53 / ln 2, so the optimum over
    the shares falls too.  The walk therefore takes at most one step
    below r0 -- to r0 - 1 if it is cheaper, and stops there -- and
    otherwise walks up by single steps while that lowers ``cost``.  On
    every published cell it ends on r0 - 1 (two ``cost`` calls, which the
    caller memoizes) or on r0 (three).  A step must gain more than the
    totals' rounding, 4 eps of |cost(r)| (too loose a target can make it
    negative): near 1e13 steps a walk on smaller gains drifts on noise.
    """
    rounding = 4.0 * sys.float_info.epsilon

    def beats(other: int, r: int) -> bool:
        return cost(other) < cost(r) - rounding * abs(cost(r))

    if r0 > 1 and beats(r0 - 1, r0):
        return r0 - 1
    r = r0
    while beats(r + 1, r):
        r += 1
    return r


def optimize_trotter(spec: ModelSpec, strategy: Strategy,
                     delta_e: float | None = None,
                     amortize_catalyst: bool = False) -> TrotterEstimate:
    """Minimize the total Toffoli count over the budget split and time step.

    Deterministic.  At each step count r the budget split and the pinned
    tau follow from their first-order conditions (see ``_best_budget``).
    r starts at r0 = ceil(tau_cap * sqrt(3 W / dE)), where the kink reaches
    the Trotter share 1/3: below r0 tau grows with r, from r0 on it sits at
    its cap.  r then takes at most one step down, or walks up by single
    steps, to its optimum (see ``_best_step_count``).  The estimate is
    assembled from that solve: the walked r, its step cost and one
    ``_cost`` at the budget's own (round-tripped) shares, so ``evaluate``
    at the returned budget gives it back.
    Raises ``ValueError`` when r0 exceeds 1e13
    (where ``evaluate`` no longer recovers r from the pinned tau), or when
    the error target is too loose to mean anything: the optimum needs
    fewer than one phase-estimation query, or Newton steps certify no
    rotation share at some r.
    """
    strategy = Strategy(strategy)
    _check_lattice(spec.kind, spec.L)
    delta_e = error_target(spec.L, delta_e)
    w = trotter_bound(spec)
    tau_cap = tau_max(w) * _TAU_MARGIN
    catalysts = _catalysts(spec.kind, spec.L, strategy)
    line = _step_line(spec.kind, spec.L, strategy)

    r0 = tau_cap * math.sqrt(3.0 * w / delta_e)
    if not r0 <= _MAX_EXACT_R:
        raise ValueError(f"the Trotter step count r={r0:.3g} overflows 1e13, above which the "
                         f"time step no longer pins r exactly, at delta_e={delta_e:g}")
    solved = {}   # r -> (N_q, total, (p, q, c, tau))

    def cost(n: int) -> float:
        if n not in solved:
            step = _step_at(line, n)
            budget = _best_budget(step, catalysts, n, w, tau_cap, delta_e, amortize_catalyst)
            solved[n] = *_cost(step, catalysts, *budget, delta_e, amortize_catalyst)[2:], budget
        return solved[n][1]

    r = _best_step_count(cost, math.ceil(r0))
    n_q, _, (p, q, c, tau) = solved[r]
    require_one_query(n_q, delta_e)
    budget = TrotterBudget(delta_e, p, q / (1.0 - p), c / (1.0 - p), tau)
    return _estimate(spec, strategy, budget, w, r, _step_at(line, r), catalysts, amortize_catalyst)
