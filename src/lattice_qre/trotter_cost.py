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
rotation share as the certified Newton root of a closed-form residual
that one ``_cost`` fixes (``_best_budget``).  One pass
over ``_STEPS`` gives a solve its step line, catalysts and qubit count
(``_structure``).  r starts at the step count at which
the tau-cap kink reaches the Trotter share 1/3, takes at most one step
below it or walks up by single steps, and the estimate is built from that
solve, as ``evaluate`` would re-derive it.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum

from .model import (
    CUPRATE,
    FERMI_HUBBARD,
    InvalidLattice,
    Model,
    ModelSpec,
    error_target,
    require_one_query,
    system_qubits,
)
from .optimize import minimize
from .primitives import RUS_T_OFFSET, RUS_T_SLOPE, CostVector, hamming_adders, hwp_counts
from .trotter_bounds import TrotterBudget, tau_max, trotter_bound, trotter_steps

QPE_QUERY_CONSTANT = 0.76 * math.pi


class Strategy(str, Enum):
    CATALYZED = "catalyzed"
    BASELINE = "baseline"
    BATCHED_CATALYZED = "batched-catalyzed"
    BATCHED_BASELINE = "batched-baseline"

    @property
    def batched(self) -> bool:
        return self in _BATCHED

    @property
    def catalyzed(self) -> bool:
        return self in _CATALYZED


# looked up once, as in model.py: a class lookup of an enum member is slow
_BATCHED = (Strategy.BATCHED_CATALYZED, Strategy.BATCHED_BASELINE)
_CATALYZED = (Strategy.CATALYZED, Strategy.BATCHED_CATALYZED)


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


def _hwp_runs(L: int, size: int, batched: bool) -> tuple[int, int]:
    """(rotations M per Hamming-weight phasing run, runs per application)
    of a layer of size * L^2 rotations: one run over all of them, or,
    batched, 2 * size runs of L^2 / 2.  Batching caps the workspace at the
    batch; the same-angle batches share their catalyst, so only the adders
    and phase-gradient additions repeat."""
    return (L * L // 2, 2 * size) if batched else (size * L * L, 1)


def _structure(spec: ModelSpec, strategy: Strategy
               ) -> tuple[tuple[tuple[int, int, int], tuple[int, int, int]], tuple[int, int], int]:
    """(line, catalysts, qubits) of the r-step evolution, from one pass
    over ``_STEPS[spec.kind]``; refuses a cuprate lattice the Trotter
    scheme cannot tile (L % 4), beyond what ``ModelSpec`` refuses.

    - line: the (Toffoli, T, rz) of the evolution at r = 0 and their slope
      in r, exact ints: each layer's runs (``_hwp_runs``) cost
      ``hwp_counts`` per application, and every multiplicity and the
      direct T count are affine in r.
    - catalysts: (charged, count), (0, 0) unless catalyzed: the catalyst
      rotations charged with synthesis T gates (budget slice z), and the
      qubits of all catalyst states.  Each angle's catalyst is sized by its
      layer's weight register, floor(log2 M) + 1 for runs of M; the
      Fermi-Hubbard ones are charged one rotation fewer, matching the
      published accounting.
    - qubits: the logical qubits, the system register plus the weight
      workspace of the largest run, a phase qubit, a synthesis ancilla and,
      catalyzed, the catalyst and phase-gradient registers.
    """
    kind, L = spec.kind, spec.L
    if kind is CUPRATE and L % 4:
        raise InvalidLattice(f"L={L}: the cuprate Trotter scheme needs L % 4 == 0")
    (t_a, t_b), layers, extra = _STEPS[kind]
    catalyzed, batched = strategy.catalyzed, strategy.batched
    count = extra[batched]
    toffoli_a = toffoli_b = rz_a = rz_b = m_hw = 0
    for size, a, b, angles in layers:
        m, runs = _hwp_runs(L, size, batched)
        toffoli, rz = hwp_counts(m, catalyzed)
        toffoli_a += a * runs * toffoli
        toffoli_b += b * runs * toffoli
        rz_a += a * runs * rz
        rz_b += b * runs * rz
        count += angles * m.bit_length()   # floor(log2 m) + 1
        m_hw = max(m_hw, m)
    line = (toffoli_a, t_a * L * L, rz_a), (toffoli_b, t_b * L * L, rz_b)
    # +1 phase qubit, +1 synthesis ancilla
    qubits = system_qubits(spec) + hamming_adders(m_hw) + 2
    if not catalyzed:
        return line, (0, 0), qubits
    charged = count - 1 if kind is FERMI_HUBBARD else count
    return line, (charged, count), qubits + count + m_hw.bit_length()


def _step_at(line: tuple[tuple[int, int, int], tuple[int, int, int]], r: int
             ) -> tuple[float, float, int]:
    """(Toffoli, T, rz) of the r-step evolution from its ``_structure``
    line: the fields of ``step_cost``, as the plain tuple the solver uses."""
    (toffoli, t_gates, rz), (d_toffoli, d_t_gates, d_rz) = line
    return float(toffoli + d_toffoli * r), float(t_gates + d_t_gates * r), rz + d_rz * r


def step_cost(kind: Model, L: int, r: int, strategy: Strategy) -> CostVector:
    """Layer Toffoli/rz tally for one r-step evolution, plus direct T gates.

    Catalyst-state synthesis is excluded; the cost kernel charges it.
    Refuses the lattices ``ModelSpec(kind, L)`` refuses, and a cuprate L
    that is not a multiple of 4; r must be an integer (as
    ``operator.index`` gives it).
    """
    line = _structure(ModelSpec(kind, L), Strategy(strategy))[0]
    try:
        r = operator.index(r)
    except TypeError:
        raise ValueError(f"need an integer r >= 1, got {r!r}") from None
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    return CostVector(*_step_at(line, r))


def total_qubits(spec: ModelSpec, strategy: Strategy) -> int:
    """Logical qubits: system register, weight workspace, phase-estimation
    and rotation-synthesis ancillas, plus catalyst and phase-gradient
    registers for catalyzed strategies."""
    return _structure(spec, Strategy(strategy))[2]


def _cost(step: tuple[float, float, int], catalysts: tuple[int, int], p: float, q: float,
          c: float, tau: float, delta_e: float, amortize: bool
          ) -> tuple[float, float, float, float]:
    """(N_t1, N_t2, N_q, total Toffolis) of a run whose r-step evolution
    costs the ``_step_at`` tuple ``step``, at the shares of dE p (phase
    estimation), q (rotations) and c (catalysts): N_q = 0.76*pi / (p * tau
    * dE) queries at N_tof + N_t / 2 each.

    Each synthesis group splits its phase budget (share q resp. c of dE,
    times tau) equally across its rotations: N_t2 for the per-layer
    rotations, N_t1 for the catalyst states.  ``amortize`` charges N_t1
    once instead of per query.
    """
    toffoli, t_gates, rz = step
    n_t2 = rz * (RUS_T_SLOPE * math.log2(rz / (q * delta_e * tau)) + RUS_T_OFFSET)
    n_t1 = 0.0
    charged, count = catalysts
    if count:
        n_t1 = charged * (RUS_T_SLOPE * math.log2(count / (c * delta_e * tau)) + RUS_T_OFFSET)
    n_q = QPE_QUERY_CONSTANT / ((tau * delta_e) * p)   # tau * dE first: p may be subnormal
    per_query = toffoli + (t_gates + n_t2 + (0.0 if amortize else n_t1)) / 2.0
    return n_t1, n_t2, n_q, n_q * per_query + (n_t1 / 2.0 if amortize else 0.0)


@dataclass(frozen=True)
class TrotterEstimate:
    """A Trotter run: the ``spec`` and ``strategy`` it costs, the error
    ``budget`` it spends, the Trotter bound ``w_bound`` (W, an energy
    cubed, in the unit of the error target) and ``r``, the steps of one
    evolution.  ``n_queries`` is the number of phase-estimation queries (a
    float: the continuous bound), each one evolution.  Per query,
    ``n_toffoli_per_u`` Toffolis, ``n_t_direct`` bare T gates (two-site
    Fourier transforms) and ``n_t2`` synthesized T gates of the per-layer
    rotations; ``n_t1`` counts the synthesized T gates of the catalyst
    states per query, or once for the run when they are amortized.
    ``total_toffoli`` is the run's Toffolis with two T gates counted as
    one, and ``total_qubits`` its number of logical qubits."""

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
    line, catalysts, qubits = _structure(spec, strategy)
    return _estimate(spec, strategy, budget, w, r, _step_at(line, r), catalysts, qubits,
                     amortize_catalyst)


def _estimate(spec: ModelSpec, strategy: Strategy, budget: TrotterBudget, w: float, r: int,
              step: tuple[float, float, int], catalysts: tuple[int, int], total_qubits: int,
              amortize: bool) -> TrotterEstimate:
    """The estimate of ``budget`` at r steps whose evolution costs the
    ``_step_at`` tuple ``step``, costed at the budget's own shares."""
    n_t1, n_t2, n_q, total = _cost(step, catalysts, *budget.shares,
                                   budget.tau, budget.delta_e, amortize)
    return TrotterEstimate(
        spec=spec, strategy=strategy, budget=budget, w_bound=w, r=r,
        n_queries=n_q, n_toffoli_per_u=step[0], n_t_direct=step[1],
        n_t1=n_t1, n_t2=n_t2, total_toffoli=total,
        total_qubits=total_qubits,
    )


_TAU_MARGIN = 1.0 - 1e-12
# Up to here trotter_steps gives back the r a pinned tau was pinned to: its
# relative slack of 1e-14 is then at most 0.1 of a step (at 2**53 it is 90).
_MAX_EXACT_R = 10**13
_TWO_LN2 = 2.0 * math.log(2.0)


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
        kq, room = k * q, q_max - q
        step = ((u + math.log(per_query / lam_u * (1.0 + kq) / room))
                / (1.0 - lam_u / per_query + q / room + kq / (1.0 + kq)))
        u -= step
        if abs(step) < 1e-12:
            return math.exp(u)
    return None


def _shares(q: float, t: float, ratio: float, k: float, amortize: bool) -> tuple[float, ...]:
    """(p, q, c) at rotation share q and Trotter share t (see ``_best_budget``)."""
    if amortize:
        p = (1.0 - t - q) / (1.0 + k * q)
        return p, q, k * q * p
    return 1.0 - t - (1.0 + ratio) * q, q, ratio * q


def _best_budget(step: tuple[float, float, int], catalysts: tuple[int, int], r: int, w: float,
                 tau_cap: float, delta_e: float, amortize: bool
                 ) -> tuple[float, float, float, float]:
    """(p, q, c, tau): the cheapest shares of dE for the r-step evolution
    whose ``_step_at`` tuple is ``step``, and the tau that the Trotter share
    pins: the largest tau still giving r steps, at most tau_cap.

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
      q is the Newton root g of its log form (``_newton_share``), which keeps
      P > Λ_u and so q < q_max / 2, returned as it is once ``minimize``
      certifies it: the residual changes sign across [g (1 - 1e-13),
      g (1 + 1e-13)].
    Raises ``ValueError`` (too loose) when Newton finds no root or the residual
    does not change sign across that bracket: on every solve checked that did,
    P had fallen to Λ_u, and a bisection of all of (0, q_max) refused it too.
    """
    t = min(1.0 / 3.0, (tau_cap / r) ** 2 * w / delta_e)
    tau = min(r * math.sqrt(t * delta_e / w), tau_cap)
    ratio = catalysts[0] / step[2]
    k = ratio * tau * delta_e / QPE_QUERY_CONSTANT if amortize else 0.0   # c = k * q * p
    q_max = (1.0 - t) / (1.0 if amortize else 1.0 + ratio)   # p = 0
    lam_u = RUS_T_SLOPE * step[2] / _TWO_LN2 * (1.0 if amortize else 1.0 + ratio)
    q_in = 0.5 * q_max   # the middle of q's domain: at q = 1, c * dE can overflow
    n_t1, _, n_q, total = _cost(step, catalysts, *_shares(q_in, t, ratio, k, amortize),
                                tau, delta_e, amortize)
    a = (total - n_t1 / 2.0 if amortize else total) / n_q + lam_u * math.log(q_in)

    def slope(q: float) -> float:
        return q * (a - lam_u * math.log(q)) - lam_u * (q_max - q) / (1.0 + k * q)

    found = minimize(slope, _newton_share(a, lam_u, q_max, k))
    if found is None:
        raise ValueError(f"error target delta_e={delta_e:g} is too loose: no Newton root certifies "
                         f"a rotation share at r={r} (it needs a per-query cost above {lam_u:.3g})")
    return (*_shares(found.point, t, ratio, k, amortize), tau)


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
        there, here = cost(other), cost(r)
        return there < here - rounding * abs(here)

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
    if not isinstance(strategy, Strategy):   # a member skips enum.py's slow call path
        strategy = Strategy(strategy)
    line, catalysts, qubits = _structure(spec, strategy)
    delta_e = error_target(spec.L, delta_e)
    w = trotter_bound(spec)
    tau_cap = tau_max(w) * _TAU_MARGIN

    r0 = tau_cap * math.sqrt(3.0 * w / delta_e)
    if not r0 <= _MAX_EXACT_R:
        raise ValueError(f"the Trotter step count r={r0:.3g} overflows 1e13, above which the "
                         f"time step no longer pins r exactly, at delta_e={delta_e:g}")
    solved = {}   # r -> (step, N_q, total, (p, q, c, tau))

    def cost(n: int) -> float:
        if n not in solved:
            step = _step_at(line, n)
            budget = _best_budget(step, catalysts, n, w, tau_cap, delta_e, amortize_catalyst)
            solved[n] = step, *_cost(step, catalysts, *budget, delta_e, amortize_catalyst)[2:], budget
        return solved[n][2]

    r = _best_step_count(cost, math.ceil(r0))
    step, n_q, _, (p, q, c, tau) = solved[r]
    require_one_query(n_q, delta_e)
    budget = TrotterBudget(delta_e, p, q / (1.0 - p), c / (1.0 - p), tau)
    return _estimate(spec, strategy, budget, w, r, step, catalysts, qubits, amortize_catalyst)
