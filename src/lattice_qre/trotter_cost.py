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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

from .model import (
    InvalidLattice,
    Model,
    ModelSpec,
    error_target,
    require_one_query,
    system_qubits,
)
from .optimize import Dimension, minimize, warn_on_edges
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


def _cost(step: CostVector, catalysts: tuple[int, int], x: float, y: float, z: float,
          tau: float, delta_e: float, amortize: bool) -> tuple[float, float, float, float]:
    """(N_t1, N_t2, N_q, total Toffolis) of a run whose r-step evolution is
    ``step``: N_q = 0.76*pi / (y * tau * dE) queries at N_tof + N_t / 2 each.

    Each synthesis group splits its phase budget (slice x resp. z of the
    rotation budget, times tau) equally across its rotations: N_t2 for the
    per-layer rotations, N_t1 for the catalyst states.  ``amortize``
    charges N_t1 once instead of per query.
    """
    phase_x = x * (1.0 - y) * delta_e * tau
    n_t2 = step.rz * (RUS_T_SLOPE * math.log2(step.rz / phase_x) + RUS_T_OFFSET)
    n_t1 = 0.0
    charged, count = catalysts
    if count:
        phase_z = z * (1.0 - y) * delta_e * tau
        n_t1 = charged * (RUS_T_SLOPE * math.log2(count / phase_z) + RUS_T_OFFSET)
    n_q = QPE_QUERY_CONSTANT / (y * tau * delta_e)
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
    step = step_cost(spec.kind, spec.L, r, strategy)
    n_t1, n_t2, n_q, total = _cost(
        step, _catalysts(spec.kind, spec.L, strategy), budget.x, budget.y, budget.z,
        budget.tau, budget.delta_e, amortize_catalyst,
    )
    return TrotterEstimate(
        spec=spec, strategy=strategy, budget=budget, w_bound=w, r=r,
        n_queries=n_q, n_toffoli_per_u=step.toffoli, n_t_direct=step.t_gates,
        n_t1=n_t1, n_t2=n_t2, total_toffoli=total,
        total_qubits=total_qubits(spec, strategy),
    )


# Search box.  tau is not a free dimension: within a fixed step count r the
# cost strictly improves as tau grows, so the optimum sits on the boundary
# tau_r = r * sqrt(dE_T / W) (or at the step-error cap).  Nor is z, which
# follows from x (see ``_split``).  The search runs over x and the Trotter
# slice v = (1 - s)(1 - y) of the error budget, on which alone tau depends.
_X_DIM = Dimension(1e-4, 0.35, "log")
_Y_DIM = Dimension(0.2, 0.92)
_V_GRID = Dimension(1.0 - _Y_DIM.upper, 1.0 - _Y_DIM.lower)   # y's box at s = 0
# The refinement writes v = v_top * (1 - u**2) (see ``_v_top``): an even,
# smooth function of u that peaks at v_top, so the tau-cap kink, where the
# optimum usually lies, becomes the smooth minimum u = 0.  (Nelder-Mead
# stalls on the kink itself, in (x, y) and in (x, v) alike.)
_U_DIM = Dimension(-1.0, 1.0)
_DIMS = (_X_DIM, _U_DIM)
_GRID_POINTS = 10   # per dimension of the coarse grid
_TAU_MARGIN = 1.0 - 1e-12
# Up to here trotter_steps gives back the r a pinned tau was pinned to: its
# relative slack of 1e-14 is then at most 0.1 of a step (at 2**53 it is 90).
_MAX_EXACT_R = 10**13


def _pinned_tau(r: int, x: float, y: float, z: float, w: float, tau_cap: float,
                delta_e: float) -> float:
    """Largest tau still giving r steps under the (x, y, z) split, at most tau_cap."""
    return min(r * math.sqrt((1.0 - (x + z)) * (1.0 - y) * delta_e / w), tau_cap)


def _split(rz: int, charged: int, r: int, w: float, tau_cap: float, delta_e: float,
           amortize: bool, x: float, v: float) -> tuple[float, float, float]:
    """(y, z, tau) at rotation slice x and Trotter slice v, for r steps of
    ``rz`` rotations.

    x and z enter the cost only through their own synthesis terms and
    through s = x + z, so at fixed s, y and r the catalyst slice costs least
    where both terms have the same derivative: z = x * charged / rz, or
    z = x * charged / (N_q * rz) when the catalysts are charged once
    (``amortize``).  tau = min(r * sqrt(v * dE / W), tau_cap) does not
    depend on the split, so with N_q = 0.76*pi / (y * tau * dE) the
    amortized split is z = k * y, and y = 1 - v / (1 - x - z) makes z the
    smaller root of z**2 - (a + k) z + k (a - v) with a = 1 - x.  y is
    clamped to its box (an amortized z then follows the clamped y).
    Raises ``ValueError`` when x + z >= 1.
    """
    k = x * charged / rz
    if amortize:
        k *= min(r * math.sqrt(v * delta_e / w), tau_cap) * delta_e / QPE_QUERY_CONSTANT
        a = 1.0 - x
        z = 2.0 * k * (a - v) / (a + k + math.sqrt((a - k) ** 2 + 4.0 * k * v))
    else:
        z = k
    if not x + z < 1.0:
        raise ValueError(f"the split x={x}, z={z} leaves no Trotter budget")
    y = 1.0 - v / (1.0 - (x + z))
    if not _Y_DIM.lower <= y <= _Y_DIM.upper:
        y = min(max(y, _Y_DIM.lower), _Y_DIM.upper)
        if amortize:
            z = k * y
    return y, z, _pinned_tau(r, x, y, z, w, tau_cap, delta_e)


def _v_top(r: int, w: float, tau_cap: float, delta_e: float) -> float:
    """The largest Trotter slice worth giving r steps: beyond the kink
    (tau_cap / r)**2 W / dE tau stays at its cap, so the slack would buy
    cheaper synthesis as part of x, and beyond 1 - y_min it leaves y below
    its box."""
    return min((tau_cap / r) ** 2 * w / delta_e, 1.0 - _Y_DIM.lower)


def _total(step: CostVector, catalysts: tuple[int, int], r: int, w: float, tau_cap: float,
           delta_e: float, amortize: bool, x: float, v: float) -> float:
    """Total Toffolis at the slices (x, v) for an r-step evolution ``step``."""
    y, z, tau = _split(step.rz, catalysts[0], r, w, tau_cap, delta_e, amortize, x, v)
    return _cost(step, catalysts, x, y, z, tau, delta_e, amortize)[3]


def _objective(step: CostVector, catalysts: tuple[int, int], r: int, w: float,
               tau_cap: float, delta_e: float, amortize: bool, point) -> float:
    """``_total`` at the refinement point (x, u), v = v_top * (1 - u**2)."""
    x, u = point
    v = _v_top(r, w, tau_cap, delta_e) * (1.0 - u * u)
    return _total(step, catalysts, r, w, tau_cap, delta_e, amortize, x, v)


def _coarse_grid(line: tuple[tuple[int, int], ...], catalysts: tuple[int, int], w: float,
                 tau_cap: float, delta_e: float, amortize: bool) -> tuple[int, list[float]]:
    """(r, refinement point (x, u)) of the cheapest point of a coarse (x, v)
    grid.

    At a fixed point, tau = r * k grows with r, k = sqrt(v * dE / W), until
    it reaches tau_cap at r_c = ceil(tau_cap / k).  Below r_c the cost
    falls with r (N_q ~ 1/r, and the per-query cost is affine in r with a
    non-negative intercept); from r_c on N_q is fixed and every step-cost
    component grows.  So each point needs only r_c - 1 and r_c, and as r_c
    depends on v alone, each v shares two step costs across its x values.
    A point whose split is undefined (x + z >= 1), or whose total is NaN or
    overflows, counts as +inf.  Raises ``ValueError`` when no grid point
    has a finite total.
    """
    best, best_r, best_xv = math.inf, 0, None
    xs = _X_DIM.grid(_GRID_POINTS)
    for v in _V_GRID.grid(_GRID_POINTS):
        try:
            r_c = math.ceil(tau_cap / math.sqrt(v * delta_e / w))
        except (ZeroDivisionError, OverflowError):
            continue   # no step count within floats
        for r in sorted({max(r_c - 1, 1), r_c}):
            step = _step_at(line, r)
            for x in xs:
                try:
                    total = _total(step, catalysts, r, w, tau_cap, delta_e, amortize, x, v)
                except (ValueError, OverflowError, ZeroDivisionError):
                    continue
                if total < best:   # false for NaN and +inf
                    best, best_r, best_xv = total, r, (x, v)
    if best_xv is None:
        raise ValueError(f"the Trotter cost overflows at W={w:g}, delta_e={delta_e:g}")
    x, v = best_xv
    return best_r, [x, math.sqrt(max(1.0 - v / _v_top(best_r, w, tau_cap, delta_e), 0.0))]


def _best_step_count(cost, r: int) -> int:
    """Integer r >= 1 minimizing the unimodal ``cost``, searched from r.

    Gallops away from r in the direction that improves, by steps of 1, 2,
    4, ... while the cost falls (Bentley and Yao, 1976), then narrows the
    last bracket by integer ternary search: O(log d) costs for an optimum
    d steps away.
    """
    here = cost(r)
    for direction in (1, -1):
        if r + direction >= 1 and cost(r + direction) < here:
            break
    else:
        return r
    behind, best, step = r, r + direction, 1
    while True:
        step *= 2
        ahead = max(best + direction * step, 1)
        if ahead == best:
            return best   # falls all the way to r = 1
        if not cost(ahead) < cost(best):
            break
        behind, best = best, ahead
    (lo, hi), mid = sorted((behind, ahead)), best
    while hi - lo > 2:   # invariant: cost(mid) <= cost(lo), cost(hi)
        probe = (lo + mid) // 2 if mid - lo > hi - mid else (mid + hi + 1) // 2
        if cost(probe) < cost(mid):
            lo, mid, hi = (lo, probe, mid) if probe < mid else (mid, probe, hi)
        elif probe < mid:
            lo = probe
        else:
            hi = probe
    return mid


def optimize_trotter(spec: ModelSpec, strategy: Strategy,
                     delta_e: float | None = None,
                     amortize_catalyst: bool = False) -> TrotterEstimate:
    """Minimize the total Toffoli count over the budget split and time step.

    Deterministic.  tau is pinned to the largest value still giving r steps
    (bounded by the step-error cap) and the catalyst slice z follows from x
    in closed form (see ``_split``), so the free variables are r and the
    pair (x, v), v = (1 - s)(1 - y) being the Trotter slice.  A plain pass
    over a coarse (x, v) grid evaluates each point at the only two step
    counts that can be best for it (see ``_coarse_grid``).  ``minimize``
    refines from the best grid point at its r, over x and a smooth
    reparametrization of v (see ``_U_DIM``); r then gallops
    and narrows to its optimum (see ``_best_step_count``), each r refined
    from the optimum of the nearest r already solved.  Raises
    ``ValueError`` when the cost overflows, when r exceeds 1e13 (where
    ``evaluate`` no longer recovers r from the pinned tau), or when the optimum
    needs fewer than one phase-estimation query (an error target too loose
    to mean anything); warns when x or y sits on a box edge.
    """
    strategy = Strategy(strategy)
    _check_lattice(spec.kind, spec.L)
    delta_e = error_target(spec.L, delta_e)
    w = trotter_bound(spec)
    tau_cap = tau_max(w) * _TAU_MARGIN
    catalysts = _catalysts(spec.kind, spec.L, strategy)
    line = _step_line(spec.kind, spec.L, strategy)

    r, start = _coarse_grid(line, catalysts, w, tau_cap, delta_e, amortize_catalyst)
    if r > _MAX_EXACT_R:
        raise ValueError(f"the Trotter step count r={r:.3g} overflows 1e13, above which the "
                         f"time step no longer pins r exactly, at delta_e={delta_e:g}")
    points, values = {r: start}, {}

    def cost(q: int) -> float:
        if q not in values:
            nearest = min(points, key=lambda p: abs(p - q))
            objective = partial(_objective, _step_at(line, q), catalysts, q, w, tau_cap,
                                delta_e, amortize_catalyst)
            try:
                result = minimize(objective, _DIMS, points[nearest])
            except ValueError:   # the warm start is undefined at q steps
                values[q] = math.inf
            else:
                points[q], values[q] = result.point, result.value
        return values[q]

    r = _best_step_count(cost, r)
    x, u = points[r]
    y, z, tau = _split(_step_at(line, r).rz, catalysts[0], r, w, tau_cap, delta_e,
                       amortize_catalyst, x, _v_top(r, w, tau_cap, delta_e) * (1.0 - u * u))
    est = evaluate(spec, strategy, TrotterBudget(delta_e, y, x, z, tau), w, amortize_catalyst)
    require_one_query(est.n_queries, delta_e)
    warn_on_edges("Trotter budget", "xy", (_X_DIM, _Y_DIM), (x, y))
    return est
