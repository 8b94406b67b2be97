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

Layer multiplicities per model follow the second-order formula with
adjacent identical factors merged.  For the pnictide model the diagonal-
hopping layers appear 2r times each (16r in total) plus 3r on-site layers;
the published per-model tables are reproduced only with this count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from types import SimpleNamespace

import numpy as np

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
    hwp_batched_cost,
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


def _layers(kind: Model, L: int, r: int) -> list[tuple[int, int]]:
    """(rotation-layer size, multiplicity per evolution) for each layer kind."""
    L2 = L * L
    if kind is Model.FERMI_HUBBARD:
        return [(L2, 4 * r + 1)]
    if kind is Model.CUPRATE:
        return [(L2, 8 * r + 1), (2 * L2, 8 * r)]
    return [(4 * L2, 7 * r + 1), (2 * L2, 19 * r)]


def _direct_t(kind: Model, L: int, r: int) -> float:
    """Bare T gates per evolution (two-site Fourier transforms)."""
    if kind is Model.FERMI_HUBBARD:
        return 12.0 * r * L * L
    if kind is Model.CUPRATE:
        return 4.0 * L * L * (7 * r + 1)
    return 0.0


def _catalysts(kind: Model, L: int, strategy: Strategy) -> tuple[int, int]:
    """(charged, count): catalyst rotations charged with synthesis T gates,
    and the qubits of (equivalently, rotations to synthesize) all catalyst
    states, whose budget slice z they share.

    Unbatched catalysts are sized by their layer's weight register; batched
    runs share catalysts sized by the batch.  The merged double-angle slot
    gives the leading hopping catalyst one extra qubit, except in the
    batched pnictide accounting where the published qubit columns require
    the plain size.  The Fermi-Hubbard catalysts are charged with one
    rotation fewer than their register size, matching the published
    accounting.
    """
    if not strategy.catalyzed:
        return 0, 0
    L2 = L * L
    if strategy.batched:
        b = floor_log2(L2 // 2)
        if kind is Model.FERMI_HUBBARD:
            count = 2 * b + 4
        elif kind is Model.CUPRATE:
            count = 4 * b + 5
        else:
            count = 6 * b + 6
    elif kind is Model.FERMI_HUBBARD:
        count = 2 * floor_log2(L2) + 4
    elif kind is Model.CUPRATE:
        count = 3 * floor_log2(L2) + floor_log2(2 * L2) + 5
    else:
        count = 2 * floor_log2(4 * L2) + 4 * floor_log2(2 * L2) + 7
    return (count - 1 if kind is Model.FERMI_HUBBARD else count), count


def _check_lattice(kind: Model, L: int) -> None:
    if L < 2 or L % 2:
        raise InvalidLattice(f"L={L}: need even L >= 2")
    if kind is Model.CUPRATE and L % 4:
        raise InvalidLattice(f"L={L}: the cuprate Trotter scheme needs L % 4 == 0")


def step_cost(kind: Model, L: int, r: int, strategy: Strategy) -> CostVector:
    """Layer Toffoli/rz tally for one r-step evolution, plus direct T gates.

    Catalyst-state synthesis is excluded; the cost kernel charges it.
    """
    kind, strategy = Model(kind), Strategy(strategy)
    _check_lattice(kind, L)
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    batch = (L * L) // 2 if strategy.batched else None
    total = CostVector(t_gates=_direct_t(kind, L, r))
    for size, reps in _layers(kind, L, r):
        if batch is None:
            layer = hwp_cost(size, strategy.hwp)
        else:
            layer = hwp_batched_cost(size, batch, strategy.hwp)
        total = total + layer.repeat(reps)
    return total


def total_qubits(spec: ModelSpec, strategy: Strategy) -> int:
    """Logical qubits: system register, weight workspace, phase-estimation
    and rotation-synthesis ancillas, plus catalyst and phase-gradient
    registers for catalyzed strategies."""
    kind, L, strategy = spec.kind, spec.L, Strategy(strategy)
    _check_lattice(kind, L)
    sizes = [size for size, _ in _layers(kind, L, 1)]
    m_hw = (L * L) // 2 if strategy.batched else max(sizes)
    qubits = system_qubits(spec) + hamming_adders(m_hw) + 2  # +1 phase qubit, +1 synthesis ancilla
    if strategy.catalyzed:
        qubits += _catalysts(kind, L, strategy)[1] + floor_log2(m_hw) + 1
    return qubits


def _math(value):
    """numpy for arrays (the solver's coarse grid), math for floats: the
    scalar polish would pay numpy's per-call overhead, and ``evaluate``
    must return plain Python floats."""
    return np if isinstance(value, np.ndarray) else math


def _cost(step, catalysts: tuple[int, int], x, y, z, tau, delta_e: float,
          amortize: bool) -> tuple:
    """(N_t1, N_t2, N_q, total Toffolis) of a run whose r-step evolution is
    ``step``: N_q = 0.76*pi / (y * tau * dE) queries at N_tof + N_t / 2 each.

    Each synthesis group splits its phase budget (slice x resp. z of the
    rotation budget, times tau) equally across its rotations: N_t2 for the
    per-layer rotations, N_t1 for the catalyst states.  ``amortize``
    charges N_t1 once instead of per query.  Broadcasts when the step
    fields and budget are numpy arrays.
    """
    phase_x = x * (1.0 - y) * delta_e * tau
    log2 = _math(phase_x).log2
    n_t2 = step.rz * (RUS_T_SLOPE * log2(step.rz / phase_x) + RUS_T_OFFSET)
    n_t1 = 0.0
    charged, count = catalysts
    if count:
        phase_z = z * (1.0 - y) * delta_e * tau
        n_t1 = charged * (RUS_T_SLOPE * log2(count / phase_z) + RUS_T_OFFSET)
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


# Budget search box.  tau is not a free dimension: within a fixed step
# count r the cost strictly improves as tau grows, so the optimum sits on
# the boundary tau_r = r * sqrt(dE_T / W) (or at the step-error cap).
_X_DIM = Dimension(1e-4, 0.35, "log")
_Z_DIM = Dimension(1e-5, 0.25, "log")
_Y_DIM = Dimension(0.2, 0.92)
_GRID_POINTS = 10   # per dimension of the coarse grid
_TAU_MARGIN = 1.0 - 1e-12
_MAX_EXACT_R = 2**53   # the grid's float r holds every integer up to here


def _pinned_tau(r, x, y, z, w: float, tau_cap: float, delta_e: float):
    """Largest tau still giving r steps under the (x, y, z) split, at most
    tau_cap.  Broadcasts over numpy arrays."""
    q = (1.0 - (x + z)) * (1.0 - y) * delta_e / w
    tau = r * _math(q).sqrt(q)
    return np.minimum(tau, tau_cap) if isinstance(tau, np.ndarray) else min(tau, tau_cap)


def _objective(step: CostVector, catalysts: tuple[int, int], r: int, w: float,
               tau_cap: float, delta_e: float, amortize: bool, point) -> float:
    """Total Toffolis at the point (x, y[, z]) with tau pinned for r steps."""
    x, y = point[0], point[1]
    z = point[2] if len(point) > 2 else 0.0
    tau = _pinned_tau(r, x, y, z, w, tau_cap, delta_e)
    return _cost(step, catalysts, x, y, z, tau, delta_e, amortize)[3]


def _step_costs(kind: Model, L: int, strategy: Strategy, r: np.ndarray) -> SimpleNamespace:
    """``step_cost`` at an integer array of step counts, field by field.

    Every layer multiplicity and the direct T count are affine in r, so the
    costs at r = 1 and r = 2 fix all others (exactly: the fields are
    integers far below 2**53).
    """
    one, two = step_cost(kind, L, 1, strategy), step_cost(kind, L, 2, strategy)
    return SimpleNamespace(**{
        field: getattr(one, field) + (getattr(two, field) - getattr(one, field)) * (r - 1)
        for field in ("toffoli", "t_gates", "rz")
    })


def _coarse_grid(kind: Model, L: int, strategy: Strategy, catalysts: tuple[int, int],
                 dims, w: float, tau_cap: float, delta_e: float,
                 amortize: bool) -> tuple[int, list[float]]:
    """(r, point) of the cheapest grid point of the budget box.

    At a fixed point, tau = r * k grows with r until it reaches tau_cap at
    r_c = ceil(tau_cap / k).  Below r_c the cost falls with r (N_q ~ 1/r,
    and the per-query cost is affine in r with a non-negative intercept);
    from r_c on N_q is fixed and every step-cost component grows.  So each
    point needs only r_c - 1 and r_c, evaluated here in one numpy pass.
    Raises ``ValueError`` when no grid point has a finite total.
    """
    points = [axis.ravel() for axis in
              np.meshgrid(*(np.array(d.grid(_GRID_POINTS)) for d in dims), indexing="ij")]
    x, y = points[0], points[1]
    z = points[2] if len(points) > 2 else 0.0
    # float r (exact below 2**53): overflow gives non-finite totals, not wrapped int64
    with np.errstate(all="ignore"):
        per_step = _pinned_tau(1, x, y, z, w, np.inf, delta_e)   # k: tau of one uncapped step
        r_c = np.ceil(tau_cap / per_step)
        r = np.stack([np.maximum(r_c - 1, 1), r_c])
        tau = _pinned_tau(r, x, y, z, w, tau_cap, delta_e)
        totals = _cost(_step_costs(kind, L, strategy, r), catalysts, x, y, z, tau,
                       delta_e, amortize)[3]
    row, column = np.unravel_index(np.argmin(totals), totals.shape)
    if not np.isfinite(totals[row, column]):
        raise ValueError(f"the Trotter cost overflows at W={w:g}, delta_e={delta_e:g}")
    return int(r[row, column]), [float(p[column]) for p in points]


def optimize_trotter(spec: ModelSpec, strategy: Strategy,
                     delta_e: float | None = None,
                     amortize_catalyst: bool = False) -> TrotterEstimate:
    """Minimize the total Toffoli count over the budget split and time step.

    Deterministic.  tau is pinned to the largest value still giving r steps
    (bounded by the step-error cap), so the free variables are r and the
    smooth remainder (x, y, z).  A numpy pass over a coarse (x, y, z) grid
    evaluates each point at the only two step counts that can be best for
    it (see ``_coarse_grid``); ``minimize`` then refines from the best grid
    point at its r, and r walks up or down by one while the total
    improves, each step refined from its neighbour's optimum.  Raises
    ``ValueError`` when the cost overflows, when r exceeds 2**53 (where the
    grid's float r is rounded and the walk by one cannot move), or when the
    optimum needs fewer than one phase-estimation query (an error target
    too loose to mean anything); warns when x, y or z sits on a box edge.
    """
    strategy = Strategy(strategy)
    _check_lattice(spec.kind, spec.L)
    delta_e = error_target(spec.L, delta_e)
    w = trotter_bound(spec)
    tau_cap = tau_max(w) * _TAU_MARGIN
    catalysts = _catalysts(spec.kind, spec.L, strategy)
    dims = [_X_DIM, _Y_DIM] + ([_Z_DIM] if strategy.catalyzed else [])

    def solve_at(r: int, start: list[float]):
        objective = partial(_objective, step_cost(spec.kind, spec.L, r, strategy), catalysts,
                            r, w, tau_cap, delta_e, amortize_catalyst)
        return minimize(objective, dims, start)

    r, start = _coarse_grid(spec.kind, spec.L, strategy, catalysts, dims, w, tau_cap,
                            delta_e, amortize_catalyst)
    if r > _MAX_EXACT_R:
        raise ValueError(f"the Trotter step count r={r:.3g} overflows 2**53, where it is no "
                         f"longer an exact integer, at delta_e={delta_e:g}")
    best = solve_at(r, start)
    for direction in (1, -1):
        origin = r
        while r + direction >= 1:
            result = solve_at(r + direction, best.point)
            if not result.value < best.value:
                break
            best, r = result, r + direction
        if r != origin:
            break   # improved upwards: the step counts below are worse

    point = best.point
    x, y = point[0], point[1]
    z = point[2] if strategy.catalyzed else 0.0
    tau = _pinned_tau(r, x, y, z, w, tau_cap, delta_e)
    est = evaluate(spec, strategy, TrotterBudget(delta_e, y, x, z, tau), w, amortize_catalyst)
    require_one_query(est.n_queries, delta_e)
    warn_on_edges("Trotter budget", "xyz", dims, point)
    return est
