"""Qubitization resource estimates: phase estimation on a walk operator.

The algorithm blocks-encode H/lambda from select/prepare oracles and runs
phase estimation on the induced walk operator.  The query count is the
continuous bound pi*lambda / (sqrt(x) * dE), where x in (0, 1) is the
fraction of the squared phase-error budget assigned to phase estimation
(the rest covers walk-operator synthesis).  Total cost is the query count
times the per-walk cost; the state-preparation window and final QFT are
negligible by comparison and ignored.

Per-walk non-Clifford counts depend on whether the lattice dimension is a
power of two: otherwise the uniform state preparations over the odd part m
of L add Toffolis and rotations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .model import Model, ModelSpec, error_target, lcu_lambda, require_one_query
from .optimize import Dimension, minimize
from .primitives import RUS_T_OFFSET, RUS_T_SLOPE, ceil_log2

X_SEARCH_INTERVAL = (0.5, 0.9999)
_EDGE_TOLERANCE = 1e-9   # an optimal x this close to a box edge is on it


def _odd_part(L: int) -> int:
    while L % 2 == 0:
        L //= 2
    return L


@dataclass(frozen=True)
class WalkCounts:
    """Non-Clifford tallies for one (controlled) walk operator."""

    toffoli: int        # select + two prepares
    rotations: int      # arbitrary-angle rotations per walk
    t_direct: int       # bare T gates per walk
    register_overhead: int  # qubits beyond the phase register


def walk_counts(kind: Model, L: int) -> WalkCounts:
    lg = ceil_log2(L)
    m = _odd_part(L)
    binary = m == 1
    usp_toffoli = 0 if binary else 4 * ceil_log2(m)
    # Rotation tallies per walk, calibrated against the published per-model
    # resource tables: the non-binary branch counts one rotation fewer than
    # a naive 2-per-USP tally would suggest (the tables are only consistent
    # with this count; see README, "Known deviations").
    if kind is Model.FERMI_HUBBARD:
        return WalkCounts(5 * L * L + 10 * lg - 4 + usp_toffoli,
                          2 if binary else 5, 4, 2 * L * L + 3)
    if kind is Model.CUPRATE:
        return WalkCounts(5 * L * L + 12 * lg + 2 + usp_toffoli,
                          10 if binary else 13, 4, 2 * L * L + 3)
    return WalkCounts(14 * L * L + 12 * lg + 27 + usp_toffoli,
                      18 if binary else 21, 22, 4 * L * L + 10)


def phase_qubits(lam: float, delta_e: float, x: float) -> int:
    """Phase-register size so the phase-estimation variance fits its budget."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must be in (0, 1), got {x}")
    return math.ceil(math.log2(math.pi * lam / (2.0 * math.sqrt(x) * delta_e)))


def query_count(lam: float, delta_e: float, x: float) -> float:
    """Continuous bound on the number of walk-operator queries."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must be in (0, 1), got {x}")
    return math.pi * lam / (math.sqrt(x) * delta_e)


@dataclass(frozen=True)
class QubitizationEstimate:
    spec: ModelSpec
    delta_e: float
    x: float
    lam: float
    m_phase_qubits: int
    n_queries: float
    n_rotations: float   # rotation count before synthesis
    n_t: float           # T count after rotation synthesis, incl. direct T
    n_toffoli: float
    total_qubits: int

    @property
    def total_toffoli(self) -> float:
        return self.n_toffoli + self.n_t / 2.0


def estimate(spec: ModelSpec, x: float, delta_e: float | None = None) -> QubitizationEstimate:
    """Resource estimate at a fixed error split x."""
    delta_e = error_target(spec.L, delta_e)
    lam = lcu_lambda(spec)
    counts = walk_counts(spec.kind, spec.L)
    queries = query_count(lam, delta_e, x)

    # Each of the n rotations per walk receives an equal slice of the
    # walk-synthesis budget sqrt(1-x)*dE/lam, spread over all queries.
    n_rot = counts.rotations
    synth_t_per_walk = 0.0
    if n_rot:
        inverse_budget = (
            n_rot * math.pi * lam * lam
            / (math.sqrt(x * (1.0 - x)) * delta_e * delta_e)
        )
        synth_t_per_walk = n_rot * (RUS_T_SLOPE * math.log2(inverse_budget) + RUS_T_OFFSET)

    qubits = (
        math.ceil(math.log2(math.pi * lam * spec.L**6 / (2.0 * math.sqrt(x) * delta_e)))
        + counts.register_overhead
    )
    return QubitizationEstimate(
        spec=spec,
        delta_e=delta_e,
        x=x,
        lam=lam,
        m_phase_qubits=phase_qubits(lam, delta_e, x),
        n_queries=queries,
        n_rotations=queries * n_rot,
        n_t=queries * (counts.t_direct + synth_t_per_walk),
        n_toffoli=queries * counts.toffoli,
        total_qubits=qubits,
    )


def optimize_qubitization(spec: ModelSpec, delta_e: float | None = None) -> QubitizationEstimate:
    """Minimize the total Toffoli count over the error split x.

    Raises ``ValueError`` when the optimum needs fewer than one
    phase-estimation query, and issues a ``RuntimeWarning`` when x sits on
    an edge of ``X_SEARCH_INTERVAL``, where the true optimum may lie outside.
    """
    delta_e = error_target(spec.L, delta_e)
    result = minimize(
        lambda p: estimate(spec, p[0], delta_e).total_toffoli,
        [Dimension(*X_SEARCH_INTERVAL)],
        grid_points=25,
    )
    est = estimate(spec, result.point[0], delta_e)
    require_one_query(est.n_queries, delta_e)
    for edge in X_SEARCH_INTERVAL:
        if abs(est.x - edge) <= _EDGE_TOLERANCE:
            warnings.warn(f"qubitization error split x={est.x!r} sits on the search-box "
                          f"edge {edge}; the optimum may lie beyond it",
                          RuntimeWarning, stacklevel=2)
    return est
