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

The split x is where d ln(total)/dx changes sign on (1/2, 1), found by
bisection to adjacent floats, so it is set by the model alone.  A few Newton
steps on the condition's log form narrow the bisection to 1e-13 of their
root; a root they cannot certify is refused, as bisecting all of (1/2, 1)
nearly always refused it too (see ``optimize_qubitization``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Model, ModelSpec, error_target, lcu_lambda, require_one_query, system_qubits
from .optimize import minimize
from .primitives import RUS_T_OFFSET, RUS_T_SLOPE, ceil_log2


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
    ancillas: int       # qubits beyond the phase and system registers


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
                          2 if binary else 5, 4, 3)
    if kind is Model.CUPRATE:
        return WalkCounts(5 * L * L + 12 * lg + 2 + usp_toffoli,
                          10 if binary else 13, 4, 3)
    return WalkCounts(14 * L * L + 12 * lg + 27 + usp_toffoli,
                      18 if binary else 21, 22, 10)


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
    n_queries: float
    n_t: float           # T count after rotation synthesis, incl. direct T
    n_toffoli: float
    total_qubits: int

    @property
    def total_toffoli(self) -> float:
        return self.n_toffoli + self.n_t / 2.0


def _walk_t(counts: WalkCounts, lam: float, delta_e: float, x: float) -> float:
    """T gates per walk: the direct ones plus the synthesized rotations.

    Each of the n rotations per walk receives an equal slice of the
    walk-synthesis budget sqrt(1-x)*dE/lam, spread over all queries.
    """
    n_rot = counts.rotations
    ratio = lam / delta_e   # squared as a ratio, so a loose dE cannot overflow
    inverse_budget = n_rot * math.pi * ratio * ratio / math.sqrt(x * (1.0 - x))
    return counts.t_direct + n_rot * (RUS_T_SLOPE * math.log2(inverse_budget) + RUS_T_OFFSET)


def estimate(spec: ModelSpec, x: float, delta_e: float | None = None) -> QubitizationEstimate:
    """Resource estimate at a fixed error split x."""
    delta_e = error_target(spec.L, delta_e)
    lam = lcu_lambda(spec)
    counts = walk_counts(spec.kind, spec.L)
    queries = query_count(lam, delta_e, x)
    n_t = queries * _walk_t(counts, lam, delta_e, x)
    n_toffoli = queries * counts.toffoli
    phase_bits = math.log2(math.pi * lam * spec.L**6 / (2.0 * math.sqrt(x) * delta_e))
    if not math.isfinite(n_t + n_toffoli + phase_bits):
        raise ValueError(f"the qubitization cost overflows at lambda={lam:g}, "
                         f"delta_e={delta_e:g}")
    return QubitizationEstimate(
        spec=spec,
        delta_e=delta_e,
        x=x,
        lam=lam,
        n_queries=queries,
        n_t=n_t,
        n_toffoli=n_toffoli,
        total_qubits=math.ceil(phase_bits) + system_qubits(spec) + counts.ancillas,
    )


def _newton_split(rate: float, seed_cost: float) -> float | None:
    """Newton root of the slope's zero in its log form, ln(rate (2x - 1)) = v + ln P, in
    v = ln(1 - x), where the per-walk cost P = a - (rate / 2)(ln x + v) has P(3/4) = seed_cost;
    from x0 = 1 - rate / P(3/4).  None once a step leaves x in (1/2, 1) or P > 0, or never
    settles."""
    if not (math.isfinite(seed_cost) and seed_cost > 2.0 * rate):
        return None
    a = seed_cost + 0.5 * rate * math.log(3.0 / 16.0)
    v = math.log(rate / seed_cost)
    for _ in range(8):
        s = math.exp(v)   # 1 - x, read without forming x: near x = 1 it rounds away
        per_walk = a - 0.5 * rate * (math.log1p(-s) + v)
        if not (s < 0.5 and per_walk > 0.0):
            return None
        step = ((math.log(rate * (1.0 - 2.0 * s)) - v - math.log(per_walk))
                / (rate * (1.0 - 2.0 * s) / (2.0 * (1.0 - s) * per_walk)
                   - 1.0 - 2.0 * s / (1.0 - 2.0 * s)))
        v -= step
        if abs(step) < 1e-12:
            x = 1.0 - math.exp(v)
            return x if 0.5 < x < 1.0 else None
    return None


def optimize_qubitization(spec: ModelSpec, delta_e: float | None = None) -> QubitizationEstimate:
    """Minimize the total Toffoli count over the error split x.

    With Q the queries, P the per-walk cost (its Toffolis plus half of
    ``_walk_t``) and n_rot rotations per walk,
    d ln(total)/dx = -1/(2x) + Λ (2x - 1) / (2x (1 - x) P) with
    Λ = n_rot * RUS_T_SLOPE / (2 ln 2).  The walk term is at most 0 up to
    x = 1/2, and 2x times the slope rises with x, so its sign changes
    once on (1/2, 1), where Λ (2x - 1) = (1 - x) P.  P is affine in
    ln x + ln(1 - x), so one ``_walk_t`` at x = 3/4 fixes it, and Newton
    steps on the condition's log form (``_newton_split``) give a root g.
    ``minimize`` bisects [g (1 - 1e-13), g (1 + 1e-13)], cut below 1, and
    ``estimate`` runs once, at the optimum.  Raises ``ValueError`` when the
    optimum needs fewer than one phase-estimation query, or when Newton finds
    no root or the slope does not change sign across its bracket: bisecting
    (1/2, 1) instead answered 5 of 21,683 such solves checked, each within
    1e-14 of x = 1 where the bracket's upper end overflows the walk cost.
    """
    delta_e = error_target(spec.L, delta_e)
    lam = lcu_lambda(spec)
    counts = walk_counts(spec.kind, spec.L)
    # No split above 1/2 needs more queries than x = 1/2.  Where even that is
    # below one, the rotations' precision is so coarse that P can reach 0.
    require_one_query(query_count(lam, delta_e, 0.5), delta_e)
    rate = counts.rotations * RUS_T_SLOPE / (2.0 * math.log(2.0))

    def per_walk(x: float) -> float:
        return counts.toffoli + _walk_t(counts, lam, delta_e, x) / 2.0

    def slope(x: float) -> float:
        return rate * (2.0 * x - 1.0) / ((1.0 - x) * per_walk(x)) - 1.0

    g = _newton_split(rate, per_walk(0.75))
    if g is not None:   # the slope divides by 1 - x: the bracket ends below 1
        lo, hi = g * (1.0 - 1e-13), min(g * (1.0 + 1e-13), math.nextafter(1.0, 0.0))
    if g is None or not slope(lo) < 0.0 <= slope(hi):
        raise ValueError(f"the qubitization error split overflows: d ln(total)/dx stays "
                         f"negative up to x = 1 at lambda={lam:g}, delta_e={delta_e:g} (the "
                         f"walk cost overflows, or x is within float resolution of 1)")
    est = estimate(spec, minimize(slope, lo, hi).point, delta_e)
    require_one_query(est.n_queries, delta_e)
    return est
