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

The split x is where d ln(total)/dx changes sign on (1/2, 1), so it is set
by the model alone.  A few Newton steps on the condition's log form give a
root, returned as it is once the slope changes sign within 1e-13 of it;
a root they cannot certify is refused, as bisecting all of (1/2, 1)
nearly always refused it too (see ``optimize_qubitization``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .model import (CUPRATE, FERMI_HUBBARD, Model, ModelSpec, error_target, lcu_lambda,
                    require_one_query, system_qubits)
from .optimize import minimize
from .primitives import RUS_T_OFFSET, RUS_T_SLOPE, ceil_log2


def _odd_part(L: int) -> int:
    while L % 2 == 0:
        L //= 2
    return L


# Non-Clifford tallies for one (controlled) walk operator: the Toffolis of select and two
# prepares, the arbitrary-angle rotations and bare T gates per walk, and the qubits beyond
# the phase and system registers.  A named tuple: each solve builds one, cheaply.
WalkCounts = namedtuple("WalkCounts", "toffoli rotations t_direct ancillas")


def walk_counts(kind: Model, L: int) -> WalkCounts:
    lg = ceil_log2(L)
    m = _odd_part(L)
    binary = m == 1
    usp_toffoli = 0 if binary else 4 * ceil_log2(m)
    # Rotation tallies per walk, calibrated against the published per-model
    # resource tables: the non-binary branch counts one rotation fewer than
    # a naive 2-per-USP tally would suggest (the tables are only consistent
    # with this count; see README, "Known deviations").
    if kind is FERMI_HUBBARD:
        return WalkCounts(5 * L * L + 10 * lg - 4 + usp_toffoli,
                          2 if binary else 5, 4, 3)
    if kind is CUPRATE:
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
    """A qubitization run: the ``spec`` it costs, its energy error target
    ``delta_e``, the fraction ``x`` of the squared phase-error budget given
    to phase estimation, the LCU 1-norm ``lam`` (an energy, in the unit of
    ``delta_e``) and ``n_queries``, the number of walk-operator queries (a
    float: the continuous bound).  Over all queries, ``n_t`` T gates (the synthesized
    rotations and the direct T gates) and ``n_toffoli`` Toffolis;
    ``total_toffoli`` counts two T gates as one Toffoli.  ``total_qubits``
    is the number of logical qubits: phase register, system register and
    the walk's ancillas."""

    spec: ModelSpec
    delta_e: float
    x: float
    lam: float
    n_queries: float
    n_t: float
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
    # log2 of n_rot pi (lam / dE)^2 / sqrt(x (1 - x)), summed: the product
    # overflows at deep targets and near x = 1, where its logarithm does not
    log_inverse_budget = (math.log2(n_rot * math.pi) + 2.0 * math.log2(lam / delta_e)
                          - 0.5 * math.log2(x * (1.0 - x)))
    return counts.t_direct + n_rot * (RUS_T_SLOPE * log_inverse_budget + RUS_T_OFFSET)


def estimate(spec: ModelSpec, x: float, delta_e: float | None = None) -> QubitizationEstimate:
    """Resource estimate at a fixed error split x."""
    return _estimate(spec, x, error_target(spec.L, delta_e), lcu_lambda(spec),
                     walk_counts(spec.kind, spec.L))


def _estimate(spec: ModelSpec, x: float, delta_e: float, lam: float,
              counts: WalkCounts) -> QubitizationEstimate:
    """``estimate`` from the model's ``lcu_lambda`` and ``walk_counts``."""
    queries = query_count(lam, delta_e, x)
    n_t = queries * _walk_t(counts, lam, delta_e, x)
    n_toffoli = queries * counts.toffoli
    # log2 of pi lam L^6 / (2 sqrt(x) dE), summed: the product overflows
    # where its logarithm does not
    phase_bits = (math.log2(0.5 * math.pi) + math.log2(lam) + 6.0 * math.log2(spec.L)
                  - 0.5 * math.log2(x) - math.log2(delta_e))
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
    x is g itself once ``minimize`` certifies it: the slope changes sign
    across [g (1 - 1e-13), g (1 + 1e-13)], cut below 1.
    The estimate is built once, at the optimum, from the lambda and walk
    counts read here.  Raises ``ValueError`` when the
    optimum needs fewer than one phase-estimation query, or when Newton finds
    no root or the slope does not change sign across its bracket: bisecting
    (1/2, 1) instead answered none of 4,756 such solves checked.
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

    # the slope divides by 1 - x: the certificate's bracket ends below 1
    found = minimize(slope, _newton_split(rate, per_walk(0.75)), math.nextafter(1.0, 0.0))
    if found is None:
        raise ValueError(f"the qubitization error split overflows: d ln(total)/dx stays "
                         f"negative up to x = 1 at lambda={lam:g}, delta_e={delta_e:g} (the "
                         f"walk cost overflows, or x is within float resolution of 1)")
    est = _estimate(spec, found.point, delta_e, lam, counts)
    require_one_query(est.n_queries, delta_e)
    return est
