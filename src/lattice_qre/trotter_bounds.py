"""Second-order Trotter commutator error bounds W and derived step counts.

For a symmetric second-order product formula with time slice tau/r, the
approximation error of one evolution is bounded by ``tau^3 * W / r^2``
where W collects nested-commutator norms of the Hamiltonian partition.

The Fermi-Hubbard bound combines a closed-form term with two numerically
computed free-fermion norms, tabulated per lattice size.  The cuprate and
pnictide bounds are degree-3 polynomials in the coupling magnitudes with
fixed coefficients obtained from symbolic commutator evaluation; only the
printed coefficients are consumed here, the evaluation itself is out of
scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import CUPRATE, FERMI_HUBBARD, InvalidLattice, ModelSpec

# ---------------------------------------------------------------------------
# Fermi-Hubbard norm table
# ---------------------------------------------------------------------------

# L -> (||H_hop1 + H_hop2|| / |t|, ||[[H_hop1, H_hop2], H_hop1]|| / |t|^3).
# The norms are available only at these lattice sizes; no interpolation is
# offered because the values are computed bounds, not smooth guarantees.
FH_NORMS = {
    4: (24.0, 0.0), 6: (56.0, 110.0), 8: (100.0, 190.0), 10: (160.0, 300.0),
    12: (230.0, 440.0), 14: (320.0, 630.0), 16: (410.0, 810.0),
    18: (520.0, 1000.0), 20: (650.0, 1300.0), 22: (780.0, 1600.0),
    24: (930.0, 1800.0), 26: (1100.0, 2200.0), 28: (1300.0, 2500.0),
    30: (1500.0, 2900.0), 32: (1700.0, 3300.0),
}

_HOP_COMM_COEFF = (math.sqrt(5.0) + 8.0) / 6.0


def fh_w(L: int, t: float, u: float) -> float:
    """Fermi-Hubbard Trotter bound.

    First term is the closed-form hopping/on-site commutator bound; the two
    tabulated norms supply the remaining on-site/hopping and pure-hopping
    contributions.  Degree-3 homogeneous in (t, u) since the stored norms
    are divided by |t| and |t|^3.
    """
    if L not in FH_NORMS:
        raise InvalidLattice(f"no tabulated norms for L={L} (have {sorted(FH_NORMS)})")
    norm_hop, norm_comm = FH_NORMS[L]
    return (
        _HOP_COMM_COEFF * abs(u) * t * t * L * L
        + abs(u) * abs(u) * abs(t) * norm_hop / 24.0
        + 3.0 / 24.0 * norm_comm * abs(t) ** 3
    )


# Cuprate bound: coefficient and monomial (t, t', t'', u) exponents.
_CUPRATE_TERMS = (
    (0.5562, (3, 0, 0, 0)), (3.5166, (2, 1, 0, 0)), (1.0147, (2, 0, 1, 0)),
    (1.2652, (2, 0, 0, 1)), (5.9063, (1, 2, 0, 0)), (6.6727, (1, 1, 1, 0)),
    (2.7246, (1, 1, 0, 1)), (1.4832, (1, 0, 2, 0)), (2.4294, (1, 0, 1, 1)),
    (0.2018, (1, 0, 0, 2)), (4.2510, (0, 3, 0, 0)), (5.7898, (0, 2, 1, 0)),
    (2.2182, (0, 2, 0, 1)), (4.2787, (0, 1, 2, 0)), (2.8980, (0, 1, 1, 1)),
    (0.3333, (0, 1, 0, 2)), (0.7688, (0, 0, 3, 0)), (1.3761, (0, 0, 2, 1)),
    (0.2369, (0, 0, 1, 2)),
)

# Pnictide bound: coefficient and monomial (t1, t2, t3, t4, u, v) exponents.
_PNICTIDE_TERMS = (
    (0.25, (3, 0, 0, 0, 0, 0)), (1.3333, (2, 0, 1, 0, 0, 0)),
    (1.4524, (2, 0, 0, 1, 0, 0)), (0.3333, (2, 0, 0, 0, 1, 0)),
    (0.7233, (2, 0, 0, 0, 0, 1)), (0.6667, (1, 1, 1, 0, 0, 0)),
    (1.9374, (1, 1, 0, 1, 0, 0)), (0.3398, (1, 1, 0, 0, 1, 0)),
    (1.037, (1, 1, 0, 0, 0, 1)), (2.6667, (1, 0, 2, 0, 0, 0)),
    (5.6918, (1, 0, 1, 1, 0, 0)), (1.015, (1, 0, 1, 0, 1, 0)),
    (2.6200, (1, 0, 1, 0, 0, 1)), (4.2562, (1, 0, 0, 2, 0, 0)),
    (1.1301, (1, 0, 0, 1, 1, 0)), (2.8315, (1, 0, 0, 1, 0, 1)),
    (0.0833, (1, 0, 0, 0, 2, 0)), (0.2506, (1, 0, 0, 0, 1, 1)),
    (3.8354, (1, 0, 0, 0, 0, 2)), (0.25, (0, 3, 0, 0, 0, 0)),
    (1.3333, (0, 2, 1, 0, 0, 0)), (1.4524, (0, 2, 0, 1, 0, 0)),
    (0.3333, (0, 2, 0, 0, 1, 0)), (0.7363, (0, 2, 0, 0, 0, 1)),
    (2.6667, (0, 1, 2, 0, 0, 0)), (5.6918, (0, 1, 1, 1, 0, 0)),
    (1.0151, (0, 1, 1, 0, 1, 0)), (2.5783, (0, 1, 1, 0, 0, 1)),
    (4.2562, (0, 1, 0, 2, 0, 0)), (1.1279, (0, 1, 0, 1, 1, 0)),
    (2.7618, (0, 1, 0, 1, 0, 1)), (0.0833, (0, 1, 0, 0, 2, 0)),
    (0.2506, (0, 1, 0, 0, 1, 1)), (0.2397, (0, 1, 0, 0, 0, 2)),
    (2.8333, (0, 0, 3, 0, 0, 0)), (8.0, (0, 0, 2, 1, 0, 0)),
    (1.3333, (0, 0, 2, 0, 1, 0)), (2.7211, (0, 0, 2, 0, 0, 1)),
    (8.0, (0, 0, 1, 2, 0, 0)), (2.3333, (0, 0, 1, 1, 1, 0)),
    (4.3035, (0, 0, 1, 1, 0, 1)), (0.1667, (0, 0, 1, 0, 2, 0)),
    (0.4714, (0, 0, 1, 0, 1, 1)), (0.4714, (0, 0, 1, 0, 0, 2)),
    (2.8333, (0, 0, 0, 3, 0, 0)), (1.3333, (0, 0, 0, 2, 1, 0)),
    (2.7135, (0, 0, 0, 2, 0, 1)), (0.1667, (0, 0, 0, 1, 2, 0)),
    (0.4714, (0, 0, 0, 1, 1, 1)), (0.4714, (0, 0, 0, 1, 0, 2)),
)


def _factors(terms):
    """A polynomial compiled once into two tables: the (variable, exponent)
    powers its terms use, in order of first use, and each term as its
    coefficient and three indices into those powers, in variable order,
    padded with the index of a trailing 1.0."""
    powers = tuple(dict.fromkeys((i, e) for _, exps in terms for i, e in enumerate(exps) if e))
    index = {power: n for n, power in enumerate(powers)}
    one = len(powers)
    compiled = []
    for coeff, exps in terms:
        slots = [index[i, e] for i, e in enumerate(exps) if e]
        compiled.append((coeff, *slots, *[one] * (3 - len(slots))))
    return powers, tuple(compiled)


def _poly(poly, values) -> float:
    """sum of coeff * prod(|value| ** exponent) over the terms of a
    ``_factors`` polynomial, added left to right in term order.  Each power
    the terms use is taken once, and one they do not use is never taken: an
    unused |u| ** 3 could overflow where the polynomial does not.  The
    product (f1 * f2) * f3 is the left-to-right ``math.prod`` of a term's
    factors, a padded 1.0 included, so the value is bit-identical to it."""
    powers, terms = poly
    p = [abs(values[i]) ** e for i, e in powers]
    p.append(1.0)
    total = 0.0
    for c, i, j, k in terms:
        total += c * (p[i] * p[j] * p[k])
    return total


_CUPRATE_POLY = _factors(_CUPRATE_TERMS)
_PNICTIDE_POLY = _factors(_PNICTIDE_TERMS)


def cuprate_w(L: int, t, t_prime, t_dprime, u) -> float:
    return L * L * _poly(_CUPRATE_POLY, (t, t_prime, t_dprime, u))


def pnictide_w(L: int, t1, t2, t3, t4, u, v) -> float:
    return L * L * _poly(_PNICTIDE_POLY, (t1, t2, t3, t4, u, v))


def trotter_bound(spec: ModelSpec) -> float:
    """W for a model spec; ``ValueError`` when it overflows or is 0."""
    c = spec.couplings
    try:
        if spec.kind is FERMI_HUBBARD:
            w = fh_w(spec.L, c.t, c.u)
        elif spec.kind is CUPRATE:
            w = cuprate_w(spec.L, c.t, c.t_prime, c.t_dprime, c.u)
        else:
            w = pnictide_w(spec.L, c.t1, c.t2, c.t3, c.t4, c.u, c.v)
    except OverflowError:
        w = math.inf
    if not math.isfinite(w):
        raise ValueError(f"the Trotter bound W overflows for the couplings {c}")
    if w == 0:
        raise ValueError(f"the Trotter bound W is 0 for the couplings {c}: no error to budget")
    return w


# ---------------------------------------------------------------------------
# Error budget and step count
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrotterBudget:
    """Split of the total energy error ΔE across the three error sources.

    Phase estimation gets y*ΔE, the Trotter error gets (1-s)(1-y)*ΔE and
    rotation synthesis gets s(1-y)*ΔE, further split s = x + z between the
    per-step rotations (x) and the catalyst-state synthesis (z).  Baseline
    strategies carry no catalysts and run with z = 0.  ``delta_e`` is ΔE,
    an energy; ``y``, ``x`` and ``z`` are shares; ``tau`` is the evolution
    time of one phase-estimation query (an inverse energy), which its r
    steps slice into tau/r.
    """

    delta_e: float
    y: float
    x: float
    z: float
    tau: float

    @property
    def s(self) -> float:
        return self.x + self.z

    def __post_init__(self):
        # one test for the usual all-finite budget; an overflowing sum names no field
        if not math.isfinite(self.delta_e + self.y + self.x + self.z + self.tau):
            for name in ("delta_e", "y", "x", "z", "tau"):
                if not math.isfinite(getattr(self, name)):
                    raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.delta_e <= 0:
            raise ValueError("delta_e must be positive")
        if not 0.0 < self.y < 1.0:
            raise ValueError(f"y must be in (0, 1), got {self.y}")
        if self.x <= 0 or self.z < 0 or self.s >= 1.0:
            raise ValueError(f"need x > 0, z >= 0, x + z < 1; got x={self.x}, z={self.z}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    @property
    def shares(self) -> tuple[float, float, float]:
        """(p, q, c): the shares of ΔE for phase estimation, the per-step
        rotations and the catalyst states."""
        return self.y, self.x * (1.0 - self.y), self.z * (1.0 - self.y)

    @property
    def delta_e_trotter(self) -> float:
        return (1.0 - self.s) * (1.0 - self.y) * self.delta_e


def tau_max(W: float) -> float:
    """Largest admissible time step: keeps the per-step error below sqrt(2)/r^2."""
    if W <= 0:
        raise ValueError(f"tau_max needs W > 0, got {W}")
    if not (cap := (math.sqrt(2.0) / W) ** (1.0 / 3.0)) < math.inf:
        raise ValueError(f"tau_max needs a finite time step: W={W:g} is too small")
    return cap


def trotter_steps(W: float, tau: float, budget: TrotterBudget) -> int:
    """Steps r per evolution so the Trotter error fits its budget slice.

    Solves ΔE_T * tau = tau^3 W / r^2 for r and takes the ceiling, clamped
    to at least one step.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if W < 0:
        raise ValueError("W must be non-negative")
    det = budget.delta_e_trotter
    if det <= 0:
        raise ValueError("degenerate budget: Trotter slice is non-positive")
    if W == 0:
        return 1
    # A relative slack of 1e-14 (the float error of a tau pinned onto a step
    # boundary is a few ulps) keeps such a tau at its r for r up to ~1e14.
    return max(1, math.ceil(tau * math.sqrt(W / det) * (1.0 - 1e-14)))
