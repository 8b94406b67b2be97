"""Target lattice models, their couplings, and the induced LCU 1-norm.

Three two-dimensional fermionic models are supported, all on periodic
L x L lattices:

* Fermi-Hubbard: nearest-neighbour hopping ``t`` and on-site repulsion ``u``.
* Cuprate (single orbital): adds second- and third-neighbour hopping
  ``t_prime`` and ``t_dprime``.
* Pnictide (two orbitals): anisotropic nearest-neighbour hoppings ``t1``,
  ``t2``, diagonal hoppings ``t3``, ``t4``, and intra-/inter-orbital
  repulsions ``u``, ``v``.

All cost formulas downstream consume coupling magnitudes, so signs are
accepted but irrelevant.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path


class Model(str, Enum):
    FERMI_HUBBARD = "fh"
    CUPRATE = "cuprate"
    PNICTIDE = "pnictide"


# The members as module names for the per-solve model checks: on Python 3.11
# every class lookup of an enum member runs EnumType.__getattr__'s slow hook.
FERMI_HUBBARD, CUPRATE, PNICTIDE = Model.FERMI_HUBBARD, Model.CUPRATE, Model.PNICTIDE


class InvalidLattice(ValueError):
    """Lattice dimension incompatible with the requested model or scheme."""


@dataclass(frozen=True)
class FermiHubbardCouplings:
    """Fermi-Hubbard couplings, in the energy unit of the error target
    ``delta_e``: nearest-neighbour hopping ``t`` and on-site repulsion ``u``."""

    t: float = 1.0
    u: float = 8.0


@dataclass(frozen=True)
class CuprateCouplings:
    """Single-orbital cuprate couplings, in the energy unit of the error
    target ``delta_e``: first-, second- and third-neighbour hoppings ``t``,
    ``t_prime`` and ``t_dprime``, and on-site repulsion ``u``."""

    t: float = 1.0
    t_prime: float = 0.3
    t_dprime: float = 0.2
    u: float = 8.0


@dataclass(frozen=True)
class PnictideCouplings:
    """Two-orbital pnictide couplings, in the energy unit of the error
    target ``delta_e``: anisotropic nearest-neighbour hoppings ``t1`` and
    ``t2``, diagonal hoppings ``t3`` and ``t4``, and intra- and
    inter-orbital repulsions ``u`` and ``v``."""

    t1: float = 1.0
    t2: float = 1.3
    t3: float = 0.85
    t4: float = 0.85
    u: float = 8.0
    # The inter-orbital strength is not fixed by the benchmark set; u is the
    # conventional companion value and remains user-settable.
    v: float = 8.0


COUPLING_TYPES = {
    Model.FERMI_HUBBARD: FermiHubbardCouplings,
    Model.CUPRATE: CuprateCouplings,
    Model.PNICTIDE: PnictideCouplings,
}

# Every coupling name of any model, in order of first appearance.
COUPLING_NAMES = tuple(dict.fromkeys(
    f.name for couplings in COUPLING_TYPES.values() for f in fields(couplings)))


def default_couplings(kind: Model):
    """Benchmark couplings for a model (u/t = 8 regime)."""
    return COUPLING_TYPES[Model(kind)]()


def _lattice_size(L, kind: Model | None = None) -> int:
    """``L`` as ``operator.index`` gives it, if even and at least 2 (4 for
    cuprate and pnictide) with L^2 inside a float; otherwise
    ``InvalidLattice`` naming L, and ``kind`` when given."""
    try:   # an integer-valued float or str would reach int-only code (bit_length)
        L = operator.index(L)
    except TypeError:
        raise InvalidLattice(f"L={L!r} invalid: need an integer") from None
    min_L = 2 if kind in (None, FERMI_HUBBARD) else 4
    if L < min_L or L % 2:
        model = "" if kind is None else f" for {kind.value}"
        raise InvalidLattice(f"L={L} invalid{model}: need even L >= {min_L}")
    if L * L > sys.float_info.max:   # every cost formula takes L^2 as a float
        raise InvalidLattice(f"L={L} is too large: L^2 overflows a float")
    return L


@dataclass(frozen=True)
class ModelSpec:
    """A model ``kind`` plus lattice size ``L`` and ``couplings`` (an
    instance of the model's coupling class; None takes its defaults).

    ``L`` must be an integer (stored as ``operator.index`` gives it), even
    and at least 2 (Fermi-Hubbard) or 4 (cuprate, pnictide), and L^2 must
    fit in a float.  The cuprate Trotter scheme additionally needs L to be
    a multiple of 4; that stricter check lives with the Trotter code
    because the qubitization estimates are valid at any even L.
    """

    kind: Model
    L: int
    couplings: object = None

    def __post_init__(self):
        kind = Model(self.kind)
        object.__setattr__(self, "kind", kind)
        if self.couplings is None:
            object.__setattr__(self, "couplings", default_couplings(kind))
        if not isinstance(self.couplings, COUPLING_TYPES[kind]):
            raise TypeError(
                f"{kind.value} expects {COUPLING_TYPES[kind].__name__}, "
                f"got {type(self.couplings).__name__}"
            )
        object.__setattr__(self, "L", _lattice_size(self.L, kind))
        vals = {f.name: getattr(self.couplings, f.name) for f in fields(self.couplings)}
        if not all(math.isfinite(v) for v in vals.values()):
            raise ValueError("couplings must be finite")
        lead = vals.get("t", vals.get("t1"))
        if lead == 0:
            raise ValueError("leading hopping coupling must be nonzero")

    def with_couplings(self, **updates) -> "ModelSpec":
        """This spec with the named couplings replaced; a name the model
        lacks is a ``ValueError``."""
        foreign = sorted(updates.keys() - {f.name for f in fields(self.couplings)})
        if foreign:
            raise ValueError(f"the {self.kind.value} model has no coupling {', '.join(foreign)}")
        return replace(self, couplings=replace(self.couplings, **updates))


def system_qubits(spec: ModelSpec) -> int:
    """Jordan-Wigner register size: one qubit per spin (and orbital) mode."""
    n = 2 * spec.L * spec.L
    return 2 * n if spec.kind is PNICTIDE else n


# The extensive error target grows with the lattice area: 0.51% of L^2.
EXTENSIVE_ERROR_PER_SITE = 0.0051


def extensive_error(L: int) -> float:
    """Total energy error budget for an L x L lattice; an L that no model
    takes is refused as ``ModelSpec`` refuses it (``InvalidLattice``)."""
    L = _lattice_size(L)
    return EXTENSIVE_ERROR_PER_SITE * (L * L)


def error_target(L: int, delta_e: float | None) -> float:
    """The energy error target: ``delta_e`` if given, else the extensive one."""
    if delta_e is None:
        return extensive_error(L)
    if not (math.isfinite(delta_e) and delta_e > 0):
        raise ValueError(f"the error target delta_e must be positive and finite, got {delta_e}")
    return delta_e


def require_one_query(n_queries: float, delta_e: float) -> None:
    """Reject an optimum with fewer than one phase-estimation query: its
    error target is too loose for the estimate to mean anything.
    ``n_queries`` is the optimum's query count or a bound above it."""
    if n_queries < 1.0:
        raise ValueError(f"error target delta_e={delta_e:g} is too loose: the optimum needs "
                         f"at most {n_queries:.3g} phase-estimation queries, fewer than one")


def lcu_lambda(spec: ModelSpec) -> float:
    """1-norm of the LCU coefficients of the Jordan-Wigner-transformed,
    chemical-potential-shifted Hamiltonian.

    Scales exactly as L^2 and is degree-1 homogeneous in the couplings;
    ``ValueError`` when it overflows.
    """
    c = spec.couplings
    L2 = spec.L * spec.L
    if spec.kind is FERMI_HUBBARD:
        lam = 4.0 * L2 * abs(c.t) + abs(c.u) * L2 / 4.0
    elif spec.kind is CUPRATE:
        lam = 4.0 * L2 * (abs(c.t) + abs(c.t_prime) + abs(c.t_dprime)) + abs(c.u) * L2 / 4.0
    else:
        lam = L2 * (4.0 * (abs(c.t1) + abs(c.t2)) + 8.0 * (abs(c.t3) + abs(c.t4))
                    + abs(c.u) / 2.0 + abs(c.v))
    if not math.isfinite(lam):
        raise ValueError(f"the LCU 1-norm lambda overflows at L={spec.L} for the couplings {c}")
    return lam


# ---------------------------------------------------------------------------
# Plain-text configuration files
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {"model", "L", "delta_E_override", *COUPLING_NAMES}


def parse_config(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"config line {lineno}: {key}: repeated")
        try:
            if key == "model":
                out[key] = Model(value.lower())
            elif key == "L":
                out[key] = int(value)
            else:
                out[key] = float(value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {key}: {exc}") from None
    return out


def load_config(path) -> dict:
    return parse_config(Path(path).read_text())

