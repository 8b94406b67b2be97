"""Primitive fault-tolerant gate-cost calculus.

Costs are tallied in non-Clifford currency only: Toffoli, T, and
arbitrary-angle rotations (counted before synthesis).  Clifford gates,
measurement, and feed-forward are free.  Two T gates convert to one
Toffoli.  Rotation synthesis uses the repeat-until-success mean T-count
``0.53*log2(1/delta) + 4.86`` for target precision delta, with one ancilla.

``t_gates`` is a float throughout: repeat-until-success counts are
expectations, not worst cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

RUS_T_SLOPE = 0.53
RUS_T_OFFSET = 4.86


class HwpStrategy(str, Enum):
    BASELINE = "baseline"
    CATALYZED = "catalyzed"


@dataclass(frozen=True)
class CostVector:
    """Tally of non-Clifford gates."""

    toffoli: float = 0.0
    t_gates: float = 0.0
    rz: int = 0

    def __post_init__(self):
        if min(self.toffoli, self.t_gates, self.rz) < 0:
            raise ValueError("cost components must be non-negative")


def hamming_adders(M: int) -> int:
    """Half/full adders (equivalently Toffolis) to compute an M-bit Hamming weight."""
    if M < 1:
        raise ValueError(f"hamming_adders needs M >= 1, got {M}")
    return M - M.bit_count()


def floor_log2(M: int) -> int:
    if M < 1:
        raise ValueError(f"floor_log2 needs M >= 1, got {M}")
    return M.bit_length() - 1


def ceil_log2(M: int) -> int:
    if M < 1:
        raise ValueError(f"ceil_log2 needs M >= 1, got {M}")
    return (M - 1).bit_length()


def _hwp_counts(M: int, catalyzed: bool) -> tuple[int, int]:
    """(Toffolis, rotations) of Hamming-weight phasing on M >= 1 rotations: the weight's
    adders and a rotation per weight bit, floor(log2 M) + 1 of them, or, catalyzed, the adders,
    a phase-gradient addition over the weight bits (a Toffoli each) and one rotation."""
    adders, bits = hamming_adders(M), M.bit_length()
    return (adders + bits, 1) if catalyzed else (adders, bits)


def hwp_cost(M: int, strategy: HwpStrategy) -> CostVector:
    """Cost of one layer of M same-angle Z-rotations via Hamming-weight phasing.

    Baseline rotates the weight register directly; catalyzed replaces those
    rotations with a phase-gradient addition against a catalyst state, whose
    one-time synthesis is charged separately by the callers.
    """
    if M < 1:
        raise ValueError(f"hwp_cost needs M >= 1, got {M}")
    toffoli, rz = _hwp_counts(M, HwpStrategy(strategy) is HwpStrategy.CATALYZED)
    return CostVector(toffoli=toffoli + 0.0, rz=rz)
