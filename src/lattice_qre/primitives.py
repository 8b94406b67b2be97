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

from collections import namedtuple
from enum import Enum

RUS_T_SLOPE = 0.53
RUS_T_OFFSET = 4.86


class HwpStrategy(str, Enum):
    BASELINE = "baseline"
    CATALYZED = "catalyzed"


# Tally of non-Clifford gates: Toffolis, T gates and rotations.  Built only
# from counts that cannot be negative (``step_cost``, ``HwpGadget.counted``).
CostVector = namedtuple("CostVector", "toffoli t_gates rz")


def hamming_adders(M: int) -> int:
    """Half/full adders (equivalently Toffolis) to compute an M-bit Hamming weight."""
    if M < 1:
        raise ValueError(f"hamming_adders needs M >= 1, got {M}")
    return M - M.bit_count()


def ceil_log2(M: int) -> int:
    if M < 1:
        raise ValueError(f"ceil_log2 needs M >= 1, got {M}")
    return (M - 1).bit_length()


def hwp_counts(M: int, catalyzed: bool) -> tuple[int, int]:
    """(Toffolis, rotations) of one layer of M >= 1 same-angle Z-rotations by
    Hamming-weight phasing: the weight's adders and a rotation per weight bit,
    M.bit_length() of them, or, catalyzed, the adders, a phase-gradient
    addition over the weight bits against a catalyst state (a Toffoli each)
    and one rotation.  The catalyst's one-time synthesis is charged by the
    callers."""
    adders, bits = hamming_adders(M), M.bit_length()
    return (adders + bits, 1) if catalyzed else (adders, bits)
