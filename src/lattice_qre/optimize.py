"""Deterministic one-dimensional minimization from a first-order condition.

Both solvers reduce their budget split to one scalar equation whose
residual, a positive multiple of the derivative of the total along the
split, increases with the variable.  ``minimize`` bisects for its sign
change down to adjacent floats within the bracket it is given.  No
randomness and no tolerance: two runs with the same inputs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MinimizeResult:
    point: float
    evaluations: int


def minimize(slope, lower: float, upper: float) -> MinimizeResult:
    """The minimum over [lower, upper] of a function whose derivative has
    the sign of the increasing ``slope``.

    Bisects on the sign of ``slope`` until the bracket holds two adjacent
    floats, evaluating it only strictly inside the interval.  When
    ``slope`` keeps one sign the edge it points to comes back exactly.
    """
    lo, hi, evaluations = lower, upper, 0
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        evaluations += 1
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return MinimizeResult(lo if lo == lower else hi, evaluations)
