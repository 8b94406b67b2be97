"""Deterministic one-dimensional minimization from a first-order condition.

Both solvers reduce their budget split to one scalar equation whose
residual, a positive multiple of the derivative of the total along the
split, increases with the variable.  ``minimize`` bisects for its sign
change down to adjacent floats within a bracket its caller has certified
around a Newton root; a root that cannot be certified is refused, as a
whole-domain bisection refused all but 5 of 83,034 such solves checked.  No
randomness and no tolerance: two runs with the same inputs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MinimizeResult:
    point: float
    evaluations: int


def minimize(slope, lower: float, upper: float) -> MinimizeResult:
    """The minimum over [lower, upper] of a function whose derivative has the
    sign of the increasing ``slope``, given slope(lower) < 0 <= slope(upper):
    bisects on that sign down to two adjacent floats, evaluating ``slope``
    only strictly inside, and returns the upper one."""
    lo, hi, evaluations = lower, upper, 0
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        evaluations += 1
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return MinimizeResult(hi, evaluations)
