"""Deterministic bounded derivative-free refinement.

``minimize`` refines a start point the caller has already found (each
solver scans its own coarse grid): golden section across the box for one
dimension, Nelder-Mead with the classical coefficients (in per-dimension
linear or log scaling) otherwise.  Non-finite objective values (and the
errors of an undefined point) are treated as +inf, so the simplex
contracts back into the region where the objective is defined.  No
randomness anywhere: two runs with the same inputs are bit-identical.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SIMPLEX_STEP = 0.12    # initial simplex edge, as a fraction of each span
_TOLERANCE = 1e-10      # relative stopping tolerance of both refiners
_REFINE_ITERATIONS = 160
_EDGE_TOLERANCE = 1e-9  # relative: a coordinate this close to a box edge is on it


@dataclass(frozen=True)
class Dimension:
    lower: float
    upper: float
    scale: str = "linear"  # or "log"

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper, got [{self.lower}, {self.upper}]")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"unknown scale {self.scale!r}")
        if self.scale == "log" and self.lower <= 0:
            raise ValueError("log scale needs positive bounds")

    def grid(self, n: int) -> list[float]:
        if self.scale == "log":
            la, lb = math.log(self.lower), math.log(self.upper)
            return [math.exp(la + (lb - la) * i / (n - 1)) for i in range(n)]
        return [self.lower + (self.upper - self.lower) * i / (n - 1) for i in range(n)]

    def encode(self, x: float) -> float:
        return math.log(x) if self.scale == "log" else x

    def decode(self, u: float) -> float:
        x = math.exp(u) if self.scale == "log" else u
        return min(max(x, self.lower), self.upper)


@dataclass
class MinimizeResult:
    point: list[float]
    value: float
    evaluations: int = 0


def minimize(objective, dims: Sequence[Dimension], start: Sequence[float]) -> MinimizeResult:
    """Minimize ``objective`` over the box ``dims``, refining from ``start``.

    One dimension: golden section across the whole box.  More: Nelder-Mead
    from ``start`` (clipped into the box), restarted once from its own
    optimum.  The result is never worse than ``start``.  Raises
    ``ValueError`` when the objective is not finite at ``start``.
    """
    evaluations = 0

    def guarded(point) -> float:
        nonlocal evaluations
        evaluations += 1
        try:
            value = objective(point)
        except (ValueError, OverflowError, ZeroDivisionError):
            return math.inf
        return value if math.isfinite(value) else math.inf

    best_point = [min(max(x, d.lower), d.upper) for x, d in zip(start, dims)]
    best_value = guarded(best_point)
    if not math.isfinite(best_value):
        raise ValueError(f"the objective is not finite at the start point {best_point}")

    if len(dims) == 1:
        point, value = _golden_section(guarded, dims[0])
    else:
        point, value = _nelder_mead(guarded, dims, best_point)
        point, value = _nelder_mead(guarded, dims, point)
    if value < best_value:
        best_point, best_value = point, value
    return MinimizeResult(list(best_point), best_value, evaluations)


def warn_on_edges(what: str, names: Sequence[str], dims: Sequence[Dimension],
                  point: Sequence[float]) -> None:
    """Emit a ``RuntimeWarning`` for each coordinate of ``point`` on an edge
    of its dimension, where the true optimum may lie outside the box."""
    for name, dim, value in zip(names, dims, point):
        for edge in (dim.lower, dim.upper):
            if abs(value - edge) <= _EDGE_TOLERANCE * abs(edge):
                warnings.warn(f"{what} {name}={value!r} sits on the search-box edge {edge}; "
                              f"the optimum may lie beyond it", RuntimeWarning, stacklevel=3)


def _golden_section(f, dim: Dimension):
    a, b = dim.lower, dim.upper
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f([c]), f([d])
    for _ in range(_REFINE_ITERATIONS):
        if b - a < _TOLERANCE * max(1.0, abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f([c])
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f([d])
    x = c if fc < fd else d
    return [x], min(fc, fd)


def _nelder_mead(f, dims, start):
    """Classical Nelder-Mead (reflect 1, expand 2, contract 1/2, shrink 1/2)."""
    n = len(dims)
    enc = lambda p: [d.encode(x) for d, x in zip(dims, p)]
    dec = lambda q: [d.decode(u) for d, u in zip(dims, q)]
    g = lambda q: f(dec(q))

    q0 = enc(start)
    simplex = [list(q0)]
    for i in range(n):
        q = list(q0)
        upper = dims[i].encode(dims[i].upper)
        step = _SIMPLEX_STEP * (upper - dims[i].encode(dims[i].lower))
        q[i] += step if q[i] + step <= upper else -step   # step into the box
        simplex.append(q)
    values = [g(q) for q in simplex]

    for _ in range(_REFINE_ITERATIONS):
        order = sorted(range(n + 1), key=lambda i: values[i])
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if math.isfinite(values[0]) and (
            values[-1] - values[0] <= _TOLERANCE * max(1.0, abs(values[0]))
        ):
            break
        centroid = [sum(simplex[i][j] for i in range(n)) / n for j in range(n)]
        reflected = [c + (c - w) for c, w in zip(centroid, simplex[-1])]
        fr = g(reflected)
        if fr < values[0]:
            expanded = [c + 2.0 * (c - w) for c, w in zip(centroid, simplex[-1])]
            fe = g(expanded)
            simplex[-1], values[-1] = (expanded, fe) if fe < fr else (reflected, fr)
        elif fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            contracted = [c + 0.5 * (w - c) for c, w in zip(centroid, simplex[-1])]
            fc = g(contracted)
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = [a + 0.5 * (b - a) for a, b in zip(simplex[0], simplex[i])]
                    values[i] = g(simplex[i])

    best = min(range(n + 1), key=lambda i: values[i])
    return dec(simplex[best]), values[best]
