"""Property tests of the Trotter solver over models, lattice sizes, jittered
couplings, error targets and catalyst accounting.

Derandomized, so every run draws the same examples.
"""

import math
from dataclasses import fields, replace
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_qre.model import Model, ModelSpec, default_couplings, extensive_error
from lattice_qre.optimize import minimize
from lattice_qre.trotter_bounds import tau_max, trotter_bound
from lattice_qre.trotter_cost import (
    _DIMS,
    _TAU_MARGIN,
    _V_GRID,
    _X_DIM,
    Strategy,
    _catalysts,
    _cost,
    _objective,
    _split,
    _step_at,
    _step_line,
    _total,
    _v_top,
    optimize_trotter,
    step_cost,
)

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def cells(draw, max_depth=1.5):
    """(spec, strategy, dE, amortize): couplings jittered by up to 10% and dE
    between 10**-max_depth and 1 times the extensive target."""
    kind = draw(st.sampled_from(list(Model)))
    step = 4 if kind is Model.CUPRATE else 2
    L = draw(st.sampled_from(range(4, 33, step)))
    base = default_couplings(kind)
    couplings = replace(base, **{
        f.name: getattr(base, f.name) * draw(st.floats(0.9, 1.1)) for f in fields(base)
    })
    delta_e = extensive_error(L) * 10.0 ** draw(st.floats(-max_depth, 0.0))
    return (ModelSpec(kind, L, couplings), draw(st.sampled_from(list(Strategy))),
            delta_e, draw(st.booleans()))


def _in_box(dim, u: float) -> float:
    """The point a fraction u of the way across ``dim`` on its own scale."""
    lo, hi = dim.encode(dim.lower), dim.encode(dim.upper)
    return dim.decode(lo + u * (hi - lo))


def _setting(cell):
    """(W, tau_cap, catalysts) of a drawn cell."""
    spec, strategy, _, _ = cell
    w = trotter_bound(spec)
    return w, tau_max(w) * _TAU_MARGIN, _catalysts(spec.kind, spec.L, strategy)


@DETERMINISTIC
@given(cells(), st.floats(0, 1), st.floats(0, 1))
def test_best_step_count_brackets_the_tau_cap(cell, ux, uv):
    # at a fixed point (x, v) of the coarse grid, z from the split, the best
    # r is r_c - 1 or r_c, where tau = r * sqrt(v dE / W) first reaches its
    # cap: the premise of the solver's coarse grid
    spec, strategy, delta_e, amortize = cell
    x, v = _in_box(_X_DIM, ux), _in_box(_V_GRID, uv)
    w, tau_cap, catalysts = _setting(cell)
    r_c = math.ceil(tau_cap / math.sqrt(v * delta_e / w))
    totals = {}
    for r in range(1, 2 * r_c + 5):
        try:
            totals[r] = _total(step_cost(spec.kind, spec.L, r, strategy), catalysts, r, w,
                               tau_cap, delta_e, amortize, x, v)
        except ValueError:   # x + z >= 1 at few steps
            continue
    assert min(totals, key=totals.get) in (max(r_c - 1, 1), r_c)


@DETERMINISTIC
@given(cells(), st.lists(st.integers(1, 50_000), min_size=1, max_size=4))
def test_step_costs_match_step_cost(cell, steps):
    # the solver's step costs, built from r = 1 and r = 2
    spec, strategy, _, _ = cell
    line = _step_line(spec.kind, spec.L, strategy)
    for r in steps:
        assert _step_at(line, r) == step_cost(spec.kind, spec.L, r, strategy)


@DETERMINISTIC
@given(cells(), st.floats(0.002, 0.5), st.floats(0.2, 0.92), st.integers(1, 400))
def test_split_is_cheapest_at_fixed_s(cell, s, y, r):
    # at fixed s = x + z, y and r, the split's z costs no more than 16 other
    # divisions of s, whether the catalysts are charged per query or once
    spec, strategy, delta_e, amortize = cell
    if not strategy.catalyzed:
        strategy = Strategy.BATCHED_CATALYZED if strategy.batched else Strategy.CATALYZED
    w, tau_cap, catalysts = _setting((spec, strategy, delta_e, amortize))
    step = step_cost(spec.kind, spec.L, r, strategy)
    v = (1.0 - s) * (1.0 - y)
    split = partial(_split, step.rz, catalysts[0], r, w, tau_cap, delta_e, amortize)
    lo, hi = 0.0, s   # x + z(x) rises with x: bisect for the x whose split sums to s
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid + split(mid, v)[1] < s else (lo, mid)
    x = 0.5 * (lo + hi)
    split_y, z, tau = split(x, v)
    assert math.isclose(x + z, s, rel_tol=1e-12) and math.isclose(split_y, y, rel_tol=1e-9)
    best = _cost(step, catalysts, x, y, z, tau, delta_e, amortize)[3]
    for j in (*range(-8, 0), *range(1, 9)):   # z scaled by 2**(j/8), 1/2 .. 2
        other = min(z * 2.0 ** (j / 8.0), 0.999 * s)
        total = _cost(step, catalysts, s - other, y, other, tau, delta_e, amortize)[3]
        assert best <= total * (1.0 + 1e-12)


@DETERMINISTIC
@given(cells())
def test_step_count_beats_its_neighbours(cell):
    # the solver's r is no worse than r - 2 .. r + 2, each refined from the
    # solver's own optimum: the premise of its galloping search over r
    spec, strategy, delta_e, amortize = cell
    est = optimize_trotter(spec, strategy, delta_e, amortize)
    w, tau_cap, catalysts = _setting(cell)
    v = (1.0 - est.budget.s) * (1.0 - est.budget.y)
    for r in (est.r - 2, est.r - 1, est.r + 1, est.r + 2):
        if r < 1:
            continue
        u = math.sqrt(max(1.0 - v / _v_top(r, w, tau_cap, delta_e), 0.0))
        objective = partial(_objective, step_cost(spec.kind, spec.L, r, strategy), catalysts,
                            r, w, tau_cap, delta_e, amortize)
        try:
            other = minimize(objective, _DIMS, (est.budget.x, u)).value
        except ValueError:   # the optimum's x leaves no budget at r steps
            continue
        assert est.total_toffoli <= other * (1.0 + 1e-9)


@DETERMINISTIC
@given(cells(max_depth=1.0), st.floats(1.0, 4.0))
def test_total_never_rises_with_a_looser_target(cell, looser):
    # looser targets stay where the optimum needs at least one query
    spec, strategy, delta_e, amortize = cell
    tight = optimize_trotter(spec, strategy, delta_e, amortize)
    loose = optimize_trotter(spec, strategy, delta_e * looser, amortize)
    assert loose.total_toffoli <= tight.total_toffoli * (1.0 + 1e-6)
