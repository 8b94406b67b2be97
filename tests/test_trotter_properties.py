"""Property tests of the Trotter solver over models, lattice sizes, jittered
couplings, error targets and catalyst accounting.

Derandomized, so every run draws the same examples.
"""

import math
from dataclasses import fields, replace

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_qre.model import Model, ModelSpec, default_couplings, extensive_error
from lattice_qre.trotter_bounds import tau_max, trotter_bound
from lattice_qre.trotter_cost import (
    _TAU_MARGIN,
    _X_DIM,
    _Y_DIM,
    _Z_DIM,
    Strategy,
    _catalysts,
    _objective,
    _pinned_tau,
    _step_costs,
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


@DETERMINISTIC
@given(cells(), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
def test_best_step_count_brackets_the_tau_cap(cell, ux, uy, uz):
    # at a fixed budget point the best r is r_c - 1 or r_c, where tau = r * k
    # first reaches its cap: the premise of the solver's coarse grid
    spec, strategy, delta_e, amortize = cell
    x, y = _in_box(_X_DIM, ux), _in_box(_Y_DIM, uy)
    z = _in_box(_Z_DIM, uz) if strategy.catalyzed else 0.0
    w = trotter_bound(spec)
    tau_cap = tau_max(w) * _TAU_MARGIN
    r_c = math.ceil(tau_cap / _pinned_tau(1, x, y, z, w, math.inf, delta_e))
    catalysts = _catalysts(spec.kind, spec.L, strategy)
    totals = {
        r: _objective(step_cost(spec.kind, spec.L, r, strategy), catalysts, r, w, tau_cap,
                      delta_e, amortize, (x, y, z))
        for r in range(1, 2 * r_c + 5)
    }
    assert min(totals, key=totals.get) in (max(r_c - 1, 1), r_c)


@DETERMINISTIC
@given(cells(), st.lists(st.integers(1, 50_000), min_size=1, max_size=4))
def test_step_costs_match_step_cost(cell, steps):
    # the coarse grid's array step costs, built from r = 1 and r = 2
    spec, strategy, _, _ = cell
    arrays = _step_costs(spec.kind, spec.L, strategy, np.array(steps))
    for i, r in enumerate(steps):
        step = step_cost(spec.kind, spec.L, r, strategy)
        assert (arrays.toffoli[i], arrays.t_gates[i], arrays.rz[i]) == \
            (step.toffoli, step.t_gates, step.rz)


@DETERMINISTIC
@given(cells(max_depth=1.0), st.floats(1.0, 4.0))
def test_total_never_rises_with_a_looser_target(cell, looser):
    # looser targets stay where the optimum needs at least one query
    spec, strategy, delta_e, amortize = cell
    tight = optimize_trotter(spec, strategy, delta_e, amortize)
    loose = optimize_trotter(spec, strategy, delta_e * looser, amortize)
    assert loose.total_toffoli <= tight.total_toffoli * (1.0 + 1e-6)
