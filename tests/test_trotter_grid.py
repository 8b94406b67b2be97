"""Dense-grid differential test of the Trotter solver.

A numpy restatement of the cost formula N_q (N_tof + N_t / 2), fed only the
per-r step structure and the catalyst register size by the package, is
minimized by brute force: 40 points per budget dimension (log x and z,
linear y) and every step count from 1 to 2r + 10, r being the solver's
choice, with tau pinned to the largest value that still gives r steps.  The
solver must never land above that grid minimum, nor warn.  The error target
is the extensive one, except for one deep target whose optimum needs more
than 300 steps.
"""

import warnings

import numpy as np
import pytest

from lattice_qre.model import Model, ModelSpec, extensive_error
from lattice_qre.trotter_bounds import trotter_bound
from lattice_qre.trotter_cost import Strategy, _structure, optimize_trotter, step_cost

POINTS = 40
CELLS = [(kind, L, strategy, None)
         for kind in Model
         for L in ((4 if kind is Model.PNICTIDE else 8), 32)
         for strategy in Strategy]
CELLS.append((Model.FERMI_HUBBARD, 8, Strategy.CATALYZED, 3e-4))   # optimum r = 364


def grid_minimum(spec: ModelSpec, strategy: Strategy, delta_e: float, r_max: int) -> float:
    kind, L = spec.kind, spec.L
    w = trotter_bound(spec)
    tau_cap = (np.sqrt(2.0) / w) ** (1.0 / 3.0) * (1.0 - 1e-12)
    x = np.geomspace(1e-4, 0.35, POINTS)[:, None, None]
    y = np.linspace(0.2, 0.92, POINTS)[None, :, None]
    count = _structure(spec, strategy)[1][1]
    # the published accounting charges one Fermi-Hubbard catalyst rotation less
    charged = count - 1 if count and kind is Model.FERMI_HUBBARD else count
    z = np.geomspace(1e-5, 0.25, POINTS)[None, None, :] if count else np.zeros((1, 1, 1))
    best = np.inf
    for r in range(1, r_max + 1):
        step = step_cost(kind, L, r, strategy)
        tau = np.minimum(r * np.sqrt((1.0 - x - z) * (1.0 - y) * delta_e / w), tau_cap)
        rotation_budget = (1.0 - y) * delta_e * tau
        n_t = step.t_gates + step.rz * (0.53 * np.log2(step.rz / (x * rotation_budget)) + 4.86)
        if count:
            n_t = n_t + charged * (0.53 * np.log2(count / (z * rotation_budget)) + 4.86)
        n_queries = 0.76 * np.pi / (y * tau * delta_e)
        best = min(best, float(np.min(n_queries * (step.toffoli + n_t / 2.0))))
    return best


@pytest.mark.parametrize("kind,L,strategy,delta_e", CELLS,
                         ids=[f"{k.value}-{L}-{s.value}" + (f"-dE{d:g}" if d else "")
                              for k, L, s, d in CELLS])
def test_solver_never_above_grid_minimum(kind, L, strategy, delta_e):
    spec = ModelSpec(kind, L)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = optimize_trotter(spec, strategy, delta_e)
    if delta_e is not None:
        assert est.r > 300
    target = extensive_error(L) if delta_e is None else delta_e
    assert est.total_toffoli <= grid_minimum(spec, strategy, target, 2 * est.r + 10)
