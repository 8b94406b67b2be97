"""Property tests of the Trotter solver over models, lattice sizes, jittered
couplings, error targets and catalyst accounting.

Derandomized, so every run draws the same examples.
"""

import math
import sys
from dataclasses import fields, replace
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_qre import trotter_cost
from lattice_qre.model import Model, ModelSpec, default_couplings, extensive_error
from lattice_qre.primitives import RUS_T_SLOPE, CostVector, hwp_counts
from lattice_qre.reference_tables import TROTTER_TABLES
from lattice_qre.trotter_bounds import tau_max, trotter_bound
from lattice_qre.trotter_cost import (
    _TAU_MARGIN,
    QPE_QUERY_CONSTANT,
    Strategy,
    _best_budget,
    _best_step_count,
    _cost,
    _step_at,
    _structure,
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


def _setting(cell):
    """(W, tau_cap, catalysts) of a drawn cell."""
    spec, strategy, _, _ = cell
    w = trotter_bound(spec)
    return w, tau_max(w) * _TAU_MARGIN, _structure(spec, strategy)[1]


def _step(spec: ModelSpec, strategy: Strategy, r: int) -> tuple[float, float, int]:
    """The solver's own (Toffoli, T, rz) tuple of the r-step evolution."""
    return _step_at(_structure(spec, strategy)[0], r)


def _pinned_tau(r: int, t: float, w: float, tau_cap: float, delta_e: float) -> float:
    """The tau ``_best_budget`` pins: the largest still giving r steps under
    the Trotter share t of dE, at most tau_cap."""
    return min(r * math.sqrt(t * delta_e / w), tau_cap)


def _summed_step_cost(kind: Model, L: int, r: int, strategy: Strategy) -> CostVector:
    """The step cost summed layer by layer, as written out per model: each
    layer's ``hwp_counts`` times its multiplicity (a batched layer of N
    rotations as N / B copies of ``hwp_counts(B)``, B = L^2 / 2), plus the
    direct T gates of the two-site Fourier transforms."""
    L2 = L * L
    if kind is Model.FERMI_HUBBARD:
        layers, direct_t = [(L2, 4 * r + 1)], 12 * r * L2
    elif kind is Model.CUPRATE:
        layers, direct_t = [(L2, 8 * r + 1), (2 * L2, 8 * r)], 4 * L2 * (7 * r + 1)
    else:
        layers, direct_t = [(4 * L2, 7 * r + 1), (2 * L2, 19 * r)], 0
    toffoli = rz = 0
    for size, reps in layers:
        batch = L2 // 2 if strategy.batched else size
        assert size % batch == 0
        layer_toffoli, layer_rz = hwp_counts(batch, strategy.catalyzed)
        toffoli += reps * size // batch * layer_toffoli
        rz += reps * size // batch * layer_rz
    return CostVector(toffoli, direct_t, rz)


def _table_cells():
    for kind in Model:
        for L in range(4, 33, 4 if kind is Model.CUPRATE else 2):
            for strategy in Strategy:
                yield kind, L, strategy


def test_step_costs_match_step_cost():
    # the step table against the per-layer sum, at the published sizes and
    # at the step counts of deep targets
    for kind, L, strategy in _table_cells():
        for r in (1, 2, 3, 364, 19_940):
            assert step_cost(kind, L, r, strategy) == _summed_step_cost(kind, L, r, strategy)


def test_catalysts_match_the_register_sums():
    # the table's catalyst counts against the per-model sums of register
    # sizes, as written out per model and strategy
    for kind, L, strategy in _table_cells():
        L2, fh = L * L, kind is Model.FERMI_HUBBARD
        if not strategy.catalyzed:
            count = 0
        elif strategy.batched:
            b = (L2 // 2).bit_length() - 1
            count = {Model.FERMI_HUBBARD: 2 * b + 4, Model.CUPRATE: 4 * b + 5,
                     Model.PNICTIDE: 6 * b + 6}[kind]
        elif fh:
            count = 2 * (L2.bit_length() - 1) + 4
        elif kind is Model.CUPRATE:
            count = 3 * (L2.bit_length() - 1) + ((2 * L2).bit_length() - 1) + 5
        else:
            count = 2 * ((4 * L2).bit_length() - 1) + 4 * ((2 * L2).bit_length() - 1) + 7
        charged = count - 1 if fh and count else count
        assert _structure(ModelSpec(kind, L), strategy)[1] == (charged, count)


@DETERMINISTIC
@given(cells())
def test_no_budget_transfer_lowers_the_total(cell):
    # at the solver's r, moving 1e-3 of the smaller share between any two of
    # the shares of dE -- phase estimation p, rotations q, catalysts c and
    # Trotter t -- costs no less; past the tau-cap kink, t buys nothing
    spec, strategy, delta_e, amortize = cell
    est = optimize_trotter(spec, strategy, delta_e, amortize)
    w, tau_cap, catalysts = _setting(cell)
    step = _step(spec, strategy, est.r)
    b = est.budget
    shares = (*b.shares, (1.0 - b.s) * (1.0 - b.y))

    def total(p, q, c, t):
        tau = _pinned_tau(est.r, t, w, tau_cap, delta_e)
        return _cost(step, catalysts, p, q, c, tau, delta_e, amortize)[3]

    assert math.isclose(total(*shares), est.total_toffoli, rel_tol=1e-12)
    for i, j in permutations(range(4), 2):
        moved = 1e-3 * min(shares[i], shares[j])
        if moved == 0.0:   # no catalysts
            continue
        other = list(shares)
        other[i] -= moved
        other[j] += moved
        assert est.total_toffoli <= total(*other) * (1.0 + 1e-12)


@DETERMINISTIC
@given(cells())
def test_rotation_share_solves_its_condition(cell):
    # at the returned shares q * P = Λ * p, the first-order condition whose
    # certified Newton root gives q, holds to 1e-12 of Λ * p: P is the
    # per-query cost and Λ = RUS_T_SLOPE * rz / (2 ln 2)
    spec, strategy, delta_e, amortize = cell
    est = optimize_trotter(spec, strategy, delta_e, amortize)
    _, _, catalysts = _setting(cell)
    step = _step(spec, strategy, est.r)
    p, q, c = est.budget.shares
    n_t1, _, n_q, total = _cost(step, catalysts, p, q, c, est.budget.tau, delta_e, amortize)
    per_query = ((total - n_t1 / 2.0) if amortize else total) / n_q
    lam = RUS_T_SLOPE * step[2] / (2.0 * math.log(2.0))
    assert abs(q * per_query - lam * p) <= 1e-12 * lam * p


@DETERMINISTIC
@given(cells(), st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=3, max_size=3, unique=True))
@pytest.mark.parametrize("strategy,amortize", [
    (Strategy.BASELINE, False), (Strategy.CATALYZED, False),
    (Strategy.CATALYZED, True), (Strategy.BATCHED_CATALYZED, True)])
def test_per_query_cost_is_affine_in_log_q(strategy, amortize, cell, fractions):
    # the premise of the solver's closed-form residual: at the shares a rotation
    # share q implies, the per-query cost of _cost is P = a - Λ_u ln q with
    # Λ_u = Λ (1 + charged / rz), or Λ when the catalysts are charged once
    spec, _, delta_e, _ = cell
    est = optimize_trotter(spec, strategy, delta_e, amortize)
    _, _, catalysts = _setting((spec, strategy, delta_e, amortize))
    step = _step(spec, strategy, est.r)
    tau = est.budget.tau
    t = 1.0 - sum(est.budget.shares)
    ratio = catalysts[0] / step[2]
    lam = RUS_T_SLOPE * step[2] / (2.0 * math.log(2.0))
    k = ratio * tau * delta_e / QPE_QUERY_CONSTANT

    def per_query(q):
        if amortize:
            p = (1.0 - t - q) / (1.0 + k * q)
            c = k * q * p
        else:
            p, c = 1.0 - t - (1.0 + ratio) * q, ratio * q
        n_t1, _, n_q, total = _cost(step, catalysts, p, q, c, tau, delta_e, amortize)
        return ((total - n_t1 / 2.0) if amortize else total) / n_q

    lam_u = lam if amortize else lam * (1.0 + ratio)
    q_max = (1.0 - t) / (1.0 if amortize else 1.0 + ratio)
    qs = [f * q_max for f in fractions]
    costs = [per_query(q) for q in qs]
    for i, j in ((0, 1), (1, 2), (0, 2)):
        assert math.isclose(costs[i] - costs[j], -lam_u * math.log(qs[i] / qs[j]),
                            abs_tol=1e-12 * max(abs(costs[i]), abs(costs[j])))


@DETERMINISTIC
@given(cells())
def test_step_count_beats_its_neighbours(cell):
    # the solver's r is no worse than r - 2 .. r + 2, each solved for its
    # own cheapest budget: the premise of its walk over r
    spec, strategy, delta_e, amortize = cell
    est = optimize_trotter(spec, strategy, delta_e, amortize)
    w, tau_cap, catalysts = _setting(cell)
    for r in (est.r - 2, est.r - 1, est.r + 1, est.r + 2):
        if r < 1:
            continue
        step = _step(spec, strategy, r)
        p, q, c, tau = _best_budget(step, catalysts, r, w, tau_cap, delta_e, amortize)
        other = _cost(step, catalysts, p, q, c, tau, delta_e, amortize)[3]
        assert est.total_toffoli <= other * (1.0 + 1e-9)


@DETERMINISTIC
@given(cells(max_depth=1.0), st.floats(1.0, 4.0))
def test_total_never_rises_with_a_looser_target(cell, looser):
    # looser targets stay where the optimum needs at least one query
    spec, strategy, delta_e, amortize = cell
    tight = optimize_trotter(spec, strategy, delta_e, amortize)
    loose = optimize_trotter(spec, strategy, delta_e * looser, amortize)
    assert loose.total_toffoli <= tight.total_toffoli * (1.0 + 1e-6)


def _total_at(cell, r):
    """The total at r steps, solved for its own cheapest budget."""
    spec, strategy, delta_e, amortize = cell
    w, tau_cap, catalysts = _setting(cell)
    step = _step(spec, strategy, r)
    budget = _best_budget(step, catalysts, r, w, tau_cap, delta_e, amortize)
    return _cost(step, catalysts, *budget, delta_e, amortize)[3]


@DETERMINISTIC
@given(cells())
def test_total_falls_with_r_below_r0(cell):
    # the premise of the walk's single step below r0: there the Trotter share
    # is 1/3 and the feasible shares do not depend on r, so the total, solved
    # at each r, falls strictly as r rises towards r0
    spec, _, delta_e, _ = cell
    w, tau_cap, _ = _setting(cell)
    r0 = math.ceil(tau_cap * math.sqrt(3.0 * w / delta_e))
    totals = [_total_at(cell, r) for r in range(max(r0 - 3, 1), r0)]
    assert all(lower > higher for lower, higher in zip(totals, totals[1:]))


@DETERMINISTIC
@given(cells())
def test_every_bracket_ends_below_q_max(cell):
    # Newton keeps the per-query cost P above Λ_u, so its root has
    # q Λ_u < q P = Λ_u (q_max - q) / (1 + k q), i.e. q < q_max / 2: the
    # upper end at which each per-r certificate reads the residual lies
    # below q_max with no cap, plain and amortized
    spec, strategy, delta_e, _ = cell
    q_maxes, uppers = [], []
    newton, certify = trotter_cost._newton_share, trotter_cost.minimize

    def recorded_newton(a, lam_u, q_max, k):
        q_maxes.append(q_max)
        return newton(a, lam_u, q_max, k)

    def recorded(slope, root):
        seen = []
        result = certify(lambda q: seen.append(q) or slope(q), root)
        uppers.append(seen[-1])
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trotter_cost, "_newton_share", recorded_newton)
        patch.setattr(trotter_cost, "minimize", recorded)
        for amortize in (False, True):
            optimize_trotter(spec, strategy, delta_e, amortize)
    assert len(uppers) == len(q_maxes) >= 4
    assert all(upper < 0.5 * q_max * (1.0 + 1e-12) for upper, q_max in zip(uppers, q_maxes))


def _two_direction_walk(cost, r):
    """The walk the solver replaced: up from r by single steps while a step
    gains more than 4 eps of |cost(r)|, then down the same way."""
    rounding = 4.0 * sys.float_info.epsilon
    for direction in (1, -1):
        while r + direction >= 1 and cost(r + direction) < cost(r) - rounding * abs(cost(r)):
            r += direction
    return r


def _outcome(walk, cost, r0):
    """The walk's r, or the message of the error it raised."""
    try:
        return walk(cost, r0)
    except ValueError as exc:
        return str(exc)


def _walks_agree(solves):
    """Run each (spec, strategy, dE, amortize) solve with both walks over the
    solver's own memoized per-r cost; the (new, old) outcomes."""
    outcomes = []

    def both(cost, r0):
        outcomes.append((_outcome(_best_step_count, cost, r0),
                         _outcome(_two_direction_walk, cost, r0)))
        return _best_step_count(cost, r0)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trotter_cost, "_best_step_count", both)
        for solve in solves:
            try:
                optimize_trotter(*solve)
            except ValueError:
                pass
    return outcomes


@DETERMINISTIC
@given(cells())
def test_walk_matches_the_two_direction_walk(cell):
    # the single step below r0 ends where the walk up and then down ended
    (new, old), = _walks_agree([cell])
    assert new == old


def test_walk_matches_the_two_direction_walk_on_loose_targets():
    # each table cell, amortized too when catalyzed, at 10**0.5 .. 10**300
    # times its extensive target: most are refused, some inside the walk
    solves = [(ModelSpec(kind, L), strategy, extensive_error(L) * 10.0 ** k, amortize)
              for kind, table in TROTTER_TABLES.items() for L in table
              for strategy in Strategy
              for amortize in ((False, True) if strategy.catalyzed else (False,))
              for k in (0.5, 1, 2, 3, 5, 10, 30, 100, 300)]
    outcomes = _walks_agree(solves)
    assert len(outcomes) == len(solves) == 2052
    assert all(new == old for new, old in outcomes)
