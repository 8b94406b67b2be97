import math
import warnings

import pytest

from lattice_qre import trotter_cost
from lattice_qre.model import InvalidLattice, Model, ModelSpec, extensive_error
from lattice_qre.optimize import minimize
from lattice_qre.reference_tables import TROTTER_TABLES
from lattice_qre.trotter_bounds import TrotterBudget, tau_max, trotter_bound
from lattice_qre.trotter_cost import (
    Strategy,
    evaluate,
    optimize_trotter,
    step_cost,
    total_qubits,
)

FH8 = ModelSpec(Model.FERMI_HUBBARD, 8)


class TestQueries:
    # phase-estimation queries N_q = 0.76 pi / (y tau dE)
    def test_reference(self):
        budget = TrotterBudget(delta_e=0.3264, y=0.6, x=0.01, z=0.001, tau=0.02)
        assert evaluate(FH8, Strategy.CATALYZED, budget).n_queries == pytest.approx(
            609.58, abs=0.01)

    def test_unit(self):
        budget = TrotterBudget(delta_e=0.76 * math.pi / 0.05, y=0.5, x=0.01, z=0.001, tau=0.1)
        assert evaluate(FH8, Strategy.CATALYZED, budget).n_queries == pytest.approx(
            1.0, rel=1e-12)

    def test_reciprocal_in_tau(self):
        spec = ModelSpec(Model.CUPRATE, 8)
        b1 = TrotterBudget(delta_e=0.3264, y=0.6, x=0.01, z=0.0, tau=0.02)
        b2 = TrotterBudget(delta_e=0.3264, y=0.6, x=0.01, z=0.0, tau=0.04)
        assert evaluate(spec, Strategy.BASELINE, b2).n_queries == pytest.approx(
            evaluate(spec, Strategy.BASELINE, b1).n_queries / 2, rel=1e-12)


class TestStepCosts:
    def test_fh_catalyzed(self):
        c = step_cost(Model.FERMI_HUBBARD, 8, 1, Strategy.CATALYZED)
        assert (c.toffoli, c.rz) == (350, 5)
        assert c.t_gates == 12 * 64

    def test_fh_baseline(self):
        c = step_cost(Model.FERMI_HUBBARD, 8, 1, Strategy.BASELINE)
        assert (c.toffoli, c.rz) == (315, 35)

    def test_cuprate_catalyzed(self):
        c = step_cost(Model.CUPRATE, 8, 1, Strategy.CATALYZED)
        assert c.toffoli == 9 * 70 + 8 * 135
        assert c.rz == 17

    def test_cuprate_direct_t(self):
        assert step_cost(Model.CUPRATE, 4, 1, Strategy.CATALYZED).t_gates == 4 * 16 * 8

    def test_pnictide_catalyzed(self):
        # on-site and diagonal-hopping layers appear 19r times in total; the
        # published tables require this count (a shorthand in the source
        # text understates it; see README, "Known deviations")
        c = step_cost(Model.PNICTIDE, 4, 1, Strategy.CATALYZED)
        assert c.toffoli == 8 * 70 + 19 * 37
        assert c.t_gates == 0.0

    def test_r_scaling_exact(self):
        # r-proportional parts double exactly; the one r-independent layer
        # (a baseline pass over 64 rotations, 63 Toffolis) is counted once
        one = step_cost(Model.CUPRATE, 8, 1, Strategy.BASELINE)
        two = step_cost(Model.CUPRATE, 8, 2, Strategy.BASELINE)
        assert two.toffoli == 2 * one.toffoli - 63

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            step_cost(Model.FERMI_HUBBARD, 8, 0, Strategy.CATALYZED)

    def test_cuprate_needs_multiple_of_four(self):
        with pytest.raises(InvalidLattice):
            step_cost(Model.CUPRATE, 6, 1, Strategy.CATALYZED)

    def test_integer_toffoli(self):
        for kind in Model:
            for strategy in Strategy:
                L = 8
                c = step_cost(kind, L, 3, strategy)
                assert c.toffoli == int(c.toffoli)


class TestSynthesisCounts:
    def test_t2_log_argument_one(self):
        # at r = 1, x (1-y) dE tau = 4r + 1 makes the per-rotation budget
        # exactly 1, and z (1-y) dE tau = 16 does so for the 16 catalyst
        # qubits (charged as 15 rotations)
        budget = TrotterBudget(delta_e=1000.0, y=0.5, x=0.1, z=0.32, tau=0.1)
        est = evaluate(FH8, Strategy.CATALYZED, budget)
        assert est.r == 1
        assert est.n_t2 == pytest.approx(5 * 4.86, rel=1e-12)
        assert est.n_t1 == pytest.approx(15 * 4.86, rel=1e-12)

    def test_doubling_z_shifts_by_half_bit(self):
        b1 = TrotterBudget(delta_e=0.3264, y=0.6, x=0.01, z=0.001, tau=0.02)
        b2 = TrotterBudget(delta_e=0.3264, y=0.6, x=0.01, z=0.002, tau=0.02)
        t1a = evaluate(FH8, Strategy.CATALYZED, b1).n_t1
        t1b = evaluate(FH8, Strategy.CATALYZED, b2).n_t1
        assert t1a - t1b == pytest.approx(0.53 * 15, rel=1e-9)

    def test_baseline_has_no_catalyst_term(self):
        budget = TrotterBudget(delta_e=0.3264, y=0.6, x=0.01, z=0.0, tau=0.02)
        est = evaluate(FH8, Strategy.BASELINE, budget)
        assert est.n_t1 == 0.0
        assert est.n_t2 > 0.0


class TestQubitCounts:
    def test_fh_l8(self):
        assert total_qubits(FH8, Strategy.BATCHED_BASELINE) == 161
        assert total_qubits(FH8, Strategy.BASELINE) == 193
        assert total_qubits(FH8, Strategy.CATALYZED) == 216

    def test_pnictide_l4_catalyzed(self):
        assert total_qubits(ModelSpec(Model.PNICTIDE, 4), Strategy.CATALYZED) == 175

    def test_cuprate_l4(self):
        spec = ModelSpec(Model.CUPRATE, 4)
        assert total_qubits(spec, Strategy.BASELINE) == 65
        assert total_qubits(spec, Strategy.BATCHED_CATALYZED) == 62

    def test_dominates_system_register(self):
        from lattice_qre.model import system_qubits

        for kind in Model:
            for strategy in Strategy:
                spec = ModelSpec(kind, 8)
                assert total_qubits(spec, strategy) >= system_qubits(spec)


class TestEvaluate:
    def _spec(self):
        return ModelSpec(Model.FERMI_HUBBARD, 8)

    def test_total_identity(self):
        budget = TrotterBudget(delta_e=0.3264, y=0.6, x=0.01, z=0.001, tau=0.02)
        est = evaluate(self._spec(), Strategy.CATALYZED, budget)
        expected = est.n_queries * (
            est.n_toffoli_per_u + (est.n_t_direct + est.n_t1 + est.n_t2) / 2.0)
        assert est.total_toffoli == pytest.approx(expected, rel=1e-12)

    def test_queries_scale_inversely(self):
        b1 = TrotterBudget(delta_e=0.3264, y=0.6, x=0.01, z=0.001, tau=0.02)
        b2 = TrotterBudget(delta_e=0.3264, y=0.6, x=0.01, z=0.001, tau=0.04)
        e1 = evaluate(self._spec(), Strategy.CATALYZED, b1)
        e2 = evaluate(self._spec(), Strategy.CATALYZED, b2)
        assert e2.n_queries == pytest.approx(e1.n_queries / 2, rel=1e-12)

    def test_tau_cap_enforced(self):
        w = 1163.8944674133154
        with pytest.raises(ValueError):
            evaluate(self._spec(), Strategy.CATALYZED,
                     TrotterBudget(0.3264, 0.6, 0.01, 0.001, tau=tau_max(w) + 0.01))

    def test_catalyzed_needs_z_budget(self):
        with pytest.raises(ValueError, match="z budget"):
            evaluate(FH8, Strategy.CATALYZED,
                     TrotterBudget(delta_e=0.3264, y=0.6, x=0.01, z=0.0, tau=0.02))

    def test_amortized_never_worse(self):
        budget = TrotterBudget(delta_e=0.3264, y=0.6, x=0.01, z=0.001, tau=0.02)
        charged = evaluate(self._spec(), Strategy.CATALYZED, budget)
        amortized = evaluate(self._spec(), Strategy.CATALYZED, budget,
                             amortize_catalyst=True)
        assert amortized.total_toffoli <= charged.total_toffoli


class TestOptimizeTrotter:
    def test_fh_l8_reference(self):
        est = optimize_trotter(ModelSpec(Model.FERMI_HUBBARD, 8), Strategy.CATALYZED)
        assert est.total_toffoli == pytest.approx(8.40e5, rel=0.05)
        assert est.total_qubits == 216

    def test_constraint_satisfied(self):
        est = optimize_trotter(ModelSpec(Model.PNICTIDE, 6), Strategy.BASELINE)
        assert est.budget.tau < tau_max(est.w_bound)
        assert est.r >= 1

    def test_catalyzed_beats_baseline(self):
        for kind, L in ((Model.FERMI_HUBBARD, 8), (Model.CUPRATE, 8), (Model.PNICTIDE, 4)):
            cat = optimize_trotter(ModelSpec(kind, L), Strategy.CATALYZED)
            base = optimize_trotter(ModelSpec(kind, L), Strategy.BASELINE)
            assert cat.total_toffoli < base.total_toffoli

    def test_layer_substitution_inequality(self):
        # substituting catalyzed layer costs at the baseline's own optimum
        # cannot increase the per-layer toffoli-equivalent cost while the
        # register rotations are expensive enough
        est = optimize_trotter(ModelSpec(Model.FERMI_HUBBARD, 8), Strategy.BASELINE)
        b = est.budget
        n_rz = step_cost(Model.FERMI_HUBBARD, 8, est.r, Strategy.BASELINE).rz
        delta = b.x * (1 - b.y) * b.delta_e * b.tau / n_rz
        t_per_rotation = 0.53 * math.log2(1.0 / delta) + 4.86  # mean RUS T count
        m = 64
        k = m.bit_length()
        assert k <= t_per_rotation * (k - 1) / 2.0  # trade-off precondition
        catalyzed_layer = (m + k - 1 - 1 + 1) + t_per_rotation / 2.0
        baseline_layer = (m - 1) + k * t_per_rotation / 2.0
        assert catalyzed_layer <= baseline_layer

    def test_determinism(self):
        a = optimize_trotter(ModelSpec(Model.CUPRATE, 8), Strategy.BATCHED_CATALYZED)
        b = optimize_trotter(ModelSpec(Model.CUPRATE, 8), Strategy.BATCHED_CATALYZED)
        assert a.total_toffoli == b.total_toffoli
        assert a.budget == b.budget

    def test_custom_couplings(self):
        from lattice_qre.model import FermiHubbardCouplings

        weak = ModelSpec(Model.FERMI_HUBBARD, 8, FermiHubbardCouplings(t=1, u=4))
        strong = ModelSpec(Model.FERMI_HUBBARD, 8, FermiHubbardCouplings(t=1, u=16))
        est_weak = optimize_trotter(weak, Strategy.CATALYZED)
        est_strong = optimize_trotter(strong, Strategy.CATALYZED)
        assert est_weak.w_bound < est_strong.w_bound
        assert est_weak.total_toffoli < est_strong.total_toffoli

    def test_onsite_free_limit(self):
        # u = 0 leaves the pure-hopping commutator term, so the bound stays
        # positive and the optimizer still has a valid step-size cap
        from lattice_qre.model import FermiHubbardCouplings

        spec = ModelSpec(Model.FERMI_HUBBARD, 8, FermiHubbardCouplings(t=1, u=0))
        est = optimize_trotter(spec, Strategy.CATALYZED)
        assert est.w_bound == pytest.approx(3.0 / 24.0 * 190, rel=1e-12)
        assert est.r >= 1

    def test_plain_python_floats(self):
        # numpy scalars would print as np.float64(...) in CSV and JSON output
        est = optimize_trotter(FH8, Strategy.CATALYZED)
        b = est.budget
        for value in (b.x, b.y, b.z, b.tau, est.n_queries, est.n_t1, est.n_t2,
                      est.total_toffoli):
            assert type(value) is float
        assert type(est.r) is int

    @pytest.mark.parametrize("delta_e", [1e9, 100.0])
    def test_loose_delta_e_rejected(self, delta_e):
        # the optimum would need fewer than one phase-estimation query
        # (about 0.26 at dE = 100)
        with pytest.raises(ValueError, match=r"delta_e=.* fewer than one"):
            optimize_trotter(FH8, Strategy.CATALYZED, delta_e)

    @pytest.mark.parametrize("delta_e", [0.0, -1.0, math.nan, math.inf])
    def test_bad_delta_e_rejected(self, delta_e):
        with pytest.raises(ValueError, match="delta_e"):
            optimize_trotter(FH8, Strategy.CATALYZED, delta_e)

    @pytest.mark.parametrize("delta_e,z_max", [(1e-5, 8e-6), (1e-7, 8e-7)])
    def test_z_below_the_old_box_edge(self, delta_e, z_max):
        # at deep targets the catalyst budget z = x * charged / rz falls below
        # 1e-5, the lower edge of the box that used to hold it; it follows x
        # in closed form, so no edge binds it and nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = optimize_trotter(FH8, Strategy.CATALYZED, delta_e)
        assert 0.0 < est.budget.z < z_max

    def test_amortized_z_below_the_old_box_edge(self):
        # charged once, the catalysts take z = x * charged / (N_q * rz), here
        # about 3.2e-6; the box that held z at 1e-5 gave 5,820,268 Toffolis
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = optimize_trotter(ModelSpec(Model.CUPRATE, 8), Strategy.BATCHED_CATALYZED,
                                   amortize_catalyst=True)
        assert 0.0 < est.budget.z < 4e-6
        assert est.total_toffoli < 5_820_268.0

    def test_deep_target_in_few_refinements(self, monkeypatch):
        # the step count starts at r0 = 19,940, where the tau-cap kink reaches
        # the Trotter share 1/3, and stays there: three per-r solves, at r0
        # and at its two neighbours
        calls = []

        def counted(*args):
            calls.append(args)
            return minimize(*args)

        monkeypatch.setattr(trotter_cost, "minimize", counted)
        est = optimize_trotter(FH8, Strategy.CATALYZED, 1e-7)
        assert est.r == 19_940
        assert len(calls) == 3
        assert est.total_toffoli < 4.88972e15   # the walk's total, z held at 1e-5

    @staticmethod
    def _searched_r(monkeypatch, strategy, delta_e):
        """(estimate, the r values ``_best_step_count`` returned)."""
        searched, best_step_count = [], trotter_cost._best_step_count

        def recorded(cost, r):
            searched.append(best_step_count(cost, r))
            return searched[-1]

        monkeypatch.setattr(trotter_cost, "_best_step_count", recorded)
        return optimize_trotter(FH8, strategy, delta_e), searched

    def test_deep_target_keeps_the_searched_r(self, monkeypatch):
        # the optimum sits at r = 199,397 with tau pinned onto its boundary;
        # evaluating that budget must give back the searched r (the exact
        # per-r optima: 7.907120794406776e18 at 199,396, 7.907120794406354e18
        # at 199,397)
        est, searched = self._searched_r(monkeypatch, Strategy.BASELINE, 1e-9)
        assert est.r == 199_397
        assert searched == [est.r]

    def test_deepest_solved_target_keeps_the_searched_r(self, monkeypatch):
        # r = 6.3e12, just below the 1e13 limit: evaluate still recovers the
        # solver's own r from the pinned tau (at 1e-27, r = 2e14, it was 2 off)
        est, searched = self._searched_r(monkeypatch, Strategy.BASELINE, 1e-24)
        assert 6e12 < est.r < trotter_cost._MAX_EXACT_R
        assert searched == [est.r]

    def test_deepest_solved_target_walk_stays_on_r0(self):
        # near r = 6.3e12 adjacent totals differ by about 3e-26 relative, far
        # below their rounding; a walk that stepped on any lower total ended
        # at r0 + 1, r0 + 1, r0 - 1 and r0 + 2 on the four strategies
        w = trotter_bound(FH8)
        r0 = math.ceil(tau_max(w) * trotter_cost._TAU_MARGIN * math.sqrt(3.0 * w / 1e-24))
        assert r0 == 6_305_476_245_674
        for strategy in Strategy:
            assert optimize_trotter(FH8, strategy, 1e-24).r == r0

    def test_table_r_is_r0_or_one_below(self, trotter_sweep):
        # on every published cell the walk from r0 = ceil(tau_cap sqrt(3W/dE))
        # ends on r0 or r0 - 1, and no r in r0 - 3 .. r0 + 3 is cheaper when
        # each is solved for its own cheapest budget
        for (kind, L, strategy), est in trotter_sweep.results.items():
            w, delta_e = est.w_bound, est.budget.delta_e
            tau_cap = tau_max(w) * trotter_cost._TAU_MARGIN
            catalysts = trotter_cost._catalysts(kind, L, strategy)
            r0 = math.ceil(tau_cap * math.sqrt(3.0 * w / delta_e))
            assert est.r in (r0, r0 - 1)
            for r in range(max(r0 - 3, 1), r0 + 4):
                step = step_cost(kind, L, r, strategy)
                budget = trotter_cost._best_budget(step, catalysts, r, w, tau_cap, delta_e, False)
                other = trotter_cost._cost(step, catalysts, *budget, delta_e, False)[3]
                assert est.total_toffoli <= other * (1.0 + 1e-12)


def _whole_domain_root(slope, lower, upper):
    """The oracle of the solvers' Newton brackets: bisect the sign change of
    ``slope`` over all of (lower, upper) to adjacent floats; the upper one."""
    while lower < (mid := lower + 0.5 * (upper - lower)) < upper:
        if slope(mid) < 0.0:
            lower = mid
        else:
            upper = mid
    return upper


def _table_trotter_cells():
    """(spec, strategy) of the 152 Trotter cells of the published tables."""
    return [(ModelSpec(kind, L), strategy)
            for kind, table in TROTTER_TABLES.items() for L in table for strategy in Strategy]


class TestRotationShareBracket:
    def test_newton_bracket_matches_the_full_domain(self, monkeypatch):
        # bisecting the solver's own residual over its whole domain (0, q_max)
        # gives the Newton bracket's q exactly: every table cell at 1, 1e-2
        # and 1e-4 of the extensive target, at r0 - 1, r0 and r0 + 1,
        # amortized too when catalyzed
        solves = []
        for spec, strategy in _table_trotter_cells():
            w = trotter_bound(spec)
            tau_cap = tau_max(w) * trotter_cost._TAU_MARGIN
            catalysts = trotter_cost._catalysts(spec.kind, spec.L, strategy)
            for share in (1.0, 1e-2, 1e-4):
                delta_e = extensive_error(spec.L) * share
                r0 = math.ceil(tau_cap * math.sqrt(3.0 * w / delta_e))
                for r in (r0 - 1, r0, r0 + 1):
                    step = step_cost(spec.kind, spec.L, r, strategy)
                    for amortize in (False, True) if strategy.catalyzed else (False,):
                        solves.append((step, catalysts, r, w, tau_cap, delta_e, amortize))
        assert len(solves) == 2052
        q_maxes, solved = [], []
        newton = trotter_cost._newton_share

        def recorded_newton(a, lam_u, q_max, k):
            q_maxes.append(q_max)
            return newton(a, lam_u, q_max, k)

        def recorded(slope, lower, upper):
            result = minimize(slope, lower, upper)
            solved.append((slope, result.point))
            return result

        monkeypatch.setattr(trotter_cost, "_newton_share", recorded_newton)
        monkeypatch.setattr(trotter_cost, "minimize", recorded)
        for args in solves:
            trotter_cost._best_budget(*args)
        assert len(solved) == len(q_maxes) == len(solves)
        for (slope, q), q_max in zip(solved, q_maxes):
            assert _whole_domain_root(slope, 0.0, q_max) == q

    def test_table_cells_bisect_a_narrow_bracket(self, monkeypatch):
        # every table cell bisects a Newton bracket 1e-13 wide; the r walk
        # solves 120 cells at r0 and r0 - 1, and 32 also at r0 + 1
        brackets = []

        def recorded(slope, lower, upper):
            brackets.append((lower, upper))
            return minimize(slope, lower, upper)

        monkeypatch.setattr(trotter_cost, "minimize", recorded)
        for spec, strategy in _table_trotter_cells():
            optimize_trotter(spec, strategy)
        assert len(brackets) == 336
        for lower, upper in brackets:
            assert 0.0 < upper - lower <= 1e-12 * upper

    def test_each_solve_reads_the_cost_once(self, monkeypatch):
        # one _cost at q_max / 2 gives the per-query cost's intercept; Newton
        # and the bisection then work on the closed-form residual alone
        calls = []
        cost = trotter_cost._cost
        monkeypatch.setattr(trotter_cost, "_cost", lambda *args: calls.append(args) or cost(*args))
        for spec, strategy in _table_trotter_cells()[::7]:
            w = trotter_bound(spec)
            tau_cap = tau_max(w) * trotter_cost._TAU_MARGIN
            catalysts = trotter_cost._catalysts(spec.kind, spec.L, strategy)
            delta_e = extensive_error(spec.L)
            r = math.ceil(tau_cap * math.sqrt(3.0 * w / delta_e))
            step = step_cost(spec.kind, spec.L, r, strategy)
            for amortize in (False, True) if strategy.catalyzed else (False,):
                calls.clear()
                trotter_cost._best_budget(step, catalysts, r, w, tau_cap, delta_e, amortize)
                assert len(calls) == 1


class TestAssembledEstimate:
    """``optimize_trotter`` builds its estimate from the solve; re-deriving it
    from the budget with ``evaluate`` gives the same dataclass, r included."""

    def test_table_cells(self, trotter_sweep):
        assert len(trotter_sweep.results) == 152
        for est in trotter_sweep.results.values():
            assert evaluate(est.spec, est.strategy, est.budget, est.w_bound) == est

    def test_amortized_table_cells(self):
        cells = [(spec, strategy) for spec, strategy in _table_trotter_cells()
                 if strategy.catalyzed]
        assert len(cells) == 76
        for spec, strategy in cells:
            est = optimize_trotter(spec, strategy, amortize_catalyst=True)
            assert evaluate(spec, strategy, est.budget, est.w_bound, True) == est

    @pytest.mark.parametrize("delta_e", [1e-7, 1e-9, 1e-24])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_deep_targets(self, strategy, delta_e):
        for amortize in (False, True) if strategy.catalyzed else (False,):
            est = optimize_trotter(FH8, strategy, delta_e, amortize)
            assert evaluate(FH8, strategy, est.budget, est.w_bound, amortize) == est
