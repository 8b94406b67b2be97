import math
import warnings

import pytest

from lattice_qre import trotter_cost
from lattice_qre.model import InvalidLattice, Model, ModelSpec
from lattice_qre.optimize import minimize
from lattice_qre.trotter_bounds import TrotterBudget, tau_max
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
        # the step count gallops from the coarse grid's r = 20,389 to 19,940:
        # O(log r) refinements (a walk by one step took 452)
        calls = []

        def counted(*args):
            calls.append(args)
            return minimize(*args)

        monkeypatch.setattr(trotter_cost, "minimize", counted)
        est = optimize_trotter(FH8, Strategy.CATALYZED, 1e-7)
        assert est.r == 19_940
        assert len(calls) <= 60
        assert est.total_toffoli < 4.88972e15   # the walk's total, z held at 1e-5

    def test_no_table_cell_on_box_edge(self):
        from lattice_qre.reference_tables import TROTTER_TABLES

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind, table in TROTTER_TABLES.items():
                for L in table:
                    for strategy in Strategy:
                        optimize_trotter(ModelSpec(kind, L), strategy)
