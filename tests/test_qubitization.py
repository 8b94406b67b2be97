import math
import warnings
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_qre import qubitization
from lattice_qre.model import (
    Model,
    ModelSpec,
    default_couplings,
    extensive_error,
    lcu_lambda,
)
from lattice_qre.optimize import minimize
from lattice_qre.qubitization import (
    estimate,
    optimize_qubitization,
    query_count,
    walk_counts,
)
from lattice_qre.reference_tables import QUBITIZATION_TABLES


class TestWalkCounts:
    def test_fh_binary_power_toffoli(self):
        for L in (4, 8, 16, 32):
            expected = 5 * L * L + 10 * math.ceil(math.log2(L)) - 4
            assert walk_counts(Model.FERMI_HUBBARD, L).toffoli == expected

    def test_fh_odd_part_adds_usp_toffoli(self):
        assert walk_counts(Model.FERMI_HUBBARD, 6).toffoli == 5 * 36 + 10 * 3 + 4 * 2 - 4

    def test_rotation_counts(self):
        assert walk_counts(Model.FERMI_HUBBARD, 8).rotations == 2
        assert walk_counts(Model.FERMI_HUBBARD, 10).rotations == 5
        assert walk_counts(Model.CUPRATE, 16).rotations == 10
        assert walk_counts(Model.CUPRATE, 24).rotations == 13
        assert walk_counts(Model.PNICTIDE, 4).rotations == 18
        assert walk_counts(Model.PNICTIDE, 6).rotations == 21


class TestEstimate:
    def test_toffoli_linear_in_inverse_error(self):
        spec = ModelSpec(Model.FERMI_HUBBARD, 8)
        de = extensive_error(8)
        full = estimate(spec, 0.99, de)
        halved = estimate(spec, 0.99, de / 2)
        assert halved.n_toffoli == pytest.approx(2 * full.n_toffoli, rel=1e-12)

    def test_total_identity(self):
        est = estimate(ModelSpec(Model.CUPRATE, 8), 0.99)
        assert est.total_toffoli == est.n_toffoli + est.n_t / 2.0

    def test_queries_continuous(self):
        est = estimate(ModelSpec(Model.FERMI_HUBBARD, 4), 0.99)
        assert est.n_queries == pytest.approx(
            query_count(est.lam, est.delta_e, 0.99), rel=1e-12)

    def test_unimodal_in_x(self):
        for spec in (ModelSpec(Model.FERMI_HUBBARD, 6), ModelSpec(Model.PNICTIDE, 16)):
            xs = [0.5 + i * 0.4999 / 400 for i in range(401)]
            values = [estimate(spec, x).total_toffoli for x in xs]
            drops = sum(
                1 for i in range(1, len(values) - 1)
                if values[i] < values[i - 1] and values[i] < values[i + 1]
            )
            assert drops == 1  # single interior minimum on a dense grid


class TestOptimize:
    @pytest.mark.parametrize("delta_e", [0.0, -1.0, math.nan, math.inf])
    def test_bad_delta_e_rejected(self, delta_e):
        with pytest.raises(ValueError, match="delta_e"):
            optimize_qubitization(ModelSpec(Model.FERMI_HUBBARD, 4), delta_e)

    def test_loose_delta_e_rejected(self):
        # the optimum would need about 1e-6 phase-estimation queries
        with pytest.raises(ValueError, match="delta_e=1e\\+09 .* fewer than one"):
            optimize_qubitization(ModelSpec(Model.FERMI_HUBBARD, 8), 1e9)

    def test_x_past_the_old_box_edge(self):
        # at FH L = 64 the cost still falls past x = 0.9999, once the edge of
        # the search box; the optimum beyond it is 1.3e-5 cheaper, and nothing
        # warns
        spec = ModelSpec(Model.FERMI_HUBBARD, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = optimize_qubitization(spec)
        assert 0.9999 < est.x < 1.0
        assert est.total_toffoli < estimate(spec, 0.9999).total_toffoli * (1.0 - 1e-5)

    @staticmethod
    def _log_slope(spec, x, delta_e):
        """(d ln(total)/dx at x, its query term -1/(2x), and the five-point
        finite difference of ln(total) with step (1 - x) / 100).

        Q ~ x**-1/2 queries cost P = total / Q each, and every one of the
        n_rot synthesized rotations per walk costs 0.53 log2 of a precision
        proportional to sqrt(x (1 - x)).
        """
        n_rot = walk_counts(spec.kind, spec.L).rotations
        est = estimate(spec, x, delta_e)
        per_walk = est.total_toffoli / est.n_queries
        query = -0.5 / x
        walk = n_rot * 0.53 / (2.0 * math.log(2.0)) * (2.0 * x - 1.0) / (
            2.0 * x * (1.0 - x) * per_walk)
        h = 0.01 * (1.0 - x)
        f = lambda u: math.log(estimate(spec, u, delta_e).total_toffoli)  # noqa: E731
        numeric = (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)
        return query + walk, query, numeric

    def test_x_is_where_the_slope_vanishes(self):
        # x is set by the model, not by a search path: d ln(total)/dx is zero
        # to 1e-9 of its query term at every table cell (and the slope
        # restated here is the finite-difference slope of the totals)
        for kind, table in QUBITIZATION_TABLES.items():
            for L in table:
                spec = ModelSpec(kind, L)
                est = optimize_qubitization(spec)
                slope, query, numeric = self._log_slope(spec, est.x, est.delta_e)
                assert abs(slope) <= 1e-9 * abs(query)
                assert abs(numeric - slope) <= 1e-7 * abs(query)

    @pytest.mark.parametrize("kind,L,coupling", [
        (Model.FERMI_HUBBARD, 8, "u"), (Model.CUPRATE, 8, "t_prime"), (Model.PNICTIDE, 4, "v")])
    def test_overflowing_lambda_names_the_couplings(self, kind, L, coupling):
        # finite couplings whose LCU 1-norm is not finite: refused for lambda,
        # naming the couplings, not as an error split or a cost at lambda = inf
        spec = ModelSpec(kind, L).with_couplings(**{coupling: 1e308})
        for solve in (lcu_lambda, lambda s: estimate(s, 0.9), optimize_qubitization):
            with pytest.raises(ValueError) as info:
                solve(spec)
            assert str(info.value) == (f"the LCU 1-norm lambda overflows at L={L} "
                                       f"for the couplings {spec.couplings}")
            assert f"{coupling}=1e+308" in str(info.value)

    def test_couplings_and_target_scaled_by_1e300(self):
        # the estimate depends on the couplings and the target only through
        # their ratio; scaled by 1e300 the phase register's pi lam L^6 /
        # (2 sqrt(x) dE) overflows a float, which used to refuse the estimate
        spec = ModelSpec(Model.FERMI_HUBBARD, 8)
        base = optimize_qubitization(spec, 0.1)
        scaled = optimize_qubitization(spec.with_couplings(t=1e300, u=8e300), 1e299)
        assert scaled.total_qubits == base.total_qubits
        assert scaled.x == pytest.approx(base.x, rel=1e-12)
        assert scaled.total_toffoli == pytest.approx(base.total_toffoli, rel=1e-12)

    @pytest.mark.parametrize("L,delta_e", [(10**8, None)])
    def test_slope_negative_up_to_one_raises(self, L, delta_e):
        # at L = 1e8 the optimum lies within float resolution of x = 1: no x
        # below 1 turns the slope, and the solver refuses rather than return
        # x = 1
        with pytest.raises(ValueError, match="split overflows: d ln\\(total\\)/dx stays negative"):
            optimize_qubitization(ModelSpec(Model.FERMI_HUBBARD, L), delta_e)

    @pytest.mark.parametrize("L,delta_e,toffoli", [
        (8, 1e-300, 1.7166661040155e306), (10**7, 1e-135, 9.4247779608009e164)])
    def test_walk_cost_past_the_float_range_of_its_product(self, L, delta_e, toffoli):
        # n_rot pi (lam / dE)^2 / sqrt(x (1 - x)) overflows at dE = 1e-300, and
        # at L = 1e7, dE = 1e-135 near its root x = 1 - 3.8e-15; its log does
        # not, so the walk cost stays finite and the slope turns at x
        spec = ModelSpec(Model.FERMI_HUBBARD, L)
        est = optimize_qubitization(spec, delta_e)
        assert 0.5 < est.x < 1.0
        assert est.total_toffoli == pytest.approx(toffoli, rel=1e-12)
        slopes = [self._log_slope(spec, x, delta_e)[0]
                  for x in (est.x * (1.0 - 1e-13), min(est.x * (1.0 + 1e-13), 1.0 - 2**-53))]
        assert slopes[0] < 0.0 <= slopes[1]

    def test_walk_cost_matches_its_product_form(self):
        # where the product n_rot pi (lam / dE)^2 / sqrt(x (1 - x)) is finite,
        # its log2 and the summed logs agree to rounding
        for spec in _table_specs():
            counts, lam = walk_counts(spec.kind, spec.L), lcu_lambda(spec)
            delta_e = extensive_error(spec.L)
            for x in (0.5, 0.75, 0.999, 1.0 - 1e-12):
                product = counts.rotations * math.pi * (lam / delta_e) ** 2 / math.sqrt(
                    x * (1.0 - x))
                walk_t = counts.t_direct + counts.rotations * (
                    0.53 * math.log2(product) + 4.86)
                assert qubitization._walk_t(counts, lam, delta_e, x) == pytest.approx(
                    walk_t, rel=1e-14)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.sampled_from(list(Model)), st.integers(2, 2048), st.floats(-6.0, 0.0),
           st.lists(st.floats(0.9, 1.1), min_size=6, max_size=6))
    def test_x_is_an_interior_root(self, kind, half_l, depth, jitter):
        # over models, even L up to 4096, targets down to 1e-6 of the
        # extensive one and couplings jittered by 10%: x lies inside (1/2, 1)
        # and the slope changes sign across it
        base = default_couplings(kind)
        couplings = replace(base, **{
            f.name: getattr(base, f.name) * scale for f, scale in zip(fields(base), jitter)})
        spec = ModelSpec(kind, 2 * half_l, couplings)
        est = optimize_qubitization(spec, extensive_error(spec.L) * 10.0 ** depth)
        assert 0.5 < est.x < 1.0
        h = 1e-6 * (1.0 - est.x)
        assert self._log_slope(spec, est.x - h, est.delta_e)[0] < 0.0
        assert self._log_slope(spec, est.x + h, est.delta_e)[0] > 0.0

    def test_one_estimate_per_solve(self, monkeypatch):
        # the slope reads the per-walk cost alone; the full estimate is
        # built once, at the optimum, from the lambda and walk counts the
        # solve read once; the public estimate at its x gives it back
        calls = {"_estimate": [], "lcu_lambda": [], "walk_counts": []}
        for name, log in calls.items():
            monkeypatch.setattr(qubitization, name, lambda *args, f=getattr(qubitization, name),
                                log=log: log.append(args) or f(*args))
        for kind in Model:
            for log in calls.values():
                log.clear()
            est = optimize_qubitization(ModelSpec(kind, 8))
            assert {name: len(log) for name, log in calls.items()} == dict.fromkeys(calls, 1)
            assert calls["_estimate"][0][1] == est.x
            assert estimate(est.spec, est.x, est.delta_e) == est

    def test_x_opt_range(self):
        est = optimize_qubitization(ModelSpec(Model.FERMI_HUBBARD, 4))
        assert 0.97 <= est.x <= 0.999

    def test_beats_fixed_x(self):
        spec = ModelSpec(Model.FERMI_HUBBARD, 4)
        opt = optimize_qubitization(spec)
        assert opt.total_toffoli <= estimate(spec, 0.99).total_toffoli

    def test_cuprate_reference_row(self):
        est = optimize_qubitization(ModelSpec(Model.CUPRATE, 8))
        assert est.total_toffoli == pytest.approx(2.29e6, rel=0.02)
        assert est.total_qubits == 161

    def test_fh_l8(self):
        est = optimize_qubitization(ModelSpec(Model.FERMI_HUBBARD, 8))
        assert est.total_toffoli == pytest.approx(1.36e6, rel=0.02)
        assert est.total_qubits == 160

    def test_qubits_dominate_system_register(self):
        from lattice_qre.model import system_qubits

        for kind in Model:
            spec = ModelSpec(kind, 6)
            est = optimize_qubitization(spec)
            assert est.total_qubits >= system_qubits(spec)


def _table_specs():
    """The 45 specs of the published qubitization tables."""
    return [ModelSpec(kind, L) for kind, table in QUBITIZATION_TABLES.items() for L in table]


def _recorded_checks(monkeypatch):
    """(points, evaluations) of each ``minimize`` call of the solver: the x
    at which it read the slope, and the evaluations it reported."""
    checks = []

    def recorded(slope, root, upper):
        seen = []
        result = minimize(lambda x: seen.append(x) or slope(x), root, upper)
        checks.append((seen, result.evaluations))
        return result

    monkeypatch.setattr(qubitization, "minimize", recorded)
    return checks


class TestSplitBracket:
    def test_newton_bracket_matches_the_full_domain(self, monkeypatch):
        # bisecting the solver's own slope over its whole domain (1/2, 1)
        # lands within 1e-13 of the certified Newton root, and the total there
        # within 1e-15 of the solver's: the table cells, the precision-scan
        # draws of seeds 1-3 and L = 64 .. 4096, at the extensive target and
        # 1e-4 of it
        from test_benchmark_checks import _workloads
        from test_trotter_cost import _whole_domain_root

        workloads = _workloads()
        solves = [(spec, None) for spec in _table_specs()]
        solves += [(cell.spec, cell.delta_e) for seed in (1, 2, 3)
                   for cell, _ in workloads.precision_draws(seed)]
        solves += [(ModelSpec(kind, L), extensive_error(L) * share) for kind in Model
                   for L in range(64, 4097, 32) for share in (1.0, 1e-4)]
        assert len(solves) == 45 + 288 + 762
        solved = []

        def recorded(slope, root, upper):
            solved.append(slope)
            return minimize(slope, root, upper)

        monkeypatch.setattr(qubitization, "minimize", recorded)
        for solve in solves:
            est = optimize_qubitization(*solve)
            slope, = solved
            solved.clear()
            oracle = _whole_domain_root(slope, 0.5, 1.0)
            assert abs(est.x - oracle) <= 1e-13 * oracle
            at_oracle = estimate(est.spec, oracle, est.delta_e).total_toffoli
            assert abs(est.total_toffoli - at_oracle) <= 1e-15 * at_oracle

    def test_table_cells_certify_each_root_in_two_evaluations(self, monkeypatch):
        # each table cell reads the slope twice, at the ends of its Newton
        # root's 1e-13 bracket, where bisecting (1/2, 1) took 52
        checks = _recorded_checks(monkeypatch)
        xs = [optimize_qubitization(spec).x for spec in _table_specs()]
        assert len(checks) == 45
        assert sum(evaluations for _, evaluations in checks) == 90
        for (points, evaluations), x in zip(checks, xs):
            assert evaluations == len(points) == 2
            assert 0.5 < points[0] < x <= points[1] < 1.0
            assert points[1] - points[0] <= 1e-12 * x

    @pytest.mark.parametrize("L", [3 * 10**6, 10**7, 3 * 10**7])
    def test_bracket_ends_below_one(self, monkeypatch, L):
        # within 1e-13 of 1 the certificate's bracket is cut at the float
        # below 1: the slope divides by 1 - x, so it is never read at x = 1
        checks = _recorded_checks(monkeypatch)
        for kind in Model:
            est = optimize_qubitization(ModelSpec(kind, L))
            ((lower, upper), _), = checks
            checks.clear()
            assert lower > 0.5
            assert lower < est.x <= upper <= math.nextafter(1.0, 0.0)

    @pytest.mark.parametrize("kind,L,delta_e", [
        (Model.FERMI_HUBBARD, 4, 1e-151), (Model.FERMI_HUBBARD, 10, 1e-150),
        (Model.CUPRATE, 16, 10.0 ** -149.25), (Model.PNICTIDE, 16, 10.0 ** -148.5)])
    def test_root_beside_the_walk_cost_overflow(self, monkeypatch, kind, L, delta_e):
        # the product form of the walk cost overflowed a little past the root,
        # where the slope then read -1; the root is certified, and without a
        # Newton root the solver refuses
        spec = ModelSpec(kind, L)
        est = optimize_qubitization(spec, delta_e)
        assert 0.5 < est.x < 1.0
        assert math.isfinite(est.total_toffoli)
        rate = walk_counts(kind, L).rotations * 0.53 / (2.0 * math.log(2.0))
        slopes = []
        for x in (est.x * (1.0 - 1e-14), est.x * (1.0 + 1e-14)):
            at = estimate(spec, x, delta_e)
            per_walk = at.total_toffoli / at.n_queries
            slopes.append(rate * (2.0 * x - 1.0) / ((1.0 - x) * per_walk) - 1.0)
        assert slopes[0] < 0.0 < slopes[1]
        monkeypatch.setattr(qubitization, "_newton_split", lambda *args: None)
        with pytest.raises(ValueError, match="split overflows"):
            optimize_qubitization(spec, delta_e)
