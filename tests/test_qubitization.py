import math
import warnings
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_qre import qubitization
from lattice_qre.model import Model, ModelSpec, default_couplings, extensive_error
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

    @pytest.mark.parametrize("L,delta_e", [(10**8, None), (8, 1e-300)])
    def test_slope_negative_up_to_one_raises(self, L, delta_e):
        # at L = 1e8 the optimum lies within float resolution of x = 1; at
        # dE = 1e-300 the per-walk cost overflows.  Either way no x below 1
        # turns the slope, and the solver refuses rather than return x = 1
        with pytest.raises(ValueError, match="split overflows: d ln\\(total\\)/dx stays negative"):
            optimize_qubitization(ModelSpec(Model.FERMI_HUBBARD, L), delta_e)

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
        # built once, at the optimum
        calls = []

        def counted(*args):
            calls.append(args)
            return estimate(*args)

        monkeypatch.setattr(qubitization, "estimate", counted)
        for kind in Model:
            calls.clear()
            est = optimize_qubitization(ModelSpec(kind, 8))
            assert len(calls) == 1
            assert calls[0][1] == est.x

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


def _recorded_brackets(monkeypatch):
    """(lower, upper, evaluations) of each ``minimize`` call of the solver."""
    brackets = []

    def recorded(slope, lower, upper):
        result = minimize(slope, lower, upper)
        brackets.append((lower, upper, result.evaluations))
        return result

    monkeypatch.setattr(qubitization, "minimize", recorded)
    return brackets


class TestSplitBracket:
    def test_newton_bracket_matches_the_full_domain(self, monkeypatch):
        # bisecting the solver's own slope over its whole domain (1/2, 1) gives
        # the Newton bracket's x exactly: the table cells, the precision-scan
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

        def recorded(slope, lower, upper):
            result = minimize(slope, lower, upper)
            solved.append((slope, result.point))
            return result

        monkeypatch.setattr(qubitization, "minimize", recorded)
        xs = [optimize_qubitization(*solve).x for solve in solves]
        assert [x for _, x in solved] == xs
        for slope, x in solved:
            assert _whole_domain_root(slope, 0.5, 1.0) == x

    def test_table_cells_bisect_a_narrow_bracket(self, monkeypatch):
        # every table cell bisects a Newton bracket: 11 evaluations a cell
        # where bisecting (1/2, 1) took 52
        brackets = _recorded_brackets(monkeypatch)
        xs = [optimize_qubitization(spec).x for spec in _table_specs()]
        assert len(brackets) == 45
        assert sum(evaluations for _, _, evaluations in brackets) == 495
        for (lower, upper, _), x in zip(brackets, xs):
            assert 0.5 < lower < x <= upper < 1.0
            assert upper - lower <= 1e-12 * x

    @pytest.mark.parametrize("L", [3 * 10**6, 10**7, 3 * 10**7])
    def test_bracket_ends_below_one(self, monkeypatch, L):
        # within 1e-13 of 1 the bracket is cut at the float below 1: the slope
        # divides by 1 - x, so it is never read at x = 1
        brackets = _recorded_brackets(monkeypatch)
        for kind in Model:
            est = optimize_qubitization(ModelSpec(kind, L))
            (lower, upper, _), = brackets
            brackets.clear()
            assert lower > 0.5
            assert lower < est.x <= upper <= math.nextafter(1.0, 0.0)

    @pytest.mark.parametrize("kind,L,delta_e", [
        (Model.FERMI_HUBBARD, 4, 1e-151), (Model.FERMI_HUBBARD, 10, 1e-150),
        (Model.CUPRATE, 16, 10.0 ** -149.25), (Model.PNICTIDE, 16, 10.0 ** -148.5)])
    def test_root_beside_the_walk_cost_overflow(self, monkeypatch, kind, L, delta_e):
        # the walk cost overflows a little past the root, where the slope then
        # reads -1; the Newton bracket holds the root itself, and without a
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
