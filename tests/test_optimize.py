import math

import pytest

from lattice_qre.optimize import minimize


class TestOneDimensional:
    def test_quadratic(self):
        # an interior root: the slope of (p - 0.3)**2 changes sign at 0.3
        result = minimize(lambda p: 2.0 * (p - 0.3), 0.0, 1.0)
        assert abs(result.point - 0.3) <= 1e-15

    def test_log_scale(self):
        # (p - 1e-3)**2 / p in u = ln p: its slope has the sign of p**2 - 1e-6
        result = minimize(lambda u: math.exp(2.0 * u) - 1e-6, math.log(1e-6), 0.0)
        assert math.exp(result.point) == pytest.approx(1e-3, rel=1e-14)


class TestConstrained:
    def test_boundary_optimum(self):
        # a slope of one sign returns the edge it points to, exactly
        assert minimize(lambda p: -1.0, 0.5, 0.9999).point == 0.9999
        assert minimize(lambda p: 1.0, 0.5, 0.9999).point == 0.5

    def test_slope_only_inside(self):
        # the slope is never asked for at an edge, where it may be undefined
        seen = []
        minimize(lambda p: seen.append(p) or 1.0 / p - 1.0 / (1.0 - p), 0.0, 1.0)
        assert seen and all(0.0 < p < 1.0 for p in seen)


class TestDeterminism:
    def test_bit_identical_runs(self):
        slope = lambda p: math.tanh(p - 1.7) + 0.1 * p ** 3
        assert minimize(slope, -2.0, 5.0) == minimize(slope, -2.0, 5.0)

    def test_never_worse_than_start(self):
        # the edges, the minimum and a fine grid across the box all cost no less
        f = lambda p: (p - 0.21) ** 2 + abs(p - 0.21) ** 3
        result = minimize(lambda p: 2.0 * (p - 0.21) + 3.0 * (p - 0.21) * abs(p - 0.21),
                          0.0, 1.0)
        for start in (0.0, 0.25, 0.21, 1.0, *(i / 1000 for i in range(1001))):
            assert f(result.point) <= f(start)

    def test_evaluation_count(self):
        # one evaluation per halving, down to adjacent floats: 52 halvings of
        # [0.5, 1), where the float spacing is 2**-53
        calls = []
        result = minimize(lambda p: calls.append(p) or p - 0.75, 0.5, 1.0)
        assert result.evaluations == len(calls) == 52
        assert result.point == 0.75
