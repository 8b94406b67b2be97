import math

import pytest

from lattice_qre.optimize import Dimension, minimize


class TestOneDimensional:
    def test_quadratic(self):
        result = minimize(lambda p: (p[0] - 0.3) ** 2, [Dimension(0.0, 1.0)], [0.9])
        assert abs(result.point[0] - 0.3) < 1e-6

    def test_log_scale(self):
        result = minimize(lambda p: (p[0] - 1e-3) ** 2 / p[0],
                          [Dimension(1e-6, 1.0, "log")], [0.1])
        assert result.point[0] == pytest.approx(1e-3, rel=1e-2)


class TestConstrained:
    # points outside the region where the objective is defined score +inf
    def test_boundary_optimum(self):
        # the starts at and near the upper corner need the simplex to step into the box
        dims = [Dimension(-1.0, 1.0), Dimension(-1.0, 1.0)]
        for start in ([0.5, 0.75], [0.9, 0.8], [1.0, 1.0]):
            result = minimize(
                lambda p: p[0] ** 2 + p[1] ** 2 if p[0] + p[1] > 1.0 else math.inf, dims, start)
            assert result.value <= 0.5 + 1e-3
            assert result.point[0] + result.point[1] > 1.0

    def test_empty_feasible_set(self):
        with pytest.raises(ValueError, match="not finite at the start"):
            minimize(lambda p: float("nan"), [Dimension(0.0, 1.0)], [0.5])

    def test_infinite_start_rejected(self):
        dims = [Dimension(0.0, 1.0), Dimension(0.0, 1.0)]
        with pytest.raises(ValueError, match="not finite at the start"):
            minimize(lambda p: p[0] if p[1] > 0.5 else math.inf, dims, [0.5, 0.2])


class TestDeterminism:
    def test_bit_identical_runs(self):
        dims = [Dimension(0.1, 5.0, "log"), Dimension(-2.0, 2.0)]
        f = lambda p: (p[0] - 1.7) ** 2 + abs(p[1] + 0.3) ** 1.5
        a = minimize(f, dims, [0.5, 1.0])
        b = minimize(f, dims, [0.5, 1.0])
        assert a.point == b.point
        assert a.value == b.value

    def test_never_worse_than_start(self):
        dims = [Dimension(0.0, 1.0), Dimension(0.0, 1.0)]
        f = lambda p: (p[0] - 0.21) ** 2 + (p[1] - 0.77) ** 2
        for start in ([0.0, 0.0], [0.25, 0.75], [0.21, 0.77], [1.0, 0.5]):
            result = minimize(f, dims, start)
            assert result.value <= f(start)
            assert result.value == f(result.point)

    def test_nonfinite_objective_handled(self):
        result = minimize(lambda p: float("nan") if p[0] < 0.5 else p[0],
                          [Dimension(0.0, 1.0)], [0.9])
        assert result.value >= 0.5
        assert math.isfinite(result.value)
