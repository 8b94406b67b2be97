import math

from lattice_qre.optimize import MinimizeResult, minimize


def _counted(slope):
    """``slope`` and the list of the points it is evaluated at."""
    seen = []
    return (lambda p: seen.append(p) or slope(p)), seen


class TestCertificate:
    def test_sign_change_returns_the_root(self):
        # the slope of (p - 0.3)**2 changes sign at 0.3: the root itself comes
        # back, read from the slope at the two ends of its 1e-13 bracket
        slope, seen = _counted(lambda p: 2.0 * (p - 0.3))
        assert minimize(slope, 0.3) == MinimizeResult(0.3, 2)
        assert seen == [0.3 * (1.0 - 1e-13), 0.3 * (1.0 + 1e-13)]

    def test_no_sign_change_is_refused(self):
        # a root more than 1e-13 from the sign change is not certified
        slope, seen = _counted(lambda p: 2.0 * (p - 0.3))
        assert minimize(slope, 0.3 * (1.0 + 1e-12)) is None
        assert minimize(slope, 0.3 * (1.0 - 1e-12)) is None
        assert 0 < len(seen) <= 4

    def test_no_root_is_refused(self):
        slope, seen = _counted(lambda p: p - 0.3)
        assert minimize(slope, None) is None
        assert minimize(slope, None, 1.0) is None
        assert seen == []

    def test_upper_caps_the_bracket(self):
        # the slope p - 1 turns only at 1, where a 1 / (1 - p) slope would be
        # undefined: capped at the float below 1, the bracket misses it
        below_one = math.nextafter(1.0, 0.0)
        root = math.nextafter(below_one, 0.0)
        slope, seen = _counted(lambda p: p - 1.0)
        assert minimize(slope, root) == MinimizeResult(root, 2)
        assert seen[-1] > 1.0
        seen.clear()
        assert minimize(slope, root, below_one) is None
        assert seen == [root * (1.0 - 1e-13), below_one]

    def test_bit_identical_runs(self):
        slope = lambda p: math.tanh(p - 1.7) + 0.1 * p ** 3   # noqa: E731
        root = 1.411194424569159   # bisected to adjacent floats
        assert minimize(slope, root) == minimize(slope, root) == MinimizeResult(root, 2)
