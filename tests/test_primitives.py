import numpy as np
import pytest

from lattice_qre.model import Model, ModelSpec
from lattice_qre.primitives import (
    CostVector,
    HwpStrategy,
    ZERO_COST,
    hamming_adders,
    hwp_batched_cost,
    hwp_cost,
    popcount,
)
from lattice_qre.trotter_bounds import TrotterBudget
from lattice_qre.trotter_cost import Strategy, evaluate


class TestRusSynthesis:
    # mean repeat-until-success T count per rotation at precision delta,
    # 0.53 log2(1/delta) + 4.86, as charged for the Trotter layer rotations
    # (Fermi-Hubbard, L = 8, r = 1: 5 rotations)
    def _t_per_rotation(self, delta: float) -> float:
        x = 5 * delta / (0.5 * 1000.0 * 0.1)  # x (1-y) dE tau = 5 delta
        budget = TrotterBudget(delta_e=1000.0, y=0.5, x=x, z=0.32, tau=0.1)
        est = evaluate(ModelSpec(Model.FERMI_HUBBARD, 8), Strategy.CATALYZED, budget)
        assert est.r == 1
        return est.n_t2 / 5

    def test_unit_budget(self):
        assert self._t_per_rotation(1.0) == pytest.approx(4.86, rel=1e-12)

    def test_hundred_bits(self):
        assert self._t_per_rotation(2.0**-100) == pytest.approx(57.86, rel=1e-12)


class TestHammingCounts:
    def test_examples(self):
        assert (popcount(64), hamming_adders(64)) == (1, 63)
        assert (popcount(8), hamming_adders(8)) == (1, 7)
        assert (popcount(1), hamming_adders(1)) == (1, 0)

    def test_powers_of_two(self):
        for k in range(13):
            assert popcount(1 << k) == 1
            assert hamming_adders(1 << k) == (1 << k) - 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            popcount(0)


class TestHwp:
    def test_baseline_64(self):
        c = hwp_cost(64, HwpStrategy.BASELINE)
        assert (c.toffoli, c.rz) == (63, 7)

    def test_catalyzed_64(self):
        c = hwp_cost(64, HwpStrategy.CATALYZED)
        assert (c.toffoli, c.rz) == (70, 1)

    def test_single_rotation(self):
        c = hwp_cost(1, HwpStrategy.BASELINE)
        assert (c.toffoli, c.rz) == (0, 1)

    def test_toffoli_gap_is_register_size(self):
        # the space-time trade-off: catalysis costs exactly the register size
        for m in range(1, 4097):
            gap = (hwp_cost(m, HwpStrategy.CATALYZED).toffoli
                   - hwp_cost(m, HwpStrategy.BASELINE).toffoli)
            assert gap == m.bit_length()


class TestHwpBatched:
    def test_two_batches(self):
        c = hwp_batched_cost(64, 32, HwpStrategy.BASELINE)
        assert (c.toffoli, c.rz) == (62, 12)

    def test_single_batch_matches_unbatched(self):
        for strategy in HwpStrategy:
            whole = hwp_cost(64, strategy)
            batched = hwp_batched_cost(64, 64, strategy)
            assert batched == whole

    def test_remainder_batch(self):
        c = hwp_batched_cost(5, 2, HwpStrategy.BASELINE)
        assert (c.toffoli, c.rz) == (2, 5)


class TestCostVectorMonoid:
    def _random_costs(self, n=50):
        # dyadic float components keep the additions exact, so the monoid
        # laws can be asserted with plain equality
        rng = np.random.default_rng(11)
        return [
            CostVector(
                toffoli=float(rng.integers(0, 100)),
                t_gates=float(rng.integers(0, 400)) / 8.0,
                rz=int(rng.integers(0, 20)),
            )
            for _ in range(n)
        ]

    def test_identity(self):
        for c in self._random_costs():
            assert c + ZERO_COST == c
            assert ZERO_COST + c == c

    def test_commutative(self):
        costs = self._random_costs()
        for a, b in zip(costs, reversed(costs)):
            assert a + b == b + a

    def test_associative(self):
        costs = self._random_costs(30)
        for a, b, c in zip(costs, costs[1:], costs[2:]):
            assert (a + b) + c == a + (b + c)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostVector(toffoli=-1)
