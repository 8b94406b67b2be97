import pytest

from lattice_qre.model import Model, ModelSpec
from lattice_qre.primitives import hamming_adders, hwp_counts
from lattice_qre.trotter_bounds import TrotterBudget
from lattice_qre.trotter_cost import Strategy, evaluate, step_cost


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
        # M minus its popcount: 64 = 0b1000000, 7 = 0b111
        assert [hamming_adders(m) for m in (64, 8, 7, 1)] == [63, 7, 4, 0]

    def test_powers_of_two(self):
        for k in range(13):
            assert hamming_adders(1 << k) == (1 << k) - 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="hamming_adders needs M >= 1, got 0"):
            hamming_adders(0)


class TestHwp:
    def test_baseline_64(self):
        assert hwp_counts(64, False) == (63, 7)

    def test_catalyzed_64(self):
        assert hwp_counts(64, True) == (70, 1)

    def test_single_rotation(self):
        assert hwp_counts(1, False) == (0, 1)

    def test_toffoli_gap_is_register_size(self):
        # the space-time trade-off: catalysis costs exactly the register size
        for m in range(1, 4097):
            gap = hwp_counts(m, True)[0] - hwp_counts(m, False)[0]
            assert gap == m.bit_length()


class TestHwpBatched:
    def test_two_batches(self):
        # FH L = 8, r = 1: five layers of 64 rotations, each phased in two
        # batches of 32 at 31 adders and 6 rotations a batch
        c = step_cost(Model.FERMI_HUBBARD, 8, 1, Strategy.BATCHED_BASELINE)
        assert (c.toffoli, c.rz) == (5 * 62, 5 * 12)
