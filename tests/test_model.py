import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from lattice_qre import cli
from lattice_qre.model import (
    CuprateCouplings,
    FermiHubbardCouplings,
    InvalidLattice,
    Model,
    ModelSpec,
    PnictideCouplings,
    default_couplings,
    extensive_error,
    lcu_lambda,
    parse_config,
    system_qubits,
)


def spec_from_config_file(tmp_path, text: str) -> ModelSpec:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    args = cli.build_parser().parse_args(["estimate", "--config", str(path)])
    (spec,), _ = cli._build_spec(args)
    return spec


class TestDefaults:
    def test_fermi_hubbard(self):
        assert default_couplings(Model.FERMI_HUBBARD) == FermiHubbardCouplings(t=1, u=8)

    def test_cuprate(self):
        c = default_couplings(Model.CUPRATE)
        assert (c.t, c.t_prime, c.t_dprime, c.u) == (1, 0.3, 0.2, 8)

    def test_pnictide(self):
        c = default_couplings(Model.PNICTIDE)
        assert (c.t1, c.t2, c.t3, c.t4, c.u, c.v) == (1, 1.3, 0.85, 0.85, 8, 8)


class TestValidation:
    def test_odd_L_rejected(self):
        with pytest.raises(InvalidLattice):
            ModelSpec(Model.FERMI_HUBBARD, 5)

    def test_small_L_rejected_for_multiband(self):
        with pytest.raises(InvalidLattice):
            ModelSpec(Model.PNICTIDE, 2)

    @pytest.mark.parametrize("L", [8.0, 8.5, "8"])
    def test_non_integer_L_rejected(self, L):
        # a float or str L would reach int-only code (L.bit_length) in both
        # solvers
        with pytest.raises(InvalidLattice, match=re.escape(f"L={L!r} invalid: need an integer")):
            ModelSpec(Model.FERMI_HUBBARD, L)

    def test_index_L_stored_as_int(self):
        spec = ModelSpec(Model.FERMI_HUBBARD, np.int64(8))
        assert type(spec.L) is int and spec == ModelSpec(Model.FERMI_HUBBARD, 8)

    def test_l_whose_square_overflows_rejected(self):
        # every cost formula takes L^2 as a float: the largest even L whose
        # square fits is accepted, the next even L is refused and named
        L = math.isqrt(int(sys.float_info.max))
        L -= L % 2
        assert extensive_error(ModelSpec(Model.FERMI_HUBBARD, L).L) < math.inf
        with pytest.raises(InvalidLattice, match=f"L={L + 2} is too large"):
            ModelSpec(Model.FERMI_HUBBARD, L + 2)

    def test_zero_hopping_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(Model.FERMI_HUBBARD, 4, FermiHubbardCouplings(t=0.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(Model.CUPRATE, 4, CuprateCouplings(u=math.inf))

    def test_wrong_coupling_type(self):
        with pytest.raises(TypeError):
            ModelSpec(Model.CUPRATE, 4, FermiHubbardCouplings())

    def test_cuprate_L6_valid_spec(self):
        # qubitization handles any even L; only the Trotter scheme needs L % 4 == 0
        assert ModelSpec(Model.CUPRATE, 6).L == 6


class TestExtensiveError:
    def test_values(self):
        assert extensive_error(4) == pytest.approx(0.0816, rel=1e-12)
        assert extensive_error(10) == pytest.approx(0.51, rel=1e-12)

    def test_small_L_rejected(self):
        with pytest.raises(ValueError):
            extensive_error(1)

    def test_ratio_exact(self):
        # bitwise equality with the defining product, not a rounded ratio
        for L in range(2, 40, 2):
            assert extensive_error(L) == 0.0051 * (L * L)


class TestLambda:
    def test_fh(self):
        assert lcu_lambda(ModelSpec(Model.FERMI_HUBBARD, 4)) == 96

    def test_cuprate(self):
        assert lcu_lambda(ModelSpec(Model.CUPRATE, 4)) == 128

    def test_pnictide(self):
        assert lcu_lambda(ModelSpec(Model.PNICTIDE, 4)) == pytest.approx(556.8, rel=1e-12)

    def test_negative_couplings_use_magnitudes(self):
        spec = ModelSpec(Model.FERMI_HUBBARD, 4, FermiHubbardCouplings(t=-1, u=-8))
        assert lcu_lambda(spec) == 96

    def test_degree_one_homogeneity(self):
        rng = np.random.default_rng(7)
        base = ModelSpec(Model.PNICTIDE, 4)
        lam = lcu_lambda(base)
        for s in rng.uniform(1e-3, 10.0, size=100):
            scaled = base.with_couplings(
                t1=s, t2=1.3 * s, t3=0.85 * s, t4=0.85 * s, u=8 * s, v=8 * s
            )
            assert lcu_lambda(scaled) == pytest.approx(s * lam, rel=1e-12)

    def test_L_squared_scaling(self):
        for kind in Model:
            lam4 = lcu_lambda(ModelSpec(kind, 4))
            lam8 = lcu_lambda(ModelSpec(kind, 8))
            assert lam8 == pytest.approx(4 * lam4, rel=1e-12)

    def test_system_qubits(self):
        assert system_qubits(ModelSpec(Model.FERMI_HUBBARD, 4)) == 32
        assert system_qubits(ModelSpec(Model.PNICTIDE, 4)) == 64


class TestWithCouplings:
    @pytest.mark.parametrize("kind,foreign", [
        (Model.FERMI_HUBBARD, "t_prime"), (Model.CUPRATE, "t1"), (Model.PNICTIDE, "t")])
    def test_foreign_coupling_is_refused_by_name(self, kind, foreign):
        message = f"^the {kind.value} model has no coupling {foreign}$"
        with pytest.raises(ValueError, match=message):
            ModelSpec(kind, 4).with_couplings(u=4.0, **{foreign: 0.5})

    def test_every_foreign_coupling_is_named(self):
        with pytest.raises(ValueError, match="^the fh model has no coupling t1, v$"):
            ModelSpec(Model.FERMI_HUBBARD, 4).with_couplings(v=1.0, t1=2.0)

    @pytest.mark.parametrize("kind", list(Model))
    def test_override_round_trips(self, kind):
        spec = ModelSpec(kind, 4)
        changed = spec.with_couplings(u=4.0)
        assert changed.couplings == replace(default_couplings(kind), u=4.0)
        assert changed.with_couplings(u=8.0) == spec


class TestConfig:
    def test_round_trip(self, tmp_path):
        spec = spec_from_config_file(
            tmp_path, "model = cuprate\nL = 8\nt_prime = 0.35  # override\n")
        assert spec.kind is Model.CUPRATE
        assert spec.L == 8
        assert spec.couplings.t_prime == 0.35
        assert spec.couplings.u == 8  # default preserved

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_config("bogus = 3\n")

    def test_pnictide_v_settable(self, tmp_path):
        spec = spec_from_config_file(tmp_path, "model = pnictide\nL = 4\nv = 5.5\n")
        assert spec.couplings == PnictideCouplings(v=5.5)
