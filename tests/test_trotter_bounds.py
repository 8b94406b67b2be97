import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lattice_qre.model import FermiHubbardCouplings, InvalidLattice, Model, ModelSpec
from lattice_qre.trotter_bounds import (
    _CUPRATE_POLY,
    _CUPRATE_TERMS,
    _PNICTIDE_POLY,
    _PNICTIDE_TERMS,
    FH_NORMS,
    TrotterBudget,
    _poly,
    cuprate_w,
    fh_w,
    pnictide_w,
    tau_max,
    trotter_bound,
    trotter_steps,
)
from lattice_qre.trotter_cost import _MAX_EXACT_R


def round3(x: float) -> float:
    return float(f"{x:.3g}")


class TestFhBound:
    def test_reference_values(self):
        assert round3(trotter_bound(ModelSpec(Model.FERMI_HUBBARD, 4))) == 2.82e2
        assert round3(trotter_bound(ModelSpec(Model.FERMI_HUBBARD, 6))) == 6.54e2

    def test_zero_hopping(self):
        assert fh_w(4, t=0.0, u=8.0) == 0.0

    def test_untabulated_L_rejected(self):
        with pytest.raises(InvalidLattice):
            fh_w(34, 1.0, 8.0)
        with pytest.raises(InvalidLattice):
            fh_w(5, 1.0, 8.0)

    def test_homogeneity_degree_three(self):
        rng = np.random.default_rng(3)
        base = fh_w(8, 1.0, 8.0)
        for s in rng.uniform(1e-2, 10.0, size=100):
            assert fh_w(8, s, 8.0 * s) == pytest.approx(s**3 * base, rel=1e-12)

    def test_norms_nondecreasing(self):
        hops = [FH_NORMS[L][0] for L in sorted(FH_NORMS)]
        comms = [FH_NORMS[L][1] for L in sorted(FH_NORMS)]
        assert hops == sorted(hops)
        assert comms == sorted(comms)

    def test_zero_w_is_refused(self):
        # L = 4 has a zero hopping-commutator norm, so u = 0 leaves no
        # Trotter error to budget there, and only there
        free = FermiHubbardCouplings(t=1.0, u=0.0)
        assert fh_w(4, t=1.0, u=0.0) == 0.0
        assert trotter_bound(ModelSpec(Model.FERMI_HUBBARD, 6, free)) > 0.0
        with pytest.raises(ValueError, match="W is 0"):
            trotter_bound(ModelSpec(Model.FERMI_HUBBARD, 4, free))


class TestPolynomialBounds:
    def test_cuprate_reference(self):
        # reference values carry 3 significant figures; the polynomial lands
        # within half a percent of them (its own acceptance tolerance)
        assert trotter_bound(ModelSpec(Model.CUPRATE, 4)) == pytest.approx(7.91e2, rel=5e-3)
        assert trotter_bound(ModelSpec(Model.CUPRATE, 32)) == pytest.approx(5.06e4, rel=5e-3)

    def test_cuprate_zero(self):
        assert cuprate_w(4, 0, 0, 0, 0) == 0.0

    def test_pnictide_zero(self):
        assert pnictide_w(4, 0, 0, 0, 0, 0, 0) == 0.0

    def test_homogeneity_degree_three(self):
        rng = np.random.default_rng(5)
        cu = trotter_bound(ModelSpec(Model.CUPRATE, 4))
        pn = trotter_bound(ModelSpec(Model.PNICTIDE, 4))
        for s in rng.uniform(1e-2, 10.0, size=100):
            assert cuprate_w(4, s, 0.3 * s, 0.2 * s, 8 * s) == pytest.approx(
                s**3 * cu, rel=1e-12)
            assert pnictide_w(4, s, 1.3 * s, 0.85 * s, 0.85 * s, 8 * s, 8 * s) == pytest.approx(
                s**3 * pn, rel=1e-12)

    def test_nonnegative_for_any_signs(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            c = rng.normal(scale=4.0, size=6)
            assert pnictide_w(4, *c) >= 0.0
            assert cuprate_w(4, *c[:4]) >= 0.0

    def test_dispatch(self):
        # each coupling goes to the bound's parameter of the same name
        for kind, L, w in ((Model.FERMI_HUBBARD, 8, fh_w), (Model.CUPRATE, 8, cuprate_w),
                           (Model.PNICTIDE, 6, pnictide_w)):
            spec = ModelSpec(kind, L)
            assert trotter_bound(spec) == w(L, **asdict(spec.couplings))


def _generator_poly(terms, values) -> float:
    """The bound as a sum of products over every term's exponent tuple, the
    form ``_poly`` replaced: the oracle of its ``_factors`` terms."""
    mags = [abs(v) for v in values]
    return sum(
        coeff * math.prod(m ** e for m, e in zip(mags, exps) if e)
        for coeff, exps in terms
    )


def _outcome(poly, terms, values):
    """repr of the value, or the exception type it raised."""
    try:
        return repr(poly(terms, values))
    except ArithmeticError as exc:
        return type(exc)


@st.composite
def _couplings(draw, n):
    """n signed couplings within a decade of a common scale from 1e-100 to
    1e100, so that no term swamps another's last bits.  Each after the
    leading one may be 0, and any may be a size whose square or cube
    overflows."""
    scale = draw(st.floats(-100.0, 100.0))
    values = []
    for i in range(n):
        if i and draw(st.integers(0, 4)) == 0:
            values.append(0.0)
            continue
        if draw(st.integers(0, 9)) == 0:
            magnitude = draw(st.sampled_from([1e110, 1e160, 1e300]))
        else:
            magnitude = 10.0 ** (scale + draw(st.floats(-1.0, 1.0)))
        values.append(draw(st.sampled_from([1.0, -1.0])) * magnitude)
    return tuple(values)


class TestFactoredPolynomial:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(_couplings(4))
    @example((1.0, 0.3, 0.2, 1e110))   # u cubed would overflow; no term cubes it
    @example((1e110, 0.3, 0.2, 8.0))   # t cubed overflows in both forms
    def test_cuprate_bit_identical(self, values):
        assert (_outcome(_poly, _CUPRATE_POLY, values)
                == _outcome(_generator_poly, _CUPRATE_TERMS, values))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(_couplings(6))
    @example((1.0, 1.3, 0.85, 0.85, 8.0, 1e110))   # v cubed would overflow
    @example((1.0, 1.3, 0.85, 0.85, 1e160, 8.0))   # u squared overflows in both
    def test_pnictide_bit_identical(self, values):
        assert (_outcome(_poly, _PNICTIDE_POLY, values)
                == _outcome(_generator_poly, _PNICTIDE_TERMS, values))


class TestTauMax:
    def test_unit(self):
        assert tau_max(math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-12)

    def test_values(self):
        assert tau_max(282.4) == pytest.approx(0.1711, abs=5e-4)
        assert tau_max(1.14e4) == pytest.approx(0.0499, abs=5e-5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            tau_max(0.0)

    def test_subnormal_w_has_no_finite_step(self):
        # sqrt(2) / W overflows: the cap would be inf, and every tau below it
        with pytest.raises(ValueError, match="W=4.94066e-324"):
            tau_max(5e-324)


class TestTrotterSteps:
    def _budget(self, tau=0.02):
        return TrotterBudget(delta_e=0.0816, y=0.6, x=0.01, z=0.001, tau=tau)

    def test_reference_example(self):
        assert trotter_steps(282.4, 0.02, self._budget()) == 2

    def test_zero_bound_floors_at_one(self):
        assert trotter_steps(0.0, 0.02, self._budget()) == 1

    def test_sqrt_scaling(self):
        b = self._budget()
        det = b.delta_e_trotter
        r1 = 0.02 * math.sqrt(282.4 / det)
        r4 = 0.02 * math.sqrt(4 * 282.4 / det)
        assert r4 == pytest.approx(2 * r1, rel=1e-12)

    def test_post_ceiling_bound_holds(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            w = float(rng.uniform(10, 1e6))
            b = TrotterBudget(
                delta_e=float(rng.uniform(0.05, 5.0)),
                y=float(rng.uniform(0.1, 0.9)),
                x=float(rng.uniform(1e-3, 0.3)),
                z=float(rng.uniform(0, 0.3)),
                tau=float(rng.uniform(1e-3, 0.9)) * tau_max(w),
            )
            r = trotter_steps(w, b.tau, b)
            assert r >= 1
            assert b.tau**3 * w / r**2 <= b.delta_e_trotter * b.tau * (1 + 1e-9)

    def test_degenerate_budget_rejected(self):
        with pytest.raises(ValueError):
            TrotterBudget(delta_e=0.1, y=0.5, x=0.6, z=0.5, tau=0.1)

    def test_pinned_tau_gives_back_r(self):
        # the solver pins tau onto the boundary of r steps; its float error,
        # a few ulps of r, must not round r up, up to the solver's r limit
        rng = np.random.default_rng(17)
        assert 2**43 < _MAX_EXACT_R < 2**44
        for k in range(44):
            for r in {max(2**k - 1, 1), 2**k, 2**k + 1}:
                for _ in range(20):
                    w = float(10 ** rng.uniform(0, 6))
                    delta_e = float(10 ** rng.uniform(-12, 2))
                    y, x = float(rng.uniform(0.2, 0.92)), float(10 ** rng.uniform(-4, -0.5))
                    z = x * float(10 ** rng.uniform(-6, 0)) / 2
                    t = (1.0 - (x + z)) * (1.0 - y)
                    tau = r * math.sqrt(t * delta_e / w)   # as _best_budget pins it
                    assert trotter_steps(w, tau, TrotterBudget(delta_e, y, x, z, tau)) == r


class TestBudget:
    def test_slices_sum_to_total(self):
        # the shares evaluate reads, plus the Trotter slice, make up dE
        b = TrotterBudget(delta_e=0.3264, y=0.6, x=0.01, z=0.001, tau=0.02)
        total = sum(b.shares) + b.delta_e_trotter / b.delta_e
        assert total == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("name,value", [
        ("delta_e", math.nan), ("delta_e", math.inf), ("y", math.nan), ("x", math.nan),
        ("x", math.inf), ("z", math.nan), ("z", math.inf), ("tau", math.nan),
        ("tau", math.inf)])
    def test_non_finite_field_named(self, name, value):
        fields = dict(delta_e=0.3264, y=0.6, x=0.01, z=0.001, tau=0.02)
        fields[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            TrotterBudget(**fields)

    def test_bad_y(self):
        with pytest.raises(ValueError):
            TrotterBudget(delta_e=0.1, y=1.2, x=0.01, z=0.0, tau=0.1)
