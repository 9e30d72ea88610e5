"""Mean-zero Pareto-tail laws: calibration, cdf identities, expectations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from nlstable.kernels import ConfigError, KernelPair
from nlstable.laws import build_law, tail_deviation

from conftest import law_expectation

ALPHA = 1.5


@pytest.fixture(scope="module")
def law_sym():
    return build_law(KernelPair(1.0, 1.0), ALPHA, 1.0, 2.0)


def tail_mass(law):
    """Mass of the law beyond +-z0, from its cdf."""
    return law.cdf(-law.z0) + 1.0 - law.cdf(law.z0)


def quad_mean(law):
    interior, _ = quad(lambda z: z * law.density(z), -law.z0, law.z0,
                       limit=200)
    c = law.b_scale ** law.alpha
    tail_mom = law.z0 ** (1.0 - law.alpha) / (law.alpha - 1.0)
    return interior + c * (law.pair.k_plus - law.pair.k_minus) * tail_mom


class TestBuild:
    def test_symmetric_tilt_is_zero(self, law_sym):
        assert abs(law_sym.tilt) < 1e-12

    def test_tail_mass_value(self, law_sym):
        assert tail_mass(law_sym) == pytest.approx(
            2.0 / (1.5 * 2.0 ** 1.5), rel=1e-14)   # ~0.4714

    def test_unit_mass(self, law_sym):
        interior, _ = quad(law_sym.density, -2.0, 2.0, limit=200)
        assert interior + tail_mass(law_sym) == pytest.approx(1.0, abs=1e-10)

    def test_infeasible_asymmetric_tails_at_default_z0(self):
        # the (2,1) pair at z0=2 carries more net tail first moment than
        # any interior density on (-2, 2) can cancel
        with pytest.raises(ConfigError, match="increase z0") as exc:
            build_law(KernelPair(2.0, 1.0), ALPHA, 1.0, 2.0)
        assert exc.value.field == "z0"

    def test_asymmetric_mean_zero_at_wide_z0(self):
        law = build_law(KernelPair(2.0, 1.0), ALPHA, 1.0, 6.0)
        assert abs(quad_mean(law)) < 1e-10
        assert abs(law_expectation(lambda z: z, law)) < 1e-10

    def test_tail_mass_over_one_rejected(self):
        with pytest.raises(ConfigError, match="tail mass") as exc:
            build_law(KernelPair(3.0, 3.0), ALPHA, 1.0, 0.5)
        assert exc.value.field == "z0"

    def test_c1_junction(self, law_sym):
        eps = 1e-6
        for s in (-1.0, 1.0):
            z = s * law_sym.z0
            inner = (law_sym.density(z - s * eps)
                     - law_sym.density(z - 2 * s * eps)) / (s * eps)
            outer = (law_sym.density(z + 2 * s * eps)
                     - law_sym.density(z + s * eps)) / (s * eps)
            assert law_sym.density(z - s * eps) \
                == pytest.approx(law_sym.density(z + s * eps), abs=1e-5)
            assert inner == pytest.approx(outer, abs=1e-4)

    @given(k=st.floats(0.2, 1.0), dk=st.floats(-0.05, 0.05))
    @settings(max_examples=30, deadline=None)
    def test_feasible_pairs_give_probability_density(self, k, dk):
        law = build_law(KernelPair(k, k + dk), ALPHA, 1.0, 2.0)
        zz = np.linspace(-2.0, 2.0, 801)
        assert np.min(law.density(zz)) >= -1e-12
        assert law_expectation(lambda z: np.ones_like(z), law) \
            == pytest.approx(1.0, abs=1e-9)
        assert abs(law_expectation(lambda z: z, law)) < 1e-10


class TestCdfAndBeta:
    def test_cdf_tail_identity(self, law_sym):
        c = 1.0
        for z in np.linspace(2.0, 40.0, 77):
            assert law_sym.cdf(z) == pytest.approx(
                1.0 - c / (ALPHA * z ** ALPHA), abs=1e-12)
            assert law_sym.cdf(-z) == pytest.approx(
                c / (ALPHA * z ** ALPHA), abs=1e-12)

    def test_beta_vanishes_beyond_z0(self, law_sym):
        b1, b2 = tail_deviation(law_sym, [-4.0, 4.0])
        assert abs(b1) < 1e-14 and abs(b2) < 1e-14

    def test_beta_near_origin_limit(self, law_sym):
        b1 = tail_deviation(law_sym, -1e-9)
        assert b1 == pytest.approx(-1.0 / ALPHA, abs=1e-9)

    def test_beta_interior_from_cdf_quadrature(self, law_sym):
        z = 1.0  # z0 / 2
        upper, _ = quad(law_sym.density, z, law_sym.z0, limit=200)
        one_minus_f = upper + tail_mass(law_sym) / 2.0
        ref = one_minus_f * z ** ALPHA - 1.0 / ALPHA
        b2 = tail_deviation(law_sym, z)
        assert b2 == pytest.approx(ref, abs=1e-10)

    def test_beta_mixed_signs_in_one_call(self):
        """One call over z of both signs, inside and beyond z0, returns
        beta1 on the left and beta2 on the right, as point by point."""
        law = build_law(KernelPair(0.5, 0.3), ALPHA, 1.0, 2.0)
        # -2.3 and 3.7: beyond z0, where the formula leaves rounding
        z = np.array([-5.0, -2.3, -2.0, -1.3, -0.2, -1e-6, 1e-6, 0.4, 1.9,
                      2.0, 3.7])
        got = tail_deviation(law, z)
        c, a = law.b_scale ** ALPHA, ALPHA
        for zi, gi in zip(z, got):
            if abs(zi) >= law.z0:
                ref = 0.0
            elif zi < 0.0:
                ref = law.cdf(zi) * abs(zi) ** a - c * law.pair.k_minus / a
            else:
                ref = (1.0 - law.cdf(zi)) * zi ** a - c * law.pair.k_plus / a
            assert gi == ref
            assert float(tail_deviation(law, zi)) == ref


class TestExpectation:
    def test_normalization(self, law_sym):
        assert law_expectation(lambda z: np.ones_like(z), law_sym) \
            == pytest.approx(1.0, abs=1e-12)

    def test_mean_zero(self, law_sym):
        assert abs(law_expectation(lambda z: z, law_sym)) < 1e-10

    def test_absolute_moment_split(self, law_sym):
        interior, _ = quad(lambda z: abs(z) * law_sym.density(z),
                           -2.0, 2.0, limit=200)
        tail = 2.0 * 2.0 ** -0.5 / 0.5
        val = law_expectation(np.abs, law_sym)
        assert val == pytest.approx(interior + tail, rel=1e-6)
        assert np.isfinite(val)
