"""Characteristic-exponent oracle and Fourier-inversion densities."""

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import quad
from scipy.signal import fftconvolve
from scipy.special import gamma

from nlstable import oracle
from nlstable.kernels import KernelPair, next_fast_len
from nlstable.oracle import (
    CharExponent,
    classical_expectation,
    _invert,
    _inverted_table,
    _log_phi_grid,
)

from conftest import gaussian

ALPHA = 1.5


@pytest.fixture(scope="module")
def ce_sym():
    return CharExponent(KernelPair(1.0, 1.0), ALPHA)


@pytest.fixture(scope="module")
def ce_asym():
    return CharExponent(KernelPair(2.0, 1.0), ALPHA)


def log_phi(ce, freq):
    """log phi at one frequency, through the grid evaluator."""
    return _log_phi_grid(ce, np.array([freq]))[0]


class TestCharExponent:
    def test_zero_frequency(self, ce_sym):
        assert log_phi(ce_sym, 0.0) == 0.0

    def test_symmetric_pair_real(self, ce_sym):
        for f in (0.3, 1.0, 5.7):
            assert log_phi(ce_sym, f).imag == 0.0
            assert log_phi(ce_sym, f).real < 0.0

    def test_real_part_closed_form(self, ce_sym):
        # integral of (cos w - 1) w^(-alpha-1) over (0, inf) equals
        # cos(pi alpha / 2) Gamma(-alpha)
        ref = 2.0 * np.cos(np.pi * ALPHA / 2.0) * gamma(-ALPHA)
        assert log_phi(ce_sym, 1.0).real == pytest.approx(ref, rel=1e-9)

    def test_real_part_brute_force(self, ce_sym):
        parts = [quad(lambda w: (np.cos(w) - 1.0) * w ** (-ALPHA - 1.0),
                      a, b, limit=500)[0]
                 for a, b in [(1e-9, 1.0), (1.0, 50.0)]]
        tail, _ = quad(lambda w: w ** (-ALPHA - 1.0), 50.0, np.inf,
                       weight="cos", wvar=1.0)
        tail -= 50.0 ** -ALPHA / ALPHA
        ref = 2.0 * (sum(parts) + tail)
        assert log_phi(ce_sym, 1.0).real == pytest.approx(ref, rel=1e-6)

    def test_frequency_scaling(self, ce_asym):
        a = log_phi(ce_asym, 1.0)
        b = log_phi(ce_asym, 2.0)
        assert b == pytest.approx(2.0 ** ALPHA * a, rel=1e-12)

    def test_decay_rate_positive(self, ce_sym, ce_asym):
        assert ce_sym.decay_rate > 0.0
        assert ce_asym.decay_rate > 0.0


def dense_invert(ce, t_time, n, dx):
    """Reference: the trapezoid sum over xi > 0 as dense cos/sin blocks
    at x_k = k*dx, |k| <= n, on the inversion's frequency grid (the
    direct evaluation the one-FFT path replaces)."""
    c = t_time * ce.decay_rate
    xi_max = (27.7 / c) ** (1.0 / ce.alpha)
    period = max(8.0 * max(n * dx, 1.0), 100.0 * np.pi)
    d_xi = 2.0 * np.pi / (next_fast_len(int(np.ceil(period / dx))) * dx)
    xi = d_xi * np.arange(int(np.ceil(xi_max / d_xi)) + 1)
    phi = np.exp(t_time * _log_phi_grid(ce, xi))
    phi[0] *= 0.5
    phi[-1] *= 0.5
    x = dx * np.arange(-n, n + 1)
    out = np.empty(len(x))
    block = 4096
    for lo in range(0, len(x), block):
        xs = x[lo:lo + block]
        out[lo:lo + block] = (np.cos(np.outer(xs, xi)) @ phi.real
                              + np.sin(np.outer(xs, xi)) @ phi.imag)
    return out * d_xi / np.pi


@pytest.mark.parametrize("cut", [40.0, 120.0])
@pytest.mark.parametrize("t_time", [0.5, 1.0, 2.0])
def test_chirp_z_matches_dense_sum(ce_sym, ce_asym, cut, t_time):
    """The one-FFT inversion (which replaced a chirp-z transform under
    this test's name) against the dense sum on the same frequencies."""
    dx = 0.05
    n = int(np.ceil(cut / dx))
    for ce in (ce_sym, ce_asym):
        ref = dense_invert(ce, t_time, n, dx)
        got = _invert(ce, t_time, n, dx)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_invert_folds_frequencies_past_one_period():
    """A small alpha and intensity puts xi_max past 2 pi/dx, so phi
    wraps around the FFT length more than once; the fold keeps the sum
    equal to the dense one."""
    ce = CharExponent(KernelPair(0.3, 0.3), 1.1)
    n, dx = 40, 0.5
    xi_max = (27.7 / ce.decay_rate) ** (1.0 / ce.alpha)
    assert xi_max > 2.0 * np.pi / dx
    ref = dense_invert(ce, 1.0, n, dx)
    got = _invert(ce, 1.0, n, dx)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("pair,n_fft", [((1.0, 1.0), 64000),
                                        ((2.0, 1.0), 64000)])
def test_invert_matches_scipy_fft(pair, n_fft, monkeypatch):
    """numpy.fft against the same inversion with scipy.fft, at the
    table size and transform length of the bundled solve configs."""
    ce = CharExponent(KernelPair(*pair), ALPHA)
    own, lengths = oracle.next_fast_len, []

    def fast_len(n):
        lengths.append(own(n))
        return lengths[-1]

    monkeypatch.setattr(oracle, "next_fast_len", fast_len)
    got = _invert(ce, 1.0, 8000, 0.05)
    monkeypatch.setattr(oracle, "next_fast_len", scipy.fft.next_fast_len)
    monkeypatch.setattr(oracle, "fft", scipy.fft.fft)
    ref = _invert(ce, 1.0, 8000, 0.05)
    assert lengths == [n_fft]
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestDensity:
    def test_symmetric_density_even(self, ce_sym):
        f = _inverted_table(ce_sym, 1.0, 400.0).f
        assert np.max(np.abs(f - f[::-1])) < 1e-10
        assert np.all(f >= 0.0)

    def test_mass_and_mean(self, ce_asym):
        tab = _inverted_table(ce_asym, 1.0, 400.0)
        mass = np.trapezoid(tab.f, tab.x) + tab.tail_lo + tab.tail_hi
        assert mass == pytest.approx(1.0, abs=1e-4)
        # windowed mean plus the analytic tail first moments
        # t * k * cut^(1-alpha)/(alpha-1) is zero (compensated jumps)
        cut = tab.x[-1]
        tail_mom = cut ** (1.0 - ALPHA) / (ALPHA - 1.0)
        mean = np.trapezoid(tab.x * tab.f, tab.x) \
            + (ce_asym.pair.k_plus - ce_asym.pair.k_minus) * tail_mom
        assert abs(mean) < 1e-3

    def test_semigroup_in_law(self, ce_sym):
        """Self-convolving the unit-time density reproduces the t=2
        density within 1e-3 in L1 (independent stationary increments)."""
        tab1 = _inverted_table(ce_sym, 1.0, 400.0)
        tab2 = _inverted_table(ce_sym, 2.0, 400.0)
        dx = tab1.x[1] - tab1.x[0]
        conv = fftconvolve(tab1.f, tab1.f, mode="same") * dx
        err = np.trapezoid(np.abs(conv - tab2.f), tab2.x)
        assert err < 1e-3

    def test_scaling_in_law(self, ce_sym):
        beta = 2.0
        s = beta ** (-1.0 / ALPHA)
        tab1 = _inverted_table(ce_sym, 1.0, 400.0)
        tab2 = _inverted_table(ce_sym, beta, 400.0)
        rescaled = s * np.interp(s * tab2.x, tab1.x, tab1.f)
        err = np.trapezoid(np.abs(rescaled - tab2.f), tab2.x)
        assert err < 1e-3

    def test_first_absolute_moment_stable(self, ce_sym):
        tab = _inverted_table(ce_sym, 1.0, 400.0)
        m = np.trapezoid(np.abs(tab.x) * tab.f, tab.x)
        half = len(tab.x) // 4
        m_inner = np.trapezoid(np.abs(tab.x[half:-half]) * tab.f[half:-half],
                               tab.x[half:-half])
        assert np.isfinite(m)
        # tail contribution decays like cut^(1-alpha): enlargement is stable
        assert abs(m - m_inner) < 0.1 * m


class TestExpectation:
    def test_constant(self, ce_sym):
        val = classical_expectation(lambda x: np.full_like(x, 4.0), ce_sym, 1.0)
        assert val == pytest.approx(4.0, abs=1e-4)

    def test_odd_clip_symmetric(self, ce_sym):
        val = classical_expectation(lambda x: np.clip(x, -1e6, 1e6),
                                    ce_sym, 1.0, 0.0)
        assert abs(val) < 1e-3

    def test_frozen_targets(self, ce_sym, ce_asym):
        # regression pins established by a three-resolution refinement study
        assert classical_expectation(gaussian, ce_sym, 1.0, 0.0) \
            == pytest.approx(0.2199641006028331, abs=1e-10)
        assert classical_expectation(gaussian, ce_asym, 1.0, 0.0) \
            == pytest.approx(0.16139612805074688, abs=1e-10)

    def test_rejects_nonpositive_time(self, ce_sym):
        with pytest.raises(ValueError):
            classical_expectation(gaussian, ce_sym, 0.0)

    def test_failed_mass_check_raises_on_every_call(self, ce_sym,
                                                    monkeypatch):
        """The mass check runs where the table is built."""
        monkeypatch.setattr(oracle, "MASS_TOL", -1.0)
        for _ in range(2):
            with pytest.raises(oracle.OracleError, match="density mass"):
                classical_expectation(gaussian, ce_sym, 1.0)
