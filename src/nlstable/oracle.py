"""Classical ground truth for a single kernel pair.

For one intensity pair the process is a classical pure-jump process with
fully compensated jumps and zero drift.  Its log-characteristic function
follows from the two frequency-rescaled tail integrals

    J_r = integral over (0, inf) of (cos w - 1) w^(-alpha-1) dw
        = Gamma(-alpha) cos(pi alpha / 2),
    J_i = integral over (0, inf) of (sin w - w) w^(-alpha-1) dw
        = -Gamma(-alpha) sin(pi alpha / 2),

as log phi(xi) = |xi|^alpha [ (k- + k+) J_r + i sign(xi) (k+ - k-) J_i ].

Densities come from trapezoidal inversion of exp(t * log phi) on an
extended uniform spatial window, with analytic power-tail mass estimates
beyond the window.  The trapezoid sum is evaluated at every window node
at once as a chirp-z transform (three FFTs) rather than as a dense
cos/sin sum per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.fft import fft, ifft

from .kernels import KernelPair, next_fast_len

TABLE_DX = 0.05     # spacing of the inverted density table
MASS_TOL = 1e-4     # allowed deviation of the table's mass from 1

class OracleError(RuntimeError):
    """Raised when an inversion or mass check fails its tolerance."""


@lru_cache(maxsize=32)
def _tail_constants(alpha: float) -> tuple[float, float]:
    """The two universal integrals (J_r, J_i) for a given alpha, in
    closed form (both are finite for 1 < alpha < 2)."""
    g = math.gamma(-alpha)
    return (g * math.cos(0.5 * math.pi * alpha),
            -g * math.sin(0.5 * math.pi * alpha))


@dataclass(frozen=True)
class CharExponent:
    """Log-characteristic function of the unit-time increment."""

    pair: KernelPair
    alpha: float
    constants: tuple[float, float] = field(init=False)

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise ValueError("alpha must lie in (1, 2)")
        object.__setattr__(self, "constants", _tail_constants(self.alpha))

    @property
    def decay_rate(self) -> float:
        """c in |phi(xi)| = exp(-c |xi|^alpha); positive."""
        j_r, _ = self.constants
        return -(self.pair.k_minus + self.pair.k_plus) * j_r


def _log_phi_grid(ce: CharExponent, xi: np.ndarray) -> np.ndarray:
    j_r, j_i = ce.constants
    k_m, k_p = ce.pair.k_minus, ce.pair.k_plus
    mag = np.abs(xi) ** ce.alpha
    return mag * ((k_m + k_p) * j_r + 1j * np.sign(xi) * (k_p - k_m) * j_i)


def _invert(ce: CharExponent, t_time: float, n: int,
            dx: float) -> np.ndarray:
    """Density of the time-t increment at x_k = k*dx, |k| <= n, by
    trapezoidal inversion of the characteristic function over xi > 0.

    The trapezoid sum f(x_k) = (d_xi/pi) Re sum_j phi_j exp(-i xi_j x_k)
    has xi_j x_k = theta*j*k with theta = d_xi*dx, and
    jk = (j^2 + k^2 - (k-j)^2)/2 turns it into a chirp-z transform: with
    w_m = exp(i theta m^2/2), f(x_k) = (d_xi/pi) Re conj(w_k)
    sum_j [phi_j conj(w_j)] w_(k-j), one linear convolution evaluated
    with three FFTs.
    """
    c = t_time * ce.decay_rate
    xi_max = (27.7 / c) ** (1.0 / ce.alpha)  # |phi| < 1e-12 beyond
    span = max(n * dx, 1.0)
    d_xi = min(0.02, np.pi / (4.0 * span))
    n_xi = int(np.ceil(xi_max / d_xi)) + 1
    xi = np.linspace(0.0, xi_max, n_xi)
    phi = np.exp(t_time * _log_phi_grid(ce, xi))
    phi[0] *= 0.5
    phi[-1] *= 0.5
    step = xi[1] - xi[0]
    # w_m over m = -(n + n_xi - 1) .. n, the range of k - j; w is even,
    # so w_j is read at m = -j and w_k at m = k
    m = np.arange(-(n + n_xi - 1), n + 1)
    w = np.exp(0.5j * step * dx * (m * m))
    n_fft = next_fast_len(len(w), real=False)
    a = phi * w[n:n + n_xi][::-1].conj()
    conv = ifft(fft(a, n_fft) * fft(w, n_fft))[n_xi - 1:n_xi + 2 * n]
    return (conv * w[n_xi - 1:].conj()).real * step / np.pi


@dataclass(frozen=True)
class _DensityTable:
    x: np.ndarray
    f: np.ndarray
    tail_lo: float  # mass below x[0]
    tail_hi: float  # mass above x[-1]


def _density_table(ce: CharExponent, t_time: float,
                   x_span: float) -> _DensityTable:
    return _inverted_table(ce, t_time, max(8.0 * x_span, 400.0))


@lru_cache(maxsize=32)
def _inverted_table(ce: CharExponent, t_time: float,
                    cut: float) -> _DensityTable:
    n = int(np.ceil(cut / TABLE_DX))
    x = np.linspace(-n * TABLE_DX, n * TABLE_DX, 2 * n + 1)
    f = _invert(ce, t_time, n, TABLE_DX)
    clip_level = 1e-12 * max(1.0, float(np.max(f)))
    f = np.where(f < 0.0, np.where(f > -clip_level * 1e3, 0.0, f), f)
    if np.any(f < 0.0):
        raise OracleError("inversion produced negative density beyond ripple "
                          "threshold; widen the frequency window")
    side = t_time / ce.alpha * cut ** (-ce.alpha)
    return _DensityTable(x=x, f=f, tail_lo=ce.pair.k_minus * side,
                         tail_hi=ce.pair.k_plus * side)


def _mass_check(tab: _DensityTable) -> None:
    mass = float(np.trapezoid(tab.f, tab.x)) + tab.tail_lo + tab.tail_hi
    if abs(mass - 1.0) > MASS_TOL:
        raise OracleError(
            f"density mass {mass:.8f} deviates from 1 by more than "
            f"{MASS_TOL}; use a wider spatial window")


def classical_expectation(psi, ce: CharExponent, t_time: float,
                          x_shift: float = 0.0) -> float:
    """E[psi(x_shift + X_t)] for the classical single-pair process.

    psi must be bounded; the far tails contribute through the constant
    extension psi at the window edges times the analytic tail masses.
    """
    if t_time <= 0.0:
        raise ValueError("t_time must be positive")
    tab = _density_table(ce, t_time, max(abs(x_shift) + 1.0, 40.0))
    _mass_check(tab)
    vals = np.asarray(psi(x_shift + tab.x), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("psi produced non-finite values")
    core = float(np.trapezoid(vals * tab.f, tab.x))
    return core + vals[0] * tab.tail_lo + vals[-1] * tab.tail_hi
