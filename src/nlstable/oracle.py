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
beyond the window.  The frequency step is tied to the window spacing so
that the trapezoid sum at every window node is one FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import fft

from .kernels import KernelPair, NumericalError, next_fast_len

TABLE_DX = 0.05     # spacing of the inverted density table
TABLE_CUT = 400.0   # half-width of the table; tails beyond are analytic
MASS_TOL = 1e-4     # allowed deviation of the table's mass from 1


@lru_cache(maxsize=32)
def _tail_constants(alpha: float) -> tuple[float, float]:
    """The two universal integrals (J_r, J_i) for a given alpha, in
    closed form (both are finite for 1 < alpha < 2)."""
    g = math.gamma(-alpha)
    return (g * math.cos(0.5 * math.pi * alpha),
            -g * math.sin(0.5 * math.pi * alpha))


def _log_phi_grid(pair: KernelPair, alpha: float,
                  xi: np.ndarray) -> np.ndarray:
    """Log-characteristic function of the unit-time increment at xi."""
    j_r, j_i = _tail_constants(alpha)
    k_m, k_p = pair.k_minus, pair.k_plus
    mag = np.abs(xi) ** alpha
    return mag * ((k_m + k_p) * j_r + 1j * np.sign(xi) * (k_p - k_m) * j_i)


def _invert(pair: KernelPair, alpha: float, t_time: float, n: int,
            dx: float) -> np.ndarray:
    """Density of the time-t increment at x_k = k*dx, |k| <= n, by
    trapezoidal inversion of the characteristic function over xi > 0.

    With xi_j = j*d_xi and d_xi = 2 pi/(n_fft dx), the trapezoid sum
    (d_xi/pi) Re sum_j phi_j exp(-2 pi i j k/n_fft) is one FFT of phi
    folded modulo n_fft.  It aliases the density with period n_fft*dx,
    at least 8 times the window and 100 pi (so d_xi <= 0.02).
    """
    # c in |phi_t(xi)| = exp(-c |xi|^alpha), positive; |phi| < 1e-12
    # beyond xi_max, and c underflows to 0 for tiny t_time
    j_r, _ = _tail_constants(alpha)
    c = t_time * (-(pair.k_minus + pair.k_plus) * j_r)
    xi_max = (27.7 / c) ** (1.0 / alpha) if c > 0.0 else np.inf
    period = max(8.0 * max(n * dx, 1.0), 100.0 * np.pi)
    n_fft = next_fast_len(int(np.ceil(period / dx)))
    d_xi = 2.0 * np.pi / (n_fft * dx)
    n_xi = np.ceil(xi_max / d_xi) + 1.0  # a float, inf for tiny t_time
    try:
        xi = d_xi * np.arange(n_xi)
        phi = np.exp(t_time * _log_phi_grid(pair, alpha, xi))
        phi[[0, -1]] *= 0.5
        folded = np.pad(phi, (0, -len(phi) % n_fft)).reshape(-1, n_fft).sum(0)
    except (MemoryError, ValueError) as exc:  # ValueError: "too big"
        raise NumericalError(
            "t_max", f"the oracle's {n_xi:.3g} frequencies at t = "
            f"{t_time:.3g} cannot be allocated ({exc}); raise "
            "pide_solver.t_max") from exc
    return fft(folded)[np.arange(-n, n + 1)].real * d_xi / np.pi


@dataclass(frozen=True)
class _DensityTable:
    x: np.ndarray
    f: np.ndarray
    tail_lo: float  # mass below x[0]
    tail_hi: float  # mass above x[-1]


def _inverted_table(pair: KernelPair, alpha: float,
                    t_time: float) -> _DensityTable:
    n = int(np.ceil(TABLE_CUT / TABLE_DX))
    x = np.linspace(-n * TABLE_DX, n * TABLE_DX, 2 * n + 1)
    f = _invert(pair, alpha, t_time, n, TABLE_DX)
    clip_level = 1e-12 * max(1.0, float(np.max(f)))
    f = np.where(f < 0.0, np.where(f > -clip_level * 1e3, 0.0, f), f)
    if np.any(f < 0.0):
        raise NumericalError("alpha", "inversion produced negative density "
                             "beyond ripple threshold; widen the frequency "
                             "window")
    side = t_time / alpha * TABLE_CUT ** (-alpha)
    tail_lo, tail_hi = pair.k_minus * side, pair.k_plus * side
    mass = float(np.trapezoid(f, x)) + tail_lo + tail_hi
    if abs(mass - 1.0) > MASS_TOL:
        raise NumericalError(
            "alpha", f"density mass {mass:.8f} deviates from 1 by more than "
            f"{MASS_TOL}; use a wider spatial window")
    return _DensityTable(x=x, f=f, tail_lo=tail_lo, tail_hi=tail_hi)


def classical_expectation(psi, pair: KernelPair, alpha: float,
                          t_time: float) -> float:
    """E[psi(X_t)] for the classical single-pair process.

    psi must be bounded; the far tails contribute through the constant
    extension psi at the window edges times the analytic tail masses.
    """
    tab = _inverted_table(pair, alpha, t_time)
    vals = np.asarray(psi(tab.x), dtype=float)
    core = float(np.trapezoid(vals * tab.f, tab.x))
    return core + vals[0] * tab.tail_lo + vals[-1] * tab.tail_hi
