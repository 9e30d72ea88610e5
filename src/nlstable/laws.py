"""Mean-zero laws with exact Pareto tails and a smooth interior patch.

Each law has density b^alpha * k_minus * |z|^(-alpha-1) on z <= -z0 and
b^alpha * k_plus * z^(-alpha-1) on z >= z0, so the tail-deviation
functions beta1, beta2 vanish identically beyond z0.  The interior on
(-z0, z0) is a cubic matched in value and slope to the tails at both
junctions, plus two compactly supported bump terms: an even one carrying
the mass that normalization requires, and an odd one whose amplitude
(the tilt) is solved for so the mean is exactly zero.

``law_nodes`` is the one quadrature rule of a law: Gauss-Legendre
against the interior polynomial and ``kernels.tail_nodes`` beyond z0.
The dynamic-program stages in ``engine`` and the law side of the
attraction residual in ``checker`` both use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial

from .kernels import ConfigError, KernelPair, tail_nodes

_TAIL_FAR = 1e8     # outer edge of the explicit tail quadrature bins
_TAIL_BINS = 2048
_LOG_NORMAL = -np.log(np.finfo(float).tiny)  # |log| of the normal floats


def _tail_scale(law: "AttractedLaw") -> float:
    return law.b_scale ** law.alpha


@dataclass(frozen=True)
class AttractedLaw:
    """One member law: Pareto tails beyond z0, polynomial interior."""

    pair: KernelPair
    alpha: float
    b_scale: float
    z0: float
    cubic: tuple[float, float, float, float]
    bump: float
    tilt: float
    _poly: Polynomial = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        z0 = self.z0
        even = Polynomial([1.0, 0.0, -2.0 / z0**2, 0.0, 1.0 / z0**4])
        odd = Polynomial([0.0, 1.0 / z0, 0.0, -2.0 / z0**3, 0.0,
                          1.0 / z0**5])
        p = Polynomial(list(self.cubic)) + self.bump * even + self.tilt * odd
        object.__setattr__(self, "_poly", p)

    def density(self, z):
        """Probability density, vectorized; continuous and C1 at +-z0."""
        z = np.asarray(z, dtype=float)
        c = _tail_scale(self)
        out = np.where(
            np.abs(z) < self.z0,
            self._poly(np.clip(z, -self.z0, self.z0)),
            np.where(z < 0.0, self.pair.k_minus, self.pair.k_plus)
            * c * np.abs(np.where(z == 0.0, 1.0, z)) ** (-self.alpha - 1.0),
        )
        return out if out.ndim else float(out)

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        c = _tail_scale(self)
        a = self.alpha
        lo_mass = c * self.pair.k_minus / (a * self.z0**a)
        anti = self._poly.integ()
        interior = lo_mass + anti(np.clip(z, -self.z0, self.z0)) \
            - anti(-self.z0)
        zs = np.abs(np.where(z == 0.0, 1.0, z))
        left = c * self.pair.k_minus / (a * zs ** a)
        right = 1.0 - c * self.pair.k_plus / (a * zs ** a)
        out = np.where(z <= -self.z0, left,
                       np.where(z >= self.z0, right, interior))
        return out if out.ndim else float(out)


def build_law(pair: KernelPair, alpha: float, b_scale: float = 1.0,
              z0: float = 2.0) -> AttractedLaw:
    """Construct and calibrate a law for one kernel pair.

    The cubic is pinned by the four C1 junction conditions; the even
    bump amplitude restores unit mass, and the mean is affine in the
    tilt, so the tilt that zeroes it is one division.
    """
    if not z0 < _TAIL_FAR:
        raise ConfigError("z0", f"{z0:g} is not below {_TAIL_FAR:g}, where "
                          "the tail quadrature ends")
    log_c = alpha * np.log(b_scale)  # c = b^alpha scales the tails
    if not abs(log_c) < _LOG_NORMAL:  # and n B_n^alpha = 1/c
        raise ConfigError("b_scale", f"b_scale^alpha = exp({log_c:.4g}) or "
                          "its reciprocal is not a normal float")
    c = b_scale ** alpha
    k_m, k_p = pair.k_minus, pair.k_plus
    tail_mass = c * (k_m + k_p) / (alpha * z0 ** alpha)
    if tail_mass >= 1.0:
        raise ConfigError(
            "z0", f"tail mass {tail_mass:.4f} >= 1 leaves no interior mass; "
            "increase z0 or decrease b_scale")
    tail_moment = c * (k_p - k_m) * z0 ** (1.0 - alpha) / (alpha - 1.0)
    if abs(tail_moment) >= z0 * (1.0 - tail_mass):
        raise ConfigError(
            "z0", f"tail first moment {tail_moment:.4f} exceeds what any "
            f"interior density on (-{z0}, {z0}) can cancel; increase z0")

    # value and slope of the tail density at the junctions
    f_m = c * k_m * z0 ** (-alpha - 1.0)
    f_p = c * k_p * z0 ** (-alpha - 1.0)
    g_m = c * k_m * (alpha + 1.0) * z0 ** (-alpha - 2.0)
    g_p = -c * k_p * (alpha + 1.0) * z0 ** (-alpha - 2.0)
    mat = np.array([
        [1.0, -z0, z0**2, -(z0**3)],
        [1.0, z0, z0**2, z0**3],
        [0.0, 1.0, -2.0 * z0, 3.0 * z0**2],
        [0.0, 1.0, 2.0 * z0, 3.0 * z0**2],
    ])
    c0, c1, c2, c3 = np.linalg.solve(mat, [f_m, f_p, g_m, g_p])

    cubic_mass = 2.0 * c0 * z0 + (2.0 / 3.0) * c2 * z0**3
    bump = (1.0 - tail_mass - cubic_mass) / (16.0 * z0 / 15.0)

    cubic_moment = (2.0 / 3.0) * c1 * z0**3 + (2.0 / 5.0) * c3 * z0**5
    tilt = -(cubic_moment + tail_moment) / (16.0 * z0**2 / 105.0)

    law = AttractedLaw(pair, alpha, b_scale, z0,
                       (float(c0), float(c1), float(c2), float(c3)),
                       float(bump), float(tilt))
    zz = np.linspace(-z0, z0, 4001)
    low = float(np.min(law._poly(zz)))
    if low < -1e-12:
        raise ConfigError(
            "z0", f"interior density dips to {low:.3e} at "
            f"z={zz[np.argmin(law._poly(zz))]:.3f}; increase z0")
    return law


def tail_deviation(law: AttractedLaw, z):
    """Tail-deviation functions, vectorized and sign-aware:

    beta1(z) = F(z)|z|^alpha - b^alpha k_minus/alpha for z < 0 and
    beta2(z) = (1 - F(z)) z^alpha - b^alpha k_plus/alpha for z > 0.
    Both are set to exactly 0 for |z| >= z0, where they vanish up to
    rounding.  Undefined at z = 0.
    """
    z = np.asarray(z, dtype=float)
    c = _tail_scale(law)
    a = law.alpha
    cdf, za = law.cdf(z), np.abs(z) ** a
    out = np.where(z < 0.0, cdf * za - c * law.pair.k_minus / a,
                   (1.0 - cdf) * za - c * law.pair.k_plus / a)
    return np.where(np.abs(z) >= law.z0, 0.0, out)


def beta2_prime(law: AttractedLaw, u):
    """Derivative of beta2 for u > 0, vectorized; 0 for u >= z0."""
    u = np.asarray(u, dtype=float)
    a = law.alpha
    out = -law.density(u) * u ** a + a * (1.0 - law.cdf(u)) * u ** (a - 1.0)
    return np.where(u >= law.z0, 0.0, out)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)


def law_nodes(law: AttractedLaw) -> tuple[np.ndarray, np.ndarray]:
    """Probability quadrature (nodes, weights) for one law; the weights
    sum to 1 up to quadrature rounding.

    Interior: Gauss-Legendre against the exact polynomial density
    (exact for polynomial phi up to high degree).  Tails: ``tail_nodes``
    beyond z0, log-spaced bins at their density-weighted centroids plus
    one node for the remainder beyond the outermost bin, which makes the
    rule exact for affine phi, including the analytic tail first moment.
    """
    z0, a = law.z0, law.alpha
    gl = 0.5 * z0 * (_GL_NODES + 1.0)  # (0, z0); mirror for the left
    gw = 0.5 * z0 * _GL_WEIGHTS
    m, zc = tail_nodes(z0, _TAIL_FAR, _TAIL_BINS, a)
    c = _tail_scale(law)
    nodes = np.concatenate([gl, -gl, zc, -zc])
    weights = np.concatenate([
        gw * law._poly(gl), gw * law._poly(-gl),
        c * law.pair.k_plus * m, c * law.pair.k_minus * m,
    ])
    return nodes, weights

