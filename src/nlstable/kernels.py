"""Two-sided power-law jump kernels and the nonlocal generator.

The generator acting on a function u sampled on a uniform grid is

    G_k u(x) = integral of [u(x+z) - u(x) - u'(x) z] * k(z) |z|^(-alpha-1) dz

with separate intensities k_minus on z < 0 and k_plus on z > 0, and the
extremal operator is the max of G_k over a finite family of intensity
pairs.  The singular integral is split into two ranges:

* |z| < r_cut: second-order Taylor replacement using a centered second
  difference and the analytic small-jump second moment;
* |z| >= r_cut: ``tail_nodes``, bin-centroid quadrature on log-spaced
  bins up to z_max (exact mass and first moment per bin) plus one node
  at the centroid of the remainder, z_max alpha/(alpha-1), with linear
  interpolation of u and constant extension outside the grid.  With the
  default z_max of four grid widths the far node lies past the grid,
  so it reads the edge values u(x_min) and u(x_max).

Every jump quadrature in the package goes through the helpers here.
``tail_nodes`` is the one-sided tail rule (``band_bins`` plus the far
node); ``interp_taps`` turns quadrature nodes at off-grid shifts into
linear-interpolation taps, optionally with a second-order correction of
the interpolation bias for nodes within a given reach; ``jump_kernel``
builds the compensated-increment operator
sum_i w_i [u(x+s_i) - u(x) - u'(x) s_i] plus centred second and third
derivative terms, for the generator and for both sides of the
attraction residual in ``checker``.  Its first-moment compensator is a
centred difference when that keeps every off-diagonal weight
nonnegative and upwind otherwise, so the generator is always monotone.

Every translation-invariant operator (the generator, the
dynamic-program stages in ``engine`` and the attraction residual) is a
``ShiftKernel``: taps over offsets -(nx-1)..(nx-1) plus coefficients on
the two edge values, with the rFFT of the reversed taps cached at
length >= 2nx - 1.  The row is not padded: the taps that reach past
either end of the grid are summed once per node into two vectors that
multiply the edge values.  A family is applied by ``apply_max``: one
forward FFT of the row and one inverse FFT per member, in one
``max_work`` block that every member reuses and that the dynamic
program passes to each of its stages.  ``apply_max`` reads only a
kernel's ``spectrum``, ``lo``, ``hi``, ``half`` and ``n_fft``, so a
dynamic-program stage kernel keeps no taps once ``engine`` has checked
them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.fft import irfft, rfft

NQ_BAND = 128   # the generator's log-spaced bins per side on [r_cut, z_max]


class _Failure(Exception):
    """``field`` is the config's JSON key of the knob to turn (``config``
    for the file as a whole); the CLI tags the message with it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class ConfigError(_Failure, ValueError):
    """A config the lab cannot run (exit code 2)."""


class NumericalError(_Failure, RuntimeError):
    """A run that cannot give a number it can trust (exit code 3)."""


@dataclass(frozen=True)
class KernelPair:
    """One intensity pair (k_minus, k_plus) of the jump kernel."""

    k_minus: float
    k_plus: float


@dataclass(frozen=True)
class UncertaintySet:
    """Finite family of kernel pairs with shared stability exponent.

    ``lam`` and ``Lam`` are the ellipticity bounds: every intensity of
    every pair must lie strictly between them.  These are the only
    checks of alpha and the intensities; the config check runs them by
    building the set.
    """

    alpha: float
    pairs: tuple[KernelPair, ...]
    lam: float
    Lam: float

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise ConfigError("alpha", f"{self.alpha} outside (1, 2)")
        if not (0.0 < self.lam < self.Lam):
            raise ConfigError("lam", "need 0 < lambda < Lambda_cap")
        if not self.pairs:
            raise ConfigError("pairs", "empty pair list")
        for p in self.pairs:
            if not (self.lam < p.k_minus < self.Lam
                    and self.lam < p.k_plus < self.Lam):
                raise ConfigError("pairs", f"pair ({p.k_minus}, {p.k_plus}) "
                                  f"outside ({self.lam}, {self.Lam})")


@dataclass(frozen=True)
class Grid:
    """Uniform space-time lattice with quadrature split parameters.

    ``r_cut`` is the small-jump radius below which the Taylor replacement
    is used; ``z_max`` the radius beyond which one far node carries the
    tail, with NQ_BAND log-spaced quadrature bins per side on
    [r_cut, z_max] between them.
    """

    x_min: float
    x_max: float
    nx: int
    t_max: float
    nt: int
    r_cut: float
    z_max: float

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dt(self) -> float:
        return self.t_max / self.nt

    @cached_property
    def x(self) -> np.ndarray:
        x = np.linspace(self.x_min, self.x_max, self.nx)
        x.flags.writeable = False
        return x


def resolve_cutoffs(x_min: float, x_max: float, nx: int, r_cut: float | None,
                    z_max: float | None) -> tuple[float, float]:
    """(r_cut, z_max) of the nx-node grid on [x_min, x_max], each given
    or, if None, its default: one cell, and four grid widths."""
    if r_cut is None:
        r_cut = (x_max - x_min) / (nx - 1)
    if z_max is None:
        z_max = 4.0 * (x_max - x_min)
    return r_cut, z_max


@dataclass
class Surface:
    """Solution field u(t_i, x_j) on a grid; row i is time i*dt.

    ``rows``, strictly increasing row indices, names the stored rows in
    order: row ``rows[k]`` is ``values[k]``.  It checks nothing: every
    surface is the march's or a reversed view of one.
    """

    grid: Grid
    values: np.ndarray
    rows: Sequence[int]

    def row(self, i: int) -> np.ndarray:
        """Row i, time i*dt; a row that is not stored raises."""
        if i not in self.rows:
            raise IndexError(f"row {i} of the surface is not stored")
        return self.values[self.rows.index(i)]

    @property
    def times(self) -> np.ndarray:
        return self.grid.dt * np.array(self.rows)


def middle_half(nx: int) -> slice:
    """Nodes nx//4 .. 3nx//4 of an nx-node row: the window every
    diagnostic takes its maximum over, clear of the pinned edges."""
    return slice(nx // 4, 3 * nx // 4 + 1)


def drift_b(k: KernelPair, alpha: float) -> float:
    """First moment of the kernel over |z| >= 1, (k_minus - k_plus)/(alpha - 1)."""
    return (k.k_minus - k.k_plus) / (alpha - 1.0)


def small_jump_second_moment(k: KernelPair, alpha: float, r: float) -> float:
    """Second moment of the kernel over |z| < r, analytic."""
    return (k.k_minus + k.k_plus) * r ** (2.0 - alpha) / (2.0 - alpha)


def band_bins(r_lo: float, z_hi: float, n_bins: int, alpha: float):
    """Log-spaced bins on [r_lo, z_hi] with exact unit-intensity mass and centroid.

    Returns (weights, centroids) for intensity 1; weights scale linearly
    with the kernel intensity.  The centroid is the first-moment center,
    so the rule integrates affine functions of z exactly on each bin.
    """
    edges = np.geomspace(r_lo, z_hi, n_bins + 1)
    lo, hi = edges[:-1], edges[1:]
    mass = (lo ** (-alpha) - hi ** (-alpha)) / alpha
    mom1 = (lo ** (1.0 - alpha) - hi ** (1.0 - alpha)) / (alpha - 1.0)
    return mass, mom1 / mass


def tail_nodes(r_lo: float, z_far: float, n_bins: int, alpha: float):
    """Unit-intensity quadrature for the one-sided tail |z| >= r_lo.

    ``band_bins`` on [r_lo, z_far] plus one node at the centroid of the
    remainder beyond z_far, so affine functions of z are integrated
    exactly over the whole tail.  Returns (weights, centroids).
    """
    masses, cents = band_bins(r_lo, z_far, n_bins, alpha)
    far_mass = z_far ** (-alpha) / alpha
    far_cent = (z_far ** (1.0 - alpha) / (alpha - 1.0)) / far_mass
    return np.append(masses, far_mass), np.append(cents, far_cent)


def interp_taps(shifts: np.ndarray, weights: np.ndarray, nx: int,
                reach: float = 0.0) -> np.ndarray:
    """Taps of ``sum_i weights[i] * u(x + shifts[i] dx)`` on an nx-node
    row, with u linearly interpolated between nodes.

    The taps cover offsets -nx..nx+1 with the centre at index nx, the
    layout ``shift_kernel`` takes.  Shifts are clipped to +-nx first:
    beyond that every node sees only the edge value, which
    ``shift_kernel`` collects exactly in its edge coefficients.

    Linear interpolation at a fraction theta past node j overestimates
    u by theta(1-theta) u''/2 (in cells).  Nodes with |shift| < ``reach``
    cells subtract that bias, with u'' the mean of the second
    differences at j and j+1: weight w adds c = w theta(1-theta)/4 times
    the taps (-1, +1, +1, -1) at j-1..j+2.  Keep the reach where nodes
    are denser than the grid; an isolated node would leave its outer
    taps negative.
    """
    s = np.clip(shifts, -nx, nx)
    base = np.floor(s)
    frac = s - base
    # past 2**53 the float -nx can round below the integer; the clip is
    # a no-op at every nx whose taps can be allocated
    idx = np.clip(base.astype(np.int64) + nx, 0, 2 * nx)
    size = 2 * nx + 2
    taps = (np.bincount(idx, weights * (1.0 - frac), size)
            + np.bincount(idx + 1, weights * frac, size))
    if reach > 0.0:
        near = np.abs(shifts) < reach
        j, f = idx[near], frac[near]
        c = weights[near] * f * (1.0 - f) / 4.0
        # offsets below -nx see u[0] like offset -nx does, so clipping
        # j-1 at index 0 changes no value; j+2 passes the end only for a
        # shift of exactly +nx, where c = 0
        taps -= np.bincount(np.maximum(j - 1, 0), c, size)
        taps += np.bincount(j, c, size)
        taps += np.bincount(j + 1, c, size)
        taps -= np.bincount(np.minimum(j + 2, size - 1), c, size)
    return taps


@lru_cache(maxsize=None)
def _smooth_lengths(bits: int) -> tuple[int, ...]:
    """Sorted products of the fast radices 2, 3, 5 up to 2**bits."""
    lengths = [1]
    for p in (2, 3, 5):
        lengths = [m * p**e for m in lengths for e in range(bits + 1)
                   if m * p**e <= 1 << bits]
    return tuple(sorted(lengths))


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth length >= n (n >= 1): pocketfft, behind
    ``numpy.fft``, runs its fast radices at these lengths."""
    lengths = _smooth_lengths(n.bit_length())
    return lengths[bisect_left(lengths, n)]


@dataclass(frozen=True, eq=False)
class ShiftKernel:
    """Translation-invariant operator on an nx-node row under constant
    extension beyond the grid:

        (K u)_j = sum_m taps[m] u(x_j + (m - half) dx)
                  + lo[-1] * u[0] + hi[0] * u[-1],

    with ``half = nx - 1``.  ``lo[-1]`` and ``hi[0]`` are the folded
    taps past -(nx-1) and nx-1, which every node reads as u[0] and
    u[-1].  Node j also reads u[0] for every offset below -j and u[-1]
    for every offset above nx-1-j; ``lo[j]`` and ``hi[j]`` are those tap
    sums plus ``lo[-1]`` and ``hi[0]``.  The remaining taps form a
    linear convolution of the unpadded row, and ``spectrum`` is the rFFT
    of the reversed taps at length ``n_fft`` >= 2nx - 1, the shortest
    length at which that convolution is alias-free on the nodes.

    ``taps`` is None in a dynamic-program stage kernel: ``apply_max``
    never reads them, and ``engine`` drops them after its checks.  A
    generator stencil keeps them for its stability constant.
    """

    taps: np.ndarray | None
    half: int
    n_fft: int
    spectrum: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def shift_kernel(taps: np.ndarray) -> ShiftKernel:
    """Kernel of taps in the ``interp_taps`` layout: offsets -nx..nx+1
    on an nx-node grid, so nx = len(taps)/2 - 1.

    The taps at offsets -nx, nx and nx+1 reach past the grid from every
    node, so they fold exactly into ``lo[-1]`` and ``hi[0]``.
    """
    nx = len(taps) // 2 - 1
    half = nx - 1
    core = taps[1: 2 * nx].copy()
    # both cumulative sums start at the outermost tap
    lo = np.full(nx, taps[0])
    lo[:half] += np.cumsum(core[:half])[::-1]
    hi = np.full(nx, np.sum(taps[2 * nx:]))
    hi[1:] += np.cumsum(core[:half:-1])
    n_fft = next_fast_len(2 * half + 1)
    return ShiftKernel(core, half, n_fft, rfft(core[::-1], n_fft), lo, hi)


def jump_kernel(shifts: np.ndarray, weights: np.ndarray, d2: float,
                d3: float, grid: Grid) -> ShiftKernel:
    """Kernel of sum_i w_i [u(x+s_i) - u(x) - u'(x) s_i] + d2 u''(x)
    + d3 u'''(x), with u linearly interpolated between nodes and held
    constant beyond the grid.

    u'' and u''' are centred differences.  The compensator
    -u'(x) sum_i w_i s_i is a centred difference when both neighbour
    taps stay nonnegative with it, and upwind otherwise, so it never
    makes an off-centre tap negative.
    """
    c, dx = grid.nx, grid.dx  # c: centre index of interp_taps
    taps = interp_taps(shifts / dx, weights, grid.nx)
    e2, e3 = d2 / dx**2, d3 / (2.0 * dx**3)
    taps[c - 2: c + 3] += [-e3, 2.0 * e3 + e2, -2.0 * e2, e2 - 2.0 * e3, e3]
    taps[c] -= np.sum(weights)
    m1 = float(np.dot(weights, shifts))
    if min(taps[c - 1], taps[c + 1]) >= abs(m1) / (2.0 * dx):
        taps[c - 1] += m1 / (2.0 * dx)
        taps[c + 1] -= m1 / (2.0 * dx)
    elif m1 > 0.0:
        taps[c - 1] += m1 / dx
        taps[c] -= m1 / dx
    else:
        taps[c + 1] -= m1 / dx
        taps[c] += m1 / dx
    return shift_kernel(taps)


def max_work(kernels: Sequence[ShiftKernel]) -> np.ndarray:
    """A block ``apply_max`` can work in for ``kernels``: room for the
    row's transform, the product and the inverse transform."""
    n_fft = kernels[0].n_fft
    return np.empty(4 * (n_fft // 2 + 1) + n_fft)


def apply_max(kernels: Sequence[ShiftKernel], u: np.ndarray,
              work: np.ndarray | None = None) -> np.ndarray:
    """Nodewise max over ``kernels`` (all built for len(u) nodes) of K u.

    Every member works in one block, ``work`` or a new ``max_work``.
    A caller that applies one family many times, as the dynamic
    program's stages do, passes the same block to every call: buffers
    of DP size allocated per call can go back to the system and be
    faulted in afresh at every stage.
    """
    half, n_fft = kernels[0].half, kernels[0].n_fft
    m = n_fft // 2 + 1
    if work is None:
        work = max_work(kernels)
    u_hat = rfft(u, n_fft, out=work[:2 * m].view(np.complex128))
    prod = work[2 * m: 4 * m].view(np.complex128)
    full = work[4 * m:]
    # the inverse transform has consumed the product by the time the
    # edge terms are formed
    edge = work[2 * m: 2 * m + half + 1]
    out = None
    for k in kernels:
        np.multiply(u_hat, k.spectrum, out=prod)
        v = irfft(prod, n_fft, out=full)[half: 2 * half + 1]
        v += np.multiply(k.lo, u[0], out=edge)
        v += np.multiply(k.hi, u[-1], out=edge)
        out = v.copy() if out is None else np.maximum(out, v, out=out)
    return out


@lru_cache(maxsize=256)
def generator_stencil(grid: Grid, k: KernelPair, alpha: float) -> ShiftKernel:
    """Monotone generator kernel of one pair on a grid.

    ``tail_nodes`` on |z| >= r_cut, scaled by k_plus and k_minus, plus
    the Taylor term sigma2/2 u'' for |z| < r_cut.  A far node past the
    grid puts its mass on the edge values.  The negative of the centre
    tap is the diagonal magnitude used by the stability bound.
    """
    w, z = tail_nodes(grid.r_cut, grid.z_max, NQ_BAND, alpha)
    sigma2 = small_jump_second_moment(k, alpha, grid.r_cut)
    try:
        kern = jump_kernel(np.concatenate([z, -z]),
                           np.concatenate([k.k_plus * w, k.k_minus * w]),
                           0.5 * sigma2, 0.0, grid)
    except (MemoryError, ValueError) as exc:  # ValueError: "too big"
        raise NumericalError(
            "nx", f"the generator stencil of {2 * grid.nx + 2} taps cannot "
            f"be allocated ({exc}); lower pide_solver.nx") from exc
    off_centre = np.delete(kern.taps, kern.half)
    if np.any(off_centre < 0.0) or min(kern.lo[-1], kern.hi[0]) < 0.0:
        raise NumericalError(
            "r_cut",
            f"generator for pair {k} at alpha={alpha} on grid nx={grid.nx}, "
            f"dx={grid.dx:.6g}, r_cut={grid.r_cut:.6g} has a negative "
            f"off-centre weight, so the explicit scheme would not be "
            f"monotone")
    return kern


def apply_sup_generator_row(u_row: np.ndarray, grid: Grid,
                            uset: UncertaintySet) -> np.ndarray:
    """Nodewise max of the generator over the uncertainty set, at every
    node of a row (boundary nodes included, using constant extension;
    callers supply their own boundary policy)."""
    kernels = [generator_stencil(grid, p, uset.alpha) for p in uset.pairs]
    # G annihilates constants; shifting by u[0] keeps them exactly fixed
    # under FFT roundoff.
    return apply_max(kernels, u_row - u_row[0])


def scheme_stability_constant(grid: Grid, uset: UncertaintySet) -> float:
    """Largest diagonal magnitude of the generator over the set.

    Explicit Euler with dt * constant <= 1 keeps the update monotone.
    """
    kernels = (generator_stencil(grid, p, uset.alpha) for p in uset.pairs)
    return max(float(-k.taps[k.half]) for k in kernels)
