"""Sublinear expectation over a finite family of laws and the exact
nested-supremum dynamic program for normalized i.i.d. sums.

Nested independence means later summands are integrated out first and a
supremum over member laws is taken at every stage:

    w_0 = psi,   w_{m+1}(x) = max_laws  int w_m(x + B_n y) dF_W(y),

so w_n(0) is the sublinear expectation of psi(B_n S_n).  Each stage is a
translation-invariant positive kernel on a uniform grid: one
``ShiftKernel`` per law, built once per n, holds the aggregated
interpolation taps and the mass that lands beyond the grid as edge
coefficients.  A stage is one forward FFT of the row and one inverse
FFT per law.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .kernels import (Grid, ShiftKernel, UncertaintySet, apply_max, band_bins,
                      shift_kernel)
from .laws import AttractedLaw, law_expectation, _GL_NODES, _GL_WEIGHTS
from .laws import _TAIL_BINS, _TAIL_FAR

ESCAPE_TOL = 1e-4


class NarrowGridError(RuntimeError):
    """Raised when too much quadrature mass falls off the grid."""


@dataclass(frozen=True)
class LawFamily:
    """One attracted law per kernel pair of the uncertainty set."""

    laws: tuple[AttractedLaw, ...]
    source_set: UncertaintySet

    def __post_init__(self):
        if len(self.laws) != len(self.source_set.pairs):
            raise ValueError("need exactly one law per kernel pair")
        for law, pair in zip(self.laws, self.source_set.pairs):
            if law.pair != pair:
                raise ValueError(f"law pair {law.pair} does not match "
                                 f"set pair {pair}")
            if law.alpha != self.source_set.alpha:
                raise ValueError("laws must share the set's alpha")
        ref = self.laws[0]
        for law in self.laws[1:]:
            if law.b_scale != ref.b_scale or law.z0 != ref.z0:
                raise ValueError("laws must share b_scale and z0")

    @property
    def b_scale(self) -> float:
        return self.laws[0].b_scale


@dataclass(frozen=True)
class NormalizedSumSpec:
    """Normalization B_n = 1/(b n^(1/alpha)) for an n-term sum."""

    n: int
    b_scale: float
    alpha: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.b_scale <= 0.0:
            raise ValueError("b_scale must be positive")

    @property
    def B_n(self) -> float:
        return 1.0 / (self.b_scale * self.n ** (1.0 / self.alpha))


def sup_expectation(phi, family: LawFamily) -> float:
    """max over member laws of the classical expectation of phi."""
    return max(law_expectation(phi, law) for law in family.laws)


def _law_nodes(law: AttractedLaw) -> tuple[np.ndarray, np.ndarray]:
    """Probability quadrature (nodes, weights) for one law; weights sum
    to 1 up to quadrature rounding.  Matches law_expectation's rule."""
    z0, a = law.z0, law.alpha
    gl = 0.5 * z0 * (_GL_NODES + 1.0)
    gw = 0.5 * z0 * _GL_WEIGHTS
    masses, cents = band_bins(z0, _TAIL_FAR, _TAIL_BINS, a)
    far_mass = _TAIL_FAR ** (-a) / a
    far_cent = (_TAIL_FAR ** (1.0 - a) / (a - 1.0)) / far_mass
    m = np.concatenate([masses, [far_mass]])
    zc = np.concatenate([cents, [far_cent]])
    c = law.b_scale ** a
    nodes = np.concatenate([gl, -gl, zc, -zc])
    weights = np.concatenate([
        gw * law._poly(gl), gw * law._poly(-gl),
        c * law.pair.k_plus * m, c * law.pair.k_minus * m,
    ])
    return nodes, weights


def _stage_kernel(law: AttractedLaw, b_n: float,
                  grid: Grid) -> tuple[ShiftKernel, float]:
    """Stage kernel of one law, and the worst-case off-grid mass seen
    from the middle half of the grid."""
    nodes, weights = _law_nodes(law)
    shifts = b_n * nodes / grid.dx
    half = grid.nx - 1
    lo = shifts < -half
    hi = shifts > half
    keep = ~(lo | hi)
    s, wgt = shifts[keep], weights[keep]
    base = np.floor(s).astype(int)
    frac = s - base
    taps = np.zeros(2 * half + 2)
    np.add.at(taps, base + half, wgt * (1.0 - frac))
    np.add.at(taps, base + half + 1, wgt * frac)
    kern = shift_kernel(taps, half, grid.nx, float(np.sum(weights[lo])),
                        float(np.sum(weights[hi])))
    # off-grid mass seen from the middle-half edges (worst case there)
    span = 0.5 * (grid.x_max - grid.x_min)
    reach_r = (0.5 * span) / b_n   # distance from mid-half edge to x_max
    reach_l = (1.5 * span) / b_n
    esc = 0.0
    for x_gap_r, x_gap_l in ((reach_r, reach_l), (reach_l, reach_r)):
        esc = max(esc, float(np.sum(weights[(nodes > x_gap_r)
                                            | (nodes < -x_gap_l)])))
    return kern, esc


def nested_sum_expectation(psi, family: LawFamily, spec: NormalizedSumSpec,
                           grid: Grid, return_escape: bool = False):
    """Sublinear expectation of psi(B_n S_n) by backward value iteration.

    Raises NarrowGridError when the accumulated worst-case quadrature
    mass escaping the grid (watched from the middle half) exceeds
    ESCAPE_TOL, since then the constant edge extension contaminates the
    returned value at a comparable level.
    """
    w = np.asarray(psi(grid.x), dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("psi produced non-finite samples")
    b_n = spec.B_n
    built = [_stage_kernel(law, b_n, grid) for law in family.laws]
    kernels = [kern for kern, _ in built]
    escaped = spec.n * max(esc for _, esc in built)
    if escaped > ESCAPE_TOL:
        need = grid.x_max * (escaped / ESCAPE_TOL) ** (1.0 / spec.alpha)
        raise NarrowGridError(
            f"accumulated off-grid quadrature mass {escaped:.2e} exceeds "
            f"{ESCAPE_TOL:.0e}; widen the grid to roughly +-{need:.0f}")
    for _ in range(spec.n):
        w = apply_max(kernels, w)
    mid = grid.nx // 2
    value = float(np.interp(0.0, grid.x[mid - 1: mid + 2],
                            w[mid - 1: mid + 2]))
    return (value, escaped) if return_escape else value


def clt_error(psi, family: LawFamily, uset: UncertaintySet,
              spec: NormalizedSumSpec, dp_grid: Grid,
              pide_value: float) -> float:
    """|nested-sum value - limit PIDE value u(1, 0)|.

    The PIDE value is passed in precomputed because convergence tables
    reuse one solve across all n.
    """
    if family.source_set.pairs != uset.pairs:
        raise ValueError("family and uncertainty set must share pairs")
    return abs(nested_sum_expectation(psi, family, spec, dp_grid)
               - pide_value)


def dp_grid_for(spec: NormalizedSumSpec, z0: float, half_width: float,
                dx_cap: float) -> Grid:
    """DP grid whose spacing resolves the scaled jumps B_n * z0.

    Linear-interpolation taps add a spurious second moment of order
    dx^2 per stage; tying dx to B_n keeps that far below the physical
    per-stage variance at every n.
    """
    dx = min(dx_cap, spec.B_n * z0 / 8.0)
    half = int(np.ceil(half_width / dx))
    return Grid(-half * dx, half * dx, 2 * half + 1, 1.0, 1, 0.5, 4.0)


def convergence_table(psi, family: LawFamily, n_values, dp_grid: Grid,
                      pide_value: float, refine: bool = True) -> list[tuple]:
    """Rows (n, B_n, nested_value, pide_value, abs_error).

    With ``refine`` the DP grid spacing shrinks with B_n (same spatial
    extent as ``dp_grid``); otherwise the given grid is reused as-is.
    """
    z0 = family.laws[0].z0
    half_width = dp_grid.x_max
    rows = []
    for n in sorted(n_values):
        spec = NormalizedSumSpec(int(n), family.b_scale,
                                 family.source_set.alpha)
        grid = dp_grid_for(spec, z0, half_width, dp_grid.dx) if refine \
            else dp_grid
        val = nested_sum_expectation(psi, family, spec, grid)
        rows.append((int(n), spec.B_n, val, pide_value,
                     abs(val - pide_value)))
    return rows


def table_to_csv(rows) -> str:
    buf = io.StringIO()
    buf.write("n,B_n,nested_value,pide_value,abs_error\n")
    for n, b_n, val, pide, err in rows:
        buf.write(f"{n},{b_n:.17g},{val:.17g},{pide:.17g},{err:.17g}\n")
    return buf.getvalue()
