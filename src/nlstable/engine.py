"""The exact nested-supremum dynamic program for normalized i.i.d. sums
under a finite family of laws.

Nested independence means later summands are integrated out first and a
supremum over member laws is taken at every stage:

    w_0 = psi,   w_{m+1}(x) = max_laws  int w_m(x + B_n y) dF_W(y),

so w_n(0) is the sublinear expectation of psi(B_n S_n).  Each stage is a
translation-invariant positive kernel on a uniform grid: one
``ShiftKernel`` per law, built once per n from ``laws.law_nodes``
scaled by B_n and ``kernels.interp_taps``, holds the interpolation taps
and the mass that lands beyond the grid as edge coefficients.  A stage
is one forward FFT of the row and one inverse FFT per law.

The taps carry the second-order correction of ``interp_taps`` for nodes
within ``DP_REACH`` cells, so interpolation adds no spurious variance
per stage and every n runs on the same grid (spacing ``dp_dx``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (Grid, ShiftKernel, UncertaintySet, apply_max,
                      interp_taps, shift_kernel)
from .laws import AttractedLaw, law_nodes

ESCAPE_TOL = 1e-4
DP_REACH = 16.0  # cells within which the stage taps are second order


class NarrowGridError(RuntimeError):
    """Raised when too much quadrature mass falls off the grid."""


class NegativeTapError(RuntimeError):
    """Raised when a stage kernel has a negative tap, so the stage would
    not be a positive (monotone) operator."""


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


def _stage_kernel(law: AttractedLaw, b_n: float,
                  grid: Grid) -> tuple[ShiftKernel, float]:
    """Stage kernel of one law, and the worst-case off-grid mass seen
    from the middle half of the grid."""
    nodes, weights = law_nodes(law)
    kern = shift_kernel(interp_taps(b_n * nodes / grid.dx, weights, grid.nx,
                                    reach=DP_REACH))
    low = min(float(np.min(kern.taps)), kern.edge_lo, kern.edge_hi)
    if low < 0.0:
        cells = b_n * law.z0 / grid.dx
        fix = ("decrease sublinear_engine.dp_dx so that it spans several "
               "cells" if cells < DP_REACH else
               f"its quadrature nodes within {DP_REACH:g} cells are sparser "
               "than the grid, so increase sublinear_engine.dp_dx")
        raise NegativeTapError(
            f"stage kernel for pair {law.pair} at B_n={b_n:.6g} has a tap "
            f"of {low:.3e} < 0, so the stage is not monotone; the law's "
            f"interior |z| < z0 spans {cells:.3g} cells of dx={grid.dx:.6g}; "
            + fix)
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
                           grid: Grid) -> float:
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
    return float(np.interp(0.0, grid.x[mid - 1: mid + 2],
                           w[mid - 1: mid + 2]))


def convergence_table(psi, family: LawFamily, n_values, dp_grid: Grid,
                      pide_value: float) -> list[tuple]:
    """Rows (n, B_n, nested_value, pide_value, abs_error), every n on
    ``dp_grid``."""
    rows = []
    for n in sorted(n_values):
        spec = NormalizedSumSpec(int(n), family.b_scale,
                                 family.source_set.alpha)
        val = nested_sum_expectation(psi, family, spec, dp_grid)
        rows.append((int(n), spec.B_n, val, pide_value,
                     abs(val - pide_value)))
    return rows

