"""The exact nested-supremum dynamic program for normalized i.i.d. sums
under a finite family of laws.

Nested independence means later summands are integrated out first and a
supremum over member laws is taken at every stage:

    w_0 = psi,   w_{m+1}(x) = max_laws  int w_m(x + B_n y) dF_W(y),

so w_n(0) is the sublinear expectation of psi(B_n S_n).  Each stage is a
translation-invariant positive kernel on a uniform grid: one
``ShiftKernel`` per law, built once per n from ``laws.law_nodes``
scaled by B_n and ``kernels.interp_taps``, holds the spectrum of the
interpolation taps and the mass that lands beyond the grid as edge
coefficients.  The taps themselves are dropped once they are checked
nonnegative: no stage reads them.  A stage is one forward FFT of the
row and one inverse FFT per law, and every stage works in the same
``kernels.max_work`` block.

The taps carry the second-order correction of ``interp_taps`` for nodes
within ``DP_REACH`` cells, so interpolation adds no spurious variance
per stage and every n runs on the same grid (spacing ``dp_dx``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernels import (Grid, NumericalError, ShiftKernel, apply_max,
                      interp_taps, max_work, middle_half, shift_kernel)
from .laws import AttractedLaw, law_nodes

ESCAPE_TOL = 1e-4
DP_REACH = 16.0  # cells within which the stage taps are second order


@dataclass(frozen=True)
class NormalizedSumSpec:
    """Normalization B_n = 1/(b n^(1/alpha)) for an n-term sum."""

    n: int
    b_scale: float
    alpha: float

    @property
    def B_n(self) -> float:
        return 1.0 / (self.b_scale * self.n ** (1.0 / self.alpha))


def _stage_kernel(law: AttractedLaw, b_n: float,
                  grid: Grid) -> tuple[ShiftKernel, float]:
    """Stage kernel of one law, without its taps, and the worst-case
    off-grid mass seen from the middle half of the grid."""
    nodes, weights = law_nodes(law)
    kern = shift_kernel(interp_taps(b_n * nodes / grid.dx, weights, grid.nx,
                                    reach=DP_REACH))
    low = min(float(np.min(kern.taps)), kern.lo[-1], kern.hi[0])
    if low < 0.0:
        cells = b_n * law.z0 / grid.dx
        fix = ("decrease sublinear_engine.dp_dx so that it spans several "
               "cells" if cells < DP_REACH else
               f"its quadrature nodes within {DP_REACH:g} cells are sparser "
               "than the grid, so increase sublinear_engine.dp_dx")
        raise NumericalError(
            "dp_dx",
            f"stage kernel for pair {law.pair} at B_n={b_n:.6g} has a tap "
            f"of {low:.3e} < 0, so the stage is not monotone; the law's "
            f"interior |z| < z0 spans {cells:.3g} cells of dx={grid.dx:.6g}; "
            + fix)
    # off-grid mass: the tap sums that read an edge value, at the two
    # middle-half edge nodes (the worst case over the middle half)
    mid = middle_half(grid.nx)
    esc = max(float(kern.lo[j] + kern.hi[j])
              for j in (mid.start, mid.stop - 1))
    return replace(kern, taps=None), esc


def nested_sum_expectation(psi, laws: tuple[AttractedLaw, ...],
                           spec: NormalizedSumSpec, grid: Grid) -> float:
    """Sublinear expectation of psi(B_n S_n) by backward value iteration,
    the supremum taken over ``laws``, one per kernel pair.

    Raises NumericalError naming dp_half_width when the accumulated
    worst-case quadrature mass escaping the grid (watched from the middle
    half) exceeds ESCAPE_TOL, since then the constant edge extension
    contaminates the returned value at a comparable level.
    """
    try:
        w = np.asarray(psi(grid.x), dtype=float)
    except (MemoryError, ValueError) as exc:  # ValueError: "too big"
        raise NumericalError(
            "dp_dx", f"the dynamic-program grid of {grid.nx} nodes cannot be "
            f"allocated ({exc}); raise sublinear_engine.dp_dx or lower "
            "sublinear_engine.dp_half_width") from exc
    if not np.all(np.isfinite(w)):
        raise ValueError("psi produced non-finite samples")
    b_n = spec.B_n
    built = [_stage_kernel(law, b_n, grid) for law in laws]
    kernels = [kern for kern, _ in built]
    escaped = spec.n * max(esc for _, esc in built)
    if escaped > ESCAPE_TOL:
        need = grid.x_max * (escaped / ESCAPE_TOL) ** (1.0 / spec.alpha)
        raise NumericalError(
            "dp_half_width",
            f"accumulated off-grid quadrature mass {escaped:.2e} exceeds "
            f"{ESCAPE_TOL:.0e}; widen the grid to roughly +-{need:.0f} "
            "(sublinear_engine.dp_half_width)")
    work = max_work(kernels)
    for _ in range(spec.n):
        w = apply_max(kernels, w, work)
    mid = grid.nx // 2
    return float(np.interp(0.0, grid.x[mid - 1: mid + 2],
                           w[mid - 1: mid + 2]))


def convergence_table(psi, laws: tuple[AttractedLaw, ...], n_values,
                      dp_grid: Grid) -> list[tuple]:
    """Rows (n, B_n, nested_value), every n on ``dp_grid``."""
    law = laws[0]
    specs = [NormalizedSumSpec(n, law.b_scale, law.alpha) for n in n_values]
    return [(s.n, s.B_n, nested_sum_expectation(psi, laws, s, dp_grid))
            for s in specs]
