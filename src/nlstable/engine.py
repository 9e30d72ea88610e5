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
per stage and every n runs at the same spacing ``dp_dx``.

The grid's width comes from the laws' exact Pareto tails
(``dp_half_cells``): since n b^alpha B_n^alpha = 1, the mass a stage
sends off the grid, n times over, is the same closed form in the pairs,
alpha and the width for every n and every psi, and the width keeps it
within ``ESCAPE_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernels import (Grid, NumericalError, ShiftKernel, apply_max,
                      interp_taps, max_work, shift_kernel)
from .laws import AttractedLaw, law_nodes

ESCAPE_TOL = 1e-4
DP_REACH = 16.0  # cells within which the stage taps are second order
# law_nodes puts each log-spaced tail bin, (1e8/z0)^(1/2048) in ratio
# (1.0087 at z0 = 2), at its centroid, so the measured off-grid mass of
# the bare width runs up to 0.5% past ESCAPE_TOL; 1% more width brings it
# to at most 0.992 of it, measured on every family the tests run
ESCAPE_MARGIN = 1.01


@dataclass(frozen=True)
class NormalizedSumSpec:
    """Normalization B_n = 1/(b n^(1/alpha)) for an n-term sum."""

    n: int
    b_scale: float
    alpha: float

    @property
    def B_n(self) -> float:
        return 1.0 / (self.b_scale * self.n ** (1.0 / self.alpha))


def dp_half_cells(pairs, alpha: float, dx: float, interior: float) -> float:
    """Cells a side of a DP grid of spacing dx from whose middle half a
    stage sends at most ``ESCAPE_TOL`` off the grid, n times over.

    A middle-half edge node lies d from the near end and 3d from the far
    one, d half the half-width.  Beyond z0 every law's tails are exactly
    Pareto and n b^alpha B_n^alpha = 1, so with the heavier tail, k_hi,
    toward the near end, n P(x + B_n W off the grid) is
    k_hi/(alpha d^alpha) + k_lo/(alpha (3d)^alpha) for every n while d
    is at least ``interior``, B_n z0 at the smallest n.  The half-width
    is 2d for the largest d over ``pairs`` that meets ESCAPE_TOL, or for
    ``interior`` if larger, times ESCAPE_MARGIN, and at least
    ``DP_REACH`` + 3 cells, so every corrected tap lies inside the grid.
    """
    d = max(((max(p) + 3.0 ** -alpha * min(p)) / (alpha * ESCAPE_TOL))
            ** (1.0 / alpha) for p in pairs)
    return max(2.0 * ESCAPE_MARGIN * max(d, interior) / dx, DP_REACH + 3.0)


def _stage_kernel(law: AttractedLaw, b_n: float, grid: Grid) -> ShiftKernel:
    """Stage kernel of one law, checked monotone, without its taps."""
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
    return replace(kern, taps=None)


def nested_sum_expectation(psi, laws: tuple[AttractedLaw, ...],
                           spec: NormalizedSumSpec, grid: Grid) -> float:
    """Sublinear expectation of psi(B_n S_n) by backward value iteration,
    the supremum taken over ``laws``, one per kernel pair, with psi
    sampled on ``grid`` (centred on x = 0) and held constant beyond it.
    """
    try:
        w = np.asarray(psi(grid.x), dtype=float)
    except (MemoryError, ValueError) as exc:  # ValueError: "too big"
        raise NumericalError(
            "dp_dx", f"the dynamic-program grid of {grid.nx} nodes cannot be "
            f"allocated ({exc}); raise sublinear_engine.dp_dx") from exc
    kernels = [_stage_kernel(law, spec.B_n, grid) for law in laws]
    work = max_work(kernels)
    for _ in range(spec.n):
        w = apply_max(kernels, w, work)
    return float(np.interp(0.0, grid.x, w))


def convergence_table(psi, laws: tuple[AttractedLaw, ...], n_values,
                      dp_grid: Grid) -> list[tuple]:
    """Rows (n, B_n, nested_value), every n on ``dp_grid``."""
    law = laws[0]
    specs = [NormalizedSumSpec(n, law.b_scale, law.alpha) for n in n_values]
    return [(s.n, s.B_n, nested_sum_expectation(psi, laws, s, dp_grid))
            for s in specs]
