"""Residual diagnostics for the attraction condition and the classical
bound groups.

The central quantity is, per n,

    r_n = max_{t in [0,1], x in middle half}
          n * | sup_laws E_W[ delta_{B_n y} v(t,x) ]
              - (1/n) sup_pairs int delta_z v(t,x) F_k(dz) |.

Both sides share their heavy-tail part exactly: the member laws have
density b^alpha * levy density beyond z0 and n b^alpha B_n^alpha = 1,
so the law tail integral rescales to the kernel integral over
|z| > B_n z0 node for node.  The computation exploits this by reusing
one tail quadrature (``kernels.tail_nodes`` beyond B_n z0) for both
sides, which pushes the measurement floor well below the
n^(1 - 2/alpha) signal.  For each n every pair and every law becomes one
``kernels.jump_kernel`` (the builder behind the march's generator too):
its quadrature nodes, the compensator -v'(x) * (first moment) and the
Taylor terms for jumps under one grid cell, so each sampled row costs
one ``apply_max`` per side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (Grid, Surface, UncertaintySet, apply_max, band_bins,
                      jump_kernel, middle_half, tail_nodes)
from .laws import AttractedLaw, beta2_prime, law_nodes, tail_deviation
from .engine import LawFamily, NormalizedSumSpec
from .solver import TerminalProblem, evaluate_row, solve_backward

_T_SAMPLES = 33    # rows sampled from [0, 1] for the (t, x) maximum
_TAIL_NB = 192


@dataclass(frozen=True)
class ResidualTable:
    n_values: tuple[int, ...]
    residuals: tuple[float, ...]
    fitted_rate: float
    term_diagnostics: tuple[tuple[float, float, float, float], ...]
    floor: tuple[float, ...]
    kept: tuple[bool, ...]

    def __post_init__(self):
        if list(self.n_values) != sorted(set(self.n_values)):
            raise ValueError("n_values must be strictly increasing")
        if any(r < 0 for r in self.residuals):
            raise ValueError("residuals must be nonnegative")


def _sampled_rows(v: Surface, t_hi: float = 1.0):
    """Row indices covering [0, t_hi] subsampled to about _T_SAMPLES."""
    g = v.grid
    i_hi = int(np.floor((t_hi - v.t0) / g.dt + 1e-9))
    stride = max(1, i_hi // (_T_SAMPLES - 1))
    return range(0, i_hi + 1, stride)


def _condition_iii_residual(family: LawFamily, uset: UncertaintySet,
                            v: Surface, n: int) -> float:
    g = v.grid
    alpha = uset.alpha
    z0 = family.laws[0].z0
    spec = NormalizedSumSpec(n, family.b_scale, alpha)
    b_n = spec.B_n
    r_split = b_n * z0
    mid = middle_half(g.nx)

    # shared tail quadrature beyond r_split, one node set per side
    masses, cents = tail_nodes(r_split, 2.0 * (g.x_max - g.x_min),
                               _TAIL_NB, alpha)
    # the kernel integral below r_split: Taylor under the grid spacing,
    # banded quadrature between dx and r_split when that range is real
    r_in = min(g.dx, r_split)
    if r_split > r_in * (1.0 + 1e-12):
        in_m, in_c = band_bins(r_in, r_split, _TAIL_NB // 2, alpha)
    else:
        in_m = in_c = np.empty(0)
    sig2 = r_in ** (2.0 - alpha) / (2.0 - alpha)
    sig3 = r_in ** (3.0 - alpha) / (3.0 - alpha)
    pair_shifts = np.concatenate([cents, in_c, -cents, -in_c])
    pair_kernels = [
        jump_kernel(pair_shifts,
                    np.concatenate([pair.k_plus * masses,
                                    pair.k_plus * in_m,
                                    pair.k_minus * masses,
                                    pair.k_minus * in_m]),
                    0.5 * (pair.k_minus + pair.k_plus) * sig2,
                    (pair.k_plus - pair.k_minus) * sig3 / 6.0, g)
        for pair in uset.pairs]

    # law side: n times the interior rule, Taylor for jumps under dx,
    # plus the shared tail scaled by n b^alpha B_n^alpha (= 1)
    tail_scale = family.b_scale ** alpha * n * b_n ** alpha
    law_kernels = []
    for law in family.laws:
        nodes, weights = law_nodes(law)
        inner = np.abs(nodes) < z0
        s, w = b_n * nodes[inner], n * weights[inner]
        taylor = np.abs(s) <= g.dx
        st, wt = s[taylor], w[taylor]
        law_kernels.append(jump_kernel(
            np.concatenate([s[~taylor], cents, -cents]),
            np.concatenate([w[~taylor],
                            tail_scale * law.pair.k_plus * masses,
                            tail_scale * law.pair.k_minus * masses]),
            float(np.sum(wt * st**2)) / 2.0,
            float(np.sum(wt * st**3)) / 6.0, g))

    worst = 0.0
    for i in _sampled_rows(v):
        row = v.values[i] - v.values[i, 0]
        resid = np.abs(apply_max(law_kernels, row)
                       - apply_max(pair_kernels, row))[mid]
        worst = max(worst, float(np.max(resid)))
    return worst


def fit_rate(n_values, residuals, kept):
    """Slope of log residual against log n over the kept points; nan
    when fewer than two are kept or a kept residual is not positive."""
    ns = [n for n, k in zip(n_values, kept) if k]
    rs = [r for r, k in zip(residuals, kept) if k]
    if len(ns) < 2 or any(r <= 0.0 for r in rs):
        return float("nan")
    return float(np.polyfit(np.log(ns), np.log(rs), 1)[0])


def check_condition_iii(family: LawFamily, uset: UncertaintySet, psi,
                        h: float, n_values, grid: Grid,
                        coarse: Grid) -> ResidualTable:
    """Residual table for the attraction condition over the given n.

    Solves the terminal-value equation with horizon 1 + h on ``grid``
    and on ``coarse``, a lower-resolution grid built with the same
    settings; the per-n difference between the two measurements is
    reported as the discretization floor, and points within 3x the
    floor are dropped from the rate fit.
    """
    if min(grid.t_max, coarse.t_max) < 1.0 + h - 1e-12:
        raise ValueError("grid horizon must cover 1 + h")
    prob = TerminalProblem(psi, 1.0, 1.0, 1.0 + h)
    v = solve_backward(prob, grid, uset)
    v2 = solve_backward(prob, coarse, uset)

    n_values = sorted(int(n) for n in n_values)
    residuals, floors, diags = [], [], []
    for n in n_values:
        r = _condition_iii_residual(family, uset, v, n)
        r2 = _condition_iii_residual(family, uset, v2, n)
        residuals.append(r)
        floors.append(abs(r - r2))
        diags.append(classical_term_bounds(family.laws[0], v, n))
    kept = [r > 3.0 * f for r, f in zip(residuals, floors)]
    rate = fit_rate(n_values, residuals, kept)
    return ResidualTable(tuple(n_values), tuple(residuals), rate,
                         tuple(diags), tuple(floors), tuple(kept))


def _m1_bound(v: Surface) -> float:
    g = v.grid
    mid = middle_half(g.nx)
    m1 = 0.0
    for i in _sampled_rows(v):
        row = v.values[i]
        vxx = np.zeros_like(row)
        vxx[1:-1] = (row[2:] - 2.0 * row[1:-1] + row[:-2]) / g.dx**2
        m1 = max(m1, float(np.max(np.abs(row[mid]))),
                 float(np.max(np.abs(np.gradient(row, g.dx)[mid]))),
                 float(np.max(np.abs(vxx[mid]))))
    return m1


def classical_term_bounds(law: AttractedLaw, v: Surface,
                          n: int) -> tuple[float, float, float, float]:
    """The four positive-side bound-group values at this n.

    Group 1 covers jumps z > 1, group 2 the near field z < B_n, and
    groups 3 and 4 the midrange; group 2 carries the explicit
    b^(alpha-2) n^(1 - 2/alpha) decay factor.  The mirrored negative
    side produces the same groups with beta1 and is not duplicated.
    """
    alpha = law.alpha
    spec = NormalizedSumSpec(n, law.b_scale, alpha)
    b_n = spec.B_n
    m1 = _m1_bound(v)
    decay = law.b_scale ** (alpha - 2.0) * float(n) ** (1.0 - 2.0 / alpha)

    zq = np.geomspace(1e-10, 1.0, 4001)
    mid_int = float(np.trapezoid(np.abs(tail_deviation(law, zq / b_n))
                                 * zq ** (1.0 - alpha), zq))
    i2 = float(np.trapezoid(
        np.abs(-beta2_prime(law, zq) * zq + alpha * tail_deviation(law, zq))
        * zq ** (1.0 - alpha), zq))
    beta_at_inv = float(tail_deviation(law, np.array(1.0 / b_n)))
    if b_n * law.z0 > 1.0:
        zf = np.geomspace(1.0, b_n * law.z0, 2001)
        far_int = float(np.trapezoid(np.abs(tail_deviation(law, zf / b_n))
                                     * zf ** (-alpha), zf))
    else:
        far_int = 0.0

    g1 = 3.0 * m1 * abs(beta_at_inv) + 2.0 * m1 * far_int
    g2 = m1 * decay * i2
    g3 = m1 * alpha * mid_int
    g4 = 3.0 * m1 * abs(beta_at_inv) \
        + m1 * abs(float(tail_deviation(law, np.array(1.0)))) * decay \
        + 2.0 * alpha * m1 * mid_int
    return (g1, g2, g3, g4)


def example_41_check(uset: UncertaintySet, psi, h: float, n_values,
                     grid: Grid) -> ResidualTable:
    """Self-attraction residual: how well one 1/n time step of the
    terminal-value surface matches its own time derivative,

        r_n = max n * | v(t - 1/n, x) - v(t, x) + (1/n) dv/dt(t, x) |,

    maximized over sampled t in [1/n, 1] and the middle half in x.
    The fitted rate is reported; theory guarantees some negative rate
    without naming its value."""
    prob = TerminalProblem(psi, 1.0, 1.0, 1.0 + h)
    v = solve_backward(prob, grid, uset)
    g = grid
    mid = middle_half(g.nx)
    n_values = sorted(int(n) for n in n_values)
    residuals = []
    for n in n_values:
        step = 1.0 / n
        worst = 0.0
        for i in _sampled_rows(v):
            t = v.t0 + i * g.dt
            if t - step < v.t0 - 1e-12 or i == 0:
                continue
            row = v.values[i]
            dv_dt = (row - v.values[i - 1]) / g.dt
            back = evaluate_row(v, t - step)
            resid = n * np.abs(back[mid] - row[mid] + step * dv_dt[mid])
            worst = max(worst, float(np.max(resid)))
        residuals.append(worst)
    kept = [r > 0.0 for r in residuals]
    rate = fit_rate(n_values, residuals, kept)
    zero4 = (0.0, 0.0, 0.0, 0.0)
    return ResidualTable(tuple(n_values), tuple(residuals), rate,
                         tuple(zero4 for _ in n_values),
                         tuple(0.0 for _ in n_values), tuple(kept))

