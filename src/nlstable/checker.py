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

The checker marches nothing: it reads v(t) = u(T - t) as the rows, in
reverse, of forward surfaces u that the caller marched to T >= 1.
``condition_iii_rows`` and ``example_41_rows`` name the forward rows
each check reads, so the caller need store only those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (Grid, NumericalError, Surface, apply_max, band_bins,
                      jump_kernel, middle_half, tail_nodes)
from .laws import AttractedLaw, beta2_prime, law_nodes, tail_deviation
from .engine import NormalizedSumSpec
from .regularity import middle_bounds
from .solver import bracket, evaluate_row

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


def _sampled_rows(g: Grid) -> list[int]:
    """Row indices covering [0, 1] subsampled to about _T_SAMPLES, always
    with the last row at or before t = 1, where residuals peak."""
    i_hi = int(np.floor(1.0 / g.dt + 1e-9))
    stride = max(1, i_hi // (_T_SAMPLES - 1))
    return [*range(0, i_hi, stride), i_hi]


def _reversed(u: Surface) -> Surface:
    """v(t) = u(t_max - t), as a view of u's rows."""
    rows = tuple(u.grid.nt - i for i in reversed(u.rows))
    return Surface(u.grid, u.values[::-1], rows)


def _forward_rows(g: Grid, reads) -> tuple[int, ...]:
    """The forward rows nt - i of the reversed rows i read, each once."""
    return tuple(sorted({g.nt - i for i in reads}))


def _condition_iii_reads(g: Grid) -> list[tuple[int, float]]:
    """(i, t) for each sampled row i of v: the residual reads row i of the
    fine surface and the coarse surface at its time t."""
    return [(i, i * g.dt) for i in _sampled_rows(g)]


def condition_iii_rows(g: Grid, g_coarse: Grid
                       ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The forward rows ``check_condition_iii`` reads of surfaces on g
    and g_coarse."""
    reads = _condition_iii_reads(g)
    return (_forward_rows(g, [i for i, _ in reads]),
            _forward_rows(g_coarse, [j for _, t in reads
                                     for j in bracket(g_coarse, t)[0]]))


def _condition_iii_residual(laws: tuple[AttractedLaw, ...], rows, g: Grid,
                            n: int) -> float:
    """The residual maximized over the given rows of v on grid g."""
    alpha, b_scale, z0 = laws[0].alpha, laws[0].b_scale, laws[0].z0
    b_n = NormalizedSumSpec(n, b_scale, alpha).B_n
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
        for pair in [law.pair for law in laws]]

    # law side: n times the interior rule, Taylor for jumps under dx,
    # plus the shared tail scaled by n b^alpha B_n^alpha (= 1)
    tail_scale = b_scale ** alpha * n * b_n ** alpha
    law_kernels = []
    for law in laws:
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
    for row in rows:
        d = row - row[0]
        resid = np.abs(apply_max(law_kernels, d)
                       - apply_max(pair_kernels, d))[mid]
        worst = max(worst, float(np.max(resid)))
    return worst


def fit_rate(n_values, values, floors):
    """(kept, rate): which values exceed 3x their floor, and the slope of
    log value against log n over those, nan when fewer than two."""
    kept = tuple(v > 3.0 * f for v, f in zip(values, floors))
    ns = [n for n, k in zip(n_values, kept) if k]
    vs = [v for v, k in zip(values, kept) if k]
    if len(ns) < 2:
        return kept, float("nan")
    return kept, float(np.polyfit(np.log(ns), np.log(vs), 1)[0])


def check_condition_iii(laws: tuple[AttractedLaw, ...], u: Surface,
                        u_coarse: Surface, n_values) -> ResidualTable:
    """Residual table for the attraction condition over the given n, the
    suprema taken over ``laws``, one per kernel pair.

    ``u`` and ``u_coarse`` are forward surfaces of one psi to one
    horizon of at least 1, the second on a lower-resolution grid built
    with the same settings.  The per-n difference between the residual
    on u's sampled rows and on u_coarse interpolated at their times is
    reported as the discretization floor; ``fit_rate`` keeps the points
    above 3x their floor.
    """
    v, v2 = _reversed(u), _reversed(u_coarse)
    reads = _condition_iii_reads(v.grid)
    rows = [v.row(i) for i, _ in reads]
    rows2 = [evaluate_row(v2, t) for _, t in reads]
    m1 = max(middle_bounds(np.asarray(rows), v.grid.dx))

    residuals, floors, diags = [], [], []
    for n in n_values:
        r = _condition_iii_residual(laws, rows, v.grid, n)
        r2 = _condition_iii_residual(laws, rows2, v2.grid, n)
        residuals.append(r)
        floors.append(abs(r - r2))
        diags.append(classical_term_bounds(laws[0], m1, n))
    kept, rate = fit_rate(n_values, residuals, floors)
    return ResidualTable(tuple(n_values), tuple(residuals), rate,
                         tuple(diags), tuple(floors), kept)


def classical_term_bounds(law: AttractedLaw, m1: float,
                          n: int) -> tuple[float, float, float, float]:
    """The four positive-side bound-group values at this n, given m1, the
    largest |v|, |v_x| and |v_xx| over the rows (``middle_bounds``).

    Group 1 covers jumps z > 1, group 2 the near field z < B_n, and
    groups 3 and 4 the midrange; group 2 carries the explicit
    b^(alpha-2) n^(1 - 2/alpha) decay factor.  The mirrored negative
    side produces the same groups with beta1 and is not duplicated.
    """
    alpha = law.alpha
    spec = NormalizedSumSpec(n, law.b_scale, alpha)
    b_n = spec.B_n
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


def _example_41_reads(g: Grid, n: int) -> list[tuple[int, float]]:
    """(i, t - 1/n) for each sampled row i, at time t >= 1/n, of the
    residual at n: it reads rows i and i - 1 of v and v at t - 1/n."""
    step = 1.0 / n
    return [(i, i * g.dt - step) for i in _sampled_rows(g)
            if i > 0 and i * g.dt - step >= -1e-12]


def example_41_rows(g: Grid, n_values) -> tuple[int, ...]:
    """The forward rows ``example_41_check`` reads of a surface on g.  A
    1/n within one time step, where the residual is only rounding, or
    past the last sampled row, where it reads none, is refused."""
    if max(n_values) * g.dt >= 1.0:
        raise NumericalError(
            "n_values", f"1/n = {1.0 / max(n_values):.3g} is within one time "
            f"step dt = {g.dt:.3g}, where the residual is only rounding; "
            "lower hypothesis_checker.n_values or raise pide_solver.nx")
    reads = [_example_41_reads(g, int(n)) for n in n_values]
    if not reads[0]:  # n_values increase, and [1/n, 1] grows with n
        raise NumericalError(
            "n_values", f"no sampled row lies in [1/n, 1] at n = "
            f"{n_values[0]}; raise the smallest hypothesis_checker.n_values")
    return _forward_rows(g, [j for r in reads for i, t in r
                             for j in (i, i - 1, *bracket(g, t)[0])])


def example_41_check(u: Surface, n_values) -> ResidualTable:
    """Self-attraction residual: how well one 1/n time step of the
    terminal-value surface matches its own time derivative,

        r_n = max n * | v(t - 1/n, x) - v(t, x) + (1/n) dv/dt(t, x) |,

    maximized over sampled t in [1/n, 1] and the middle half in x, with v
    read off u in reverse.  The fitted rate is reported; theory
    guarantees some negative rate without naming its value."""
    v = _reversed(u)
    g = v.grid
    mid = middle_half(g.nx)
    residuals = []
    for n in n_values:
        step = 1.0 / n
        worst = 0.0
        for i, t_back in _example_41_reads(g, n):
            row = v.row(i)
            dv_dt = (row - v.row(i - 1)) / g.dt
            back = evaluate_row(v, t_back)
            resid = n * np.abs(back[mid] - row[mid] + step * dv_dt[mid])
            worst = max(worst, float(np.max(resid)))
        residuals.append(worst)
    floors = tuple(0.0 for _ in n_values)
    kept, rate = fit_rate(n_values, residuals, floors)
    zero4 = (0.0, 0.0, 0.0, 0.0)
    return ResidualTable(tuple(n_values), tuple(residuals), rate,
                         tuple(zero4 for _ in n_values), floors, kept)
