"""Explicit monotone time-marching for the forward and backward nonlocal
equations, plus surface interpolation and the scaling / dynamic-programming
consistency checks.

The forward problem marches

    u^{m+1} = u^m + dt * max_k G_k u^m,   u^0 = psi samples,

with the two boundary nodes pinned to their initial values (consistent
with the constant far-field extension inside the generator).  The
backward problem applies the identical update marching down from the
terminal time, so the time-reversal relation between the two surfaces
holds exactly in floating arithmetic.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .kernels import (
    Grid,
    Surface,
    UncertaintySet,
    apply_sup_generator_row,
    scheme_stability_constant,
)


class CFLError(RuntimeError):
    """Raised when the requested time step violates the stability bound."""


class NonFiniteError(RuntimeError):
    """Raised when a march produces values that are not finite."""


@dataclass(frozen=True)
class TerminalProblem:
    """Initial (forward) or terminal (backward) data for a march.

    ``psi`` is a bounded Lipschitz function given as a vectorizable
    callable; ``lip_psi`` and ``sup_psi`` are its stated constants.
    ``horizon`` is the terminal time; only the backward march reads it,
    to place its surface at t0 = horizon - grid.t_max.
    """

    psi: Callable[[np.ndarray], np.ndarray]
    lip_psi: float
    sup_psi: float
    horizon: float

    def samples(self, grid: Grid) -> np.ndarray:
        vals = np.asarray(self.psi(grid.x), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("psi produced non-finite samples")
        return vals


def make_grid(x_min: float, x_max: float, nx: int, t_max: float,
              uset: UncertaintySet, r_cut: float | None = None,
              z_max: float | None = None, safety: float = 0.5) -> Grid:
    """Build a grid whose nt satisfies the CFL bound with a safety factor."""
    dx = (x_max - x_min) / (nx - 1)
    if r_cut is None:
        r_cut = dx
    if z_max is None:
        z_max = 4.0 * (x_max - x_min)
    probe = Grid(x_min, x_max, nx, t_max, 1, r_cut, z_max)
    c = scheme_stability_constant(probe, uset)
    nt = max(1, int(np.ceil(t_max * c / safety)))
    return Grid(x_min, x_max, nx, t_max, nt, r_cut, z_max)


def _march(u0: np.ndarray, grid: Grid, uset: UncertaintySet) -> np.ndarray:
    c = scheme_stability_constant(grid, uset)
    if grid.dt * c > 1.0 + 1e-12:
        raise CFLError(
            f"dt={grid.dt:.3e} violates the stability bound; scheme constant "
            f"c={c:.6g} requires dt <= {1.0 / c:.3e} (nt >= {int(np.ceil(grid.t_max * c))})"
        )
    rows = np.empty((grid.nt + 1, grid.nx))
    rows[0] = u0
    u = u0.copy()
    b_lo, b_hi = u0[0], u0[-1]
    for m in range(grid.nt):
        u = u + grid.dt * apply_sup_generator_row(u, grid, uset)
        u[0], u[-1] = b_lo, b_hi
        rows[m + 1] = u
    # min and max propagate nan and expose +-inf without allocating a
    # surface-sized temporary, which would raise the peak memory
    if not (np.isfinite(rows.min()) and np.isfinite(rows.max())):
        step = int(np.argmin(np.isfinite(rows).all(axis=1)))
        raise NonFiniteError(
            f"the march produced non-finite values at step {step} of "
            f"{grid.nt} (nx={grid.nx}, max |psi| = "
            f"{float(np.max(np.abs(u0))):.3e}); lower pide_solver.safety, "
            f"change pide_solver.nx or rescale psi")
    return rows


def solve_forward(prob: TerminalProblem, grid: Grid,
                  uset: UncertaintySet) -> Surface:
    """Solve the forward equation from the initial data up to t_max."""
    u0 = prob.samples(grid)
    rows = _march(u0, grid, uset)
    return Surface(grid=grid, values=rows, t0=0.0)


def solve_backward(prob: TerminalProblem, grid: Grid,
                   uset: UncertaintySet) -> Surface:
    """Solve the backward equation down from the terminal condition.

    The surface's row i holds v(t0 + i*dt, .) with the terminal data in
    the last row; t0 = terminal time - grid.t_max.  Its values are a
    reversed view of the marched rows, so no second surface is
    allocated.
    """
    v_term = prob.samples(grid)
    rows = _march(v_term, grid, uset)[::-1]
    return Surface(grid=grid, values=rows, t0=prob.horizon - grid.t_max)


def evaluate(surface: Surface, t: float, x: float) -> float:
    """Bilinear interpolation on the stored surface; exact at nodes."""
    g = surface.grid
    tl, th = surface.t0, surface.t0 + g.t_max
    eps_t, eps_x = 1e-12 * max(1.0, abs(th)), 1e-12 * max(1.0, abs(g.x_max))
    if not (tl - eps_t <= t <= th + eps_t):
        raise ValueError(f"t={t} outside surface range [{tl}, {th}]")
    if not (g.x_min - eps_x <= x <= g.x_max + eps_x):
        raise ValueError(f"x={x} outside surface range [{g.x_min}, {g.x_max}]")
    pt = np.clip((t - tl) / g.dt, 0.0, g.nt)
    px = np.clip((x - g.x_min) / g.dx, 0.0, g.nx - 1)
    it = min(int(pt), g.nt - 1)
    ix = min(int(px), g.nx - 2)
    ft, fx = pt - it, px - ix
    v = surface.values
    return float(
        (1 - ft) * ((1 - fx) * v[it, ix] + fx * v[it, ix + 1])
        + ft * ((1 - fx) * v[it + 1, ix] + fx * v[it + 1, ix + 1])
    )


def evaluate_row(surface: Surface, t: float) -> np.ndarray:
    """Full spatial row at time t, linearly interpolated between rows."""
    g = surface.grid
    pt = (t - surface.t0) / g.dt
    if not (-1e-9 <= pt <= g.nt + 1e-9):
        raise ValueError(f"t={t} outside surface range")
    pt = np.clip(pt, 0.0, g.nt)
    it = min(int(pt), g.nt - 1)
    ft = pt - it
    return (1 - ft) * surface.values[it] + ft * surface.values[it + 1]


def scaling_check(psi: Callable, beta: float, t: float, grid: Grid,
                  uset: UncertaintySet) -> float:
    """Residual of the time-space scaling identity at the origin.

    Compares u_psi(beta*t, 0) with the solution started from the
    spatially rescaled data psi(beta^(1/alpha) x) at time t.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if max(beta * t, t) > grid.t_max + 1e-12:
        raise ValueError("both t and beta*t must lie within the horizon")
    scale = beta ** (1.0 / uset.alpha)
    prob_a = TerminalProblem(psi, 1.0, 1.0, grid.t_max)
    prob_b = TerminalProblem(lambda x: psi(scale * x), 1.0, 1.0, grid.t_max)
    ua = solve_forward(prob_a, grid, uset)
    ub = solve_forward(prob_b, grid, uset)
    return abs(evaluate(ua, beta * t, 0.0) - evaluate(ub, t, 0.0))


def dpp_check(psi: Callable, s: float, t: float, grid: Grid,
              uset: UncertaintySet) -> float:
    """Residual of the dynamic programming identity.

    Restarts the march from the row at time t - s and compares the
    restarted solution at time s with the original at time t, maximizing
    over the middle half of the grid.  Times are snapped to grid rows.
    """
    if not (0.0 < s <= t <= grid.t_max + 1e-12):
        raise ValueError("require 0 < s <= t <= horizon")
    prob = TerminalProblem(psi, 1.0, 1.0, grid.t_max)
    u = solve_forward(prob, grid, uset)
    i_t = int(round(t / grid.dt))
    i_s = int(round(s / grid.dt))
    mid = slice(grid.nx // 4, 3 * grid.nx // 4)
    restart_grid = replace(grid, t_max=i_s * grid.dt, nt=i_s)
    w = _march(u.values[i_t - i_s], restart_grid, uset)
    return float(np.max(np.abs(u.values[i_t, mid] - w[i_s, mid])))


def surface_to_csv(surface: Surface) -> str:
    """CSV export with header t,x,value; one record per node.

    Every number has 17 significant digits, so it reparses bit-exactly.
    The x fields are formatted once into per-node cells that end in a
    ``%.17g`` slot (the same conversion as an f-string's ``.17g``); each
    row is then one join of those cells with its time field and one
    %-format of its values.
    """
    buf = io.StringIO()
    buf.write("t,x,value\n")
    cells = [f",{x:.17g},%.17g\n" for x in surface.grid.x]
    for t, vals in zip(surface.times, surface.values):
        ts = f"{t:.17g}"
        buf.write((ts + ts.join(cells)) % tuple(vals.tolist()))
    return buf.getvalue()
