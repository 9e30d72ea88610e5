"""Regularity probes on solver output."""

import numpy as np
import pytest

from nlstable.basket import abs_clip
from nlstable.checker import _m1_bound
from nlstable.kernels import Grid, Surface, middle_half
from nlstable.solver import TerminalProblem, make_grid, solve_forward
from nlstable.regularity import (
    RegularityError,
    RegularityReport,
    compare_reports,
    probe,
)

from conftest import singleton_set

H = 0.25


@pytest.fixture(scope="module")
def probe_run():
    uset = singleton_set()
    grid = make_grid(-20.0, 20.0, 401, 1.0 + H, uset)
    psi = abs_clip(3.0)
    prob = TerminalProblem(psi, psi.lip, psi.sup, 1.0 + H)
    surface = solve_forward(prob, grid, uset)
    return surface, prob, probe(surface, H, singleton=True)


def test_constant_data_all_zero():
    uset = singleton_set()
    grid = make_grid(-20.0, 20.0, 201, 1.0 + H, uset)
    prob = TerminalProblem(lambda x: np.full_like(x, 2.0), 0.0, 2.0, 1.0 + H)
    rep = probe(solve_forward(prob, grid, uset), H)
    assert rep.lip_x < 1e-10
    assert rep.holder_t_half < 1e-10
    assert rep.dt_u_bound < 1e-10
    assert rep.dxx_bound_singleton < 1e-8


def test_clipped_linear_lipschitz(probe_run):
    _, prob, rep = probe_run
    assert rep.lip_x <= prob.lip_psi * 1.05
    assert np.isfinite(rep.dxx_bound_singleton)
    assert rep.dxx_bound_singleton > 0.0


def test_lip_non_increasing_in_time(probe_run):
    surface, _, _ = probe_run
    g = surface.grid
    mid = middle_half(g.nx)
    per_row = np.max(np.abs(np.diff(surface.values[:, mid], axis=1)),
                     axis=1) / g.dx
    # sup of contraction operators: no row exceeds the initial constant
    assert np.all(per_row <= per_row[0] * 1.05)


def test_holder_uniform_in_h(probe_run):
    """The late-window 1/2-Hölder constant does not exceed 1.5x the
    early-window one."""
    surface, _, _ = probe_run
    g = surface.grid
    mid = middle_half(g.nx)
    times = surface.times

    def holder_on(lo, hi):
        rows = np.where((times >= lo - 1e-12) & (times <= hi + 1e-12))[0]
        vals = surface.values[rows][:, mid]
        best, sep = 0.0, 1
        while sep < len(rows):
            diff = np.abs(vals[sep:] - vals[:-sep])
            best = max(best, float(np.max(diff)) / np.sqrt(sep * g.dt))
            sep *= 2
        return best

    early = holder_on(H, 1.0)
    late = holder_on(1.0, 1.0 + H)
    assert late <= 1.5 * early


def test_compare_reports_flags_instability(probe_run):
    _, _, rep = probe_run
    fields = {f: getattr(rep, f) for f in (
        "lip_x", "holder_t_half", "dt_u_bound", "dx_u_bound",
        "holder_gamma_fit", "dxx_bound_singleton")}
    fields["dt_u_bound"] *= 1.5
    bad = RegularityReport(**fields)
    with pytest.raises(RegularityError, match="dt_u_bound"):
        compare_reports(rep, bad)
    # an unchanged copy passes
    compare_reports(rep, rep)


def test_nonfinite_report_rejected():
    with pytest.raises(RegularityError, match="holder_t_half"):
        RegularityReport(1.0, np.inf, 1.0, 1.0, 0.5, 1.0)


@pytest.mark.parametrize("node", [50, 152])
def test_derivative_bounds_cover_the_middle_half(node):
    """At nx = 203 (3 mod 4) the middle half is nodes 50 to 152.  A unit
    spike on either end node has second difference 2/dx^2 there, and the
    probe and the checker's m1 both see it."""
    g = Grid(-20.0, 20.0, 203, 1.0 + H, 5, 0.5, 160.0)
    vals = np.zeros((g.nt + 1, g.nx))
    vals[:, node] = 1.0
    want = 2.0 / g.dx ** 2
    assert probe(Surface(g, vals), H).dxx_bound_singleton == want
    assert _m1_bound(list(vals), g) == want
