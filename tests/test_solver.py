"""Forward marching, interpolation, and the consistency checks."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlstable import checker
from nlstable import solver as solver_mod
from nlstable.kernels import (Grid, Surface, middle_half,
                              scheme_stability_constant)
from nlstable.solver import (
    CFLError,
    NonFiniteError,
    TerminalProblem,
    dpp_check,
    evaluate,
    evaluate_row,
    format_g17,
    make_grid,
    scaling_check,
    solve_forward,
    surface_to_csv,
)

from conftest import gaussian


def solve(psi, grid, uset):
    prob = TerminalProblem(psi, 1.0, 1.0, grid.t_max)
    return solve_forward(prob, grid, uset)


def test_constant_preserved_exactly(small_grid, uset_sym):
    u = solve(lambda x: np.full_like(x, 5.0), small_grid, uset_sym)
    assert np.max(np.abs(u.values - 5.0)) < 1e-12


def test_cfl_violation_refused(uset_sym):
    g = Grid(-20.0, 20.0, 401, 1.0, 2, 0.1, 160.0)  # nt=2 is far too coarse
    with pytest.raises(CFLError, match="nt >="):
        solve(gaussian, g, uset_sym)


def test_non_finite_march_refused(small_grid, uset_sym):
    """Finite +-1e308 samples overflow in the first step; the march
    refuses the surface and names the knobs."""
    def psi(x):
        return np.where(np.arange(np.size(x)) % 2 == 0, 1e308, -1e308)

    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteError, match="pide_solver.safety"):
        solve(psi, small_grid, uset_sym)


def test_cfl_report_consistent(small_grid, uset_sym):
    """make_grid takes the fewest steps whose dt meets the stability
    bound with its default safety factor 0.5."""
    c = scheme_stability_constant(small_grid, uset_sym)
    dt_max = 0.5 / c
    assert c > 0.0
    assert small_grid.dt <= dt_max * (1.0 + 1e-12)
    assert small_grid.t_max / (small_grid.nt - 1) > dt_max


def test_maximum_principle(small_grid, uset_sym):
    u = solve(gaussian, small_grid, uset_sym)
    assert np.max(np.abs(u.values)) <= 1.0 + 1e-12


def test_comparison(small_grid, uset_sym):
    u1 = solve(gaussian, small_grid, uset_sym)
    u2 = solve(lambda x: gaussian(x) + 0.25 * np.cos(x), small_grid, uset_sym)
    assert np.all(u1.values <= u2.values + 0.25 + 1e-12)
    u3 = solve(lambda x: gaussian(x) + 0.1, small_grid, uset_sym)
    assert np.all(u3.values >= u1.values - 1e-12)


def test_lipschitz_not_amplified(small_grid, uset_sym):
    u = solve(gaussian, small_grid, uset_sym)
    lip_psi = np.sqrt(2.0 / np.e)
    mid = middle_half(small_grid.nx)
    lip = np.max(np.abs(np.diff(u.values[:, mid], axis=1))) / small_grid.dx
    assert lip <= lip_psi * 1.05


def test_sublinearity_and_homogeneity(small_grid, uset_sym):
    psi1, psi2 = gaussian, lambda x: 1.0 / (1.0 + x ** 2)
    u1 = solve(psi1, small_grid, uset_sym)
    u2 = solve(psi2, small_grid, uset_sym)
    u12 = solve(lambda x: psi1(x) + psi2(x), small_grid, uset_sym)
    assert np.all(u12.values <= u1.values + u2.values + 1e-10)
    u3 = solve(lambda x: 3.0 * psi1(x), small_grid, uset_sym)
    np.testing.assert_allclose(u3.values, 3.0 * u1.values,
                               rtol=1e-13, atol=1e-13)


def test_minus_psi_sublinearity(small_grid, uset_sym):
    u = solve(gaussian, small_grid, uset_sym)
    um = solve(lambda x: -gaussian(x), small_grid, uset_sym)
    assert np.all(um.values >= -u.values - 1e-12)


def test_backward_is_time_reversed_forward(uset_sym):
    """The checker reads the terminal-value solution as the forward
    surface in reverse, as a view: no second surface is allocated."""
    h = 0.25
    grid = make_grid(-20.0, 20.0, 401, 1.0 + h, uset_sym)
    u = solve(gaussian, grid, uset_sym)
    v = checker._reversed(u)
    assert v.grid == grid and np.shares_memory(v.values, u.values)
    # v(t, x) = u(1 + h - t, x), exact in floating arithmetic
    assert np.max(np.abs(v.values - u.values[::-1])) < 1e-14
    assert np.max(np.abs(evaluate_row(v, grid.dt) - u.values[-2])) < 1e-14


def test_odd_data_symmetric_kernel_fixes_origin(uset_sym):
    grid = make_grid(-20.0, 20.0, 401, 0.5, uset_sym)
    u = solve(lambda x: np.tanh(x), grid, uset_sym)
    assert np.max(np.abs(u.values[:, grid.nx // 2])) < 1e-12


class TestEvaluate:
    def test_exact_at_nodes(self, small_grid, uset_sym):
        u = solve(gaussian, small_grid, uset_sym)
        i, j = 3, 57
        t = i * small_grid.dt
        x = small_grid.x[j]
        assert evaluate(u, t, x) == pytest.approx(u.values[i, j],
                                                  rel=0, abs=1e-15)

    def test_affine_midpoint(self, small_grid):
        vals = np.tile(2.0 * small_grid.x + 1.0, (small_grid.nt + 1, 1))
        s = Surface(grid=small_grid, values=vals)
        xm = 0.5 * (small_grid.x[10] + small_grid.x[11])
        assert evaluate(s, 0.0, xm) == pytest.approx(2.0 * xm + 1.0, rel=1e-14)

    def test_matches_reference_interpolator(self, small_grid, uset_sym):
        u = solve(gaussian, small_grid, uset_sym)
        t, x = 0.7341, -3.217
        it = int(t / small_grid.dt)
        ft = t / small_grid.dt - it
        row = (1 - ft) * u.values[it] + ft * u.values[it + 1]
        ref = np.interp(x, small_grid.x, row)
        assert evaluate(u, t, x) == pytest.approx(ref, rel=1e-13)
        np.testing.assert_allclose(evaluate_row(u, t), row, rtol=1e-13)

    def test_out_of_rectangle(self, small_grid, uset_sym):
        u = solve(gaussian, small_grid, uset_sym)
        with pytest.raises(ValueError):
            evaluate(u, 2.0, 0.0)
        with pytest.raises(ValueError):
            evaluate(u, 0.5, 100.0)


class TestIdentityChecks:
    def test_scaling_beta_one_is_zero(self, small_grid, uset_sym):
        assert scaling_check(gaussian, 1.0, 0.5, small_grid, uset_sym) == 0.0

    def test_scaling_constant_data(self, small_grid, uset_sym):
        res = scaling_check(lambda x: np.full_like(x, 2.0), 2.0, 0.5,
                            small_grid, uset_sym)
        assert res < 1e-12

    def test_dpp_s_equals_t(self, small_grid, uset_sym):
        assert dpp_check(gaussian, 1.0, 1.0, small_grid, uset_sym) <= 1e-12

    def test_dpp_constant(self, small_grid, uset_sym):
        res = dpp_check(lambda x: np.full_like(x, 3.0), 0.25, 0.5,
                        small_grid, uset_sym)
        assert res == 0.0


def csv_text(surface):
    return b"".join(surface_to_csv(surface)).decode("ascii")


def test_csv_export_round_trip(small_grid, uset_sym):
    u = solve(gaussian, small_grid, uset_sym)
    text = csv_text(u)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x,value"
    assert len(lines) == 1 + (small_grid.nt + 1) * small_grid.nx
    # 17 significant digits reparse bit-exactly
    t, x, val = (float(tok) for tok in lines[1 + 57].split(","))
    assert (t, x, val) == (0.0, small_grid.x[57], u.values[0, 57])


def per_value_csv(surface):
    """Reference: one f-string per node (the export before row templates)."""
    g = surface.grid
    buf = io.StringIO()
    buf.write("t,x,value\n")
    times = surface.times
    xs = g.x
    for i, trow in enumerate(times):
        vals = surface.values[i]
        ts = f"{trow:.17g}"
        buf.write("\n".join(
            f"{ts},{xs[j]:.17g},{vals[j]:.17g}" for j in range(g.nx)
        ))
        buf.write("\n")
    return buf.getvalue()


def test_csv_export_matches_per_value_format(small_grid, uset_sym):
    g = Grid(-1.0, 1.0, 5, 1.0, 3, 0.1, 8.0)    # times k/3: many digits
    values = np.array([[-0.0, 0.0, 5e-324, -5e-324, 1e16],
                       [1.0 / 3.0, -1.0 / 3.0, 1e16 + 2.0, 2.0 ** -1074, 1.0],
                       [np.pi, -1e-300, 1e300, 0.1, -7.0],
                       [123456789.0, 1.5, -2.5e-8, 0.7, 0.0]])
    special = Surface(grid=g, values=values)
    assert csv_text(special) == per_value_csv(special)
    u = solve(gaussian, small_grid, uset_sym)
    assert csv_text(u) == per_value_csv(u)


def test_csv_export_spans_blocks(monkeypatch):
    """Blocks that end inside a row, on a row boundary and past the last
    value give the same text, and nothing runs before the first block
    is asked for."""
    g = Grid(-1.0, 1.0, 5, 0.3, 3, 0.1, 8.0)
    u = Surface(grid=g, values=np.random.default_rng(5).normal(size=(4, 5)))
    monkeypatch.setattr(solver_mod, "format_g17", None)
    blocks = surface_to_csv(u)          # not started: no format call yet
    monkeypatch.undo()
    whole = per_value_csv(u)
    for size in (1, 3, 5, 7, 20, 64):
        monkeypatch.setattr(solver_mod, "_CSV_BLOCK", size)
        assert csv_text(u) == whole
    monkeypatch.undo()
    assert b"".join(blocks).decode("ascii") == whole


def g17_lines(values):
    """format_g17's texts, one per line."""
    rows = format_g17(np.asarray(values, dtype=float))
    rows = np.concatenate([rows, np.full((len(rows), 1), ord("\n"),
                                         dtype=np.uint8)], axis=1)
    return rows[rows != 0].tobytes().split(b"\n")[:-1]


def assert_g17(values):
    values = np.asarray(values, dtype=float)
    got = g17_lines(values)
    want = [b"%.17g" % v for v in values.tolist()]
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want)
               if g != w]
        pytest.fail(f"{len(bad)} of {len(want)} differ, first {bad[:3]}")


def test_g17_random_bit_patterns():
    """10**6 random 64-bit patterns: every exponent, both signs and
    subnormals."""
    bits = np.random.default_rng(17).integers(0, 2 ** 64, size=1_000_000,
                                              dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert len(values) > 999_000 and (np.abs(values) < 2.3e-308).any()
    assert_g17(values)


def g17_edge_values():
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             1e16, 1e17, 1e-280, 1e280]
    edges += [10.0 ** k for k in range(-5, 18)]
    edges += [float(f"1e{k}") for k in range(-323, 309)]
    near = []
    with np.errstate(over="ignore"):    # above the largest double: inf
        for x in edges:
            near += [x, np.nextafter(x, np.inf), np.nextafter(x, 0.0),
                     np.nextafter(np.nextafter(x, 0.0), 0.0)]
    # just below 10**k: the 17-digit rounding carries into a new digit
    near += [9.9999999999999999 * 10.0 ** k for k in range(-6, 18)]
    # exact ties at the 18th digit, which round half to even
    near += [1000000000000000.25, 1000000000000000.75, 100000000000000.125,
             100000000000000.375, 1e15 + 0.5, 2.0 ** 53 + 1.0,
             3.0 / 2 ** 24, 12345678901234565 * 1e-16]
    return np.array(near)[np.isfinite(near)]


def test_g17_edge_values():
    values = g17_edge_values()
    assert_g17(np.concatenate([values, -values]))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_g17_matches_percent_format(values):
    assert_g17(values)


def test_row_zero_equals_psi_samples(small_grid, uset_sym):
    u = solve(gaussian, small_grid, uset_sym)
    assert np.all(u.values[0] == gaussian(small_grid.x))
