"""Forward marching, interpolation, and the consistency checks."""

import io
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlstable import checker
from nlstable import solver as solver_mod
from nlstable.kernels import (Grid, KernelPair, NumericalError, Surface,
                              UncertaintySet, middle_half,
                              scheme_stability_constant)
from nlstable.solver import (
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


def test_constant_preserved_exactly(small_grid, uset_sym):
    u = solve_forward(lambda x: np.full_like(x, 5.0), small_grid, uset_sym)
    assert np.max(np.abs(u.values - 5.0)) < 1e-12


def last_two(grid):
    """The rows that the value at t_max reads."""
    return (grid.nt - 1, grid.nt)


def both_marches(psi, grid, uset):
    """The march that stores every row, then one that stores two."""
    return (lambda: solve_forward(psi, grid, uset),
            lambda: solve_forward(psi, grid, uset, rows=last_two(grid)))


def test_cfl_violation_refused(uset_sym):
    g = Grid(-20.0, 20.0, 401, 1.0, 2, 0.1, 160.0)  # nt=2 is far too coarse
    for march in both_marches(gaussian, g, uset_sym):
        with pytest.raises(NumericalError, match="nt >=") as exc:
            march()
        assert exc.value.field == "safety"


def test_non_finite_march_refused(small_grid, uset_sym):
    """Finite +-1e308 samples overflow in the first step; both marches
    refuse them at that step and name the knobs."""
    def psi(x):
        return np.where(np.arange(np.size(x)) % 2 == 0, 1e308, -1e308)

    messages = []
    for march in both_marches(psi, small_grid, uset_sym):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError,
                              match="pide_solver.safety") as exc:
            march()
        assert exc.value.field == "safety"
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "non-finite values at step 1 of" in messages[0]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_psi_refused(small_grid, uset_sym, bad):
    """psi is sampled on the grid before the march; a non-finite sample
    is refused by both marches."""
    def psi(x):
        return np.where(x > 1.0, bad, gaussian(x))

    for march in both_marches(psi, small_grid, uset_sym):
        with pytest.raises(ValueError,
                           match="^psi produced non-finite samples$"):
            march()


def test_non_finite_row_stops_the_march(small_grid, uset_sym, monkeypatch):
    """Each row is checked as the march makes it: a generator that turns
    NaN on its third call stops every march there, at step 3."""
    calls = []
    apply = solver_mod.apply_sup_generator_row

    def nan_from_third_call(u, grid, uset):
        calls.append(grid)
        out = apply(u, grid, uset)
        return out if len(calls) < 3 else np.full_like(out, np.nan)

    monkeypatch.setattr(solver_mod, "apply_sup_generator_row",
                        nan_from_third_call)
    marches = (*both_marches(gaussian, small_grid, uset_sym),
               lambda: dpp_check(gaussian, 0.25, 0.5, small_grid, uset_sym))
    for march in marches:
        calls.clear()
        with pytest.raises(NumericalError,
                           match="pide_solver.safety") as exc:
            march()
        assert exc.value.field == "safety"
        assert f"non-finite values at step 3 of {small_grid.nt} " \
            in str(exc.value)
        assert len(calls) == 3


def test_cfl_report_consistent(small_grid, uset_sym):
    """make_grid takes the fewest steps whose dt meets the stability
    bound with its default safety factor 0.5."""
    c = scheme_stability_constant(small_grid, uset_sym)
    dt_max = 0.5 / c
    assert c > 0.0
    assert small_grid.dt <= dt_max * (1.0 + 1e-12)
    assert small_grid.t_max / (small_grid.nt - 1) > dt_max


def test_maximum_principle(small_grid, uset_sym):
    u = solve_forward(gaussian, small_grid, uset_sym)
    assert np.max(np.abs(u.values)) <= 1.0 + 1e-12


def test_comparison(small_grid, uset_sym):
    u1 = solve_forward(gaussian, small_grid, uset_sym)
    u2 = solve_forward(lambda x: gaussian(x) + 0.25 * np.cos(x), small_grid,
                       uset_sym)
    assert np.all(u1.values <= u2.values + 0.25 + 1e-12)
    u3 = solve_forward(lambda x: gaussian(x) + 0.1, small_grid, uset_sym)
    assert np.all(u3.values >= u1.values - 1e-12)


def test_lipschitz_not_amplified(small_grid, uset_sym):
    u = solve_forward(gaussian, small_grid, uset_sym)
    lip_psi = np.sqrt(2.0 / np.e)
    mid = middle_half(small_grid.nx)
    lip = np.max(np.abs(np.diff(u.values[:, mid], axis=1))) / small_grid.dx
    assert lip <= lip_psi * 1.05


def test_sublinearity_and_homogeneity(small_grid, uset_sym):
    psi1, psi2 = gaussian, lambda x: 1.0 / (1.0 + x ** 2)
    u1 = solve_forward(psi1, small_grid, uset_sym)
    u2 = solve_forward(psi2, small_grid, uset_sym)
    u12 = solve_forward(lambda x: psi1(x) + psi2(x), small_grid, uset_sym)
    assert np.all(u12.values <= u1.values + u2.values + 1e-10)
    u3 = solve_forward(lambda x: 3.0 * psi1(x), small_grid, uset_sym)
    np.testing.assert_allclose(u3.values, 3.0 * u1.values,
                               rtol=1e-13, atol=1e-13)


def test_minus_psi_sublinearity(small_grid, uset_sym):
    u = solve_forward(gaussian, small_grid, uset_sym)
    um = solve_forward(lambda x: -gaussian(x), small_grid, uset_sym)
    assert np.all(um.values >= -u.values - 1e-12)


def test_backward_is_time_reversed_forward(uset_sym):
    """The checker reads the terminal-value solution as the forward
    surface in reverse, as a view: no second surface is allocated."""
    h = 0.25
    grid = make_grid(-20.0, 20.0, 401, 1.0 + h, uset_sym)
    u = solve_forward(gaussian, grid, uset_sym)
    v = checker._reversed(u)
    assert v.grid == grid and np.shares_memory(v.values, u.values)
    # v(t, x) = u(1 + h - t, x), exact in floating arithmetic
    assert np.max(np.abs(v.values - u.values[::-1])) < 1e-14
    assert np.max(np.abs(evaluate_row(v, grid.dt) - u.values[-2])) < 1e-14
    # stored rows i of u are rows nt - i of v
    part = solve_forward(gaussian, grid, uset_sym,
                         rows=(0, grid.nt - 1, grid.nt))
    vp = checker._reversed(part)
    assert vp.rows == (0, 1, grid.nt)
    for i in vp.rows:
        assert np.array_equal(vp.row(i), v.row(i))


def test_odd_data_symmetric_kernel_fixes_origin(uset_sym):
    grid = make_grid(-20.0, 20.0, 401, 0.5, uset_sym)
    u = solve_forward(lambda x: np.tanh(x), grid, uset_sym)
    assert np.max(np.abs(u.values[:, grid.nx // 2])) < 1e-12


class TestEvaluate:
    def test_exact_at_nodes(self, small_grid, uset_sym):
        u = solve_forward(gaussian, small_grid, uset_sym)
        i, j = 3, 57
        t = i * small_grid.dt
        x = small_grid.x[j]
        assert evaluate(u, t, x) == pytest.approx(u.values[i, j],
                                                  rel=0, abs=1e-15)

    def test_affine_midpoint(self, small_grid):
        vals = np.tile(2.0 * small_grid.x + 1.0, (small_grid.nt + 1, 1))
        s = Surface(grid=small_grid, values=vals,
                    rows=range(small_grid.nt + 1))
        xm = 0.5 * (small_grid.x[10] + small_grid.x[11])
        assert evaluate(s, 0.0, xm) == pytest.approx(2.0 * xm + 1.0, rel=1e-14)

    def test_matches_reference_interpolator(self, small_grid, uset_sym):
        u = solve_forward(gaussian, small_grid, uset_sym)
        t, x = 0.7341, -3.217
        it = int(t / small_grid.dt)
        ft = t / small_grid.dt - it
        row = (1 - ft) * u.values[it] + ft * u.values[it + 1]
        ref = np.interp(x, small_grid.x, row)
        assert evaluate(u, t, x) == pytest.approx(ref, rel=1e-13)
        np.testing.assert_allclose(evaluate_row(u, t), row, rtol=1e-13)


TWO_PAIRS = UncertaintySet(1.5, (KernelPair(1.0, 1.0), KernelPair(2.0, 0.5)),
                           0.05, 4.0)

# a grid whose t_max / dt is 92.99999999999999 < nt, so the value at
# t_max blends the rows nt - 1 and nt
BLEND_GRID = Grid(-20.0, 20.0, 201, 1.0, 93, 0.2, 160.0)


class TestFinalValue:
    """The value at t_max read off a march that stores its last two rows
    is the whole surface's, bit for bit."""

    @pytest.mark.parametrize("uset", [
        pytest.param(None, id="singleton"),
        pytest.param(TWO_PAIRS, id="two-pair"),
    ])
    @pytest.mark.parametrize("grid", [
        pytest.param(None, id="make_grid"),
        pytest.param(BLEND_GRID, id="nt93-blend"),
    ])
    def test_matches_the_surface(self, small_grid, uset_sym, uset, grid):
        uset = uset or uset_sym
        grid = grid or small_grid
        def psi(x):
            return np.exp(-(x - 0.3) ** 2)

        surface = solve_forward(psi, grid, uset)
        two = solve_forward(psi, grid, uset, rows=last_two(grid))
        assert two.values.shape == (2, grid.nx)
        for x in (0.0, -3.217, grid.x[57], grid.x_max):
            assert evaluate(two, grid.t_max, x) \
                == evaluate(surface, grid.t_max, x)

    def test_blend_grid_reads_both_rows(self):
        g = BLEND_GRID
        assert g.t_max / g.dt == 92.99999999999999 < g.nt


class TestStoredRows:
    """A march that stores some rows stores them bit for bit as the whole
    surface does, and refuses a read of any other row."""

    def test_rows_are_indexed_not_positional(self, small_grid, uset_sym):
        rows = (0, 3, 4, small_grid.nt)
        u = solve_forward(gaussian, small_grid, uset_sym)
        part = solve_forward(gaussian, small_grid, uset_sym, rows=rows)
        assert part.rows == rows and part.values.shape == (4, small_grid.nx)
        for i in rows:
            assert np.array_equal(part.row(i), u.values[i])
        np.testing.assert_array_equal(part.times, u.times[list(rows)])
        t = 3.5 * small_grid.dt
        assert np.array_equal(evaluate_row(part, t), evaluate_row(u, t))

    def test_default_stores_every_row(self, small_grid, uset_sym):
        """Without rows the march stores range(nt + 1), and each row reads
        back as the march made it."""
        g = small_grid
        u = solve_forward(gaussian, g, uset_sym)
        assert u.rows == range(g.nt + 1)
        marched = list(solver_mod._march_rows(gaussian(g.x), g, uset_sym))
        assert len(marched) == g.nt + 1
        for i, row in enumerate(marched):
            assert np.array_equal(u.row(i), row)
        np.testing.assert_array_equal(u.times, g.dt * np.arange(g.nt + 1))

    def test_unstored_row_raises(self, small_grid, uset_sym):
        """No read falls back to a neighbouring stored row."""
        part = solve_forward(gaussian, small_grid, uset_sym, rows=(0, 3, 4))
        for i in (1, 2, 5, small_grid.nt, -1):
            with pytest.raises(IndexError, match=f"row {i} "):
                part.row(i)
        with pytest.raises(IndexError, match="row 1 "):
            evaluate_row(part, 0.5 * small_grid.dt)
        with pytest.raises(IndexError, match="not stored"):
            evaluate(part, small_grid.t_max, 0.0)
        full = Surface(small_grid, np.zeros((small_grid.nt + 1,
                                             small_grid.nx)),
                       range(small_grid.nt + 1))
        for i in (-1, small_grid.nt + 1):
            with pytest.raises(IndexError, match="not stored"):
                full.row(i)


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
    u = solve_forward(gaussian, small_grid, uset_sym)
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
    special = Surface(grid=g, values=values, rows=range(4))
    assert csv_text(special) == per_value_csv(special)
    u = solve_forward(gaussian, small_grid, uset_sym)
    assert csv_text(u) == per_value_csv(u)


def test_csv_export_spans_blocks(monkeypatch):
    """Blocks of whole rows give the same text whatever their size: one
    row a block (a block size below nx, at nx, or not a multiple of
    nx), every row in one block, and a block past the last row; and
    nothing runs before the first block is asked for."""
    g = Grid(-1.0, 1.0, 5, 0.3, 3, 0.1, 8.0)
    u = Surface(grid=g, values=np.random.default_rng(5).normal(size=(4, 5)),
                rows=range(4))
    monkeypatch.setattr(solver_mod, "format_g17", None)
    blocks = surface_to_csv(u)          # not started: no format call yet
    monkeypatch.undo()
    whole = per_value_csv(u)
    for size in (1, 3, 5, 7, 20, 64):
        monkeypatch.setattr(solver_mod, "_CSV_BLOCK", size)
        assert csv_text(u) == whole
    monkeypatch.undo()
    assert b"".join(blocks).decode("ascii") == whole


def random_surface(n_rows, nx):
    """n_rows random rows; a one-row surface stores only row 2 of 4."""
    g = Grid(-1.0, 1.0, nx, 0.7, n_rows - 1 if n_rows > 1 else 3, 0.1, 8.0)
    return Surface(grid=g, rows=(2,) if n_rows == 1 else range(n_rows),
                   values=np.random.default_rng(3).normal(size=(n_rows, nx)))


@pytest.mark.parametrize("n_rows,nx,block", [
    (3, 37, 16),        # nx > _CSV_BLOCK: one row a block
    (7, 11, 33),        # three rows a block, the last block one row
    (1, 23, 8),         # a one-row surface, one row a block
    (1, 23, 64),        # a one-row surface in one block
])
def test_csv_export_whole_row_blocks(monkeypatch, n_rows, nx, block):
    monkeypatch.setattr(solver_mod, "_CSV_BLOCK", block)
    u = random_surface(n_rows, nx)
    blocks = list(surface_to_csv(u))
    assert len(blocks) == 1 + -(-n_rows // max(1, block // nx))
    assert all(b.count(b"\n") % nx == 0 for b in blocks[1:])
    assert b"".join(blocks).decode("ascii") == per_value_csv(u)


def count_format_calls(monkeypatch, fail_at=None):
    """Wrap format_g17 to count its calls, raising on call fail_at."""
    calls = []

    def counted(values):
        calls.append(1)
        if len(calls) == fail_at:
            raise RuntimeError("format failed")
        return format_g17(values)

    monkeypatch.setattr(solver_mod, "format_g17", counted)
    return calls


def test_csv_export_close_joins_workers(monkeypatch):
    monkeypatch.setattr(solver_mod, "_CSV_BLOCK", 5)
    start = threading.active_count()
    blocks = surface_to_csv(random_surface(20, 5))
    next(blocks)                        # the header
    next(blocks)                        # the first block: workers running
    assert threading.active_count() > start
    blocks.close()
    assert threading.active_count() == start


def test_csv_export_worker_error_raises(monkeypatch):
    monkeypatch.setattr(solver_mod, "_CSV_BLOCK", 5)
    count_format_calls(monkeypatch, fail_at=3)
    start = threading.active_count()
    with pytest.raises(RuntimeError, match="format failed"):
        b"".join(surface_to_csv(random_surface(20, 5)))
    assert threading.active_count() == start


def test_csv_export_bounds_blocks_in_flight(monkeypatch):
    """After k blocks are written, at most k + workers + 1 have been
    formatted."""
    monkeypatch.setattr(solver_mod, "_CSV_BLOCK", 5)
    calls = count_format_calls(monkeypatch)
    blocks = surface_to_csv(random_surface(20, 5))
    next(blocks)                        # the header
    for k in range(1, 21):
        next(blocks)
        assert len(calls) <= k + solver_mod._CSV_WORKERS + 1
    assert next(blocks, None) is None and len(calls) == 20


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
    u = solve_forward(gaussian, small_grid, uset_sym)
    assert np.all(u.values[0] == gaussian(small_grid.x))
