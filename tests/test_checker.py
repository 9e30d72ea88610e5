"""Attraction-condition residuals and the classical bound groups."""

import pathlib

import numpy as np
import pytest

from nlstable import cli
from nlstable import config as config_mod
from nlstable.kernels import (KernelPair, NumericalError, Surface,
                              UncertaintySet, band_bins, middle_half)
from nlstable.laws import AttractedLaw, beta2_prime, build_law, tail_deviation
from nlstable.engine import NormalizedSumSpec
from nlstable.regularity import middle_bounds
from nlstable.solver import make_grid, solve_forward
from nlstable.checker import (
    check_condition_iii,
    classical_term_bounds,
    condition_iii_rows,
    example_41_check,
    example_41_rows,
    fit_rate,
    _condition_iii_residual,
    _reversed,
    _sampled_rows,
)

from conftest import gaussian, singleton_set

ALPHA = 1.5
H = 0.25
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def delta_increment(v: Surface, t: float, x: float, y: float) -> float:
    """v(t, x+y) - v(t,x) - dv/dx(t,x) * y with a centered difference
    derivative and constant extension beyond the spatial window."""
    g = v.grid
    i = int(round(t / g.dt))
    if not (0 <= i <= g.nt):
        raise ValueError(f"t={t} outside surface range")
    row = v.values[i]
    xs = np.clip([x + y, x, x - g.dx, x + g.dx], g.x_min, g.x_max)
    vals = np.interp(xs, g.x, row)
    vx = (vals[3] - vals[2]) / (2.0 * g.dx)
    return float(vals[0] - vals[1] - vx * y)


def residual_pieces(law: AttractedLaw, v: Surface, n: int, t: float,
                    x: float) -> tuple[float, float, float, float]:
    """Direct quadrature of the four positive-side residual pieces at
    one (t, x); each is bounded by the matching classical_term_bounds
    group.  Intended for spot checks, not for sweeps."""
    alpha = law.alpha
    b_n = NormalizedSumSpec(n, law.b_scale, alpha).B_n
    scale = law.b_scale ** (-alpha)

    def weight_full(z):
        u = z / b_n
        return (-beta2_prime(law, u) * u + alpha * tail_deviation(law, u)) \
            / z ** (alpha + 1.0)

    def piece(z_lo, z_hi, w_fn):
        # below one grid cell the interpolated increment is linear in z
        # and measures nothing but interpolation noise; start there
        z_lo = max(z_lo, v.grid.dx)
        if z_hi <= z_lo:
            return 0.0
        z = np.geomspace(z_lo, z_hi, 4001)
        d = np.array([delta_increment(v, t, x, zi) for zi in z])
        return abs(float(np.trapezoid(d * w_fn(z), z))) * scale

    top = b_n * law.z0
    p1 = piece(1.0, max(top, 1.0), weight_full)
    p2 = piece(0.0, min(b_n, top), weight_full)
    p3 = piece(b_n, min(1.0, top),
               lambda z: alpha * tail_deviation(law, z / b_n)
               / z ** (alpha + 1.0))
    p4 = piece(b_n, min(1.0, top),
               lambda z: -beta2_prime(law, z / b_n) * (z / b_n)
               / z ** (alpha + 1.0))
    return (p1, p2, p3, p4)


@pytest.fixture(scope="module")
def uset():
    return singleton_set()


@pytest.fixture(scope="module")
def family(uset):
    return (build_law(uset.pairs[0], ALPHA, 1.0, 2.0),)


@pytest.fixture(scope="module")
def grid(uset):
    return make_grid(-20.0, 20.0, 401, 1.0 + H, uset)


def backward(psi, grid, uset):
    """The terminal-value solution v(t) = u(t_max - t), as the checker
    reads it."""
    return _reversed(solve_forward(psi, grid, uset))


def sampled(v):
    """The rows of v at the checker's sampled times."""
    return [v.values[i] for i in _sampled_rows(v.grid)]


@pytest.fixture(scope="module")
def v_surface(grid, uset):
    return backward(gaussian, grid, uset)


@pytest.fixture(scope="module")
def m1(v_surface):
    return max(middle_bounds(np.asarray(sampled(v_surface)),
                             v_surface.grid.dx))


class TestDeltaIncrement:
    def test_zero_jump(self, v_surface):
        assert delta_increment(v_surface, 0.5, 1.0, 0.0) == 0.0

    def test_affine_surface(self, grid):
        vals = np.tile(3.0 - 2.0 * grid.x, (grid.nt + 1, 1))
        s = Surface(grid=grid, values=vals, rows=range(grid.nt + 1))
        assert abs(delta_increment(s, 0.0, 1.0, 2.5)) < 1e-12

    def test_quadratic_surface_second_order_identity(self, grid):
        vals = np.tile(grid.x ** 2, (grid.nt + 1, 1))
        s = Surface(grid=grid, values=vals, rows=range(grid.nt + 1))
        y = 0.7
        # centered differences are exact on quadratics, so the
        # compensated increment is exactly y^2
        assert delta_increment(s, 0.0, 1.0, y) == pytest.approx(y ** 2,
                                                                rel=1e-10)


def fine_and_coarse(uset, psi, t_max=1.0 + H, nx=201):
    """Forward surfaces of psi on a grid and on its half-resolution
    copy, both with default settings."""
    return tuple(solve_forward(psi, make_grid(-20.0, 20.0, n, t_max, uset),
                               uset) for n in (nx, (nx - 1) // 2 + 1))


class TestConditionIII:
    def test_constant_psi_zero_residuals(self, family, uset):
        table = check_condition_iii(
            family, *fine_and_coarse(uset, lambda x: np.full_like(x, 2.0)),
            (4, 8))
        assert max(table.residuals) < 1e-10

    def test_residual_invariant_under_constant_shift(self, family, uset):
        t1 = check_condition_iii(family, *fine_and_coarse(uset, gaussian),
                                 (4, 8))
        t2 = check_condition_iii(
            family, *fine_and_coarse(uset, lambda x: gaussian(x) + 3.0),
            (4, 8))
        np.testing.assert_allclose(t1.residuals, t2.residuals,
                                   rtol=1e-8, atol=1e-12)

    def test_requires_covering_horizon(self, family, uset):
        surfaces = fine_and_coarse(uset, gaussian, t_max=0.5)
        with pytest.raises(IndexError, match="not stored"):
            check_condition_iii(family, *surfaces, (4, 8))

    def test_floor_compares_matching_times(self, family, uset):
        """The floor is |r(fine rows) - r(coarse surface linearly
        interpolated at the fine rows' times)|.  The coarse grid's own
        sampled rows sit at other times, so their residual differs."""
        u, u_c = fine_and_coarse(uset, gaussian)
        v, v_c = _reversed(u), _reversed(u_c)
        g, gc = v.grid, v_c.grid
        coarse = []
        for i in _sampled_rows(g):
            p = i * g.dt / gc.dt
            k = min(int(p), gc.nt - 1)
            coarse.append((1.0 - (p - k)) * v_c.values[k]
                          + (p - k) * v_c.values[k + 1])
        table = check_condition_iii(family, u, u_c, (4, 8))
        for n, floor in zip((4, 8), table.floor):
            r = _condition_iii_residual(family, sampled(v), g, n)
            want = abs(r - _condition_iii_residual(family, coarse, gc, n))
            own = abs(r - _condition_iii_residual(family, sampled(v_c), gc,
                                                  n))
            assert floor == pytest.approx(want, rel=1e-12, abs=1e-16)
            assert abs(floor - own) > 1e-3 * floor

    @pytest.mark.parametrize("alpha,z0", [(1.25, 4.0), (1.75, 2.0)])
    def test_rate_matches_theory_across_alpha(self, alpha, z0):
        """The fitted rate is within 0.05 of 1 - 2/alpha away from the
        bundled alpha = 1.5 (z0 = 4 keeps the alpha = 1.25 law's
        interior density positive)."""
        uset = singleton_set(alpha=alpha)
        family = (build_law(uset.pairs[0], alpha, 1.0, z0),)
        table = check_condition_iii(family,
                                    *fine_and_coarse(uset, gaussian, nx=801),
                                    (16, 32, 64, 128, 256))
        assert all(table.kept)
        assert abs(table.fitted_rate - (1.0 - 2.0 / alpha)) <= 0.05

    @pytest.mark.parametrize("coarse", [False, True], ids=["fine", "coarse"])
    def test_sampled_rows_reach_t_one(self, coarse):
        """Both grids of the bundled condition-(iii) config (1601 and 801
        nodes) sample their last row at or before t = 1, where the
        residual peaks."""
        cfg = config_mod.load(str(CONFIGS / "hypothesis_condition_iii.json"))
        # the grid the CLI marches on, without the march
        _, g, _ = cli._march_inputs(cfg, cfg.psi_functions()[0], 1.0 + cfg.h,
                                    cfg.coarse_nx if coarse else None)
        rows = _sampled_rows(g)
        assert g.nx == (801 if coarse else 1601)
        assert 1.0 - g.dt < rows[-1] * g.dt <= 1.0 + 1e-12

    def test_csv_export(self):
        text = cli.table_to_csv("n,residual,rate_fit,term1,term2,term3,term4",
                            [(4, 0.2, -1.0, 1.0, 2.0, 3.0, 4.0)])
        lines = text.strip().split("\n")
        assert lines[0] == "n,residual,rate_fit,term1,term2,term3,term4"
        assert lines[1] == "4,0.20000000000000001,-1,1,2,3,4"


_GL_Y, _GL_W = np.polynomial.legendre.leggauss(96)


def reference_residual(family, uset, v, n, n_bins=192):
    """Per-bin np.interp evaluation of the condition-(iii) residual, one
    interpolation call per quadrature node and sampled row."""
    g = v.grid
    alpha = uset.alpha
    z0 = family[0].z0
    b_n = NormalizedSumSpec(n, family[0].b_scale, alpha).B_n
    r_split = b_n * z0
    mid = middle_half(g.nx)
    xm = g.x[mid]

    z_big = 2.0 * (g.x_max - g.x_min)
    masses, cents = band_bins(r_split, z_big, n_bins, alpha)
    far_mass = z_big ** (-alpha) / alpha
    far_cent = (z_big ** (1.0 - alpha) / (alpha - 1.0)) / far_mass
    masses = np.concatenate([masses, [far_mass]])
    cents = np.concatenate([cents, [far_cent]])

    r_in = min(g.dx, r_split)
    if r_split > r_in * (1.0 + 1e-12):
        in_m, in_c = band_bins(r_in, r_split, n_bins // 2, alpha)
    else:
        in_m = in_c = np.empty(0)

    gl = 0.5 * z0 * (_GL_Y + 1.0)
    gw = 0.5 * z0 * _GL_W

    worst = 0.0
    for row in sampled(v):
        vx = np.gradient(row, g.dx)
        vxx = np.zeros_like(row)
        vxx[1:-1] = (row[2:] - 2.0 * row[1:-1] + row[:-2]) / g.dx**2
        vxxx = np.zeros_like(row)
        vxxx[2:-2] = (row[4:] - 2.0 * row[3:-1] + 2.0 * row[1:-3]
                      - row[:-4]) / (2.0 * g.dx**3)
        rm, vxm = row[mid], vx[mid]
        vxxm, vxxxm = vxx[mid], vxxx[mid]

        def delta_at(shift):
            return np.interp(xm + shift, g.x, row) - rm - vxm * shift

        t_plus = np.zeros_like(xm)
        t_minus = np.zeros_like(xm)
        for m_b, c_b in zip(masses, cents):
            t_plus += m_b * delta_at(c_b)
            t_minus += m_b * delta_at(-c_b)
        in_plus = np.zeros_like(xm)
        in_minus = np.zeros_like(xm)
        for m_b, c_b in zip(in_m, in_c):
            in_plus += m_b * delta_at(c_b)
            in_minus += m_b * delta_at(-c_b)

        kern, law_side = [], []
        sig2 = r_in ** (2.0 - alpha) / (2.0 - alpha)
        sig3 = r_in ** (3.0 - alpha) / (3.0 - alpha)
        for pair in uset.pairs:
            small = 0.5 * vxxm * (pair.k_minus + pair.k_plus) * sig2 \
                + vxxxm / 6.0 * (pair.k_plus - pair.k_minus) * sig3
            kern.append(small + pair.k_plus * (t_plus + in_plus)
                        + pair.k_minus * (t_minus + in_minus))
        c_scale = family[0].b_scale ** alpha
        for law, pair in zip(family, uset.pairs):
            wp, wm = gw * law.density(gl), gw * law.density(-gl)
            acc = np.zeros_like(xm)
            for y_q, w_p, w_m in zip(gl, wp, wm):
                s = b_n * y_q
                if s <= g.dx:
                    d_even = vxxm * s**2
                    d_odd = vxxxm / 3.0 * s**3
                    acc += 0.5 * (w_p + w_m) * d_even \
                        + 0.5 * (w_p - w_m) * d_odd
                else:
                    acc += w_p * delta_at(s) + w_m * delta_at(-s)
            law_side.append(n * acc + c_scale * (pair.k_plus * t_plus
                                                 + pair.k_minus * t_minus)
                            * n * b_n ** alpha)
        resid = np.abs(np.max(law_side, axis=0) - np.max(kern, axis=0))
        worst = max(worst, float(np.max(resid)))
    return worst


@pytest.fixture(scope="module")
def asym_case():
    uset = UncertaintySet(ALPHA, (KernelPair(0.09, 0.13),
                                  KernelPair(0.12, 0.08)), 0.05, 0.15)
    family = tuple(build_law(p, ALPHA, 1.0, 2.0) for p in uset.pairs)
    grid = make_grid(-20.0, 20.0, 201, 1.0 + H, uset)
    return family, uset, backward(gaussian, grid, uset)


class TestResidualKernels:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_matches_per_bin_interp(self, asym_case, n):
        """The ShiftKernel residual against the per-node np.interp
        reference on an asymmetric two-pair set."""
        family, uset, v = asym_case
        got = _condition_iii_residual(family, sampled(v), v.grid, n)
        ref = reference_residual(family, uset, v, n)
        assert got == pytest.approx(ref, rel=1e-11)


class TestClassicalBounds:
    def test_group_one_vanishes_once_tails_align(self, family, m1):
        # B_n^{-1} = n^{2/3} >= z0 from n = 3 on: beta2 is identically
        # zero on the whole bound range, so the group is exactly 0
        law = family[0]
        g1, g2, g3, g4 = classical_term_bounds(law, m1, 8)
        assert g1 == 0.0
        assert g2 > 0.0

    def test_group_two_exact_ratio(self, family, m1):
        law = family[0]
        n = 8
        _, g2_n, _, _ = classical_term_bounds(law, m1, n)
        _, g2_4n, _, _ = classical_term_bounds(law, m1, 4 * n)
        assert g2_4n / g2_n == pytest.approx(4.0 ** (1.0 - 2.0 / ALPHA),
                                             rel=1e-12)

    def test_groups_bound_measured_pieces(self, family, v_surface, m1):
        """Direct quadrature of the four split residual pieces stays
        below the matching bound group at a sample (t, x)."""
        law = family[0]
        n = 2  # B_n z0 > 1 so every piece has a nonempty range
        groups = classical_term_bounds(law, m1, n)
        pieces = residual_pieces(law, v_surface, n, 0.5, 0.7)
        for piece, group in zip(pieces, groups):
            assert piece <= group + 1e-12


class TestFitRate:
    def test_keeps_values_above_three_floors(self):
        # 0.375 is exactly 3 x 0.125, so it is dropped
        kept, rate = fit_rate((4, 8, 16), (1.0, 0.375, 0.25),
                              (0.3, 0.125, 0.0))
        assert kept == (True, False, True)
        assert rate == pytest.approx(-1.0, rel=1e-12)

    def test_fewer_than_two_kept_is_nan(self):
        kept, rate = fit_rate((4, 8), (1.0, 0.1), (0.0, 0.1))
        assert kept == (True, False)
        assert np.isnan(rate)

    def test_zero_floors_keep_every_positive_value(self):
        kept, rate = fit_rate((4, 8, 16), (1.0, 0.0, 0.25), (0.0,) * 3)
        assert kept == (True, False, True)
        assert rate == pytest.approx(-1.0, rel=1e-12)


class TestExample41:
    def test_constant_psi(self, uset):
        g = make_grid(-20.0, 20.0, 201, 1.0 + H, uset)
        table = example_41_check(
            solve_forward(lambda x: np.full_like(x, 1.0), g, uset), (4, 8))
        assert max(table.residuals) < 1e-10

    def test_monotone_decay_and_negative_rate(self, uset):
        g = make_grid(-20.0, 20.0, 401, 1.0 + H, uset)
        table = example_41_check(solve_forward(gaussian, g, uset),
                                 (8, 16, 32))
        r = table.residuals
        assert r[1] < r[0] and r[2] < r[1]
        assert table.fitted_rate < 0.0

    def test_requires_covering_horizon(self, uset):
        """Rows up to t = 1 do not exist on a shorter surface."""
        g = make_grid(-20.0, 20.0, 201, 0.5, uset)
        with pytest.raises(IndexError, match="not stored"):
            example_41_check(solve_forward(gaussian, g, uset), (8, 16))


@pytest.fixture(scope="module")
def small_grids(uset):
    """A fine grid whose dt (1/120) exceeds 1/n for n > 120, and its
    half-resolution copy."""
    return (make_grid(-20.0, 20.0, 201, 1.0 + H, uset),
            make_grid(-20.0, 20.0, 101, 1.0 + H, uset))


def rows_read(monkeypatch):
    """Record, per grid, the forward row of every ``Surface.row`` read."""
    read = {}
    row = Surface.row

    def spy(surface, i):
        out = row(surface, i)    # a read that is not stored raises first
        g = surface.grid
        read.setdefault(g, set()).add(g.nt - i)   # v's row i is u's nt - i
        return out

    monkeypatch.setattr(Surface, "row", spy)
    return read


N_VALUES = [(4, 8), (2, 16, 64), (100, 128, 512, 2048)]
# example_41 refuses an n with 1/n within one step (n >= 120 here)
EXAMPLE_41_N_VALUES = [*N_VALUES[:2], (25, 50, 100)]


class TestStoredRows:
    """Each check reads exactly the forward rows its plan names, so
    surfaces that store only those give the table of whole surfaces."""

    @pytest.mark.parametrize("n_values", N_VALUES)
    def test_condition_iii(self, family, uset, small_grids, n_values,
                           monkeypatch):
        g, gc = small_grids
        rows, rows_c = condition_iii_rows(g, gc)
        full = check_condition_iii(family, solve_forward(gaussian, g, uset),
                                   solve_forward(gaussian, gc, uset), n_values)
        read = rows_read(monkeypatch)
        part = check_condition_iii(family,
                                   solve_forward(gaussian, g, uset, rows),
                                   solve_forward(gaussian, gc, uset, rows_c),
                                   n_values)
        assert part == full
        assert read == {g: set(rows), gc: set(rows_c)}

    @pytest.mark.parametrize("n_values", EXAMPLE_41_N_VALUES)
    def test_example_41(self, uset, small_grids, n_values, monkeypatch):
        g, _ = small_grids
        rows = example_41_rows(g, n_values)
        full = example_41_check(solve_forward(gaussian, g, uset), n_values)
        read = rows_read(monkeypatch)
        part = example_41_check(solve_forward(gaussian, g, uset, rows),
                                n_values)
        assert part == full
        assert read == {g: set(rows)}

    def test_example_41_refuses_n_within_one_step(self, small_grids):
        """At n >= 1/dt, v(t - 1/n) blends rows i - 1 and i, and the
        residual is only rounding: refused before any march."""
        g, _ = small_grids
        with pytest.raises(NumericalError) as exc:
            example_41_rows(g, N_VALUES[2])
        assert exc.value.field == "n_values"

    def test_a_row_missing_from_the_plan_raises(self, family, uset,
                                                small_grids):
        """No check falls back to a neighbouring stored row."""
        g, gc = small_grids
        rows, rows_c = condition_iii_rows(g, gc)
        with pytest.raises(IndexError, match="not stored"):
            check_condition_iii(family, solve_forward(gaussian, g, uset, rows),
                                solve_forward(gaussian, gc, uset, rows_c[1:]),
                                (4, 8))
        # the rows for n = 4 miss those that n = 512 reads near t = 0
        with pytest.raises(IndexError, match="not stored"):
            example_41_check(solve_forward(gaussian, g, uset,
                                           example_41_rows(g, (4,))),
                             (4, 512))
