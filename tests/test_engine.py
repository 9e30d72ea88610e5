"""Nested-supremum dynamic program for normalized sums."""

import pathlib
import tracemalloc

import numpy as np
import pytest
from scipy.signal import fftconvolve

from nlstable import cli, config, engine
from nlstable.config import ExperimentConfig
from nlstable.kernels import Grid, KernelPair, NumericalError, UncertaintySet
from nlstable.laws import build_law, law_nodes
from nlstable.engine import (
    DP_REACH,
    NormalizedSumSpec,
    convergence_table,
    nested_sum_expectation,
)

from conftest import dense_interp_sum, gaussian, law_expectation

ALPHA = 1.5
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def make_family(pairs, alpha=ALPHA, z0=2.0, lam=0.05, big=4.0):
    """One law per pair of a valid uncertainty set."""
    uset = UncertaintySet(alpha, tuple(KernelPair(*p) for p in pairs),
                          lam, big)
    return tuple(build_law(p, alpha, 1.0, z0) for p in uset.pairs)


@pytest.fixture(scope="module")
def fam_sym():
    return make_family([(1.0, 1.0)])


@pytest.fixture(scope="module")
def fam_small():
    # low-intensity pairs keep the DP grid small in the escape check
    return make_family([(0.1, 0.1), (0.12, 0.12)])


def dp_grid(half=320.0, dx=0.1):
    n = int(round(half / dx))
    return Grid(-n * dx, n * dx, 2 * n + 1, 1.0, 1, 0.5, 4.0)


class TestFamilyAndSpec:
    def test_normalization_identity(self):
        for n in (1, 7, 64, 1000):
            spec = NormalizedSumSpec(n, 1.3, ALPHA)
            assert n * 1.3 ** ALPHA * spec.B_n ** ALPHA \
                == pytest.approx(1.0, rel=1e-12)


class TestNestedSum:
    def test_one_step_unrolls(self, fam_sym):
        spec = NormalizedSumSpec(1, 1.0, ALPHA)
        grid = dp_grid(half=1280.0, dx=0.05)
        val = nested_sum_expectation(gaussian, fam_sym, spec, grid)
        ref = law_expectation(lambda y: gaussian(spec.B_n * y),
                              fam_sym[0])
        assert val == pytest.approx(ref, abs=2e-4)

    def test_constant_fixed_point(self, fam_small):
        for n in (1, 8):
            spec = NormalizedSumSpec(n, 1.0, ALPHA)
            val = nested_sum_expectation(lambda x: np.full_like(x, 2.5),
                                         fam_small, spec, dp_grid())
            assert val == pytest.approx(2.5, abs=1e-10)

    def test_narrow_grid_rejected(self, fam_sym):
        spec = NormalizedSumSpec(16, 1.0, ALPHA)
        with pytest.raises(NumericalError, match="widen the grid") as exc:
            nested_sum_expectation(gaussian, fam_sym, spec, dp_grid(half=40.0))
        assert exc.value.field == "dp_half_width"

    def test_two_stages_match_direct_sum(self, fam_small):
        """The FFT stages against a dense direct sum of the interpolated
        law quadrature on the same grid, with constant extension and the
        explicit second-difference correction within DP_REACH cells."""
        spec = NormalizedSumSpec(2, 1.0, ALPHA)
        grid = dp_grid(dx=0.5)
        val = nested_sum_expectation(gaussian, fam_small, spec, grid)

        w = gaussian(grid.x)
        for _ in range(spec.n):
            stages = []
            for law in fam_small:
                nodes, weights = law_nodes(law)
                shifts = spec.B_n * nodes / grid.dx
                stages.append(dense_interp_sum(w, shifts, weights, DP_REACH))
            w = np.max(stages, axis=0)
        mid = grid.nx // 2
        ref = np.interp(0.0, grid.x[mid - 1: mid + 2], w[mid - 1: mid + 2])
        assert val == pytest.approx(ref, rel=1e-12)

    def test_singleton_matches_direct_convolution(self, fam_sym):
        """n = 4 classical cross-check: convolve the law density four
        times on a fine wide lattice and integrate psi(B_4 s) against it."""
        n = 4
        spec = NormalizedSumSpec(n, 1.0, ALPHA)
        law = fam_sym[0]

        dx = 0.05
        half = 400.0
        s = np.arange(-half, half + dx / 2, dx)
        f = law.density(s)
        f /= np.sum(f) * dx  # absorb truncated tail mass (~2.5e-5)
        conv = f.copy()
        for _ in range(n - 1):
            conv = fftconvolve(conv, f, mode="same") * dx
        ref = np.sum(gaussian(spec.B_n * s) * conv) * dx

        val = nested_sum_expectation(gaussian, fam_sym, spec,
                                     dp_grid(half=1280.0, dx=0.02))
        assert val == pytest.approx(ref, abs=1e-3)

    def test_second_order_taps_remove_grid_bias(self, fam_small,
                                                monkeypatch):
        """On a fixed grid the corrected stages are at least 10x closer
        to a 4x finer corrected run than plain linear-interpolation taps
        on the same grid."""
        spec = NormalizedSumSpec(16, 1.0, ALPHA)
        fine = nested_sum_expectation(gaussian, fam_small, spec,
                                      dp_grid(dx=0.025))
        corrected = nested_sum_expectation(gaussian, fam_small, spec,
                                           dp_grid())
        monkeypatch.setattr(engine, "DP_REACH", 0.0)
        plain = nested_sum_expectation(gaussian, fam_small, spec, dp_grid())
        assert abs(plain - fine) >= 10.0 * abs(corrected - fine)

    @pytest.mark.parametrize("n,dx,advice,half", [
        pytest.param(64, 0.2, "decrease", 40.0, id="64-0.2-decrease"),
        # far wider than the off-grid mass needs: the narrow rungs the
        # DP tries first check the same corrected taps
        pytest.param(64, 0.2, "decrease", 320.0, id="64-0.2-decrease-wide"),
        pytest.param(1, 0.005, "increase", 40.0, id="1-0.005-increase"),
    ])
    def test_negative_tap_names_dp_dx(self, fam_small, n, dx, advice, half):
        """A grid too coarse for B_n z0, or too fine for the law's
        quadrature nodes, leaves a negative corrected tap."""
        spec = NormalizedSumSpec(n, 1.0, ALPHA)
        with pytest.raises(NumericalError,
                           match=f"{advice} sublinear_engine.dp_dx") as exc:
            nested_sum_expectation(gaussian, fam_small, spec,
                                   dp_grid(half=half, dx=dx))
        assert exc.value.field == "dp_dx"

    def test_corner_runs_on_its_320_rung(self, monkeypatch):
        """``clt_corner``'s DP runs every n on the +-320 rung of its
        +-1280 grid (12,801 of 51,201 nodes), the narrowest whose
        off-grid mass is within ESCAPE_TOL, and every value is within
        1e-11 of the stages run on the whole grid (7.3e-12 at most when
        measured).  The walk starts at the narrowest rung wider than
        DP_REACH + 2 cells a side."""
        cfg = config.load(str(CONFIGS / "clt_corner.json"))
        laws = tuple(build_law(p, cfg.alpha, cfg.b_scale, cfg.z0)
                     for p in cfg.uncertainty_set().pairs)
        grid = cfg.dp_grid()
        apply, stage = engine.apply_max, engine._stage_kernel
        rows, rungs = [], []

        def record_apply(kernels, u, work=None):
            rows.append(len(u))
            return apply(kernels, u, work)

        def record_stage(law, b_n, rung):
            rungs.append(rung.nx)
            return stage(law, b_n, rung)

        monkeypatch.setattr(engine, "apply_max", record_apply)
        monkeypatch.setattr(engine, "_stage_kernel", record_stage)
        for n in (8, 16, 32, 64):
            spec = NormalizedSumSpec(n, cfg.b_scale, cfg.alpha)
            whole = [stage(law, spec.B_n, grid)[0] for law in laws]
            for psi in cfg.psi_functions():
                rows.clear()
                val = nested_sum_expectation(psi, laws, spec, grid)
                assert rows == [12801] * n
                w = psi(grid.x)
                for _ in range(n):
                    w = apply(whole, w)
                assert abs(val - np.interp(0.0, grid.x, w)) <= 1e-11
        narrowest = min(rungs) // 2
        assert narrowest // 2 <= DP_REACH + 2 < narrowest


class TestAxiomsSmall:
    """Spot checks of the sublinear-expectation axioms at n = 4; the
    acceptance suite sweeps 20 generated triples at n = 8."""

    def axioms_setup(self, fam_small):
        return NormalizedSumSpec(4, 1.0, ALPHA), dp_grid()

    def test_monotone(self, fam_small):
        spec, grid = self.axioms_setup(fam_small)
        lo = nested_sum_expectation(gaussian, fam_small, spec, grid)
        hi = nested_sum_expectation(lambda x: gaussian(x) + 0.3 * gaussian(x - 1),
                                    fam_small, spec, grid)
        assert lo <= hi + 1e-12

    def test_subadditive(self, fam_small):
        spec, grid = self.axioms_setup(fam_small)
        psi1, psi2 = gaussian, lambda x: 1.0 / (1.0 + (x - 0.5) ** 2)
        both = nested_sum_expectation(lambda x: psi1(x) + psi2(x),
                                      fam_small, spec, grid)
        split = nested_sum_expectation(psi1, fam_small, spec, grid) \
            + nested_sum_expectation(psi2, fam_small, spec, grid)
        assert both <= split + 1e-6 * spec.n

    def test_positively_homogeneous(self, fam_small):
        spec, grid = self.axioms_setup(fam_small)
        base = nested_sum_expectation(gaussian, fam_small, spec, grid)
        scaled = nested_sum_expectation(lambda x: 7.0 * gaussian(x),
                                        fam_small, spec, grid)
        assert scaled == pytest.approx(7.0 * base, rel=1e-12)


class TestTables:
    CFG = ExperimentConfig(alpha=ALPHA, lam=0.05, Lam=4.0,
                           pairs=((0.1, 0.1), (0.12, 0.12)),
                           n_values=(2, 4), dp_half_width=320.0, dp_dx=0.1)

    def test_every_n_uses_the_dp_dx_grid(self, fam_small, monkeypatch):
        cfg = self.CFG
        seen = []
        run = engine.nested_sum_expectation

        def record(psi, laws, spec, grid):
            seen.append((spec.n, grid))
            return run(psi, laws, spec, grid)

        monkeypatch.setattr(engine, "nested_sum_expectation", record)
        convergence_table(gaussian, fam_small, (2, 8, 32), cfg.dp_grid())
        assert [n for n, _ in seen] == [2, 8, 32]
        for _, grid in seen:
            assert grid == cfg.dp_grid()
            assert grid.dx == pytest.approx(cfg.dp_dx, rel=1e-12)
            assert grid.nx == 6401

    def test_convergence_table_csv(self, fam_small, tmp_path, monkeypatch):
        """The DP gives (n, B_n, nested_value); clt appends the PIDE
        value and the absolute error to each row."""
        rows = convergence_table(gaussian, fam_small, (2, 4),
                                 self.CFG.dp_grid())
        assert [r[0] for r in rows] == [2, 4]
        assert [len(r) for r in rows] == [3, 3]
        # the PIDE value u(1, 0) is 0.7, without a march
        monkeypatch.setattr(cli, "solve_forward", lambda *args, **kw: None)
        monkeypatch.setattr(cli, "evaluate", lambda *args: 0.7)
        cli.run_clt(self.CFG, str(tmp_path))
        text = (tmp_path / "convergence_gaussian_bump_0_1.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "n,B_n,nested_value,pide_value,abs_error"
        assert len(lines) == 3
        for line, (n, b_n, val) in zip(lines[1:], rows):
            assert [float(v) for v in line.split(",")] \
                == [n, b_n, val, 0.7, abs(val - 0.7)]


def test_dp_peak_memory_per_node():
    """One DP call with ``clt_corner``'s two laws and its widest grid,
    51,201 nodes, holds under 8 float64 per node of that grid at its
    peak (6.2-6.3 measured): the ψ sample on the whole grid, and on the
    12,801-node rung the stages run on, two rows, each law's spectrum
    and edge sums, and one block for the row's transform, the product
    and the inverse transform.  With every stage on the whole grid it
    peaked at about 17, and before that at 23.2, with stage kernels that
    kept their taps and a fresh inverse transform per law."""
    cfg = config.load(str(CONFIGS / "clt_corner.json"))
    laws = tuple(build_law(p, cfg.alpha, cfg.b_scale, cfg.z0)
                 for p in cfg.uncertainty_set().pairs)
    grid = cfg.dp_grid()
    spec = NormalizedSumSpec(8, cfg.b_scale, cfg.alpha)
    psi = cfg.psi_functions()[0]
    tracemalloc.start()
    try:
        nested_sum_expectation(psi, laws, spec, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.nx == 51201
    assert peak / (8 * grid.nx) < 20.0
    assert peak / (8 * grid.nx) < 8.0
