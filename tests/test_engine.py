"""Nested-supremum dynamic program for normalized sums."""

import pathlib
import tracemalloc

import numpy as np
import pytest
from scipy.signal import fftconvolve

from nlstable import basket, cli, config, engine
from nlstable.config import ExperimentConfig
from nlstable.kernels import (Grid, KernelPair, NumericalError, UncertaintySet,
                              interp_taps, middle_half, shift_kernel)
from nlstable.laws import build_law, law_nodes
from nlstable.engine import (
    DP_REACH,
    ESCAPE_TOL,
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


def config_laws(cfg):
    return tuple(build_law(p, cfg.alpha, cfg.b_scale, cfg.z0)
                 for p in cfg.uncertainty_set().pairs)


def wide_reference(psi, laws, spec, apply):
    """The DP's stages, built by ``_stage_kernel`` and applied by
    ``apply``, on +-1280 at dx 0.05 (51,201 nodes)."""
    grid = dp_grid(half=1280.0, dx=0.05)
    kernels = [engine._stage_kernel(law, spec.B_n, grid) for law in laws]
    w = psi(grid.x)
    for _ in range(spec.n):
        w = apply(kernels, w)
    return np.interp(0.0, grid.x, w)


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
        # far wider than the off-grid mass needs: the corrected taps are
        # checked on whatever grid the stages run on
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

    def test_corner_runs_on_its_computed_grid(self, monkeypatch):
        """``clt_corner``'s DP runs every n on the grid the tail rule
        gives it, +-195.8 (7,833 nodes; +-320 and 12,801 before), and
        every value is within 1e-10 of the same stages run on +-1280."""
        cfg = config.load(str(CONFIGS / "clt_corner.json"))
        laws = config_laws(cfg)
        grid = cfg.dp_grid()
        assert grid.nx == 7833
        apply, rows = engine.apply_max, []

        def record_apply(kernels, u, work=None):
            rows.append(len(u))
            return apply(kernels, u, work)

        monkeypatch.setattr(engine, "apply_max", record_apply)
        for n in cfg.n_values:
            spec = NormalizedSumSpec(n, cfg.b_scale, cfg.alpha)
            for psi in cfg.psi_functions():
                rows.clear()
                val = nested_sum_expectation(psi, laws, spec, grid)
                assert rows == [grid.nx] * n
                ref = wide_reference(psi, laws, spec, apply)
                assert abs(val - ref) <= 1e-10

    def test_far_bump_is_not_lost(self):
        """A bump at x = 30 under the corner laws: the +-1.25 and +-2.5
        grids both give exactly 0, so a rule that stopped where two
        successive widths agree would return 0.  The tail rule does not
        look at psi."""
        cfg = config.load(str(CONFIGS / "clt_corner.json"))
        laws = config_laws(cfg)
        psi = basket.from_spec({"name": "gaussian_bump", "center": 30.0})
        for n, expected in ((8, 4.400e-5), (64, 4.428e-5)):
            spec = NormalizedSumSpec(n, cfg.b_scale, cfg.alpha)
            val = nested_sum_expectation(psi, laws, spec, cfg.dp_grid())
            ref = wide_reference(psi, laws, spec, engine.apply_max)
            assert abs(val - ref) <= 1e-9
            assert val == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("pairs,alpha", [
        pytest.param(((0.1, 0.1), (0.12, 0.12)), 1.5, id="corner"),
        pytest.param(((0.06, 0.14), (0.14, 0.06)), 1.5, id="skew"),
        pytest.param(((0.1, 0.1), (0.12, 0.12)), 1.25, id="corner-1.25"),
        pytest.param(((0.1, 0.1), (0.12, 0.12)), 1.75, id="corner-1.75"),
    ])
    def test_tail_rule_meets_the_escape_rule(self, pairs, alpha):
        """On the computed grid, the off-grid mass the DP used to measure
        and refuse on, n times the worst middle-half edge tap sum, is
        within ESCAPE_TOL at every n."""
        cfg = ExperimentConfig(alpha=alpha, lam=0.05, Lam=0.15, pairs=pairs)
        grid = cfg.dp_grid()
        laws = config_laws(cfg)
        mid = middle_half(grid.nx)
        for n in cfg.n_values:
            spec = NormalizedSumSpec(n, cfg.b_scale, cfg.alpha)
            for law in laws:
                nodes, weights = law_nodes(law)
                kern = shift_kernel(interp_taps(
                    spec.B_n * nodes / grid.dx, weights, grid.nx,
                    reach=DP_REACH))
                for j in (mid.start, mid.stop - 1):
                    assert n * (kern.lo[j] + kern.hi[j]) <= ESCAPE_TOL


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
                           n_values=(2, 4), dp_dx=0.1)

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
            assert grid.nx == 3917

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
    """One DP call with ``clt_corner``'s two laws on its computed grid,
    7,833 nodes, holds under 20 float64 per node at its peak (16.3
    measured): the psi sample, two rows, each law's spectrum and edge
    sums, and one block for the row's transform, the product and the
    inverse transform, with the law quadrature's fixed few thousand
    nodes on top.  The peak also stays below 3.28 MB, 8 float64 per node
    of the +-1280 grid (51,201 nodes) every n ran on before the DP
    picked its width; with every stage on that grid it peaked at about
    17 per node, and before that at 23.2."""
    cfg = config.load(str(CONFIGS / "clt_corner.json"))
    laws = config_laws(cfg)
    grid = cfg.dp_grid()
    spec = NormalizedSumSpec(8, cfg.b_scale, cfg.alpha)
    psi = cfg.psi_functions()[0]
    tracemalloc.start()
    try:
        nested_sum_expectation(psi, laws, spec, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * grid.nx) < 20.0
    assert peak < 8 * 8 * 51201
