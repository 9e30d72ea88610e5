"""Jump-kernel primitives and the discrete nonlocal generator."""

from functools import partial

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gamma

from nlstable import kernels
from nlstable.kernels import (
    Grid,
    KernelPair,
    NQ_BAND,
    UncertaintySet,
    apply_max,
    apply_sup_generator_row,
    band_bins,
    drift_b,
    generator_stencil,
    interp_taps,
    max_work,
    next_fast_len,
    scheme_stability_constant,
    shift_kernel,
    small_jump_second_moment,
    tail_nodes,
)

from conftest import dense_interp_sum, singleton_set


def cos_generator_exact(alpha):
    # integral of (cos z - 1)|z|^(-alpha-1) over the line, unit intensities
    return 2.0 * np.cos(np.pi * alpha / 2.0) * gamma(-alpha)


def levy_density(k: KernelPair, alpha: float, z: float) -> float:
    """Density of the jump measure at z (z must be nonzero): the
    reference the generator tests integrate against."""
    if z == 0.0:
        raise ValueError("jump density is singular at z = 0")
    if not (1.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (1, 2)")
    intensity = k.k_plus if z > 0 else k.k_minus
    return intensity * abs(z) ** (-alpha - 1.0)


class TestDensityAndMoments:
    def test_levy_density_values(self):
        k = KernelPair(1.0, 1.0)
        assert levy_density(k, 1.5, 1.0) == 1.0
        assert levy_density(KernelPair(2.0, 1.0), 1.5, -1.0) == 2.0
        assert levy_density(k, 1.5, 4.0) == pytest.approx(0.03125, rel=1e-15)

    def test_levy_density_singularity(self):
        with pytest.raises(ValueError, match="singular"):
            levy_density(KernelPair(1.0, 1.0), 1.5, 0.0)

    def test_drift_values(self):
        assert drift_b(KernelPair(1.0, 1.0), 1.3) == 0.0
        assert drift_b(KernelPair(2.0, 1.0), 1.5) == pytest.approx(2.0)
        assert drift_b(KernelPair(1.0, 3.0), 1.75) == pytest.approx(-8.0 / 3.0)

    def test_drift_matches_quadrature(self):
        k = KernelPair(2.7, 0.4)
        alpha = 1.6
        ref, _ = quad(lambda z: (k.k_minus - k.k_plus) * z ** (-alpha),
                      1.0, np.inf)
        assert drift_b(k, alpha) == pytest.approx(ref, rel=1e-6)

    def test_second_moment_values(self):
        assert small_jump_second_moment(KernelPair(1.0, 1.0), 1.5, 1.0) \
            == pytest.approx(4.0)
        # decays like r^(2-alpha) = sqrt(r) toward zero
        assert small_jump_second_moment(KernelPair(1.0, 1.0), 1.5, 1e-8) \
            == pytest.approx(4e-4, rel=1e-12)

    def test_second_moment_matches_quadrature(self):
        k = KernelPair(2.0, 3.0)
        ref, _ = quad(lambda z: (k.k_minus + k.k_plus) * z ** (1.0 - 1.25),
                      0.0, 0.5)
        val = small_jump_second_moment(k, 1.25, 0.5)
        assert val == pytest.approx(3.9685, abs=1e-2)
        assert val == pytest.approx(ref, rel=1e-6)


class TestBandBins:
    @given(alpha=st.floats(1.05, 1.95), r_lo=st.floats(0.01, 1.0),
           ratio=st.floats(2.0, 1e4))
    @settings(max_examples=50, deadline=None)
    def test_exact_on_affine(self, alpha, r_lo, ratio):
        """Each bin reproduces mass and first moment of the kernel exactly,
        so affine integrands are integrated without quadrature error."""
        z_hi = r_lo * ratio
        m, c = band_bins(r_lo, z_hi, 32, alpha)
        mass_ref = (r_lo ** -alpha - z_hi ** -alpha) / alpha
        mom_ref = (r_lo ** (1 - alpha) - z_hi ** (1 - alpha)) / (alpha - 1)
        assert np.sum(m) == pytest.approx(mass_ref, rel=1e-12)
        assert np.sum(m * c) == pytest.approx(mom_ref, rel=1e-12)
        assert np.all(c > 0) and np.all(m > 0)


def direct_shift_sum(taps, u):
    """Dense reference: sum_m taps[m] u(x_j + (m - nx) dx) for taps in
    the ``interp_taps`` layout, with u held constant beyond the grid."""
    nx = len(u)
    idx = np.arange(nx)[:, None] + np.arange(len(taps))[None, :] - nx
    return u[np.clip(idx, 0, nx - 1)] @ taps


class TestShiftKernel:
    @pytest.mark.parametrize("nx", [5, 41, 201])
    @pytest.mark.parametrize("n_kernels", [1, 2, 3])
    def test_apply_max_matches_direct_sum(self, nx, n_kernels):
        """The taps at offsets -nx, nx and nx+1, past +-(nx-1), are
        folded into the edge coefficients without changing the result."""
        rng = np.random.default_rng(1000 * nx + n_kernels)
        u = rng.normal(size=nx)
        kernels, refs = [], []
        for _ in range(n_kernels):
            taps = rng.normal(size=2 * nx + 2)
            kernels.append(shift_kernel(taps))
            refs.append(direct_shift_sum(taps, u))
        ref = np.max(refs, axis=0)
        out = apply_max(kernels, u)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


# rows of the bundled march grids and of the DP grid, and their n_fft
SHIPPED_ROWS = [(801, 1620), (1601, 3240), (3201, 6480), (51201, 103680)]


@pytest.mark.parametrize("real", [True])
def test_next_fast_len_matches_scipy(real):
    """Every length up to 2**17, which covers every shipped transform;
    every transform uses scipy's rule for real input."""
    n = range(1, 2**17 + 1)
    assert [next_fast_len(m) for m in n] \
        == [scipy.fft.next_fast_len(m, real=real) for m in n]


@pytest.mark.parametrize("members", [1, 2, 3])
def test_apply_max_is_the_per_member_expression(members):
    """Exactly the bytes of max_k(irfft(rfft(u)·S_k)[window] + lo_k u[0]
    + hi_k u[-1]), each member with its own arrays, at a shipped
    length, in a new block or a used one; neither the row nor the
    kernels change."""
    nx, n_fft = SHIPPED_ROWS[2]
    rng = np.random.default_rng(members)
    u = rng.normal(size=nx)
    built = [shift_kernel(rng.normal(size=2 * nx + 2))
             for _ in range(members)]
    before = [(k.spectrum.copy(), k.lo.copy(), k.hi.copy()) for k in built]
    u_before = u.copy()
    half = nx - 1
    refs = [np.fft.irfft(np.fft.rfft(u, n_fft) * k.spectrum, n_fft)
            [half: 2 * half + 1] + k.lo * u[0] + k.hi * u[-1]
            for k in built]
    got = apply_max(built, u)
    assert built[0].n_fft == n_fft
    assert np.array_equal(got, np.max(refs, axis=0))
    # a block that held anything before gives the same bytes
    work = max_work(built)
    work.fill(np.nan)
    assert np.array_equal(apply_max(built, u, work), got)
    assert np.array_equal(u, u_before)
    for k, (spectrum, lo, hi) in zip(built, before):
        assert np.array_equal(k.spectrum, spectrum)
        assert np.array_equal(k.lo, lo) and np.array_equal(k.hi, hi)


def writing_into(transform):
    """A ``scipy.fft`` transform, which takes no ``out``, written into
    ``out`` when one is given, as the ``numpy.fft`` transform of the
    same name does."""
    def into(a, n, out=None):
        if out is None:
            return transform(a, n)
        out[...] = transform(a, n)
        return out
    return into


@pytest.mark.parametrize("nx,n_fft", SHIPPED_ROWS)
def test_apply_max_matches_scipy_fft(nx, n_fft, monkeypatch):
    """numpy.fft against the same kernels built and applied with
    scipy.fft, at every shipped transform length."""
    rng = np.random.default_rng(nx)
    u = rng.normal(size=nx)
    taps = [rng.normal(size=2 * nx + 2) for _ in range(2)]
    built = [shift_kernel(t) for t in taps]
    assert built[0].n_fft == n_fft
    got = apply_max(built, u)
    monkeypatch.setattr(kernels, "rfft", writing_into(scipy.fft.rfft))
    monkeypatch.setattr(kernels, "irfft", writing_into(scipy.fft.irfft))
    monkeypatch.setattr(kernels, "next_fast_len",
                        partial(scipy.fft.next_fast_len, real=True))
    ref = apply_max([shift_kernel(t) for t in taps], u)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestInterpTaps:
    @pytest.mark.parametrize("nx", [5, 41, 201])
    def test_matches_dense_interp(self, nx):
        """Fractional, negative and integer shifts, and shifts at and past
        +-(nx-1) and +-nx, against a dense np.interp direct sum with
        constant extension."""
        rng = np.random.default_rng(nx)
        u = rng.normal(size=nx)
        edge = np.array([nx - 1, nx - 0.5, nx, nx + 0.25, 3.0 * nx])
        shifts = np.concatenate([rng.uniform(-1.5 * nx, 1.5 * nx, 40),
                                 [0.0, 1.0, -2.0, 0.3, -0.7],
                                 edge, -edge])
        weights = rng.uniform(0.1, 1.0, len(shifts))
        pos = np.arange(nx, dtype=float)
        ref = sum(w * np.interp(pos + s, pos, u)
                  for s, w in zip(shifts, weights))
        kern = shift_kernel(interp_taps(shifts, weights, nx))
        out = apply_max([kern], u)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("nx", [5, 41, 201])
    def test_second_order_matches_dense_correction(self, nx):
        """Taps with a reach against np.interp plus the explicit
        second-difference correction, for shifts inside, at and past the
        reach, near -nx (where j-1 leaves the tap array) and at +-nx."""
        rng = np.random.default_rng(7 * nx)
        u = rng.normal(size=nx)
        reach = 16.0
        near = np.array([reach - 0.5, reach, reach + 0.5, nx - 0.5, nx,
                         nx - 0.7, 1.5 * nx, 0.4, 2.5])
        shifts = np.concatenate([rng.uniform(-1.5 * nx, 1.5 * nx, 40),
                                 rng.uniform(-reach, reach, 20),
                                 near, -near])
        weights = rng.uniform(0.1, 1.0, len(shifts))
        ref = dense_interp_sum(u, shifts, weights, reach)
        kern = shift_kernel(interp_taps(shifts, weights, nx, reach=reach))
        out = apply_max([kern], u)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        plain = dense_interp_sum(u, shifts, weights)
        assert np.max(np.abs(plain - ref)) > 1e-3 * np.max(np.abs(ref))


class TestTailNodes:
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
    def test_whole_tail_mass_and_first_moment(self, alpha):
        """The far node carries the remainder beyond z_far, so mass and
        first moment of the whole tail beyond r_lo are exact."""
        r_lo = 0.3
        m, c = tail_nodes(r_lo, 50.0, 64, alpha)
        assert len(m) == 65 and c[-1] > 50.0
        assert np.sum(m) == pytest.approx(r_lo ** -alpha / alpha, rel=1e-12)
        assert np.dot(m, c) == pytest.approx(
            r_lo ** (1.0 - alpha) / (alpha - 1.0), rel=1e-12)


def wide_grid(nx=4001, half=40.0, r_cut=None, z_max=None):
    dx = 2 * half / (nx - 1)
    return Grid(-half, half, nx, 1.0, 1, r_cut or dx, z_max or 16 * half)


def generator_row(u, g, k, alpha):
    """Generator of one pair at every node: the sup over a one-pair set."""
    lo, hi = sorted((k.k_minus, k.k_plus))
    uset = UncertaintySet(alpha, (k,), 0.5 * lo, 2.0 * hi)
    return apply_sup_generator_row(u, g, uset)


class TestGenerator:
    def test_constant_annihilated(self):
        g = wide_grid()
        u = np.full(g.nx, 3.7)
        out = generator_row(u, g, KernelPair(1.0, 2.0), 1.5)
        assert np.max(np.abs(out)) < 1e-10

    @pytest.mark.parametrize("half", [40.0, 160.0])
    def test_affine_annihilated(self, half):
        slope, alpha = 0.7, 1.5
        k = KernelPair(1.0, 2.0)
        g = wide_grid(half=half)
        u = 0.3 + slope * g.x
        val = generator_row(u, g, k, alpha)[g.nx // 2]
        # the residual is pure far-field truncation: the constant extension
        # flattens the affine beyond +-half, whose compensated-increment
        # integral is slope * k * half^(1-alpha) / (alpha(alpha-1))
        bound = slope * (k.k_minus + k.k_plus) \
            * half ** (1.0 - alpha) / (alpha * (alpha - 1.0))
        assert abs(val) < bound

    def test_cos_against_analytic(self):
        # dx = 0.01, wide window: the quadrature split reproduces the
        # closed form to a few parts in 1e4
        g = Grid(-80.0, 80.0, 16001, 1.0, 1, 0.2, 320.0)
        u = np.cos(g.x)
        val = generator_row(u, g, KernelPair(1.0, 1.0), 1.5)[g.nx // 2]
        ref = cos_generator_exact(1.5)
        assert val == pytest.approx(ref, rel=1e-3)

    def test_kernel_homogeneity(self):
        g = wide_grid(nx=801)
        u = np.cos(g.x)
        j = g.nx // 2 + 7
        base = generator_row(u, g, KernelPair(0.5, 1.5), 1.5)[j]
        scaled = generator_row(u, g, KernelPair(1.5, 4.5), 1.5)[j]
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_off_diagonal_values(self, seed):
        """u2 >= u1 with equality at the evaluation node implies
        G u2 >= G u1 (the scheme's monotonicity requirement)."""
        rng = np.random.default_rng(seed)
        g = wide_grid(nx=201, half=10.0)
        j = g.nx // 2
        u1 = np.sin(0.3 * g.x)
        bump = rng.uniform(0.0, 1.0, g.nx)
        bump[j] = 0.0
        u2 = u1 + bump
        k = KernelPair(1.0, 2.0)
        a1 = generator_row(u1, g, k, 1.5)[j]
        a2 = generator_row(u2, g, k, 1.5)[j]
        assert a2 >= a1 - 1e-10

    @pytest.mark.filterwarnings(
        "ignore::scipy.integrate.IntegrationWarning")
    def test_drift_decomposition_consistency(self):
        """Direct compensated increments agree with the split into the
        drift term plus unit-truncated increments (smooth test function)."""
        k = KernelPair(2.0, 1.0)
        alpha = 1.5
        x0 = 0.3

        def w(x):
            return np.cos(x)

        dw = -np.sin(x0)

        def direct(z):
            return (w(x0 + z) - w(x0) - dw * z) * levy_density(k, alpha, z)

        def truncated(z):
            comp = dw * z if abs(z) <= 1.0 else 0.0
            return (w(x0 + z) - w(x0) - comp) * levy_density(k, alpha, z)

        lhs = sum(quad(direct, a, b, limit=400)[0]
                  for a, b in [(-np.inf, -1e-6), (1e-6, np.inf)])
        rhs = drift_b(k, alpha) * dw + sum(
            quad(truncated, a, b, limit=400, points=[-1.0, 1.0])[0]
            for a, b in [(-50.0, -1e-6), (1e-6, 50.0)])
        rhs += quad(truncated, -np.inf, -50.0)[0] \
            + quad(truncated, 50.0, np.inf)[0]
        assert lhs == pytest.approx(rhs, rel=1e-4)


class TestSupGenerator:
    def test_singleton_equals_single(self):
        g = wide_grid(nx=801)
        u = np.cos(g.x)
        j = g.nx // 2 + 3
        uset = singleton_set(1.0, 2.0)
        single = apply_max(
            [generator_stencil(g, uset.pairs[0], uset.alpha)], u - u[0])
        assert apply_sup_generator_row(u, g, uset)[j] == single[j]

    def test_constant_zero(self):
        g = wide_grid(nx=801)
        uset = UncertaintySet(1.5, (KernelPair(1.0, 1.0), KernelPair(2.0, 2.0)),
                              0.5, 2.5)
        u = np.full(g.nx, -4.0)
        assert abs(apply_sup_generator_row(u, g, uset)[g.nx // 2]) < 1e-12

    def test_homogeneous_family_picks_larger_intensity(self):
        # at the cosine minimum of the generator both candidate values are
        # negative, so the sup is the (1,1) value, not twice it
        g = Grid(-80.0, 80.0, 16001, 1.0, 1, 0.2, 320.0)
        u = np.cos(g.x)
        j = g.nx // 2
        uset = UncertaintySet(1.5, (KernelPair(1.0, 1.0), KernelPair(2.0, 2.0)),
                              0.5, 2.5)
        one = generator_row(u, g, KernelPair(1.0, 1.0), 1.5)[j]
        assert one < 0.0
        assert apply_sup_generator_row(u, g, uset)[j] \
            == pytest.approx(one, rel=1e-12)

    def test_stability_constant_positive(self):
        g = wide_grid(nx=801)
        assert scheme_stability_constant(g, singleton_set()) > 0.0


def hand_assembled_generator(grid, k, alpha):
    """Reference generator kernel assembled term by term, without
    ``jump_kernel`` or ``tail_nodes``: band bins, Taylor term, drift
    with its centred/upwind switch and the analytic far tail on the edge
    values.  Returns (core taps over -(nx-1)..(nx-1), edge_lo, edge_hi,
    whether the drift was upwinded)."""
    dx, c, nx = grid.dx, grid.nx, grid.nx
    w0, zc = band_bins(grid.r_cut, grid.z_max, NQ_BAND, alpha)
    w_plus, w_minus = k.k_plus * w0, k.k_minus * w0
    taps = interp_taps(np.concatenate([zc, -zc]) / dx,
                       np.concatenate([w_plus, w_minus]), nx)
    sigma2 = small_jump_second_moment(k, alpha, grid.r_cut)
    c2 = 0.5 * sigma2 / dx ** 2
    taps[c - 1] += c2
    taps[c + 1] += c2
    taps[c] -= 2.0 * c2
    taps[c] -= float(np.sum(w_plus))
    taps[c] -= float(np.sum(w_minus))
    tail_mom0 = grid.z_max ** (1.0 - alpha) / (alpha - 1.0)
    C = (k.k_plus - k.k_minus) * (float(np.sum(w0 * zc)) + tail_mom0)
    upwind = min(taps[c - 1], taps[c + 1]) < abs(C) / (2.0 * dx)
    if not upwind:
        taps[c - 1] += C / (2.0 * dx)
        taps[c + 1] -= C / (2.0 * dx)
    elif C > 0.0:
        taps[c - 1] += C / dx
        taps[c] -= C / dx
    else:
        taps[c + 1] -= C / dx
        taps[c] += C / dx
    tail_mass0 = grid.z_max ** (-alpha) / alpha
    taps[c] -= k.k_plus * tail_mass0
    taps[c] -= k.k_minus * tail_mass0
    edge_lo = k.k_minus * tail_mass0 + taps[0]
    edge_hi = k.k_plus * tail_mass0 + taps[2 * nx] + taps[2 * nx + 1]
    return taps[1: 2 * nx], edge_lo, edge_hi, upwind


class TestGeneratorAssembly:
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("pair", [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)])
    @pytest.mark.parametrize("cells", [1, 8])
    def test_matches_hand_assembly(self, alpha, pair, cells):
        """``generator_stencil`` through ``jump_kernel`` against the
        hand assembly: taps, edge coefficients and stability constant."""
        dx = 0.1
        g = Grid(-20.0, 20.0, 401, 1.0, 1, cells * dx, 160.0)
        k = KernelPair(*pair)
        ref, lo, hi, upwind = hand_assembled_generator(g, k, alpha)
        kern = generator_stencil(g, k, alpha)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(kern.taps - ref)) <= 1e-12 * scale
        assert kern.lo[-1] == pytest.approx(lo, rel=1e-12)
        assert kern.hi[0] == pytest.approx(hi, rel=1e-12)
        uset = UncertaintySet(alpha, (k,), 0.5, 2.5)
        assert scheme_stability_constant(g, uset) == pytest.approx(
            -ref[g.nx - 1], rel=1e-12)
        # the asymmetric pairs at alpha = 1.1 and r_cut = dx are the
        # cases whose drift outgrows the centred difference, one upwind
        # direction each
        assert upwind == (alpha == 1.1 and pair != (1.0, 1.0) and cells == 1)
