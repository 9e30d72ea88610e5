import numpy as np
import pytest

from nlstable.kernels import KernelPair, UncertaintySet
from nlstable.laws import law_nodes
from nlstable.solver import make_grid

ALPHA = 1.5


def singleton_set(k_minus=1.0, k_plus=1.0, alpha=ALPHA):
    return UncertaintySet(alpha, (KernelPair(k_minus, k_plus),), 0.05, 4.0)


@pytest.fixture(scope="session")
def uset_sym():
    return singleton_set()


@pytest.fixture(scope="session")
def uset_asym():
    return singleton_set(2.0, 1.0)


@pytest.fixture(scope="session")
def small_grid(uset_sym):
    """Coarse CFL-satisfying grid for fast solver tests."""
    return make_grid(-20.0, 20.0, 401, 1.0, uset_sym)


def gaussian(x):
    return np.exp(-np.asarray(x, dtype=float) ** 2)


def law_expectation(phi, law):
    """Integral of phi against the law by its ``law_nodes`` rule."""
    nodes, weights = law_nodes(law)
    return float(weights @ np.asarray(phi(nodes), dtype=float))


def dense_interp_sum(u, shifts, weights, reach=0.0):
    """Dense reference for ``interp_taps``: sum_i w_i u(x + s_i dx) by
    np.interp with constant extension, and for |s_i| < reach the
    explicit correction -w_i theta(1-theta)/2 times the mean of the
    second differences at the nodes j and j+1 around x + s_i dx."""
    nx = len(u)
    pos = np.arange(nx, dtype=float)

    def ext(i):
        return u[np.clip(i, 0, nx - 1)]

    out = np.zeros(nx)
    for s, w in zip(shifts, weights):
        out += w * np.interp(pos + s, pos, u)
        if abs(s) < reach:
            sc = min(max(s, -nx), nx)
            j = np.floor(sc)
            theta = sc - j
            at = (pos + j).astype(np.int64)
            d2_j = ext(at - 1) - 2.0 * ext(at) + ext(at + 1)
            d2_j1 = ext(at) - 2.0 * ext(at + 1) + ext(at + 2)
            out -= w * theta * (1.0 - theta) / 2.0 * 0.5 * (d2_j + d2_j1)
    return out
