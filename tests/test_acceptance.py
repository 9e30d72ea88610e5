"""Acceptance gate: one test per criterion, thresholds pinned.

Criterion 3's factor-4 clause is expected to fail: the measured
condition residual is a clean n^(1-2/alpha) power law, whose total
decay over n in [16, 256] is a factor 16^(1/3) ~ 2.52.  A factor >= 4
over that span forces an average rate of -0.5, outside the +-0.15
band around -1/3 that the same criterion demands.  The test asserts
both clauses honestly and therefore stays red on the second one.
"""

import filecmp
import pathlib

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from nlstable import basket, cli
from nlstable import config as config_mod
from nlstable.kernels import (KernelPair, UncertaintySet, band_bins,
                              drift_b, small_jump_second_moment)
from nlstable.laws import build_law
from nlstable.engine import NormalizedSumSpec, nested_sum_expectation
from nlstable.oracle import _tail_constants, classical_expectation
from nlstable.solver import (dpp_check, evaluate, make_grid, scaling_check,
                             solve_forward)

REPO = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def gaussian(x):
    return np.exp(-np.asarray(x, dtype=float) ** 2)


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_oracle_equivalence():
    """Singleton solves match characteristic-function inversion:
    <= 2e-2 at nx=801 and <= 1e-2 at nx=1601, six (alpha, pair) combos."""
    gaps = {}
    for alpha in (1.25, 1.5, 1.75):
        for km, kp in ((1.0, 1.0), (2.0, 1.0)):
            uset = UncertaintySet(alpha, (KernelPair(km, kp),), 0.05, 4.0)
            ref = classical_expectation(gaussian, uset.pairs[0], alpha, 1.0)
            for nx, tol in ((801, 2e-2), (1601, 1e-2)):
                grid = make_grid(-20.0, 20.0, nx, 1.0, uset)
                u = solve_forward(gaussian, grid, uset)
                gap = abs(evaluate(u, 1.0, 0.0) - ref)
                gaps[(alpha, km, kp, nx)] = (gap, tol)
    ok = all(g <= tol for g, tol in gaps.values())
    worst = max(g / tol for g, tol in gaps.values())
    report(1, ok, f"12 solves, worst gap/tolerance = {worst:.3f}")
    assert ok, gaps


@pytest.fixture(scope="module")
def clt_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("clt")
    cfg = config_mod.load(str(CONFIGS / "clt_corner.json"))
    cli.run_clt(cfg, str(out))
    tables = {}
    for p in sorted(out.glob("convergence_*.csv")):
        rows = [line.split(",") for line in
                p.read_text().strip().split("\n")[1:]]
        tables[p.stem] = {int(r[0]): float(r[4]) for r in rows}
    return tables


def test_criterion_2_clt_convergence(clt_run):
    """Corner-pair family, 3-function basket: error(64) <= error(8)/2
    and error(64) <= 5e-2."""
    details = []
    ok = True
    for name, errs in clt_run.items():
        good = errs[64] <= errs[8] / 2.0 and errs[64] <= 5e-2
        ok = ok and good
        details.append(f"{name}: {errs[8]:.2e} -> {errs[64]:.2e}")
    report(2, ok, "; ".join(details))
    assert ok, clt_run


@pytest.fixture(scope="module")
def condition_iii_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("hyp")
    cfg = config_mod.load(str(CONFIGS / "hypothesis_condition_iii.json"))
    cli.run_hypothesis(cfg, str(out))
    rows = [line.split(",") for line in
            (out / "residuals.csv").read_text().strip().split("\n")[1:]]
    return {int(r[0]): float(r[1]) for r in rows}, float(rows[0][2])


def test_criterion_3_condition_iii_rate(condition_iii_table):
    """Fitted log-log rate within +-0.15 of -(2/alpha - 1) = -1/3."""
    _, rate = condition_iii_table
    ok = abs(rate - (-1.0 / 3.0)) <= 0.15
    report(3, ok, f"rate clause: fitted {rate:.4f} vs -1/3 +- 0.15")
    assert ok


def test_criterion_3_condition_iii_factor(condition_iii_table):
    """Residual at n=256 below n=16 by a factor >= 4.

    Expected red: see the module docstring.  The residual follows the
    n^(1-2/alpha) power law whose total decay over this span is ~2.52;
    the clause is unattainable simultaneously with the rate clause.
    """
    residuals, _ = condition_iii_table
    factor = residuals[16] / residuals[256]
    ok = factor >= 4.0
    report(3, ok, f"factor clause: r(16)/r(256) = {factor:.3f}, need >= 4")
    assert ok


def test_criterion_4_scaling_law():
    uset = UncertaintySet(1.5, (KernelPair(1.0, 1.0),), 0.05, 4.0)
    res = {}
    for nx, tol in ((801, 5e-2), (1601, 2e-2)):
        grid = make_grid(-20.0, 20.0, nx, 1.0, uset)
        res[nx] = (scaling_check(gaussian, 2.0, 0.5, grid, uset), tol)
    ok = all(r < tol for r, tol in res.values())
    report(4, ok, f"beta=2 residuals: {res[801][0]:.2e} (801), "
                  f"{res[1601][0]:.2e} (1601)")
    assert ok, res


def test_criterion_5_dynamic_programming():
    uset = UncertaintySet(1.5, (KernelPair(1.0, 1.0),), 0.05, 4.0)
    grid = make_grid(-20.0, 20.0, 801, 1.0, uset)
    res = dpp_check(gaussian, 0.5, 1.0, grid, uset)
    ok = res < 1e-3
    report(5, ok, f"restart residual at s=t/2: {res:.2e}")
    assert ok


def test_criterion_6_regularity_suite(tmp_path):
    cfg = config_mod.load(str(CONFIGS / "regularity_clipped_linear.json"))
    # run_regularity enforces lip_x <= 1.05 Lip(psi) and raises if the
    # probed fields are unstable across the two grid resolutions
    lines = cli.run_regularity(cfg, str(tmp_path))
    text = (tmp_path / "regularity.txt").read_text()
    fields = dict(line.split("=") for line in text.strip().split("\n"))
    dxx = float(fields["dxx_bound_singleton"])
    ok = np.isfinite(dxx) and dxx > 0.0
    report(6, ok, f"lip_x={float(fields['lip_x']):.6f} <= 1.05, "
                  f"dxx bound {dxx:.4f} finite, both resolutions stable")
    assert ok, lines


def axiom_triples():
    """20 deterministic (psi1, psi2, c) triples."""
    triples = []
    for i in range(20):
        c1 = -2.0 + 0.4 * i
        w1 = 0.6 + 0.07 * i
        psi1 = basket.gaussian_bump(c1, w1)
        if i % 2 == 0:
            psi2 = basket.sigmoid(-c1 / 2.0, 0.5 + 0.1 * i)
        else:
            psi2 = basket.abs_clip(1.0 + 0.2 * i)
        c = 0.35 * i
        triples.append((psi1, psi2, c))
    return triples


def test_criterion_7_sublinear_axioms():
    uset = UncertaintySet(1.5, (KernelPair(0.1, 0.1), KernelPair(0.12, 0.12)),
                          0.05, 0.15)
    family = tuple(build_law(p, 1.5, 2.0) for p in uset.pairs)
    spec = NormalizedSumSpec(8, 1.5)
    grid = config_mod.ExperimentConfig(
        alpha=1.5, lam=0.05, Lam=0.15, pairs=((0.1, 0.1), (0.12, 0.12)),
        dp_dx=0.1).dp_grid()

    def E(phi):
        return nested_sum_expectation(phi, family, spec, grid)

    worst = {"mono": 0.0, "const": 0.0, "subadd": 0.0, "homog": 0.0}
    for psi1, psi2, c in axiom_triples():
        lo = E(lambda x: np.minimum(psi1(x), psi2(x)))
        hi = E(lambda x: np.maximum(psi1(x), psi2(x)))
        worst["mono"] = max(worst["mono"], lo - hi)

        worst["const"] = max(worst["const"],
                             abs(E(lambda x: np.full_like(x, c)) - c))

        gap = E(lambda x: psi1(x) + psi2(x)) - (E(psi1) + E(psi2))
        worst["subadd"] = max(worst["subadd"], gap)

        e1 = E(psi1)
        worst["homog"] = max(worst["homog"],
                             abs(E(lambda x: c * psi1(x)) - c * e1))

    ok = (worst["mono"] <= 1e-12 and worst["const"] <= 1e-9
          and worst["subadd"] <= 1e-6 * spec.n
          and worst["homog"] <= 1e-10 * max(1.0, 0.35 * 19))
    report(7, ok, "20 triples at n=8, worst violations: "
           + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
    assert ok, worst


def test_criterion_8_analytic_micro_oracles():
    rel = []

    k = KernelPair(1.7, 0.6)
    alpha = 1.4
    ref, _ = quad(lambda z: (k.k_minus - k.k_plus) * z ** (-alpha), 1.0,
                  np.inf)
    rel.append(abs(drift_b(k, alpha) / ref - 1.0))

    ref, _ = quad(lambda z: (k.k_minus + k.k_plus) * z ** (1.0 - alpha),
                  0.0, 0.7)
    rel.append(abs(small_jump_second_moment(k, alpha, 0.7) / ref - 1.0))

    # tail first moment of the band quadrature vs direct integration
    m, c = band_bins(2.0, 1e6, 2048, alpha)
    ref, _ = quad(lambda z: z ** -alpha, 2.0, 1e6)
    rel.append(abs(float(np.sum(m * c)) / ref - 1.0))

    # characteristic exponent vs the closed form Gamma(-alpha) e^(-i pi
    # alpha / 2) for the one-sided compensated power integral
    j_r, j_i = _tail_constants(1.5)
    rel.append(abs(j_r / (np.cos(0.75 * np.pi) * gamma_fn(-1.5)) - 1.0))
    rel.append(abs(j_i / (-np.sin(0.75 * np.pi) * gamma_fn(-1.5)) - 1.0))

    ok = max(rel) < 1e-6
    report(8, ok, f"5 oracles, worst relative error {max(rel):.2e}")
    assert ok, rel


def test_criterion_9_determinism(tmp_path):
    """Repeated CLI runs of bundled configs are byte-identical."""
    runs = [("solve", "solve_default"),
            ("hypothesis", "hypothesis_example_41"),
            ("regularity", "regularity_clipped_linear")]
    ok = True
    for command, name in runs:
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{name}-{rep}"
            code = cli.main([command, "--config",
                             str(CONFIGS / f"{name}.json"),
                             "--out", str(out)])
            assert code == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        same = names == sorted(p.name for p in outs[1].iterdir())
        match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names,
                                                   shallow=False)
        ok = ok and same and not mismatch and not errors
    report(9, ok, f"{len(runs)} configs rerun, all output files identical")
    assert ok
