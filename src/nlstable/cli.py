"""Command-line front end.

Subcommands ``solve``, ``clt``, ``hypothesis``, ``regularity`` each
take ``--config <path>`` and ``--out <dir>``; the lines a command prints
also go to ``<command>_summary.txt`` in ``--out``.  Exit codes: 0 on
pass, 2 on validation failure, 3 on numerical-threshold failure.  All
output files are written atomically (temp file then rename) and all
CSVs use 17-significant-digit decimals, so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import Iterable

import numpy as np

from . import config as config_mod
from .config import ExperimentConfig, field_tag
from .kernels import ConfigError, NumericalError, Surface
from .laws import AttractedLaw, build_law
from .engine import convergence_table
from .solver import (bracket, make_grid, solve_forward, evaluate,
                     surface_to_csv)
from .oracle import classical_expectation
from .checker import (check_condition_iii, condition_iii_rows,
                      example_41_check, example_41_rows, fit_rate)
from .regularity import (lipschitz_x, probe, compare_reports,
                         report_to_text)

ORACLE_TOL = 2e-2
LIP_SLACK = 1.05


def write_atomic(path: str, data: str | Iterable[bytes]) -> None:
    """Write a str (as UTF-8) or a stream of byte blocks to path through
    a temporary file in the same directory and a rename, so readers
    never see a partial file and no whole surface export is held in
    memory.  The file gets mode 0o666 less the umask, as open() would
    give it.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    umask = os.umask(0)     # reading the umask means setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            if isinstance(data, str):
                fh.write(data.encode("utf-8"))
            else:
                fh.writelines(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def table_to_csv(header: str, rows) -> str:
    """CSV text of a header line and rows of numbers, each ``%.17g``
    (which prints a Python int as str() does)."""
    lines = [header] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _march_inputs(cfg: ExperimentConfig, psi, horizon: float,
                  nx: int | None = None):
    """psi, the grid and the uncertainty set of psi marched forward to
    ``horizon`` (on ``nx`` nodes if given): the one grid rule."""
    uset = cfg.uncertainty_set()
    grid = make_grid(cfg.x_min, cfg.x_max, nx or cfg.nx, horizon, uset,
                     r_cut=cfg.r_cut, z_max=cfg.z_max, safety=cfg.safety)
    return psi, grid, uset


def _surface(cfg: ExperimentConfig, psi, horizon: float,
             nx: int | None = None) -> Surface:
    """The whole march, for the commands that read rows across time."""
    return solve_forward(*_march_inputs(cfg, psi, horizon, nx))


def _one_psi(cfg: ExperimentConfig):
    """The config's one test function, for the commands that take one."""
    psis = cfg.psi_functions()
    if len(psis) > 1:
        raise ConfigError("psi", f"{len(psis)} test functions given; this "
                          "command takes exactly one")
    return psis[0]


def run_solve(cfg: ExperimentConfig, out: str) -> list[str]:
    uset = cfg.uncertainty_set()
    summary = []
    for psi in cfg.psi_functions():
        surface = _surface(cfg, psi, cfg.t_max)
        tag = psi.tag
        write_atomic(os.path.join(out, f"surface_{tag}.csv"),
                     surface_to_csv(surface))

        overshoot = float(np.max(np.abs(surface.values))) - psi.sup
        lip = lipschitz_x(surface)
        line = (f"{tag}: max_principle_residual={max(overshoot, 0.0):.3e} "
                f"lip={lip:.6g} lip_bound={psi.lip * LIP_SLACK:.6g}")
        if overshoot > 1e-9 or lip > psi.lip * LIP_SLACK + 1e-12:
            raise NumericalError("nx", "solve checks failed: " + line)
        if len(uset.pairs) == 1:
            ref = classical_expectation(psi, uset.pairs[0], cfg.alpha,
                                        cfg.t_max)
            gap = abs(evaluate(surface, cfg.t_max, 0.0) - ref)
            line += f" oracle_gap={gap:.3e}"
            if gap > ORACLE_TOL:
                raise NumericalError(
                    "nx", f"solver disagrees with the classical oracle by "
                    f"{gap:.3e} > {ORACLE_TOL}")
        summary.append(line)
    return summary


def _laws(cfg: ExperimentConfig) -> tuple[AttractedLaw, ...]:
    """One attracted law per kernel pair; a law that cannot be built
    raises ConfigError naming z0 or b_scale."""
    return tuple(build_law(p, cfg.alpha, cfg.b_scale, cfg.z0)
                 for p in cfg.uncertainty_set().pairs)


def run_clt(cfg: ExperimentConfig, out: str) -> list[str]:
    laws = _laws(cfg)
    dp_grid = cfg.dp_grid()
    summary = []
    for psi in cfg.psi_functions():
        # march grid, DP, march: a too-large grid is refused before any work
        march = _march_inputs(cfg, psi, 1.0)
        dp_rows = convergence_table(psi, laws, cfg.n_values, dp_grid)
        pide_value = evaluate(
            solve_forward(*march, rows=bracket(march[1], 1.0)[0]), 1.0, 0.0)
        rows = [(*r, pide_value, abs(r[2] - pide_value)) for r in dp_rows]
        tag = psi.tag
        write_atomic(os.path.join(out, f"convergence_{tag}.csv"),
                     table_to_csv("n,B_n,nested_value,pide_value,abs_error",
                                  rows))
        errs = [r[4] for r in rows]
        _, rate = fit_rate([r[0] for r in rows], errs, [0.0] * len(rows))
        summary.append(f"{tag}: pide_value={pide_value:.10g} "
                       f"first_error={errs[0]:.3e} "
                       f"last_error={errs[-1]:.3e} fitted_rate={rate:.4f}")
    return summary


def run_hypothesis(cfg: ExperimentConfig, out: str) -> list[str]:
    psi = _one_psi(cfg)
    horizon = 1.0 + cfg.h
    laws = _laws(cfg) if cfg.mode == "condition_iii" else None
    fine = _march_inputs(cfg, psi, horizon)
    # each march stores only the rows its check names
    if laws is not None:
        coarse = _march_inputs(cfg, psi, horizon, cfg.coarse_nx)
        rows, rows_c = condition_iii_rows(fine[1], coarse[1])
        table = check_condition_iii(laws, solve_forward(*fine, rows),
                                    solve_forward(*coarse, rows_c),
                                    cfg.n_values)
    else:
        table = example_41_check(
            solve_forward(*fine, example_41_rows(fine[1], cfg.n_values)),
            cfg.n_values)
    write_atomic(os.path.join(out, "residuals.csv"), table_to_csv(
        "n,residual,rate_fit,term1,term2,term3,term4",
        [(n, r, table.fitted_rate, *d) for n, r, d in
         zip(table.n_values, table.residuals, table.term_diagnostics)]))
    return [
        f"mode={cfg.mode} fitted_rate={table.fitted_rate:.4f}",
        "n,residual,floor,kept",
    ] + [f"{n},{r:.6e},{f:.2e},{int(k)}"
         for n, r, f, k in zip(table.n_values, table.residuals,
                               table.floor, table.kept)]


def run_regularity(cfg: ExperimentConfig, out: str) -> list[str]:
    uset = cfg.uncertainty_set()
    psi = _one_psi(cfg)
    singleton = len(uset.pairs) == 1
    horizon = 1.0 + cfg.h

    report = probe(_surface(cfg, psi, horizon), cfg.h, singleton)
    report_c = probe(_surface(cfg, psi, horizon, cfg.coarse_nx), cfg.h,
                     singleton)
    compare_reports(report, report_c)

    if report.lip_x > psi.lip * LIP_SLACK:
        raise NumericalError(
            "nx", f"measured Lipschitz constant {report.lip_x:.6g} exceeds "
            f"{LIP_SLACK} x Lip(psi) = {psi.lip * LIP_SLACK:.6g}")
    write_atomic(os.path.join(out, "regularity.txt"),
                 report_to_text(report))
    return [f"lip_psi={psi.lip:.6g}", "fine:"] \
        + report_to_text(report).splitlines() \
        + ["coarse:"] + report_to_text(report_c).splitlines()


_COMMANDS = {
    "solve": run_solve,
    "clt": run_clt,
    "hypothesis": run_hypothesis,
    "regularity": run_regularity,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlstable",
        description="Deterministic experiments for stable limits under "
                    "sublinear expectation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    try:
        cfg = config_mod.load(args.config)
        if args.command in ("hypothesis", "regularity"):
            _one_psi(cfg)
    except ConfigError as exc:
        print(f"config error: {field_tag(exc.field)} {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"--out error: {exc}", file=sys.stderr)
        return 2
    try:
        summary = _COMMANDS[args.command](cfg, args.out)
        write_atomic(os.path.join(args.out, f"{args.command}_summary.txt"),
                     "\n".join(summary) + "\n")
        for line in summary:
            print(line)
    except ConfigError as exc:
        print(f"validation error: {field_tag(exc.field)} {exc}",
              file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {field_tag(exc.field)} {exc}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
