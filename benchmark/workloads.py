"""The three workloads, their seeded configs and their correctness gates.

Each workload is a fixed list of CLI invocations on the bundled
configs.  A seed changes only test-function parameters (the psi centre,
or the clip of ``abs_clip``), never ``nx``, the pairs, ``n_values`` or
the DP sizes, so step, tap and node counts are the same for every seed.
Seed 0 runs the bundled configs exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

RATE_III = -1.0 / 3.0     # paper's condition (iii) rate, 1 - 2/alpha
RATE_III_TOL = 0.15
CLT_MAX_ERROR = 5e-2      # criterion 2
ORACLE_TOL = 2e-2         # the CLI's own solve thresholds
LIP_SLACK = 1.05
MAX_PRINCIPLE_TOL = 1e-9


@dataclass(frozen=True)
class Invocation:
    command: str
    config: str               # file under configs/
    only_psi: str | None = None


WORKLOADS = {
    # The headline experiment: both FFT layers at their largest sizes and
    # the only multi-pair march.  The full 3-psi config costs 2.5x more
    # and adds no new layer behaviour, so only gaussian_bump is run.
    "clt": (Invocation("clt", "clt_corner.json", only_psi="gaussian_bump"),),
    # The only workload where the checker works: backward marches with a
    # single pair at nx 1601 and 801.
    "hypothesis": (Invocation("hypothesis", "hypothesis_condition_iii.json"),
                   Invocation("hypothesis", "hypothesis_example_41.json")),
    # The write-heavy path: full-surface CSV exports, the oracle
    # inversion, the upwinded-drift stencil and the regularity probes.
    "solve": (Invocation("solve", "solve_default.json"),
              Invocation("solve", "solve_asymmetric.json"),
              Invocation("regularity", "regularity_clipped_linear.json")),
}

# Workload shapes kept for the harness self-test: every layer runs, in
# seconds rather than minutes.
TINY = {"nx": 201, "n_values": [2, 4]}


def make_config(inv: Invocation, seed: int, configs: Path,
                tiny: bool = False) -> dict:
    cfg = json.loads((configs / inv.config).read_text())
    if inv.only_psi is not None:
        cfg["psi"] = [p for p in cfg["psi"] if p == {"name": inv.only_psi}]
    if seed:
        rng = random.Random(f"{seed}:{inv.config}")
        for spec in cfg["psi"]:
            if spec["name"] in ("gaussian_bump", "sigmoid"):
                spec["center"] = round(rng.uniform(-0.5, 0.5), 6)
            elif spec["name"] == "abs_clip":
                spec["clip"] = round(rng.uniform(2.5, 3.5), 6)
    if tiny:
        cfg.update(TINY)
    return cfg


def output_digest(out: Path) -> dict:
    """sha256 of every output file, by relative path."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


# Python prints every non-finite float as one of these tokens.
_NON_FINITE = re.compile(r"(?<![\w.])[-+]?(?:inf|infinity|nan)(?!\w)",
                         re.IGNORECASE)


def _non_finite(text: str) -> bool:
    # The regex takes seconds on a 55 MB surface export; a plain substring
    # test first skips it on every text that holds none of the tokens.
    low = text.lower()
    return ("nan" in low or "inf" in low) and bool(_NON_FINITE.search(text))


def _fields(line: str) -> dict:
    return dict(kv.split("=", 1) for kv in line.split() if "=" in kv)


def check(inv: Invocation, out: Path, stdout: str, science: bool) -> list[str]:
    """Problems with one invocation's outputs; empty when it is correct.

    ``science`` adds the paper's thresholds, which only hold at the
    bundled sizes (the self-test's tiny grids skip them)."""
    problems = []
    texts = {p.name: p.read_text() for p in out.glob("*")
             if p.suffix in (".csv", ".txt")}
    for name, text in list(texts.items()) + [("stdout", stdout)]:
        if _non_finite(text):
            problems.append(f"{name} holds a non-finite number")
    expected = {"clt": ("clt_summary.txt",),
                "hypothesis": ("residuals.csv", "hypothesis_summary.txt"),
                "solve": ("solve_summary.txt",),
                "regularity": ("regularity.txt", "regularity_summary.txt")}
    missing = [n for n in expected[inv.command] if n not in texts]
    if missing:
        return problems + [f"missing outputs {missing}"]
    if not science or problems:
        return problems

    if inv.command == "clt":
        tables = [n for n in texts if n.startswith("convergence_")]
        if not tables:
            problems.append("no convergence table")
        for name in tables:
            rows = list(csv.DictReader(texts[name].splitlines()))
            first, last = (float(rows[i]["abs_error"]) for i in (0, -1))
            if not (last <= first / 2.0 and last <= CLT_MAX_ERROR):
                problems.append(f"{name}: error {last:.3e} at n={rows[-1]['n']}"
                                f" vs {first:.3e} at n={rows[0]['n']}")
    elif inv.command == "hypothesis":
        rows = list(csv.DictReader(texts["residuals.csv"].splitlines()))
        mode = _fields(texts["hypothesis_summary.txt"].splitlines()[0])["mode"]
        rate = float(rows[0]["rate_fit"])
        if mode == "condition_iii" and abs(rate - RATE_III) > RATE_III_TOL:
            problems.append(f"condition (iii) rate {rate:.4f} not within "
                            f"{RATE_III_TOL} of {RATE_III:.4f}")
    elif inv.command == "solve":
        surfaces = list(out.glob("surface_*.csv"))
        lines = texts["solve_summary.txt"].splitlines()
        if not surfaces or len(surfaces) != len(lines):
            problems.append("surface exports do not match the summary")
        for line in lines:
            f = _fields(line)
            if float(f["max_principle_residual"]) > MAX_PRINCIPLE_TOL:
                problems.append(f"max principle: {line}")
            if float(f["lip"]) > float(f["lip_bound"]) + 1e-12:
                problems.append(f"Lipschitz: {line}")
            if "oracle_gap" not in f or float(f["oracle_gap"]) > ORACLE_TOL:
                problems.append(f"oracle: {line}")
    elif inv.command == "regularity":
        lip_psi = float(_fields(texts["regularity_summary.txt"])["lip_psi"])
        lip_x = float(_fields(texts["regularity.txt"])["lip_x"])
        if lip_x > LIP_SLACK * lip_psi:
            problems.append(f"regularity Lipschitz {lip_x} > "
                            f"{LIP_SLACK} x {lip_psi}")
    return problems
