#!/usr/bin/env python3
"""Benchmark a change against its parent, in alternating pairs.

    python3 scripts/bench.py --parent DIR --change DIR --pr N \\
        --workload clt [--workload solve ...] [--pairs 10] [--seed 0] \\
        [--trace clt ...] [--claim clt:wall_s] [--tier1] [--out BENCH_N.json]

DIR is the root of a source checkout (for example a ``git archive`` of
each commit).  For every workload and pair, ``benchmark/run.py
--workload W`` runs once in each checkout, one process at a time; the
side that runs first alternates from pair to pair.  Each ``--trace``
workload then runs once per side with ``--trace 1``.

The report holds every run, and per workload and end-to-end metric the
median and quartiles of each side and the number of pairs the change
won (ties count for neither side).  The metric names, units and
directions come from the change's ``BENCHMARK.json``.  With ``--tier1``
the Tier-1 suite (``python TIER1``, ``src`` on ``PYTHONPATH``) then runs
once per side, parent first, and ``tier1`` holds its wall time, outcome
counts and failed tests.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def run_benchmark(root: Path, workload: str, seed: int, trace: bool) -> dict:
    """One ``benchmark/run.py`` run in ``root``; its result and the
    environment line it prints."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), {})
    return {"result": result, "environment": env}


def run_tier1(root: Path) -> dict:
    """One Tier-1 run in ``root``: wall time, outcome counts and the
    failed tests."""
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = {("errors" if kind.startswith("error") else kind): int(n)
              for n, kind in re.findall(
                  r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)",
                  summary)}
    return {"wall_s": round(wall, 2), "exit_code": proc.returncode, **counts,
            "failed_tests": re.findall(r"^FAILED (\S+)", proc.stdout, re.M)}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the
    change won."""
    out = {}
    for name, direction in better.items():
        sides = {s: [r[s][name] for r in runs] for s in SIDES}
        sign = 1.0 if direction == "lower" else -1.0
        won = sum(sign * (p - c) > 0.0
                  for p, c in zip(sides["parent"], sides["change"]))
        par = quartiles(sides["parent"])
        chg = quartiles(sides["change"])
        out[name] = {"parent": par, "change": chg,
                     "change_vs_parent": chg["median"] / par["median"] - 1.0,
                     "parent_iqr": par["q3"] - par["q1"],
                     "change_better_pairs": won, "pairs": len(runs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="append", default=[])
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC whose gain the report checks")
    parser.add_argument("--tier1", action="store_true",
                        help="also run the Tier-1 suite once per side")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    report = {"pr": args.pr, "host": {"cores": os.cpu_count()},
              "method": (f"benchmark/run.py --workload W --seed {args.seed} "
                         f"in a parent and a change checkout, {args.pairs} "
                         "pairs per workload, alternating which side runs "
                         "first; traced: --trace 1 once per side"),
              "workloads": {}, "traced": {}}
    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            row = {"pair": i + 1, "first": order[0]}
            for side in order:
                rec = run_benchmark(roots[side], workload, args.seed, False)
                res = rec["result"]
                row[side] = {k: v["value"] for k, v in res["metrics"].items()}
                row[side]["failed"] = f"{res['failed']}/{res['attempted']}"
                report["host"].update(rec["environment"])
            runs.append(row)
            print(f"{workload} pair {i + 1}: " + ", ".join(
                f"{s} wall_s {row[s]['wall_s']:.3f}" for s in SIDES),
                file=sys.stderr, flush=True)
        report["workloads"][workload] = {"summary": summarize(runs, better),
                                         "runs": runs}
    for workload in args.trace:
        report["traced"][workload] = {
            side: {k: v["value"] for k, v in run_benchmark(
                roots[side], workload, args.seed, True)
                ["result"]["metrics"].items()}
            for side in SIDES}

    if args.tier1:
        report["tier1"] = {"command": "PYTHONPATH=src python "
                           + " ".join(TIER1)}
        for side in SIDES:
            report["tier1"][side] = run_tier1(roots[side])
            print(f"tier1 {side}: {report['tier1'][side]['wall_s']} s",
                  file=sys.stderr, flush=True)

    claims = {}
    for claim in args.claim:
        workload, metric = claim.split(":")
        s = report["workloads"][workload]["summary"][metric]
        gap = abs(s["change"]["median"] - s["parent"]["median"])
        claims[claim] = {
            "change_vs_parent": s["change_vs_parent"],
            "change_better_pairs": f"{s['change_better_pairs']}/{s['pairs']}",
            "beyond_parent_iqr": gap > s["parent_iqr"],
            "met": (10 * s["change_better_pairs"] >= 9 * s["pairs"]
                    and gap > s["parent_iqr"])}
    report["claims"] = claims
    out = args.out or Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(claims, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
