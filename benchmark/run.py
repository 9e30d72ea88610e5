"""nlstable benchmark: bundled CLI experiments in fresh processes.

    python3 benchmark/run.py --workload clt|hypothesis|solve|all \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmark/run.py --self-test

Run from the root of a source checkout; the program is imported from
``src/``.  Each invocation is its own process, launched one at a time by
a single client that waits for it to exit (a closed loop), because a
user pays the imports, cache fills and oracle tables on every run.

Untraced (``--trace 0``): one set-up-only process adds a set-up sample
and warms the caches.  Then passes over the workload's invocations
repeat, at least twice, so that every output can be compared byte for
byte with the first pass, and after that while the next pass is
expected to end within ``--seconds`` of the start.  Reports ``wall_s``,
``setup_s`` and ``peak_rss_mb``.

Traced (``--trace 1``): one untraced pass, then one pass with spans
around every layer call.  Reports the per-layer metrics.

Every pass checks every output; a failing invocation counts in
``failed``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import WORKLOADS, Invocation, check, make_config, output_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".benchmark_runs"
DEADLINE_S = 170.0          # a run must exit within 180 s
MIN_PASSES = 2              # byte-identity needs two passes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ENGINE_N = (8, 16, 32, 64)  # the clt config's n_values

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "kernels.apply_s": "s", "kernels.apply_calls": "count",
    "kernels.apply_ms": "ms", "kernels.stencil_builds": "count",
    "kernels.stencil_s": "s", "kernels.taps": "count",
    "kernels.conv_len": "count_computed", "kernels.self_s": "s",
    "solver.march_s": "s", "solver.self_s": "s", "solver.steps": "count",
    "solver.step_ms": "ms", "solver.surface_mb": "MB_computed",
    "solver.export_s": "s", "solver.export_mb": "MB",
    "engine.dp_s": "s", "engine.self_s": "s", "engine.stages": "count",
    **{f"engine.stage_ms.n{n}": "ms" for n in ENGINE_N},
    **{f"engine.dp_nodes.n{n}": "count" for n in ENGINE_N},
    "checker.check_s": "s", "checker.self_s": "s", "checker.bounds_s": "s",
    "oracle.expectation_s": "s", "oracle.calls": "count",
    "oracle.self_s": "s",
    "laws.build_s": "s", "regularity.probe_s": "s", "config.load_s": "s",
    "cli.import_s": "s", "cli.write_s": "s", "cli.write_mb": "MB",
    "cli.self_s": "s",
    "process.cpu_s": "s", "process.cpu_util": "ratio",
    "trace.overhead_s": "s", "trace.wall_s": "s", "trace.remainder_s": "s",
}
# Self times that, with trace.remainder_s, add up to trace.wall_s.
ACCOUNTING = ("kernels.self_s", "solver.self_s", "solver.export_s",
              "engine.self_s", "checker.self_s", "oracle.self_s",
              "laws.build_s", "regularity.probe_s", "config.load_s",
              "cli.self_s", "trace.remainder_s")
# Counts that must repeat exactly between two traced runs of the same
# code and seed; the seed-invariant ones must also repeat across seeds.
SEED_INVARIANT = ("kernels.apply_calls", "kernels.stencil_builds",
                  "kernels.taps", "kernels.conv_len", "solver.steps",
                  "solver.surface_mb", "engine.stages", "oracle.calls",
                  *(f"engine.dp_nodes.n{n}" for n in ENGINE_N))
EXACT_COUNTS = SEED_INVARIANT + ("solver.export_mb", "cli.write_mb")


class BenchmarkError(RuntimeError):
    """The checkout cannot be benchmarked at all."""


@dataclass
class Launch:
    """One finished process: times on the shared monotonic clock."""

    inv: Invocation
    mode: str
    start: float
    end: float
    code: int
    cpu_s: float
    rss_mb: float
    report: dict
    problems: list = field(default_factory=list)
    digest: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def setup(self) -> float | None:
        end = self.report.get("setup_end")
        return None if end is None else end - self.start


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def launch(inv: Invocation, cfg: Path, out: Path, mode: str,
           deadline: float) -> Launch:
    """Run one invocation in a fresh process and reap it with wait4,
    which gives that process's own CPU time and peak RSS."""
    report_path = out.with_suffix(".json")
    cmd = [sys.executable, str(BENCH / "child.py"), str(report_path), mode,
           "--", inv.command, "--config", str(cfg), "--out", str(out)]
    with open(out.with_suffix(".log"), "wb") as log:
        start = tracing.clock()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        lock, reaped = threading.Lock(), [False]

        def expire():
            with lock:
                if not reaped[0]:
                    proc.kill()

        timer = threading.Timer(max(deadline - start, 0.0), expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = tracing.clock()
            with lock:
                reaped[0] = True
                proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = {}
    return Launch(inv, mode, start, end, proc.returncode,
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  report)


def run_pass(work: Path, cfgs: list, tag: str, mode: str, deadline: float,
             science: bool, reference: list | None) -> list[Launch]:
    """Each invocation once, in order, checked against its gates and,
    when given, against the outputs of an earlier pass."""
    done = []
    for i, (inv, cfg) in enumerate(cfgs):
        out = work / f"{tag}_{i}"
        run = launch(inv, cfg, out, mode, deadline)
        if run.code != 0:
            tail = out.with_suffix(".log").read_text(errors="replace")
            run.problems.append(f"exit code {run.code}: {tail[-300:]!r}")
        elif mode != "setup":
            run.problems += check(inv, out, out.with_suffix(".log")
                                  .read_text(), science)
            run.digest = output_digest(out)
            if reference and (len(reference) <= i
                              or run.digest != reference[i].digest):
                run.problems.append("outputs differ from the first pass")
        shutil.rmtree(out, ignore_errors=True)
        done.append(run)
        if run.code != 0 and tracing.clock() >= deadline:
            break
    return done


def layer_metrics(traced: list[Launch], untraced: list[Launch]):
    """Per-layer metrics from the traced pass, plus the problems found
    in the spans themselves."""
    dur, layer_self = Counter(), Counter()
    calls, attrs = Counter(), Counter()
    stage_s, stage_n, nodes = Counter(), Counter(), {}
    remainder, problems = 0.0, []
    for run in traced:
        spans = run.report.get("spans", [])
        problems += tracing.nesting_problems(spans, run.start, run.end)
        own = tracing.self_times(spans)
        for s in spans:
            name, d = s["name"], s["end"] - s["start"]
            dur[name] += d
            calls[name] += 1
            # the export is reported on its own, so the solver's self
            # time is the march (and grid set-up) minus the kernels
            layer_self[name if name == "solver.export"
                       else name.split(".")[0]] += own[s["id"]]
            for k, v in s["attrs"].items():
                attrs[f"{name}.{k}"] += v
            if name == "engine.stages" and "n" in s["attrs"]:
                n = s["attrs"]["n"]
                stage_s[n] += d
                stage_n[n] += n
                nodes[n] = s["attrs"]["nodes"]
        roots = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
        remainder += run.wall - tracing.covered(roots, run.start, run.end)

    def per(total, count, scale=1e3):
        return scale * total / count if count else 0.0

    wall = sum(r.wall for r in traced)
    plain = sum(r.wall for r in untraced)
    cpu = sum(r.cpu_s for r in untraced)
    m = {
        "kernels.apply_s": dur["kernels.apply"],
        "kernels.apply_calls": calls["kernels.apply"],
        "kernels.apply_ms": per(dur["kernels.apply"], calls["kernels.apply"]),
        "kernels.stencil_builds": calls["kernels.stencil"],
        "kernels.stencil_s": dur["kernels.stencil"],
        "kernels.taps": attrs["kernels.stencil.taps"],
        "kernels.conv_len": attrs["kernels.apply.conv_len"],
        "kernels.self_s": layer_self["kernels"],
        "solver.march_s": dur["solver.march"],
        "solver.self_s": layer_self["solver"],
        "solver.steps": attrs["solver.march.steps"],
        "solver.step_ms": per(dur["solver.march"],
                              attrs["solver.march.steps"]),
        "solver.surface_mb": attrs["solver.march.bytes"] / 1e6,
        "solver.export_s": dur["solver.export"],
        "solver.export_mb": attrs["solver.export.bytes"] / 1e6,
        "engine.dp_s": dur["engine.dp"],
        "engine.self_s": layer_self["engine"],
        "engine.stages": sum(stage_n.values()),
        **{f"engine.stage_ms.n{n}": per(stage_s[n], stage_n[n])
           for n in ENGINE_N},
        **{f"engine.dp_nodes.n{n}": nodes.get(n, 0) for n in ENGINE_N},
        "checker.check_s": dur["checker.check"],
        "checker.self_s": layer_self["checker"],
        "checker.bounds_s": dur["checker.bounds"],
        "oracle.expectation_s": dur["oracle.expectation"],
        "oracle.calls": calls["oracle.expectation"],
        "oracle.self_s": layer_self["oracle"],
        "laws.build_s": dur["laws.build"],
        "regularity.probe_s": dur["regularity.probe"],
        "config.load_s": dur["config.load"],
        "cli.import_s": dur["cli.import"],
        "cli.write_s": dur["cli.write"],
        "cli.write_mb": attrs["cli.write.bytes"] / 1e6,
        "cli.self_s": layer_self["cli"],
        "process.cpu_s": cpu,
        "process.cpu_util": cpu / plain if plain else 0.0,
        "trace.overhead_s": wall - plain,
        "trace.wall_s": wall,
        "trace.remainder_s": remainder,
    }
    m.update((k, float(m[k])) for k, u in PER_LAYER.items() if u in ("s", "ms"))
    gap = sum(m[k] for k in ACCOUNTING) - wall
    if abs(gap) > 1e-6 * max(1, len(traced)):
        problems.append(f"self times and remainder miss the traced wall "
                        f"time by {gap:.3e} s")
    return m, problems


def code_fingerprint() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")) \
            + sorted((ROOT / "configs").glob("*.json")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def count_problems(workload: str, seed: int, metrics: dict) -> list[str]:
    """Compare this traced run's exact counts with earlier traced runs of
    the same code in this checkout; a difference is a benchmark bug."""
    path = RUNS / "counts.json"
    key = code_fingerprint()
    try:
        seen = json.loads(path.read_text())
    except (OSError, ValueError):
        seen = {}
    entry = seen.get(key, {})
    runs = entry.setdefault(workload, {})
    problems = []
    for other_seed, counts in runs.items():
        names = EXACT_COUNTS if other_seed == str(seed) else SEED_INVARIANT
        problems += [f"benchmark bug: {n} = {metrics[n]} at seed {seed} but "
                     f"{counts[n]} at seed {other_seed}"
                     for n in names if counts.get(n) != metrics[n]]
    runs[str(seed)] = {n: metrics[n] for n in EXACT_COUNTS}
    path.write_text(json.dumps({key: entry}))
    return problems


def environment(launches: list[Launch]) -> dict:
    env = next((r.report["environment"] for r in launches
                if "environment" in r.report), {})
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                      .glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower()}"] = size
    return {**env, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_caches": caches,
            "max_process_threads": max((r.report.get("threads") or 0
                                        for r in launches), default=0)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    start = tracing.clock()
    deadline = start + DEADLINE_S
    work = RUNS / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfgs = []
    for i, inv in enumerate(WORKLOADS[workload]):
        path = work / f"config_{i}.json"
        path.write_text(json.dumps(make_config(inv, seed, ROOT / "configs",
                                               tiny), indent=2))
        cfgs.append((inv, path))
    science = not tiny

    # every invocation sets up the same way (import, then load and
    # validate its config), so one set-up-only process adds a sample;
    # run first, it also warms the file and bytecode caches
    probes = [] if trace else run_pass(work, cfgs[:1], "setup", "setup",
                                       deadline, science, None)
    timed = tracing.clock()
    passes = [run_pass(work, cfgs, "pass1", "run", deadline, science, None)]
    if trace:
        passes.append(run_pass(work, cfgs, "pass2", "trace", deadline,
                               science, passes[0]))
    # beyond the minimum, a pass starts only if, at the mean pass time so
    # far, it ends within --seconds of the start and well before the
    # deadline
    while not trace:
        now = tracing.clock()
        per_pass = (now - timed) / len(passes)
        if len(passes) >= MIN_PASSES and (
                now + per_pass > start + seconds
                or now + 1.5 * per_pass > deadline):
            break
        passes.append(run_pass(work, cfgs, f"pass{len(passes) + 1}", "run",
                               deadline, science, passes[0]))
    launches = probes + [r for p in passes for r in p]
    problems = []
    if any(len(p) < len(cfgs) for p in passes):
        problems.append("deadline reached before the passes finished")
    if trace:
        metrics, found = layer_metrics(passes[1], passes[0])
        problems += found
        if not tiny:
            problems += count_problems(workload, seed, metrics)
        units = PER_LAYER
        spans = [{"invocation": i, "command": r.inv.command,
                  "launch": r.start, "exit": r.end,
                  "spans": r.report.get("spans", [])}
                 for i, r in enumerate(passes[1])]
        (work / "trace.json").write_text(json.dumps(spans))
    else:
        setup = [r.setup for r in launches if r.setup is not None]
        metrics = {
            "wall_s": statistics.median(sum(r.wall for r in p)
                                        for p in passes),
            "setup_s": len(cfgs) * statistics.median(setup) if setup else 0.0,
            "peak_rss_mb": statistics.median(max(r.rss_mb for r in p)
                                             for p in passes),
        }
        units = END_TO_END
    failed = sum(bool(r.problems) for r in launches)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(launches),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    # a name a later nlstable no longer has leaves its metrics at 0
    untraced = sorted({name for r in launches
                       for name in r.report.get("missing", [])})
    record = {"workload": workload, "seed": seed, "trace": trace,
              "passes": len(passes), "problems": problems,
              "not_traced": untraced,
              "environment": environment(launches),
              "invocations": [{"command": r.inv.command, "mode": r.mode,
                               "wall_s": r.wall, "setup_s": r.setup,
                               "cpu_s": r.cpu_s, "rss_mb": r.rss_mb,
                               "code": r.code, "problems": r.problems}
                              for r in launches],
              "result": result}
    (work / "report.json").write_text(json.dumps(record, indent=2))
    return record


def print_record(record: dict) -> None:
    res = record["result"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} passes={record['passes']} "
          f"failed_runs={res['failed']}/{res['attempted']}")
    for name, m in res["metrics"].items():
        print(f"{name:28s} {m['value']:>16.6f} {m['unit']}")
    for r in record["invocations"]:
        for p in r["problems"]:
            print(f"FAILED {r['command']} ({r['mode']}): {p}")
    for p in record["problems"]:
        print(f"PROBLEM {p}")
    for name in record["not_traced"]:
        print(f"WARNING could not trace {name}; its metrics read 0")
    print("environment " + json.dumps(record["environment"]))


def preflight() -> None:
    needed = [ROOT / "src" / "nlstable" / "cli.py"] + \
        [ROOT / "configs" / inv.config for invs in WORKLOADS.values()
         for inv in invs]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchmarkError(f"not an nlstable checkout; missing {missing}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test == (args.workload is not None):
        parser.error("give exactly one of --workload and --self-test")
    try:
        preflight()
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest
        return selftest.main()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names]
    for record in records:
        print_record(record)
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
