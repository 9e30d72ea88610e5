"""Self-test of the harness: span arithmetic on known numbers, then every
workload on a tiny variant (nx=201, n_values [2, 4]) checked for metric
names, units, span nesting, the self-time accounting in seconds, which
layers each workload exercises, and counts that repeat.

    python3 benchmark/run.py --self-test
"""

from __future__ import annotations

import json
import math

import run
import tracing

# layer metric -> workloads on which it must be non-zero; zero elsewhere
ACTIVE = {"engine.dp_s": {"clt"}, "checker.check_s": {"hypothesis"},
          "oracle.expectation_s": {"solve"}, "solver.export_s": {"solve"},
          "regularity.probe_s": {"solve"}, "kernels.apply_s":
          {"clt", "hypothesis", "solve"}}


def span_arithmetic() -> list[str]:
    spans = [{"id": 0, "name": "a", "start": 0.0, "end": 10.0, "parent": None},
             {"id": 1, "name": "b", "start": 1.0, "end": 3.0, "parent": 0},
             {"id": 2, "name": "c", "start": 2.0, "end": 5.0, "parent": 0},
             {"id": 3, "name": "d", "start": 4.0, "end": 4.5, "parent": 2},
             {"id": 4, "name": "e", "start": 9.0, "end": 12.0, "parent": 0}]
    fails = []
    own = tracing.self_times(spans)
    if own != {0: 5.0, 1: 2.0, 2: 2.5, 3: 0.5, 4: 3.0}:
        fails.append(f"self_times gave {own}")
    nesting = tracing.nesting_problems(spans, 0.0, 20.0)
    if len(nesting) != 1 or "span 4 e escapes" not in nesting[0]:
        fails.append(f"nesting_problems gave {nesting}")

    ticks = iter(range(100))
    saved, tracing.clock = tracing.clock, lambda: float(next(ticks))
    try:
        class Owner:
            pass
        tracer = tracing.Tracer()
        Owner.inner = staticmethod(lambda x: x + 1)
        tracer.wrap(Owner, "inner", "layer.inner")
        Owner.outer = staticmethod(lambda x: Owner.inner(x) * 2)
        tracer.wrap(Owner, "outer", "layer.outer",
                    lambda a, kw, r: {"result": r})
        value = Owner.outer(1)
        tracer.wrap(Owner, "absent", "layer.absent")
    finally:
        tracing.clock = saved
    recs = tracer.records()
    expect = [{"id": 0, "name": "layer.outer", "start": 0.0, "end": 3.0,
               "parent": None, "attrs": {"result": 4}},
              {"id": 1, "name": "layer.inner", "start": 1.0, "end": 2.0,
               "parent": 0, "attrs": {}}]
    if value != 4 or recs != expect:
        fails.append(f"Tracer recorded {recs}")
    if tracing.self_times(recs) != {0: 2.0, 1: 1.0}:
        fails.append("Tracer spans give the wrong self times")
    if tracer.missing != ["Owner.absent"]:
        fails.append(f"missing names {tracer.missing}")
    return fails


def tiny_workload(name: str, declared: dict) -> list[str]:
    fails = []
    plain = run.run_workload(name, 1, 0.0, False, tiny=True)
    traced = [run.run_workload(name, 1, 0.0, True, tiny=True)
              for _ in range(2)]
    for record in [plain] + traced:
        res = record["result"]
        kind = "per_layer" if record["trace"] else "end_to_end"
        if not res["correct"] or res["failed"]:
            fails.append(f"{name} trace={int(record['trace'])}: "
                         f"{record['problems']} "
                         f"{[r['problems'] for r in record['invocations']]}")
        units = {k: v["unit"] for k, v in res["metrics"].items()}
        if units != declared[kind]:
            fails.append(f"{name}: {kind} metrics/units differ from "
                         f"BENCHMARK.json: {sorted(set(units) ^ set(declared[kind]))}")
        for k, v in res["metrics"].items():
            if not math.isfinite(v["value"]) or (
                    v["value"] < 0 and k != "trace.overhead_s"):
                fails.append(f"{name}: {k} = {v['value']}")
    m = [{k: v["value"] for k, v in t["result"]["metrics"].items()}
         for t in traced]
    gap = sum(m[0][k] for k in run.ACCOUNTING) - m[0]["trace.wall_s"]
    if abs(gap) > 1e-6:
        fails.append(f"{name}: self times miss trace.wall_s by {gap:.3e} s")
    for k, active in ACTIVE.items():
        if (m[0][k] > 0) != (name in active):
            fails.append(f"{name}: {k} = {m[0][k]}")
    fails += [f"{name}: {k} differs between runs: {m[0][k]} vs {m[1][k]}"
              for k in run.EXACT_COUNTS if m[0][k] != m[1][k]]
    return fails


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in bench[kind]}
                for kind in ("end_to_end", "per_layer")}
    fails = []
    if declared["end_to_end"] != run.END_TO_END \
            or declared["per_layer"] != run.PER_LAYER:
        fails.append("BENCHMARK.json and run.py declare different metrics")
    fails += span_arithmetic()
    for name in run.WORKLOADS:
        fails += tiny_workload(name, declared)
        print(f"self-test {name}: done", flush=True)
    for f in fails:
        print(f"FAIL {f}")
    print("self-test: " + ("FAILED" if fails else "ok"))
    return 1 if fails else 0
