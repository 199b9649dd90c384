#!/usr/bin/env python3
"""Tests for perf_ab.py's verdict, fed canned perfbench results.

    python3 scripts/test_perf_ab.py

Cases: equal runs pass; a compile_ms_p50 rise of 1.5x its bound fails
naming that metric; a change run with "correct": false fails; a larger
failed share than the base fails; a metric the base reports and the
change drops fails. Exits 1 on the first broken case.
"""

import importlib.util
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
spec = importlib.util.spec_from_file_location(
    "perf_ab", os.path.join(HERE, "perf_ab.py"))
perf_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_ab)

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def result(**values):
    """One run's result: every end-to-end metric 1.0 unless given."""
    metrics = {m["name"]: {"value": values.get(m["name"], 1.0),
                           "unit": m["unit"]} for m in BENCH["end_to_end"]}
    return {"correct": True, "attempted": 100, "failed": 0,
            "metrics": metrics}


def runs(**values):
    return {w["name"]: [result(**values) for _ in range(perf_ab.PAIRS)]
            for w in BENCH["workloads"]}


def expect(name, change, want):
    _, failures = perf_ab.judge(BENCH, runs(), change)
    if failures != want:
        print("FAIL: %s: failures %s, want %s" % (name, failures, want))
        sys.exit(1)
    print("PASS: " + name)


bound = next(m["bound"] for m in BENCH["end_to_end"]
             if m["name"] == "compile_ms_p50")

expect("equal runs pass", runs(), [])

slower = runs()
slower["cold_registry"] = [result(compile_ms_p50=1 + 1.5 * bound)
                           for _ in range(perf_ab.PAIRS)]
expect("compile_ms_p50 over its bound", slower,
       ["cold_registry/compile_ms_p50"])

wrong = runs()
wrong["generated"][2]["correct"] = False
expect("correct: false", wrong, ["generated/correct"])

failing = runs()
failing["warm_sweep"][0]["failed"] = 1
expect("larger failed share", failing, ["warm_sweep/failed_frac"])

dropped = runs()
for r in dropped["warm_sweep"]:
    del r["metrics"]["sim_ms_p50"]
expect("metric dropped by the change", dropped, ["warm_sweep/sim_ms_p50"])
