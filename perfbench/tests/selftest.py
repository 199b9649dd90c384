#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the repository root (about two minutes, one core):

    python3 perfbench/tests/selftest.py

Short runs of perfbench/run.py check that:
  1. two runs with the same seed report identical exact metrics on all
     three workloads, untraced and traced;
  2. a different seed changes the generated workload's counters;
  3. a hand-corrupted expected checksum is counted as failed configs
     (correct false, failed > 0, verified_frac < 1) while the run still
     completes and exits 0.
Exits non-zero at the first failed check.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "run.py")
ROOT = os.path.dirname(os.path.dirname(RUN))
WORKLOADS = ("cold_registry", "warm_sweep", "generated")
# Timings, rates, memory and the trace's own coverage/cost vary from
# run to run; every other metric is a count or a ratio of counts.
INEXACT_UNITS = {"s", "ms", "ns", "1/s", "Mops/s", "MB"}


def run(workload, seed, trace, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    if proc.returncode != 0:
        sys.exit("FAIL: %s seed %d trace %d exited %d\n%s"
                 % (workload, seed, trace, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def exact(result):
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] not in INEXACT_UNITS
            and not k.startswith("trace.")}


def check(ok, what):
    print("%s: %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        sys.exit(1)


def main():
    first = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            a, b = run(w, 7, trace), run(w, 7, trace)
            check(a["correct"] and b["correct"],
                  "%s trace=%d: both runs correct" % (w, trace))
            check(exact(a) == exact(b) and len(exact(a)) >= 5,
                  "%s trace=%d: %d exact metrics identical for one seed"
                  % (w, trace, len(exact(a))))
            first[(w, trace)] = a

    for trace in (0, 1):
        other = run("generated", 8, trace)
        mine = exact(first[("generated", trace)])
        differ = [k for k, v in exact(other).items() if mine.get(k) != v]
        check("sim_cycles" in differ or "sim.bundles" in differ,
              "generated trace=%d: seed 8 changes %d counters vs seed 7"
              % (trace, len(differ)))

    bad = run("cold_registry", 7, 0, "--corrupt", "0")
    check(not bad["correct"] and bad["failed"] > 0
          and bad["metrics"]["verified_frac"]["value"] < 1,
          "corrupted checksum: %d of %d configs counted failed, no crash"
          % (bad["failed"], bad["attempted"]))


if __name__ == "__main__":
    main()
