#!/usr/bin/env python3
"""A/B the repository benchmark: a base revision against the working tree.

Run from anywhere inside the repository:

    python3 scripts/perf_ab.py --base REV

REV is checked out into a temporary git worktree under .bench_build/.
For every workload that BENCHMARK.json lists, `perfbench/run.py
--trace 0` runs PAIRS times on each tree, alternating which tree runs
first, with the same seed and run length on both sides. The script
prints every end-to-end metric's median on both sides and exits 1,
naming each workload/metric, when

  - a change median is worse than the base median by more than that
    metric's BENCHMARK.json bound, or the change stops reporting a
    metric the base reports,
  - a change run reports "correct": false or produces no result, or
  - the change fails a larger share of its configs than the base.

It exits 0 otherwise, and 2 when the base cannot be checked out or
run. The constants below fix the protocol, so a CI run and a local run
measure the same thing.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

PAIRS = 5
RUN_SECONDS = 5
SEED = 1

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = os.path.join(ROOT, ".bench_build", "perf_ab_base")


def git(*args, check=True):
    proc = subprocess.run(["git", "-C", ROOT] + list(args),
                          capture_output=True, text=True)
    if check and proc.returncode:
        print("perf_ab: git %s: %s" % (" ".join(args), proc.stderr.strip()),
              file=sys.stderr)
        sys.exit(2)
    return proc.stdout.strip()


def run_once(tree, workload):
    """One perfbench run; its JSON result, or None if it produced none."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("perf_ab: %s run in %s produced no result "
                         "(exit %d)\n%s" % (workload, tree, proc.returncode,
                                            proc.stderr[-2000:]))
        return None


def failed_share(runs):
    attempted = sum(r.get("attempted", 0) for r in runs)
    failed = sum(r.get("failed", 0) for r in runs)
    return failed / attempted if attempted else 0.0


def judge(bench, base, change):
    """Compare per-workload run lists; return (report lines, failures).

    @p base and @p change map a workload name to its list of result
    documents (the last line of a perfbench run, or None for a run that
    produced none). A failure names "workload/metric".
    """
    lines, failures = [], []
    for wl in (w["name"] for w in bench["workloads"]):
        b_runs = [r for r in base.get(wl, []) if r is not None]
        c_all = change.get(wl, [])
        c_runs = [r for r in c_all if r is not None]
        if len(c_runs) < len(c_all) or not c_runs:
            failures.append(wl + "/result")
            lines.append("%s: a change run produced no result" % wl)
            continue
        if not all(r.get("correct") is True for r in c_runs):
            failures.append(wl + "/correct")
            lines.append("%s: a change run reports correct: false" % wl)
        b_share, c_share = failed_share(b_runs), failed_share(c_runs)
        if c_share > b_share:
            failures.append(wl + "/failed_frac")
            lines.append("%s: failed share %.4g > base %.4g"
                         % (wl, c_share, b_share))
        for m in bench["end_to_end"]:
            name = m["name"]
            b_vals = [r["metrics"][name]["value"] for r in b_runs
                      if name in r.get("metrics", {})]
            c_vals = [r["metrics"][name]["value"] for r in c_runs
                      if name in r.get("metrics", {})]
            if not b_vals:
                continue  # not every metric applies to every workload
            if not c_vals:
                failures.append(wl + "/" + name)
                lines.append("%s: the change no longer reports %s"
                             % (wl, name))
                continue
            b_med = statistics.median(b_vals)
            c_med = statistics.median(c_vals)
            if m["better"] == "lower":
                worse = c_med > b_med * (1 + m["bound"])
            else:
                worse = c_med < b_med * (1 - m["bound"])
            ratio = c_med / b_med if b_med else float("inf")
            lines.append("%-14s %-18s %12.5g %12.5g %7.3f  %s %.2f  %s"
                         % (wl, name, b_med, c_med, ratio,
                            "<" if m["better"] == "lower" else ">",
                            m["bound"], "WORSE" if worse else "ok"))
            if worse:
                failures.append(wl + "/" + name)
    return lines, failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True,
                    help="base revision (commit, branch or tag)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sha = git("rev-parse", "--verify", "--quiet", args.base + "^{commit}",
              check=False)
    if not sha:
        print("perf_ab: unknown revision '%s'" % args.base, file=sys.stderr)
        return 2
    if os.path.exists(WORKTREE):
        git("worktree", "remove", "--force", WORKTREE, check=False)
        shutil.rmtree(WORKTREE, ignore_errors=True)
    git("worktree", "prune")
    git("worktree", "add", "--detach", WORKTREE, sha)
    try:
        if not os.path.isfile(os.path.join(WORKTREE, "perfbench", "run.py")):
            print("perf_ab: %s has no perfbench/run.py" % sha, file=sys.stderr)
            return 2
        base, change = {}, {}
        for wl in (w["name"] for w in bench["workloads"]):
            base[wl], change[wl] = [], []
            for i in range(PAIRS):
                order = [(WORKTREE, base), (ROOT, change)]
                if i % 2:
                    order.reverse()
                for tree, out in order:
                    out[wl].append(run_once(tree, wl))
            if not any(base[wl]):
                print("perf_ab: base %s cannot run %s" % (sha, wl),
                      file=sys.stderr)
                return 2
    finally:
        git("worktree", "remove", "--force", WORKTREE, check=False)

    lines, failures = judge(bench, base, change)
    print("perf_ab: base %s vs working tree, %d pairs x %d s, seed %d"
          % (sha[:12], PAIRS, RUN_SECONDS, SEED))
    print("%-14s %-18s %12s %12s %7s  %s" % ("workload", "metric", "base",
                                           "change", "ratio", "bound"))
    print("\n".join(lines))
    if failures:
        print("perf_ab: FAIL " + " ".join(failures))
        return 1
    print("perf_ab: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
