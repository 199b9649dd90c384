#!/usr/bin/env bash
# Full local check: configure Release (-O2), build, run the tier-1
# test suite, then the engine differential. Continues with an
# ASan+UBSan build running the observability surface (obs-labeled
# tests + a traced workload through lbp_stats), since the trace ring
# and JSON parser are exactly the kind of index-arithmetic code
# sanitizers pay for — plus the engine differential, which forces the
# trace cache and the predicated replay tier on and off inside the
# test, so the predicated replay path, the fast-tier-only cache, and
# the general decoded path all run sanitized, and the compile path's
# Interp/Modulo/Compiler/Inliner tests — then a TSan build of the
# same surface (concurrent registry updates, and the self-profiler's
# signal-handler-vs-marker concurrency through
# tests/test_obs_prof.cc, which rides the obs label in both sanitizer
# builds; the live-sampling case is additionally run by name so a
# filter change cannot silently drop it, and so is the closed
# cycle-accounting invariant — every simulated cycle in exactly one
# CycleClass, both engines, trace cache on and off). Both sanitizer
# builds also run the host-PMU backend (ObsPmu tests + the lbp_stats
# pmu smoke), which must exit 0 whether or not this host exposes
# hardware counters. Finishes with the exact counter gate: re-runs the
# figure benches and diffs their JSON against the checked-in
# BENCH_*.json baselines — counters exact, the machine block ignored
# (lbp_stats diff policy) — and a 2-second smoke of the repository
# benchmark (perfbench/run.py) on its cold compile -> decode -> sim
# workload. Timing is judged against a base commit, which a local run
# does not have: scripts/perf_ab.py --base REV does that.
#
# Usage: scripts/check.sh [build-dir]   (default: build-check)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build-check}
SAN_BUILD="$BUILD-asan"
TSAN_BUILD="$BUILD-tsan"

cmake -B "$BUILD" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG"
cmake --build "$BUILD" -j "$(nproc)"

ctest --test-dir "$BUILD" --output-on-failure

# Engine differential: decoded fast path vs reference interpreter
# (internally runs the trace cache forced on and forced off, and the
# predicated replay tier on and off).
"$BUILD"/tests/lbp_sim_tests --gtest_filter='*EngineDifferential*' \
    --gtest_brief=1

# Self-profiler smoke: region table, attribution line, collapsed
# stacks. Exit 1 with a clear message is acceptable only on kernels
# without per-thread CPU timers; the cli prof_smoke ctest case has
# already enforced that contract above.
"$BUILD"/tools/lbp_stats prof adpcm_dec \
    --out="$BUILD"/adpcm_dec.folded >/dev/null
test -s "$BUILD"/adpcm_dec.folded

# Host-counter smoke: `pmu` must exit 0 on EVERY host — with a usable
# PMU it prints the per-region counter table, without one (VMs,
# containers, perf_event_paranoid) it names the reason and publishes
# pmu.available=0. The cli pmu_smoke ctest case above has already
# checked the dump's shape for whichever arm this host takes.
"$BUILD"/tools/lbp_stats pmu adpcm_dec --reps=2 >/dev/null
"$BUILD"/bench/bench_fig8b_power --pmu >/dev/null

# Sanitizer pass: ASan + UBSan over the observability surface. Debug
# (-O1) keeps stacks honest while staying fast enough for the smoke.
cmake -B "$SAN_BUILD" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-O1 -g -fsanitize=address,undefined \
-fno-sanitize-recover=all -fno-omit-frame-pointer"
cmake --build "$SAN_BUILD" -j "$(nproc)" \
    --target lbp_tests lbp_obs_tests lbp_sim_tests lbp_stats
ctest --test-dir "$SAN_BUILD" --output-on-failure -L obs
# Sanitized engine differential: the test itself runs the decoded
# engine with the trace cache on and off and the predicated replay
# tier on and off, so the replay paths, the strict classifier and the
# general path are all sanitized in one run.
"$SAN_BUILD"/tests/lbp_sim_tests \
    --gtest_filter='*EngineDifferential*' --gtest_brief=1
# The INT64_MIN / -1 repro under UBSan, by name: every executor and
# the constant folder must produce the defined value, never perform
# the overflowing division.
"$SAN_BUILD"/tests/lbp_sim_tests --gtest_filter='Sim.DivInt64MinRepro' \
    --gtest_brief=1
# The compile path under ASan+UBSan, by name: the predecoded
# interpreter's raw value-array indexing and trap operands, the
# inline operand lists, the modulo scheduler's heap worklist, and the
# registry pins of both.
"$SAN_BUILD"/tests/lbp_tests \
    --gtest_filter='Interp.*:Modulo.*:Compiler.*:Inliner.*' \
    --gtest_brief=1
# Profiler under ASan, by name: live sampling with concurrent region
# markers (the SIGPROF handler's single-writer discipline).
"$SAN_BUILD"/tests/lbp_obs_tests \
    --gtest_filter='ObsProf.ConcurrentThreadsSampleIndependently:ObsProf.SamplesAttributeToInnermostRegion' \
    --gtest_brief=1
# Cycle-accounting invariant under ASan, by name: every simulated
# cycle in exactly one class, per-loop rows integrating to the
# workload stack, on every workload in both engines with the trace
# cache forced on and off.
"$SAN_BUILD"/tests/lbp_obs_tests \
    --gtest_filter='LoopScorecard.AttributionInvariantBothEnginesAllWorkloads:CycleStack.*' \
    --gtest_brief=1
"$SAN_BUILD"/tools/lbp_stats trace adpcm_dec \
    --out="$SAN_BUILD"/adpcm_dec.trace.json
"$SAN_BUILD"/tools/lbp_stats run adpcm_dec \
    --json="$SAN_BUILD"/adpcm_dec.stats.json >/dev/null
"$SAN_BUILD"/tools/lbp_stats diff \
    "$SAN_BUILD"/adpcm_dec.stats.json \
    "$SAN_BUILD"/adpcm_dec.stats.json
# The cycle-delta decomposer's recursive document walk, sanitized
# (self-explain: identical stacks, exit 0).
"$SAN_BUILD"/tools/lbp_stats explain \
    "$SAN_BUILD"/adpcm_dec.stats.json \
    "$SAN_BUILD"/adpcm_dec.stats.json >/dev/null
# Host-counter backend under ASan, by name: counter fd lifecycle,
# region-hook install/uninstall, and the graceful-unavailability arm
# (or live counting, host permitting).
"$SAN_BUILD"/tests/lbp_obs_tests --gtest_filter='ObsPmu.*' \
    --gtest_brief=1
"$SAN_BUILD"/tools/lbp_stats pmu adpcm_dec --reps=2 >/dev/null

# TSan pass: concurrent obs-registry updates
# (tests/test_obs_concurrency.cc) are the only intentionally
# multi-threaded surface; prove the create-then-mutate-disjoint
# pattern and the start/join handoff race-free.
cmake -B "$TSAN_BUILD" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-O1 -g -fsanitize=thread"
cmake --build "$TSAN_BUILD" -j "$(nproc)" \
    --target lbp_obs_tests lbp_sim_tests lbp_stats
ctest --test-dir "$TSAN_BUILD" --output-on-failure -L obs
# Engine differential under TSan (same leg as the ASan pass): the
# sim is single-threaded, but the differential drives the decoded
# engine through the threaded dispatch tables in every replay mode.
"$TSAN_BUILD"/tests/lbp_sim_tests \
    --gtest_filter='*EngineDifferential*' --gtest_brief=1
# Profiler under TSan, by name (same cases as the ASan leg).
"$TSAN_BUILD"/tests/lbp_obs_tests \
    --gtest_filter='ObsProf.ConcurrentThreadsSampleIndependently:ObsProf.SamplesAttributeToInnermostRegion' \
    --gtest_brief=1
# Cycle-accounting invariant under TSan, by name (same case as the
# ASan leg).
"$TSAN_BUILD"/tests/lbp_obs_tests \
    --gtest_filter='LoopScorecard.AttributionInvariantBothEnginesAllWorkloads:CycleStack.*' \
    --gtest_brief=1
# Host-counter backend under TSan, by name: the region hook fires on
# every marker transition while snapshot() reads the per-region
# atomics cross-thread.
"$TSAN_BUILD"/tests/lbp_obs_tests --gtest_filter='ObsPmu.*' \
    --gtest_brief=1
"$TSAN_BUILD"/tools/lbp_stats pmu adpcm_dec --reps=2 >/dev/null

# Exact counter gate: figure results must match the checked-in
# baselines counter-exact (fractions, energies, cycles, trace-cache
# counters); the machine block is ignored by the diff policy.
"$BUILD"/bench/bench_fig7_buffer_issue \
    --json="$BUILD"/BENCH_fig7.json >/dev/null
"$BUILD"/tools/lbp_stats diff BENCH_fig7.json "$BUILD"/BENCH_fig7.json
"$BUILD"/bench/bench_fig8b_power \
    --json="$BUILD"/BENCH_fig8b.json >/dev/null
"$BUILD"/tools/lbp_stats diff BENCH_fig8b.json \
    "$BUILD"/BENCH_fig8b.json

# Repository benchmark smoke: the cold compile -> decode -> sim path
# over all registry configs must run and verify every output.
python3 perfbench/run.py --workload cold_registry --seed 1 --seconds 2 \
    --trace 0 | tail -n 1 | grep -q '"correct": true'

# Flight recorder: the self-contained HTML report.
"$BUILD"/tools/lbp_stats report adpcm_dec \
    --out="$BUILD"/flight_recorder.html
test -s "$BUILD"/flight_recorder.html

echo "check.sh: all checks passed"
