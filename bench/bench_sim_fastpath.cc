/**
 * @file
 * Simulator fast-path sweep harness: runs the full Figure-7 style
 * design-space sweep — every registry workload x both optimization
 * levels x both predication modes x the figure buffer sizes — twice:
 *
 *  reference path  the pre-fast-path cost model: every sweep point
 *                  recompiles its program from scratch and simulates
 *                  on the reference interpreter, strictly serially;
 *  fast path       the new cost model: compiles come from the
 *                  (name, level, mode) cache, simulation uses the
 *                  decoded engine, and independent (workload, level,
 *                  mode) tasks run concurrently on a thread pool
 *                  (the 8-size buffer sweep inside one task stays
 *                  serial because it mutates the shared
 *                  CompileResult via reallocateBuffers).
 *
 * Every point's cycles and checksum are asserted identical between
 * the two passes, so the harness is also an end-to-end equivalence
 * check of the decoded engine.
 *
 * The fast pass also aggregates the decoded engine's trace-cache
 * counters across every sweep point into the JSON's "trace_cache"
 * block: per-reason bailout counts and the replay-coverage fraction
 * (replayed ops / all buffer-issued ops). These are deterministic
 * functions of the sweep, so the history gate compares them exactly.
 *
 * Usage: bench_sim_fastpath [--quick] [--json[=PATH]]
 *                           [--history[=PATH]] [--threads=N] [--prof]
 *                           [--pmu]
 *   --quick        3 workloads, 2 buffer sizes (smoke / ctest perf)
 *   --json[=P]     write machine-readable timings (default path
 *                  BENCH_sim_fastpath.json in the working directory)
 *   --history[=P]  also append the flattened document to the
 *                  BENCH_history.jsonl timeline (implies --json)
 *   --threads=N    thread-pool size (default: hardware concurrency)
 *   --prof         sample the whole run with the lbp::obs::prof
 *                  self-profiler and print the region split (host
 *                  wall time only — never part of the JSON)
 *   --pmu          attribute host hardware counters (IPC,
 *                  branch/cache misses) to the same regions; the
 *                  "pmu" JSON block is host-variant, recorded but
 *                  never gated
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "obs/json.hh"
#include "obs/prof.hh"
#include "sim/decoded.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

using namespace lbp;
using namespace lbp::bench;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

const char *
levelName(OptLevel l)
{
    return l == OptLevel::Aggressive ? "aggressive" : "traditional";
}

const char *
modeName(PredMode m)
{
    return m == PredMode::SLOT ? "slot" : "register";
}

/** One (workload, level, mode) compile unit of the sweep. */
struct SweepTask
{
    std::string workload;
    OptLevel level;
    PredMode mode;
    int firstPoint = 0; ///< index of this task's first sweep point
};

/** One simulated (task, bufferOps) point, measured in both passes. */
struct SweepPoint
{
    int task = 0;
    int bufferOps = 0;
    std::uint64_t cycles = 0;
    std::uint64_t checksum = 0;
    double bufferFraction = 0;
    double refMs = 0;  ///< fresh compile + reference-engine simulate
    double fastMs = 0; ///< cached compile + decoded-engine simulate
};

/** The reference path: recompile per point, reference interpreter. */
void
runReferencePoint(const SweepTask &t, SweepPoint &p)
{
    Program prog = workloads::buildWorkload(t.workload);
    CompileOptions opts;
    opts.level = t.level;
    opts.slotLowering =
        t.level != OptLevel::Aggressive || t.mode == PredMode::SLOT;
    CompileResult cr;
    compileProgram(prog, opts, cr);
    const SimStats st =
        simulate(cr, p.bufferOps, t.mode, SimEngine::REFERENCE);
    p.cycles = st.cycles;
    p.checksum = st.checksum;
    p.bufferFraction = st.bufferFraction();
}

/**
 * The fast path body for one task: cached compile, decoded engine,
 * batched over the buffer-size sweep — the program is predecoded once
 * per task and every size point reuses the shared image, rebinding
 * only the buffer-allocation-dependent fields. Per-point time
 * therefore measures reallocation + rebind + simulation, which is the
 * steady state every figure bench sweep runs in.
 */
/** Per-task sweep aggregates, merged after the pool drains. */
struct TaskAgg
{
    TraceCacheStats tc;
    obs::CycleRow cycles{};
    std::uint64_t opsFromBuffer = 0;
};

void
runFastTask(const SweepTask &t, std::vector<SweepPoint> &points,
            int nSizes, TaskAgg &agg)
{
    // Pool threads enter the profiler here: the marker registers the
    // thread (arming its sampling timer when a --prof run is live)
    // and tags time outside the deeper sim regions as harness work.
    obs::prof::ScopedRegion profRegion(obs::prof::Region::Bench);
    CompileResult &cr = compileBench(t.workload, t.level, t.mode);
    DecodedImage img = buildDecodedImage(cr.code);
    for (int i = 0; i < nSizes; ++i) {
        SweepPoint &p = points[t.firstPoint + i];
        obs::CycleStack cs;
        const auto t0 = Clock::now();
        const SimStats st =
            simulateShared(cr, img, p.bufferOps, t.mode, &agg.tc,
                           &cs);
        p.fastMs = msSince(t0);
        agg.opsFromBuffer += st.opsFromBuffer;
        const obs::CycleRow row = cs.totals();
        for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k)
            agg.cycles[k] += row[k];
        LBP_ASSERT(st.cycles == p.cycles &&
                       st.checksum == p.checksum,
                   "decoded engine diverged from reference for ",
                   t.workload, " at bufferOps=", p.bufferOps);
    }
}

/** Per-workload replay aggregates (all levels/modes/sizes merged). */
struct WorkloadReplay
{
    std::uint64_t replayedOps = 0;
    std::uint64_t opsFromBuffer = 0;
};

void
writeJson(const std::string &path, const std::string &historyPath,
          const std::vector<std::string> &names,
          const std::vector<int> &sizes,
          const std::vector<SweepTask> &tasks,
          const std::vector<SweepPoint> &points, double refWallMs,
          double fastWallMs, double refSimMs, double fastSimMs,
          int threads, bool quick, const TraceCacheStats &tc,
          std::uint64_t fastOpsFromBuffer,
          const std::vector<WorkloadReplay> &perWorkload,
          const obs::CycleRow &cycles, obs::Json pmu)
{
    using obs::Json;

    Json doc = benchJsonDoc("sim_fastpath");

    Json config = Json::object();
    config.set("quick", Json::boolean(quick));
    config.set("threads", Json::integer(threads));
    Json wl = Json::array();
    for (const auto &n : names)
        wl.push(Json::str(n));
    config.set("workloads", wl);
    Json bs = Json::array();
    for (int s : sizes)
        bs.push(Json::integer(s));
    config.set("buffer_sizes", bs);
    doc.set("config", config);

    Json refPath = Json::object();
    refPath.set("description",
                Json::str("fresh compile per point, reference "
                          "engine, serial"));
    refPath.set("wallMs", Json::number(refWallMs));
    doc.set("referencePath", refPath);

    Json fastPath = Json::object();
    fastPath.set("description",
                 Json::str("cached compile, decoded engine, thread "
                           "pool"));
    fastPath.set("wallMs", Json::number(fastWallMs));
    doc.set("fastPath", fastPath);

    doc.set("speedup", Json::number(refWallMs / fastWallMs));

    Json simOnly = Json::object();
    simOnly.set("referenceMs", Json::number(refSimMs));
    simOnly.set("decodedMs", Json::number(fastSimMs));
    simOnly.set("speedup", Json::number(refSimMs / fastSimMs));
    doc.set("simOnly", simOnly);

    // Trace-cache aggregate over the whole fast pass. Every leaf is
    // a deterministic function of the sweep (counters, not timings),
    // so the history gate holds them exactly: a bailout count or the
    // replay-coverage fraction moving is a behavior change, never
    // noise.
    Json tcj = Json::object();
    tcj.set("builds", Json::uinteger(tc.builds));
    tcj.set("replays", Json::uinteger(tc.replays));
    tcj.set("bailouts", Json::uinteger(tc.bailouts));
    tcj.set("replayed_iterations",
            Json::uinteger(tc.replayedIterations));
    tcj.set("replayed_ops", Json::uinteger(tc.replayedOps));
    tcj.set("ops_from_buffer", Json::uinteger(fastOpsFromBuffer));
    tcj.set("replay_coverage",
            Json::number(fastOpsFromBuffer
                             ? static_cast<double>(tc.replayedOps) /
                                   static_cast<double>(
                                       fastOpsFromBuffer)
                             : 0.0));
    Json bail = Json::object();
    for (std::size_t i =
             static_cast<std::size_t>(TraceBailoutReason::Unknown);
         i < static_cast<std::size_t>(TraceBailoutReason::Count);
         ++i)
        bail.set(traceBailoutReasonName(
                     static_cast<TraceBailoutReason>(i)),
                 Json::uinteger(tc.bailoutsBy[i]));
    tcj.set("bailout", bail);
    // Predicated-tier split (schema v6): the share of the aggregate
    // above that ran through guarded/multi-control-op replay traces.
    Json pr = Json::object();
    pr.set("builds", Json::uinteger(tc.predReplay.builds));
    pr.set("replays", Json::uinteger(tc.predReplay.replays));
    pr.set("iterations", Json::uinteger(tc.predReplay.iterations));
    pr.set("ops", Json::uinteger(tc.predReplay.ops));
    pr.set("side_exits", Json::uinteger(tc.predReplay.sideExits));
    pr.set("backedge_fallthroughs",
           Json::uinteger(tc.predReplay.backedgeFallthroughs));
    pr.set("mid_engagements",
           Json::uinteger(tc.predReplay.midEngagements));
    tcj.set("pred_replay", pr);
    // Per-workload replay coverage (all levels/modes/sizes merged):
    // the drill-down view behind the aggregate above. The whole
    // "per_workload" namespace is classed PerPoint by the history
    // gate — recorded for inspection, never gated — because adding
    // or renaming a workload would otherwise break every old record;
    // the gated signal is the aggregate replay_coverage.
    Json perWl = Json::object();
    for (std::size_t i = 0; i < names.size(); ++i) {
        const WorkloadReplay &w = perWorkload[i];
        Json row = Json::object();
        row.set("replayed_ops", Json::uinteger(w.replayedOps));
        row.set("ops_from_buffer",
                Json::uinteger(w.opsFromBuffer));
        row.set("replay_coverage",
                Json::number(w.opsFromBuffer
                                 ? static_cast<double>(
                                       w.replayedOps) /
                                       static_cast<double>(
                                           w.opsFromBuffer)
                                 : 0.0));
        perWl.set(names[i], row);
    }
    tcj.set("per_workload", perWl);
    doc.set("trace_cache", tcj);

    // Closed cycle accounting over every fast-pass point: the
    // per-class split of the sweep's total simulated cycles
    // (decoded engine, trace cache on).
    doc.set("cycle_stack", cycleStackJson(cycles));

    // Host-variant counters (PerPoint: recorded, never gated).
    doc.set("pmu", std::move(pmu));

    Json pts = Json::array();
    for (const SweepPoint &p : points) {
        const SweepTask &t = tasks[p.task];
        Json row = Json::object();
        row.set("workload", Json::str(t.workload));
        row.set("level", Json::str(levelName(t.level)));
        row.set("predMode", Json::str(modeName(t.mode)));
        row.set("bufferOps", Json::integer(p.bufferOps));
        row.set("cycles", Json::uinteger(p.cycles));
        row.set("bufferFraction", Json::number(p.bufferFraction));
        row.set("referenceMs", Json::number(p.refMs));
        row.set("fastMs", Json::number(p.fastMs));
        pts.push(row);
    }
    doc.set("points", pts);

    writeBenchJson(path, doc);
    if (!historyPath.empty())
        appendBenchHistory(historyPath, doc);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions o;
    if (!parseBenchOptions(argc, argv,
                           kBenchFlagQuick | kBenchFlagJson |
                               kBenchFlagHistory |
                               kBenchFlagThreads | kBenchFlagProf |
                               kBenchFlagPmu,
                           "BENCH_sim_fastpath.json", o))
        return 2;
    if (o.prof && !obs::prof::compiledIn()) {
        std::fprintf(stderr, "--prof: profiler compiled out "
                             "(built with -DLBP_PROF=OFF)\n");
        return 1;
    }
    if (o.prof &&
        !obs::prof::Profiler::instance().start()) {
        std::fprintf(stderr, "--prof: cannot arm the sampling "
                             "timer on this system\n");
        return 1;
    }
    startBenchPmu(o);

    // Fail on an unwritable JSON path before the sweep, not after.
    if (o.json) {
        std::FILE *f = std::fopen(o.jsonPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         o.jsonPath.c_str());
            return 1;
        }
        std::fclose(f);
    }

    std::vector<std::string> names = benchNames();
    std::vector<int> sizes = figureBufferSizes();
    if (o.quick) {
        names.resize(std::min<std::size_t>(names.size(), 3));
        sizes = {32, 256};
    }

    std::vector<SweepTask> tasks;
    std::vector<SweepPoint> points;
    for (const auto &name : names) {
        for (OptLevel lvl :
             {OptLevel::Traditional, OptLevel::Aggressive}) {
            for (PredMode mode :
                 {PredMode::SLOT, PredMode::REGISTER}) {
                SweepTask t;
                t.workload = name;
                t.level = lvl;
                t.mode = mode;
                t.firstPoint = static_cast<int>(points.size());
                for (int size : sizes) {
                    SweepPoint p;
                    p.task = static_cast<int>(tasks.size());
                    p.bufferOps = size;
                    points.push_back(p);
                }
                tasks.push_back(std::move(t));
            }
        }
    }

    std::printf("=== Simulator fast-path sweep: %zu points "
                "(%zu workloads x 2 levels x 2 pred modes x %zu "
                "buffer sizes) ===\n\n",
                points.size(), names.size(), sizes.size());

    // Pass 1 — reference path. Also record sim-only time per point
    // (excluding the per-point recompile) so the decoded engine's
    // intrinsic win is reported separately from the cache's.
    std::printf("reference path (serial, per-point compile, "
                "reference engine)...\n");
    double refSimMs = 0;
    const auto ref0 = Clock::now();
    for (const auto &t : tasks) {
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            SweepPoint &p = points[t.firstPoint + i];
            const auto t0 = Clock::now();
            runReferencePoint(t, p);
            p.refMs = msSince(t0);
        }
    }
    const double refWallMs = msSince(ref0);
    // Sim-only reference time, measured on the already-compiled
    // cached programs (same binaries the fast pass will use).
    for (const auto &t : tasks) {
        CompileResult &cr = compileBench(t.workload, t.level, t.mode);
        for (int size : sizes) {
            const auto t0 = Clock::now();
            simulate(cr, size, t.mode, SimEngine::REFERENCE);
            refSimMs += msSince(t0);
        }
    }

    // Pass 2 — fast path: pooled tasks, cached compiles, decoded
    // engine. The compile cache is warm at this point, which is
    // exactly the steady state the figure benches run in (every
    // figure reuses the same compilations); the cold-cache cost is
    // what pass 1 measured.
    ThreadPool pool(o.threads);
    std::printf("fast path (%d threads, cached compile, decoded "
                "engine)...\n\n",
                pool.threadCount());
    const auto fast0 = Clock::now();
    const int nSizes = static_cast<int>(sizes.size());
    std::vector<TaskAgg> aggs(tasks.size());
    for (std::size_t ti = 0; ti < tasks.size(); ++ti)
        pool.submit([&tasks, &points, &aggs, ti, nSizes] {
            runFastTask(tasks[ti], points, nSizes, aggs[ti]);
        });
    pool.wait();
    const double fastWallMs = msSince(fast0);

    TraceCacheStats tcTotal;
    obs::CycleRow cycleTotal{};
    std::uint64_t fastOpsFromBuffer = 0;
    std::vector<WorkloadReplay> perWorkload(names.size());
    for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
        const TaskAgg &a = aggs[ti];
        accumulateTraceCacheStats(tcTotal, a.tc);
        for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k)
            cycleTotal[k] += a.cycles[k];
        fastOpsFromBuffer += a.opsFromBuffer;
        // Tasks are emitted in workload-major order: 4 (level, mode)
        // tasks per workload.
        WorkloadReplay &w = perWorkload[ti / 4];
        w.replayedOps += a.tc.replayedOps;
        w.opsFromBuffer += a.opsFromBuffer;
    }
    // The stack must close over the whole sweep: every fast-pass
    // point's cycles attributed to exactly one class.
    {
        std::uint64_t stackSum = 0, cycleSum = 0;
        for (std::uint64_t c : cycleTotal)
            stackSum += c;
        for (const auto &p : points)
            cycleSum += p.cycles;
        LBP_ASSERT(stackSum == cycleSum,
                   "cycle stack not closed over the sweep: ",
                   stackSum, " attributed vs ", cycleSum,
                   " simulated");
    }

    double fastSimMs = 0;
    for (const auto &p : points)
        fastSimMs += p.fastMs;

    std::printf("%-14s %-12s %-9s %12s %12s\n", "workload", "level",
                "predmode", "ref-ms", "fast-ms");
    rule();
    for (const auto &t : tasks) {
        double r = 0, fmS = 0;
        for (int i = 0; i < nSizes; ++i) {
            r += points[t.firstPoint + i].refMs;
            fmS += points[t.firstPoint + i].fastMs;
        }
        std::printf("%-14s %-12s %-9s %12.2f %12.2f\n",
                    t.workload.c_str(), levelName(t.level),
                    modeName(t.mode), r, fmS);
    }
    rule();
    std::printf("reference path wall: %10.1f ms\n", refWallMs);
    std::printf("fast path wall:      %10.1f ms\n", fastWallMs);
    std::printf("warm-cache speedup:  %10.2fx (fresh compiles vs "
                "cached)\n",
                refWallMs / fastWallMs);
    std::printf("sim-only:            %10.1f ms -> %.1f ms "
                "(%.2fx, decoded engine alone)\n",
                refSimMs, fastSimMs, refSimMs / fastSimMs);
    std::printf("equivalence: all %zu points identical cycles and "
                "checksums across engines\n",
                points.size());
    std::printf("trace cache: %llu replays, %llu bailouts, "
                "replay coverage %.1f%% of buffer-issued ops\n",
                static_cast<unsigned long long>(tcTotal.replays),
                static_cast<unsigned long long>(tcTotal.bailouts),
                fastOpsFromBuffer
                    ? 100.0 *
                          static_cast<double>(tcTotal.replayedOps) /
                          static_cast<double>(fastOpsFromBuffer)
                    : 0.0);

    if (o.prof) {
        obs::prof::Profiler &pr = obs::prof::Profiler::instance();
        pr.stop();
        const obs::prof::Snapshot snap = pr.snapshot();
        std::printf("\nself-profile: %llu samples, %.1f%% attributed "
                    "to named regions\n",
                    static_cast<unsigned long long>(snap.samples),
                    100.0 * snap.attributedFraction());
        for (const auto &rc : snap.regions)
            std::printf("  %-28s %8llu  %5.1f%%\n", rc.label.c_str(),
                        static_cast<unsigned long long>(rc.count),
                        snap.samples
                            ? 100.0 * static_cast<double>(rc.count) /
                                  static_cast<double>(snap.samples)
                            : 0.0);
    }

    if (o.json)
        writeJson(o.jsonPath, o.historyPath, names, sizes, tasks,
                  points, refWallMs, fastWallMs, refSimMs, fastSimMs,
                  pool.threadCount(), o.quick, tcTotal,
                  fastOpsFromBuffer, perWorkload, cycleTotal,
                  finishBenchPmu(o));
    else if (o.pmu)
        finishBenchPmu(o); // table only — no document to carry it
    return 0;
}
