/**
 * @file
 * Figure 7 (a/b): percentage of instruction issue satisfied by the
 * loop buffer, per benchmark, across buffer sizes 16..2048, for
 * traditional optimization only (7a) and with hyperblock
 * transformations (7b). Also reports the paper's §1/§7 headline
 * aggregates: mean buffer issue at 256 ops excluding jpeg_enc and
 * mpeg2_enc (paper: 38.7% traditional -> 89.0% transformed, a 137.5%
 * relative increase).
 *
 * The JSON also carries the decoded engine's trace-cache counters
 * summed over every sweep point (both levels, all buffer sizes):
 * builds, replays, replayed ops, the replay-coverage fraction
 * (replayed ops / all buffer-issued ops), the per-reason bailout
 * split and the predicated tier's share. Like the fractions they are
 * deterministic, so `lbp_stats diff` holds them exactly.
 *
 * Usage: bench_fig7_buffer_issue [--json[=PATH]] [--loops] [--pmu]
 *   --json[=P]     machine-readable results (default
 *                  BENCH_fig7.json); fractions are deterministic, so
 *                  `lbp_stats diff` holds the dump counter-exact
 *   --loops        per-loop scorecard for every workload
 *                  (aggressive, 256-op buffer) after the tables
 *   --pmu          attribute host hardware counters (IPC,
 *                  branch/cache misses) to the profiler's regions
 *                  over the whole run; host-variant, so the "pmu"
 *                  JSON block is recorded but never gated
 */

#include <cstdio>
#include <cstring>

#include "bench_common.hh"
#include "support/stats.hh"

using namespace lbp;
using namespace lbp::bench;

namespace
{

struct Series
{
    std::string name;
    std::vector<double> frac; // per buffer size
};

/** Trace-cache counters summed over every sweep point. */
struct SweepReplay
{
    TraceCacheStats tc;
    std::uint64_t opsFromBuffer = 0;
};

std::vector<Series>
runLevel(OptLevel level, SweepReplay &replay)
{
    std::vector<Series> out;
    for (const auto &name : benchNames()) {
        auto &cr = compileBench(name, level);
        Series s;
        s.name = name;
        for (int size : figureBufferSizes()) {
            const SimStats st = simulate(cr, size, PredMode::SLOT,
                                         SimEngine::DECODED,
                                         &replay.tc);
            replay.opsFromBuffer += st.opsFromBuffer;
            s.frac.push_back(st.bufferFraction());
        }
        out.push_back(std::move(s));
    }
    return out;
}

void
printTable(const char *title, const std::vector<Series> &rows)
{
    std::printf("%s\n", title);
    rule();
    std::printf("%-12s", "benchmark");
    for (int size : figureBufferSizes())
        std::printf("%7d", size);
    std::printf("\n");
    rule();
    for (const auto &s : rows) {
        std::printf("%-12s", s.name.c_str());
        for (double f : s.frac)
            std::printf("%7.1f", f * 100.0);
        std::printf("\n");
    }
    rule();
}

double
headlineMean(const std::vector<Series> &rows, size_t sizeIdx)
{
    // The paper's 38.7%/89.0% aggregate excludes jpeg_enc and
    // mpeg2_enc.
    double sum = 0;
    int n = 0;
    for (const auto &s : rows) {
        if (s.name == "jpeg_enc" || s.name == "mpeg2_enc")
            continue;
        sum += s.frac[sizeIdx];
        ++n;
    }
    return n ? sum / n : 0;
}

obs::Json
traceCacheJson(const SweepReplay &replay)
{
    using obs::Json;
    const TraceCacheStats &tc = replay.tc;
    Json j = Json::object();
    j.set("builds", Json::uinteger(tc.builds));
    j.set("replays", Json::uinteger(tc.replays));
    j.set("replayed_ops", Json::uinteger(tc.replayedOps));
    j.set("ops_from_buffer", Json::uinteger(replay.opsFromBuffer));
    j.set("replay_coverage",
          Json::number(replay.opsFromBuffer
                           ? static_cast<double>(tc.replayedOps) /
                                 static_cast<double>(replay.opsFromBuffer)
                           : 0.0));
    Json bail = Json::object();
    for (std::size_t i =
             static_cast<std::size_t>(TraceBailoutReason::Unknown);
         i < static_cast<std::size_t>(TraceBailoutReason::Count); ++i)
        bail.set(traceBailoutReasonName(
                     static_cast<TraceBailoutReason>(i)),
                 Json::uinteger(tc.bailoutsBy[i]));
    j.set("bailout", std::move(bail));
    Json pr = Json::object();
    pr.set("builds", Json::uinteger(tc.predReplay.builds));
    pr.set("replays", Json::uinteger(tc.predReplay.replays));
    pr.set("iterations", Json::uinteger(tc.predReplay.iterations));
    pr.set("ops", Json::uinteger(tc.predReplay.ops));
    pr.set("side_exits", Json::uinteger(tc.predReplay.sideExits));
    pr.set("backedge_fallthroughs",
           Json::uinteger(tc.predReplay.backedgeFallthroughs));
    j.set("pred_replay", std::move(pr));
    return j;
}

void
writeJson(const std::string &path, const std::vector<Series> &trad,
          const std::vector<Series> &aggr, double headlineTrad,
          double headlineAggr, const SweepReplay &replay,
          const obs::CycleRow &cycles, obs::Json pmu)
{
    using obs::Json;
    Json doc = benchJsonDoc("fig7");

    Json config = Json::object();
    Json bs = Json::array();
    for (int s : figureBufferSizes())
        bs.push(Json::integer(s));
    config.set("buffer_sizes", std::move(bs));
    doc.set("config", std::move(config));

    auto seriesJson = [&](const std::vector<Series> &rows) {
        Json arr = Json::array();
        for (const auto &s : rows) {
            Json row = Json::object();
            row.set("workload", Json::str(s.name));
            Json fr = Json::array();
            for (double f : s.frac)
                fr.push(Json::number(f));
            row.set("bufferFraction", std::move(fr));
            arr.push(std::move(row));
        }
        return arr;
    };
    doc.set("traditional", seriesJson(trad));
    doc.set("aggressive", seriesJson(aggr));

    Json headline = Json::object();
    headline.set("traditional256", Json::number(headlineTrad));
    headline.set("aggressive256", Json::number(headlineAggr));
    if (headlineTrad > 0) {
        headline.set("relativeIncrease",
                     Json::number((headlineAggr - headlineTrad) /
                                  headlineTrad));
    }
    doc.set("headline", std::move(headline));

    doc.set("trace_cache", traceCacheJson(replay));

    // Closed cycle accounting at the headline configuration
    // (aggressive, 256-op buffer), summed over every workload.
    doc.set("cycle_stack", cycleStackJson(cycles));

    // Host-variant counters (recorded, never diffed).
    doc.set("pmu", std::move(pmu));

    writeBenchJson(path, doc);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions o;
    if (!parseBenchOptions(argc, argv, "BENCH_fig7.json", o))
        return 2;
    startBenchPmu(o);

    std::printf("=== Figure 7: instruction issue from the loop buffer "
                "(%%) ===\n\n");

    SweepReplay replay;
    auto trad = runLevel(OptLevel::Traditional, replay);
    printTable("Figure 7a — traditional code optimization only", trad);
    std::printf("\n");
    auto aggr = runLevel(OptLevel::Aggressive, replay);
    printTable("Figure 7b — with hyperblock transformations", aggr);

    // Index of 256 in the size list.
    size_t idx256 = 0;
    for (size_t i = 0; i < figureBufferSizes().size(); ++i)
        if (figureBufferSizes()[i] == 256)
            idx256 = i;

    const double t = headlineMean(trad, idx256);
    const double a = headlineMean(aggr, idx256);
    std::printf("\nHeadline (256-op buffer, excl. jpeg_enc/mpeg2_enc):\n");
    std::printf("  traditional: %s   (paper: 38.7%%)\n",
                pct(t).c_str());
    std::printf("  transformed: %s   (paper: 89.0%%)\n",
                pct(a).c_str());
    if (t > 0) {
        std::printf("  relative increase: %s   (paper: 137.5%%)\n",
                    pct((a - t) / t).c_str());
    }

    if (o.loops) {
        std::printf("\n=== Per-loop scorecards (aggressive, 256-op "
                    "buffer) ===\n\n");
        dumpLoopScorecards(OptLevel::Aggressive, 256);
    }
    if (o.json) {
        // Where the headline configuration's cycles go: one extra
        // run per workload at (aggressive, 256), stacks summed.
        obs::CycleRow cycles{};
        for (const auto &name : benchNames()) {
            auto &cr = compileBench(name, OptLevel::Aggressive);
            obs::CycleStack cs;
            simulate(cr, 256, PredMode::SLOT, SimEngine::DECODED,
                     nullptr, &cs);
            const obs::CycleRow row = cs.totals();
            for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k)
                cycles[k] += row[k];
        }
        writeJson(o.jsonPath, trad, aggr, t, a, replay, cycles,
                  finishBenchPmu(o));
    } else if (o.pmu) {
        finishBenchPmu(o); // table only — no document to carry it
    }
    return 0;
}
