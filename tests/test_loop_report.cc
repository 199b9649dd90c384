/**
 * @file
 * Loop attribution tests: LoopDecisionLog semantics, the
 * scorecard join between compiler decisions and simulator residency,
 * and the attribution invariant (per-loop buffer ops integrate to
 * SimStats::opsFromBuffer) in both engines on every workload.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/compiler.hh"
#include "obs/loop_report.hh"
#include "obs/registry.hh"
#include "power/fetch_energy.hh"
#include "sim/vliw_sim.hh"
#include "workloads/registry.hh"

namespace lbp
{
namespace
{

using obs::LoopAttempt;
using obs::LoopDecisionLog;
using obs::LoopFate;
using obs::LoopReason;

LoopAttempt
attempt(const std::string &transform, bool applied, LoopReason reason,
        int before, int after, const std::string &note = "")
{
    LoopAttempt a;
    a.transform = transform;
    a.applied = applied;
    a.reason = reason;
    a.opsBefore = before;
    a.opsAfter = after;
    a.note = note;
    return a;
}

TEST(LoopDecisionLog, DecisionIsFindOrCreateInOrder)
{
    LoopDecisionLog log;
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(log.find("f/a"), nullptr);

    log.decision("f/b").fate = LoopFate::Buffered;
    log.decision("f/a").fate = LoopFate::Rejected;
    log.decision("f/b").reason = LoopReason::None;

    ASSERT_EQ(log.decisions().size(), 2u);
    // Creation order, not name order.
    EXPECT_EQ(log.decisions()[0].name, "f/b");
    EXPECT_EQ(log.decisions()[1].name, "f/a");
    ASSERT_NE(log.find("f/b"), nullptr);
    EXPECT_EQ(log.find("f/b")->fate, LoopFate::Buffered);
}

TEST(LoopDecisionLog, RepeatVerdictRefreshesInsteadOfDuplicating)
{
    LoopDecisionLog log;
    // A fixpoint driver judging the same loop three times: twice the
    // same verdict (second refreshes), once a different one (appends).
    log.addAttempt("f/loop", attempt("if_convert", false,
                                     LoopReason::TooLarge, 40, 40));
    log.addAttempt("f/loop", attempt("if_convert", false,
                                     LoopReason::TooLarge, 44, 44,
                                     "second pass"));
    log.addAttempt("f/loop", attempt("if_convert", true,
                                     LoopReason::None, 44, 39));

    const obs::LoopDecision *d = log.find("f/loop");
    ASSERT_NE(d, nullptr);
    ASSERT_EQ(d->attempts.size(), 2u);
    EXPECT_FALSE(d->attempts[0].applied);
    EXPECT_EQ(d->attempts[0].opsBefore, 44);       // refreshed
    EXPECT_EQ(d->attempts[0].note, "second pass"); // refreshed
    EXPECT_TRUE(d->attempts[1].applied);
    EXPECT_EQ(d->attempts[1].opsAfter, 39);
}

TEST(LoopReport, ReasonAndFateNamesAreClosed)
{
    EXPECT_STREQ(obs::loopReasonName(LoopReason::None), "none");
    EXPECT_STREQ(obs::loopReasonName(LoopReason::SchedFailed),
                 "SchedFailed");
    EXPECT_STREQ(obs::loopFateName(LoopFate::Buffered), "buffered");
    EXPECT_STREQ(obs::loopFateName(LoopFate::Eliminated),
                 "eliminated");
}

/** Compile + simulate helper for the join tests. */
SimStats
runWorkload(const std::string &name, CompileResult &cr, int bufferOps,
            SimEngine engine = SimEngine::REFERENCE,
            obs::CycleStack *csOut = nullptr,
            TraceCacheMode tcMode = TraceCacheMode::On)
{
    Program prog = workloads::buildWorkload(name);
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    compileProgram(prog, opts, cr);
    reallocateBuffers(cr, bufferOps);
    SimConfig sc;
    sc.bufferOps = bufferOps;
    sc.engine = engine;
    sc.traceCache = tcMode;
    VliwSim sim(cr.code, sc);
    SimStats st = sim.run();
    if (csOut)
        *csOut = sim.cycleStack();
    return st;
}

TEST(LoopScorecard, JoinCoversEveryLoopWithAFate)
{
    CompileResult cr;
    const SimStats st = runWorkload("adpcm_enc", cr, 256);
    const obs::LoopScorecard sc =
        obs::buildLoopScorecard("adpcm_enc", cr.loopLog, st, 256);

    EXPECT_EQ(sc.workload, "adpcm_enc");
    EXPECT_EQ(sc.bufferOps, 256);
    // Every simulator loop appears, plus the compiler-only rows.
    EXPECT_GE(sc.rows.size(), st.loops.size());

    std::uint64_t prev = UINT64_MAX;
    bool sawBuffered = false;
    for (const auto &row : sc.rows) {
        EXPECT_NE(row.fate, LoopFate::Unknown)
            << row.name << " left without a fate";
        // Ranked by dynamic ops, descending.
        EXPECT_LE(row.dynOps, prev);
        prev = row.dynOps;
        if (row.fate == LoopFate::Buffered) {
            sawBuffered = true;
            EXPECT_GE(row.bufAddr, 0) << row.name;
            EXPECT_EQ(row.missedOps, 0u) << row.name;
        }
        if (row.loopId >= 0) {
            ASSERT_LT(static_cast<std::size_t>(row.loopId),
                      st.loops.size());
            EXPECT_EQ(row.name, st.loops[row.loopId].name);
        }
    }
    EXPECT_TRUE(sawBuffered);
    EXPECT_EQ(obs::scorecardBufferOps(sc), st.opsFromBuffer);
}

TEST(LoopScorecard, AttributionInvariantBothEnginesAllWorkloads)
{
    // The acceptance invariants: sum of per-loop buffer-issued ops ==
    // SimStats::opsFromBuffer, and the cycle stack closed (sum over
    // classes == SimStats::cycles, per-loop rows integrating to the
    // workload stack), in both engines with the trace cache forced on
    // and off, on every registered workload (buildLoopScorecard
    // itself asserts both fatally; the EXPECTs repeat them as
    // test-visible checks).
    struct EngineConfig
    {
        SimEngine engine;
        TraceCacheMode tc;
        const char *what;
    };
    const EngineConfig configs[] = {
        {SimEngine::REFERENCE, TraceCacheMode::On, "reference"},
        {SimEngine::DECODED, TraceCacheMode::On, "decoded cache=on"},
        {SimEngine::DECODED, TraceCacheMode::Off,
         "decoded cache=off"},
    };
    for (const auto &w : workloads::allWorkloads()) {
        for (const EngineConfig &ec : configs) {
            CompileResult cr;
            obs::CycleStack cs;
            const SimStats st =
                runWorkload(w.name, cr, 256, ec.engine, &cs, ec.tc);
            const obs::LoopScorecard sc = obs::buildLoopScorecard(
                w.name, cr.loopLog, st, 256, nullptr, nullptr, &cs);
            EXPECT_EQ(obs::scorecardBufferOps(sc), st.opsFromBuffer)
                << w.name << " " << ec.what;
            EXPECT_TRUE(sc.hasCycles) << w.name << " " << ec.what;
            EXPECT_EQ(sc.totalCycles, st.cycles)
                << w.name << " " << ec.what
                << ": cycle stack is not closed";
            for (const auto &row : sc.rows)
                EXPECT_NE(row.fate, LoopFate::Unknown)
                    << w.name << "/" << row.name;
        }
    }
}

TEST(LoopScorecard, JsonAndPublishCarryTheJoin)
{
    CompileResult cr;
    const SimStats st = runWorkload("adpcm_dec", cr, 256);
    const FetchEnergy fe = computeFetchEnergy(st, 256);
    const obs::LoopScorecard sc = obs::buildLoopScorecard(
        "adpcm_dec", cr.loopLog, st, 256, &fe);

    const obs::Json j = obs::scorecardToJson(sc);
    ASSERT_NE(j.find("loops"), nullptr);
    EXPECT_EQ(j.find("loops")->items().size(), sc.rows.size());
    ASSERT_NE(j.find("workload"), nullptr);
    EXPECT_EQ(j.find("workload")->dump(), "\"adpcm_dec\"");

    obs::Registry reg;
    obs::publishScorecard(reg, sc);
    ASSERT_NE(reg.findInfo("loop.000.name"), nullptr);
    EXPECT_EQ(*reg.findInfo("loop.000.name"), sc.rows[0].name);
    ASSERT_NE(reg.findCounter("loop.000.dynOps"), nullptr);
    EXPECT_EQ(reg.findCounter("loop.000.dynOps")->value(),
              sc.rows[0].dynOps);

    // With energies supplied, buffered + rejected rows carry a share,
    // and shares sum to at most the workload total.
    double sum = 0;
    for (const auto &row : sc.rows)
        sum += row.energyNj;
    EXPECT_GT(sum, 0.0);
    EXPECT_LE(sum, fe.totalNj * (1 + 1e-9));

    // Printing is smoke-checked: header plus one line per row.
    std::ostringstream os;
    obs::printScorecard(os, sc);
    EXPECT_NE(os.str().find("loop scorecard: adpcm_dec"),
              std::string::npos);
}

} // namespace
} // namespace lbp
