/**
 * @file
 * Engine differential: the decoded fast-path executor must be
 * behaviorally indistinguishable from the reference interpreter —
 * every field of SimStats, including the per-loop counter vectors —
 * for every registry workload, under both predication
 * micro-architectures, at every Figure-7 buffer size.
 */

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "obs/cycle_stack.hh"
#include "obs/publish.hh"
#include "sim/vliw_sim.hh"
#include "workloads/registry.hh"

namespace lbp
{
namespace
{

/**
 * Compare via the registry diff: on mismatch the failure message is a
 * field-by-field listing of every diverging metric (including per-loop
 * counters) plus the first diverging loop id — not just "stats
 * differ".
 */
void
expectIdentical(const SimStats &ref, const SimStats &dec,
                const std::string &what)
{
    const std::string diff = obs::diffSimStats(ref, dec);
    EXPECT_TRUE(diff.empty()) << what << "\n" << diff;

    // Belt and braces on top of the registry diff: the per-loop
    // records must be element-wise equal through LoopStats::operator==
    // (which covers every field, so a field added to LoopStats but
    // forgotten in publishLoopStats still fails here).
    ASSERT_EQ(ref.loops.size(), dec.loops.size()) << what;
    for (std::size_t i = 0; i < ref.loops.size(); ++i)
        EXPECT_TRUE(ref.loops[i] == dec.loops[i])
            << what << " loop[" << i << "] (" << ref.loops[i].name
            << ") diverges between engines";
}

/**
 * The attribution invariant both engines maintain by construction:
 * every op the sim counts in SimStats::opsFromBuffer is attributed to
 * exactly one loop, so the per-loop column sums back to the aggregate.
 */
void
expectLoopAttributionExact(const SimStats &st, const std::string &what)
{
    std::uint64_t fromBuffer = 0, fromCache = 0;
    for (const auto &ls : st.loops) {
        fromBuffer += ls.opsFromBuffer;
        fromCache += ls.opsFromCache;
    }
    EXPECT_EQ(fromBuffer, st.opsFromBuffer) << what;
    // Cache-side attribution only covers ops fetched inside active
    // loop bodies, so it is bounded by (never equal to, in general)
    // the total cache-issued ops.
    EXPECT_LE(fromBuffer + fromCache, st.opsFetched) << what;
}

/**
 * The cycle-accounting invariant: the side-band CycleStack is closed
 * (sum over classes == SimStats::cycles) and its per-loop rows
 * integrate to the workload stack, class by class.
 */
void
expectCycleStackClosed(const VliwSim &sim, const SimStats &st,
                       const std::string &what)
{
    const obs::CycleStack &cs = sim.cycleStack();
    ASSERT_EQ(cs.numRows(), st.loops.size() + 1) << what;
    EXPECT_EQ(cs.totalCycles(), st.cycles)
        << what << ": cycle stack is not closed";
    const obs::CycleRow totals = cs.totals();
    obs::CycleRow integral{};
    for (std::size_t i = 0; i < cs.numRows(); ++i) {
        const obs::CycleRow &row = cs.row(static_cast<int>(i) - 1);
        for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k)
            integral[k] += row[k];
    }
    for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k)
        EXPECT_EQ(integral[k], totals[k])
            << what << ": per-loop rows do not integrate for class "
            << obs::cycleClassName(static_cast<obs::CycleClass>(k));
}

/**
 * Replay is a decoded-engine-only refinement of buffer issue; folding
 * it back (collapseReplay) must make the stacks of two engine
 * configurations identical, row by row and class by class.
 */
void
expectCollapsedStacksEqual(const VliwSim &a, const VliwSim &b,
                           const std::string &what)
{
    const obs::CycleStack &ca = a.cycleStack();
    const obs::CycleStack &cb = b.cycleStack();
    ASSERT_EQ(ca.numRows(), cb.numRows()) << what;
    for (std::size_t i = 0; i < ca.numRows(); ++i) {
        const obs::CycleRow ra = obs::CycleStack::collapseReplay(
            ca.row(static_cast<int>(i) - 1));
        const obs::CycleRow rb = obs::CycleStack::collapseReplay(
            cb.row(static_cast<int>(i) - 1));
        for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k)
            EXPECT_EQ(ra[k], rb[k])
                << what << ": collapsed stacks diverge at row " << i
                << " class "
                << obs::cycleClassName(
                       static_cast<obs::CycleClass>(k));
    }
}

class EngineDifferential
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EngineDifferential, DecodedMatchesReference)
{
    Program prog = workloads::buildWorkload(GetParam());

    for (OptLevel lvl : {OptLevel::Traditional, OptLevel::Aggressive}) {
        for (PredMode mode : {PredMode::REGISTER, PredMode::SLOT}) {
            // REGISTER-mode simulation needs slot lowering off (the
            // two predication micro-architectures are exclusive).
            CompileOptions opts;
            opts.level = lvl;
            opts.slotLowering = mode == PredMode::SLOT;
            CompileResult cr;
            compileProgram(prog, opts, cr);
            for (int size : {16, 32, 64, 128, 256, 512, 1024, 2048}) {
                reallocateBuffers(cr, size);
                SimConfig sc;
                sc.bufferOps = size;
                sc.predMode = mode;
                sc.engine = SimEngine::REFERENCE;
                VliwSim refSim(cr.code, sc);
                const SimStats ref = refSim.run();
                // Decoded engine three ways: trace cache
                // force-enabled (predicated replay on), enabled with
                // predicated replay forced off (fast tier only), and
                // force-disabled — so the predicated replay path,
                // the strict fast tier, and the general path are all
                // pinned to the reference.
                sc.engine = SimEngine::DECODED;
                sc.traceCache = TraceCacheMode::On;
                sc.predReplay = PredReplayMode::On;
                VliwSim decSim(cr.code, sc);
                const SimStats dec = decSim.run();
                sc.predReplay = PredReplayMode::Off;
                VliwSim decStrictSim(cr.code, sc);
                const SimStats decStrict = decStrictSim.run();
                sc.predReplay = PredReplayMode::On;
                sc.traceCache = TraceCacheMode::Off;
                VliwSim decOffSim(cr.code, sc);
                const SimStats decOff = decOffSim.run();
                EXPECT_EQ(ref.checksum, cr.goldenChecksum);
                expectLoopAttributionExact(
                    ref, GetParam() + " reference engine size=" +
                             std::to_string(size));
                expectLoopAttributionExact(
                    dec, GetParam() + " decoded engine size=" +
                             std::to_string(size));
                const std::string what =
                    GetParam() + " level=" +
                    (lvl == OptLevel::Aggressive ? "aggr"
                                                 : "trad") +
                    " mode=" +
                    (mode == PredMode::SLOT ? "slot" : "reg") +
                    " size=" + std::to_string(size);
                expectIdentical(ref, dec, what + " cache=on");
                expectIdentical(ref, decStrict,
                                what + " pred-replay=off");
                expectIdentical(ref, decOff, what + " cache=off");
                expectCycleStackClosed(refSim, ref,
                                       what + " reference");
                expectCycleStackClosed(decSim, dec,
                                       what + " cache=on");
                expectCycleStackClosed(decStrictSim, decStrict,
                                       what + " pred-replay=off");
                expectCycleStackClosed(decOffSim, decOff,
                                       what + " cache=off");
                expectCollapsedStacksEqual(refSim, decSim,
                                           what + " ref vs on");
                expectCollapsedStacksEqual(refSim, decStrictSim,
                                           what +
                                               " ref vs strict");
                expectCollapsedStacksEqual(refSim, decOffSim,
                                           what + " ref vs off");
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, EngineDifferential,
    ::testing::ValuesIn([] {
        std::vector<std::string> names;
        for (const auto &w : workloads::allWorkloads())
            names.push_back(w.name);
        return names;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace lbp
