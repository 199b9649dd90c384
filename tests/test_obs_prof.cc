/**
 * @file
 * Self-profiler tests: region interning and labels, collapsed-stack
 * formatting, live sampling attribution under nested ScopedRegion
 * markers, sampling across concurrent threads (the TSan target), and
 * — the contract the whole subsystem rests on — zero observable
 * effect on simulation: SimStats and every published registry
 * counter are bit-identical whether the profiler is off, running, or
 * compiled out entirely (the LBP_PROF=OFF CI leg closes the loop
 * across builds; this binary proves off-vs-running in one build).
 *
 * Sampling assertions are deliberately generous: CI machines stall,
 * and a sampler test that needs a precise sample count is a flake
 * factory. We spin until a minimum sample count or a wall-clock cap,
 * then assert only structural properties (attribution fraction,
 * which labels appear), never exact counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/compiler.hh"
#include "obs/prof.hh"
#include "obs/publish.hh"
#include "obs/registry.hh"
#include "sim/vliw_sim.hh"
#include "workloads/registry.hh"

namespace lbp
{
namespace
{

namespace prof = obs::prof;
using Clock = std::chrono::steady_clock;

/** Burn CPU (not wall) time so per-thread CPU-clock timers tick. */
void
spin(double ms)
{
    const auto t0 = Clock::now();
    volatile std::uint64_t sink = 0;
    while (std::chrono::duration<double, std::milli>(Clock::now() -
                                                     t0)
               .count() < ms)
        for (int i = 0; i < 4096; ++i)
            sink = sink * 1664525u + 1013904223u;
}

/** Spin inside @p region until @p minSamples land or ~2s elapse. */
void
spinUntilSampled(std::uint64_t minSamples)
{
    const auto t0 = Clock::now();
    while (prof::Profiler::instance().snapshot().samples <
               minSamples &&
           std::chrono::duration<double>(Clock::now() - t0).count() <
               2.0)
        spin(5.0);
}

TEST(ObsProf, RegionNamesAreStable)
{
    EXPECT_STREQ(prof::regionName(prof::Region::None), "untracked");
    EXPECT_STREQ(prof::regionName(prof::Region::Compile), "compile");
    EXPECT_STREQ(prof::regionName(prof::Region::SimDispatch),
                 "simDispatch");
    EXPECT_STREQ(prof::regionName(prof::Region::SimReplay),
                 "simReplay");
    EXPECT_STREQ(prof::regionName(prof::Region::TraceBuild),
                 "traceBuild");
    EXPECT_STREQ(prof::regionName(prof::Region::SimReference),
                 "simReference");
    EXPECT_STREQ(prof::regionName(prof::Region::Bench), "bench");
    EXPECT_STREQ(prof::regionName(prof::Region::Interpret),
                 "interpret");
}

TEST(ObsProf, InternRegionIsIdempotentAndLabeled)
{
    if (!prof::compiledIn())
        GTEST_SKIP() << "profiler compiled out (LBP_PROF=0)";
    const std::uint8_t a = prof::internRegion("test.phase.alpha");
    const std::uint8_t b = prof::internRegion("test.phase.beta");
    EXPECT_NE(a, 0);
    EXPECT_NE(b, 0);
    EXPECT_NE(a, b);
    EXPECT_GE(a, static_cast<std::uint8_t>(prof::Region::Count));
    EXPECT_EQ(prof::internRegion("test.phase.alpha"), a);
    EXPECT_EQ(prof::regionLabel(a), "test.phase.alpha");
    EXPECT_EQ(prof::regionLabel(static_cast<std::uint8_t>(
                  prof::Region::SimDispatch)),
              "simDispatch");
}

TEST(ObsProf, CollapsedStacksFormat)
{
    prof::Snapshot s;
    prof::PathCount outer;
    outer.label = "bench;simDispatch";
    outer.count = 7;
    prof::PathCount untracked;
    untracked.label = "untracked";
    untracked.count = 2;
    s.paths = {outer, untracked};
    EXPECT_EQ(prof::collapsedStacks(s),
              "bench;simDispatch 7\nuntracked 2\n");
}

TEST(ObsProf, AttributedFractionMath)
{
    prof::Snapshot s;
    EXPECT_DOUBLE_EQ(s.attributedFraction(), 0.0);
    s.samples = 90;
    s.untracked = 10;
    s.dropped = 10;
    EXPECT_DOUBLE_EQ(s.attributedFraction(), 0.8);
}

TEST(ObsProf, SamplesAttributeToInnermostRegion)
{
    if (!prof::compiledIn())
        GTEST_SKIP() << "profiler compiled out (LBP_PROF=0)";
    prof::Profiler &p = prof::Profiler::instance();
    ASSERT_TRUE(p.start());
    EXPECT_TRUE(p.running());
    {
        prof::ScopedRegion outer(prof::Region::Bench);
        prof::ScopedRegion inner(prof::Region::SimDispatch);
        spinUntilSampled(10);
    }
    p.stop();
    EXPECT_FALSE(p.running());
    const prof::Snapshot snap = p.snapshot();
    if (snap.samples < 10)
        GTEST_SKIP() << "timer starved (loaded CI host), got "
                     << snap.samples << " samples";

    // Leaf attribution goes to the innermost marker, and the path
    // label spells the whole stack outermost-first.
    bool sawLeaf = false, sawPath = false;
    for (const auto &rc : snap.regions)
        if (rc.label == "simDispatch" && rc.count > 0)
            sawLeaf = true;
    for (const auto &pc : snap.paths)
        if (pc.label == "bench;simDispatch" && pc.count > 0)
            sawPath = true;
    EXPECT_TRUE(sawLeaf);
    EXPECT_TRUE(sawPath);
    EXPECT_GT(snap.attributedFraction(), 0.5);
    p.reset();
    EXPECT_EQ(p.snapshot().samples, 0u);
}

/**
 * Forcing the dropped-sample path: with the handler's probe bound
 * capped at one slot, the first sampled path claims it and any
 * sample under a different region stack has nowhere to land, so it
 * must be counted in Snapshot::dropped (which the #prof report
 * section surfaces) rather than silently discarded.
 */
TEST(ObsProf, PathTableOverflowCountsDroppedSamples)
{
    if (!prof::compiledIn())
        GTEST_SKIP() << "profiler compiled out (LBP_PROF=0)";
    prof::Profiler &p = prof::Profiler::instance();
    p.reset();
    prof::setPathTableLimitForTest(1);
    ASSERT_TRUE(p.start());
    {
        // Claim the only slot with the "bench" path...
        prof::ScopedRegion outer(prof::Region::Bench);
        spinUntilSampled(1);
        // ...then sample under a different stack until a drop lands
        // (or the wall-clock cap says the timer is starved).
        prof::ScopedRegion inner(prof::Region::SimDispatch);
        const auto t0 = Clock::now();
        while (p.snapshot().dropped == 0 &&
               std::chrono::duration<double>(Clock::now() - t0)
                       .count() < 2.0)
            spin(5.0);
    }
    p.stop();
    const prof::Snapshot snap = p.snapshot();
    prof::setPathTableLimitForTest(0); // restore the real bound
    p.reset();
    if (snap.samples == 0)
        GTEST_SKIP() << "timer starved (loaded CI host)";
    if (snap.dropped == 0)
        GTEST_SKIP() << "no second-path sample landed before the "
                        "cap (loaded CI host)";
    EXPECT_GT(snap.dropped, 0u);
}

TEST(ObsProf, ConcurrentThreadsSampleIndependently)
{
    if (!prof::compiledIn())
        GTEST_SKIP() << "profiler compiled out (LBP_PROF=0)";
    prof::Profiler &p = prof::Profiler::instance();
    p.reset();
    ASSERT_TRUE(p.start());

    // Threads hammer region entry/exit while the sampler fires and
    // the main thread snapshots concurrently — the TSan/ASan target:
    // handler vs. marker vs. snapshot on live ThreadStates.
    std::atomic<bool> stopFlag{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&stopFlag] {
            while (!stopFlag.load(std::memory_order_relaxed)) {
                prof::ScopedRegion r(prof::Region::Bench);
                prof::ScopedRegion r2(prof::Region::SimReplay);
                spin(1.0);
            }
        });
    for (int i = 0; i < 20; ++i) {
        (void)p.snapshot();
        spin(2.0);
    }
    stopFlag.store(true);
    for (auto &t : threads)
        t.join();
    p.stop();

    const prof::Snapshot snap = p.snapshot();
    // Structural consistency only — counts are load-dependent.
    std::uint64_t pathTotal = 0;
    for (const auto &pc : snap.paths)
        pathTotal += pc.count;
    EXPECT_EQ(pathTotal, snap.samples);
    EXPECT_GE(snap.attributedFraction(), 0.0);
    EXPECT_LE(snap.attributedFraction(), 1.0);
    p.reset();
}

/**
 * The zero-overhead-off proof within one build: a simulation run
 * with the profiler idle and one with it actively sampling produce
 * bit-identical SimStats and identical published counters (timing
 * gauges excluded — .ms keys measure the host). The cross-build half
 * of the proof (LBP_PROF=OFF binary vs this one) is the CI prof leg
 * diffing `lbp_stats run --json` dumps.
 */
TEST(ObsProf, SamplingNeverPerturbsSimulationCounters)
{
    Program prog = workloads::buildWorkload("adpcm_dec");
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    opts.bufferOps = 256;

    auto runOnce = [&](obs::Registry &reg) {
        CompileResult cr;
        Program p2 = workloads::buildWorkload("adpcm_dec");
        CompileOptions o2 = opts;
        o2.obsRegistry = &reg;
        compileProgram(p2, o2, cr);
        SimConfig sc;
        sc.bufferOps = 256;
        VliwSim sim(cr.code, sc);
        const SimStats st = sim.run();
        publishSimStats(reg, st);
        if (const TraceCacheStats *tc = sim.traceCacheStats())
            obs::publishTraceCacheStats(reg, *tc);
        return st;
    };

    obs::Registry regIdle;
    const SimStats idle = runOnce(regIdle);

    prof::Profiler &p = prof::Profiler::instance();
    p.reset();
    const bool sampling = p.start();
    obs::Registry regProf;
    const SimStats prof_ = runOnce(regProf);
    if (sampling)
        p.stop();

    const std::string d =
        obs::diffSimStats(idle, prof_, "profiler-idle",
                          "profiler-sampling");
    EXPECT_TRUE(d.empty()) << d;

    // Registry dumps match key-for-key once host-time gauges are
    // dropped (phase timers measure wall time, not behavior).
    const auto diffs =
        obs::diffRegistries(regIdle.toJson(), regProf.toJson());
    for (const auto &df : diffs) {
        const bool timing =
            df.key.size() >= 3 &&
            df.key.compare(df.key.size() - 3, 3, ".ms") == 0;
        EXPECT_TRUE(timing)
            << "non-timing key diverged under sampling: " << df.key
            << " (" << df.a << " vs " << df.b << ")";
    }
}

} // namespace
} // namespace lbp
