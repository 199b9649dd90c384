/**
 * @file
 * Resident-loop trace cache tests: traces are built exactly once at
 * first replayed residency and persist across runs, untraceable
 * bodies bail out to the general path (once per activation), buffer
 * evictions never trigger a rebuild, and —
 * the contract everything else rests on — SimStats is bit-identical
 * with the cache forced on, forced off, and against the reference
 * interpreter, down to the per-loop counter vectors.
 *
 * Workload anchors (deterministic): adpcm_enc is the clean case (one
 * hot traceable loop, no evictions); g724_dec is the adversarial one
 * (bailouts, evictions, and replays in the same run).
 */

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "ir/builder.hh"
#include "obs/publish.hh"
#include "sim/trace_cache.hh"
#include "sim/vliw_sim.hh"
#include "workloads/registry.hh"

namespace lbp
{
namespace
{

auto R = [](RegId r) { return Operand::reg(r); };
auto I = [](std::int64_t v) { return Operand::imm(v); };

/** Straight counted loop: traceable body, one hot activation. */
Program
countedLoopProgram(int trip)
{
    Program prog;
    const auto data = prog.allocData(64);
    prog.checksumBase = data;
    prog.checksumSize = 8;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId dp = b.iconst(data);
    const RegId acc = b.iconst(0);
    b.forLoop(0, trip, 1, [&](RegId i) {
        b.addTo(acc, R(acc), R(i));
        for (int p = 0; p < 4; ++p)
            b.binTo(Opcode::XOR, acc, R(acc), I(p * 3 + 1));
    });
    b.storeW(R(dp), I(0), R(acc));
    b.ret({R(acc)});
    return prog;
}

SimConfig
simConfig(int bufferOps, SimEngine engine, TraceCacheMode cacheMode)
{
    SimConfig sc;
    sc.bufferOps = bufferOps;
    sc.engine = engine;
    sc.traceCache = cacheMode;
    // Pin the predicated tier on: these tests assert tier-specific
    // behavior, so the LBP_SIM_NO_PRED_REPLAY escape hatch (which CI
    // drives through the whole sim label) must not flip their
    // engine configuration. Tests of the strict tier set Off
    // explicitly.
    sc.predReplay = PredReplayMode::On;
    return sc;
}

const TraceCacheStats &
statsOf(const VliwSim &sim)
{
    const TraceCacheStats *tc = sim.traceCacheStats();
    EXPECT_NE(tc, nullptr);
    return *tc;
}

TEST(TraceCache, SyntheticLoopReplaysEveryBufferedIteration)
{
    Program prog = countedLoopProgram(100);
    CompileOptions opts;
    opts.level = OptLevel::Traditional;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    SimConfig sc;
    sc.bufferOps = 256;
    sc.traceCache = TraceCacheMode::On;
    VliwSim sim(cr.code, sc);
    const SimStats st = sim.run();
    EXPECT_EQ(st.checksum, cr.goldenChecksum);

    // One recording iteration from memory; replay engages at the
    // first buffered iteration and carries the remaining 99.
    const TraceCacheStats &tc = statsOf(sim);
    EXPECT_EQ(tc.builds, 1u);
    EXPECT_EQ(tc.replays, 1u);
    EXPECT_EQ(tc.bailouts, 0u);
    EXPECT_EQ(tc.replayedIterations, 99u);

    // Everything the loop issued from the buffer went through the
    // trace, and the per-loop split integrates back to the total.
    ASSERT_EQ(st.activeLoops().size(), 1u);
    const LoopStats &ls = *st.activeLoops().front();
    ASSERT_LT(static_cast<std::size_t>(0), tc.perLoop.size());
    EXPECT_EQ(tc.replayedOps, ls.opsFromBuffer);
    std::uint64_t perLoopOps = 0;
    for (const auto &pl : tc.perLoop)
        perLoopOps += pl.ops;
    EXPECT_EQ(perLoopOps, tc.replayedOps);
}

TEST(TraceCache, BuildsOnFirstResidencyAndPersistsAcrossRuns)
{
    Program prog = workloads::buildWorkload("adpcm_enc");
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    SimConfig sc;
    sc.bufferOps = 256;
    sc.traceCache = TraceCacheMode::On;
    VliwSim sim(cr.code, sc);

    sim.run();
    const TraceCacheStats &first = statsOf(sim);
    EXPECT_GE(first.builds, 1u);
    EXPECT_GE(first.replays, 1u);
    EXPECT_GT(first.replayedOps, 0u);

    // Second run on the same instance: counters reset, but the built
    // traces survive — replay re-engages with zero rebuilds.
    sim.run();
    const TraceCacheStats &second = statsOf(sim);
    EXPECT_EQ(second.builds, 0u);
    EXPECT_GE(second.replays, first.replays);
    EXPECT_EQ(second.replayedOps, first.replayedOps);
}

TEST(TraceCache, UntraceableResidentBodyBailsOutPerActivation)
{
    Program prog = workloads::buildWorkload("g724_dec");
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    VliwSim sim(cr.code, simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::On));
    const SimStats st = sim.run();
    const TraceCacheStats &tc = statsOf(sim);
    EXPECT_GT(tc.bailouts, 0u);

    // A bailout is counted at most once per activation (the declined
    // flag dedupes the per-iteration residency checks).
    std::uint64_t activations = 0;
    for (const auto &ls : st.loops)
        activations += ls.activations;
    EXPECT_LE(tc.bailouts, activations);

    // Every bailout names a concrete reason: the defensive Unknown
    // bucket stays empty, and the per-reason split integrates back
    // to the headline counter.
    EXPECT_EQ(tc.bailoutsBy[static_cast<std::size_t>(
                  TraceBailoutReason::Unknown)],
              0u);
    std::uint64_t byReason = 0;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(TraceBailoutReason::Count);
         ++i)
        byReason += tc.bailoutsBy[i];
    EXPECT_EQ(byReason, tc.bailouts);
}

// ---- classifyTraceBody coverage ------------------------------------
//
// The compiler only produces a subset of untraceable shapes (e.g. it
// never emits a guarded backedge today), so the closed-enum coverage
// contract — every TraceBailoutReason reachable, Unknown never — is
// pinned on hand-assembled DecodedFunction images fed straight to the
// pure classifier.

MicroOp
microOp(Opcode op, ExecHandler h)
{
    MicroOp m;
    m.op = op;
    m.handler = h;
    return m;
}

MicroOp
aluOp()
{
    return microOp(Opcode::ADD, ExecHandler::ALU);
}

/**
 * One-block function: the given body ops, one per bundle, plus (by
 * default) a trailing unguarded BR_CLOOP backedge to the head.
 */
DecodedFunction
makeLoopBody(std::vector<MicroOp> body, bool withBackedge = true)
{
    DecodedFunction df;
    if (withBackedge) {
        MicroOp be = microOp(Opcode::BR_CLOOP,
                             ExecHandler::BR_CLOOP);
        be.target = 0;
        body.push_back(be);
    }
    for (std::size_t i = 0; i < body.size(); ++i) {
        DecodedBundle bu;
        bu.first = static_cast<std::uint32_t>(i);
        bu.count = 1;
        bu.sizeOps = 1;
        df.bundles.push_back(bu);
    }
    df.ops = std::move(body);
    DecodedBlock db;
    db.firstBundle = 0;
    db.bundleCount = static_cast<std::uint32_t>(df.bundles.size());
    db.valid = true;
    df.blocks.push_back(db);
    df.entry = 0;
    return df;
}

LoopCtx
headLoopCtx()
{
    LoopCtx ctx;
    ctx.head = 0;
    ctx.loopId = 0;
    ctx.counted = true;
    return ctx;
}

TEST(TraceCache, ClassifierCoversEveryBailoutReason)
{
    using R = TraceBailoutReason;
    const LoopCtx ctx = headLoopCtx();
    bool produced[static_cast<std::size_t>(R::Count)] = {};
    auto classify = [&](const LoopCtx &c, const DecodedFunction &df,
                        bool wide) {
        const R r = classifyTraceBody(c, df, wide);
        produced[static_cast<std::size_t>(r)] = true;
        return r;
    };

    // The traceable shape first: straight ALU body, clean backedge.
    EXPECT_EQ(classify(ctx, makeLoopBody({aluOp()}), false), R::None);
    EXPECT_EQ(classify(ctx, makeLoopBody({aluOp()}), true), R::None);

    DecodedFunction invalid = makeLoopBody({aluOp()});
    invalid.blocks[0].valid = false;
    EXPECT_EQ(classify(ctx, invalid, false), R::EmptyBody);

    DecodedFunction hollow = makeLoopBody({aluOp()});
    hollow.blocks[0].bundleCount = 0;
    EXPECT_EQ(classify(ctx, hollow, false), R::EmptyBody);

    EXPECT_EQ(classify(ctx, makeLoopBody({aluOp()}, false), false),
              R::NoHeadBackedge);

    // A wloop backedge does not satisfy a counted loop's search.
    DecodedFunction wrongKind = makeLoopBody({aluOp()}, false);
    MicroOp wloop = microOp(Opcode::BR_WLOOP, ExecHandler::BR);
    wloop.target = 0;
    wrongKind.ops.push_back(wloop);
    DecodedBundle bu;
    bu.first = 1;
    bu.count = 1;
    bu.sizeOps = 1;
    wrongKind.bundles.push_back(bu);
    wrongKind.blocks[0].bundleCount = 2;
    EXPECT_EQ(classify(ctx, wrongKind, false), R::NoHeadBackedge);

    // Guarded backedge: the legacy strict verdict; the predicated
    // tier admits it (the guard is evaluated in stream order at
    // replay, a nullified backedge hands back as a fall-through).
    DecodedFunction guarded = makeLoopBody({aluOp()});
    guarded.ops.back().guard = 1;  // any PredId != kNoPred (== 0)
    EXPECT_EQ(classify(ctx, guarded, false), R::GuardedBackedge);
    EXPECT_EQ(classify(ctx, guarded, true), R::None);

    DecodedFunction sensitive = makeLoopBody({aluOp()});
    sensitive.ops.back().sensitive = true;
    EXPECT_EQ(classify(ctx, sensitive, false),
              R::SlotSensitiveBackedge);
    EXPECT_EQ(classify(ctx, sensitive, true),
              R::SlotSensitiveBackedge);

    // Calls stay untraceable under either tier.
    EXPECT_EQ(classify(ctx, makeLoopBody(
                  {aluOp(),
                   microOp(Opcode::CALL, ExecHandler::CALL)}), false),
              R::CallInBody);
    EXPECT_EQ(classify(ctx, makeLoopBody(
                  {aluOp(), microOp(Opcode::RET, ExecHandler::RET)}),
                  true),
              R::CallInBody);

    // Extra control ops: the strict tier's catch-all verdict; the
    // predicated tier compiles them into side exits...
    DecodedFunction jumper = makeLoopBody(
        {aluOp(), microOp(Opcode::JUMP, ExecHandler::JUMP)});
    EXPECT_EQ(classify(ctx, jumper, false), R::MultiControlOp);
    EXPECT_EQ(classify(ctx, jumper, true), R::None);

    MicroOp sideBr = microOp(Opcode::BR, ExecHandler::BR);
    sideBr.target = 7;
    DecodedFunction sider = makeLoopBody({aluOp(), sideBr});
    EXPECT_EQ(classify(ctx, sider, false), R::MultiControlOp);
    EXPECT_EQ(classify(ctx, sider, true), R::None);

    // A BR_WLOOP to the head in a *counted* context is a plain branch
    // on the general path, so the predicated tier treats it as a side
    // exit too.
    MicroOp wback = microOp(Opcode::BR_WLOOP, ExecHandler::BR);
    wback.target = 0;
    DecodedFunction countedWback = makeLoopBody({aluOp(), wback});
    EXPECT_EQ(classify(ctx, countedWback, false), R::MultiControlOp);
    EXPECT_EQ(classify(ctx, countedWback, true), R::None);

    // ...except bodies that re-enter the loop machinery, which keep
    // their own names under the predicated tier.
    DecodedFunction nested = makeLoopBody(
        {aluOp(), microOp(Opcode::REC_CLOOP, ExecHandler::LOOP)});
    EXPECT_EQ(classify(ctx, nested, false), R::MultiControlOp);
    EXPECT_EQ(classify(ctx, nested, true), R::NestedLoop);

    // A second counted backedge ahead of the loop's own (an inner
    // hardware loop sharing the block).
    MicroOp innerBe = microOp(Opcode::BR_CLOOP, ExecHandler::BR_CLOOP);
    innerBe.target = 9;  // some other head
    DecodedFunction twoBack = makeLoopBody({innerBe, aluOp()});
    EXPECT_EQ(classify(ctx, twoBack, false), R::MultiControlOp);
    EXPECT_EQ(classify(ctx, twoBack, true), R::MultiBackedge);

    // A second *while* backedge to the head (same bundle as the real
    // one — the only place the scan can see it) mutates the
    // activation's own iteration state: not a side exit.
    DecodedFunction wmulti = makeLoopBody({aluOp()}, false);
    wmulti.ops.push_back(wback);
    wmulti.ops.push_back(wback);
    DecodedBundle wbu;
    wbu.first = 1;
    wbu.count = 2;
    wbu.sizeOps = 2;
    wmulti.bundles.push_back(wbu);
    wmulti.blocks[0].bundleCount = 2;
    LoopCtx wctx = headLoopCtx();
    wctx.counted = false;
    EXPECT_EQ(classify(wctx, wmulti, true), R::MultiBackedge);

    // BelowEngageThreshold is not a build verdict — the engagement
    // site counts it (covered end-to-end below); mark it so the
    // coverage sweep can require everything else from the classifier.
    produced[static_cast<std::size_t>(R::BelowEngageThreshold)] =
        true;

    EXPECT_FALSE(produced[static_cast<std::size_t>(R::Unknown)])
        << "nothing in the tree may classify as Unknown";
    for (std::size_t i = static_cast<std::size_t>(R::EmptyBody);
         i < static_cast<std::size_t>(R::Count); ++i)
        EXPECT_TRUE(produced[i])
            << "reason never produced: "
            << traceBailoutReasonName(static_cast<R>(i));
}

TEST(TraceCache, GuardedBackedgeBuildsPredicatedTrace)
{
    // The compiler never emits a guarded backedge today, so the
    // build-tier contract is pinned on a hand-assembled image fed
    // straight to the cache: the predicated tier builds a Ready
    // trace keeping the backedge in the op stream; the strict tier
    // (the LBP_SIM_NO_PRED_REPLAY escape hatch) still declines with
    // the legacy verdict.
    DecodedFunction df = makeLoopBody({aluOp()});
    df.ops.back().guard = 1;
    const LoopCtx ctx = headLoopCtx();

    TraceCache wide(1, /*slotMode=*/false, /*predReplay=*/true);
    LoopTrace &tr = wide.acquire(ctx, df);
    EXPECT_EQ(tr.state, LoopTrace::State::Ready);
    EXPECT_TRUE(tr.predicated);
    ASSERT_EQ(tr.ops.size(), 2u);  // backedge kept in stream
    EXPECT_EQ(tr.beOpIndex, 1u);
    EXPECT_EQ(tr.ops[tr.beOpIndex].op, Opcode::BR_CLOOP);
    EXPECT_FALSE(tr.ops[tr.beOpIndex].alwaysExec);
    EXPECT_EQ(wide.stats().builds, 1u);
    EXPECT_EQ(wide.stats().predReplay.builds, 1u);

    TraceCache strict(1, /*slotMode=*/false, /*predReplay=*/false);
    LoopTrace &ts = strict.acquire(ctx, df);
    EXPECT_EQ(ts.state, LoopTrace::State::Untraceable);
    EXPECT_EQ(ts.reason, TraceBailoutReason::GuardedBackedge);
    EXPECT_EQ(strict.stats().predReplay.builds, 0u);

    // An unguarded straight body stays on the fast tier even with
    // the predicated tier enabled — no backedge in the stream.
    DecodedFunction plain = makeLoopBody({aluOp()});
    TraceCache fast(1, /*slotMode=*/false, /*predReplay=*/true);
    LoopTrace &tf = fast.acquire(ctx, plain);
    EXPECT_EQ(tf.state, LoopTrace::State::Ready);
    EXPECT_FALSE(tf.predicated);
    EXPECT_EQ(tf.ops.size(), 1u);
    EXPECT_EQ(fast.stats().predReplay.builds, 0u);
}

TEST(TraceCache, ShortCountedTripBailsOutBelowEngageThreshold)
{
    // Trip count below kMinCountedReplayIters: the loop is buffered
    // and traceable, but the engagement site declines every
    // activation as not worth a replay setup.
    Program prog = countedLoopProgram(
        static_cast<int>(kMinCountedReplayIters) - 1);
    CompileOptions opts;
    opts.level = OptLevel::Traditional;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    VliwSim sim(cr.code, simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::On));
    const SimStats st = sim.run();
    EXPECT_EQ(st.checksum, cr.goldenChecksum);

    const TraceCacheStats &tc = statsOf(sim);
    EXPECT_EQ(tc.replays, 0u);
    EXPECT_GT(tc.bailouts, 0u);
    EXPECT_EQ(tc.bailoutsBy[static_cast<std::size_t>(
                  TraceBailoutReason::BelowEngageThreshold)],
              tc.bailouts);
}

TEST(TraceCache, ReplayMinItersConfigFieldGatesEngagement)
{
    Program prog = countedLoopProgram(20);
    CompileOptions opts;
    opts.level = OptLevel::Traditional;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    // A threshold above the trip count declines every activation with
    // the engage-threshold verdict...
    SimConfig gatedCfg = simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::On);
    gatedCfg.replayMinIters = 1000;
    VliwSim gated(cr.code, gatedCfg);
    gated.run();
    const TraceCacheStats &gc = statsOf(gated);
    EXPECT_EQ(gc.replays, 0u);
    EXPECT_GT(gc.bailouts, 0u);
    EXPECT_EQ(gc.bailoutsBy[static_cast<std::size_t>(
                  TraceBailoutReason::BelowEngageThreshold)],
              gc.bailouts);

    // ...and zero disables the gate entirely.
    SimConfig openCfg = gatedCfg;
    openCfg.replayMinIters = 0;
    VliwSim open(cr.code, openCfg);
    open.run();
    EXPECT_GT(statsOf(open).replays, 0u);
    EXPECT_EQ(statsOf(open).bailouts, 0u);
}

TEST(TraceCache, ReplayMinItersEnvOverridesConfig)
{
    Program prog = countedLoopProgram(20);
    CompileOptions opts;
    opts.level = OptLevel::Traditional;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    SimConfig sc = simConfig(256, SimEngine::DECODED,
                             TraceCacheMode::On);
    sc.replayMinIters = 1000;  // would decline every activation

    // The env override is read at construction and beats the config.
    ::setenv("LBP_SIM_REPLAY_MIN_ITERS", "4", 1);
    VliwSim overridden(cr.code, sc);
    ::unsetenv("LBP_SIM_REPLAY_MIN_ITERS");
    overridden.run();
    EXPECT_GT(statsOf(overridden).replays, 0u);

    // Malformed values are ignored — the config holds.
    ::setenv("LBP_SIM_REPLAY_MIN_ITERS", "4x", 1);
    VliwSim malformed(cr.code, sc);
    ::unsetenv("LBP_SIM_REPLAY_MIN_ITERS");
    malformed.run();
    EXPECT_EQ(statsOf(malformed).replays, 0u);

    // So are negative ones.
    ::setenv("LBP_SIM_REPLAY_MIN_ITERS", "-3", 1);
    VliwSim negative(cr.code, sc);
    ::unsetenv("LBP_SIM_REPLAY_MIN_ITERS");
    negative.run();
    EXPECT_EQ(statsOf(negative).replays, 0u);
}

/**
 * Counted loop whose body carries a rare side exit into a clamp
 * block that rejoins after the loop — the g724_dec post_filter
 * shape. After if-conversion and branch combining the exit is a
 * guarded BR inside the loop's single body block, which the strict
 * trace tier rejects as multiControlOp and the predicated tier
 * compiles into a trace-exit check. With a huge threshold the exit
 * never triggers; with a small one the activation ends through the
 * side exit mid-flight.
 */
Program
sideExitLoopProgram(int trip, std::int64_t threshold)
{
    Program prog;
    const auto data = prog.allocData(64);
    prog.checksumBase = data;
    prog.checksumSize = 8;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId dp = b.iconst(data);
    const RegId acc = b.iconst(0);
    const BlockId bail = b.makeBlock();
    b.forLoop(0, trip, 1, [&](RegId i) {
        b.addTo(acc, R(acc), R(i));
        for (int p = 0; p < 4; ++p)
            b.binTo(Opcode::XOR, acc, R(acc), I(p * 5 + 3));
        const BlockId cont = b.makeBlock();
        b.br(CmpCond::GT, R(acc), I(threshold), bail);
        b.fallTo(cont);
        b.at(cont);
    });
    const BlockId join = b.makeBlock();
    b.jump(join);
    b.at(bail);
    b.movTo(acc, I(-1));
    b.fallTo(join);
    b.at(join);
    b.storeW(R(dp), I(0), R(acc));
    b.ret({R(acc)});
    return prog;
}

TEST(TraceCache, SideExitLoopBuildsPredicatedTraceAndReplays)
{
    // Exit never taken: the predicated trace carries the whole
    // residency, and the strict tier's multiControlOp verdict is gone.
    Program prog = sideExitLoopProgram(60, std::int64_t{1} << 40);
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    // The escape hatch first, to prove the body really is the shape
    // the strict tier rejects.
    SimConfig strictCfg = simConfig(256, SimEngine::DECODED,
                                    TraceCacheMode::On);
    strictCfg.predReplay = PredReplayMode::Off;
    VliwSim strict(cr.code, strictCfg);
    const SimStats strictStats = strict.run();
    EXPECT_EQ(strictStats.checksum, cr.goldenChecksum);
    const TraceCacheStats &sb = statsOf(strict);
    EXPECT_GT(sb.bailoutsBy[static_cast<std::size_t>(
                  TraceBailoutReason::MultiControlOp)],
              0u);
    EXPECT_EQ(sb.predReplay.replays, 0u);

    VliwSim sim(cr.code, simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::On));
    const SimStats st = sim.run();
    EXPECT_EQ(st.checksum, cr.goldenChecksum);
    const TraceCacheStats &tc = statsOf(sim);
    EXPECT_EQ(tc.bailoutsBy[static_cast<std::size_t>(
                  TraceBailoutReason::MultiControlOp)],
              0u);
    EXPECT_GE(tc.predReplay.builds, 1u);
    EXPECT_GT(tc.predReplay.replays, 0u);
    EXPECT_GT(tc.predReplay.iterations, 0u);
    EXPECT_EQ(tc.predReplay.sideExits, 0u);
    EXPECT_EQ(tc.predReplay.ops, tc.replayedOps);

    // Bit-identical against reference and the non-replaying engines.
    const SimStats ref =
        VliwSim(cr.code, simConfig(256, SimEngine::REFERENCE,
                                   TraceCacheMode::Auto))
            .run();
    const SimStats off =
        VliwSim(cr.code, simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::Off))
            .run();
    EXPECT_TRUE(obs::diffSimStats(ref, st, "reference", "pred-on")
                    .empty());
    EXPECT_TRUE(obs::diffSimStats(ref, strictStats, "reference",
                                  "pred-off")
                    .empty());
    EXPECT_TRUE(obs::diffSimStats(ref, off, "reference", "cache-off")
                    .empty());
}

TEST(TraceCache, SideExitTakenBailsBackToDispatchWithoutDivergence)
{
    // Threshold low enough that the exit fires mid-activation, after
    // replay has engaged: the trace hands control back to the
    // dispatch loop at the architectural side-exit point.
    Program prog = sideExitLoopProgram(60, 200);
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    VliwSim sim(cr.code, simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::On));
    const SimStats st = sim.run();
    EXPECT_EQ(st.checksum, cr.goldenChecksum);
    const TraceCacheStats &tc = statsOf(sim);
    EXPECT_GT(tc.predReplay.replays, 0u);
    EXPECT_EQ(tc.predReplay.sideExits, 1u);

    const SimStats ref =
        VliwSim(cr.code, simConfig(256, SimEngine::REFERENCE,
                                   TraceCacheMode::Auto))
            .run();
    const SimStats off =
        VliwSim(cr.code, simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::Off))
            .run();
    SimConfig strictCfg = simConfig(256, SimEngine::DECODED,
                                    TraceCacheMode::On);
    strictCfg.predReplay = PredReplayMode::Off;
    const SimStats strictStats = VliwSim(cr.code, strictCfg).run();

    EXPECT_TRUE(obs::diffSimStats(ref, st, "reference", "pred-on")
                    .empty());
    EXPECT_TRUE(obs::diffSimStats(ref, off, "reference", "cache-off")
                    .empty());
    EXPECT_TRUE(obs::diffSimStats(ref, strictStats, "reference",
                                  "pred-off")
                    .empty());
}

TEST(TraceCache, EvictionDoesNotRebuildTraces)
{
    Program prog = workloads::buildWorkload("g724_dec");
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    VliwSim sim(cr.code, simConfig(256, SimEngine::DECODED,
                                   TraceCacheMode::On));
    const SimStats st = sim.run();
    const TraceCacheStats &tc = statsOf(sim);
    EXPECT_GT(tc.replays, 0u);

    // Trace content is allocation-invariant, so a trace built once
    // replays again after its loop's image is evicted and re-recorded:
    // builds stay at one per traceable loop however often the buffer
    // evicts.
    std::uint64_t evictions = 0;
    std::uint64_t replayedLoops = 0;
    bool evictedLoopReplaysAgain = false;
    for (std::size_t id = 0; id < st.loops.size(); ++id) {
        evictions += st.loops[id].evictions;
        if (tc.perLoop[id].replays == 0)
            continue;
        ++replayedLoops;
        if (st.loops[id].evictions > 0 && tc.perLoop[id].replays > 1)
            evictedLoopReplaysAgain = true;
    }
    EXPECT_GT(evictions, 0u);
    EXPECT_TRUE(evictedLoopReplaysAgain);
    EXPECT_LE(tc.builds, replayedLoops);
    EXPECT_LT(tc.builds, evictions);
}

TEST(TraceCache, StatsBitIdenticalOnOffAndReference)
{
    for (const char *name : {"adpcm_enc", "g724_dec", "mpg123"}) {
        Program prog = workloads::buildWorkload(name);
        CompileOptions opts;
        opts.level = OptLevel::Aggressive;
        opts.bufferOps = 256;
        CompileResult cr;
        compileProgram(prog, opts, cr);

        const SimStats ref =
            VliwSim(cr.code, simConfig(256, SimEngine::REFERENCE,
                                       TraceCacheMode::Auto))
                .run();
        const SimStats on =
            VliwSim(cr.code, simConfig(256, SimEngine::DECODED,
                                       TraceCacheMode::On))
                .run();
        const SimStats off =
            VliwSim(cr.code, simConfig(256, SimEngine::DECODED,
                                       TraceCacheMode::Off))
                .run();

        const std::string dOn =
            obs::diffSimStats(ref, on, "reference", "cache-on");
        EXPECT_TRUE(dOn.empty()) << name << "\n" << dOn;
        const std::string dOff =
            obs::diffSimStats(ref, off, "reference", "cache-off");
        EXPECT_TRUE(dOff.empty()) << name << "\n" << dOff;

        // Per-loop counter vectors, element-wise through the
        // full-field operator==.
        ASSERT_EQ(ref.loops.size(), on.loops.size()) << name;
        for (std::size_t i = 0; i < ref.loops.size(); ++i)
            EXPECT_TRUE(ref.loops[i] == on.loops[i])
                << name << " loop[" << i << "] ("
                << ref.loops[i].name << ")";
    }
}

TEST(TraceCache, PerLoopReplayNeverExceedsBufferedOps)
{
    for (const auto &w : workloads::allWorkloads()) {
        Program prog = workloads::buildWorkload(w.name);
        CompileOptions opts;
        opts.level = OptLevel::Aggressive;
        opts.bufferOps = 256;
        CompileResult cr;
        compileProgram(prog, opts, cr);

        VliwSim sim(cr.code, simConfig(256, SimEngine::DECODED,
                                       TraceCacheMode::On));
        const SimStats st = sim.run();
        const TraceCacheStats &tc = statsOf(sim);
        ASSERT_EQ(tc.perLoop.size(), st.loops.size()) << w.name;
        std::uint64_t perLoopOps = 0;
        std::uint64_t perLoopBailouts = 0;
        for (std::size_t i = 0; i < st.loops.size(); ++i) {
            EXPECT_LE(tc.perLoop[i].ops, st.loops[i].opsFromBuffer)
                << w.name << " loop " << st.loops[i].name;
            perLoopOps += tc.perLoop[i].ops;
            perLoopBailouts += tc.perLoop[i].bailouts;
        }
        EXPECT_EQ(perLoopOps, tc.replayedOps) << w.name;
        EXPECT_LE(tc.replayedOps, st.opsFromBuffer) << w.name;

        // The bailout attributions integrate back to the headline
        // counter on both axes — per reason and per loop — and the
        // defensive Unknown bucket stays empty on every workload.
        std::uint64_t byReason = 0;
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(TraceBailoutReason::Count);
             ++i)
            byReason += tc.bailoutsBy[i];
        EXPECT_EQ(byReason, tc.bailouts) << w.name;
        EXPECT_EQ(perLoopBailouts, tc.bailouts) << w.name;
        EXPECT_EQ(tc.bailoutsBy[static_cast<std::size_t>(
                      TraceBailoutReason::Unknown)],
                  0u)
            << w.name;
    }
}

TEST(TraceCache, DisabledModesPublishNoStats)
{
    Program prog = countedLoopProgram(50);
    CompileOptions opts;
    opts.level = OptLevel::Traditional;
    opts.bufferOps = 256;
    CompileResult cr;
    compileProgram(prog, opts, cr);

    SimConfig sc;
    sc.bufferOps = 256;
    sc.traceCache = TraceCacheMode::Off;
    VliwSim off(cr.code, sc);
    off.run();
    EXPECT_EQ(off.traceCacheStats(), nullptr);

    sc.traceCache = TraceCacheMode::Auto;
    sc.engine = SimEngine::REFERENCE;
    VliwSim refSim(cr.code, sc);
    refSim.run();
    EXPECT_EQ(refSim.traceCacheStats(), nullptr);
}

} // namespace
} // namespace lbp
