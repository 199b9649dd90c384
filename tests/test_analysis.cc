/**
 * @file
 * Analysis tests: dominators, loop detection and induction
 * recognition, liveness, and the dependence graph (including RecMII).
 */

#include <gtest/gtest.h>

#include "analysis/dependence.hh"
#include "analysis/dominators.hh"
#include "analysis/liveness.hh"
#include "analysis/loop_info.hh"
#include "ir/builder.hh"

namespace lbp
{
namespace
{

auto R = [](RegId r) { return Operand::reg(r); };
auto I = [](std::int64_t v) { return Operand::imm(v); };

/** entry -> (then | else) -> join -> ret diamond. */
Program
diamondProgram(BlockId &thenB, BlockId &elseB, BlockId &join)
{
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    thenB = b.makeBlock("then");
    elseB = b.makeBlock("else");
    join = b.makeBlock("join");
    b.br(CmpCond::EQ, I(0), I(0), thenB);
    b.fallTo(elseB);
    b.at(elseB);
    b.jump(join);
    b.at(thenB);
    b.fallTo(join);
    b.at(join);
    b.ret({});
    return prog;
}

TEST(Dominators, Diamond)
{
    BlockId t, e, j;
    Program prog = diamondProgram(t, e, j);
    const Function &fn = prog.functions[0];
    Dominators dom(fn);
    EXPECT_TRUE(dom.dominates(fn.entry, t));
    EXPECT_TRUE(dom.dominates(fn.entry, j));
    EXPECT_FALSE(dom.dominates(t, j));
    EXPECT_FALSE(dom.dominates(e, j));
    EXPECT_EQ(dom.idom(j), fn.entry);
    EXPECT_EQ(dom.idom(t), fn.entry);
}

TEST(LoopInfo, SimpleCountedLoop)
{
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const BlockId head = b.forLoop(2, 20, 3, [&](RegId i) {
        b.add(R(i), I(1));
    });
    b.ret({});
    LoopInfo li(prog.functions[f]);
    ASSERT_EQ(li.loops().size(), 1u);
    const Loop &l = li.loops()[0];
    EXPECT_EQ(l.header, head);
    EXPECT_TRUE(li.isSimple(0));
    ASSERT_TRUE(l.induction.valid);
    EXPECT_TRUE(l.induction.startKnown);
    EXPECT_EQ(l.induction.start, 2);
    EXPECT_EQ(l.induction.step, 3);
    // i = 2, 5, 8, 11, 14, 17 then 20 fails i<20: trip 6.
    EXPECT_EQ(l.induction.constTrip, 6);
}

TEST(LoopInfo, ZeroOrNegativeSpanStillTripsOnce)
{
    // Bottom-test loops execute at least once.
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    b.forLoop(5, 5, 1, [&](RegId i) { b.add(R(i), I(0)); });
    b.ret({});
    LoopInfo li(prog.functions[f]);
    ASSERT_EQ(li.loops().size(), 1u);
    EXPECT_EQ(li.loops()[0].induction.constTrip, 1);
}

TEST(LoopInfo, NestedLoops)
{
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    BlockId inner = kNoBlock;
    const BlockId outer = b.forLoop(0, 4, 1, [&](RegId) {
        inner = b.forLoop(0, 8, 1, [&](RegId j) { b.add(R(j), I(1)); });
    });
    b.ret({});
    LoopInfo li(prog.functions[f]);
    ASSERT_EQ(li.loops().size(), 2u);
    int innerIdx = li.loops()[0].header == inner ? 0 : 1;
    int outerIdx = 1 - innerIdx;
    EXPECT_EQ(li.loops()[innerIdx].parent, outerIdx);
    EXPECT_EQ(li.loops()[innerIdx].depth, 2);
    EXPECT_EQ(li.loops()[outerIdx].depth, 1);
    EXPECT_FALSE(li.isSimple(outerIdx));
    EXPECT_TRUE(li.isSimple(innerIdx));
    EXPECT_EQ(li.loops()[outerIdx].header, outer);
}

TEST(LoopInfo, VariableBoundInduction)
{
    Program prog;
    const FuncId f = prog.newFunction("f");
    Function &fn = prog.functions[f];
    const RegId n = fn.newReg();
    fn.params = {n};
    IRBuilder b(prog, f);
    b.forLoopReg(0, n, 1, [&](RegId i) { b.add(R(i), I(1)); });
    b.ret({});
    LoopInfo li(fn);
    ASSERT_EQ(li.loops().size(), 1u);
    EXPECT_TRUE(li.loops()[0].induction.valid);
    EXPECT_EQ(li.loops()[0].induction.constTrip, -1);
    EXPECT_TRUE(li.loops()[0].induction.bound.isReg());
}

TEST(Liveness, UsesAndKills)
{
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const RegId x = b.iconst(1);
    const BlockId next = b.makeBlock();
    b.fallTo(next);
    b.at(next);
    const RegId y = b.add(R(x), I(1));
    b.ret({R(y)});
    Liveness live(prog.functions[f]);
    EXPECT_TRUE(live.liveIn(next).test(x));
    EXPECT_FALSE(live.liveIn(next).test(y));
    EXPECT_TRUE(live.liveOut(prog.functions[f].entry).test(x));
}

TEST(Liveness, LoopCarriedLiveness)
{
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const RegId acc = b.iconst(0);
    const BlockId head = b.forLoop(0, 4, 1, [&](RegId) {
        b.addTo(acc, R(acc), I(1));
    });
    b.ret({R(acc)});
    Liveness live(prog.functions[f]);
    // acc is live around the backedge.
    EXPECT_TRUE(live.liveIn(head).test(acc));
    EXPECT_TRUE(live.liveOut(head).test(acc));
}

TEST(Liveness, GuardedDefDoesNotKill)
{
    // x's guarded redefinition may not execute, so the value from
    // entry still reaches the return; the unguarded one kills it.
    for (bool guarded : {true, false}) {
        Program prog;
        const FuncId f = prog.newFunction("f");
        IRBuilder b(prog, f);
        const RegId x = b.iconst(1);
        const PredId p = b.newPred();
        b.predDef(PredDefKind::UT, p, CmpCond::EQ, I(0), I(0));
        const BlockId mid = b.makeBlock("mid");
        b.fallTo(mid);
        b.at(mid);
        if (guarded)
            b.setGuard(p);
        b.movTo(x, I(2));
        b.clearGuard();
        b.ret({R(x)});
        Liveness live(prog.functions[f]);
        EXPECT_EQ(live.liveIn(mid).test(x), guarded);
        EXPECT_EQ(live.liveOut(prog.functions[f].entry).test(x), guarded);
        EXPECT_EQ(live.predLiveIn(mid).test(p), guarded);
    }
}

TEST(Liveness, UTypePredDefKillsOrTypeDoesNot)
{
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const PredId u = b.newPred();
    const PredId o = b.newPred();
    const BlockId mid = b.makeBlock("mid");
    b.fallTo(mid);
    b.at(mid);
    b.predDef(PredDefKind::UT, u, CmpCond::EQ, I(0), I(0));
    b.predDef(PredDefKind::OT, o, CmpCond::EQ, I(0), I(0));
    b.setGuard(u);
    const RegId y = b.iconst(1);
    b.setGuard(o);
    b.movTo(y, I(2));
    b.clearGuard();
    b.ret({R(y)});
    Liveness live(prog.functions[f]);
    // The u-type define writes u on every path; the or-type define
    // writes o only when its condition holds, so o's incoming value
    // is still read.
    EXPECT_FALSE(live.predLiveIn(mid).test(u));
    EXPECT_TRUE(live.predLiveIn(mid).test(o));
    EXPECT_TRUE(live.predLiveOut(prog.functions[f].entry).test(o));
}

TEST(Liveness, LoopCarriedPredicate)
{
    // p guards the body's first op and is only redefined at its
    // bottom: each iteration reads the previous iteration's p.
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const RegId acc = b.iconst(0);
    const PredId p = b.newPred();
    b.predDef(PredDefKind::UT, p, CmpCond::TRUE_, I(0), I(0));
    const BlockId head = b.forLoop(0, 4, 1, [&](RegId i) {
        b.setGuard(p);
        b.addTo(acc, R(acc), I(1));
        b.clearGuard();
        b.predDef(PredDefKind::UT, p, CmpCond::LT, R(i), I(2));
    });
    b.ret({R(acc)});
    const Function &fn = prog.functions[f];
    Liveness live(fn);
    EXPECT_TRUE(live.predLiveIn(head).test(p));
    EXPECT_TRUE(live.predLiveOut(head).test(p));
    EXPECT_FALSE(live.predLiveIn(fn.entry).test(p));
}

TEST(DepGraph, TrueAntiOutput)
{
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const RegId x = b.iconst(1);       // 0: writes x
    const RegId y = b.add(R(x), I(1)); // 1: reads x, writes y
    b.movTo(x, I(5));                  // 2: rewrites x
    b.ret({R(y)});                     // 3
    const BasicBlock &bb =
        prog.functions[f].blocks[prog.functions[f].entry];
    DepGraph dg(bb, false);
    bool sawTrue = false, sawAnti = false, sawOutput = false;
    for (const auto &e : dg.edges()) {
        if (e.kind == DepKind::TRUE_ && e.from == 0 && e.to == 1)
            sawTrue = true;
        if (e.kind == DepKind::ANTI && e.from == 1 && e.to == 2)
            sawAnti = true;
        if (e.kind == DepKind::OUTPUT && e.from == 0 && e.to == 2)
            sawOutput = true;
    }
    EXPECT_TRUE(sawTrue);
    EXPECT_TRUE(sawAnti);
    EXPECT_TRUE(sawOutput);
}

TEST(DepGraph, MemoryOrderingWhenAliasing)
{
    // Same base, same offset: the accesses truly conflict and must
    // be ordered.
    Program prog;
    prog.allocData(64);
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const RegId p = b.iconst(0);
    b.storeW(R(p), I(0), I(1));          // 1 (op 0 is iconst)
    const RegId v = b.loadW(R(p), I(0)); // 2
    b.storeW(R(p), I(0), R(v));          // 3
    b.ret({});
    const BasicBlock &bb =
        prog.functions[f].blocks[prog.functions[f].entry];
    DepGraph dg(bb, false);
    bool stLd = false, ldSt = false;
    for (const auto &e : dg.edges()) {
        if (e.distance != 0)
            continue;
        if (e.from == 1 && e.to == 2)
            stLd = true;
        if (e.from == 2 && e.to == 3)
            ldSt = true;
    }
    EXPECT_TRUE(stLd);
    EXPECT_TRUE(ldSt);
}

TEST(DepGraph, DisjointOffsetsDisambiguated)
{
    // Same loop-invariant base, disjoint offsets: no memory edges.
    Program prog;
    prog.allocData(64);
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const RegId p = b.iconst(0);
    b.storeW(R(p), I(0), I(1));          // 1
    const RegId v = b.loadW(R(p), I(4)); // 2
    b.storeW(R(p), I(8), R(v));          // 3
    b.ret({});
    const BasicBlock &bb =
        prog.functions[f].blocks[prog.functions[f].entry];
    DepGraph dg(bb, false);
    for (const auto &e : dg.edges())
        EXPECT_NE(e.kind, DepKind::MEM);
}

TEST(DepGraph, OverlappingRangesConflict)
{
    // st.w at 0 overlaps ld.h at 2 (word covers bytes 0..3).
    Program prog;
    prog.allocData(64);
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const RegId p = b.iconst(0);
    b.storeW(R(p), I(0), I(1)); // 1
    b.loadH(R(p), I(2));        // 2
    b.ret({});
    const BasicBlock &bb =
        prog.functions[f].blocks[prog.functions[f].entry];
    DepGraph dg(bb, false);
    bool conflict = false;
    for (const auto &e : dg.edges())
        conflict |= e.from == 1 && e.to == 2 && e.distance == 0;
    EXPECT_TRUE(conflict);
}

TEST(DepGraph, RewrittenBaseBlocksDisambiguation)
{
    // The base register is redefined between the accesses, so the
    // offset comparison is invalid and the pair must stay ordered.
    Program prog;
    prog.allocData(64);
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const RegId p = b.iconst(0);
    b.storeW(R(p), I(0), I(1));    // 1
    b.movTo(p, I(4));              // 2: base changes
    b.loadW(R(p), I(0));           // 3: actually address 4... or 0?
    b.ret({});
    const BasicBlock &bb =
        prog.functions[f].blocks[prog.functions[f].entry];
    DepGraph dg(bb, false);
    bool ordered = false;
    for (const auto &e : dg.edges())
        ordered |= e.from == 1 && e.to == 3 && e.distance == 0 &&
                   e.kind == DepKind::MEM;
    EXPECT_TRUE(ordered);
}

TEST(DepGraph, LoopCarriedDisambiguation)
{
    // A loop writing arr[i] and reading table[j] with distinct
    // loop-invariant bases: only truly-aliasing pairs get
    // distance-1 edges, so the recurrence stays load-free.
    Program prog;
    prog.allocData(1024);
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const RegId arr = b.iconst(0);
    const BlockId head = b.forLoop(0, 16, 1, [&](RegId i) {
        const RegId i4 = b.shl(R(i), I(2));
        const RegId addr = b.add(R(arr), R(i4));
        const RegId v = b.loadW(R(addr), I(512)); // table region
        b.storeW(R(addr), I(0), R(v));            // array region
    });
    b.ret({});
    const BasicBlock &bb = prog.functions[f].blocks[head];
    DepGraph dg(bb, true);
    // Same base register (addr), offsets 512 vs 0, sizes 4: disjoint
    // within an iteration. Cross-iteration the base changes, so the
    // conservative distance-1 edge remains — assert exactly that.
    bool intraConflict = false, carried = false;
    for (const auto &e : dg.edges()) {
        if (e.kind != DepKind::MEM)
            continue;
        if (e.distance == 0)
            intraConflict = true;
        else
            carried = true;
    }
    EXPECT_FALSE(intraConflict);
    EXPECT_TRUE(carried);
}

TEST(DepGraph, HeightsRespectLatency)
{
    Program prog;
    prog.allocData(64);
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const RegId p = b.iconst(0);             // 0
    const RegId v = b.loadW(R(p), I(0));     // 1 (lat 3)
    const RegId m = b.mul(R(v), I(3));       // 2 (lat 2)
    const RegId a = b.add(R(m), I(1));       // 3
    b.ret({R(a)});
    const BasicBlock &bb =
        prog.functions[f].blocks[prog.functions[f].entry];
    DepGraph dg(bb, false);
    auto h = dg.heights();
    // Chain: iconst(1) -> load(3) -> mul(2) -> add(1) -> ret.
    EXPECT_GE(h[0], h[1]);
    EXPECT_GE(h[1], 3 + h[2] - 2); // load latency dominates
    EXPECT_GT(h[1], h[3]);
}

TEST(DepGraph, RecMIIAccumulatorChain)
{
    // acc += load(...) each iteration: recurrence on acc with
    // latency 1 -> RecMII small; a mul in the chain raises it.
    Program prog;
    prog.allocData(64);
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const RegId acc = b.iconst(0);
    b.forLoop(0, 8, 1, [&](RegId) {
        b.mulTo(acc, R(acc), I(3)); // acc = acc*3: latency-2 cycle
    });
    b.ret({R(acc)});
    LoopInfo li(prog.functions[f]);
    ASSERT_EQ(li.loops().size(), 1u);
    const BasicBlock &body =
        prog.functions[f].blocks[li.loops()[0].header];
    DepGraph dg(body, true);
    EXPECT_GE(dg.recMII(), 2);
}

TEST(DepGraph, BranchBarrier)
{
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const BlockId tgt = b.makeBlock();
    b.at(tgt);
    b.ret({});
    b.at(prog.functions[f].entry);
    const RegId x = b.iconst(1);          // 0
    b.br(CmpCond::GT, R(x), I(0), tgt);   // 1
    b.fallTo(tgt);
    const BasicBlock &bb =
        prog.functions[f].blocks[prog.functions[f].entry];
    DepGraph dg(bb, false);
    bool intoBranch = false;
    for (const auto &e : dg.edges()) {
        if (e.from == 0 && e.to == 1 && e.distance == 0)
            intoBranch = true;
    }
    EXPECT_TRUE(intoBranch);
}

} // namespace
} // namespace lbp
