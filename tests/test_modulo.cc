/**
 * @file
 * Iterative-modulo-scheduler tests: II lower bounds (ResMII/RecMII),
 * legality under modulo constraints, MVE factors, and random-loop
 * property sweeps.
 */

#include <gtest/gtest.h>

#include "analysis/loop_info.hh"
#include "core/compiler.hh"
#include "ir/builder.hh"
#include "ir/interpreter.hh"
#include "sched/modulo_scheduler.hh"
#include "support/random.hh"
#include "workloads/registry.hh"

namespace lbp
{
namespace
{

auto R = [](RegId r) { return Operand::reg(r); };
auto I = [](std::int64_t v) { return Operand::imm(v); };

/** Build a simple loop body with the given generator and return the
 *  loop header's block. */
const BasicBlock &
makeLoopBody(Program &prog, const std::function<void(IRBuilder &)> &gen)
{
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    BlockId head = kNoBlock;
    head = b.forLoop(0, 100, 1, [&](RegId) { gen(b); });
    b.ret({});
    return prog.functions[f].blocks[head];
}

TEST(Modulo, ResMIIByMemoryUnits)
{
    // Seven independent loads per iteration / 3 MEM units -> >= 3.
    Program prog;
    prog.allocData(256);
    const BasicBlock &bb = makeLoopBody(prog, [&](IRBuilder &b) {
        const RegId p = b.iconst(0);
        for (int i = 0; i < 7; ++i)
            b.loadW(R(p), I(4 * i));
    });
    Machine machine;
    EXPECT_GE(computeResMII(bb, machine), 3);
    ModuloResult info;
    SchedBlock sb = moduloScheduleLoop(bb, machine, {}, &info);
    ASSERT_TRUE(sb.valid);
    EXPECT_TRUE(sb.pipelined);
    EXPECT_GE(sb.ii, 3);
    EXPECT_TRUE(validateSchedule(bb, sb, machine).empty());
}

TEST(Modulo, RecMIIByAccumulatorChain)
{
    // acc = acc * 3 gives a latency-2 recurrence -> II >= 2.
    Program prog;
    Program p2;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const RegId acc = b.iconst(1);
    const BlockId head = b.forLoop(0, 50, 1, [&](RegId) {
        b.mulTo(acc, R(acc), I(3));
        b.binTo(Opcode::AND, acc, R(acc), I(0xffff));
    });
    b.ret({R(acc)});
    (void)p2;
    const BasicBlock &bb = prog.functions[f].blocks[head];
    Machine machine;
    ModuloResult info;
    SchedBlock sb = moduloScheduleLoop(bb, machine, {}, &info);
    ASSERT_TRUE(sb.valid);
    EXPECT_GE(info.recMII, 3); // mul(2) + and(1) cycle
    EXPECT_GE(sb.ii, info.recMII);
    EXPECT_TRUE(validateSchedule(bb, sb, machine).empty());
}

TEST(Modulo, PipeliningBeatsListLength)
{
    // A loop with ILP: II should be well below the schedule length.
    Program prog;
    prog.allocData(1024);
    const BasicBlock &bb = makeLoopBody(prog, [&](IRBuilder &b) {
        const RegId p = b.iconst(0);
        const RegId v0 = b.loadW(R(p), I(0));
        const RegId v1 = b.loadW(R(p), I(4));
        const RegId m0 = b.mul(R(v0), I(3));
        const RegId m1 = b.mul(R(v1), I(5));
        const RegId s = b.add(R(m0), R(m1));
        b.storeW(R(p), I(512), R(s));
    });
    Machine machine;
    SchedBlock sb = moduloScheduleLoop(bb, machine);
    ASSERT_TRUE(sb.valid && sb.pipelined);
    EXPECT_LT(sb.ii, sb.lengthCycles());
    EXPECT_TRUE(validateSchedule(bb, sb, machine).empty());
}

TEST(Modulo, MveFactorFromLongLifetimes)
{
    // load(3) -> mul(2) -> chain with small II: lifetimes exceed II,
    // so the MVE factor (and buffer image) must grow.
    Program prog;
    prog.allocData(1024);
    const BasicBlock &bb = makeLoopBody(prog, [&](IRBuilder &b) {
        const RegId p = b.iconst(0);
        const RegId v = b.loadW(R(p), I(0));
        const RegId m = b.mul(R(v), I(7));
        const RegId s = b.shra(R(m), I(2));
        b.storeW(R(p), I(512), R(s));
    });
    Machine machine;
    SchedBlock sb = moduloScheduleLoop(bb, machine);
    ASSERT_TRUE(sb.valid && sb.pipelined);
    if (sb.ii < 4) {
        EXPECT_GT(sb.mveFactor, 1);
        EXPECT_EQ(sb.imageOps(), sb.sizeOps() * sb.mveFactor);
    }
}

TEST(Modulo, CrossIterationLatencyModuloII)
{
    // Loop-carried true dependence: validator checks distance-1 edges
    // against cycle + II * 1.
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const RegId carry = b.iconst(0);
    const BlockId head = b.forLoop(0, 64, 1, [&](RegId i) {
        const RegId t = b.mul(R(carry), I(3)); // reads last iter's carry
        b.binTo(Opcode::ADD, carry, R(t), R(i));
    });
    b.ret({R(carry)});
    const BasicBlock &bb = prog.functions[f].blocks[head];
    Machine machine;
    SchedBlock sb = moduloScheduleLoop(bb, machine);
    ASSERT_TRUE(sb.valid);
    EXPECT_TRUE(validateSchedule(bb, sb, machine).empty());
    EXPECT_GE(sb.ii, 3);
}

TEST(Modulo, FallbackOnOversubscription)
{
    // An absurd II cap forces failure -> invalid result, caller falls
    // back to list scheduling.
    Program prog;
    prog.allocData(256);
    const BasicBlock &bb = makeLoopBody(prog, [&](IRBuilder &b) {
        const RegId p = b.iconst(0);
        for (int i = 0; i < 6; ++i)
            b.loadW(R(p), I(4 * i));
    });
    Machine machine;
    ModuloOptions opts;
    opts.maxII = 1; // ResMII is 2: cannot succeed
    SchedBlock sb = moduloScheduleLoop(bb, machine, opts);
    EXPECT_FALSE(sb.valid);
}

/** Random loop bodies must always produce valid modulo schedules. */
TEST(Modulo, RandomLoopProperty)
{
    Rng rng(999);
    Machine machine;
    for (int trial = 0; trial < 40; ++trial) {
        Program prog;
        prog.allocData(4096);
        const FuncId f = prog.newFunction("f");
        IRBuilder b(prog, f);
        std::vector<RegId> carried;
        for (int i = 0; i < 3; ++i)
            carried.push_back(b.iconst(i));
        const BlockId head = b.forLoop(0, 32, 1, [&](RegId idx) {
            std::vector<RegId> pool = carried;
            pool.push_back(idx);
            const int n = 3 + static_cast<int>(rng.nextBelow(20));
            for (int i = 0; i < n; ++i) {
                const RegId a = pool[rng.nextBelow(pool.size())];
                const RegId c = pool[rng.nextBelow(pool.size())];
                const double roll = rng.nextDouble();
                if (roll < 0.2) {
                    const RegId addr = b.and_(R(a), I(1023));
                    pool.push_back(b.loadW(R(addr), I(0)));
                } else if (roll < 0.3) {
                    const RegId addr = b.and_(R(a), I(1023));
                    b.storeW(R(addr), I(2048), R(c));
                } else if (roll < 0.45) {
                    pool.push_back(b.mul(R(a), R(c)));
                } else if (roll < 0.6) {
                    // Update a carried register (creates recurrences).
                    const RegId t = carried[rng.nextBelow(3)];
                    b.binTo(Opcode::ADD, t, R(t), R(a));
                } else {
                    pool.push_back(b.xor_(R(a), R(c)));
                }
            }
        });
        b.ret({R(carried[0])});
        const BasicBlock &bb = prog.functions[f].blocks[head];
        ModuloResult info;
        SchedBlock sb = moduloScheduleLoop(bb, machine, {}, &info);
        ASSERT_TRUE(sb.valid) << "trial " << trial;
        EXPECT_GE(sb.ii, info.resMII);
        EXPECT_GE(sb.ii, info.recMII);
        const auto errs = validateSchedule(bb, sb, machine);
        EXPECT_TRUE(errs.empty())
            << "trial " << trial << ": " << errs.front();
    }
}

TEST(Modulo, RegistrySchedulesPinned)
{
    // Every modulo-scheduled block the pipeline emits for the registry
    // at both levels: II, MVE factor, and each op's cycle and slot.
    // The constant was recorded before the worklist became a heap, so
    // it pins the pick order.
    std::vector<std::uint64_t> vals;
    for (const auto &w : workloads::allWorkloads()) {
        for (OptLevel lvl : {OptLevel::Traditional, OptLevel::Aggressive}) {
            CompileOptions opts;
            opts.level = lvl;
            CompileResult cr;
            compileProgram(workloads::buildWorkload(w.name), opts, cr);
            for (const auto &sf : cr.code.functions) {
                for (const auto &sb : sf.blocks) {
                    if (!sb.pipelined)
                        continue;
                    vals.insert(vals.end(),
                                {sf.func, sb.irBlock,
                                 std::uint64_t(sb.ii),
                                 std::uint64_t(sb.mveFactor)});
                    for (size_t c = 0; c < sb.bundles.size(); ++c) {
                        for (const auto &so : sb.opsOf(sb.bundles[c])) {
                            vals.insert(vals.end(),
                                        {so.op.id, c,
                                         std::uint64_t(so.slot)});
                        }
                    }
                }
            }
        }
    }
    ASSERT_FALSE(vals.empty());
    const std::uint64_t digest =
        fnv1a(reinterpret_cast<const std::uint8_t *>(vals.data()),
              vals.size() * sizeof(std::uint64_t));
    EXPECT_EQ(digest, 0xe136bc162d429dd3ull) << std::hex << digest;
}

} // namespace
} // namespace lbp
