/**
 * @file
 * List-scheduler tests: legality (validated against the dependence
 * graph and slot capabilities), resource saturation, and a random-DAG
 * property sweep.
 */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "sched/list_scheduler.hh"
#include "support/random.hh"

namespace lbp
{
namespace
{

auto R = [](RegId r) { return Operand::reg(r); };
auto I = [](std::int64_t v) { return Operand::imm(v); };

TEST(ListScheduler, RespectsLatency)
{
    Program prog;
    prog.allocData(64);
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const RegId p = b.iconst(0);
    const RegId v = b.loadW(R(p), I(0));   // latency 3
    const RegId m = b.mul(R(v), I(2));     // latency 2
    const RegId a = b.add(R(m), I(1));
    b.ret({R(a)});
    const BasicBlock &bb =
        prog.functions[f].blocks[prog.functions[f].entry];
    Machine machine;
    SchedBlock sb = listScheduleBlock(bb, machine);
    EXPECT_TRUE(validateSchedule(bb, sb, machine).empty());
    // Chain length: iconst@0, load@1..., +3 -> mul, +2 -> add, ret.
    EXPECT_GE(sb.lengthCycles(), 1 + 3 + 2 + 1);
}

TEST(ListScheduler, ParallelOpsPack)
{
    // Eight independent adds fit into very few cycles on the 8-wide
    // machine.
    Program prog;
    const FuncId f = prog.newFunction("f");
    Function &fn = prog.functions[f];
    std::vector<RegId> params;
    for (int i = 0; i < 8; ++i)
        params.push_back(fn.newReg());
    fn.params = params;
    IRBuilder b(prog, f);
    std::vector<Operand> outs;
    for (int i = 0; i < 8; ++i)
        outs.push_back(R(b.add(R(params[i]), I(i))));
    b.ret({outs[0]});
    const BasicBlock &bb = fn.blocks[fn.entry];
    Machine machine;
    SchedBlock sb = listScheduleBlock(bb, machine);
    EXPECT_TRUE(validateSchedule(bb, sb, machine).empty());
    EXPECT_LE(sb.lengthCycles(), 3);
}

TEST(ListScheduler, MemUnitsLimitLoads)
{
    // Six independent loads need at least two cycles (3 MEM units).
    Program prog;
    prog.allocData(64);
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const RegId p = b.iconst(0);
    std::vector<RegId> vals;
    for (int i = 0; i < 6; ++i)
        vals.push_back(b.loadW(R(p), I(i * 4)));
    RegId acc = vals[0];
    for (int i = 1; i < 6; ++i)
        acc = b.add(R(acc), R(vals[i]));
    b.ret({R(acc)});
    const BasicBlock &bb =
        prog.functions[f].blocks[prog.functions[f].entry];
    Machine machine;
    SchedBlock sb = listScheduleBlock(bb, machine);
    EXPECT_TRUE(validateSchedule(bb, sb, machine).empty());
    // Count loads per cycle.
    for (const auto &bu : sb.bundles) {
        int loads = 0;
        for (const auto &so : sb.opsOf(bu))
            loads += isLoad(so.op.op);
        EXPECT_LE(loads, 3);
    }
}

TEST(ListScheduler, BranchLast)
{
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const BlockId tgt = b.makeBlock();
    b.at(tgt);
    b.ret({});
    b.at(prog.functions[f].entry);
    const RegId x = b.iconst(1);
    const RegId y = b.add(R(x), I(2));
    b.br(CmpCond::GT, R(y), I(0), tgt);
    b.fallTo(tgt);
    const BasicBlock &bb =
        prog.functions[f].blocks[prog.functions[f].entry];
    Machine machine;
    SchedBlock sb = listScheduleBlock(bb, machine);
    EXPECT_TRUE(validateSchedule(bb, sb, machine).empty());
    // The branch appears in the final bundle.
    bool brInLast = false;
    for (const auto &so : sb.opsOf(sb.bundles.back()))
        brInLast |= so.op.op == Opcode::BR;
    EXPECT_TRUE(brInLast);
}

/** Random straight-line blocks always schedule legally. */
TEST(ListScheduler, RandomDagProperty)
{
    Rng rng(31415);
    Machine machine;
    for (int trial = 0; trial < 50; ++trial) {
        Program prog;
        prog.allocData(1024);
        const FuncId f = prog.newFunction("f");
        IRBuilder b(prog, f);
        std::vector<RegId> pool{b.iconst(1), b.iconst(2)};
        const int n = 5 + static_cast<int>(rng.nextBelow(60));
        for (int i = 0; i < n; ++i) {
            const double roll = rng.nextDouble();
            const RegId a = pool[rng.nextBelow(pool.size())];
            const RegId c = pool[rng.nextBelow(pool.size())];
            if (roll < 0.15) {
                const RegId addr =
                    b.and_(R(a), I(255));
                pool.push_back(b.loadW(R(addr), I(0)));
            } else if (roll < 0.25) {
                const RegId addr = b.and_(R(a), I(255));
                b.storeW(R(addr), I(256), R(c));
            } else if (roll < 0.35) {
                pool.push_back(b.mul(R(a), R(c)));
            } else if (roll < 0.40 && a != 0) {
                pool.push_back(b.div(R(a), I(3)));
            } else {
                pool.push_back(b.add(R(a), R(c)));
            }
        }
        b.ret({R(pool.back())});
        const BasicBlock &bb =
            prog.functions[f].blocks[prog.functions[f].entry];
        SchedBlock sb = listScheduleBlock(bb, machine);
        const auto errs = validateSchedule(bb, sb, machine);
        EXPECT_TRUE(errs.empty())
            << "trial " << trial << ": " << errs.front();
    }
}

TEST(Schedule, LinkAssignsMonotoneAddresses)
{
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId acc = b.iconst(0);
    b.forLoop(0, 4, 1, [&](RegId i) { b.addTo(acc, R(acc), R(i)); });
    b.ret({R(acc)});
    Machine machine;
    SchedProgram code;
    code.ir = &prog;
    code.functions.resize(1);
    code.functions[0].func = f;
    code.functions[0].blocks.resize(prog.functions[f].blocks.size());
    for (const auto &bb : prog.functions[f].blocks) {
        if (!bb.dead) {
            code.functions[0].blocks[bb.id] =
                listScheduleBlock(bb, machine);
        }
    }
    code.link();
    std::int64_t last = -1;
    for (const auto &sb : code.functions[0].blocks) {
        if (!sb.valid)
            continue;
        for (const auto &bu : sb.bundles) {
            EXPECT_GT(bu.addr, last);
            last = bu.addr;
        }
    }
    EXPECT_EQ(code.sizeOps(), prog.functions[f].sizeOps());
}

} // namespace
} // namespace lbp
