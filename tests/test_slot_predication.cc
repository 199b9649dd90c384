/**
 * @file
 * Slot-based predication lowering tests (paper §4.2): sensitivity
 * bits, slot-routed defines, clone insertion for wide consumer sets,
 * interval-conflict rejection, and execution equivalence between the
 * register and slot micro-architectures.
 */

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "core/slot_predication.hh"
#include "ir/builder.hh"
#include "sim/vliw_sim.hh"
#include "workloads/input_data.hh"

namespace lbp
{
namespace
{

auto R = [](RegId r) { return Operand::reg(r); };
auto I = [](std::int64_t v) { return Operand::imm(v); };

/** A diamond loop program compiled to the aggressive pipeline. */
void
compileDiamond(CompileResult &cr, bool slotLowering)
{
    Program prog;
    const auto data = prog.allocData(128 * 4);
    for (int i = 0; i < 128; ++i)
        prog.poke32(data + 4 * i, (i * 29) % 17 - 8);
    prog.checksumBase = data;
    prog.checksumSize = 128 * 4;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId dp = b.iconst(data);
    const RegId acc = b.iconst(0);
    b.forLoop(0, 128, 1, [&](RegId i) {
        const RegId i4 = b.shl(R(i), I(2));
        const RegId v = b.loadW(R(dp), R(i4));
        workloads::diamond(b, CmpCond::LT, R(v), I(0),
                           [&] { b.subTo(acc, R(acc), R(v)); },
                           [&] { b.addTo(acc, R(acc), R(v)); });
        b.storeW(R(dp), R(i4), R(acc));
    });
    b.ret({R(acc)});

    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    opts.slotLowering = slotLowering;
    compileProgram(prog, opts, cr);
}

TEST(SlotPred, LoweringRewritesDefinesToSlots)
{
    CompileResult cr;
    compileDiamond(cr, true);
    EXPECT_GE(cr.slotStats.blocksLowered, 1);
    EXPECT_GE(cr.slotStats.definesRewritten, 1);
    EXPECT_GT(cr.slotStats.sensitiveOps, 0);

    // Every lowered define's destinations are slots (or register
    // copies for escaping predicates).
    bool sawSlotDest = false;
    for (const auto &sf : cr.code.functions) {
        for (const auto &sb : sf.blocks) {
            if (!sb.valid || !sb.isLoopBody)
                continue;
            for (const auto &so : sb.ops) {
                if (so.op.op != Opcode::PRED_DEF)
                    continue;
                for (const auto &d : so.op.dsts)
                    sawSlotDest |= d.isSlot();
            }
        }
    }
    EXPECT_TRUE(sawSlotDest);
}

TEST(SlotPred, SlotDestinationsMatchConsumerSlots)
{
    CompileResult cr;
    compileDiamond(cr, true);
    // In each lowered body: the set of slots named by defines must
    // cover the slots of all sensitive consumers.
    for (const auto &sf : cr.code.functions) {
        for (const auto &sb : sf.blocks) {
            if (!sb.valid || !sb.isLoopBody)
                continue;
            std::set<int> defined, consumed;
            for (const auto &so : sb.ops) {
                if (so.op.op == Opcode::PRED_DEF) {
                    for (const auto &d : so.op.dsts)
                        if (d.isSlot())
                            defined.insert(d.asSlot());
                }
                if (so.op.sensitive)
                    consumed.insert(so.slot);
            }
            for (int s : consumed)
                EXPECT_TRUE(defined.count(s))
                    << "slot " << s << " consumed but never driven";
        }
    }
}

TEST(SlotPred, RegisterAndSlotModesAgree)
{
    // Each predication micro-architecture simulates the code compiled
    // for it (slot-routed defines bypass the register file, so
    // REGISTER mode pairs with an unlowered compilation).
    CompileResult crReg, crSlot;
    compileDiamond(crReg, false);
    compileDiamond(crSlot, true);
    EXPECT_EQ(crReg.goldenChecksum, crSlot.goldenChecksum);
    SimConfig reg;
    reg.predMode = PredMode::REGISTER;
    SimConfig slot;
    slot.predMode = PredMode::SLOT;
    VliwSim simReg(crReg.code, reg);
    VliwSim simSlot(crSlot.code, slot);
    const auto a = simReg.run();
    const auto b = simSlot.run();
    EXPECT_EQ(a.checksum, crReg.goldenChecksum);
    EXPECT_EQ(b.checksum, crSlot.goldenChecksum);
    EXPECT_EQ(a.returns, b.returns);
    EXPECT_GT(b.opsSensitive, 0u);
    EXPECT_EQ(a.opsSensitive, 0u);
}

TEST(SlotPred, AllWorkloadLoweringMostlySucceeds)
{
    // The paper's claim: intervention is "largely unnecessary".
    CompileResult cr;
    compileDiamond(cr, true);
    const auto &s = cr.slotStats;
    EXPECT_EQ(s.blocksFailedConflict + s.blocksFailedCapacity, 0);
}

TEST(SlotPred, CloneInsertedForManyConsumerSlots)
{
    // Construct a scheduled block by hand: one predicate guarded by
    // ops in 5 different slots; one define must be cloned (2 slots
    // per define, so 5 slots need 3 defines).
    Program prog;
    const FuncId f = prog.newFunction("f");
    Function &fn = prog.functions[f];
    IRBuilder b(prog, f);
    const PredId p = b.newPred();
    b.predDef(PredDefKind::UT, p, CmpCond::TRUE_, I(0), I(0));
    std::vector<RegId> regs;
    for (int i = 0; i < 5; ++i) {
        Operation op = makeBinary(Opcode::ADD, fn.newReg(), I(1),
                                  I(2));
        op.guard = p;
        b.emit(op);
    }
    b.ret({});
    BasicBlock &bb = fn.blocks[fn.entry];

    // Hand-build a schedule: define at cycle 0 slot 4; consumers at
    // cycle 1, slots 0..4 -- five distinct slots.
    SchedBlock sb;
    sb.irBlock = bb.id;
    sb.valid = true;
    sb.isLoopBody = true;
    sb.bundles.resize(2);
    sb.addOp(0, {bb.ops[0], 4});
    for (int i = 0; i < 5; ++i)
        sb.addOp(1, {bb.ops[1 + i], i});

    Machine machine;
    SlotLoweringStats stats;
    const bool ok = lowerBlockToSlots(bb, sb, machine, {}, stats);
    EXPECT_TRUE(ok);
    EXPECT_GE(stats.definesCloned, 2);
    // All five consumer slots must now be driven.
    std::set<int> defined;
    for (const auto &so : sb.ops)
        if (so.op.op == Opcode::PRED_DEF)
                for (const auto &d : so.op.dsts)
                    if (d.isSlot())
                        defined.insert(d.asSlot());
    for (int s = 0; s < 5; ++s)
        EXPECT_TRUE(defined.count(s));
}

TEST(SlotPred, OverlappingLiveRangesRejected)
{
    // Two different predicates consumed in the same slot with
    // overlapping [define, lastUse] ranges: lowering must fail and
    // the block stays on register predication.
    Program prog;
    const FuncId f = prog.newFunction("f");
    Function &fn = prog.functions[f];
    IRBuilder b(prog, f);
    const PredId p1 = b.newPred();
    const PredId p2 = b.newPred();
    b.predDef(PredDefKind::UT, p1, CmpCond::TRUE_, I(0), I(0)); // 0
    b.predDef(PredDefKind::UT, p2, CmpCond::FALSE_, I(0), I(0)); // 1
    Operation u1 = makeBinary(Opcode::ADD, fn.newReg(), I(1), I(1));
    u1.guard = p1;
    b.emit(u1); // 2
    Operation u2 = makeBinary(Opcode::ADD, fn.newReg(), I(2), I(2));
    u2.guard = p2;
    b.emit(u2); // 3
    Operation u3 = makeBinary(Opcode::ADD, fn.newReg(), I(3), I(3));
    u3.guard = p1;
    b.emit(u3); // 4 (re-use of p1 after p2's range opened)
    b.ret({});
    BasicBlock &bb = fn.blocks[fn.entry];

    SchedBlock sb;
    sb.irBlock = bb.id;
    sb.valid = true;
    sb.bundles.resize(3);
    sb.addOp(0, {bb.ops[0], 4});
    sb.addOp(0, {bb.ops[1], 5});
    // All consumers forced into slot 2: p1's in cycles 1 and 2, and
    // p2's in cycle 2 (two in one slot and cycle would itself be
    // illegal), so p1 and p2 both hold slot 2 over cycles 0..2.
    sb.addOp(1, {bb.ops[2], 2});
    sb.addOp(2, {bb.ops[4], 2});
    sb.addOp(2, {bb.ops[3], 2});

    Machine machine;
    SlotLoweringStats stats;
    const bool ok = lowerBlockToSlots(bb, sb, machine, {}, stats);
    EXPECT_FALSE(ok);
    EXPECT_GE(stats.blocksFailedConflict, 1);
}

} // namespace
} // namespace lbp
