/**
 * @file
 * IR structural tests: operands, operations, blocks, functions,
 * programs, builder, printer, and verifier.
 */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "ir/printer.hh"
#include "ir/semantics.hh"
#include "ir/verifier.hh"

namespace lbp
{
namespace
{

TEST(Operand, Constructors)
{
    EXPECT_TRUE(Operand::reg(5).isReg());
    EXPECT_EQ(Operand::reg(5).asReg(), 5u);
    EXPECT_TRUE(Operand::imm(-3).isImm());
    EXPECT_EQ(Operand::imm(-3).value, -3);
    EXPECT_TRUE(Operand::pred(2).isPred());
    EXPECT_TRUE(Operand::slot(7).isSlot());
    EXPECT_EQ(Operand::slot(7).asSlot(), 7);
    EXPECT_TRUE(Operand().isNone());
}

TEST(Opcode, Classification)
{
    EXPECT_TRUE(isBranch(Opcode::BR));
    EXPECT_TRUE(isBranch(Opcode::BR_CLOOP));
    EXPECT_FALSE(isBranch(Opcode::REC_CLOOP));
    EXPECT_TRUE(isControl(Opcode::REC_CLOOP));
    EXPECT_TRUE(isBufferOp(Opcode::EXEC_WLOOP));
    EXPECT_TRUE(isLoad(Opcode::LD_H));
    EXPECT_TRUE(isStore(Opcode::ST_W));
    EXPECT_FALSE(isLoad(Opcode::ST_B));
}

TEST(Opcode, UnitClasses)
{
    EXPECT_EQ(unitClassOf(Opcode::ADD), UnitClass::IALU);
    EXPECT_EQ(unitClassOf(Opcode::MUL), UnitClass::IMUL);
    EXPECT_EQ(unitClassOf(Opcode::LD_W), UnitClass::MEM);
    EXPECT_EQ(unitClassOf(Opcode::BR), UnitClass::BR);
    EXPECT_EQ(unitClassOf(Opcode::PRED_DEF), UnitClass::PRED);
    EXPECT_EQ(unitClassOf(Opcode::FMUL), UnitClass::FPU);
}

TEST(Opcode, PaperLatencies)
{
    // Paper section 7: arithmetic 1, multiply 2, divide 8, load 3,
    // FP arithmetic 2.
    EXPECT_EQ(latencyOf(Opcode::ADD), 1);
    EXPECT_EQ(latencyOf(Opcode::MUL), 2);
    EXPECT_EQ(latencyOf(Opcode::DIV), 8);
    EXPECT_EQ(latencyOf(Opcode::LD_W), 3);
    EXPECT_EQ(latencyOf(Opcode::FADD), 2);
}

TEST(Opcode, CondEvalAndNegation)
{
    EXPECT_TRUE(evalCond(CmpCond::LT, -1, 0));
    EXPECT_FALSE(evalCond(CmpCond::LTU, -1, 0)); // unsigned
    EXPECT_TRUE(evalCond(CmpCond::TRUE_, 0, 0));
    EXPECT_FALSE(evalCond(CmpCond::FALSE_, 1, 1));
    for (CmpCond c : {CmpCond::EQ, CmpCond::NE, CmpCond::LT,
                      CmpCond::LE, CmpCond::GT, CmpCond::GE,
                      CmpCond::LTU, CmpCond::GEU}) {
        for (std::int64_t a : {-5, 0, 5}) {
            for (std::int64_t b : {-5, 0, 5}) {
                EXPECT_NE(evalCond(c, a, b),
                          evalCond(negateCond(c), a, b));
            }
        }
    }
}

TEST(Operation, ReadsWrites)
{
    Operation op = makeBinary(Opcode::ADD, 3, Operand::reg(1),
                              Operand::imm(4));
    EXPECT_TRUE(op.writesReg(3));
    EXPECT_FALSE(op.writesReg(1));
    EXPECT_TRUE(op.readsReg(1));
    EXPECT_FALSE(op.readsReg(3));
    EXPECT_EQ(op.numRegSrcs(), 1);
}

TEST(Function, BlocksAndRpo)
{
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const BlockId b1 = b.makeBlock();
    const BlockId b2 = b.makeBlock();
    b.br(CmpCond::EQ, Operand::imm(0), Operand::imm(0), b2);
    b.fallTo(b1);
    b.at(b1);
    b.jump(b2);
    b.at(b2);
    b.ret({});

    Function &fn = prog.functions[f];
    auto rpo = fn.reversePostorder();
    ASSERT_GE(rpo.size(), 3u);
    EXPECT_EQ(rpo.front(), fn.entry);
    // b2 must come after b1 (b1 -> b2 edge).
    size_t i1 = 99, i2 = 99;
    for (size_t i = 0; i < rpo.size(); ++i) {
        if (rpo[i] == b1)
            i1 = i;
        if (rpo[i] == b2)
            i2 = i;
    }
    EXPECT_LT(i1, i2);
}

TEST(Function, PruneUnreachable)
{
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const BlockId dead = b.makeBlock("island");
    b.at(dead);
    b.ret({});
    b.at(prog.functions[f].entry);
    b.ret({});
    EXPECT_EQ(prog.functions[f].pruneUnreachable(), 1);
    EXPECT_TRUE(prog.functions[f].blocks[dead].dead);
}

TEST(Program, DataAllocationAlignment)
{
    Program prog;
    const auto a = prog.allocData(3, 8);
    const auto b = prog.allocData(10, 8);
    EXPECT_EQ(a % 8, 0);
    EXPECT_EQ(b % 8, 0);
    EXPECT_GE(b, a + 3);
    prog.poke32(b, 0x12345678);
    EXPECT_EQ(prog.peek32(b), 0x12345678);
    prog.poke32(b, -7);
    EXPECT_EQ(prog.peek32(b), -7);
}

TEST(Builder, ForLoopShape)
{
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const BlockId head = b.forLoop(0, 10, 1, [&](RegId i) {
        b.add(Operand::reg(i), Operand::imm(1));
    });
    b.ret({});
    Function &fn = prog.functions[f];
    const Operation *term = fn.blocks[head].terminator();
    ASSERT_NE(term, nullptr);
    EXPECT_EQ(term->op, Opcode::BR);
    EXPECT_EQ(term->target, head);
    EXPECT_TRUE(verify(fn).empty());
}

TEST(Builder, GuardApplied)
{
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const PredId p = b.newPred();
    b.setGuard(p);
    b.iconst(5);
    b.clearGuard();
    b.iconst(6);
    b.ret({});
    const auto &ops = prog.functions[f].blocks[prog.functions[f].entry].ops;
    EXPECT_EQ(ops[0].guard, p);
    EXPECT_EQ(ops[1].guard, kNoPred);
}

TEST(Printer, RoundTripContainsPieces)
{
    Operation op = makeBinary(Opcode::ADD, 3, Operand::reg(1),
                              Operand::imm(4));
    op.guard = 2;
    const std::string s = toString(op);
    EXPECT_NE(s.find("(p2)"), std::string::npos);
    EXPECT_NE(s.find("add"), std::string::npos);
    EXPECT_NE(s.find("r3"), std::string::npos);
}

TEST(Verifier, CatchesBadArity)
{
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    b.ret({});
    Function &fn = prog.functions[f];
    Operation bad;
    bad.op = Opcode::ADD;
    bad.dsts = {Operand::reg(1)};
    bad.srcs = {Operand::imm(1)}; // missing second source
    fn.blocks[fn.entry].ops.insert(fn.blocks[fn.entry].ops.begin(),
                                   bad);
    EXPECT_FALSE(verify(fn).empty());
}

TEST(Verifier, CatchesDanglingFallthrough)
{
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    b.iconst(1); // no terminator, no fallthrough
    EXPECT_FALSE(verify(prog.functions[f]).empty());
}

TEST(Verifier, MidBlockBranchOnlyInHyperblocks)
{
    Program prog;
    const FuncId f = prog.newFunction("f");
    IRBuilder b(prog, f);
    const BlockId tgt = b.makeBlock();
    b.at(tgt);
    b.ret({});
    Function &fn = prog.functions[f];
    b.at(fn.entry);
    b.jump(tgt);           // unguarded jump...
    b.iconst(1);           // ...with code after it
    b.ret({});
    EXPECT_FALSE(verify(fn).empty());
    fn.blocks[fn.entry].isHyperblock = true;
    // Hyperblocks allow internal (guarded) control; the unguarded
    // jump is tolerated under allowInternalBranches semantics.
    VerifyOptions opts;
    opts.allowInternalBranches = true;
    EXPECT_TRUE(verify(fn, opts).empty());
}

} // namespace
} // namespace lbp
