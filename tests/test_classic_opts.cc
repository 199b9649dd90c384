/**
 * @file
 * Classic-optimization tests: constant folding, algebraic
 * simplification, copy propagation, dead-code elimination, and
 * semantic preservation on random programs.
 */

#include <gtest/gtest.h>

#include <limits>

#include "ir/builder.hh"
#include "ir/interpreter.hh"
#include "support/random.hh"
#include "transform/classic_opts.hh"

namespace lbp
{
namespace
{

auto R = [](RegId r) { return Operand::reg(r); };
auto I = [](std::int64_t v) { return Operand::imm(v); };

TEST(ClassicOpts, FoldsConstants)
{
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId x = b.add(I(3), I(4));
    const RegId y = b.mul(R(x), I(2));
    b.ret({R(y)});
    auto st = optimizeFunction(prog.functions[f]);
    EXPECT_GT(st.folded + st.propagated, 0);
    Interpreter interp(prog);
    EXPECT_EQ(interp.run().returns[0], 14);
    // After folding+propagation, the ret source is the constant.
    const auto &ops =
        prog.functions[f].blocks[prog.functions[f].entry].ops;
    EXPECT_TRUE(ops.back().srcs[0].isImm());
    EXPECT_EQ(ops.back().srcs[0].value, 14);
}

TEST(ClassicOpts, AlgebraicIdentities)
{
    Program prog;
    const FuncId f = prog.newFunction("main");
    Function &fn = prog.functions[f];
    const RegId p = fn.newReg();
    fn.params = {p};
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId a = b.add(R(p), I(0));
    const RegId m = b.mul(R(a), I(1));
    const RegId s = b.shl(R(m), I(0));
    b.ret({R(s)});
    optimizeFunction(fn);
    // Everything simplifies to ret p.
    const auto &ops = fn.blocks[fn.entry].ops;
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].op, Opcode::RET);
    EXPECT_EQ(ops[0].srcs[0].asReg(), p);
}

TEST(ClassicOpts, DivByZeroNotFolded)
{
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId d = b.div(I(10), I(0)); // would trap; must stay
    b.ret({R(d)});
    auto st = constantFold(prog.functions[f]);
    EXPECT_EQ(st.folded, 0);
}

TEST(ClassicOpts, Int64MinDivByMinusOneFoldsToRuntimeValue)
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId q = b.div(I(kMin), I(-1));
    const RegId r = b.rem(I(kMin), I(-1));
    b.ret({R(q), R(r)});
    const auto runtime = Interpreter(prog).run().returns;
    EXPECT_EQ(runtime, (std::vector<std::int64_t>{kMin, 0}));

    auto st = constantFold(prog.functions[f]);
    EXPECT_EQ(st.folded, 2);
    const auto &ops =
        prog.functions[f].blocks[prog.functions[f].entry].ops;
    ASSERT_EQ(ops[0].op, Opcode::MOV);
    ASSERT_EQ(ops[1].op, Opcode::MOV);
    EXPECT_EQ(ops[0].srcs[0].value, runtime[0]);
    EXPECT_EQ(ops[1].srcs[0].value, runtime[1]);
}

TEST(ClassicOpts, DeadCodeRemoved)
{
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    b.iconst(111); // dead
    b.iconst(222); // dead
    const RegId live = b.iconst(7);
    b.ret({R(live)});
    auto st = deadCodeElim(prog.functions[f]);
    EXPECT_EQ(st.eliminated, 2);
    Interpreter interp(prog);
    EXPECT_EQ(interp.run().returns[0], 7);
}

TEST(ClassicOpts, StoresNeverRemoved)
{
    Program prog;
    prog.allocData(16);
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId p = b.iconst(0);
    b.storeW(R(p), I(0), I(5));
    b.ret({});
    auto st = deadCodeElim(prog.functions[f]);
    EXPECT_EQ(st.eliminated, 0);
}

TEST(ClassicOpts, GuardedWriteDoesNotKill)
{
    // A guarded MOV must not be treated as killing the old value:
    // DCE may not delete the unguarded def feeding around it.
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId x = b.iconst(10);
    const PredId p = b.newPred();
    b.predDef(PredDefKind::UT, p, CmpCond::FALSE_, I(0), I(0));
    Operation g = makeUnary(Opcode::MOV, x, I(99));
    g.guard = p;
    b.emit(g);
    b.ret({R(x)});
    optimizeFunction(prog.functions[f]);
    Interpreter interp(prog);
    EXPECT_EQ(interp.run().returns[0], 10);
}

TEST(ClassicOpts, DeadPredDefRemoved)
{
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const PredId p = b.newPred();
    b.predDef(PredDefKind::UT, p, CmpCond::TRUE_, I(0), I(0));
    b.ret({I(0)});
    auto st = deadCodeElim(prog.functions[f]);
    EXPECT_EQ(st.eliminated, 1);
}

/** Property: optimization preserves semantics on random programs. */
TEST(ClassicOpts, RandomProgramEquivalence)
{
    Rng rng(2024);
    for (int trial = 0; trial < 30; ++trial) {
        Program prog;
        const auto mem = prog.allocData(256);
        prog.checksumBase = mem;
        prog.checksumSize = 256;
        const FuncId f = prog.newFunction("main");
        prog.entryFunc = f;
        IRBuilder b(prog, f);
        std::vector<RegId> pool;
        for (int i = 0; i < 4; ++i)
            pool.push_back(b.iconst(rng.nextRange(-50, 50)));
        const int n = 5 + static_cast<int>(rng.nextBelow(25));
        for (int i = 0; i < n; ++i) {
            const RegId a = pool[rng.nextBelow(pool.size())];
            const Operand src2 =
                rng.chance(0.5)
                    ? Operand::reg(pool[rng.nextBelow(pool.size())])
                    : Operand::imm(rng.nextRange(-9, 9));
            const Opcode ops[] = {Opcode::ADD, Opcode::SUB,
                                  Opcode::MUL, Opcode::AND,
                                  Opcode::OR, Opcode::XOR,
                                  Opcode::MIN, Opcode::MAX};
            const Opcode oc = ops[rng.nextBelow(8)];
            pool.push_back(b.add(Operand::reg(a), src2));
            pool.back() = pool.back(); // keep result in the pool
            // Replace the op we just built with the random opcode.
            auto &blk =
                prog.functions[f].blocks[b.current()];
            blk.ops.back().op = oc;
        }
        // Store a couple of results so they're observable.
        const RegId base = b.iconst(0);
        b.storeW(Operand::reg(base), Operand::imm(0),
                 Operand::reg(pool.back()));
        b.storeW(Operand::reg(base), Operand::imm(4),
                 Operand::reg(pool[pool.size() / 2]));
        b.ret({});

        Interpreter pre(prog);
        const auto before = pre.run();
        optimizeProgram(prog);
        Interpreter post(prog);
        const auto after = post.run();
        EXPECT_EQ(before.checksum, after.checksum)
            << "trial " << trial;
        EXPECT_LE(after.dynOps, before.dynOps);
    }
}

} // namespace
} // namespace lbp
