/**
 * @file
 * Interpreter tests: ALU semantics, memory, guards, the full Table-2
 * predicate-define truth table (exhaustive and parameterized),
 * hardware-loop contexts, calls, and speculative load semantics.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/compiler.hh"
#include "ir/builder.hh"
#include "ir/interpreter.hh"
#include "ir/semantics.hh"
#include "profile/profile.hh"
#include "workloads/registry.hh"

namespace lbp
{
namespace
{

/** Run a single-function program and return its first return value. */
std::int64_t
runReturn(Program &prog)
{
    Interpreter interp(prog);
    auto r = interp.run();
    EXPECT_FALSE(r.returns.empty());
    return r.returns.empty() ? 0 : r.returns[0];
}

TEST(Interp, AluBasics)
{
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    auto I = [](std::int64_t v) { return Operand::imm(v); };
    const RegId a = b.add(I(40), I(2));
    const RegId m = b.mul(Operand::reg(a), I(-3));
    const RegId s = b.shra(Operand::reg(m), I(1));
    b.ret({Operand::reg(s)});
    EXPECT_EQ(runReturn(prog), -63);
}

TEST(Interp, SaturatingArithmetic)
{
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    auto I = [](std::int64_t v) { return Operand::imm(v); };
    const RegId x = b.satadd(I(30000), I(10000));
    const RegId y = b.satsub(I(-30000), I(10000));
    const RegId sum = b.add(Operand::reg(x), Operand::reg(y));
    b.ret({Operand::reg(sum)});
    EXPECT_EQ(runReturn(prog), 32767 - 32768);
}

TEST(Interp, MemoryByteHalfWord)
{
    Program prog;
    const auto base = prog.allocData(16);
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    auto I = [](std::int64_t v) { return Operand::imm(v); };
    const RegId p = b.iconst(base);
    b.storeW(Operand::reg(p), I(0), I(-2));
    const RegId w = b.loadW(Operand::reg(p), I(0));
    const RegId h = b.loadH(Operand::reg(p), I(0));
    const RegId by = b.loadB(Operand::reg(p), I(0));
    const RegId s1 = b.add(Operand::reg(w), Operand::reg(h));
    const RegId s2 = b.add(Operand::reg(s1), Operand::reg(by));
    b.ret({Operand::reg(s2)});
    EXPECT_EQ(runReturn(prog), -2 + -2 + -2);

    // Width edges: loads sign-extend from their top bit, stores keep
    // only their low bytes — in the codec and through the ops.
    const std::uint8_t b80[] = {0x80, 0x00, 0x00, 0x00};
    const std::uint8_t h8000[] = {0x00, 0x80, 0x00, 0x00};
    EXPECT_EQ(loadValue(Opcode::LD_B, b80), -128);
    EXPECT_EQ(loadValue(Opcode::LD_H, h8000), -32768);
    std::uint8_t buf[3] = {0xaa, 0xaa, 0xaa};
    storeValue(Opcode::ST_H, buf, 0x123456789abcdef0LL);
    EXPECT_EQ(buf[0], 0xf0);
    EXPECT_EQ(buf[1], 0xde);
    EXPECT_EQ(buf[2], 0xaa);
    Program edges;
    const auto eb = edges.allocData(8);
    const FuncId ef = edges.newFunction("main");
    edges.entryFunc = ef;
    IRBuilder e(edges, ef);
    const Operand ep = Operand::reg(e.iconst(eb));
    e.storeB(ep, I(0), I(0x180));
    e.storeH(ep, I(2), I(0x18000));
    const RegId lb = e.loadB(ep, I(0));
    const RegId next = e.loadB(ep, I(1));
    const RegId lh = e.loadH(ep, I(2));
    e.ret({Operand::reg(lb), Operand::reg(next), Operand::reg(lh)});
    EXPECT_EQ(Interpreter(edges).run().returns,
              (std::vector<std::int64_t>{-128, 0, -32768}));
}

TEST(Interp, GuardNullifies)
{
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    auto I = [](std::int64_t v) { return Operand::imm(v); };
    const RegId x = b.iconst(10);
    const PredId p = b.newPred();
    b.predDef(PredDefKind::UT, p, CmpCond::FALSE_, I(0), I(0));
    Operation guarded = makeUnary(Opcode::MOV, x, I(99));
    guarded.guard = p;
    b.emit(guarded);
    b.ret({Operand::reg(x)});
    Interpreter interp(prog);
    auto r = interp.run();
    EXPECT_EQ(r.returns[0], 10);
    EXPECT_EQ(r.dynNullified, 1u);
}

// ---- Table 2: exhaustive truth-table check ----
// For each define kind and each (guard, cond) combination, the
// destination must match the paper's table, including "no update".
struct Table2Case
{
    PredDefKind kind;
    bool guard;
    bool cond;
    /** Fills the padding byte: gtest prints every byte of a case in
     *  the test's name, so an uninitialized one made names vary. */
    bool pad = false;
    int expect; // -1 = no update (stays at sentinel)
};

class Table2Test : public ::testing::TestWithParam<Table2Case>
{
};

TEST_P(Table2Test, Semantics)
{
    const Table2Case tc = GetParam();
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    auto I = [](std::int64_t v) { return Operand::imm(v); };

    const PredId guard = b.newPred();
    const PredId dst = b.newPred();
    const PredId probeSentinel = b.newPred();

    // Set up guard value.
    b.predDef(PredDefKind::UT, guard,
              tc.guard ? CmpCond::TRUE_ : CmpCond::FALSE_, I(0), I(0));
    // Seed destination with a sentinel that survives "no update":
    // set dst = 1 via an unguarded define, so a 0-write is visible,
    // and track whether an update happened via value changes from
    // both sentinel polarities.
    // Sentinel A: dst starts at 1.
    b.predDef(PredDefKind::UT, dst, CmpCond::TRUE_, I(0), I(0));
    Operation d1 = makePredDef(tc.kind, dst, PredDefKind::NONE, 0,
                               tc.cond ? CmpCond::TRUE_
                                       : CmpCond::FALSE_,
                               I(0), I(0));
    d1.guard = guard;
    b.emit(d1);
    const RegId after1 = b.mov(Operand::pred(dst));

    // Sentinel B: dst starts at 0.
    b.predDef(PredDefKind::UT, dst, CmpCond::FALSE_, I(0), I(0));
    Operation d2 = makePredDef(tc.kind, dst, PredDefKind::NONE, 0,
                               tc.cond ? CmpCond::TRUE_
                                       : CmpCond::FALSE_,
                               I(0), I(0));
    d2.guard = guard;
    b.emit(d2);
    const RegId after0 = b.mov(Operand::pred(dst));
    (void)probeSentinel;

    // ret two observations.
    b.ret({Operand::reg(after1), Operand::reg(after0)});
    Interpreter interp(prog);
    auto r = interp.run();
    // The shared truth table the interpreter just executed.
    EXPECT_EQ(predDefWrite(tc.kind, tc.guard, tc.cond), tc.expect);
    ASSERT_EQ(r.returns.size(), 2u);
    if (tc.expect < 0) {
        // No update: both sentinels survive.
        EXPECT_EQ(r.returns[0], 1);
        EXPECT_EQ(r.returns[1], 0);
    } else {
        EXPECT_EQ(r.returns[0], tc.expect);
        EXPECT_EQ(r.returns[1], tc.expect);
    }
}

std::vector<Table2Case>
table2Cases()
{
    using K = PredDefKind;
    std::vector<Table2Case> cases;
    // Row order: (guard, cond) in {(0,0),(0,1),(1,0),(1,1)} per the
    // paper's Table 2.
    struct Row { K k; int v[4]; };
    const Row rows[] = {
        {K::UT, {0, 0, 0, 1}},
        {K::UF, {0, 0, 1, 0}},
        {K::OT, {-1, -1, -1, 1}},
        {K::OF, {-1, -1, 1, -1}},
        {K::AT, {-1, -1, 0, -1}},
        {K::AF, {-1, -1, -1, 0}},
        {K::CT, {-1, -1, 0, 1}},
        {K::CF, {-1, -1, 1, 0}},
    };
    for (const Row &row : rows) {
        int i = 0;
        for (bool g : {false, true}) {
            for (bool c : {false, true}) {
                cases.push_back({row.k, g, c, false, row.v[i]});
                ++i;
            }
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, Table2Test,
                         ::testing::ValuesIn(table2Cases()));

/** A program whose main(x, y) returns @p op applied to its params. */
Program
aluProgram(Opcode opc, CmpCond cond, bool unary)
{
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    Function &fn = prog.functions[f];
    const RegId x = fn.newReg(), y = fn.newReg();
    fn.params = {x, y};
    fn.numReturns = 1;
    IRBuilder b(prog, f);
    const RegId d = prog.functions[f].newReg();
    b.emit(unary ? makeUnary(opc, d, Operand::reg(x))
           : opc == Opcode::CMP
               ? makeCmp(d, cond, Operand::reg(x), Operand::reg(y))
               : makeBinary(opc, d, Operand::reg(x), Operand::reg(y)));
    b.ret({Operand::reg(d)});
    return prog;
}

TEST(Interp, EveryAluOpcodeMatchesSemantics)
{
    // Each opcode has its own case in the interpreter's dispatch; a
    // missing one would reach the default panic, and a wrong one
    // would disagree with ir/semantics.hh on some input.
    const std::int64_t kMin = INT64_MIN, kMax = INT64_MAX;
    const std::vector<std::int64_t> ints = {
        0, 1, -1, 2, 7, -13, 63, 64, 65, 100, 32767, -32768, 40000,
        kMin, kMax, asBits(1.5), asBits(-2.25)};
    const Opcode binary[] = {
        Opcode::ADD, Opcode::SUB, Opcode::MUL, Opcode::DIV, Opcode::REM,
        Opcode::AND, Opcode::OR, Opcode::XOR, Opcode::SHL, Opcode::SHR,
        Opcode::SHRA, Opcode::MIN, Opcode::MAX, Opcode::SATADD,
        Opcode::SATSUB, Opcode::FADD, Opcode::FSUB, Opcode::FMUL,
        Opcode::FDIV};
    auto check = [&](Opcode opc, CmpCond cond, std::int64_t a,
                     std::int64_t c) {
        Program prog = aluProgram(opc, cond, false);
        const ExecResult r = Interpreter(prog).run({a, c});
        ASSERT_EQ(r.returns.size(), 1u);
        EXPECT_EQ(r.returns[0], evalBinary(opc, cond, a, c))
            << opcodeName(opc) << " " << condName(cond) << " " << a
            << ", " << c;
    };
    for (Opcode opc : binary) {
        for (std::int64_t a : ints) {
            for (std::int64_t c : ints) {
                // A zero divisor is a fault, not a value.
                if ((opc == Opcode::DIV || opc == Opcode::REM) && c == 0)
                    continue;
                check(opc, CmpCond::EQ, a, c);
            }
        }
    }
    for (int k = 0; k <= static_cast<int>(CmpCond::FALSE_); ++k) {
        for (std::int64_t a : ints)
            for (std::int64_t c : ints)
                check(Opcode::CMP, static_cast<CmpCond>(k), a, c);
    }
    // FTOI's double must fit an int64 (converting NaN or a huge value
    // is undefined), so it gets inputs of its own.
    const std::vector<std::int64_t> doubles = {
        asBits(0.0), asBits(1.5), asBits(-2.25), asBits(1e6),
        asBits(-9.0e18)};
    for (Opcode opc : {Opcode::MOV, Opcode::ABS, Opcode::ITOF,
                       Opcode::FTOI}) {
        Program prog = aluProgram(opc, CmpCond::EQ, true);
        for (std::int64_t a : opc == Opcode::FTOI ? doubles : ints) {
            EXPECT_EQ(Interpreter(prog).run({a, 0}).returns,
                      (std::vector<std::int64_t>{evalUnary(opc, a)}))
                << opcodeName(opc) << " " << a;
        }
    }
    // The cases the ISA defines specially, by value.
    EXPECT_EQ(evalBinary(Opcode::DIV, CmpCond::EQ, kMin, -1), kMin);
    EXPECT_EQ(evalBinary(Opcode::REM, CmpCond::EQ, kMin, -1), 0);
    EXPECT_EQ(evalBinary(Opcode::SHL, CmpCond::EQ, 1, 65), 2);
    // Two NaNs of different payloads give the one canonical NaN.
    EXPECT_EQ(evalBinary(Opcode::FADD, CmpCond::EQ, -1, -13),
              kCanonicalNaN);
    EXPECT_EQ(evalBinary(Opcode::FADD, CmpCond::EQ, -13, -1),
              kCanonicalNaN);
}

TEST(Interp, FalseGuardPredDefStillWrites)
{
    // A PRED_DEF's guard is an input to the define (Table 2), not a
    // nullification condition: with the guard false, UT and UF both
    // write 0, OT leaves its destination alone, and the op is not
    // counted as nullified.
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    auto I = [](std::int64_t v) { return Operand::imm(v); };
    const PredId g = b.newPred(), ut = b.newPred(), uf = b.newPred();
    const PredId ot = b.newPred();
    b.predDef(PredDefKind::UT, g, CmpCond::FALSE_, I(0), I(0));
    for (PredId p : {ut, uf, ot})
        b.predDef(PredDefKind::UT, p, CmpCond::TRUE_, I(0), I(0));
    Operation both = makePredDef(PredDefKind::UT, ut, PredDefKind::UF, uf,
                                 CmpCond::EQ, I(3), I(3));
    both.guard = g;
    b.emit(both);
    Operation keep = makePredDef(PredDefKind::OT, ot, PredDefKind::NONE,
                                 0, CmpCond::EQ, I(3), I(3));
    keep.guard = g;
    b.emit(keep);
    b.ret({Operand::pred(ut), Operand::pred(uf), Operand::pred(ot)});
    const ExecResult r = Interpreter(prog).run();
    EXPECT_EQ(r.returns, (std::vector<std::int64_t>{0, 0, 1}));
    EXPECT_EQ(r.dynNullified, 0u);
}

TEST(Interp, OrTypeAccumulates)
{
    // p = (x > 3) || (x < 0), computed IMPACT-style.
    for (std::int64_t x : {-2, 0, 2, 5}) {
        Program prog;
        const FuncId f = prog.newFunction("main");
        prog.entryFunc = f;
        IRBuilder b(prog, f);
        auto I = [](std::int64_t v) { return Operand::imm(v); };
        const PredId p = b.newPred();
        b.predDef(PredDefKind::UT, p, CmpCond::GT, I(x), I(3));
        b.predDef(PredDefKind::OT, p, CmpCond::LT, I(x), I(0));
        b.ret({Operand::pred(p)});
        const bool expect = x > 3 || x < 0;
        EXPECT_EQ(runReturn(prog), expect ? 1 : 0) << "x=" << x;
    }
}

TEST(Interp, CountedLoopContext)
{
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    auto I = [](std::int64_t v) { return Operand::imm(v); };
    const RegId acc = b.iconst(0);

    const BlockId body = b.makeBlock("body");
    Operation rec;
    rec.op = Opcode::REC_CLOOP;
    rec.srcs = {I(7)};
    rec.target = body;
    b.emit(std::move(rec));
    b.fallTo(body);
    b.at(body);
    b.addTo(acc, Operand::reg(acc), I(3));
    Operation back;
    back.op = Opcode::BR_CLOOP;
    back.target = body;
    b.emit(std::move(back));
    const BlockId after = b.makeBlock();
    b.fallTo(after);
    b.at(after);
    b.ret({Operand::reg(acc)});
    EXPECT_EQ(runReturn(prog), 21);
}

TEST(Interp, ExecCloopReusesBufferedLoop)
{
    // A loop body recorded once and re-entered via EXEC_CLOOP from a
    // different location, procedure-call style (section 5).
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    auto I = [](std::int64_t v) { return Operand::imm(v); };
    const RegId acc = b.iconst(0);

    const BlockId body = b.makeBlock("body");
    const BlockId cont = b.makeBlock("cont");
    const BlockId tail = b.makeBlock("tail");
    Operation rec;
    rec.op = Opcode::REC_CLOOP;
    rec.srcs = {I(4)};
    rec.target = body;
    b.emit(std::move(rec));
    b.fallTo(body);
    b.at(body);
    b.addTo(acc, Operand::reg(acc), I(5));
    Operation back;
    back.op = Opcode::BR_CLOOP;
    back.target = body;
    b.emit(std::move(back));
    b.fallTo(cont);
    b.at(cont);
    // Execute the same loop again, 3 more times, from here.
    Operation ex;
    ex.op = Opcode::EXEC_CLOOP;
    ex.srcs = {I(3)};
    ex.target = body;
    b.emit(std::move(ex));
    b.fallTo(tail);
    b.at(tail);
    b.ret({Operand::reg(acc)});
    EXPECT_EQ(runReturn(prog), 5 * 7);
}

TEST(Interp, CallsAndReturns)
{
    Program prog;
    const FuncId callee = prog.newFunction("sq");
    {
        Function &fn = prog.functions[callee];
        const RegId x = fn.newReg();
        fn.params = {x};
        fn.numReturns = 1;
        IRBuilder b(prog, callee);
        const RegId r = b.mul(Operand::reg(x), Operand::reg(x));
        b.ret({Operand::reg(r)});
    }
    const FuncId mainF = prog.newFunction("main");
    prog.entryFunc = mainF;
    IRBuilder b(prog, mainF);
    auto rets = b.call(callee, {Operand::imm(9)}, 1);
    b.ret({Operand::reg(rets[0])});
    EXPECT_EQ(runReturn(prog), 81);
}

TEST(Interp, CallsWithLongOperandLists)
{
    // Five arguments and four results: lists past the three inline
    // operands of an op.
    Program prog;
    const FuncId callee = prog.newFunction("mix");
    {
        Function &fn = prog.functions[callee];
        std::vector<RegId> p;
        for (int i = 0; i < 5; ++i)
            p.push_back(fn.newReg());
        fn.params = p;
        fn.numReturns = 4;
        IRBuilder b(prog, callee);
        const RegId s = b.add(Operand::reg(p[0]), Operand::reg(p[4]));
        b.ret({Operand::reg(s), Operand::reg(p[1]), Operand::reg(p[2]),
               Operand::imm(-1)});
    }
    const FuncId mainF = prog.newFunction("main");
    prog.entryFunc = mainF;
    IRBuilder b(prog, mainF);
    auto r = b.call(callee,
                    {Operand::imm(1), Operand::imm(2), Operand::imm(3),
                     Operand::imm(4), Operand::imm(5)},
                    4);
    b.ret({Operand::reg(r[0]), Operand::reg(r[1]), Operand::reg(r[2]),
           Operand::reg(r[3])});
    EXPECT_EQ(Interpreter(prog).run().returns,
              (std::vector<std::int64_t>{6, 2, 3, -1}));
}

TEST(Interp, SpeculativeLoadReturnsZeroOutOfRange)
{
    Program prog;
    prog.allocData(8);
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    Operation ld = makeLoad(Opcode::LD_W, prog.functions[f].newReg(),
                            Operand::imm(1 << 20), Operand::imm(0));
    ld.speculative = true;
    const RegId dst = ld.dsts[0].asReg();
    b.emit(std::move(ld));
    b.ret({Operand::reg(dst)});
    EXPECT_EQ(runReturn(prog), 0);
}

TEST(Interp, ChecksumCoversOutputRegion)
{
    Program prog;
    const auto base = prog.allocData(8);
    prog.checksumBase = base;
    prog.checksumSize = 4;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId p = b.iconst(base);
    b.storeW(Operand::reg(p), Operand::imm(0), Operand::imm(77));
    b.ret({});
    Interpreter interp(prog);
    const auto r1 = interp.run();
    // Different stored value => different checksum.
    Program prog2 = prog;
    prog2.functions[f].blocks[prog2.functions[f].entry]
        .ops[1].srcs[2] = Operand::imm(78);
    Interpreter interp2(prog2);
    const auto r2 = interp2.run();
    EXPECT_NE(r1.checksum, r2.checksum);
}

TEST(Interp, OpBudgetGuard)
{
    // An infinite loop must hit the budget assertion (death test via
    // panic/abort is environment-dependent; we use a small budget and
    // EXPECT_DEATH).
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const BlockId loop = b.makeBlock();
    b.fallTo(loop);
    b.at(loop);
    b.jump(loop);
    Interpreter interp(prog);
    interp.setMaxOps(1000);
    EXPECT_DEATH(interp.run(), "budget");
}

TEST(Interp, OutOfRangeOperandPanicsOnlyWhenExecuted)
{
    // main(x): when x == 1, run a block that reads r1000, a register
    // the function does not have. The verifier does not check
    // register ranges, so the read must fault only if it executes.
    Program prog;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    const RegId x = prog.functions[f].newReg();
    prog.functions[f].params = {x};
    prog.functions[f].numReturns = 1;
    IRBuilder b(prog, f);
    const BlockId bad = b.makeBlock("bad");
    const BlockId done = b.makeBlock("done");
    b.br(CmpCond::EQ, Operand::reg(x), Operand::imm(1), bad);
    b.fallTo(done);
    b.at(bad);
    b.emit(makeBinary(Opcode::ADD, x, Operand::reg(1000),
                      Operand::imm(1)));
    b.fallTo(done);
    b.at(done);
    b.ret({Operand::imm(7)});

    EXPECT_EQ(Interpreter(prog).run({0}).returns,
              (std::vector<std::int64_t>{7}));
    EXPECT_DEATH(Interpreter(prog).run({1}),
                 "register out of range r1000 in main");
}

TEST(Interp, RegistryProfilePinned)
{
    // Every registry workload at both levels: the run results and
    // block weights that 01_profile (the input program) and
    // 12_reprofile (the transformed IR the pipeline keeps) see. The
    // constant was recorded before the interpreter was predecoded and
    // the profile reduced to block entry counts.
    std::vector<std::uint64_t> vals;
    auto addRun = [&](const ExecResult &r) {
        vals.push_back(r.checksum);
        for (std::int64_t v : r.returns)
            vals.push_back(static_cast<std::uint64_t>(v));
        vals.insert(vals.end(), {r.dynOps, r.dynNullified, r.dynBranches,
                                 r.dynTaken, r.dynBlocks});
    };
    auto addWeights = [&](const Program &p) {
        for (const auto &fn : p.functions) {
            for (const auto &bb : fn.blocks) {
                std::uint64_t bits;
                std::memcpy(&bits, &bb.weight, sizeof bits);
                vals.push_back(bits);
            }
        }
    };
    for (const auto &w : workloads::allWorkloads()) {
        for (OptLevel lvl : {OptLevel::Traditional, OptLevel::Aggressive}) {
            const Program input = workloads::buildWorkload(w.name);
            Program profiled = input;
            profileProgram(profiled);
            addWeights(profiled);
            addRun(Interpreter(input).run());

            CompileOptions opts;
            opts.level = lvl;
            CompileResult cr;
            compileProgram(input, opts, cr);
            addWeights(cr.ir);
            addRun(Interpreter(cr.ir).run());
        }
    }
    const std::uint64_t digest =
        fnv1a(reinterpret_cast<const std::uint8_t *>(vals.data()),
              vals.size() * sizeof(std::uint64_t));
    EXPECT_EQ(digest, 0x7994d2c9890bd8dfull) << std::hex << digest;
}

} // namespace
} // namespace lbp
