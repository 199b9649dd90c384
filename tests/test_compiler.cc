/**
 * @file
 * Pipeline-driver tests: stage checksums, config knobs, schedule
 * validation of everything the pipeline emits, and re-allocation.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/compiler.hh"
#include "core/metrics.hh"
#include "ir/builder.hh"
#include "obs/registry.hh"
#include "sim/vliw_sim.hh"
#include "workloads/input_data.hh"
#include "workloads/registry.hh"

namespace lbp
{
namespace
{

auto R = [](RegId r) { return Operand::reg(r); };
auto I = [](std::int64_t v) { return Operand::imm(v); };

Program
smallProgram()
{
    Program prog;
    const auto data = prog.allocData(256 * 4);
    for (int i = 0; i < 256; ++i)
        prog.poke32(data + 4 * i, (i * 31) % 23 - 11);
    prog.checksumBase = data;
    prog.checksumSize = 256 * 4;
    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    const RegId dp = b.iconst(data);
    const RegId acc = b.iconst(0);
    b.forLoop(0, 64, 1, [&](RegId i) {
        const RegId i4 = b.shl(R(i), I(2));
        const RegId v = b.loadW(R(dp), R(i4));
        workloads::diamond(b, CmpCond::LT, R(v), I(0),
                           [&] { b.subTo(acc, R(acc), R(v)); },
                           [&] { b.addTo(acc, R(acc), R(v)); });
        b.storeW(R(dp), R(i4), R(acc));
    });
    b.ret({R(acc)});
    return prog;
}

TEST(Compiler, GoldenChecksumPreserved)
{
    Program prog = smallProgram();
    for (OptLevel lvl : {OptLevel::Traditional, OptLevel::Aggressive}) {
        CompileOptions opts;
        opts.level = lvl;
        CompileResult cr;
        compileProgram(prog, opts, cr);
        EXPECT_EQ(cr.goldenChecksum, cr.transformedChecksum);
        SimConfig sc;
        VliwSim sim(cr.code, sc);
        EXPECT_EQ(sim.run().checksum, cr.goldenChecksum);
    }
}

TEST(Compiler, EverScheduledBlockValidates)
{
    Program prog = smallProgram();
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    opts.slotLowering = false; // validator matches pre-lowered ops
    CompileResult cr;
    compileProgram(prog, opts, cr);
    for (const auto &fn : cr.ir.functions) {
        for (const auto &bb : fn.blocks) {
            if (bb.dead)
                continue;
            const SchedBlock &sb =
                cr.code.functions[fn.id].blocks[bb.id];
            ASSERT_TRUE(sb.valid);
            const auto errs = validateSchedule(bb, sb, cr.machine);
            EXPECT_TRUE(errs.empty())
                << fn.name << "/" << bb.name << ": "
                << (errs.empty() ? "" : errs.front());
        }
    }
}

TEST(Compiler, AggressiveConvertsTheLoop)
{
    Program prog = smallProgram();
    CompileOptions tr;
    tr.level = OptLevel::Traditional;
    CompileResult a;
    compileProgram(prog, tr, a);
    CompileOptions ag;
    ag.level = OptLevel::Aggressive;
    CompileResult b2;
    compileProgram(prog, ag, b2);
    EXPECT_EQ(a.ifConvertStats.loopsConverted, 0);
    EXPECT_EQ(b2.ifConvertStats.loopsConverted, 1);
    EXPECT_GT(b2.moduloLoops, 0);
}

TEST(Compiler, ModuloDisableFallsBackToList)
{
    Program prog = smallProgram();
    CompileOptions opts;
    opts.moduloSchedule = false;
    CompileResult cr;
    compileProgram(prog, opts, cr);
    for (const auto &sf : cr.code.functions)
        for (const auto &sb : sf.blocks)
            EXPECT_FALSE(sb.pipelined);
    SimConfig sc;
    VliwSim sim(cr.code, sc);
    EXPECT_EQ(sim.run().checksum, cr.goldenChecksum);
}

TEST(Compiler, CleanCompileInterpretsTwice)
{
    // The profile and the reprofile are the only interpreter runs: no
    // per-stage checks unless the final checksum mismatches.
    Program prog = smallProgram();
    for (OptLevel lvl : {OptLevel::Traditional, OptLevel::Aggressive}) {
        obs::Registry reg;
        CompileOptions opts;
        opts.level = lvl;
        opts.obsRegistry = &reg;
        CompileResult cr;
        compileProgram(prog, opts, cr);
        const obs::Counter *runs = reg.findCounter("compile.interp.runs");
        ASSERT_NE(runs, nullptr);
        EXPECT_EQ(runs->value(), 2u);
    }
}

/** Stage whose output the corrupting hooks below break. */
constexpr const char *kBadStage = "09_promote";
int gCorruptions = 0;

/**
 * Change the first `mov r, 0` to `mov r, 7` after kBadStage: the
 * program stays well-formed but computes a different checksum.
 */
void
corruptBadStage(const char *stage, Program &prog)
{
    if (std::string(stage) != kBadStage)
        return;
    for (auto &fn : prog.functions)
        for (auto &bb : fn.blocks)
            for (auto &op : bb.ops)
                if (!bb.dead && op.op == Opcode::MOV &&
                    op.srcs[0].isImm() && op.srcs[0].value == 0) {
                    op.srcs[0].value = 7;
                    ++gCorruptions;
                    return;
                }
}

/** As corruptBadStage, but only in the first compile of a program. */
void
corruptOnce(const char *stage, Program &prog)
{
    if (gCorruptions == 0)
        corruptBadStage(stage, prog);
}

/** compileProgram's fatal error message under @p hook ("" if none). */
std::string
compileError(StageHook hook, obs::Registry &reg)
{
    Program prog = smallProgram();
    CompileOptions opts;
    opts.level = OptLevel::Aggressive;
    opts.obsRegistry = &reg;
    CompileResult cr;
    gCorruptions = 0;
    setStageHookForTest(hook);
    std::string msg;
    try {
        compileProgram(prog, opts, cr);
    } catch (const std::runtime_error &e) {
        msg = e.what();
    }
    setStageHookForTest(nullptr);
    return msg;
}

TEST(Compiler, CorruptedStageIsNamed)
{
    obs::Registry reg;
    const std::string msg = compileError(corruptBadStage, reg);
    EXPECT_NE(msg.find("semantic checksum mismatch after stage '" +
                       std::string(kBadStage) + "'"),
              std::string::npos)
        << msg;
    // Corrupted in the compile and again in the bisection rerun,
    // which checks 02_inline .. 09_promote and stops there: 2 + 1
    // profile runs + 8 stage checks.
    EXPECT_EQ(gCorruptions, 2);
    EXPECT_EQ(reg.findCounter("compile.interp.runs")->value(), 11u);
}

TEST(Compiler, UnreproducedMismatchReportsTheFinalChecksum)
{
    obs::Registry reg;
    const std::string msg = compileError(corruptOnce, reg);
    EXPECT_NE(msg.find("final profile checksum mismatch"),
              std::string::npos)
        << msg;
    EXPECT_EQ(msg.find("after stage"), std::string::npos) << msg;
    EXPECT_EQ(gCorruptions, 1);
    // The rerun checked all ten transform stages.
    EXPECT_EQ(reg.findCounter("compile.interp.runs")->value(), 13u);
}

TEST(Compiler, CodeSizeAccounting)
{
    Program prog = smallProgram();
    CompileOptions opts;
    CompileResult cr;
    compileProgram(prog, opts, cr);
    EXPECT_GT(cr.originalOps, 0);
    EXPECT_GT(cr.finalOps, 0);
    EXPECT_GE(cr.scheduledOps, cr.finalOps); // clones/empty cycles
}

} // namespace
} // namespace lbp

namespace lbp
{
namespace
{

TEST(Compiler, RegisterPressureNearMachineBudget)
{
    // The paper's machine has 64 integer registers and notes that
    // ILP techniques "need many registers". Most workloads' loop
    // bodies must fit outright; the largest hyperblocks (pgp's
    // inlined cipher, mpeg2_enc's unrolled SAD) may exceed the file
    // by a small margin a register allocator would cover with modest
    // spilling — cap the overshoot.
    int fitting = 0, total = 0;
    for (const auto &w : workloads::allWorkloads()) {
        Program prog = workloads::buildWorkload(w.name);
        CompileOptions opts;
        opts.level = OptLevel::Aggressive;
        CompileResult cr;
        compileProgram(prog, opts, cr);
        const RegisterPressure rp = collectRegisterPressure(cr);
        EXPECT_GT(rp.maxLoopPressure, 0) << w.name;
        EXPECT_LE(rp.maxLoopPressure, rp.machineRegisters * 3 / 2)
            << w.name << ": pressure " << rp.maxLoopPressure;
        fitting += rp.fits();
        ++total;
    }
    EXPECT_GE(fitting, total - 3);
}

} // namespace
} // namespace lbp
