/**
 * @file
 * Differential testing: randomly generated structured programs
 * (nested counted loops, diamonds, hammocks, data-dependent while
 * loops, memory traffic, helper calls) are compiled under both
 * optimization levels and simulated under both predication modes at
 * several buffer sizes; every configuration must reproduce the
 * reference interpreter's checksum and return values. This is the
 * fuzzing backstop behind the hand-written per-pass tests.
 */

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "ir/interpreter.hh"
#include "sim/vliw_sim.hh"
#include "program_gen.hh"

namespace lbp
{
namespace
{

using testgen::ProgramGen;

class DifferentialTest : public ::testing::TestWithParam<int>
{
};

TEST_P(DifferentialTest, AllConfigsMatchInterpreter)
{
    ProgramGen gen(0xfeed0000ull + GetParam());
    Program prog = gen.generate();

    Interpreter interp(prog);
    const auto golden = interp.run();

    for (int cfg = 0; cfg < 3; ++cfg) {
        CompileOptions opts;
        opts.level = cfg == 0 ? OptLevel::Traditional
                              : OptLevel::Aggressive;
        if (cfg == 2) {
            // Exercise the future-work extensions under fuzz too.
            opts.rotatingRegisters = true;
            opts.predQueueDepth = 2;
        }
        CompileResult cr;
        // compileProgram itself re-verifies the checksum per stage.
        ASSERT_NO_THROW(compileProgram(prog, opts, cr))
            << "seed " << GetParam();
        EXPECT_EQ(cr.goldenChecksum, golden.checksum);
        for (int size : {24, 256}) {
            reallocateBuffers(cr, size);
            SimConfig sc;
            sc.bufferOps = size;
            sc.predMode = PredMode::SLOT;
            VliwSim sim(cr.code, sc);
            const auto st = sim.run();
            EXPECT_EQ(st.checksum, golden.checksum)
                << "seed " << GetParam() << " cfg " << cfg
                << " size " << size;
            EXPECT_EQ(st.returns, golden.returns)
                << "seed " << GetParam();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, DifferentialTest,
                         ::testing::Range(0, 25));

} // namespace
} // namespace lbp
