/**
 * @file
 * Library-as-a-toolkit example: hand-assemble a pre-predicated loop
 * using the full Table-2 define vocabulary (the way a compiler
 * backend or a hand-tuner would target the slot-predication
 * hardware), schedule it, lower it to slot predication, and inspect
 * the machine-level result — bundle by bundle — under both
 * predication micro-architectures.
 */

#include <cstdio>
#include <iostream>

#include "core/compiler.hh"
#include "ir/builder.hh"
#include "ir/printer.hh"
#include "sim/vliw_sim.hh"

using namespace lbp;

namespace
{

/**
 * A complex-magnitude-ish kernel with a compound condition:
 *   for each pair (re, im):
 *     m = |re| + |im|;
 *     if (m > hi || m < lo) clipped++ and m is clamped;
 *     out[i] = m;
 * The compound condition is expressed directly with or-type defines.
 */
Program
buildKernel()
{
    Program prog;
    prog.name = "custom_kernel";
    const int n = 512;
    const std::int64_t in = prog.allocData(n * 2 * 2);
    const std::int64_t out = prog.allocData(n * 2);
    prog.checksumBase = out;
    prog.checksumSize = n * 2;
    for (int i = 0; i < n * 2; ++i) {
        prog.poke16(in + 2 * i,
                    static_cast<std::int16_t>((i * 3571) % 4001 - 2000));
    }

    const FuncId f = prog.newFunction("main");
    prog.entryFunc = f;
    IRBuilder b(prog, f);
    auto R = [](RegId r) { return Operand::reg(r); };
    auto I = [](std::int64_t v) { return Operand::imm(v); };

    const RegId inP = b.iconst(in);
    const RegId outP = b.iconst(out);
    const RegId clipped = b.iconst(0);
    const PredId pClip = b.newPred();

    b.forLoop(0, n, 1, [&](RegId i) {
        const RegId off = b.shl(R(i), I(2));
        const RegId re = b.loadH(R(inP), R(off));
        const RegId im = b.loadH(R(inP), R(b.add(R(off), I(2))));
        const RegId mre = b.abs(R(re));
        const RegId mim = b.abs(R(im));
        const RegId m = b.add(R(mre), R(mim));

        // pClip = (m > 1800) || (m < 64), built from or-type defines
        // exactly as Table 2 intends.
        b.predDef(PredDefKind::UT, pClip, CmpCond::GT, R(m), I(1800));
        b.predDef(PredDefKind::OT, pClip, CmpCond::LT, R(m), I(64));

        Operation bump = makeBinary(Opcode::ADD, clipped, R(clipped),
                                    I(1));
        bump.guard = pClip;
        b.emit(bump);
        Operation clamp = makeBinary(Opcode::MIN, m, R(m), I(1800));
        clamp.guard = pClip;
        b.emit(clamp);

        const RegId o2 = b.shl(R(i), I(1));
        b.storeH(R(outP), R(o2), R(m));
    });
    b.ret({R(clipped)});
    return prog;
}

void
dumpSchedule(const CompileResult &cr)
{
    const Function &fn = cr.ir.functions[cr.ir.entryFunc];
    for (const auto &bb : fn.blocks) {
        if (bb.dead)
            continue;
        const SchedBlock &sb = cr.code.functions[fn.id].blocks[bb.id];
        if (!sb.valid || !sb.isLoopBody)
            continue;
        std::printf("loop body '%s': %d cycles, II=%d, MVE=%d, "
                    "image=%d ops\n", bb.name.c_str(),
                    sb.lengthCycles(), sb.ii, sb.mveFactor,
                    sb.imageOps());
        for (size_t cy = 0; cy < sb.bundles.size(); ++cy) {
            std::printf("  cycle %2zu:", cy);
            for (const auto &so : sb.opsOf(sb.bundles[cy])) {
                std::printf(" [s%d] %s;", so.slot,
                            toString(so.op, &fn).c_str());
            }
            std::printf("\n");
        }
    }
}

} // namespace

int
main()
{
    Program prog = buildKernel();

    // Each predication micro-architecture gets a matching compilation
    // (slot-routed defines bypass the predicate register file, so
    // REGISTER-mode hardware runs the unlowered build).
    CompileOptions slotOpts;
    slotOpts.level = OptLevel::Aggressive;
    CompileResult crSlot;
    compileProgram(prog, slotOpts, crSlot);

    CompileOptions regOpts;
    regOpts.level = OptLevel::Aggressive;
    regOpts.slotLowering = false;
    CompileResult crReg;
    compileProgram(prog, regOpts, crReg);

    std::printf("=== Scheduled, slot-lowered kernel ===\n");
    dumpSchedule(crSlot);
    std::printf("\nslot lowering: %d blocks lowered, %d defines "
                "rewritten, %d cloned\n",
                crSlot.slotStats.blocksLowered,
                crSlot.slotStats.definesRewritten,
                crSlot.slotStats.definesCloned);

    for (PredMode mode : {PredMode::REGISTER, PredMode::SLOT}) {
        const bool slot = mode == PredMode::SLOT;
        CompileResult &cr = slot ? crSlot : crReg;
        SimConfig sc;
        sc.bufferOps = 256;
        sc.predMode = mode;
        VliwSim sim(cr.code, sc);
        const SimStats st = sim.run();
        std::printf("%-20s: %llu cycles, %llu sensitive ops, "
                    "checksum %s (clipped=%lld)\n",
                    slot ? "slot predication" : "register predication",
                    (unsigned long long)st.cycles,
                    (unsigned long long)st.opsSensitive,
                    st.checksum == cr.goldenChecksum ? "OK" : "BAD",
                    st.returns.empty()
                        ? -1
                        : (long long)st.returns[0]);
    }
    return 0;
}
