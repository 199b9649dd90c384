#include "core/compiler.hh"

#include "analysis/loop_info.hh"
#include "ir/interpreter.hh"
#include "ir/verifier.hh"
#include "obs/phase_timer.hh"
#include "obs/registry.hh"
#include "sched/list_scheduler.hh"
#include "sched/modulo_scheduler.hh"
#include "support/logging.hh"
#include "transform/classic_opts.hh"

namespace lbp
{

namespace
{

/** Is this block a simple hardware-loop body? */
bool
isSimpleLoopBody(const BasicBlock &bb)
{
    const Operation *term = bb.terminator();
    if (!term)
        return false;
    if (term->op == Opcode::BR_CLOOP || term->op == Opcode::BR_WLOOP)
        return term->target == bb.id;
    if (term->op == Opcode::BR || term->op == Opcode::JUMP)
        return term->target == bb.id;
    return false;
}

/** Test seam: see setStageHookForTest. */
StageHook gStageHook = nullptr;

/** Count one interpreter run of the pipeline ("compile.interp.runs"). */
void
countInterpRun(obs::Registry *reg)
{
    if (reg)
        reg->counter("compile.interp.runs").inc();
}

/** Re-interpret @p prog; throw naming @p stage on a checksum change. */
void
checkStage(const Program &prog, const CompileOptions &opts,
           std::uint64_t golden, const char *stage)
{
    const ExecResult r = [&] {
        obs::prof::ScopedRegion region(obs::prof::Region::Interpret);
        return Interpreter(prog).run(opts.profileArgs);
    }();
    countInterpRun(opts.obsRegistry);
    if (r.checksum != golden) {
        LBP_FATAL("semantic checksum mismatch after stage '", stage,
                  "' in program '", prog.name, "': golden=",
                  golden, " got=", r.checksum);
    }
}

/**
 * Stages 01-11: profile (which fixes the golden checksum), then every
 * IR-to-IR transform. Each stage is bracketed by a ScopedPhase:
 * elapsed wall time lands in "compile.phase.<NN_stage>.ms" of
 * @p timings and the static op-count delta in
 * ".ops_before/.ops_after/.ops_delta"; the numeric prefix keeps the
 * registry's name order equal to pipeline order. Every transform's
 * output is structurally verified; with @p checkEachStage it is also
 * re-interpreted against the golden checksum.
 */
void
transformProgram(Program &prog, const CompileOptions &opts,
                 CompileResult &out, obs::Registry *timings,
                 bool checkEachStage)
{
    // 1. Profile + golden checksum.
    const ExecResult run0 = [&] {
        obs::ScopedPhase ph(timings, "compile.phase.01_profile",
                            prog.sizeOps());
        return profileProgram(prog, opts.profileArgs);
    }();
    countInterpRun(opts.obsRegistry);
    out.goldenChecksum = run0.checksum;

    VerifyOptions plain, hyper;
    hyper.allowInternalBranches = true;
    auto stage = [&](const char *name, const VerifyOptions &v,
                     auto &&transform) {
        obs::ScopedPhase ph(timings,
                            std::string("compile.phase.") + name,
                            prog.sizeOps());
        transform();
        if (gStageHook)
            gStageHook(name, prog);
        verifyOrDie(prog, v);
        if (checkEachStage)
            checkStage(prog, opts, out.goldenChecksum, name);
        ph.finishOps(prog.sizeOps());
    };

    // 2. Profile-guided inlining (<= 50% expansion, per the paper).
    if (opts.doInline) {
        stage("02_inline", plain, [&] {
            out.inlineStats = inlineHotCalls(prog);
        });
    }

    // 3. Classic optimization + height reduction (reassociation is
    //    part of the paper's "traditional loop optimizations" and the
    //    Figure-2d height-reducing step).
    stage("03_classic_opts", plain, [&] {
        optimizeProgram(prog);
        out.reassocStats = reassociate(prog);
        optimizeProgram(prog);
    });

    // 4. Control transformations (Aggressive only).
    if (opts.level == OptLevel::Aggressive) {
        stage("04_peel", plain, [&] {
            out.peelStats = peelLoops(prog, {}, &out.loopLog);
        });
        stage("05_if_convert", hyper, [&] {
            out.ifConvertStats = ifConvertLoops(prog, {}, &out.loopLog);
        });
        stage("06_collapse", hyper, [&] {
            out.collapseStats = collapseLoops(prog, {}, &out.loopLog);
        });
        // Collapsing can expose newly-childless outer loops.
        stage("07_if_convert2", hyper, [&] {
            auto s2 = ifConvertLoops(prog, {}, &out.loopLog);
            out.ifConvertStats.loopsConverted += s2.loopsConverted;
            out.ifConvertStats.blocksMerged += s2.blocksMerged;
            out.ifConvertStats.predDefsInserted += s2.predDefsInserted;
            out.ifConvertStats.sideExits += s2.sideExits;
        });
        stage("08_branch_combine", hyper, [&] {
            out.branchCombineStats =
                combineBranches(prog, {}, &out.loopLog);
        });
        stage("09_promote", hyper, [&] {
            out.promoteStats = promoteOperations(prog);
        });
        stage("10_classic_opts2", hyper, [&] {
            optimizeProgram(prog);
            auto r2 = reassociate(prog);
            out.reassocStats.chainsRebalanced += r2.chainsRebalanced;
            out.reassocStats.opsInChains += r2.opsInChains;
            optimizeProgram(prog);
        });
    }

    // 5. Hardware-loop conversion (both levels).
    stage("11_counted_loop",
          opts.level == OptLevel::Aggressive ? hyper : plain,
          [&] { out.countedLoopStats = convertCountedLoops(prog); });
}

/**
 * The final checksum differs from the golden one. Rerun stages 01-11
 * from @p input with an interpreter check after every stage, which
 * throws naming the first stage whose output diverges; if none does,
 * report the final mismatch. Never returns.
 */
[[noreturn]] void
bisectMismatch(const Program &input, const CompileOptions &opts,
               std::uint64_t golden, std::uint64_t got)
{
    CompileResult rerun;
    rerun.ir = input;
    transformProgram(rerun.ir, opts, rerun, nullptr, true);
    LBP_FATAL("final profile checksum mismatch in program '", input.name,
              "': golden=", golden, " got=", got,
              " (no stage diverged when checked one by one)");
}

} // namespace

void
setStageHookForTest(StageHook hook)
{
    gStageHook = hook;
}

void
compileProgram(const Program &input, const CompileOptions &opts,
               CompileResult &out)
{
    obs::Registry *const reg = opts.obsRegistry;
    obs::prof::ScopedRegion profRegion(obs::prof::Region::Compile);
    obs::ScopedPhase total(reg, "compile.total");

    out.ir = input;
    Program &prog = out.ir;
    out.originalOps = prog.sizeOps();
    verifyOrDie(prog);
    auto phase = [&](const char *name) {
        return obs::ScopedPhase(reg,
                                std::string("compile.phase.") + name,
                                prog.sizeOps());
    };

    transformProgram(prog, opts, out, reg, false);

    // 6. Refresh the profile (weights drive buffer allocation). This
    //    is the pipeline's one semantic check: only on a mismatch is
    //    it repeated stage by stage, to name the guilty stage.
    {
        auto ph = phase("12_reprofile");
        out.transformedChecksum =
            profileProgram(prog, opts.profileArgs).checksum;
        countInterpRun(reg);
    }
    if (out.transformedChecksum != out.goldenChecksum) {
        bisectMismatch(input, opts, out.goldenChecksum,
                       out.transformedChecksum);
    }
    out.finalOps = prog.sizeOps();

    // 6b. Classify every natural loop that survived the transforms.
    // Loops whose shape can never become a hardware loop get their
    // rejection recorded here (the transforms above only log loops
    // they actually inspected); simple loops get their estimated
    // dynamic op count from the refreshed profile, and their fate is
    // left to buffer allocation.
    for (const auto &fn : prog.functions) {
        LoopInfo li(fn);
        for (const auto &loop : li.loops()) {
            const std::string name =
                fn.name + "/" + fn.blocks[loop.header].name;
            obs::LoopDecision &d = out.loopLog.decision(name);
            double est = 0.0;
            for (BlockId b : loop.blocks)
                est += fn.blocks[b].weight * fn.blocks[b].sizeOps();
            d.estDynOps = est;
            if (d.fate != obs::LoopFate::Unknown)
                continue;
            if (!loop.children.empty()) {
                d.fate = obs::LoopFate::Rejected;
                d.reason = obs::LoopReason::NotInnermost;
            } else if (loop.blocks.size() > 1) {
                d.fate = obs::LoopFate::Rejected;
                d.reason = obs::LoopReason::NotSimple;
            } else if (!isSimpleLoopBody(fn.blocks[loop.header])) {
                d.fate = obs::LoopFate::Rejected;
                d.reason = obs::LoopReason::BadShape;
            }
            // else: simple hardware loop — buffer_alloc decides.
        }
    }

    // 7. Schedule.
    {
        auto ph = phase("13_schedule");
        out.code.ir = &prog;
        out.code.functions.clear();
        out.code.functions.resize(prog.functions.size());
        for (const auto &fn : prog.functions) {
            SchedFunction &sf = out.code.functions[fn.id];
            sf.func = fn.id;
            sf.blocks.resize(fn.blocks.size());
            for (const auto &bb : fn.blocks) {
                if (bb.dead)
                    continue;
                SchedBlock sb;
                const bool loopBody = isSimpleLoopBody(bb);
                if (loopBody)
                    ++out.simpleLoops;
                if (loopBody && opts.moduloSchedule) {
                    ModuloOptions mo;
                    mo.rotatingRegisters = opts.rotatingRegisters;
                    ModuloResult mres;
                    sb = moduloScheduleLoop(bb, out.machine, mo,
                                            &mres);
                    obs::LoopAttempt a;
                    a.transform = "modulo";
                    a.opsBefore = bb.sizeOps();
                    if (sb.valid) {
                        ++out.moduloLoops;
                        a.applied = true;
                        a.opsAfter = sb.imageOps();
                        a.ii = sb.ii;
                        a.resMII = mres.resMII;
                        a.recMII = mres.recMII;
                        a.note = "II " + std::to_string(sb.ii) +
                                 " (res " +
                                 std::to_string(mres.resMII) +
                                 ", rec " +
                                 std::to_string(mres.recMII) + ")";
                    } else {
                        sb = listScheduleBlock(bb, out.machine);
                        sb.isLoopBody = true;
                        a.reason = obs::LoopReason::SchedFailed;
                        a.opsAfter = bb.sizeOps();
                        a.note = "list-scheduled fallback";
                    }
                    out.loopLog.addAttempt(fn.name + "/" + bb.name,
                                           std::move(a));
                } else {
                    sb = listScheduleBlock(bb, out.machine);
                    sb.isLoopBody = loopBody;
                }
                sf.blocks[bb.id] = std::move(sb);
            }
        }
    }

    // 8. Slot-predication lowering.
    if (opts.level == OptLevel::Aggressive && opts.slotLowering) {
        auto ph = phase("14_slot_lowering");
        out.slotStats = lowerProgramToSlots(prog, out.code,
                                            out.machine,
                                            opts.predQueueDepth,
                                            &out.loopLog);
    }

    // 9. Buffer allocation + link.
    {
        auto ph = phase("15_buffer_alloc");
        BufferAllocOptions ba;
        ba.bufferOps = opts.bufferOps;
        out.bufferAlloc =
            allocateLoopBuffers(prog, out.code, ba, &out.loopLog);
        out.code.link();
        out.scheduledOps = out.code.sizeOps();
    }
}

void
reallocateBuffers(CompileResult &result, int bufferOps)
{
    BufferAllocOptions ba;
    ba.bufferOps = bufferOps;
    result.bufferAlloc = allocateLoopBuffers(result.ir, result.code,
                                             ba, &result.loopLog);
    result.code.link();
}

} // namespace lbp
