/**
 * @file
 * The decoded fast-path executor body: semantically a line-for-line
 * twin of the reference interpreter in vliw_sim.cc, but running over
 * the predecoded MicroOp image (decoded.hh). Differences are strictly
 * mechanical:
 *
 *  - operands are pre-resolved (no OperandKind switch per read);
 *  - NOPs are gone, bundle fetch sizes are precomputed;
 *  - per-bundle deferred-write lists live in fixed stack arrays
 *    instead of freshly allocated vectors;
 *  - loop statistics are indexed by dense loop id (no map lookups);
 *  - range checks proven at predecode time are not re-checked.
 *
 * Any behavioral divergence from the reference engine is a bug; the
 * engine-differential test compares complete SimStats between the
 * two across every registry workload.
 *
 * This is a private implementation header, not an interface: it
 * defines the callFunctionDecodedImpl<Traced> member template and is
 * included by exactly two translation units, vliw_sim_decoded.cc
 * (explicitly instantiating Traced=false) and
 * vliw_sim_decoded_traced.cc (Traced=true). Keeping the two
 * instantiations in separate TUs is deliberate: with both bodies in
 * one TU the inliner splits its budget between them and the untraced
 * hot path loses ~5% throughput; alone in its TU, the Traced=false
 * stamp compiles to the same code as a build without tracing.
 */

#ifndef LBP_SIM_VLIW_SIM_DECODED_BODY_HH
#define LBP_SIM_VLIW_SIM_DECODED_BODY_HH

#include "ir/semantics.hh"
#include "obs/prof.hh"
#include "obs/trace.hh"
#include "sim/decoded.hh"
#include "sim/dispatch.hh"
#include "sim/trace_cache.hh"
#include "sim/vliw_sim.hh"
#include "support/logging.hh"

namespace lbp
{

/**
 * Trace emission for the templated executor: compiles to nothing in
 * the Traced=false instantiation, so the untraced hot loop carries no
 * emission code at all (not even the null checks).
 */
#define DECODED_TRACE_EMIT(...)                                             \
    do {                                                                    \
        if constexpr (Traced)                                               \
            LBP_TRACE_EMIT(__VA_ARGS__);                                    \
    } while (0)

template <bool Traced>
std::vector<std::int64_t>
VliwSim::callFunctionDecodedImpl(FuncId f,
                                 const std::vector<std::int64_t> &args)
{
    LBP_ASSERT(++callDepth_ < 200, "sim call stack overflow");
    const DecodedProgram &dp = *decoded_;
    const DecodedFunction &df = dp.functions[f];
    LBP_ASSERT(args.size() == df.params.size(),
               "arg count mismatch calling ", df.fn->name);

    // Per-call register and predicate files come from the frame arena
    // (two pointer bumps instead of two heap allocations); the chunked
    // arena keeps them address-stable across recursive calls.
    FrameArena::Scope frame(arena_);
    std::int64_t *const regs = frame.allocI64(df.numRegs);
    std::uint8_t *const preds = frame.allocU8(df.numPreds);
    for (size_t i = 0; i < args.size(); ++i)
        regs[df.params[i]] = args[i];

    std::vector<LoopCtx> loopStack;
    std::vector<LoopKey> evictedKeys;

    BlockId curBlk = df.entry;
    size_t curBu = 0;

    const bool slotMode = cfg_.predMode == PredMode::SLOT;
    [[maybe_unused]] obs::TraceSink *const ts =
        Traced ? cfg_.trace : nullptr;

#if LBP_PROF
    // Per-ExecHandler rdtsc windows (SimConfig::opProf): the span
    // from one op's dispatch to the next in the same bundle is
    // charged to the earlier op's handler kind; windows close at the
    // bundle boundary so commits, calls and block bookkeeping stay
    // unattributed. Traced stamp only — the production untraced hot
    // loop carries no timing code at all.
    static_assert(static_cast<std::size_t>(ExecHandler::COUNT) <=
                      kOpProfSlots,
                  "opProfCycles_ too small for ExecHandler");
    [[maybe_unused]] const bool opProf = Traced && cfg_.opProf;
    [[maybe_unused]] std::uint64_t opTsc = 0;
    [[maybe_unused]] int opHandler = -1;
#endif

    auto readSrc = [&](const XSrc &s) -> std::int64_t {
        if (s.kind == XSrc::REG)
            return regs[s.idx];
        if (s.kind == XSrc::IMM)
            return s.imm;
        return preds[s.idx];
    };

    // Deferred writes for the two-phase bundle commit. Capacities are
    // bounded by the issue width (checked at predecode): at most one
    // register or memory write per op, two predicate/slot writes per
    // predicate define.
    struct RegWrite { std::int32_t r; std::int64_t v; };
    struct PredWrite { std::int32_t p; std::uint8_t v; };
    struct SlotWrite { std::int32_t s; std::uint8_t v; };
    struct MemWrite { Opcode op; std::int64_t addr; std::int64_t v; };
    RegWrite regW[Machine::width];
    PredWrite predW[2 * Machine::width];
    SlotWrite slotW[2 * Machine::width];
    MemWrite memW[Machine::width];

    /**
     * Finish a loop activation: apply pipelined-timing correction and
     * roll per-loop statistics.
     */
    auto retireLoop = [&](LoopCtx &ctx) {
        retireLoopStats(ctx);
        DECODED_TRACE_EMIT(ts, obs::TraceKind::LoopExit, stats_.cycles,
                       ctx.loopId,
                       static_cast<std::int64_t>(ctx.iterations),
                       ctx.fromBuffer ? 1 : 0);
    };

    LBP_DISPATCH_TABLE();

    while (true) {
        LBP_ASSERT(curBlk != kNoBlock && curBlk < df.blocks.size(),
                   "sim fell off CFG in ", df.fn->name);
        const DecodedBlock &db = df.blocks[curBlk];
        LBP_ASSERT(db.valid, "sim in dead or unscheduled block");

        // Trace-cache engagement: arriving anywhere in the head block
        // of the innermost loop while it issues from the buffer is the
        // replay condition (predicated traces can engage mid-bundle —
        // a trace built on this activation starts paying off now; the
        // fast tier and out-of-extent arrivals decline inside
        // replayResident). Untraced instantiation only — replay emits
        // no events, and gating it to Traced=false keeps the traced
        // event stream byte-identical by construction. A NotEngaged
        // result falls through to the general path; declines latch
        // traceDeclined so resident-but-untraceable loops pay the
        // gate once per activation, not once per bundle.
        if constexpr (!Traced) {
            if (traceCache_ && !loopStack.empty()) {
                LoopCtx &top = loopStack.back();
                if (top.head == curBlk && top.fromBuffer &&
                    !top.traceDeclined) {
                    if (top.counted &&
                        top.remaining < cfg_.replayMinIters) {
                        // Residency without enough iterations left to
                        // amortize a replay: a real bailout (the
                        // general path runs the activation),
                        // attributed like any build-gating decline —
                        // once per activation.
                        top.traceDeclined = true;
                        traceCache_->countBailout(
                            top.loopId,
                            TraceBailoutReason::BelowEngageThreshold);
                    } else {
                        const ReplayResult rr = replayResident(
                            top, df, regs, preds, curBu);
                        switch (rr.outcome) {
                          case ReplayOutcome::NotEngaged:
                            break;
                          case ReplayOutcome::BackedgeFellThrough: {
                            // The activation stays live; fetch falls
                            // through the nullified backedge into the
                            // head block's trailing bundles.
                            curBu = rr.resumeBundle;
                            continue;
                          }
                          case ReplayOutcome::SideExit: {
                            // Mirror the general path's end-of-bundle
                            // redirect: a same-bundle backedge exit
                            // retires the activation first, then
                            // context cancellation and the
                            // taken-branch penalty.
                            if (rr.ctxDone) {
                                LoopCtx done = loopStack.back();
                                loopStack.pop_back();
                                LBP_ASSERT(!done.isExec,
                                           "two control transfers in "
                                           "one bundle");
                                if (rr.whileExit) {
                                    chargeRedirect(
                                        obs::CycleClass::
                                            WhileExitPenalty,
                                        done.loopId);
                                }
                                retireLoop(done);
                            }
                            while (!loopStack.empty() &&
                                   loopStack.back().head == curBlk &&
                                   rr.sideTarget !=
                                       loopStack.back().head) {
                                LoopCtx done = loopStack.back();
                                loopStack.pop_back();
                                retireLoop(done);
                            }
                            chargeRedirect(
                                obs::CycleClass::TakenBranchPenalty,
                                -1);
                            curBlk = rr.sideTarget;
                            curBu = 0;
                            continue;
                          }
                          case ReplayOutcome::CountedDone:
                          case ReplayOutcome::WloopExit: {
                            LoopCtx done = loopStack.back();
                            loopStack.pop_back();
                            if (rr.outcome ==
                                ReplayOutcome::WloopExit) {
                                // While exits from the buffer are
                                // mispredicted (the buffer keeps
                                // replaying), exactly as on the
                                // general path.
                                chargeRedirect(
                                    obs::CycleClass::WhileExitPenalty,
                                    done.loopId);
                            }
                            retireLoop(done);
                            if (done.isExec) {
                                curBlk = done.resumeBlock;
                                curBu = done.resumeBundle;
                            } else {
                                curBu = rr.resumeBundle;
                            }
                            continue;
                          }
                        }
                    }
                }
            }
        }

        if (curBu >= db.bundleCount) {
            LBP_ASSERT(db.fallthrough != kNoBlock,
                       "sim fell off block in ", df.fn->name);
            curBlk = db.fallthrough;
            curBu = 0;
            continue;
        }

        const DecodedBundle &bu = df.bundles[db.firstBundle + curBu];
        LBP_ASSERT(++bundlesExecuted_ <= cfg_.maxBundles,
                   "bundle budget exceeded");
        ++stats_.bundles;
        ++stats_.cycles;

        // Fetch accounting: are we executing this bundle from the
        // loop buffer? Body ops are attributed to the innermost
        // active loop either way, so per-loop opsFromBuffer sums
        // exactly to the aggregate counter (the scorecard invariant).
        bool fromBuffer = false;
        int issueRow = -1;
        if (!loopStack.empty()) {
            const LoopCtx &top = loopStack.back();
            if (curBlk == top.head) {
                issueRow = top.loopId;
                LoopStats &tls = stats_.loops[top.loopId];
                if (top.fromBuffer) {
                    fromBuffer = true;
                    tls.opsFromBuffer += bu.sizeOps;
                } else {
                    tls.opsFromCache += bu.sizeOps;
                }
            }
        }
        stats_.opsFetched += bu.sizeOps;
        if (fromBuffer)
            stats_.opsFromBuffer += bu.sizeOps;
        cycleStack_.charge(issueRow,
                           fromBuffer
                               ? obs::CycleClass::IssueFromBuffer
                               : obs::CycleClass::IssueFromMemory,
                           1);
        DECODED_TRACE_EMIT(ts,
                       fromBuffer ? obs::TraceKind::BufHit
                                  : obs::TraceKind::Fetch,
                       stats_.cycles,
                       fromBuffer ? loopStack.back().loopId : -1,
                       bu.sizeOps, curBlk);

        // ---- Phase 1: evaluate ----
        int nRegW = 0, nPredW = 0, nSlotW = 0, nMemW = 0;

        bool redirect = false;
        BlockId nextBlk = kNoBlock;
        size_t nextBu = 0;
        bool freeXfer = false;
        obs::CycleClass redirCls = obs::CycleClass::TakenBranchPenalty;
        int redirRow = -1;
        const MicroOp *callOp = nullptr;
        const MicroOp *retOp = nullptr;
        bool sawControl = false;
        auto takeRedirect =
            [&](BlockId blk, size_t buIdx, bool free,
                obs::CycleClass cls =
                    obs::CycleClass::TakenBranchPenalty,
                int row = -1) {
            LBP_ASSERT(!sawControl,
                       "two control transfers in one bundle");
            sawControl = true;
            redirect = true;
            nextBlk = blk;
            nextBu = buIdx;
            freeXfer = free;
            redirCls = cls;
            redirRow = row;
        };

        const MicroOp *const opBase = df.ops.data();
        for (const MicroOp *m = opBase + bu.first,
                           *const end = m + bu.count;
             m != end; ++m) {
            if constexpr (Traced) {
#if LBP_PROF
                if (opProf) {
                    const std::uint64_t now = obs::prof::tsc();
                    if (opHandler >= 0)
                        opProfCycles_[opHandler] += now - opTsc;
                    opTsc = now;
                    opHandler = static_cast<int>(m->handler);
                }
#endif
            }
            bool exec;
            if (slotMode && m->sensitive) {
                ++stats_.opsSensitive;
                exec = slotPred_[m->slot] != 0;
            } else {
                exec = m->guard == kNoPred || preds[m->guard] != 0;
            }
            if (!exec && m->op != Opcode::PRED_DEF) {
                ++stats_.opsNullified;
                DECODED_TRACE_EMIT(ts, obs::TraceKind::Nullify,
                               stats_.cycles, -1,
                               static_cast<std::int64_t>(m->op),
                               m->slot);
                if (isBranch(m->op)) {
                    ++stats_.branches;
                    DECODED_TRACE_EMIT(ts, obs::TraceKind::Branch,
                                   stats_.cycles, -1, 0, 1);
                }
                continue;
            }

            LBP_DISPATCH(m->handler) {
              LBP_HANDLER(PRED_DEF) {
                // The guard is an input to the define (Table 2).
                bool g;
                if (slotMode && m->sensitive) {
                    g = slotPred_[m->slot] != 0;
                } else if (m->guard != kNoPred) {
                    g = preds[m->guard] != 0;
                } else {
                    g = true;
                }
                const std::int64_t a = readSrc(m->src[0]);
                const std::int64_t b = readSrc(m->src[1]);
                const bool c = evalCond(m->cond, a, b);
                auto apply = [&](PredDefKind k, std::uint8_t dKind,
                                 std::int32_t dIdx) {
                    const int w = predDefWrite(k, g, c);
                    if (w < 0 || dKind == 0)
                        return;
                    if (dKind == 2) {
                        slotW[nSlotW++] =
                            {dIdx, static_cast<std::uint8_t>(w)};
                    } else {
                        predW[nPredW++] =
                            {dIdx, static_cast<std::uint8_t>(w)};
                    }
                };
                apply(m->k0, m->pdKind0, m->pdIdx0);
                apply(m->k1, m->pdKind1, m->pdIdx1);
                LBP_NEXT_OP;
              }

              LBP_HANDLER(LOAD) {
                const std::int64_t addr =
                    readSrc(m->src[0]) + readSrc(m->src[1]);
                regW[nRegW++] = {m->dstReg,
                                 loadMem(m->op, addr, m->speculative)};
                LBP_NEXT_OP;
              }

              LBP_HANDLER(STORE) {
                const std::int64_t addr =
                    readSrc(m->src[0]) + readSrc(m->src[1]);
                memW[nMemW++] = {m->op, addr, readSrc(m->src[2])};
                LBP_NEXT_OP;
              }

              LBP_HANDLER(MOV) {
                regW[nRegW++] = {m->dstReg, readSrc(m->src[0])};
                LBP_NEXT_OP;
              }
              LBP_HANDLER(ABS) {
                regW[nRegW++] = {m->dstReg, evalUnary(Opcode::ABS,
                                                      readSrc(m->src[0]))};
                LBP_NEXT_OP;
              }
              LBP_HANDLER(ITOF) {
                regW[nRegW++] = {m->dstReg, evalUnary(Opcode::ITOF,
                                                      readSrc(m->src[0]))};
                LBP_NEXT_OP;
              }
              LBP_HANDLER(FTOI) {
                regW[nRegW++] = {m->dstReg, evalUnary(Opcode::FTOI,
                                                      readSrc(m->src[0]))};
                LBP_NEXT_OP;
              }
              LBP_HANDLER(SELECT) {
                const std::int64_t c = readSrc(m->src[0]);
                regW[nRegW++] = {m->dstReg,
                                 c ? readSrc(m->src[1])
                                   : readSrc(m->src[2])};
                LBP_NEXT_OP;
              }

              LBP_HANDLER(BR) {
                ++stats_.branches;
                const std::int64_t a = readSrc(m->src[0]);
                const std::int64_t b = readSrc(m->src[1]);
                const bool taken = evalCond(m->cond, a, b);
                DECODED_TRACE_EMIT(ts, obs::TraceKind::Branch,
                               stats_.cycles, -1, taken ? 1 : 0, 0);
                const bool isWloopBack =
                    m->op == Opcode::BR_WLOOP && !loopStack.empty() &&
                    !loopStack.back().counted &&
                    m->target == loopStack.back().head;
                if (taken) {
                    ++stats_.branchesTaken;
                    if (isWloopBack) {
                        LoopCtx &ctx = loopStack.back();
                        ++ctx.iterations;
                        if (ctx.fromBuffer) {
                            ++stats_.loops[ctx.loopId]
                                  .bufferIterations;
                        }
                        // Loop-backs of buffered loops are free (the
                        // buffer predicts them taken while looping).
                        takeRedirect(m->target, 0, ctx.buffered,
                                     obs::CycleClass::
                                         LoopControlOverhead,
                                     ctx.loopId);
                        if (ctx.buffered)
                            ctx.fromBuffer = true;
                    } else {
                        takeRedirect(m->target, 0, false);
                    }
                } else if (isWloopBack) {
                    // While-loop exit: retire the context. Exits are
                    // mispredicted when issuing from the buffer (the
                    // buffer keeps replaying); from memory the
                    // fall-through is the natural fetch path.
                    LoopCtx ctx = loopStack.back();
                    loopStack.pop_back();
                    ++ctx.iterations;
                    if (ctx.fromBuffer) {
                        ++stats_.loops[ctx.loopId].bufferIterations;
                        chargeRedirect(
                            obs::CycleClass::WhileExitPenalty,
                            ctx.loopId);
                        DECODED_TRACE_EMIT(ts, obs::TraceKind::Penalty,
                                       stats_.cycles, ctx.loopId,
                                       cfg_.branchPenalty,
                                       obs::kPenaltyWloopExit);
                    }
                    retireLoop(ctx);
                    if (ctx.isExec) {
                        takeRedirect(ctx.resumeBlock,
                                     ctx.resumeBundle, true);
                    }
                }
                LBP_NEXT_OP;
              }

              LBP_HANDLER(JUMP) {
                ++stats_.branches;
                ++stats_.branchesTaken;
                DECODED_TRACE_EMIT(ts, obs::TraceKind::Branch,
                               stats_.cycles, -1, 1, 0);
                takeRedirect(m->target, 0, false);
                LBP_NEXT_OP;
              }

              LBP_HANDLER(BR_CLOOP) {
                ++stats_.branches;
                LBP_ASSERT(!loopStack.empty() &&
                               loopStack.back().counted,
                           "br.cloop without context in ",
                           df.fn->name);
                LoopCtx &ctx = loopStack.back();
                ++ctx.iterations;
                if (ctx.fromBuffer)
                    ++stats_.loops[ctx.loopId].bufferIterations;
                --ctx.remaining;
                DECODED_TRACE_EMIT(ts, obs::TraceKind::Branch,
                               stats_.cycles, ctx.loopId,
                               ctx.remaining > 0 ? 1 : 0, 0);
                if (ctx.remaining > 0) {
                    ++stats_.branchesTaken;
                    // Counted loop-backs of buffered loops are free;
                    // unbuffered ones redirect fetch like any taken
                    // branch.
                    takeRedirect(m->target, 0, ctx.buffered,
                                 obs::CycleClass::LoopControlOverhead,
                                 ctx.loopId);
                    // After the first (recording) iteration, fetch
                    // shifts to the buffer.
                    if (ctx.buffered)
                        ctx.fromBuffer = true;
                } else {
                    // Counted exit: fall-through, predicted by the
                    // count — never a redirect.
                    LoopCtx done = ctx;
                    loopStack.pop_back();
                    retireLoop(done);
                    if (done.isExec) {
                        takeRedirect(done.resumeBlock,
                                     done.resumeBundle, true);
                    }
                }
                LBP_NEXT_OP;
              }

              LBP_HANDLER(LOOP) {
                LoopCtx ctx;
                ctx.key = loopTable_->keys[m->loopId];
                ctx.loopId = m->loopId;
                ctx.counted = m->counted;
                if (ctx.counted) {
                    ctx.remaining = readSrc(m->src[0]);
                    LBP_ASSERT(ctx.remaining >= 1,
                               "cloop with count ", ctx.remaining);
                }
                ctx.head = m->target;
                ctx.pipelined = m->pipelined;
                ctx.bodyLen = m->bodyLen;
                ctx.ii = m->ii;
                ctx.minII = m->minII;
                ctx.buffered = m->bufAddr >= 0;
                LoopStats &ls = stats_.loops[m->loopId];
                ++ls.activations;
                bool recorded = false;
                if (ctx.buffered) {
                    if (buffer_.isResident(ctx.key)) {
                        buffer_.countTableHit();
                        ctx.fromBuffer = true;
                    } else {
                        buffer_.record(ctx.key, m->bufAddr,
                                       m->imageOps, &evictedKeys);
                        for (const LoopKey &ek : evictedKeys)
                            ++stats_.loops[loopTable_->idOf(ek)].evictions;
                        ++ls.recordings;
                        ctx.fromBuffer = false;
                        recorded = true;
                    }
                }
                DECODED_TRACE_EMIT(ts, obs::TraceKind::LoopEnter,
                               stats_.cycles, ctx.loopId,
                               ctx.counted ? 1 : 0,
                               ctx.fromBuffer ? 1 : 0);
                if (recorded) {
                    DECODED_TRACE_EMIT(ts, obs::TraceKind::LoopRecord,
                                   stats_.cycles, ctx.loopId,
                                   m->bufAddr, m->imageOps);
                }
                if (m->op == Opcode::EXEC_CLOOP ||
                    m->op == Opcode::EXEC_WLOOP) {
                    ctx.isExec = true;
                    ctx.resumeBlock = curBlk;
                    ctx.resumeBundle = curBu + 1;
                    // Executing an already-buffered loop: no fetch
                    // redirect cost.
                    takeRedirect(m->target, 0, ctx.fromBuffer,
                                 obs::CycleClass::LoopControlOverhead,
                                 ctx.loopId);
                }
                loopStack.push_back(ctx);
                LBP_NEXT_OP;
              }

              LBP_HANDLER(CALL) {
                LBP_ASSERT(!callOp, "two calls in one bundle");
                callOp = m;
                LBP_NEXT_OP;
              }

              LBP_HANDLER(RET) {
                retOp = m;
                LBP_NEXT_OP;
              }

              LBP_HANDLER(ALU) {
                // Binary ALU family.
                const std::int64_t a = readSrc(m->src[0]);
                const std::int64_t b = readSrc(m->src[1]);
                regW[nRegW++] = {m->dstReg,
                                 evalBinary(m->op, m->cond, a, b)};
                LBP_NEXT_OP;
              }
              LBP_BAD_HANDLER();
            }
            LBP_DISPATCH_END;
        }
        if constexpr (Traced) {
#if LBP_PROF
            if (opProf && opHandler >= 0) {
                opProfCycles_[opHandler] += obs::prof::tsc() - opTsc;
                opHandler = -1;
            }
#endif
        }

        // ---- Phase 2: commit ----
        for (int i = 0; i < nRegW; ++i)
            regs[regW[i].r] = regW[i].v;
        for (int i = 0; i < nPredW; ++i)
            preds[predW[i].p] = predW[i].v;
        for (int i = 0; i < nSlotW; ++i) {
            for (int j = i + 1; j < nSlotW; ++j) {
                LBP_ASSERT(slotW[i].s != slotW[j].s ||
                               slotW[i].v == slotW[j].v,
                           "conflicting same-cycle slot-predicate "
                           "writes");
            }
            slotPred_[slotW[i].s] = slotW[i].v;
        }
        for (int i = 0; i < nMemW; ++i)
            storeMem(memW[i].op, memW[i].addr, memW[i].v);

        // Call/return (serialize: the call is the bundle's transfer).
        if (retOp) {
            std::vector<std::int64_t> rets;
            rets.reserve(retOp->xsrcCount);
            for (std::uint32_t i = 0; i < retOp->xsrcCount; ++i)
                rets.push_back(
                    readSrc(dp.extraSrcs[retOp->xsrcBegin + i]));
            // Returning with live loop contexts would corrupt the
            // caller's hardware loop stack.
            LBP_ASSERT(loopStack.empty(),
                       "RET with live hardware-loop context in ",
                       df.fn->name);
            chargeRedirect(obs::CycleClass::CallReturnPenalty, -1);
            DECODED_TRACE_EMIT(ts, obs::TraceKind::Penalty, stats_.cycles,
                           -1, cfg_.branchPenalty, obs::kPenaltyReturn);
            --callDepth_;
            return rets;
        }
        if (callOp) {
            std::vector<std::int64_t> cargs;
            cargs.reserve(callOp->xsrcCount);
            for (std::uint32_t i = 0; i < callOp->xsrcCount; ++i)
                cargs.push_back(
                    readSrc(dp.extraSrcs[callOp->xsrcBegin + i]));
            chargeRedirect(obs::CycleClass::CallReturnPenalty, -1);
            DECODED_TRACE_EMIT(ts, obs::TraceKind::Penalty, stats_.cycles,
                           -1, cfg_.branchPenalty, obs::kPenaltyCall);
            auto rets =
                callFunctionDecodedImpl<Traced>(callOp->callee, cargs);
            for (std::uint32_t i = 0; i < callOp->xdstCount; ++i)
                regs[dp.extraDsts[callOp->xdstBegin + i]] = rets[i];
        }

        // Control transfer. A taken transfer that leaves the active
        // hardware loop's body cancels its context (zero-overhead-
        // loop hardware cancels on branches out of the loop).
        if (redirect) {
            while (!loopStack.empty() &&
                   loopStack.back().head == curBlk &&
                   nextBlk != loopStack.back().head) {
                LoopCtx done = loopStack.back();
                loopStack.pop_back();
                retireLoop(done);
            }
            if (!freeXfer) {
                chargeRedirect(redirCls, redirRow);
                DECODED_TRACE_EMIT(ts, obs::TraceKind::Penalty,
                               stats_.cycles, -1, cfg_.branchPenalty,
                               obs::kPenaltyBranch);
            }
            curBlk = nextBlk;
            curBu = nextBu;
        } else {
            ++curBu;
        }
    }
}

} // namespace lbp

#undef DECODED_TRACE_EMIT

#endif // LBP_SIM_VLIW_SIM_DECODED_BODY_HH
