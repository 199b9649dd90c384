#include "sim/vliw_sim.hh"

#include <algorithm>
#include <cstdlib>

#include "ir/interpreter.hh"
#include "ir/semantics.hh"
#include "obs/prof.hh"
#include "obs/trace.hh"
#include "sim/decoded.hh"
#include "sim/trace_cache.hh"
#include "support/logging.hh"

namespace lbp
{

namespace
{

/** Resolve the three-state trace-cache config against the env. */
bool
traceCacheEnabled(const SimConfig &cfg)
{
    switch (cfg.traceCache) {
      case TraceCacheMode::On:
        return true;
      case TraceCacheMode::Off:
        return false;
      case TraceCacheMode::Auto: {
        const char *e = std::getenv("LBP_SIM_NO_TRACE_CACHE");
        return !(e && *e);
      }
    }
    return true;
}

/** Resolve the predicated-replay tier config against the env. */
bool
predReplayEnabled(const SimConfig &cfg)
{
    switch (cfg.predReplay) {
      case PredReplayMode::On:
        return true;
      case PredReplayMode::Off:
        return false;
      case PredReplayMode::Auto: {
        const char *e = std::getenv("LBP_SIM_NO_PRED_REPLAY");
        return !(e && *e);
      }
    }
    return true;
}

/**
 * The counted-loop replay engage threshold: the config value, unless
 * LBP_SIM_REPLAY_MIN_ITERS holds a fully parsed non-negative integer.
 */
std::int64_t
replayMinItersResolved(const SimConfig &cfg)
{
    const char *e = std::getenv("LBP_SIM_REPLAY_MIN_ITERS");
    if (e && *e) {
        char *end = nullptr;
        const long long v = std::strtoll(e, &end, 10);
        if (end && *end == '\0' && v >= 0)
            return static_cast<std::int64_t>(v);
    }
    return cfg.replayMinIters;
}

} // namespace

VliwSim::VliwSim(const SchedProgram &code, const SimConfig &cfg)
    : VliwSim(code, cfg, nullptr)
{
}

VliwSim::VliwSim(const SchedProgram &code, const SimConfig &cfg,
                 const DecodedImage *image)
    : code_(code), cfg_(cfg), buffer_(cfg.bufferOps)
{
    LBP_ASSERT(code_.ir != nullptr, "SchedProgram without IR link");
    if (image) {
        loopTable_ = &image->loops;
        decoded_ = &image->program;
    } else {
        obs::prof::ScopedRegion profRegion(
            obs::prof::Region::Decode);
        ownedLoopTable_ =
            std::make_unique<LoopTable>(buildLoopTable(code_));
        loopTable_ = ownedLoopTable_.get();
        if (cfg_.engine == SimEngine::DECODED) {
            ownedDecoded_ = std::make_unique<DecodedProgram>(
                decodeProgram(code_, *loopTable_));
            decoded_ = ownedDecoded_.get();
        }
    }
    cfg_.replayMinIters = replayMinItersResolved(cfg_);
    if (cfg_.engine == SimEngine::DECODED && traceCacheEnabled(cfg_))
        traceCache_ = std::make_unique<TraceCache>(
            loopTable_->keys.size(),
            cfg_.predMode == PredMode::SLOT,
            predReplayEnabled(cfg_));
    slotPred_.fill(1);
}

VliwSim::~VliwSim() = default;

void
VliwSim::retireLoopStats(LoopCtx &ctx)
{
    LoopStats &ls = stats_.loops[ctx.loopId];
    ls.iterations += ctx.iterations;
    if (ctx.pipelined && ctx.fromBuffer && ctx.iterations > 1) {
        // A pipelined buffered activation of N iterations retires in
        // L + (N-1)*II cycles: subtract the already-charged
        // difference, and remove the same cycles from the loop's
        // issue classes so the stack stays closed. The loop's
        // buffer-issued cycles are at least (N-1)*L ≥ the subtraction,
        // so the uncharge never underflows the row.
        const std::uint64_t save =
            (ctx.iterations - 1) *
            static_cast<std::uint64_t>(ctx.bodyLen - ctx.ii);
        const std::uint64_t sub = std::min(stats_.cycles, save);
        stats_.cycles -= sub;
        cycleStack_.unchargeIssue(ctx.loopId, sub);
        // Of the II cycles each steady-state iteration still costs,
        // II - max(ResMII, RecMII) are scheduler slack: cycles an
        // optimal modulo scheduler could recover. Reclassify them out
        // of the issue credit (the post-subtraction balance is at
        // least (N-1)*II ≥ (N-1)*(II-minII)).
        if (ctx.minII > 0 && ctx.ii > ctx.minII) {
            cycleStack_.reclassifySlack(
                ctx.loopId,
                (ctx.iterations - 1) *
                    static_cast<std::uint64_t>(ctx.ii - ctx.minII));
        }
    }
}

const TraceCacheStats *
VliwSim::traceCacheStats() const
{
    return traceCache_ ? &traceCache_->stats() : nullptr;
}

std::int64_t
VliwSim::readOperand(const Frame &fr, const Operand &o) const
{
    switch (o.kind) {
      case OperandKind::REG:
        LBP_ASSERT(o.asReg() < fr.regs.size(), "reg out of range");
        return fr.regs[o.asReg()];
      case OperandKind::IMM:
        return o.value;
      case OperandKind::PRED:
        LBP_ASSERT(o.asPred() < fr.preds.size(), "pred out of range");
        return fr.preds[o.asPred()];
      default:
        LBP_PANIC("unreadable operand");
    }
}

bool
VliwSim::opExecutes(const Frame &fr, const Operation &op, int slot) const
{
    if (cfg_.predMode == PredMode::SLOT && op.sensitive) {
        LBP_ASSERT(slot >= 0 && slot < Machine::width,
                   "sensitive op without slot");
        return slotPred_[slot] != 0;
    }
    if (op.guard == kNoPred)
        return true;
    LBP_ASSERT(op.guard < fr.preds.size(), "guard out of range");
    return fr.preds[op.guard] != 0;
}

SimStats
VliwSim::run(const std::vector<std::int64_t> &args)
{
    const Program &prog = *code_.ir;
    mem_ = prog.memory;
    stats_ = SimStats{};
    stats_.loops = loopTable_->proto;
    cycleStack_.reset(stats_.loops.size());
    bundlesExecuted_ = 0;
    callDepth_ = 0;
    buffer_.clear();
    if (traceCache_)
        traceCache_->resetRunStats();
    slotPred_.fill(1);
    opProfCycles_.fill(0);

    obs::prof::ScopedRegion profRegion(
        cfg_.engine == SimEngine::DECODED
            ? obs::prof::Region::SimDispatch
            : obs::prof::Region::SimReference);
    auto rets = cfg_.engine == SimEngine::DECODED
                    ? callFunctionDecoded(prog.entryFunc, args)
                    : callFunction(prog.entryFunc, args);
    stats_.returns = std::move(rets);
    if (prog.checksumSize > 0) {
        stats_.checksum = fnv1a(mem_.data() + prog.checksumBase,
                                static_cast<size_t>(prog.checksumSize));
    }
    return stats_;
}

std::vector<std::int64_t>
VliwSim::callFunction(FuncId f, const std::vector<std::int64_t> &args)
{
    LBP_ASSERT(++callDepth_ < 200, "sim call stack overflow");
    const Function &fn = code_.ir->functions[f];
    const SchedFunction &sf = code_.functions[f];
    LBP_ASSERT(args.size() == fn.params.size(),
               "arg count mismatch calling ", fn.name);

    obs::TraceSink *const ts = cfg_.trace;

    Frame fr;
    fr.fn = &fn;
    fr.sf = &sf;
    fr.regs.assign(fn.nextReg, 0);
    fr.preds.assign(std::max<PredId>(fn.nextPred, 1), 0);
    for (size_t i = 0; i < args.size(); ++i)
        fr.regs[fn.params[i]] = args[i];

    std::vector<LoopCtx> loopStack;
    std::vector<LoopKey> evictedKeys;

    BlockId curBlk = fn.entry;
    size_t curBu = 0;

    // Deferred writes for the two-phase bundle commit.
    struct RegWrite { RegId r; std::int64_t v; };
    struct PredWrite { PredId p; std::uint8_t v; };
    struct SlotWrite { int s; std::uint8_t v; };
    struct MemWrite { Opcode op; std::int64_t addr; std::int64_t v; };

    /**
     * Finish a loop activation: apply pipelined-timing correction and
     * roll per-loop statistics.
     */
    auto retireLoop = [&](LoopCtx &ctx) {
        retireLoopStats(ctx);
        LBP_TRACE_EMIT(ts, obs::TraceKind::LoopExit, stats_.cycles,
                       ctx.loopId,
                       static_cast<std::int64_t>(ctx.iterations),
                       ctx.fromBuffer ? 1 : 0);
    };

    while (true) {
        LBP_ASSERT(curBlk != kNoBlock && curBlk < fn.blocks.size(),
                   "sim fell off CFG in ", fn.name);
        const BasicBlock &ibb = fn.blocks[curBlk];
        LBP_ASSERT(!ibb.dead, "sim in dead block");
        const SchedBlock &sb = sf.blocks[curBlk];
        LBP_ASSERT(sb.valid, "sim in unscheduled block ", ibb.name);

        if (curBu >= sb.bundles.size()) {
            LBP_ASSERT(ibb.fallthrough != kNoBlock,
                       "sim fell off block ", ibb.name);
            curBlk = ibb.fallthrough;
            curBu = 0;
            continue;
        }

        const Bundle &bu = sb.bundles[curBu];
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
                    tls.opsFromBuffer += bu.sizeOps();
                } else {
                    tls.opsFromCache += bu.sizeOps();
                }
            }
        }
        stats_.opsFetched += bu.sizeOps();
        if (fromBuffer)
            stats_.opsFromBuffer += bu.sizeOps();
        cycleStack_.charge(issueRow,
                           fromBuffer
                               ? obs::CycleClass::IssueFromBuffer
                               : obs::CycleClass::IssueFromMemory,
                           1);
        LBP_TRACE_EMIT(ts,
                       fromBuffer ? obs::TraceKind::BufHit
                                  : obs::TraceKind::Fetch,
                       stats_.cycles,
                       fromBuffer ? loopStack.back().loopId : -1,
                       bu.sizeOps(), curBlk);

        // ---- Phase 1: evaluate ----
        std::vector<RegWrite> regWrites;
        std::vector<PredWrite> predWrites;
        std::vector<SlotWrite> slotWrites;
        std::vector<MemWrite> memWrites;

        // Control decision (at most one branch-unit op per bundle).
        // A redirect names the next (block, bundle) pair; freeXfer
        // marks transfers with no fetch-redirect penalty (buffered
        // loop-backs and predicted counted-loop exits).
        bool redirect = false;
        BlockId nextBlk = kNoBlock;
        size_t nextBu = 0;
        bool freeXfer = false;
        // Class/row a non-free redirect is charged to (loop-control
        // transfers override the plain-branch default).
        obs::CycleClass redirCls =
            obs::CycleClass::TakenBranchPenalty;
        int redirRow = -1;
        const Operation *callOp = nullptr;
        const Operation *retOp = nullptr;
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

        for (const auto &so : bu.ops) {
            const Operation &op = so.op;
            if (op.op == Opcode::NOP)
                continue;
            if (cfg_.predMode == PredMode::SLOT && op.sensitive)
                ++stats_.opsSensitive;

            const bool exec = opExecutes(fr, op, so.slot);
            if (!exec && op.op != Opcode::PRED_DEF) {
                ++stats_.opsNullified;
                LBP_TRACE_EMIT(ts, obs::TraceKind::Nullify,
                               stats_.cycles, -1,
                               static_cast<std::int64_t>(op.op),
                               so.slot);
                if (op.isBranchOp()) {
                    ++stats_.branches;
                    LBP_TRACE_EMIT(ts, obs::TraceKind::Branch,
                                   stats_.cycles, -1, 0, 1);
                }
                continue;
            }

            switch (op.op) {
              case Opcode::PRED_DEF: {
                // The guard is an input to the define (Table 2).
                bool g;
                if (cfg_.predMode == PredMode::SLOT && op.sensitive) {
                    g = slotPred_[so.slot] != 0;
                } else if (op.guard != kNoPred) {
                    g = fr.preds[op.guard] != 0;
                } else {
                    g = true;
                }
                const std::int64_t a = readOperand(fr, op.srcs[0]);
                const std::int64_t b = readOperand(fr, op.srcs[1]);
                const bool c = evalCond(op.cond, a, b);
                auto apply = [&](PredDefKind k, const Operand &dst) {
                    const int w = predDefWrite(k, g, c);
                    if (w < 0)
                        return;
                    if (dst.isSlot()) {
                        slotWrites.push_back(
                            {dst.asSlot(),
                             static_cast<std::uint8_t>(w)});
                    } else {
                        predWrites.push_back(
                            {dst.asPred(),
                             static_cast<std::uint8_t>(w)});
                    }
                };
                apply(op.defKind0, op.dsts[0]);
                if (op.dsts.size() > 1)
                    apply(op.defKind1, op.dsts[1]);
                break;
              }

              case Opcode::LD_B:
              case Opcode::LD_H:
              case Opcode::LD_W: {
                const std::int64_t addr =
                    readOperand(fr, op.srcs[0]) +
                    readOperand(fr, op.srcs[1]);
                regWrites.push_back(
                    {op.dsts[0].asReg(),
                     loadMem(op.op, addr, op.speculative)});
                break;
              }

              case Opcode::ST_B:
              case Opcode::ST_H:
              case Opcode::ST_W: {
                const std::int64_t addr =
                    readOperand(fr, op.srcs[0]) +
                    readOperand(fr, op.srcs[1]);
                memWrites.push_back(
                    {op.op, addr, readOperand(fr, op.srcs[2])});
                break;
              }

              case Opcode::MOV:
              case Opcode::ABS:
              case Opcode::ITOF:
              case Opcode::FTOI:
                regWrites.push_back(
                    {op.dsts[0].asReg(),
                     evalUnary(op.op, readOperand(fr, op.srcs[0]))});
                break;
              case Opcode::SELECT: {
                const std::int64_t c = readOperand(fr, op.srcs[0]);
                regWrites.push_back(
                    {op.dsts[0].asReg(),
                     c ? readOperand(fr, op.srcs[1])
                       : readOperand(fr, op.srcs[2])});
                break;
              }

              case Opcode::BR:
              case Opcode::BR_WLOOP: {
                ++stats_.branches;
                const std::int64_t a = readOperand(fr, op.srcs[0]);
                const std::int64_t b = readOperand(fr, op.srcs[1]);
                const bool taken = evalCond(op.cond, a, b);
                LBP_TRACE_EMIT(ts, obs::TraceKind::Branch,
                               stats_.cycles, -1, taken ? 1 : 0, 0);
                const bool isWloopBack =
                    op.op == Opcode::BR_WLOOP && !loopStack.empty() &&
                    !loopStack.back().counted &&
                    op.target == loopStack.back().head;
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
                        takeRedirect(
                            op.target, 0, ctx.buffered,
                            obs::CycleClass::LoopControlOverhead,
                            ctx.loopId);
                        if (ctx.buffered)
                            ctx.fromBuffer = true;
                    } else {
                        takeRedirect(op.target, 0, false);
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
                        LBP_TRACE_EMIT(ts, obs::TraceKind::Penalty,
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
                break;
              }

              case Opcode::JUMP:
                ++stats_.branches;
                ++stats_.branchesTaken;
                LBP_TRACE_EMIT(ts, obs::TraceKind::Branch,
                               stats_.cycles, -1, 1, 0);
                takeRedirect(op.target, 0, false);
                break;

              case Opcode::BR_CLOOP: {
                ++stats_.branches;
                LBP_ASSERT(!loopStack.empty() &&
                               loopStack.back().counted,
                           "br.cloop without context in ", fn.name);
                LoopCtx &ctx = loopStack.back();
                ++ctx.iterations;
                if (ctx.fromBuffer)
                    ++stats_.loops[ctx.loopId].bufferIterations;
                --ctx.remaining;
                LBP_TRACE_EMIT(ts, obs::TraceKind::Branch,
                               stats_.cycles, ctx.loopId,
                               ctx.remaining > 0 ? 1 : 0, 0);
                if (ctx.remaining > 0) {
                    ++stats_.branchesTaken;
                    // Counted loop-backs of buffered loops are free;
                    // unbuffered ones redirect fetch like any taken
                    // branch (charged as loop-control overhead).
                    takeRedirect(
                        op.target, 0, ctx.buffered,
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
                break;
              }

              case Opcode::REC_CLOOP:
              case Opcode::REC_WLOOP:
              case Opcode::EXEC_CLOOP:
              case Opcode::EXEC_WLOOP: {
                LoopCtx ctx;
                ctx.key = {f, op.id};
                ctx.loopId = loopTable_->idOf(ctx.key);
                ctx.counted = op.op == Opcode::REC_CLOOP ||
                              op.op == Opcode::EXEC_CLOOP;
                if (ctx.counted) {
                    ctx.remaining = readOperand(fr, op.srcs[0]);
                    LBP_ASSERT(ctx.remaining >= 1,
                               "cloop with count ", ctx.remaining);
                }
                ctx.head = op.target;
                const SchedBlock &body = sf.blocks[op.target];
                ctx.pipelined = body.pipelined;
                ctx.bodyLen = body.lengthCycles();
                ctx.ii = body.ii;
                ctx.minII = body.minII;
                ctx.buffered = op.bufAddr >= 0;
                LoopStats &ls = stats_.loops[ctx.loopId];
                ++ls.activations;
                bool recorded = false;
                if (ctx.buffered) {
                    if (buffer_.isResident(ctx.key)) {
                        buffer_.countTableHit();
                        ctx.fromBuffer = true;
                    } else {
                        buffer_.record(ctx.key, op.bufAddr,
                                       body.imageOps(),
                                       &evictedKeys);
                        for (const LoopKey &ek : evictedKeys) {
                            ++stats_.loops[loopTable_->idOf(ek)]
                                  .evictions;
                        }
                        ++ls.recordings;
                        ctx.fromBuffer = false;
                        recorded = true;
                    }
                }
                LBP_TRACE_EMIT(ts, obs::TraceKind::LoopEnter,
                               stats_.cycles, ctx.loopId,
                               ctx.counted ? 1 : 0,
                               ctx.fromBuffer ? 1 : 0);
                if (recorded) {
                    LBP_TRACE_EMIT(ts, obs::TraceKind::LoopRecord,
                                   stats_.cycles, ctx.loopId,
                                   op.bufAddr, body.imageOps());
                }
                const bool isExecOp =
                    op.op == Opcode::EXEC_CLOOP ||
                    op.op == Opcode::EXEC_WLOOP;
                if (isExecOp) {
                    ctx.isExec = true;
                    ctx.resumeBlock = curBlk;
                    ctx.resumeBundle = curBu + 1;
                    // Executing an already-buffered loop: no fetch
                    // redirect cost; a cold entry is loop-control
                    // overhead.
                    takeRedirect(
                        op.target, 0, ctx.fromBuffer,
                        obs::CycleClass::LoopControlOverhead,
                        ctx.loopId);
                }
                loopStack.push_back(ctx);
                break;
              }

              case Opcode::CALL:
                LBP_ASSERT(!callOp, "two calls in one bundle");
                callOp = &op;
                break;

              case Opcode::RET:
                retOp = &op;
                break;

              case Opcode::NOP:
                break;

              default: {
                // Binary ALU family.
                const std::int64_t a = readOperand(fr, op.srcs[0]);
                const std::int64_t b = readOperand(fr, op.srcs[1]);
                regWrites.push_back({op.dsts[0].asReg(),
                                     evalBinary(op.op, op.cond, a, b)});
                break;
              }
            }
        }

        // ---- Phase 2: commit ----
        for (const auto &w : regWrites)
            fr.regs[w.r] = w.v;
        for (const auto &w : predWrites)
            fr.preds[w.p] = w.v;
        for (size_t i = 0; i < slotWrites.size(); ++i) {
            for (size_t j = i + 1; j < slotWrites.size(); ++j) {
                LBP_ASSERT(slotWrites[i].s != slotWrites[j].s ||
                               slotWrites[i].v == slotWrites[j].v,
                           "conflicting same-cycle slot-predicate "
                           "writes");
            }
            slotPred_[slotWrites[i].s] = slotWrites[i].v;
        }
        for (const auto &w : memWrites)
            storeMem(w.op, w.addr, w.v);

        // Call/return (serialize: the call is the bundle's transfer).
        if (retOp) {
            std::vector<std::int64_t> rets;
            for (const auto &s : retOp->srcs)
                rets.push_back(readOperand(fr, s));
            // Returning with live loop contexts would corrupt the
            // caller's hardware loop stack.
            LBP_ASSERT(loopStack.empty(),
                       "RET with live hardware-loop context in ",
                       fn.name);
            chargeRedirect(obs::CycleClass::CallReturnPenalty, -1);
            LBP_TRACE_EMIT(ts, obs::TraceKind::Penalty, stats_.cycles,
                           -1, cfg_.branchPenalty, obs::kPenaltyReturn);
            --callDepth_;
            return rets;
        }
        if (callOp) {
            std::vector<std::int64_t> cargs;
            for (const auto &s : callOp->srcs)
                cargs.push_back(readOperand(fr, s));
            chargeRedirect(obs::CycleClass::CallReturnPenalty, -1);
            LBP_TRACE_EMIT(ts, obs::TraceKind::Penalty, stats_.cycles,
                           -1, cfg_.branchPenalty, obs::kPenaltyCall);
            auto rets = callFunction(callOp->callee, cargs);
            for (size_t i = 0; i < callOp->dsts.size(); ++i)
                fr.regs[callOp->dsts[i].asReg()] = rets[i];
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
                LBP_TRACE_EMIT(ts, obs::TraceKind::Penalty,
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
