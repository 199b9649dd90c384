/**
 * @file
 * Trace build (with its static safety gating) and the replay loop.
 *
 * The replay loop is a semantic twin of the decoded executor body
 * restricted to straight-line resident-loop iterations: same two-phase
 * bundle commit (unless the build proved a bundle direct-committable),
 * same nullification and sensitivity accounting, same per-loop
 * attribution — but with the block walk, fetch-path test and
 * per-bundle counter updates hoisted out (bulk per-iteration, and for
 * counted loops bulk per-activation). Every counter it touches must
 * end a run bit-identical to the general path; the engine-differential
 * test enforces that against the reference interpreter with the cache
 * force-enabled and force-disabled.
 */

#include "sim/trace_cache.hh"

#include <algorithm>

#include "ir/semantics.hh"
#include "obs/prof.hh"
#include "sim/dispatch.hh"
#include "sim/vliw_sim.hh"
#include "support/logging.hh"

namespace lbp
{

namespace
{

/**
 * The loop's own backedge inside its head block: BR_CLOOP/BR_WLOOP
 * (by ctx.counted) targeting the head. Returns the op and its bundle
 * index, or {nullptr, -1}.
 */
struct BackedgeLoc
{
    const MicroOp *op = nullptr;
    std::int32_t bundle = -1;
};

BackedgeLoc
findBackedge(const LoopCtx &ctx, const DecodedFunction &df)
{
    const DecodedBlock &db = df.blocks[ctx.head];
    const Opcode beOp =
        ctx.counted ? Opcode::BR_CLOOP : Opcode::BR_WLOOP;
    for (std::uint32_t bi = 0; bi < db.bundleCount; ++bi) {
        const DecodedBundle &bu = df.bundles[db.firstBundle + bi];
        for (std::uint32_t oi = 0; oi < bu.count; ++oi) {
            const MicroOp &m = df.ops[bu.first + oi];
            if (m.op == beOp && m.target == ctx.head)
                return {&m, static_cast<std::int32_t>(bi)};
        }
    }
    return {};
}

} // namespace

const char *
traceBailoutReasonName(TraceBailoutReason r)
{
    switch (r) {
      case TraceBailoutReason::None: return "none";
      case TraceBailoutReason::Unknown: return "unknown";
      case TraceBailoutReason::EmptyBody: return "emptyBody";
      case TraceBailoutReason::NoHeadBackedge:
        return "noHeadBackedge";
      case TraceBailoutReason::GuardedBackedge:
        return "guardedBackedge";
      case TraceBailoutReason::SlotSensitiveBackedge:
        return "slotSensitiveBackedge";
      case TraceBailoutReason::CallInBody: return "callInBody";
      case TraceBailoutReason::MultiControlOp:
        return "multiControlOp";
      case TraceBailoutReason::NestedLoop: return "nestedLoop";
      case TraceBailoutReason::MultiBackedge:
        return "multiBackedge";
      case TraceBailoutReason::BelowEngageThreshold:
        return "belowEngageThreshold";
      case TraceBailoutReason::Count: break;
    }
    return "unknown";
}

TraceBailoutReason
classifyTraceBody(const LoopCtx &ctx, const DecodedFunction &df,
                  bool predReplay)
{
    const DecodedBlock &db = df.blocks[ctx.head];
    if (!db.valid || db.bundleCount == 0)
        return TraceBailoutReason::EmptyBody;

    // The backedge: the loop's own BR_CLOOP / BR_WLOOP back to the
    // head, non-sensitive; the strict tier also requires it
    // unguarded (a predicated backedge could be nullified
    // mid-activation, which only the predicated replay path models).
    const BackedgeLoc be = findBackedge(ctx, df);
    if (be.op == nullptr)
        return TraceBailoutReason::NoHeadBackedge;
    if (be.op->guard != kNoPred && !predReplay)
        return TraceBailoutReason::GuardedBackedge;
    if (be.op->sensitive)
        return TraceBailoutReason::SlotSensitiveBackedge;

    // Every other op up to the backedge bundle must be straight-line,
    // or — predicated tier only — a side exit the replay loop can
    // compile into a trace-exit check. Calls, nested loops and second
    // backedges stay untraceable under either tier (a second backedge
    // mutates the activation's own iteration state, which a side-exit
    // check cannot model).
    for (std::int32_t bi = 0; bi <= be.bundle; ++bi) {
        const DecodedBundle &bu = df.bundles[db.firstBundle + bi];
        for (std::uint32_t oi = 0; oi < bu.count; ++oi) {
            const MicroOp &m = df.ops[bu.first + oi];
            if (&m == be.op)
                continue;
            switch (m.handler) {
              case ExecHandler::PRED_DEF:
              case ExecHandler::LOAD:
              case ExecHandler::STORE:
              case ExecHandler::MOV:
              case ExecHandler::ABS:
              case ExecHandler::ITOF:
              case ExecHandler::FTOI:
              case ExecHandler::SELECT:
              case ExecHandler::ALU:
                break;
              case ExecHandler::CALL:
              case ExecHandler::RET:
                return TraceBailoutReason::CallInBody;
              case ExecHandler::BR:
                if (!predReplay)
                    return TraceBailoutReason::MultiControlOp;
                // A second while backedge is not a side exit: the
                // general path's BR handler gives it loop-iteration
                // semantics (only in a non-counted context).
                if (!ctx.counted && m.op == Opcode::BR_WLOOP &&
                    m.target == ctx.head)
                    return TraceBailoutReason::MultiBackedge;
                break;
              case ExecHandler::JUMP:
                if (!predReplay)
                    return TraceBailoutReason::MultiControlOp;
                break;
              case ExecHandler::BR_CLOOP:
                return predReplay
                           ? TraceBailoutReason::MultiBackedge
                           : TraceBailoutReason::MultiControlOp;
              case ExecHandler::LOOP:
                return predReplay
                           ? TraceBailoutReason::NestedLoop
                           : TraceBailoutReason::MultiControlOp;
              default:
                return TraceBailoutReason::MultiControlOp;
            }
        }
    }
    return TraceBailoutReason::None;
}

void
accumulateTraceCacheStats(TraceCacheStats &into,
                          const TraceCacheStats &from)
{
    into.builds += from.builds;
    into.replays += from.replays;
    into.bailouts += from.bailouts;
    into.replayedIterations += from.replayedIterations;
    into.replayedOps += from.replayedOps;
    into.predReplay.builds += from.predReplay.builds;
    into.predReplay.replays += from.predReplay.replays;
    into.predReplay.iterations += from.predReplay.iterations;
    into.predReplay.ops += from.predReplay.ops;
    into.predReplay.sideExits += from.predReplay.sideExits;
    into.predReplay.backedgeFallthroughs +=
        from.predReplay.backedgeFallthroughs;
    into.predReplay.midEngagements += from.predReplay.midEngagements;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(TraceBailoutReason::Count);
         ++i)
        into.bailoutsBy[i] += from.bailoutsBy[i];
    if (into.perLoop.size() < from.perLoop.size())
        into.perLoop.resize(from.perLoop.size());
    for (std::size_t id = 0; id < from.perLoop.size(); ++id) {
        const TraceCacheStats::PerLoop &src = from.perLoop[id];
        TraceCacheStats::PerLoop &dst = into.perLoop[id];
        dst.replays += src.replays;
        dst.iterations += src.iterations;
        dst.ops += src.ops;
        dst.bailouts += src.bailouts;
        if (src.lastReason != TraceBailoutReason::None)
            dst.lastReason = src.lastReason;
    }
}

TraceCache::TraceCache(std::size_t numLoops, bool slotMode,
                       bool predReplay)
    : traces_(numLoops), slotMode_(slotMode), predReplay_(predReplay)
{
    stats_.perLoop.resize(numLoops);
}

void
TraceCache::resetRunStats()
{
    TraceCacheStats fresh;
    fresh.perLoop.resize(traces_.size());
    stats_ = std::move(fresh);
}

void
TraceCache::countBailout(int loopId, TraceBailoutReason reason)
{
    ++stats_.bailouts;
    ++stats_.bailoutsBy[static_cast<std::size_t>(reason)];
    TraceCacheStats::PerLoop &pl = stats_.perLoop[loopId];
    ++pl.bailouts;
    pl.lastReason = reason;
}

LoopTrace &
TraceCache::acquire(const LoopCtx &ctx, const DecodedFunction &df)
{
    LBP_ASSERT(ctx.loopId >= 0 &&
                   static_cast<std::size_t>(ctx.loopId) <
                       traces_.size(),
               "trace cache: loop id out of range");
    LoopTrace &tr = traces_[ctx.loopId];
    if (tr.state == LoopTrace::State::Unbuilt)
        build(tr, ctx, df);
    return tr;
}

void
TraceCache::build(LoopTrace &tr, const LoopCtx &ctx,
                  const DecodedFunction &df)
{
    obs::prof::ScopedRegion profRegion(
        obs::prof::Region::TraceBuild);
    tr.wloop = !ctx.counted;

    // Static gating first: any verdict other than None is a body
    // shape the replay loop cannot reproduce bit-exactly, recorded on
    // the trace so each later declined activation knows its reason.
    const TraceBailoutReason verdict =
        classifyTraceBody(ctx, df, predReplay_);
    if (verdict != TraceBailoutReason::None) {
        tr.state = LoopTrace::State::Untraceable;
        tr.reason = verdict;
        return;
    }
    // A body the strict tier rejects but the wide tier admits needs
    // the predicated replay path (control ops stay in the stream).
    tr.predicated =
        predReplay_ &&
        classifyTraceBody(ctx, df, false) != TraceBailoutReason::None;

    const DecodedBlock &db = df.blocks[ctx.head];
    const BackedgeLoc be = findBackedge(ctx, df);
    const MicroOp *const backedge = be.op;
    const std::int32_t beBundle = be.bundle;

    // Flatten bundles 0..backedge, baking the static facts replay
    // uses: can the op ever be nullified, and can the bundle commit
    // writes in place (no op reads register/predicate/slot state an
    // earlier same-bundle op writes; no load after a store).
    for (std::int32_t bi = 0; bi <= beBundle; ++bi) {
        const DecodedBundle &bu = df.bundles[db.firstBundle + bi];
        TraceBundle tb;
        tb.first = static_cast<std::uint32_t>(tr.ops.size());
        tb.sizeOps = bu.sizeOps;

        std::vector<std::int32_t> wRegs, wPreds, wSlots;
        bool sawStore = false;
        int slotWrites = 0;
        bool direct = true;
        auto wrote = [](const std::vector<std::int32_t> &v,
                        std::int32_t x) {
            return std::find(v.begin(), v.end(), x) != v.end();
        };
        auto readsEarlierWrite = [&](const MicroOp &m) {
            if (m.guard != kNoPred && wrote(wPreds, m.guard))
                return true;
            if (slotMode_ && m.sensitive && wrote(wSlots, m.slot))
                return true;
            for (const XSrc &s : m.src) {
                if (s.kind == XSrc::REG &&
                    wrote(wRegs, static_cast<std::int32_t>(s.idx)))
                    return true;
                if (s.kind == XSrc::PRED &&
                    wrote(wPreds, static_cast<std::int32_t>(s.idx)))
                    return true;
            }
            return m.handler == ExecHandler::LOAD && sawStore;
        };

        for (std::uint32_t oi = 0; oi < bu.count; ++oi) {
            const MicroOp &m = df.ops[bu.first + oi];
            if (&m == backedge) {
                if (!tr.predicated)
                    continue;
                // Predicated traces keep the backedge in the stream
                // so its guard and condition read live bundle-order
                // state; readsEarlierWrite covers its operands the
                // same way it covers every other op.
                tr.beOpIndex =
                    static_cast<std::uint32_t>(tr.ops.size());
            }
            if (readsEarlierWrite(m))
                direct = false;
            if (m.handler == ExecHandler::PRED_DEF) {
                auto recDst = [&](PredDefKind k, std::uint8_t kind,
                                  std::int32_t idx) {
                    if (k == PredDefKind::NONE || kind == 0)
                        return;
                    if (kind == 2) {
                        wSlots.push_back(idx);
                        ++slotWrites;
                    } else {
                        wPreds.push_back(idx);
                    }
                };
                recDst(m.k0, m.pdKind0, m.pdIdx0);
                recDst(m.k1, m.pdKind1, m.pdIdx1);
            } else if (m.handler == ExecHandler::STORE) {
                sawStore = true;
            } else if (m.dstReg >= 0) {
                wRegs.push_back(m.dstReg);
            }
            MicroOp copy = m;
            copy.alwaysExec = m.guard == kNoPred &&
                              !(slotMode_ && m.sensitive);
            if (slotMode_ && m.sensitive) {
                ++tr.sensitivePerIter;
                ++tb.sensOps;
            }
            tr.ops.push_back(copy);
        }
        // Two slot writes in one cycle trip a conflict assert on the
        // two-phase path; keep that diagnosable.
        if (slotWrites >= 2)
            direct = false;
        // While backedges read their condition at the head of the
        // bundle in replay; that snapshot is only exact if nothing in
        // the bundle commits to the condition sources before it.
        // Predicated traces keep the backedge in stream order, where
        // readsEarlierWrite already covered its operands.
        if (bi == beBundle && tr.wloop && !tr.predicated) {
            for (const XSrc *s :
                 {&backedge->src[0], &backedge->src[1]}) {
                if ((s->kind == XSrc::REG &&
                     wrote(wRegs,
                           static_cast<std::int32_t>(s->idx))) ||
                    (s->kind == XSrc::PRED &&
                     wrote(wPreds,
                           static_cast<std::int32_t>(s->idx))))
                    direct = false;
            }
        }
        tb.count =
            static_cast<std::uint32_t>(tr.ops.size()) - tb.first;
        tb.direct = direct;
        tr.bundles.push_back(tb);
        tr.opsPerIter += static_cast<std::uint64_t>(bu.sizeOps);
    }

    tr.beCond = backedge->cond;
    tr.beSrc0 = backedge->src[0];
    tr.beSrc1 = backedge->src[1];
    tr.resumeBundle = static_cast<std::uint32_t>(beBundle + 1);
    tr.bundlesPerIter = static_cast<std::uint64_t>(beBundle) + 1;
    tr.state = LoopTrace::State::Ready;
    ++stats_.builds;
    if (tr.predicated)
        ++stats_.predReplay.builds;
}

ReplayResult
VliwSim::replayResident(LoopCtx &ctx, const DecodedFunction &df,
                        std::int64_t *regs, std::uint8_t *preds,
                        std::size_t startBundle)
{
    TraceCache &tc = *traceCache_;
    LoopTrace &tr = tc.acquire(ctx, df);
    if (tr.state != LoopTrace::State::Ready) {
        // Once per activation, not once per iteration arrival.
        if (!ctx.traceDeclined) {
            ctx.traceDeclined = true;
            tc.countBailout(ctx.loopId, tr.reason);
        }
        return {};
    }
    if (startBundle != 0 &&
        (!tr.predicated || startBundle >= tr.bundles.size())) {
        // Arrival point outside the trace extent — or a fast-tier
        // trace, which replays whole iterations from bundle 0 only.
        // Not a bailout: the general path runs this bundle and the
        // gate retries at the next head-block arrival.
        return {};
    }

    obs::prof::ScopedRegion profRegion(
        obs::prof::Region::SimReplay);
    TraceCacheStats &tcs = tc.stats();
    ++tcs.replays;
    LoopStats &ls = stats_.loops[ctx.loopId];
    const bool slotMode = tc.slotMode();
    std::uint8_t *const slotPred = slotPred_.data();

    auto readSrc = [&](const XSrc &s) -> std::int64_t {
        if (s.kind == XSrc::REG)
            return regs[s.idx];
        if (s.kind == XSrc::IMM)
            return s.imm;
        return preds[s.idx];
    };

    // Deferred writes for bundles the build could not prove
    // direct-committable — same shapes as the executor body.
    struct RegWrite { std::int32_t r; std::int64_t v; };
    struct PredWrite { std::int32_t p; std::uint8_t v; };
    struct SlotWrite { std::int32_t s; std::uint8_t v; };
    struct MemWrite { Opcode op; std::int64_t addr; std::int64_t v; };
    RegWrite regW[Machine::width];
    PredWrite predW[2 * Machine::width];
    SlotWrite slotW[2 * Machine::width];
    MemWrite memW[Machine::width];

    const MicroOp *const opBase = tr.ops.data();
    const TraceBundle *const buBase = tr.bundles.data();
    const std::size_t nBundles = tr.bundles.size();
    const bool wloop = tr.wloop;
    const bool predicated = tr.predicated;
    const std::size_t beIdx = tr.beOpIndex;

    // While-backedge condition operands, snapshotted at the head of
    // the backedge bundle (exactness guaranteed by the build). Fast
    // tier only: predicated traces evaluate the backedge op in
    // stream order instead.
    std::int64_t beA = 0, beB = 0;

    // Per-bundle control outcome. Only predicated traces carry
    // control ops, so the fast tier never sets these; the predicated
    // driver resets them before each bundle.
    bool sawControl = false;
    bool backTaken = false;
    bool backFell = false;
    bool countedExit = false;
    bool wloopExit = false;
    bool sideTaken = false;
    BlockId sideTgt = kNoBlock;

    auto execBundles = [&](std::size_t biBegin, std::size_t biEnd) {
        LBP_DISPATCH_TABLE();
        for (std::size_t bi = biBegin; bi < biEnd; ++bi) {
            const TraceBundle &tb = buBase[bi];
            if (wloop && !predicated && bi + 1 == nBundles) {
                beA = readSrc(tr.beSrc0);
                beB = readSrc(tr.beSrc1);
            }
            const bool direct = tb.direct;
            int nRegW = 0, nPredW = 0, nSlotW = 0, nMemW = 0;
            // Direct bundles commit in place; the rest defer to the
            // bundle end like the executor body.
            auto writeReg = [&](std::int32_t r, std::int64_t v) {
                if (direct)
                    regs[r] = v;
                else
                    regW[nRegW++] = {r, v};
            };

            for (const MicroOp *m = opBase + tb.first,
                               *const end = m + tb.count;
                 m != end; ++m) {
                if (!m->alwaysExec) {
                    bool exec;
                    if (slotMode && m->sensitive)
                        exec = slotPred[m->slot] != 0;
                    else
                        exec = m->guard == kNoPred ||
                               preds[m->guard] != 0;
                    if (!exec &&
                        m->handler != ExecHandler::PRED_DEF) {
                        ++stats_.opsNullified;
                        // Nullified branches still count as branches
                        // on the general path (isBranch covers BR /
                        // JUMP / BR_CLOOP / BR_WLOOP); a nullified
                        // backedge means the iteration falls through
                        // it and the activation stays live.
                        if (predicated &&
                            (m->handler == ExecHandler::BR ||
                             m->handler == ExecHandler::JUMP ||
                             m->handler == ExecHandler::BR_CLOOP)) {
                            ++stats_.branches;
                            if (static_cast<std::size_t>(
                                    m - opBase) == beIdx)
                                backFell = true;
                        }
                        continue;
                    }
                }

                LBP_DISPATCH(m->handler) {
                  LBP_HANDLER(PRED_DEF) {
                    bool g;
                    if (m->alwaysExec) {
                        g = true;
                    } else if (slotMode && m->sensitive) {
                        g = slotPred[m->slot] != 0;
                    } else if (m->guard != kNoPred) {
                        g = preds[m->guard] != 0;
                    } else {
                        g = true;
                    }
                    const std::int64_t a = readSrc(m->src[0]);
                    const std::int64_t b = readSrc(m->src[1]);
                    const bool c = evalCond(m->cond, a, b);
                    auto apply = [&](PredDefKind k,
                                     std::uint8_t dKind,
                                     std::int32_t dIdx) {
                        const int w = predDefWrite(k, g, c);
                        if (w < 0 || dKind == 0)
                            return;
                        const auto v = static_cast<std::uint8_t>(w);
                        if (dKind == 2) {
                            if (direct)
                                slotPred[dIdx] = v;
                            else
                                slotW[nSlotW++] = {dIdx, v};
                        } else {
                            if (direct)
                                preds[dIdx] = v;
                            else
                                predW[nPredW++] = {dIdx, v};
                        }
                    };
                    apply(m->k0, m->pdKind0, m->pdIdx0);
                    apply(m->k1, m->pdKind1, m->pdIdx1);
                    LBP_NEXT_OP;
                  }

                  LBP_HANDLER(LOAD) {
                    const std::int64_t addr =
                        readSrc(m->src[0]) + readSrc(m->src[1]);
                    writeReg(m->dstReg,
                             loadMem(m->op, addr, m->speculative));
                    LBP_NEXT_OP;
                  }

                  LBP_HANDLER(STORE) {
                    const std::int64_t addr =
                        readSrc(m->src[0]) + readSrc(m->src[1]);
                    const std::int64_t v = readSrc(m->src[2]);
                    if (direct)
                        storeMem(m->op, addr, v);
                    else
                        memW[nMemW++] = {m->op, addr, v};
                    LBP_NEXT_OP;
                  }

                  LBP_HANDLER(MOV) {
                    writeReg(m->dstReg, readSrc(m->src[0]));
                    LBP_NEXT_OP;
                  }
                  LBP_HANDLER(ABS) {
                    writeReg(m->dstReg, evalUnary(Opcode::ABS,
                                                  readSrc(m->src[0])));
                    LBP_NEXT_OP;
                  }
                  LBP_HANDLER(ITOF) {
                    writeReg(m->dstReg, evalUnary(Opcode::ITOF,
                                                  readSrc(m->src[0])));
                    LBP_NEXT_OP;
                  }
                  LBP_HANDLER(FTOI) {
                    writeReg(m->dstReg, evalUnary(Opcode::FTOI,
                                                  readSrc(m->src[0])));
                    LBP_NEXT_OP;
                  }
                  LBP_HANDLER(SELECT) {
                    const std::int64_t c = readSrc(m->src[0]);
                    writeReg(m->dstReg, c ? readSrc(m->src[1])
                                          : readSrc(m->src[2]));
                    LBP_NEXT_OP;
                  }

                  LBP_HANDLER(ALU) {
                    const std::int64_t a = readSrc(m->src[0]);
                    const std::int64_t b = readSrc(m->src[1]);
                    writeReg(m->dstReg, evalBinary(m->op, m->cond, a, b));
                    LBP_NEXT_OP;
                  }

                  // Control ops survive the build gating only in
                  // predicated traces: the activation's own backedge
                  // (at beIdx) plus side exits. Each mirrors the
                  // general path's handler semantics exactly; taken
                  // transfers are resolved by the driver after the
                  // bundle commits, like the general path's
                  // end-of-bundle redirect.
                  LBP_HANDLER(BR) {
                    ++stats_.branches;
                    const std::int64_t a = readSrc(m->src[0]);
                    const std::int64_t b = readSrc(m->src[1]);
                    const bool taken = evalCond(m->cond, a, b);
                    if (wloop &&
                        static_cast<std::size_t>(m - opBase) ==
                            beIdx) {
                        ++ctx.iterations;
                        ++ls.bufferIterations;
                        if (taken) {
                            ++stats_.branchesTaken;
                            LBP_ASSERT(!sawControl,
                                       "two control transfers in one "
                                       "bundle");
                            sawControl = true;
                            backTaken = true; // free buffered loop-back
                        } else {
                            wloopExit = true; // caller pays the penalty
                        }
                    } else if (taken) {
                        ++stats_.branchesTaken;
                        LBP_ASSERT(!sawControl,
                                   "two control transfers in one "
                                   "bundle");
                        sawControl = true;
                        sideTaken = true;
                        sideTgt = m->target;
                    }
                    LBP_NEXT_OP;
                  }

                  LBP_HANDLER(JUMP) {
                    ++stats_.branches;
                    ++stats_.branchesTaken;
                    LBP_ASSERT(!sawControl,
                               "two control transfers in one bundle");
                    sawControl = true;
                    sideTaken = true;
                    sideTgt = m->target;
                    LBP_NEXT_OP;
                  }

                  LBP_HANDLER(BR_CLOOP) {
                    // Only the loop's own backedge survives gating.
                    ++stats_.branches;
                    ++ctx.iterations;
                    ++ls.bufferIterations;
                    --ctx.remaining;
                    if (ctx.remaining > 0) {
                        ++stats_.branchesTaken;
                        LBP_ASSERT(!sawControl,
                                   "two control transfers in one "
                                   "bundle");
                        sawControl = true;
                        backTaken = true; // free buffered loop-back
                    } else {
                        countedExit = true; // predicted fall-through
                    }
                    LBP_NEXT_OP;
                  }

                  LBP_HANDLER(LOOP)
                  LBP_HANDLER(CALL)
                  LBP_HANDLER(RET) {
                    LBP_PANIC("control op in replay trace");
                  }
                  LBP_BAD_HANDLER();
                }
                LBP_DISPATCH_END;
            }

            if (!direct) {
                for (int i = 0; i < nRegW; ++i)
                    regs[regW[i].r] = regW[i].v;
                for (int i = 0; i < nPredW; ++i)
                    preds[predW[i].p] = predW[i].v;
                for (int i = 0; i < nSlotW; ++i) {
                    for (int j = i + 1; j < nSlotW; ++j) {
                        LBP_ASSERT(slotW[i].s != slotW[j].s ||
                                       slotW[i].v == slotW[j].v,
                                   "conflicting same-cycle slot-"
                                   "predicate writes");
                    }
                    slotPred[slotW[i].s] = slotW[i].v;
                }
                for (int i = 0; i < nMemW; ++i)
                    storeMem(memW[i].op, memW[i].addr, memW[i].v);
            }
        }
    };

    std::uint64_t iters = 0;
    std::uint64_t opsIssued = 0;
    ReplayOutcome outcome;

    if (predicated) {
        // Predicated tier: per-bundle driver. No bulk accounting —
        // any bundle may end the engagement (taken side exit,
        // backedge exit, nullified backedge), so every counter the
        // general path moves per head-block bundle moves here per
        // trace bundle, in the same order.
        ++tcs.predReplay.replays;
        if (startBundle != 0)
            ++tcs.predReplay.midEngagements;
        outcome = ReplayOutcome::NotEngaged;
        std::size_t bi = startBundle;
        for (;;) {
            const TraceBundle &tb = buBase[bi];
            LBP_ASSERT(++bundlesExecuted_ <= cfg_.maxBundles,
                       "bundle budget exceeded");
            ++stats_.bundles;
            ++stats_.cycles;
            cycleStack_.charge(ctx.loopId,
                               obs::CycleClass::IssueFromTraceReplay,
                               1);
            stats_.opsFetched += tb.sizeOps;
            stats_.opsFromBuffer += tb.sizeOps;
            ls.opsFromBuffer += tb.sizeOps;
            if (slotMode)
                stats_.opsSensitive += tb.sensOps;
            opsIssued += static_cast<std::uint64_t>(tb.sizeOps);

            sawControl = false;
            backTaken = false;
            backFell = false;
            countedExit = false;
            wloopExit = false;
            sideTaken = false;
            execBundles(bi, bi + 1);

            if (sideTaken) {
                // The caller mirrors the general path's end-of-bundle
                // redirect (context cancellation + taken-branch
                // penalty); a same-bundle backedge exit retires the
                // activation first (ctxDone below).
                if (countedExit || wloopExit)
                    ++iters;
                outcome = ReplayOutcome::SideExit;
                break;
            }
            if (backTaken) {
                ++iters;
                bi = 0;
                continue;
            }
            if (countedExit) {
                ++iters;
                outcome = ReplayOutcome::CountedDone;
                break;
            }
            if (wloopExit) {
                ++iters;
                outcome = ReplayOutcome::WloopExit;
                break;
            }
            if (backFell) {
                outcome = ReplayOutcome::BackedgeFellThrough;
                break;
            }
            ++bi;
            LBP_ASSERT(bi < nBundles, "replay ran past trace extent");
        }
        if (outcome == ReplayOutcome::SideExit)
            ++tcs.predReplay.sideExits;
        else if (outcome == ReplayOutcome::BackedgeFellThrough)
            ++tcs.predReplay.backedgeFallthroughs;
        tcs.predReplay.iterations += iters;
        tcs.predReplay.ops += opsIssued;
    } else if (!wloop) {
        // Counted: the iteration count is known now, so every
        // per-iteration counter is applied in one shot and the hot
        // loop below runs pure op semantics.
        const std::uint64_t n =
            static_cast<std::uint64_t>(ctx.remaining);
        bundlesExecuted_ += n * tr.bundlesPerIter;
        LBP_ASSERT(bundlesExecuted_ <= cfg_.maxBundles,
                   "bundle budget exceeded");
        stats_.bundles += n * tr.bundlesPerIter;
        stats_.cycles += n * tr.bundlesPerIter;
        cycleStack_.charge(ctx.loopId,
                           obs::CycleClass::IssueFromTraceReplay,
                           n * tr.bundlesPerIter);
        stats_.opsFetched += n * tr.opsPerIter;
        stats_.opsFromBuffer += n * tr.opsPerIter;
        ls.opsFromBuffer += n * tr.opsPerIter;
        if (slotMode)
            stats_.opsSensitive += n * tr.sensitivePerIter;
        stats_.branches += n;
        stats_.branchesTaken += n - 1;
        ctx.iterations += n;
        ls.bufferIterations += n;
        ctx.remaining = 0;
        for (std::uint64_t it = 0; it < n; ++it)
            execBundles(0, nBundles);
        iters = n;
        opsIssued = n * tr.opsPerIter;
        outcome = ReplayOutcome::CountedDone;
    } else {
        outcome = ReplayOutcome::WloopExit;
        for (;;) {
            bundlesExecuted_ += tr.bundlesPerIter;
            LBP_ASSERT(bundlesExecuted_ <= cfg_.maxBundles,
                       "bundle budget exceeded");
            stats_.bundles += tr.bundlesPerIter;
            stats_.cycles += tr.bundlesPerIter;
            cycleStack_.charge(ctx.loopId,
                               obs::CycleClass::IssueFromTraceReplay,
                               tr.bundlesPerIter);
            stats_.opsFetched += tr.opsPerIter;
            stats_.opsFromBuffer += tr.opsPerIter;
            ls.opsFromBuffer += tr.opsPerIter;
            if (slotMode)
                stats_.opsSensitive += tr.sensitivePerIter;
            execBundles(0, nBundles);
            ++iters;
            ++stats_.branches;
            ++ctx.iterations;
            ++ls.bufferIterations;
            if (!evalCond(tr.beCond, beA, beB))
                break;  // while exit: the caller pays the penalty
            ++stats_.branchesTaken;
        }
        opsIssued = iters * tr.opsPerIter;
    }

    tcs.replayedIterations += iters;
    tcs.replayedOps += opsIssued;
    TraceCacheStats::PerLoop &pl = tcs.perLoop[ctx.loopId];
    ++pl.replays;
    pl.iterations += iters;
    pl.ops += opsIssued;

    ReplayResult rr;
    rr.outcome = outcome;
    rr.resumeBundle = tr.resumeBundle;
    rr.sideTarget = sideTgt;
    rr.ctxDone = countedExit || wloopExit;
    rr.whileExit = wloopExit;
    return rr;
}

} // namespace lbp
