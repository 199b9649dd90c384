#include "transform/if_convert.hh"

#include <algorithm>
#include <map>

#include "analysis/loop_info.hh"
#include "obs/loop_report.hh"
#include "support/logging.hh"

namespace lbp
{

namespace
{

/** An in-loop CFG edge with its branch condition. */
struct InEdge
{
    BlockId from = kNoBlock;
    bool conditional = false;
    bool onTaken = false;       ///< condition sense (taken vs fall)
};

/**
 * Is every op in the block convertible? Returns LoopReason::None when
 * eligible, otherwise the rejection reason.
 */
obs::LoopReason
blockEligible(const BasicBlock &bb)
{
    for (const auto &op : bb.ops) {
        switch (op.op) {
          case Opcode::CALL:
          case Opcode::RET:
            return obs::LoopReason::HasCall;
          case Opcode::REC_CLOOP:
          case Opcode::REC_WLOOP:
          case Opcode::EXEC_CLOOP:
          case Opcode::EXEC_WLOOP:
          case Opcode::BR_CLOOP:
          case Opcode::BR_WLOOP:
            return obs::LoopReason::BadShape;
          default:
            break;
        }
        // Pre-existing guards inside a candidate region are not
        // combined (would need predicate AND chains).
        if (op.hasGuard())
            return obs::LoopReason::AlreadyPredicated;
        // Only terminating branches are supported as input shapes.
        if ((op.op == Opcode::BR || op.op == Opcode::JUMP) &&
            &op != &bb.ops.back()) {
            return obs::LoopReason::BadShape;
        }
    }
    return obs::LoopReason::None;
}

/**
 * Try to if-convert one loop; returns true if the CFG changed.
 */
bool
convertLoop(Function &fn, const Loop &loop,
            const IfConvertOptions &opts, IfConvertStats &st,
            obs::LoopDecisionLog *log)
{
    if (loop.blocks.size() < 2)
        return false; // already simple — nothing to attempt

    int total_ops = 0;
    for (BlockId b : loop.blocks)
        total_ops += fn.blocks[b].sizeOps();

    auto reject = [&](obs::LoopReason r, std::string note = "") {
        if (log) {
            obs::LoopAttempt a;
            a.transform = "if_convert";
            a.reason = r;
            a.opsBefore = a.opsAfter = total_ops;
            a.note = std::move(note);
            log->addAttempt(fn.name + "/" +
                                fn.blocks[loop.header].name,
                            std::move(a));
        }
        return false;
    };

    if (loop.latches.size() != 1)
        return reject(obs::LoopReason::MultiLatch);
    const BlockId latch = loop.latches[0];

    for (BlockId b : loop.blocks) {
        const obs::LoopReason why = blockEligible(fn.blocks[b]);
        if (why != obs::LoopReason::None)
            return reject(why, fn.blocks[b].name);
    }
    if (total_ops > opts.maxOps) {
        return reject(obs::LoopReason::TooLarge,
                      std::to_string(total_ops) + " > " +
                          std::to_string(opts.maxOps) + " ops");
    }

    // Topological order of body blocks with the backedge removed:
    // reuse function RPO restricted to loop blocks (header first).
    std::vector<BlockId> topo;
    for (BlockId b : fn.reversePostorder()) {
        if (loop.contains(b))
            topo.push_back(b);
    }
    if (topo.empty() || topo.front() != loop.header)
        return reject(obs::LoopReason::Irreducible);
    if (topo.size() != loop.blocks.size())
        return reject(obs::LoopReason::Irreducible);
    // The latch must be last in topological order; otherwise blocks
    // after the latch would need the backedge condition folded in.
    if (topo.back() != latch)
        return reject(obs::LoopReason::BadShape, "latch not last");

    // Gather in-loop forward edges per target block.
    std::map<BlockId, std::vector<InEdge>> inEdges;
    std::map<BlockId, std::vector<BlockId>> fwdSuccs;
    auto addEdge = [&](BlockId from, BlockId to, bool conditional,
                       bool onTaken) {
        if (!loop.contains(to) || to == loop.header)
            return;
        inEdges[to].push_back({from, conditional, onTaken});
        fwdSuccs[from].push_back(to);
    };

    for (BlockId b : topo) {
        const BasicBlock &bb = fn.blocks[b];
        const Operation *term = bb.terminator();
        if (term && term->op == Opcode::BR) {
            addEdge(b, term->target, true, true);
            if (bb.fallthrough != kNoBlock)
                addEdge(b, bb.fallthrough, true, false);
        } else if (term && term->op == Opcode::JUMP) {
            addEdge(b, term->target, false, false);
        } else if (bb.fallthrough != kNoBlock) {
            addEdge(b, bb.fallthrough, false, false);
        }
    }

    // alwaysReached[b]: every header->latch path through the forward
    // (acyclic, in-loop) graph passes through b. Such blocks execute
    // on every non-exiting iteration and need no guard — side exits
    // transfer control away instead of falsifying their predicate.
    auto reachesLatchAvoiding = [&](BlockId avoid) {
        if (avoid == loop.header || avoid == latch)
            return false; // endpoints are trivially on every path
        std::vector<char> seen(fn.blocks.size(), 0);
        std::vector<BlockId> work{loop.header};
        seen[loop.header] = 1;
        while (!work.empty()) {
            BlockId b = work.back();
            work.pop_back();
            if (b == latch)
                return true;
            auto it = fwdSuccs.find(b);
            if (it == fwdSuccs.end())
                continue;
            for (BlockId s : it->second) {
                if (s != avoid && !seen[s]) {
                    seen[s] = 1;
                    work.push_back(s);
                }
            }
        }
        return false;
    };
    std::map<BlockId, bool> always;
    for (BlockId b : topo)
        always[b] = !reachesLatchAvoiding(b);

    // Assign a predicate to each block.
    std::map<BlockId, PredId> predOf;
    std::vector<PredId> needClear;
    for (BlockId b : topo) {
        if (b == loop.header || always[b]) {
            predOf[b] = kNoPred;
            continue;
        }
        auto it = inEdges.find(b);
        LBP_ASSERT(it != inEdges.end() && !it->second.empty(),
                   "unreachable loop block ", fn.blocks[b].name);
        const auto &edges = it->second;
        if (edges.size() == 1 && !edges[0].conditional) {
            // Single unconditional predecessor: share its predicate.
            predOf[b] = predOf.at(edges[0].from);
        } else {
            PredId p = fn.newPred();
            predOf[b] = p;
            if (edges.size() > 1)
                needClear.push_back(p);
        }
    }

    // Build the merged operation list.
    std::vector<Operation> merged;
    auto emit = [&](Operation op) -> Operation & {
        if (op.id == 0)
            op.id = fn.newOpId();
        merged.push_back(std::move(op));
        return merged.back();
    };

    // Clear merge-point predicates at the top of each iteration.
    for (PredId p : needClear) {
        emit(makePredDef(PredDefKind::UT, p, PredDefKind::NONE, 0,
                         CmpCond::FALSE_, Operand::imm(0),
                         Operand::imm(0)));
        ++st.predDefsInserted;
    }

    BlockId loopExit = kNoBlock; // fallthrough after the loop
    bool backedgeEmitted = false;

    for (BlockId b : topo) {
        const BasicBlock &bb = fn.blocks[b];
        const PredId myPred = predOf.at(b);
        const Operation *term = bb.terminator();
        const size_t nBody =
            term ? bb.ops.size() - 1 : bb.ops.size();

        for (size_t i = 0; i < nBody; ++i) {
            Operation op = bb.ops[i];
            op.guard = myPred;
            emit(std::move(op));
        }

        // Unconditional-edge predicate contribution to a multi-pred
        // in-loop target whose predicate differs from ours.
        auto contribute = [&](BlockId tgt) {
            const PredId pt = predOf.at(tgt);
            if (pt == kNoPred || pt == myPred)
                return;
            Operation d = makePredDef(PredDefKind::OT, pt,
                                      PredDefKind::NONE, 0,
                                      CmpCond::TRUE_, Operand::imm(0),
                                      Operand::imm(0));
            d.guard = myPred;
            emit(std::move(d));
            ++st.predDefsInserted;
        };

        const bool isLatch = (b == latch);

        if (!term) {
            LBP_ASSERT(bb.fallthrough != kNoBlock,
                       "loop block without successor");
            LBP_ASSERT(!isLatch, "latch without terminator");
            if (loop.contains(bb.fallthrough) &&
                bb.fallthrough != loop.header) {
                contribute(bb.fallthrough);
            }
            continue;
        }

        if (term->op == Opcode::JUMP) {
            const BlockId tgt = term->target;
            if (tgt == loop.header) {
                // Unconditional backedge (exits happen via side
                // exits earlier in the body).
                LBP_ASSERT(isLatch, "backedge from non-latch");
                Operation j = makeJump(loop.header);
                j.guard = myPred;
                emit(std::move(j));
                backedgeEmitted = true;
            } else if (!loop.contains(tgt)) {
                // Unconditional exit from this path: a side exit
                // guarded on the block predicate.
                Operation j = makeJump(tgt);
                j.guard = myPred;
                emit(std::move(j));
                ++st.sideExits;
            } else {
                contribute(tgt);
            }
            continue;
        }

        LBP_ASSERT(term->op == Opcode::BR, "unexpected terminator");
        const BlockId tTgt = term->target;
        const BlockId fTgt = bb.fallthrough;
        LBP_ASSERT(fTgt != kNoBlock, "conditional without fallthrough");

        const bool tIn = loop.contains(tTgt) && tTgt != loop.header;
        const bool fIn = loop.contains(fTgt) && fTgt != loop.header;
        const bool tBack = tTgt == loop.header;
        const bool fBack = fTgt == loop.header;

        if (isLatch && (tBack || fBack)) {
            // Bottom-test backedge. Normalize so the taken direction
            // loops back; the other direction must leave the loop.
            CmpCond c = term->cond;
            BlockId exit_tgt;
            if (tBack) {
                if (fIn) // latch falls into the body
                    return reject(obs::LoopReason::BadShape,
                                  "latch falls into body");
                exit_tgt = fTgt;
            } else {
                if (tIn)
                    return reject(obs::LoopReason::BadShape,
                                  "latch falls into body");
                c = negateCond(c);
                exit_tgt = tTgt;
                // The original taken target becomes a side exit; the
                // normalized branch falls through to it. Emit an
                // explicit jump after the backedge below.
            }
            Operation back = makeBr(c, term->srcs[0], term->srcs[1],
                                    loop.header);
            back.guard = myPred;
            emit(std::move(back));
            backedgeEmitted = true;
            if (tBack) {
                loopExit = exit_tgt;
            } else {
                // Fall out of the loop to the original taken target.
                loopExit = exit_tgt;
            }
            continue;
        }

        // General conditional inside the body. Compute destination
        // predicates with a single dual-destination define where
        // possible; directions that leave the loop become side exits.
        PredDefKind kT = PredDefKind::NONE, kF = PredDefKind::NONE;
        PredId pT = 0, pF = 0;
        PredId exitPredT = kNoPred, exitPredF = kNoPred;

        if (tIn) {
            const PredId pt = predOf.at(tTgt);
            if (pt != kNoPred) {
                pT = pt;
                kT = inEdges.at(tTgt).size() == 1 ? PredDefKind::UT
                                                  : PredDefKind::OT;
            }
        } else {
            LBP_ASSERT(!tBack, "non-latch backedge");
            exitPredT = fn.newPred();
            kT = PredDefKind::UT;
            pT = exitPredT;
        }
        if (fIn) {
            const PredId pf = predOf.at(fTgt);
            if (pf != kNoPred) {
                pF = pf;
                kF = inEdges.at(fTgt).size() == 1 ? PredDefKind::UF
                                                  : PredDefKind::OF;
            }
        } else {
            LBP_ASSERT(!fBack, "non-latch backedge (fall)");
            exitPredF = fn.newPred();
            kF = PredDefKind::UF;
            pF = exitPredF;
        }

        if (kT != PredDefKind::NONE && kF != PredDefKind::NONE) {
            Operation d = makePredDef(kT, pT, kF, pF, term->cond,
                                      term->srcs[0], term->srcs[1]);
            d.guard = myPred;
            emit(std::move(d));
            ++st.predDefsInserted;
        } else if (kT != PredDefKind::NONE) {
            Operation d = makePredDef(kT, pT, PredDefKind::NONE, 0,
                                      term->cond, term->srcs[0],
                                      term->srcs[1]);
            d.guard = myPred;
            emit(std::move(d));
            ++st.predDefsInserted;
        } else if (kF != PredDefKind::NONE) {
            Operation d = makePredDef(kF, pF, PredDefKind::NONE, 0,
                                      term->cond, term->srcs[0],
                                      term->srcs[1]);
            d.guard = myPred;
            emit(std::move(d));
            ++st.predDefsInserted;
        }
        if (exitPredT != kNoPred) {
            Operation j = makeJump(tTgt);
            j.guard = exitPredT;
            emit(std::move(j));
            ++st.sideExits;
        }
        if (exitPredF != kNoPred) {
            Operation j = makeJump(fTgt);
            j.guard = exitPredF;
            emit(std::move(j));
            ++st.sideExits;
        }
    }

    if (!backedgeEmitted) // should not happen; be safe
        return reject(obs::LoopReason::BadShape, "no backedge");

    // Install the hyperblock into the header; kill the other blocks.
    BasicBlock &hb = fn.blocks[loop.header];
    hb.ops = std::move(merged);
    hb.fallthrough = loopExit;
    hb.isHyperblock = true;
    if (log) {
        obs::LoopAttempt a;
        a.transform = "if_convert";
        a.applied = true;
        a.opsBefore = total_ops;
        a.opsAfter = hb.sizeOps();
        log->addAttempt(fn.name + "/" + hb.name, std::move(a));
    }
    for (BlockId b : topo) {
        if (b == loop.header)
            continue;
        fn.blocks[b].kill();
        ++st.blocksMerged;
    }
    ++st.loopsConverted;
    return true;
}

} // namespace

IfConvertStats
ifConvertLoops(Function &fn, const IfConvertOptions &opts,
               obs::LoopDecisionLog *log)
{
    IfConvertStats st;
    // Convert one loop at a time, innermost first, recomputing the
    // loop forest after each change.
    bool changed = true;
    int guard = 0;
    while (changed && guard++ < 200) {
        changed = false;
        LoopInfo li(fn);
        std::vector<int> order;
        for (const auto &l : li.loops())
            order.push_back(l.index);
        std::sort(order.begin(), order.end(), [&](int a, int b) {
            return li.loops()[a].depth > li.loops()[b].depth;
        });
        for (int idx : order) {
            const Loop &l = li.loops()[idx];
            if (!l.children.empty())
                continue; // convert inner loops first
            if (opts.requireProfile) {
                double w = 0;
                for (BlockId b : l.blocks)
                    w += fn.blocks[b].weight;
                if (w <= 0)
                    continue;
            }
            if (convertLoop(fn, l, opts, st, log)) {
                changed = true;
                break; // loop forest is stale; recompute
            }
        }
    }
    return st;
}

IfConvertStats
ifConvertLoops(Program &prog, const IfConvertOptions &opts,
               obs::LoopDecisionLog *log)
{
    IfConvertStats st;
    for (auto &fn : prog.functions) {
        auto s = ifConvertLoops(fn, opts, log);
        st.loopsConverted += s.loopsConverted;
        st.blocksMerged += s.blocksMerged;
        st.predDefsInserted += s.predDefsInserted;
        st.sideExits += s.sideExits;
    }
    return st;
}

} // namespace lbp
