#include "transform/loop_collapse.hh"

#include <algorithm>

#include "analysis/dependence.hh"
#include "analysis/loop_info.hh"
#include "obs/loop_report.hh"
#include "sched/modulo_scheduler.hh"
#include "transform/counted_loop.hh"
#include "support/logging.hh"

namespace lbp
{

namespace
{

/** Are the ops of an outer block safe to predicate and pull in? */
bool
outerBlockEligible(const BasicBlock &bb, bool isLatch)
{
    for (size_t i = 0; i < bb.ops.size(); ++i) {
        const Operation &op = bb.ops[i];
        if (op.op == Opcode::CALL || op.op == Opcode::RET ||
            isBufferOp(op.op) || op.op == Opcode::BR_CLOOP ||
            op.op == Opcode::BR_WLOOP || op.hasGuard()) {
            return false;
        }
        // Only the latch may end in a branch (the backedge); other
        // outer blocks must be straight-line (or end in JUMP along
        // the path, which we treat below via successors).
        if (op.op == Opcode::BR && !(isLatch && i + 1 == bb.ops.size()))
            return false;
        if (op.op == Opcode::JUMP && i + 1 != bb.ops.size())
            return false;
    }
    return true;
}

/** The single successor of a straight-line block, or kNoBlock. */
BlockId
soleSuccessor(const BasicBlock &bb)
{
    auto succs = bb.successors();
    return succs.size() == 1 ? succs[0] : kNoBlock;
}

bool
collapseOne(Function &fn, LoopInfo &li, const Loop &outer,
            const CollapseOptions &opts, CollapseStats &st,
            obs::LoopDecisionLog *log)
{
    auto reject = [&](obs::LoopReason r, std::string note = "") {
        if (log) {
            obs::LoopAttempt a;
            a.transform = "collapse";
            a.reason = r;
            a.note = std::move(note);
            log->addAttempt(fn.name + "/" +
                                fn.blocks[outer.header].name,
                            std::move(a));
        }
        return false;
    };

    // Exactly one child loop, and that child is simple.
    if (outer.children.empty())
        return false; // innermost: not a nest, nothing to attempt
    if (outer.children.size() != 1)
        return reject(obs::LoopReason::NotSimple, "multi-child nest");
    const Loop &inner = li.loops()[outer.children[0]];
    if (!li.isSimple(inner.index))
        return reject(obs::LoopReason::NotSimple, "inner not simple");
    if (outer.latches.size() != 1)
        return reject(obs::LoopReason::MultiLatch);

    // Inner loop: canonical counted with static trip.
    const InductionInfo &ii = inner.induction;
    if (!ii.valid || !ii.startKnown)
        return reject(obs::LoopReason::NotCounted, "inner induction");
    if (ii.constTrip < opts.minInnerTrip)
        return reject(obs::LoopReason::TripTooSmall,
                      "inner trip " + std::to_string(ii.constTrip));
    if (ii.constTrip > opts.maxInnerTrip)
        return reject(obs::LoopReason::TripTooLarge,
                      "inner trip " + std::to_string(ii.constTrip));
    const BlockId innerBlk = inner.header;
    const BasicBlock &ib = fn.blocks[innerBlk];
    const Operation *iterm = ib.terminator();
    if (!iterm || iterm->op != Opcode::BR ||
        iterm->target != innerBlk || iterm->hasGuard()) {
        return reject(obs::LoopReason::BadShape, "inner terminator");
    }
    // No side exits in the inner body.
    for (const auto &op : ib.ops) {
        if (op.isBranchOp() && &op != &ib.ops.back())
            return reject(obs::LoopReason::MultiExit, "inner side exit");
    }
    if (ib.fallthrough == kNoBlock)
        return reject(obs::LoopReason::BadShape, "inner fallthrough");

    // Outer loop: canonical counted/while induction so we can compute
    // its trip count in the preheader.
    const InductionInfo &oi = outer.induction;
    if (!oi.valid)
        return reject(obs::LoopReason::NotCounted, "outer induction");
    if (outer.preheader == kNoBlock)
        return reject(obs::LoopReason::NoPreheader);
    // Preheader must fall straight into the outer header.
    {
        auto succs = fn.blocks[outer.preheader].successors();
        if (succs.size() != 1 || succs[0] != outer.header)
            return reject(obs::LoopReason::BadShape, "preheader edge");
    }

    // Walk the outer straight path: header -> ... -> innerPre ->
    // inner -> ... -> latch -> (backedge).
    const BlockId latch = outer.latches[0];
    std::vector<BlockId> aPath; // blocks before the inner loop
    std::vector<BlockId> fPath; // blocks after it
    BlockId cur = outer.header;
    bool seen_inner = false;
    int guard = 0;
    while (guard++ < 1000) {
        if (cur == innerBlk) {
            seen_inner = true;
            cur = fn.blocks[innerBlk].fallthrough;
            continue;
        }
        if (!outer.contains(cur))
            return reject(obs::LoopReason::BadShape, "path escapes loop");
        const BasicBlock &bb = fn.blocks[cur];
        if (!outerBlockEligible(bb, cur == latch))
            return reject(obs::LoopReason::HasCall, bb.name);
        (seen_inner ? fPath : aPath).push_back(cur);
        if (cur == latch)
            break;
        const BlockId nxt = soleSuccessor(bb);
        if (nxt == kNoBlock)
            return reject(obs::LoopReason::BadShape, bb.name);
        cur = nxt;
    }
    if (!seen_inner || cur != latch)
        return reject(obs::LoopReason::BadShape, "no straight path");

    // The outer backedge must be the canonical bottom-test branch.
    const Operation *oterm = fn.blocks[latch].terminator();
    if (!oterm || oterm->op != Opcode::BR ||
        oterm->target != outer.header || oterm->hasGuard()) {
        return reject(obs::LoopReason::BadShape, "outer backedge");
    }
    const BlockId outerExit = fn.blocks[latch].fallthrough;
    if (outerExit == kNoBlock || outer.contains(outerExit))
        return reject(obs::LoopReason::BadShape, "outer exit");

    // Budget: outer ops pulled into the inner body, and
    // profitability relative to the inner body size (the guarded
    // outer ops cost issue slots on every collapsed iteration).
    int outer_ops = 0;
    for (BlockId b : aPath)
        outer_ops += fn.blocks[b].sizeOps();
    for (BlockId b : fPath)
        outer_ops += fn.blocks[b].sizeOps() - (b == latch ? 1 : 0);
    if (outer_ops > opts.maxOuterOps) {
        return reject(obs::LoopReason::TooLarge,
                      std::to_string(outer_ops) + " outer ops");
    }
    const int inner_ops = fn.blocks[innerBlk].sizeOps();
    const int allowance = std::max(
        opts.minOuterAllowance,
        static_cast<int>(inner_ops * opts.maxOuterToInnerRatio));
    if (outer_ops > allowance) {
        return reject(obs::LoopReason::NotProfitable,
                      std::to_string(outer_ops) + " outer vs " +
                          std::to_string(inner_ops) + " inner ops");
    }

    // Predicates / counter for the collapsed form.
    const RegId tReg = fn.newReg();
    const PredId p1 = fn.newPred();
    const PredId p3 = fn.newPred();
    const std::int64_t lastVal =
        ii.start + (ii.constTrip - 1) * ii.step;

    /**
     * Assemble the collapsed body for a given `total` operand.
     * Called twice: once with a placeholder for the profitability
     * estimate (before any IR mutation), once for real.
     */
    auto assembleBody = [&](Operand total) {
        std::vector<Operation> body;
        auto emitBody = [&](Operation op, bool fromOuter, PredId g) {
            if (op.id == 0)
                op.id = fn.newOpId();
            if (g != kNoPred)
                op.guard = g;
            op.fromOuterLoop = fromOuter;
            body.push_back(std::move(op));
        };

        // p1 identifies the final inner iteration of this outer
        // iteration.
        emitBody(makePredDef(PredDefKind::UT, p1, PredDefKind::NONE,
                             0, CmpCond::EQ, Operand::reg(ii.reg),
                             Operand::imm(lastVal)),
                 false, kNoPred);

        // Inner body (minus its backedge), unguarded.
        for (size_t i = 0; i + 1 < ib.ops.size(); ++i)
            emitBody(ib.ops[i], false, kNoPred);

        // F path (outer code after the inner loop), guarded p1.
        for (BlockId b : fPath) {
            const BasicBlock &bb = fn.blocks[b];
            const size_t n = bb.ops.size() - (b == latch ? 1 : 0);
            for (size_t i = 0; i < n; ++i) {
                if (bb.ops[i].op == Opcode::JUMP)
                    continue;
                emitBody(bb.ops[i], true, p1);
            }
        }

        // p3 = p1 && (t < total - 1): A code runs only when another
        // outer iteration follows. With a register total, compare
        // t + 1 < total.
        if (total.isImm()) {
            Operation d = makePredDef(PredDefKind::UT, p3,
                                      PredDefKind::NONE, 0,
                                      CmpCond::LT, Operand::reg(tReg),
                                      Operand::imm(total.value - 1));
            d.guard = p1;
            emitBody(std::move(d), true, p1);
        } else {
            RegId tmp = fn.newReg();
            emitBody(makeBinary(Opcode::ADD, tmp, Operand::reg(tReg),
                                Operand::imm(1)),
                     true, p1);
            Operation d = makePredDef(PredDefKind::UT, p3,
                                      PredDefKind::NONE, 0,
                                      CmpCond::LT, Operand::reg(tmp),
                                      total);
            d.guard = p1;
            emitBody(std::move(d), true, p1);
        }

        // A path (outer code before the inner loop, incl. the inner
        // induction reset), guarded p3.
        for (BlockId b : aPath) {
            const BasicBlock &bb = fn.blocks[b];
            for (const auto &op : bb.ops) {
                if (op.op == Opcode::JUMP)
                    continue;
                emitBody(op, true, p3);
            }
        }

        // Counter increment + backedge.
        Operation inc = makeBinary(Opcode::ADD, tReg,
                                   Operand::reg(tReg),
                                   Operand::imm(1));
        inc.id = fn.newOpId();
        body.push_back(std::move(inc));
        Operation back = makeBr(CmpCond::LT, Operand::reg(tReg),
                                total, innerBlk);
        back.id = fn.newOpId();
        body.push_back(std::move(back));
        return body;
    };

    // Profitability (paper: collapsing must not "severely impact the
    // resource or recurrence constraints of the loop", and pays off
    // "provided that the inner loop schedule can accommodate the
    // extra instructions"). Estimate the initiation interval of the
    // inner loop and of the collapsed body; the per-outer-iteration
    // cost of an II increase is innerTrip * dII, while the saving is
    // roughly one branch penalty plus the buffer entry overhead.
    {
        Machine machine;
        const int innerII =
            std::max(computeResMII(ib, machine),
                     DepGraph(ib, /*loopCarried=*/true).recMII());
        BasicBlock probe;
        probe.id = innerBlk; // backedge target check only
        probe.ops = assembleBody(Operand::imm(1 << 20));
        const int collII =
            std::max(computeResMII(probe, machine),
                     DepGraph(probe, /*loopCarried=*/true).recMII());
        const double savedPerOuter =
            machine.branchPenalty() + 2.0; // loop entry/exit overhead
        const double costPerOuter =
            static_cast<double>(ii.constTrip) *
            std::max(0, collII - innerII);
        if (costPerOuter > savedPerOuter) {
            return reject(obs::LoopReason::NotProfitable,
                          "II " + std::to_string(innerII) + " -> " +
                              std::to_string(collII));
        }
    }

    // Compute total trips in the outer preheader:
    //   total = innerTrip * outerTrips.
    BasicBlock &pre = fn.blocks[outer.preheader];
    Operand outerTrips = emitTripCountOps(fn, pre, oi);
    if (outerTrips.isNone())
        return reject(obs::LoopReason::NotCounted, "outer trip expr");

    auto emitPre = [&](Operation op) -> RegId {
        op.id = fn.newOpId();
        // Preheader falls straight into the header; append at end
        // (before a trailing JUMP if present).
        if (!pre.ops.empty() && pre.ops.back().op == Opcode::JUMP) {
            pre.ops.insert(pre.ops.end() - 1, op);
        } else {
            pre.ops.push_back(op);
        }
        return op.dsts.empty() ? 0 : op.dsts[0].asReg();
    };

    Operand total;
    if (outerTrips.isImm()) {
        total = Operand::imm(outerTrips.value * ii.constTrip);
    } else {
        RegId t = fn.newReg();
        emitPre(makeBinary(Opcode::MUL, t, outerTrips,
                           Operand::imm(ii.constTrip)));
        total = Operand::reg(t);
    }

    std::vector<Operation> body = assembleBody(total);

    // Counter init at the end of the last A-path block (the collapsed
    // loop's immediate preheader) — emitted only now so the guarded
    // in-loop copy of the A code does not contain it.
    {
        BasicBlock &lastA = fn.blocks[aPath.back()];
        Operation init = makeUnary(Opcode::MOV, tReg, Operand::imm(0));
        init.id = fn.newOpId();
        if (!lastA.ops.empty() && lastA.ops.back().op == Opcode::JUMP) {
            lastA.ops.insert(lastA.ops.end() - 1, std::move(init));
        } else {
            lastA.ops.push_back(std::move(init));
        }
    }

    // Install: the inner block becomes the collapsed loop. The A path
    // runs once in the preheader (first outer iteration) — splice the
    // original A blocks between preheader and the collapsed loop by
    // retargeting edges.
    BasicBlock &nb = fn.blocks[innerBlk];
    nb.ops = std::move(body);
    nb.fallthrough = outerExit;
    nb.isHyperblock = true;

    // Preheader now falls into the original outer header (start of A),
    // which eventually reaches innerBlk — keep those blocks alive as
    // the prolog, but their path must now end at innerBlk without the
    // F/latch blocks. The A path already flows into innerBlk.
    // Kill the F-path blocks.
    for (BlockId b : fPath) {
        fn.blocks[b].kill();
    }

    st.outerOpsPulledIn += outer_ops;
    ++st.loopsCollapsed;
    if (log) {
        const std::string name =
            fn.name + "/" + fn.blocks[outer.header].name;
        obs::LoopAttempt a;
        a.transform = "collapse";
        a.applied = true;
        a.opsBefore = outer_ops + inner_ops;
        a.opsAfter = static_cast<int>(nb.sizeOps());
        a.note = "into " + fn.name + "/" + nb.name;
        log->addAttempt(name, std::move(a));
        // The outer loop is gone: its code lives, guarded, inside the
        // collapsed inner loop.
        log->decision(name).fate = obs::LoopFate::Eliminated;
    }
    return true;
}

} // namespace

CollapseStats
collapseLoops(Function &fn, const CollapseOptions &opts,
              obs::LoopDecisionLog *log)
{
    CollapseStats st;
    bool changed = true;
    int guard = 0;
    while (changed && guard++ < 100) {
        changed = false;
        LoopInfo li(fn);
        for (const auto &loop : li.loops()) {
            if (collapseOne(fn, li, loop, opts, st, log)) {
                changed = true;
                break;
            }
        }
    }
    return st;
}

CollapseStats
collapseLoops(Program &prog, const CollapseOptions &opts,
              obs::LoopDecisionLog *log)
{
    CollapseStats st;
    for (auto &fn : prog.functions) {
        auto s = collapseLoops(fn, opts, log);
        st.loopsCollapsed += s.loopsCollapsed;
        st.outerOpsPulledIn += s.outerOpsPulledIn;
    }
    return st;
}

} // namespace lbp
