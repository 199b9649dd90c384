#include "transform/branch_combine.hh"

#include <set>

#include "analysis/liveness.hh"
#include "analysis/loop_info.hh"
#include "obs/loop_report.hh"
#include "support/logging.hh"

namespace lbp
{

namespace
{

bool
combineInBlock(Function &fn, BlockId blkId,
               const BranchCombineOptions &opts,
               BranchCombineStats &st, obs::LoopDecisionLog *log)
{
    BasicBlock &bb = fn.blocks[blkId];
    Liveness live(fn);

    auto reject = [&](std::string note) {
        if (log) {
            obs::LoopAttempt a;
            a.transform = "branch_combine";
            a.reason = obs::LoopReason::NotProfitable;
            a.opsBefore = a.opsAfter = bb.sizeOps();
            a.note = std::move(note);
            log->addAttempt(fn.name + "/" + bb.name, std::move(a));
        }
        return false;
    };

    // Candidate exits: guarded JUMP ops that are not the final
    // backedge/terminator.
    struct Exit
    {
        size_t idx;
        PredId guard;
        BlockId target;
    };
    std::vector<Exit> exits;
    for (size_t i = 0; i + 1 < bb.ops.size(); ++i) {
        const Operation &op = bb.ops[i];
        if (op.op == Opcode::JUMP && op.hasGuard())
            exits.push_back({i, op.guard, op.target});
    }
    if (static_cast<int>(exits.size()) < opts.minExits) {
        return reject(std::to_string(exits.size()) + " side exit(s) < " +
                      std::to_string(opts.minExits));
    }

    // Eligibility per exit: between the exit's position and the end
    // of the block there must be (a) no stores/calls, (b) no writes to
    // registers live-in at the exit target, (c) no redefinition of the
    // exit predicate. We take the maximal eligible suffix of exits.
    auto eligibleFrom = [&](const Exit &e) {
        const RegSetRef tgt_live = live.liveIn(e.target);
        for (size_t j = e.idx + 1; j < bb.ops.size(); ++j) {
            const Operation &op = bb.ops[j];
            if (isStore(op.op) || op.op == Opcode::CALL)
                return false;
            // Potentially-excepting ops would now execute while an
            // exit is pending; disallow unless already speculative.
            if ((op.op == Opcode::DIV || op.op == Opcode::REM) &&
                !op.speculative) {
                return false;
            }
            for (RegId d : Liveness::defs(op)) {
                if (tgt_live.test(d))
                    return false;
            }
            for (PredId p : Liveness::predDefs(op)) {
                if (p == e.guard)
                    return false;
            }
        }
        return true;
    };

    std::vector<Exit> combine;
    for (const Exit &e : exits) {
        if (eligibleFrom(e))
            combine.push_back(e);
    }
    if (static_cast<int>(combine.size()) < opts.minExits) {
        return reject(std::to_string(combine.size()) +
                      " eligible exit(s) < " +
                      std::to_string(opts.minExits));
    }

    // Summary predicate ps, cleared at block top, or'd wherever an
    // exit predicate is produced. We or at the exit's position: an
    // ot-define guarded on the exit predicate with a TRUE condition.
    const PredId ps = fn.newPred();

    std::set<size_t> removeIdx;
    for (const Exit &e : combine)
        removeIdx.insert(e.idx);

    std::vector<Operation> out;
    {
        Operation clr = makePredDef(PredDefKind::UT, ps,
                                    PredDefKind::NONE, 0,
                                    CmpCond::FALSE_, Operand::imm(0),
                                    Operand::imm(0));
        clr.id = fn.newOpId();
        out.push_back(std::move(clr));
    }
    for (size_t i = 0; i < bb.ops.size(); ++i) {
        if (removeIdx.count(i)) {
            // Replace the exit with its summary contribution.
            Operation orp = makePredDef(PredDefKind::OT, ps,
                                        PredDefKind::NONE, 0,
                                        CmpCond::TRUE_, Operand::imm(0),
                                        Operand::imm(0));
            orp.guard = bb.ops[i].guard;
            orp.id = fn.newOpId();
            out.push_back(std::move(orp));
            continue;
        }
        out.push_back(bb.ops[i]);
    }

    // Decode block: test the preserved exit predicates in original
    // order; the last jump is unguarded (if the summary fired, some
    // exit predicate is true, so control never falls past it).
    const BlockId decode = fn.newBlock(bb.name + ".decode");
    {
        BasicBlock &dec = fn.blocks[decode];
        for (size_t i = 0; i < combine.size(); ++i) {
            Operation j = makeJump(combine[i].target);
            if (i + 1 < combine.size())
                j.guard = combine[i].guard;
            j.id = fn.newOpId();
            dec.ops.push_back(std::move(j));
        }
    }

    // Summary jump immediately before the terminator.
    {
        Operation sj = makeJump(decode);
        sj.guard = ps;
        sj.id = fn.newOpId();
        BasicBlock &nb = fn.blocks[blkId];
        nb.ops = std::move(out);
        if (!nb.ops.empty() && (nb.ops.back().isBranchOp())) {
            nb.ops.insert(nb.ops.end() - 1, std::move(sj));
        } else {
            nb.ops.push_back(std::move(sj));
        }
    }

    st.exitsCombined += static_cast<int>(combine.size());
    ++st.loopsCombined;
    if (log) {
        // NB: `bb` may dangle after newBlock; re-index.
        const BasicBlock &nb2 = fn.blocks[blkId];
        obs::LoopAttempt a;
        a.transform = "branch_combine";
        a.applied = true;
        a.opsBefore = a.opsAfter = nb2.sizeOps();
        a.note = std::to_string(combine.size()) + " exits combined";
        log->addAttempt(fn.name + "/" + nb2.name, std::move(a));
    }
    return true;
}

} // namespace

BranchCombineStats
combineBranches(Function &fn, const BranchCombineOptions &opts,
                obs::LoopDecisionLog *log)
{
    BranchCombineStats st;
    LoopInfo li(fn);
    for (const auto &loop : li.loops()) {
        if (!li.isSimple(loop.index))
            continue;
        if (!fn.blocks[loop.header].isHyperblock)
            continue;
        combineInBlock(fn, loop.header, opts, st, log);
    }
    return st;
}

BranchCombineStats
combineBranches(Program &prog, const BranchCombineOptions &opts,
                obs::LoopDecisionLog *log)
{
    BranchCombineStats st;
    for (auto &fn : prog.functions) {
        auto s = combineBranches(fn, opts, log);
        st.loopsCombined += s.loopsCombined;
        st.exitsCombined += s.exitsCombined;
    }
    return st;
}

} // namespace lbp
