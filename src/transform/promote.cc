#include "transform/promote.hh"

#include "analysis/liveness.hh"
#include "support/logging.hh"

namespace lbp
{

PromoteStats
promoteOperations(Function &fn)
{
    PromoteStats st;
    Liveness live(fn);
    for (auto &bb : fn.blocks) {
        if (bb.dead)
            continue;

        // Live-out across *exit* edges only: the backedge's
        // contribution to liveness is handled separately via the
        // upward-exposed-read check below (a conservative liveOut
        // that includes the self-loop would veto every guarded loop
        // temporary).
        RegSet exitLive(fn.nextReg);
        for (BlockId s : bb.successors()) {
            if (s != bb.id)
                exitLive |= live.liveIn(s);
        }

        for (size_t i = 0; i < bb.ops.size(); ++i) {
            Operation &op = bb.ops[i];
            if (!op.hasGuard())
                continue;
            switch (op.op) {
              case Opcode::PRED_DEF:
              case Opcode::CALL:
              case Opcode::RET:
              case Opcode::DIV:
              case Opcode::REM:
                continue;
              default:
                break;
            }
            if (isStore(op.op) || op.isBranchOp())
                continue;
            if (op.dsts.size() != 1 || !op.dsts[0].isReg())
                continue;
            const RegId r = op.dsts[0].asReg();
            const PredId p = op.guard;

            // (a) No reads of r before this write in the block: a
            // next-iteration consumer would be such a read, so this
            // also covers the loop-carried case.
            bool ok = true;
            for (size_t j = 0; j < i && ok; ++j) {
                if (bb.ops[j].readsReg(r))
                    ok = false;
            }

            // (b) Every later in-block reader (until the next
            // re-kill) is guarded by the same predicate.
            bool rewritten = false;
            for (size_t j = i + 1; j < bb.ops.size() && ok; ++j) {
                const Operation &later = bb.ops[j];
                if (later.readsReg(r) && later.guard != p)
                    ok = false;
                if (later.writesReg(r)) {
                    if (!later.hasGuard() || later.guard == p) {
                        rewritten = true;
                        break;
                    }
                    // A differently-guarded write may or may not
                    // execute: the spurious value could survive it.
                    ok = false;
                }
            }
            if (!ok)
                continue;

            // (c) The spurious value must not escape through a loop
            // exit (unless a later write re-kills it on every path).
            if (!rewritten && exitLive.test(r))
                continue;

            op.guard = kNoPred;
            ++st.promoted;
            if (isLoad(op.op)) {
                op.speculative = true;
                ++st.speculativeLoads;
            }
        }
    }
    return st;
}

PromoteStats
promoteOperations(Program &prog)
{
    PromoteStats st;
    for (auto &fn : prog.functions) {
        auto s = promoteOperations(fn);
        st.promoted += s.promoted;
        st.speculativeLoads += s.speculativeLoads;
    }
    return st;
}

} // namespace lbp
