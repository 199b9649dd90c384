#include "analysis/loop_info.hh"

#include <algorithm>

#include "support/logging.hh"

namespace lbp
{

bool
Loop::contains(BlockId b) const
{
    return std::find(blocks.begin(), blocks.end(), b) != blocks.end();
}

LoopInfo::LoopInfo(const Function &fn)
{
    Dominators dom(fn);
    auto preds = fn.predecessors();
    loopOf_.assign(fn.blocks.size(), -1);

    // Find backedges: edge (latch -> header) where header dominates
    // latch. Group by header.
    std::vector<std::pair<BlockId, BlockId>> backedges;
    for (const auto &bb : fn.blocks) {
        if (bb.dead || !dom.reachable(bb.id))
            continue;
        for (BlockId s : bb.successors()) {
            if (dom.dominates(s, bb.id))
                backedges.emplace_back(bb.id, s);
        }
    }

    // Build a loop per header via backward reachability from latches.
    std::vector<BlockId> headers;
    for (auto &[latch, header] : backedges) {
        if (std::find(headers.begin(), headers.end(), header) ==
            headers.end()) {
            headers.push_back(header);
        }
    }

    for (BlockId header : headers) {
        Loop loop;
        loop.header = header;
        std::vector<char> in(fn.blocks.size(), 0);
        in[header] = 1;
        std::vector<BlockId> work;
        for (auto &[latch, h] : backedges) {
            if (h != header)
                continue;
            loop.latches.push_back(latch);
            if (!in[latch]) {
                in[latch] = 1;
                work.push_back(latch);
            }
        }
        while (!work.empty()) {
            BlockId b = work.back();
            work.pop_back();
            for (BlockId p : preds[b]) {
                if (!in[p] && dom.reachable(p)) {
                    in[p] = 1;
                    work.push_back(p);
                }
            }
        }
        loop.blocks.push_back(header);
        for (BlockId b : fn.reversePostorder()) {
            if (b != header && in[b])
                loop.blocks.push_back(b);
        }

        // Preheader: the unique out-of-loop predecessor of the header.
        BlockId pre = kNoBlock;
        bool unique = true;
        for (BlockId p : preds[header]) {
            if (in[p])
                continue;
            if (pre == kNoBlock) {
                pre = p;
            } else {
                unique = false;
            }
        }
        loop.preheader = unique ? pre : kNoBlock;

        loop.index = static_cast<int>(loops_.size());
        loops_.push_back(std::move(loop));
    }

    // Nesting: loop A is parent of B if A contains B's header and
    // A != B; pick the smallest such container.
    for (auto &l : loops_) {
        int best = -1;
        size_t best_size = SIZE_MAX;
        for (const auto &o : loops_) {
            if (o.index == l.index)
                continue;
            if (o.contains(l.header) && o.blocks.size() < best_size) {
                best = o.index;
                best_size = o.blocks.size();
            }
        }
        l.parent = best;
    }
    for (auto &l : loops_) {
        if (l.parent >= 0)
            loops_[l.parent].children.push_back(l.index);
        int d = 1;
        int p = l.parent;
        while (p >= 0) {
            ++d;
            p = loops_[p].parent;
        }
        l.depth = d;
    }

    // loopOf: innermost (deepest) loop containing each block.
    for (const auto &l : loops_) {
        for (BlockId b : l.blocks) {
            if (loopOf_[b] < 0 || loops_[loopOf_[b]].depth < l.depth)
                loopOf_[b] = l.index;
        }
    }

    for (auto &l : loops_)
        analyzeInduction(fn, l);
}

int
LoopInfo::loopOf(BlockId b) const
{
    LBP_ASSERT(b < loopOf_.size(), "bad block id");
    return loopOf_[b];
}

bool
LoopInfo::isSimple(int idx) const
{
    const Loop &l = loops_[idx];
    if (l.blocks.size() != 1 || l.latches.size() != 1 ||
        l.latches[0] != l.header) {
        return false;
    }
    return true;
}

void
LoopInfo::analyzeInduction(const Function &fn, Loop &loop)
{
    InductionInfo info;
    if (loop.latches.size() != 1)
        return;
    const BasicBlock &latch = fn.blocks[loop.latches[0]];
    const Operation *term = latch.terminator();
    if (!term || (term->op != Opcode::BR && term->op != Opcode::BR_WLOOP))
        return;
    if (term->target != loop.header || term->hasGuard())
        return;
    if (!term->srcs[0].isReg())
        return;

    const RegId ind = term->srcs[0].asReg();
    info.reg = ind;
    info.cond = term->cond;
    info.bound = term->srcs[1];

    // The bound must be loop-invariant: immediate or a register never
    // written inside the loop.
    if (info.bound.isReg()) {
        for (BlockId b : loop.blocks) {
            for (const auto &o : fn.blocks[b].ops) {
                if (o.writesReg(info.bound.asReg()))
                    return;
            }
        }
    }

    // Exactly one in-loop write to ind: "ADD ind = ind, #step" in the
    // latch, placed immediately before the branch (the canonical shape
    // IRBuilder::forLoop and counted-loop conversion produce).
    const Operation *step_op = nullptr;
    for (BlockId b : loop.blocks) {
        for (const auto &o : fn.blocks[b].ops) {
            if (!o.writesReg(ind))
                continue;
            if (step_op != nullptr)
                return; // multiple writes
            step_op = &o;
        }
    }
    if (!step_op || step_op->op != Opcode::ADD || step_op->hasGuard())
        return;
    if (!(step_op->srcs[0].isReg() && step_op->srcs[0].asReg() == ind &&
          step_op->srcs[1].isImm())) {
        return;
    }
    info.step = step_op->srcs[1].value;
    if (info.step == 0)
        return;

    // Find the reaching start value in the preheader: last write of
    // ind must be "MOV ind = #start".
    if (loop.preheader != kNoBlock) {
        const BasicBlock &pre = fn.blocks[loop.preheader];
        for (auto it = pre.ops.rbegin(); it != pre.ops.rend(); ++it) {
            if (it->writesReg(ind)) {
                if (it->op == Opcode::MOV && !it->hasGuard() &&
                    it->srcs[0].isImm()) {
                    info.start = it->srcs[0].value;
                    info.startKnown = true;
                }
                break;
            }
        }
    }

    // Static trip count when start and bound are constants.
    if (info.startKnown && info.bound.isImm()) {
        const std::int64_t start = info.start;
        const std::int64_t bound = info.bound.value;
        const std::int64_t step = info.step;
        std::int64_t trip = -1;
        // Bottom-test loop: body runs once, then repeats while
        // cond(ind, bound) after each increment.
        if (step > 0 && (info.cond == CmpCond::LT ||
                         info.cond == CmpCond::LE)) {
            const std::int64_t lim =
                info.cond == CmpCond::LT ? bound - 1 : bound;
            if (lim <= start) {
                trip = 1;
            } else {
                trip = (lim - start) / step + 1;
            }
        } else if (step < 0 && (info.cond == CmpCond::GT ||
                                info.cond == CmpCond::GE)) {
            const std::int64_t lim =
                info.cond == CmpCond::GT ? bound + 1 : bound;
            if (lim >= start) {
                trip = 1;
            } else {
                trip = (start - lim) / (-step) + 1;
            }
        }
        info.constTrip = trip;
    }

    info.valid = true;
    loop.induction = info;
}

} // namespace lbp
