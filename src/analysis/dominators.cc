#include "analysis/dominators.hh"

#include "support/logging.hh"

namespace lbp
{

Dominators::Dominators(const Function &fn)
    : succs_(fn.successorLists()), preds_(fn.predecessorLists(succs_))
{
    const size_t n = fn.blocks.size();
    idom_.assign(n, kNoBlock);
    rpoIndex_.assign(n, -1);
    rpo_ = fn.reversePostorder(succs_);
    for (size_t i = 0; i < rpo_.size(); ++i)
        rpoIndex_[rpo_[i]] = static_cast<int>(i);

    auto intersect = [&](BlockId a, BlockId b) {
        while (a != b) {
            while (rpoIndex_[a] > rpoIndex_[b])
                a = idom_[a];
            while (rpoIndex_[b] > rpoIndex_[a])
                b = idom_[b];
        }
        return a;
    };

    idom_[fn.entry] = fn.entry;
    bool changed = true;
    while (changed) {
        changed = false;
        for (BlockId b : rpo_) {
            if (b == fn.entry)
                continue;
            BlockId new_idom = kNoBlock;
            for (BlockId p : preds_[b]) {
                if (rpoIndex_[p] < 0 || idom_[p] == kNoBlock)
                    continue;
                new_idom = new_idom == kNoBlock ? p
                                                : intersect(p, new_idom);
            }
            if (new_idom != kNoBlock && idom_[b] != new_idom) {
                idom_[b] = new_idom;
                changed = true;
            }
        }
    }
    // Entry's idom is conventionally "none".
    idom_[fn.entry] = kNoBlock;
}

bool
Dominators::dominates(BlockId a, BlockId b) const
{
    LBP_ASSERT(a < idom_.size() && b < idom_.size(), "bad block id");
    if (!reachable(b))
        return false;
    while (b != kNoBlock) {
        if (a == b)
            return true;
        b = idom_[b];
    }
    return false;
}

} // namespace lbp
