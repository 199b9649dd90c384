/**
 * @file
 * Dominator-tree computation (Cooper–Harvey–Kennedy iterative
 * algorithm) over a Function's CFG.
 */

#ifndef LBP_ANALYSIS_DOMINATORS_HH
#define LBP_ANALYSIS_DOMINATORS_HH

#include <vector>

#include "ir/function.hh"

namespace lbp
{

/** Immediate-dominator tree for one function. */
class Dominators
{
  public:
    explicit Dominators(const Function &fn);

    /** Immediate dominator of @p b (kNoBlock for entry/unreachable). */
    BlockId idom(BlockId b) const { return idom_[b]; }

    /** True iff @p a dominates @p b (reflexive). */
    bool dominates(BlockId a, BlockId b) const;

    /** True iff @p b is reachable from the entry. */
    bool reachable(BlockId b) const { return rpoIndex_[b] >= 0; }

    /** Reverse-postorder index of @p b (-1 if unreachable). */
    int rpoIndex(BlockId b) const { return rpoIndex_[b]; }

    const std::vector<BlockId> &rpo() const { return rpo_; }

    /** The CFG the tree was built from, for the caller's own walks. */
    const BlockLists &successors() const { return succs_; }
    const BlockLists &predecessors() const { return preds_; }

  private:
    BlockLists succs_, preds_;
    std::vector<BlockId> idom_;
    std::vector<int> rpoIndex_;
    std::vector<BlockId> rpo_;
};

} // namespace lbp

#endif // LBP_ANALYSIS_DOMINATORS_HH
