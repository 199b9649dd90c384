/**
 * @file
 * Natural-loop nesting analysis plus simple induction/trip-count
 * recognition, the enabling analysis for peeling, collapsing,
 * counted-loop conversion, and buffer scheduling.
 */

#ifndef LBP_ANALYSIS_LOOP_INFO_HH
#define LBP_ANALYSIS_LOOP_INFO_HH

#include <vector>

#include "analysis/dominators.hh"
#include "ir/function.hh"

namespace lbp
{

/**
 * Recognized counted-loop shape:
 *   preheader: MOV ind = start           (or constant-reaching def)
 *   latch:     ADD ind = ind, step
 *              BR cond ind, bound -> header
 */
struct InductionInfo
{
    bool valid = false;
    RegId reg = 0;
    std::int64_t start = 0;       ///< meaningful when startKnown
    bool startKnown = false;
    std::int64_t step = 0;
    CmpCond cond = CmpCond::LT;
    Operand bound;                ///< imm or loop-invariant reg
    /** Trip count if statically computable, else -1. */
    std::int64_t constTrip = -1;
};

/** One natural loop. */
struct Loop
{
    int index = -1;
    BlockId header = kNoBlock;
    /** Blocks in the loop, header first. */
    std::vector<BlockId> blocks;
    /** Latch blocks (sources of backedges). */
    std::vector<BlockId> latches;
    /** Sole block outside the loop that falls/branches into header. */
    BlockId preheader = kNoBlock;
    int depth = 1;
    int parent = -1;              ///< index of enclosing loop, or -1
    std::vector<int> children;    ///< indices of nested loops

    InductionInfo induction;

    bool contains(BlockId b) const;
};

/** Loop forest of one function. */
class LoopInfo
{
  public:
    explicit LoopInfo(const Function &fn);

    const std::vector<Loop> &loops() const { return loops_; }
    std::vector<Loop> &loops() { return loops_; }

    /** Innermost loop containing @p b, or -1. */
    int loopOf(BlockId b) const;

    /**
     * A "simple" loop: single block that is both header and latch,
     * whose only internal control is the loop-back branch — the shape
     * a loop buffer can hold.
     */
    bool isSimple(int idx) const;

  private:
    void analyzeInduction(const Function &fn, Loop &loop);

    std::vector<Loop> loops_;
    std::vector<int> loopOf_;
};

} // namespace lbp

#endif // LBP_ANALYSIS_LOOP_INFO_HH
