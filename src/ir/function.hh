/**
 * @file
 * Function: a named CFG of basic blocks with virtual register supply,
 * parameter/return conventions, and profile annotations.
 */

#ifndef LBP_IR_FUNCTION_HH
#define LBP_IR_FUNCTION_HH

#include <string>
#include <vector>

#include "ir/basic_block.hh"
#include "ir/types.hh"

namespace lbp
{

class Function
{
  public:
    FuncId id = kNoFunc;
    std::string name;

    /** Registers receiving arguments, in order. */
    std::vector<RegId> params;

    /** Number of values returned via RET srcs. */
    int numReturns = 0;

    BlockId entry = kNoBlock;

    /** Blocks indexed by id; dead blocks are tombstones. */
    std::vector<BasicBlock> blocks;

    /** Next fresh virtual register / predicate / op id. */
    RegId nextReg = 1;
    PredId nextPred = 1;
    OpId nextOpId = 1;

    /** Disallow inlining (e.g. recursive or intentionally opaque). */
    bool noInline = false;

    /** Create a new block and return its id. */
    BlockId newBlock(const std::string &bname = "");

    /** Allocate a fresh virtual register. */
    RegId newReg() { return nextReg++; }

    /** Allocate a fresh virtual predicate register. */
    PredId newPred() { return nextPred++; }

    /** Assign a fresh operation id. */
    OpId newOpId() { return nextOpId++; }

    BasicBlock &block(BlockId b) { return blocks[b]; }
    const BasicBlock &block(BlockId b) const { return blocks[b]; }

    /** Predecessor map: preds[b] = blocks with an edge into b. */
    std::vector<std::vector<BlockId>> predecessors() const;

    /** Reverse-postorder over live, reachable blocks from entry. */
    std::vector<BlockId> reversePostorder() const;

    /** Total non-NOP operations across live blocks. */
    int sizeOps() const;

    /**
     * Assign fresh op ids to any operation with id 0 and return the
     * count of operations touched.
     */
    int assignOpIds();

    /** Mark unreachable blocks dead; returns number removed. */
    int pruneUnreachable();
};

} // namespace lbp

#endif // LBP_IR_FUNCTION_HH
