/**
 * @file
 * BasicBlock: a sequence of operations with explicit control-flow edges.
 *
 * Branches may appear anywhere inside a block only after hyperblock
 * formation (predicated side exits); before that, the verifier enforces
 * that branches terminate blocks. Each block has an optional fall-through
 * successor; together with branch targets this defines the CFG.
 */

#ifndef LBP_IR_BASIC_BLOCK_HH
#define LBP_IR_BASIC_BLOCK_HH

#include <string>
#include <vector>

#include "ir/operation.hh"
#include "ir/types.hh"

namespace lbp
{

class BasicBlock
{
  public:
    BlockId id = kNoBlock;
    std::string name;

    std::vector<Operation> ops;

    /** Fall-through successor; kNoBlock if control never falls through. */
    BlockId fallthrough = kNoBlock;

    /** Profile: number of times this block executed. */
    double weight = 0.0;

    /** Marks a block formed by if-conversion. */
    bool isHyperblock = false;

    /** Dead blocks are kept as tombstones to preserve ids. */
    bool dead = false;

    /** All successor block ids (branch targets then fall-through). */
    std::vector<BlockId> successors() const;

    /**
     * Append successors() to @p out, deduplicated among the ids this
     * call appends (entries already in @p out are not consulted).
     */
    void appendSuccessors(std::vector<BlockId> &out) const;

    /** True if the final operation unconditionally leaves the block. */
    bool endsWithUnconditional() const;

    /** The terminating branch, or nullptr. */
    const Operation *terminator() const;
    Operation *terminator();

    /** Count of non-NOP operations. */
    int sizeOps() const;

    /**
     * Make this block a tombstone: dead, with no ops and no
     * fall-through. Its op storage is released now, inside the pass
     * that killed it, rather than whenever the program is destroyed.
     */
    void kill();
};

} // namespace lbp

#endif // LBP_IR_BASIC_BLOCK_HH
