/**
 * @file
 * Scheduled-code representation: bundles of slot-assigned operations,
 * per-block schedules with loop metadata (initiation interval, MVE
 * factor, buffer image size), and the program-level code image the
 * VLIW simulator executes.
 */

#ifndef LBP_SCHED_SCHEDULE_HH
#define LBP_SCHED_SCHEDULE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "ir/program.hh"
#include "mach/machine.hh"

namespace lbp
{

/** One operation with its issue-slot assignment. */
struct SchedOp
{
    Operation op;
    int slot = kNoSlot;
};

/**
 * One VLIW issue cycle: up to `Machine::width` slot-distinct ops, held
 * in its block's SchedBlock::ops at [first, first + count).
 */
struct Bundle
{
    std::uint32_t first = 0;
    std::uint32_t count = 0;

    /** Global operation address of the first op (set at link time). */
    std::int64_t addr = -1;

    /**
     * Size in memory operations. Compressed encoding stores no NOPs,
     * but an all-NOP cycle still occupies one (multi-cycle-NOP) op.
     */
    int sizeOps() const
    { return count == 0 ? 1 : static_cast<int>(count); }
};

/** Scheduled form of one basic block. */
struct SchedBlock
{
    BlockId irBlock = kNoBlock;
    bool valid = false;
    /**
     * The ops of every bundle, bundle after bundle: `bundles` tile
     * this vector in order, so a block's schedule is two allocations
     * however many cycles it has.
     */
    std::vector<SchedOp> ops;
    std::vector<Bundle> bundles;

    /** The ops of bundle @p b of this block, in issue order. */
    std::span<SchedOp> opsOf(const Bundle &b)
    { return {ops.data() + b.first, b.count}; }
    std::span<const SchedOp> opsOf(const Bundle &b) const
    { return {ops.data() + b.first, b.count}; }

    /** Append @p so to bundle @p cycle, after its current ops. */
    void addOp(std::size_t cycle, const SchedOp &so);

    // Loop-body metadata (meaningful when isLoopBody).
    bool isLoopBody = false;
    bool pipelined = false;
    int ii = 0;          ///< initiation interval (pipelined loops)
    int minII = 0;       ///< max(ResMII, RecMII) lower bound
    int mveFactor = 1;   ///< modulo-variable-expansion copies

    /** Total real (non-NOP) ops across bundles. */
    int sizeOps() const;

    /**
     * Size of the loop's image in the buffer: the MVE-expanded kernel
     * for pipelined loops, the plain body otherwise.
     */
    int imageOps() const { return sizeOps() * mveFactor; }

    /** Schedule length in cycles. */
    int lengthCycles() const
    { return static_cast<int>(bundles.size()); }
};

/** Scheduled form of one function. */
struct SchedFunction
{
    FuncId func = kNoFunc;
    /** Indexed by BlockId; dead blocks have valid == false. */
    std::vector<SchedBlock> blocks;

    int sizeOps() const;
};

/** Scheduled form of a program, the simulator's executable. */
struct SchedProgram
{
    const Program *ir = nullptr;
    std::vector<SchedFunction> functions;

    /** Static code size in (compressed) operations. */
    int sizeOps() const;

    /**
     * Assign global operation addresses to every bundle (functions in
     * id order, blocks in id order, bundles sequentially).
     */
    void link();
};

/**
 * Validate a block schedule against @p machine and its dependence
 * graph: slot capabilities, one op per slot per cycle, and all
 * distance-0 latencies respected (distance-1 modulo II for pipelined
 * loops). Returns human-readable violations (empty = valid).
 */
std::vector<std::string> validateSchedule(const BasicBlock &bb,
                                          const SchedBlock &sb,
                                          const Machine &machine);

} // namespace lbp

#endif // LBP_SCHED_SCHEDULE_HH
