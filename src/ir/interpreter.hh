/**
 * @file
 * Functional reference interpreter for lbp IR.
 *
 * Executes unscheduled (or transformed) IR with full IMPACT predicate
 * semantics (Table 2 of the paper), hardware-loop-count semantics for
 * the REC_/EXEC_[CW]LOOP + BR_[CW]LOOP families, and a call stack.
 *
 * Used for three things:
 *  - golden checksums: every compilation configuration must reproduce
 *    the interpreter's result;
 *  - profiling: per-block entry counts become the block weights the
 *    profile-guided transformations read (profile/profile.hh);
 *  - transformation equivalence tests.
 *
 * Each run() predecodes every function it calls, on its first call,
 * into flat per-block op arrays. An operand is an index into the
 * frame's one dense value array (registers, then predicates, then the
 * function's immediates), so reading it is one load with no switch on
 * its kind. Execution switches once per op: every ALU opcode has its
 * own case, which calls the ir/semantics.hh evaluator with a constant
 * opcode. A PRED_DEF's guard is decoded as an input operand (Table 2)
 * and its own guard as the constant 1, so nullification is one
 * compare. The dynamic counters live in locals of each frame and
 * reach ExecResult at CALL and RET. An op whose operands cannot be
 * read decodes to a trap that panics, with the message the check
 * would give, only when the op executes: the verifier does not check register ranges, so an
 * invalid op in a block that never runs stays harmless. Nothing
 * decoded outlives run(), because programs change between pipeline
 * stages. The interpreter shares only ir/semantics.hh with the
 * simulator engines, so it stays their independent oracle.
 */

#ifndef LBP_IR_INTERPRETER_HH
#define LBP_IR_INTERPRETER_HH

#include <cstdint>
#include <vector>

#include "ir/program.hh"

namespace lbp
{

/** Result of a program execution. */
struct ExecResult
{
    /** FNV-1a hash of the program's designated output region. */
    std::uint64_t checksum = 0;

    /** Return value(s) of the entry function. */
    std::vector<std::int64_t> returns;

    /** Dynamic operations executed (fetched, including nullified). */
    std::uint64_t dynOps = 0;

    /** Dynamic operations whose guard nullified them. */
    std::uint64_t dynNullified = 0;

    /** Dynamic branches executed / taken. */
    std::uint64_t dynBranches = 0;
    std::uint64_t dynTaken = 0;

    /** Block entries observed. */
    std::uint64_t dynBlocks = 0;
};

/** Interpreter over a Program. */
class Interpreter
{
  public:
    explicit Interpreter(const Program &prog);
    ~Interpreter();

    /** Cap on executed operations (guards against runaway loops). */
    void setMaxOps(std::uint64_t n) { maxOps_ = n; }

    /**
     * Run the program's entry function with @p args and return the
     * execution result. Memory is re-initialized from the program
     * image on every call.
     */
    ExecResult run(const std::vector<std::int64_t> &args = {});

    /** Access to final memory after run() (for tests). */
    const std::vector<std::uint8_t> &memory() const { return mem_; }

    /**
     * Entries into each block of function @p f during the last run(),
     * indexed by BlockId (all zero for a function never called).
     */
    const std::vector<std::uint64_t> &blockCounts(FuncId f) const
    { return blockCounts_[f]; }

    /** FNV-1a over an arbitrary byte range of current memory. */
    std::uint64_t hashRange(std::int64_t base, std::int64_t size) const;

  private:
    struct DecodedFunc;
    struct LoopEntry;

    void decodeFunction(FuncId f);
    std::int64_t *pushFrame(FuncId f, size_t nargs, size_t base);
    void execute(FuncId f, size_t base);
    std::int64_t loadMem(Opcode op, std::int64_t addr) const;
    void storeMem(Opcode op, std::int64_t addr, std::int64_t v);

    const Program &prog_;
    std::vector<std::uint8_t> mem_;
    std::uint64_t maxOps_ = 2'000'000'000ull;
    ExecResult res_;
    int callDepth_ = 0;
    std::vector<std::vector<std::uint64_t>> blockCounts_;

    // Per-run state.
    std::vector<DecodedFunc> funcs_;  ///< indexed by FuncId; fn null
                                      ///< until first called
    std::vector<std::int64_t> vals_;  ///< frames' value arrays, stacked
    std::vector<LoopEntry> loops_;    ///< loop contexts of all frames
    std::vector<std::int64_t> rets_;  ///< values of the last RET
};

/** FNV-1a 64-bit hash over a byte span. */
std::uint64_t fnv1a(const std::uint8_t *data, size_t size);

} // namespace lbp

#endif // LBP_IR_INTERPRETER_HH
