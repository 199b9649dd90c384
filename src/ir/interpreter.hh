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
 *  - profiling: block execution counts and branch statistics feed the
 *    profile-guided transformations;
 *  - transformation equivalence tests.
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

/** Optional profile collection during interpretation. */
class ProfileSink
{
  public:
    virtual ~ProfileSink() = default;

    /** Block @p b of function @p f entered. */
    virtual void onBlock(FuncId f, BlockId b) = 0;

    /**
     * Branch op @p opId in (f, b) executed; @p taken tells the
     * resolved direction (nullified branches report not-taken).
     */
    virtual void onBranch(FuncId f, BlockId b, OpId opId, bool taken) = 0;
};

/** Interpreter over a Program. */
class Interpreter
{
  public:
    explicit Interpreter(const Program &prog);

    /** Attach a profile sink (may be null). */
    void setProfileSink(ProfileSink *sink) { sink_ = sink; }

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

    /** FNV-1a over an arbitrary byte range of current memory. */
    std::uint64_t hashRange(std::int64_t base, std::int64_t size) const;

  private:
    struct Frame
    {
        const Function *fn = nullptr;
        std::vector<std::int64_t> regs;
        std::vector<std::uint8_t> preds;
    };

    /** Loop-count stack entry for hardware-loop semantics. */
    struct LoopEntry
    {
        bool counted = false;
        std::int64_t remaining = 0;
        /** The loop head (REC/EXEC target); a taken transfer that
         *  leaves the body cancels the context, like real
         *  zero-overhead-loop hardware does. */
        BlockId head = kNoBlock;
        /** For EXEC_* entries: where to resume on loop exit. */
        BlockId resumeBlock = kNoBlock;
        size_t resumeIndex = 0;
        bool isExec = false;
    };

    std::vector<std::int64_t> callFunction(const Function &fn,
                                           const std::vector<std::int64_t>
                                               &args);

    std::int64_t readOperand(const Frame &fr, const Operand &o) const;
    bool guardPasses(const Frame &fr, const Operation &op) const;
    void execPredDef(Frame &fr, const Operation &op);
    std::int64_t loadMem(Opcode op, std::int64_t addr) const;
    void storeMem(Opcode op, std::int64_t addr, std::int64_t v);

    const Program &prog_;
    std::vector<std::uint8_t> mem_;
    ProfileSink *sink_ = nullptr;
    std::uint64_t maxOps_ = 2'000'000'000ull;
    ExecResult res_;
    std::uint64_t executed_ = 0;
    int callDepth_ = 0;
};

/** FNV-1a 64-bit hash over a byte span. */
std::uint64_t fnv1a(const std::uint8_t *data, size_t size);

} // namespace lbp

#endif // LBP_IR_INTERPRETER_HH
