#include "ir/interpreter.hh"

#include <algorithm>
#include <string>

#include "ir/semantics.hh"
#include "support/logging.hh"

namespace lbp
{

namespace
{

/** Decoded opcode of an op that panics when it executes. */
constexpr Opcode kTrap = Opcode::NUM_OPCODES;

/**
 * One predecoded op. Operand fields index the frame's value
 * array; an unguarded op's guard indexes a constant 1.
 */
struct DecodedOp
{
    Opcode op = Opcode::NOP; ///< or kTrap
    CmpCond cond = CmpCond::EQ;
    PredDefKind defKind0 = PredDefKind::NONE;
    PredDefKind defKind1 = PredDefKind::NONE;
    /** Counts as a branch when nullified. */
    bool branch = false;
    bool speculative = false;
    std::uint32_t guard = 0;
    /** Sources; CALL/RET: a = offset into DecodedFunc::lists,
     *  b = argument count, c = result count; PRED_DEF: c = its guard,
     *  an input to the define (its own guard is the constant 1). */
    std::uint32_t a = 0, b = 0, c = 0;
    /** Destinations (registers, or predicates for PRED_DEF). */
    std::uint32_t d0 = 0, d1 = 0;
    /** Branch target block; callee for CALL; message for a trap. */
    std::uint32_t target = 0;
};

struct DecodedBlock
{
    std::uint32_t begin = 0, end = 0; ///< range in DecodedFunc::ops
    BlockId fallthrough = kNoBlock;
    bool dead = false;
};

} // namespace

struct Interpreter::DecodedFunc
{
    const Function *fn = nullptr;
    std::vector<DecodedOp> ops;
    std::vector<DecodedBlock> blocks; ///< indexed by BlockId
    /** CALL argument/result and RET value index lists. */
    std::vector<std::uint32_t> lists;
    /** Frame layout: registers and predicates in [0, immBase),
     *  then `imms`. */
    std::uint32_t immBase = 0;
    std::vector<std::int64_t> imms;
    std::vector<std::string> traps;
};

/** Loop-count stack entry for hardware-loop semantics. */
struct Interpreter::LoopEntry
{
    bool counted = false;
    std::int64_t remaining = 0;
    /** The loop head (REC/EXEC target); a taken transfer that
     *  leaves the body cancels the context, like real
     *  zero-overhead-loop hardware does. */
    BlockId head = kNoBlock;
    /** For EXEC_* entries: where to resume on loop exit. */
    BlockId resumeBlock = kNoBlock;
    std::uint32_t resumeOp = 0;
    bool isExec = false;
};

std::uint64_t
fnv1a(const std::uint8_t *data, size_t size)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

Interpreter::Interpreter(const Program &prog) : prog_(prog)
{
}

Interpreter::~Interpreter() = default;

std::uint64_t
Interpreter::hashRange(std::int64_t base, std::int64_t size) const
{
    if (size <= 0)
        return fnv1a(nullptr, 0);
    LBP_ASSERT(base >= 0 &&
               static_cast<size_t>(base + size) <= mem_.size(),
               "hashRange out of bounds");
    return fnv1a(mem_.data() + base, static_cast<size_t>(size));
}

ExecResult
Interpreter::run(const std::vector<std::int64_t> &args)
{
    LBP_ASSERT(prog_.entryFunc != kNoFunc, "program without entry");
    mem_ = prog_.memory;
    res_ = ExecResult{};
    callDepth_ = 0;
    blockCounts_.resize(prog_.functions.size());
    for (const auto &fn : prog_.functions)
        blockCounts_[fn.id].assign(fn.blocks.size(), 0);
    funcs_.assign(prog_.functions.size(), DecodedFunc{});
    loops_.clear();

    std::int64_t *v = pushFrame(prog_.entryFunc, args.size(), 0);
    const Function &entry = prog_.functions[prog_.entryFunc];
    for (size_t i = 0; i < args.size(); ++i)
        v[entry.params[i]] = args[i];
    execute(prog_.entryFunc, 0);

    res_.returns = rets_;
    res_.checksum = hashRange(prog_.checksumBase, prog_.checksumSize);
    funcs_.clear();
    return res_;
}

void
Interpreter::decodeFunction(FuncId f)
{
    const Function &fn = prog_.functions[f];
    DecodedFunc &df = funcs_[f];
    df.fn = &fn;
    const std::uint32_t nregs = fn.nextReg;
    const std::uint32_t npreds = std::max<PredId>(fn.nextPred, 1);
    df.immBase = nregs + npreds;
    // The first immediate is the constant guard of unguarded ops.
    df.imms.assign(1, 1);
    const std::uint32_t one = df.immBase;

    for (RegId p : fn.params)
        LBP_ASSERT(p < nregs, "register out of range r", p, " in ",
                   fn.name);

    // The first failed check of the op being decoded.
    std::string trap;
    auto fail = [&](auto &&...msg) {
        if (trap.empty())
            trap = detail::formatArgs(msg...);
        return 0u;
    };
    auto src = [&](const Operation &op, size_t i) -> std::uint32_t {
        if (i >= op.srcs.size())
            return fail("missing source of ", opcodeName(op.op), " in ",
                        fn.name);
        const Operand &o = op.srcs[i];
        switch (o.kind) {
          case OperandKind::REG:
            if (o.asReg() < nregs)
                return o.asReg();
            return fail("register out of range r", o.asReg(), " in ",
                        fn.name);
          case OperandKind::IMM:
            df.imms.push_back(o.value);
            return df.immBase +
                   static_cast<std::uint32_t>(df.imms.size() - 1);
          case OperandKind::PRED:
            if (o.asPred() < npreds)
                return nregs + o.asPred();
            return fail("pred out of range");
          default:
            return fail("unreadable operand kind");
        }
    };
    // Every register destination is written as a register, whatever
    // its operand kind.
    auto regDst = [&](const Operation &op, size_t i) -> std::uint32_t {
        if (i >= op.dsts.size())
            return fail("missing destination of ", opcodeName(op.op),
                        " in ", fn.name);
        if (op.dsts[i].asReg() < nregs)
            return op.dsts[i].asReg();
        return fail("register out of range r", op.dsts[i].asReg(), " in ",
                    fn.name);
    };
    auto predDst = [&](const Operation &op, size_t i) -> std::uint32_t {
        if (i >= op.dsts.size())
            return fail("missing destination of ", opcodeName(op.op),
                        " in ", fn.name);
        const Operand &o = op.dsts[i];
        if (!o.isPred())
            return fail("interpreter requires pred-register destinations");
        if (o.asPred() == kNoPred || o.asPred() >= npreds)
            return fail("bad pred destination");
        return nregs + o.asPred();
    };
    auto list = [&](size_t n, auto &&decodeOne) {
        const auto at = static_cast<std::uint32_t>(df.lists.size());
        for (size_t i = 0; i < n; ++i)
            df.lists.push_back(decodeOne(i));
        return at;
    };

    size_t total = 0;
    for (const auto &bb : fn.blocks)
        total += bb.ops.size();
    df.ops.reserve(total);
    df.blocks.resize(fn.blocks.size());
    for (size_t bi = 0; bi < fn.blocks.size(); ++bi) {
        const BasicBlock &bb = fn.blocks[bi];
        DecodedBlock &db = df.blocks[bi];
        db.fallthrough = bb.fallthrough;
        db.dead = bb.dead;
        db.begin = static_cast<std::uint32_t>(df.ops.size());
        if (!bb.dead) {
            for (const Operation &op : bb.ops) {
                trap.clear();
                DecodedOp d;
                d.op = op.op;
                d.cond = op.cond;
                d.branch = op.isBranchOp();
                d.speculative = op.speculative;
                d.target = op.target;
                bool alwaysRuns = op.op == Opcode::PRED_DEF;
                if (op.guard == kNoPred) {
                    d.guard = one;
                } else if (op.guard < npreds) {
                    d.guard = nregs + op.guard;
                } else {
                    fail("guard pred out of range p", op.guard, " in ",
                         fn.name);
                    alwaysRuns = true;
                }
                switch (op.op) {
                  case Opcode::NOP:
                  case Opcode::JUMP:
                  case Opcode::BR_CLOOP:
                  case Opcode::REC_WLOOP:
                  case Opcode::EXEC_WLOOP:
                    break;
                  case Opcode::MOV:
                  case Opcode::ABS:
                  case Opcode::ITOF:
                  case Opcode::FTOI:
                    d.a = src(op, 0);
                    d.d0 = regDst(op, 0);
                    break;
                  case Opcode::SELECT:
                    d.a = src(op, 0);
                    d.b = src(op, 1);
                    d.c = src(op, 2);
                    d.d0 = regDst(op, 0);
                    break;
                  case Opcode::LD_B:
                  case Opcode::LD_H:
                  case Opcode::LD_W:
                    d.a = src(op, 0);
                    d.b = src(op, 1);
                    d.d0 = regDst(op, 0);
                    break;
                  case Opcode::ST_B:
                  case Opcode::ST_H:
                  case Opcode::ST_W:
                    d.a = src(op, 0);
                    d.b = src(op, 1);
                    d.c = src(op, 2);
                    break;
                  case Opcode::PRED_DEF:
                    d.a = src(op, 0);
                    d.b = src(op, 1);
                    d.c = d.guard;
                    d.guard = one;
                    d.defKind0 = op.defKind0;
                    if (d.defKind0 != PredDefKind::NONE)
                        d.d0 = predDst(op, 0);
                    if (op.dsts.size() > 1)
                        d.defKind1 = op.defKind1;
                    if (d.defKind1 != PredDefKind::NONE)
                        d.d1 = predDst(op, 1);
                    break;
                  case Opcode::BR:
                  case Opcode::BR_WLOOP:
                    d.a = src(op, 0);
                    d.b = src(op, 1);
                    break;
                  case Opcode::REC_CLOOP:
                  case Opcode::EXEC_CLOOP:
                    d.a = src(op, 0);
                    break;
                  case Opcode::CALL:
                    if (op.callee >= prog_.functions.size())
                        fail("call to unknown function in ", fn.name);
                    d.target = op.callee;
                    d.a = list(op.srcs.size(),
                               [&](size_t i) { return src(op, i); });
                    list(op.dsts.size(),
                         [&](size_t i) { return regDst(op, i); });
                    d.b = static_cast<std::uint32_t>(op.srcs.size());
                    d.c = static_cast<std::uint32_t>(op.dsts.size());
                    break;
                  case Opcode::RET:
                    d.a = list(op.srcs.size(),
                               [&](size_t i) { return src(op, i); });
                    d.b = static_cast<std::uint32_t>(op.srcs.size());
                    break;
                  default: // binary ALU family
                    d.a = src(op, 0);
                    d.b = src(op, 1);
                    d.d0 = regDst(op, 0);
                    break;
                }
                if (!trap.empty()) {
                    // A nullified op reads nothing, so only a bad
                    // guard, or a PRED_DEF (whose guard is an input),
                    // faults regardless of the guard's value.
                    d.op = kTrap;
                    if (alwaysRuns)
                        d.guard = one;
                    d.target = static_cast<std::uint32_t>(df.traps.size());
                    df.traps.push_back(trap);
                }
                df.ops.push_back(d);
            }
        }
        db.end = static_cast<std::uint32_t>(df.ops.size());
    }
}

std::int64_t *
Interpreter::pushFrame(FuncId f, size_t nargs, size_t base)
{
    const Function &fn = prog_.functions[f];
    LBP_ASSERT(++callDepth_ < 200, "call stack overflow in ", fn.name);
    LBP_ASSERT(nargs == fn.params.size(),
               "argument count mismatch calling ", fn.name);
    if (!funcs_[f].fn)
        decodeFunction(f);
    const DecodedFunc &df = funcs_[f];
    const size_t size = df.immBase + df.imms.size();
    if (vals_.size() < base + size)
        vals_.resize(base + size);
    std::int64_t *v = vals_.data() + base;
    std::fill(v, v + df.immBase, 0);
    std::copy(df.imms.begin(), df.imms.end(), v + df.immBase);
    return v;
}

std::int64_t
Interpreter::loadMem(Opcode op, std::int64_t addr) const
{
    LBP_ASSERT(addr >= 0, "negative load address");
    LBP_ASSERT(static_cast<size_t>(addr) + memWidth(op) <= mem_.size(),
               "load out of bounds @", addr);
    return loadValue(op, mem_.data() + addr);
}

void
Interpreter::storeMem(Opcode op, std::int64_t addr, std::int64_t v)
{
    LBP_ASSERT(addr >= 0, "negative store address");
    LBP_ASSERT(static_cast<size_t>(addr) + memWidth(op) <= mem_.size(),
               "store out of bounds @", addr);
    storeValue(op, mem_.data() + addr, v);
}

void
Interpreter::execute(FuncId f, size_t base)
{
    const DecodedFunc &df = funcs_[f];
    const Function &fn = *df.fn;
    const DecodedOp *const ops = df.ops.data();
    std::uint64_t *const counts = blockCounts_[f].data();
    const size_t frameSize = df.immBase + df.imms.size();
    // This frame's hardware-loop contexts are loops_[loopBase..].
    const size_t loopBase = loops_.size();
    std::int64_t *v = vals_.data() + base;

    // The dynamic counters live in locals; res_ holds them only
    // across calls and after RET.
    const std::uint64_t maxOps = maxOps_;
    std::uint64_t dynOps, dynNullified, dynBranches, dynTaken, dynBlocks;
    auto load = [&] {
        dynOps = res_.dynOps;
        dynNullified = res_.dynNullified;
        dynBranches = res_.dynBranches;
        dynTaken = res_.dynTaken;
        dynBlocks = res_.dynBlocks;
    };
    auto flush = [&] {
        res_.dynOps = dynOps;
        res_.dynNullified = dynNullified;
        res_.dynBranches = dynBranches;
        res_.dynTaken = dynTaken;
        res_.dynBlocks = dynBlocks;
    };
    load();

    BlockId cur = kNoBlock;
    const DecodedOp *pc = nullptr;
    const DecodedOp *end = nullptr;
    auto enter = [&](BlockId b) {
        LBP_ASSERT(b < df.blocks.size(), "fell off CFG in ", fn.name);
        const DecodedBlock &db = df.blocks[b];
        LBP_ASSERT(!db.dead, "executing dead block in ", fn.name);
        ++dynBlocks;
        ++counts[b];
        cur = b;
        pc = ops + db.begin;
        end = ops + db.end;
    };
    auto resume = [&](const LoopEntry &le) {
        cur = le.resumeBlock;
        pc = ops + le.resumeOp;
        end = ops + df.blocks[cur].end;
    };
    auto inLoop = [&] { return loops_.size() > loopBase; };
    // A taken transfer that leaves the active hardware loop's body
    // cancels its context.
    auto leaveLoops = [&](BlockId target) {
        while (inLoop() && loops_.back().head == cur &&
               target != loops_.back().head) {
            loops_.pop_back();
        }
    };

    enter(fn.entry);
    while (true) {
        if (pc == end) {
            const BlockId next = df.blocks[cur].fallthrough;
            LBP_ASSERT(next != kNoBlock, "fell off block ",
                       fn.blocks[cur].name, " in ", fn.name);
            enter(next);
            continue;
        }

        const DecodedOp &op = *pc;
        LBP_ASSERT(++dynOps <= maxOps,
                   "operation budget exceeded in ", fn.name);

        // PRED_DEF's guard is the constant 1 (its real guard is an
        // input), so one compare decides nullification.
        if (v[op.guard] == 0) {
            ++dynNullified;
            if (op.branch)
                ++dynBranches;
            ++pc;
            continue;
        }

        // One case per ALU opcode: with the opcode a constant, the
        // forced-inline evaluator folds to the one operation.
#define LBP_INTERP_BINARY(OPC)                                            \
          case Opcode::OPC:                                               \
            v[op.d0] = evalBinary(Opcode::OPC, op.cond, v[op.a], v[op.b]); \
            ++pc;                                                         \
            break;
#define LBP_INTERP_UNARY(OPC)                                             \
          case Opcode::OPC:                                               \
            v[op.d0] = evalUnary(Opcode::OPC, v[op.a]);                   \
            ++pc;                                                         \
            break;

        switch (op.op) {
          case Opcode::NOP:
            ++pc;
            break;

          LBP_INTERP_BINARY(ADD)
          LBP_INTERP_BINARY(SUB)
          LBP_INTERP_BINARY(MUL)
          LBP_INTERP_BINARY(DIV)
          LBP_INTERP_BINARY(REM)
          LBP_INTERP_BINARY(AND)
          LBP_INTERP_BINARY(OR)
          LBP_INTERP_BINARY(XOR)
          LBP_INTERP_BINARY(SHL)
          LBP_INTERP_BINARY(SHR)
          LBP_INTERP_BINARY(SHRA)
          LBP_INTERP_BINARY(MIN)
          LBP_INTERP_BINARY(MAX)
          LBP_INTERP_BINARY(SATADD)
          LBP_INTERP_BINARY(SATSUB)
          LBP_INTERP_BINARY(CMP)
          LBP_INTERP_BINARY(FADD)
          LBP_INTERP_BINARY(FSUB)
          LBP_INTERP_BINARY(FMUL)
          LBP_INTERP_BINARY(FDIV)
          LBP_INTERP_UNARY(MOV)
          LBP_INTERP_UNARY(ABS)
          LBP_INTERP_UNARY(ITOF)
          LBP_INTERP_UNARY(FTOI)
#undef LBP_INTERP_BINARY
#undef LBP_INTERP_UNARY

          case Opcode::SELECT:
            v[op.d0] = v[op.a] ? v[op.b] : v[op.c];
            ++pc;
            break;

          case Opcode::LD_B:
          case Opcode::LD_H:
          case Opcode::LD_W: {
            const std::int64_t addr = v[op.a] + v[op.b];
            if (op.speculative &&
                (addr < 0 || static_cast<size_t>(addr) +
                                     memWidth(op.op) > mem_.size())) {
                // Speculative (non-faulting) load form: out-of-range
                // accesses deliver 0 instead of faulting.
                v[op.d0] = 0;
            } else {
                v[op.d0] = loadMem(op.op, addr);
            }
            ++pc;
            break;
          }

          case Opcode::ST_B:
          case Opcode::ST_H:
          case Opcode::ST_W:
            storeMem(op.op, v[op.a] + v[op.b], v[op.c]);
            ++pc;
            break;

          case Opcode::PRED_DEF: {
            // Table 2: the guard is an input to the define function,
            // not a nullification condition.
            const bool g = v[op.c] != 0;
            const bool c = evalCond(op.cond, v[op.a], v[op.b]);
            int write = predDefWrite(op.defKind0, g, c);
            if (write >= 0)
                v[op.d0] = write;
            write = predDefWrite(op.defKind1, g, c);
            if (write >= 0)
                v[op.d1] = write;
            ++pc;
            break;
          }

          case Opcode::BR:
          case Opcode::BR_WLOOP: {
            ++dynBranches;
            const bool taken = evalCond(op.cond, v[op.a], v[op.b]);
            if (taken)
                ++dynTaken;
            if (op.op == Opcode::BR_WLOOP && !taken && inLoop() &&
                !loops_.back().counted) {
                // While-loop exit: retire the hardware loop context.
                if (loops_.back().isExec) {
                    resume(loops_.back());
                    loops_.pop_back();
                    break;
                }
                loops_.pop_back();
            }
            if (taken) {
                leaveLoops(op.target);
                enter(op.target);
            } else {
                ++pc;
            }
            break;
          }

          case Opcode::JUMP:
            ++dynBranches;
            ++dynTaken;
            leaveLoops(op.target);
            enter(op.target);
            break;

          case Opcode::BR_CLOOP: {
            ++dynBranches;
            LBP_ASSERT(inLoop() && loops_.back().counted,
                       "br.cloop without live counted-loop context in ",
                       fn.name);
            LoopEntry &le = loops_.back();
            if (--le.remaining > 0) {
                ++dynTaken;
                enter(op.target);
            } else if (le.isExec) {
                resume(le);
                loops_.pop_back();
            } else {
                loops_.pop_back();
                ++pc;
            }
            break;
          }

          case Opcode::REC_CLOOP: {
            const std::int64_t count = v[op.a];
            LBP_ASSERT(count >= 1, "rec_cloop with count ", count,
                       " in ", fn.name);
            loops_.push_back({true, count, op.target, kNoBlock, 0, false});
            ++pc;
            break;
          }

          case Opcode::REC_WLOOP:
            loops_.push_back({false, 0, op.target, kNoBlock, 0, false});
            ++pc;
            break;

          case Opcode::EXEC_CLOOP: {
            const std::int64_t count = v[op.a];
            LBP_ASSERT(count >= 1, "exec_cloop with count ", count);
            const auto next = static_cast<std::uint32_t>(pc - ops + 1);
            loops_.push_back({true, count, op.target, cur, next, true});
            enter(op.target);
            break;
          }

          case Opcode::EXEC_WLOOP: {
            const auto next = static_cast<std::uint32_t>(pc - ops + 1);
            loops_.push_back({false, 0, op.target, cur, next, true});
            enter(op.target);
            break;
          }

          case Opcode::CALL: {
            const std::uint32_t *args = df.lists.data() + op.a;
            const size_t calleeBase = base + frameSize;
            std::int64_t *cv = pushFrame(op.target, op.b, calleeBase);
            v = vals_.data() + base; // pushFrame may have grown vals_
            const std::vector<RegId> &params =
                prog_.functions[op.target].params;
            for (std::uint32_t i = 0; i < op.b; ++i)
                cv[params[i]] = v[args[i]];
            flush();
            execute(op.target, calleeBase);
            load();
            v = vals_.data() + base;
            LBP_ASSERT(rets_.size() >= op.c,
                       "not enough return values from ",
                       prog_.functions[op.target].name);
            const std::uint32_t *dsts = args + op.b;
            for (std::uint32_t i = 0; i < op.c; ++i)
                v[dsts[i]] = rets_[i];
            ++pc;
            break;
          }

          case Opcode::RET: {
            const std::uint32_t *srcs = df.lists.data() + op.a;
            rets_.clear();
            for (std::uint32_t i = 0; i < op.b; ++i)
                rets_.push_back(v[srcs[i]]);
            loops_.resize(loopBase);
            --callDepth_;
            flush();
            return;
          }

          case kTrap:
            LBP_PANIC(df.traps[op.target]);

          default:
            LBP_PANIC("interpreter: undecoded opcode ",
                      static_cast<int>(op.op));
        }
    }
}

} // namespace lbp
