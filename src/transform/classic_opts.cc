#include "transform/classic_opts.hh"

#include <map>

#include "analysis/liveness.hh"
#include "ir/semantics.hh"
#include "support/logging.hh"

namespace lbp
{

namespace
{

bool
hasSideEffects(const Operation &op)
{
    if (isStore(op.op) || isControl(op.op) || op.op == Opcode::PRED_DEF)
        return true;
    return false;
}

/** Try evaluating an all-constant ALU op; true on success. */
bool
foldOp(Operation &op, int &folded)
{
    // Only pure single-dest register ops.
    if (op.dsts.size() != 1 || !op.dsts[0].isReg())
        return false;
    switch (op.op) {
      case Opcode::ADD: case Opcode::SUB: case Opcode::MUL:
      case Opcode::AND: case Opcode::OR: case Opcode::XOR:
      case Opcode::SHL: case Opcode::SHR: case Opcode::SHRA:
      case Opcode::MIN: case Opcode::MAX:
      case Opcode::SATADD: case Opcode::SATSUB:
      case Opcode::CMP:
        break;
      case Opcode::DIV: case Opcode::REM:
        // Fold only when the divisor is a non-zero constant.
        if (!op.srcs[1].isImm() || op.srcs[1].value == 0)
            return false;
        break;
      default:
        return false;
    }
    for (const auto &s : op.srcs)
        if (!s.isImm())
            return false;

    const std::int64_t v = evalBinary(op.op, op.cond, op.srcs[0].value,
                                      op.srcs[1].value);
    const RegId dst = op.dsts[0].asReg();
    const PredId guard = op.guard;
    const OpId id = op.id;
    op = makeUnary(Opcode::MOV, dst, Operand::imm(v));
    op.guard = guard;
    op.id = id;
    ++folded;
    return true;
}

/** Algebraic identities: x+0, x*1, x*0, x<<0, ... */
bool
simplifyOp(Operation &op, int &folded)
{
    if (op.dsts.size() != 1 || !op.dsts[0].isReg() || op.srcs.size() != 2)
        return false;
    const RegId dst = op.dsts[0].asReg();
    auto toMov = [&](Operand v) {
        const PredId guard = op.guard;
        const OpId id = op.id;
        op = makeUnary(Opcode::MOV, dst, v);
        op.guard = guard;
        op.id = id;
        ++folded;
        return true;
    };
    const Operand &a = op.srcs[0];
    const Operand &b = op.srcs[1];
    switch (op.op) {
      case Opcode::ADD:
        if (b.isImm() && b.value == 0)
            return toMov(a);
        if (a.isImm() && a.value == 0)
            return toMov(b);
        return false;
      case Opcode::SUB:
        if (b.isImm() && b.value == 0)
            return toMov(a);
        return false;
      case Opcode::MUL:
        if (b.isImm() && b.value == 1)
            return toMov(a);
        if (a.isImm() && a.value == 1)
            return toMov(b);
        if ((b.isImm() && b.value == 0) || (a.isImm() && a.value == 0))
            return toMov(Operand::imm(0));
        return false;
      case Opcode::SHL: case Opcode::SHR: case Opcode::SHRA:
        if (b.isImm() && b.value == 0)
            return toMov(a);
        return false;
      case Opcode::OR: case Opcode::XOR:
        if (b.isImm() && b.value == 0)
            return toMov(a);
        return false;
      default:
        return false;
    }
}

} // namespace

OptStats
constantFold(Function &fn)
{
    OptStats st;
    for (auto &bb : fn.blocks) {
        if (bb.dead)
            continue;
        for (auto &op : bb.ops) {
            if (!foldOp(op, st.folded))
                simplifyOp(op, st.folded);
        }
    }
    return st;
}

OptStats
copyPropagate(Function &fn)
{
    OptStats st;
    for (auto &bb : fn.blocks) {
        if (bb.dead)
            continue;
        // reg -> known copy source (imm or reg), invalidated on write.
        std::map<RegId, Operand> known;
        auto invalidateUsesOf = [&](RegId r) {
            for (auto it = known.begin(); it != known.end();) {
                if (it->first == r ||
                    (it->second.isReg() && it->second.asReg() == r)) {
                    it = known.erase(it);
                } else {
                    ++it;
                }
            }
        };
        for (auto &op : bb.ops) {
            // Substitute sources. Skip branch targets etc. (non-reg).
            for (auto &s : op.srcs) {
                if (!s.isReg())
                    continue;
                auto it = known.find(s.asReg());
                if (it != known.end()) {
                    s = it->second;
                    ++st.propagated;
                }
            }
            // Update facts.
            for (const auto &d : op.dsts) {
                if (d.isReg())
                    invalidateUsesOf(d.asReg());
            }
            if (op.op == Opcode::MOV && !op.hasGuard() &&
                op.dsts.size() == 1 && op.dsts[0].isReg()) {
                const Operand &src = op.srcs[0];
                if (src.isImm() ||
                    (src.isReg() && src.asReg() != op.dsts[0].asReg())) {
                    known[op.dsts[0].asReg()] = src;
                }
            }
        }
    }
    return st;
}

OptStats
deadCodeElim(Function &fn)
{
    OptStats st;
    Liveness live(fn);
    std::vector<char> keep;
    for (auto &bb : fn.blocks) {
        if (bb.dead)
            continue;
        // Backward scan with a running live set seeded by live-out.
        RegSet liveNow = live.liveOut(bb.id);
        RegSet predLiveNow = live.predLiveOut(bb.id);
        keep.assign(bb.ops.size(), 1);
        bool dropped = false;
        for (int i = static_cast<int>(bb.ops.size()) - 1; i >= 0; --i) {
            const Operation &op = bb.ops[i];
            bool needed = hasSideEffects(op);
            if (!needed) {
                for (const auto &d : op.dsts)
                    if (d.isReg() && liveNow.test(d.asReg()))
                        needed = true;
            }
            // A pred_def is removable if all pred destinations are
            // dead (and none are slots).
            if (op.op == Opcode::PRED_DEF) {
                needed = false;
                for (const auto &d : op.dsts) {
                    if (!d.isPred() || predLiveNow.test(d.asPred()))
                        needed = true;
                }
            }
            if (!needed) {
                keep[i] = 0;
                dropped = true;
                ++st.eliminated;
                continue;
            }
            // Update live sets. Predicate defines never kill here:
            // keeping predicates live is the conservative choice.
            if (op.hasGuard()) {
                predLiveNow.set(op.guard);
            } else {
                for (const auto &d : op.dsts)
                    if (d.isReg())
                        liveNow.reset(d.asReg());
            }
            for (const auto &s : op.srcs) {
                if (s.isReg())
                    liveNow.set(s.asReg());
                else if (s.isPred())
                    predLiveNow.set(s.asPred());
            }
        }
        if (dropped) {
            std::vector<Operation> kept;
            kept.reserve(bb.ops.size());
            for (size_t i = 0; i < bb.ops.size(); ++i)
                if (keep[i])
                    kept.push_back(std::move(bb.ops[i]));
            bb.ops = std::move(kept);
        }
    }
    return st;
}

OptStats
optimizeFunction(Function &fn, int max_rounds)
{
    OptStats total;
    for (int round = 0; round < max_rounds; ++round) {
        OptStats st;
        st += copyPropagate(fn);
        st += constantFold(fn);
        st += deadCodeElim(fn);
        total += st;
        if (!st.any())
            break;
    }
    fn.pruneUnreachable();
    return total;
}

OptStats
optimizeProgram(Program &prog)
{
    OptStats total;
    for (auto &fn : prog.functions)
        total += optimizeFunction(fn);
    return total;
}

} // namespace lbp
