#include "analysis/liveness.hh"

#include <bit>
#include <utility>

namespace lbp
{

int
RegSet::count() const
{
    int c = 0;
    for (std::uint64_t w : words_)
        c += std::popcount(w);
    return c;
}

RegSet &
RegSet::operator|=(const RegSet &o)
{
    assert(o.words_.size() == words_.size());
    for (size_t i = 0; i < words_.size(); ++i)
        words_[i] |= o.words_[i];
    return *this;
}

RegSet &
RegSet::operator&=(const RegSet &o)
{
    assert(o.words_.size() == words_.size());
    for (size_t i = 0; i < words_.size(); ++i)
        words_[i] &= o.words_[i];
    return *this;
}

RegSet &
RegSet::operator-=(const RegSet &o)
{
    assert(o.words_.size() == words_.size());
    for (size_t i = 0; i < words_.size(); ++i)
        words_[i] &= ~o.words_[i];
    return *this;
}

std::vector<RegId>
Liveness::uses(const Operation &op)
{
    std::vector<RegId> u;
    for (const auto &s : op.srcs)
        if (s.isReg())
            u.push_back(s.asReg());
    return u;
}

std::vector<RegId>
Liveness::defs(const Operation &op)
{
    std::vector<RegId> d;
    for (const auto &s : op.dsts)
        if (s.isReg())
            d.push_back(s.asReg());
    return d;
}

std::vector<PredId>
Liveness::predUses(const Operation &op)
{
    std::vector<PredId> u;
    if (op.guard != kNoPred)
        u.push_back(op.guard);
    for (const auto &s : op.srcs)
        if (s.isPred())
            u.push_back(s.asPred());
    return u;
}

std::vector<PredId>
Liveness::predDefs(const Operation &op)
{
    std::vector<PredId> d;
    if (op.op != Opcode::PRED_DEF)
        return d;
    for (const auto &s : op.dsts)
        if (s.isPred())
            d.push_back(s.asPred());
    return d;
}

Liveness::Liveness(const Function &fn)
{
    const size_t n = fn.blocks.size();
    const RegSet noRegs(fn.nextReg), noPreds(fn.nextPred);
    liveIn_.assign(n, noRegs);
    liveOut_.assign(n, noRegs);
    predLiveIn_.assign(n, noPreds);
    predLiveOut_.assign(n, noPreds);

    // Per-block gen (upward-exposed uses) and kill (unconditional
    // defs). Guarded definitions are conservative: they do not kill.
    std::vector<RegSet> gen(n, noRegs), kill(n, noRegs);
    std::vector<RegSet> pgen(n, noPreds), pkill(n, noPreds);
    for (const auto &bb : fn.blocks) {
        if (bb.dead)
            continue;
        RegSet &g = gen[bb.id], &k = kill[bb.id];
        RegSet &pg = pgen[bb.id], &pk = pkill[bb.id];
        for (const auto &op : bb.ops) {
            if (op.hasGuard() && !pk.test(op.guard))
                pg.set(op.guard);
            for (const auto &s : op.srcs) {
                if (s.isReg() && !k.test(s.asReg()))
                    g.set(s.asReg());
                if (s.isPred() && !pk.test(s.asPred()))
                    pg.set(s.asPred());
            }
            if (op.hasGuard())
                continue;
            for (const auto &d : op.dsts)
                if (d.isReg())
                    k.set(d.asReg());
            // Unconditional u-type predicate defines always write.
            if (op.op == Opcode::PRED_DEF) {
                if (op.defKind0 == PredDefKind::UT ||
                    op.defKind0 == PredDefKind::UF) {
                    if (op.dsts[0].isPred())
                        pk.set(op.dsts[0].asPred());
                }
                if (op.dsts.size() > 1 &&
                    (op.defKind1 == PredDefKind::UT ||
                     op.defKind1 == PredDefKind::UF)) {
                    if (op.dsts[1].isPred())
                        pk.set(op.dsts[1].asPred());
                }
            }
        }
    }

    // in = gen | (out - kill), out = union of successors' in, iterated
    // to the least fixpoint in reverse RPO.
    const std::vector<BlockId> rpo = fn.reversePostorder();
    RegSet out, in, pout, pin;
    for (bool changed = true; changed;) {
        changed = false;
        for (auto it = rpo.rbegin(); it != rpo.rend(); ++it) {
            const BlockId b = *it;
            out = noRegs;
            pout = noPreds;
            for (BlockId s : fn.blocks[b].successors()) {
                out |= liveIn_[s];
                pout |= predLiveIn_[s];
            }
            in = out;
            in -= kill[b];
            in |= gen[b];
            pin = pout;
            pin -= pkill[b];
            pin |= pgen[b];
            if (out != liveOut_[b] || in != liveIn_[b] ||
                pout != predLiveOut_[b] || pin != predLiveIn_[b]) {
                changed = true;
                std::swap(liveOut_[b], out);
                std::swap(liveIn_[b], in);
                std::swap(predLiveOut_[b], pout);
                std::swap(predLiveIn_[b], pin);
            }
        }
    }
}

} // namespace lbp
