#include "analysis/liveness.hh"

#include <algorithm>
#include <bit>

#include "obs/prof.hh"

namespace lbp
{

int
RegSetRef::count() const
{
    int c = 0;
    for (std::uint32_t i = 0; i < numWords_; ++i)
        c += std::popcount(words_[i]);
    return c;
}

RegSet &
RegSet::assign(RegSetRef o)
{
    assert(o.numWords() == words_.size());
    std::copy(o.words(), o.words() + o.numWords(), words_.begin());
    return *this;
}

RegSet &
RegSet::operator|=(RegSetRef o)
{
    assert(o.numWords() == words_.size());
    for (size_t i = 0; i < words_.size(); ++i)
        words_[i] |= o.words()[i];
    return *this;
}

RegSet &
RegSet::operator&=(RegSetRef o)
{
    assert(o.numWords() == words_.size());
    for (size_t i = 0; i < words_.size(); ++i)
        words_[i] &= o.words()[i];
    return *this;
}

RegSet &
RegSet::operator-=(RegSetRef o)
{
    assert(o.numWords() == words_.size());
    for (size_t i = 0; i < words_.size(); ++i)
        words_[i] &= ~o.words()[i];
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

namespace
{

using Words = std::vector<std::uint64_t>;

/** Row @p b of a matrix of @p words-word rows. */
std::uint64_t *
rowOf(Words &m, std::uint32_t words, BlockId b)
{
    return m.data() + size_t{b} * words;
}

void
setBit(std::uint64_t *row, [[maybe_unused]] std::uint32_t words,
       std::uint32_t i)
{
    assert(i / 64 < words);
    row[i / 64] |= std::uint64_t{1} << (i % 64);
}

bool
testBit(const std::uint64_t *row, [[maybe_unused]] std::uint32_t words,
        std::uint32_t i)
{
    assert(i / 64 < words);
    return (row[i / 64] >> (i % 64)) & 1;
}

/**
 * Block @p b's transfer: out = union of @p succs' in, in = gen |
 * (out - kill). Returns true if either row changed.
 */
bool
transfer(Words &in, Words &out, const Words &gen, const Words &kill,
         std::uint32_t words, BlockId b, std::span<const BlockId> succs)
{
    const size_t at = size_t{b} * words;
    bool changed = false;
    for (std::uint32_t w = 0; w < words; ++w) {
        std::uint64_t o = 0;
        for (BlockId s : succs)
            o |= in[size_t{s} * words + w];
        const std::uint64_t i = gen[at + w] | (o & ~kill[at + w]);
        changed |= o != out[at + w] || i != in[at + w];
        out[at + w] = o;
        in[at + w] = i;
    }
    return changed;
}

} // namespace

Liveness::Liveness(const Function &fn)
    : regWords_((fn.nextReg + 63) / 64), predWords_((fn.nextPred + 63) / 64)
{
    static const std::uint8_t region = obs::prof::internRegion("liveness");
    obs::prof::ScopedRegion profRegion(region);

    const size_t n = fn.blocks.size();
    const std::uint32_t rw = regWords_, pw = predWords_;
    liveIn_.assign(n * rw, 0);
    liveOut_.assign(n * rw, 0);
    predLiveIn_.assign(n * pw, 0);
    predLiveOut_.assign(n * pw, 0);

    // Per-block gen (upward-exposed uses) and kill (unconditional
    // defs). Guarded definitions are conservative: they do not kill.
    Words gen(n * rw, 0), kill(n * rw, 0);
    Words pgen(n * pw, 0), pkill(n * pw, 0);
    for (const auto &bb : fn.blocks) {
        if (bb.dead)
            continue;
        std::uint64_t *g = rowOf(gen, rw, bb.id), *k = rowOf(kill, rw, bb.id);
        std::uint64_t *pg = rowOf(pgen, pw, bb.id);
        std::uint64_t *pk = rowOf(pkill, pw, bb.id);
        for (const auto &op : bb.ops) {
            if (op.hasGuard() && !testBit(pk, pw, op.guard))
                setBit(pg, pw, op.guard);
            for (const auto &s : op.srcs) {
                if (s.isReg() && !testBit(k, rw, s.asReg()))
                    setBit(g, rw, s.asReg());
                if (s.isPred() && !testBit(pk, pw, s.asPred()))
                    setBit(pg, pw, s.asPred());
            }
            if (op.hasGuard())
                continue;
            for (const auto &d : op.dsts)
                if (d.isReg())
                    setBit(k, rw, d.asReg());
            // Unconditional u-type predicate defines always write.
            if (op.op == Opcode::PRED_DEF) {
                if (op.defKind0 == PredDefKind::UT ||
                    op.defKind0 == PredDefKind::UF) {
                    if (op.dsts[0].isPred())
                        setBit(pk, pw, op.dsts[0].asPred());
                }
                if (op.dsts.size() > 1 &&
                    (op.defKind1 == PredDefKind::UT ||
                     op.defKind1 == PredDefKind::UF)) {
                    if (op.dsts[1].isPred())
                        setBit(pk, pw, op.dsts[1].asPred());
                }
            }
        }
    }

    // in = gen | (out - kill), out = union of successors' in, iterated
    // to the least fixpoint in reverse RPO. The successor lists are
    // built once for the whole solve.
    const BlockLists succs = fn.successorLists();
    const std::vector<BlockId> rpo = fn.reversePostorder(succs);
    for (bool changed = true; changed;) {
        changed = false;
        for (auto it = rpo.rbegin(); it != rpo.rend(); ++it) {
            const BlockId b = *it;
            changed |= transfer(liveIn_, liveOut_, gen, kill, rw, b, succs[b]);
            changed |= transfer(predLiveIn_, predLiveOut_, pgen, pkill, pw,
                                b, succs[b]);
        }
    }
}

} // namespace lbp
