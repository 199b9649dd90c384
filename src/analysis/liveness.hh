/**
 * @file
 * Backward live-variable analysis over general and predicate
 * registers, used by dead-code elimination, reassociation, branch
 * combining, promotion and the register-pressure metric.
 */

#ifndef LBP_ANALYSIS_LIVENESS_HH
#define LBP_ANALYSIS_LIVENESS_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "ir/function.hh"

namespace lbp
{

/** Read-only view of a RegSet-sized row of words. */
class RegSetRef
{
  public:
    RegSetRef(const std::uint64_t *words, std::uint32_t numWords)
        : words_(words), numWords_(numWords)
    {
    }

    bool test(std::uint32_t i) const
    {
        assert(i / 64 < numWords_);
        return (words_[i / 64] >> (i % 64)) & 1;
    }

    /** Number of members. */
    int count() const;

    const std::uint64_t *words() const { return words_; }
    std::uint32_t numWords() const { return numWords_; }

  private:
    const std::uint64_t *words_;
    std::uint32_t numWords_;
};

/**
 * Dense bitset over register (or predicate) ids [0, n). Liveness sizes
 * its sets from Function::nextReg / nextPred, which bound every id in
 * a well-formed function; sets combined with assign, |=, &= or -=
 * must share that size.
 */
class RegSet
{
  public:
    RegSet() = default;
    explicit RegSet(std::uint32_t n) : words_((n + 63) / 64, 0) {}
    RegSet(RegSetRef r) : words_(r.words(), r.words() + r.numWords()) {}

    operator RegSetRef() const
    {
        return {words_.data(), static_cast<std::uint32_t>(words_.size())};
    }

    bool test(std::uint32_t i) const
    {
        assert(i / 64 < words_.size());
        return (words_[i / 64] >> (i % 64)) & 1;
    }
    void set(std::uint32_t i)
    {
        assert(i / 64 < words_.size());
        words_[i / 64] |= std::uint64_t{1} << (i % 64);
    }
    void reset(std::uint32_t i)
    {
        assert(i / 64 < words_.size());
        words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    }

    /** Number of members. */
    int count() const { return RegSetRef(*this).count(); }

    /** Copy @p o's members (no allocation: the sizes match). */
    RegSet &assign(RegSetRef o);
    RegSet &operator|=(RegSetRef o);
    RegSet &operator&=(RegSetRef o);
    /** Set difference. */
    RegSet &operator-=(RegSetRef o);

  private:
    std::vector<std::uint64_t> words_;
};

/**
 * Per-block live-in/live-out register sets. Each of the four sets per
 * block, and the solver's gen and kill sets, is a row of one flat word
 * matrix: a solve makes a fixed number of allocations, however many
 * blocks the function has.
 */
class Liveness
{
  public:
    explicit Liveness(const Function &fn);

    RegSetRef liveIn(BlockId b) const { return row(liveIn_, regWords_, b); }
    RegSetRef liveOut(BlockId b) const
    { return row(liveOut_, regWords_, b); }

    RegSetRef predLiveIn(BlockId b) const
    { return row(predLiveIn_, predWords_, b); }
    RegSetRef predLiveOut(BlockId b) const
    { return row(predLiveOut_, predWords_, b); }

    /**
     * Registers read by @p op (general registers only).
     */
    static std::vector<RegId> uses(const Operation &op);

    /** Registers written by @p op. */
    static std::vector<RegId> defs(const Operation &op);

    /** Predicates read (guard) by @p op. */
    static std::vector<PredId> predUses(const Operation &op);

    /** Predicates written by @p op. */
    static std::vector<PredId> predDefs(const Operation &op);

  private:
    static RegSetRef row(const std::vector<std::uint64_t> &m,
                         std::uint32_t words, BlockId b)
    {
        return {m.data() + size_t{b} * words, words};
    }

    std::uint32_t regWords_ = 0, predWords_ = 0;
    std::vector<std::uint64_t> liveIn_, liveOut_;
    std::vector<std::uint64_t> predLiveIn_, predLiveOut_;
};

} // namespace lbp

#endif // LBP_ANALYSIS_LIVENESS_HH
