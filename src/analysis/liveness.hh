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

/**
 * Dense bitset over register (or predicate) ids [0, n). Liveness sizes
 * its sets from Function::nextReg / nextPred, which bound every id in
 * a well-formed function; sets combined with |=, &= or -= must share
 * that size.
 */
class RegSet
{
  public:
    RegSet() = default;
    explicit RegSet(std::uint32_t n) : words_((n + 63) / 64, 0) {}

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
    int count() const;

    RegSet &operator|=(const RegSet &o);
    RegSet &operator&=(const RegSet &o);
    /** Set difference. */
    RegSet &operator-=(const RegSet &o);
    bool operator==(const RegSet &o) const { return words_ == o.words_; }

  private:
    std::vector<std::uint64_t> words_;
};

/** Per-block live-in/live-out register sets. */
class Liveness
{
  public:
    explicit Liveness(const Function &fn);

    const RegSet &liveIn(BlockId b) const { return liveIn_[b]; }
    const RegSet &liveOut(BlockId b) const { return liveOut_[b]; }

    const RegSet &predLiveIn(BlockId b) const { return predLiveIn_[b]; }
    const RegSet &predLiveOut(BlockId b) const { return predLiveOut_[b]; }

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
    std::vector<RegSet> liveIn_, liveOut_;
    std::vector<RegSet> predLiveIn_, predLiveOut_;
};

} // namespace lbp

#endif // LBP_ANALYSIS_LIVENESS_HH
