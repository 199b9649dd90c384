/**
 * @file
 * Data-dependence graph over the operations of a single block (or a
 * single-block loop body), with optional loop-carried edges for modulo
 * scheduling.
 *
 * Edge kinds: true (RAW), anti (WAR), output (WAW) on general
 * registers and predicates, memory ordering edges (no alias analysis —
 * stores conflict with all memory ops), and control edges keeping
 * branches ordered and last.
 */

#ifndef LBP_ANALYSIS_DEPENDENCE_HH
#define LBP_ANALYSIS_DEPENDENCE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "ir/basic_block.hh"

namespace lbp
{

/** Dependence edge categories. */
enum class DepKind : std::uint8_t
{
    TRUE_, ANTI, OUTPUT, MEM, CONTROL
};

/** One dependence edge between block-local op indices. */
struct DepEdge
{
    int from = 0;
    int to = 0;
    DepKind kind = DepKind::TRUE_;
    /** Minimum issue-cycle separation. */
    int latency = 0;
    /** Iteration distance (0 = intra-iteration, 1 = loop carried). */
    int distance = 0;
};

/** Dependence graph over one block's operations. */
class DepGraph
{
  public:
    /**
     * Build the graph.
     * @param bb the block
     * @param loopCarried also add distance-1 edges (for a loop body)
     */
    DepGraph(const BasicBlock &bb, bool loopCarried);

    int numOps() const { return numOps_; }
    const std::vector<DepEdge> &edges() const { return edges_; }

    /** Successor edges of op @p i, in edge order. */
    std::span<const int> succs(int i) const { return adjacent(i); }

    /** Predecessor edges of op @p i, in edge order. */
    std::span<const int> preds(int i) const
    { return adjacent(numOps_ + 1 + i); }

    const DepEdge &edge(int e) const { return edges_[e]; }

    /**
     * Longest-path height of each op to any graph sink, counting only
     * distance-0 edges (the scheduling priority function).
     */
    std::vector<int> heights() const;

    /**
     * Recurrence-constrained minimum initiation interval: the maximum
     * over all dependence cycles of ceil(latency / distance), and at
     * least 1. Every cycle lies in one strongly connected component,
     * so each nontrivial component finds its own bound by binary
     * search over II with an integer Bellman-Ford on its edges. Only
     * meaningful when built with loopCarried = true.
     */
    int recMII() const;

  private:
    struct EdgeIndex;

    void addEdge(EdgeIndex &index, int from, int to, DepKind kind,
                 int latency, int distance);

    std::span<const int> adjacent(int row) const
    {
        return {adj_.data() + adjStart_[row],
                adj_.data() + adjStart_[row + 1]};
    }

    int numOps_ = 0;
    std::vector<DepEdge> edges_;
    /** Edge indices: op i's successor edges are row i, its
     *  predecessor edges row numOps + 1 + i; row r spans
     *  adj_[adjStart_[r], adjStart_[r + 1]). */
    std::vector<int> adjStart_, adj_;
};

} // namespace lbp

#endif // LBP_ANALYSIS_DEPENDENCE_HH
