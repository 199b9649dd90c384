/**
 * @file
 * Resident-loop trace cache for the decoded executor: the software
 * twin of the modeled loop buffer's replay mechanism.
 *
 * When the loop buffer reports a loop resident, the general decoded
 * path still re-walks the block table, re-checks fetch accounting and
 * re-dispatches every micro-op of every iteration. The trace cache
 * instead builds — once, at first replayed residency — a flattened
 * per-loop trace of the body bundles up to and including the backedge,
 * with per-op facts that are invariant for the whole activation baked
 * in (can the op ever be nullified; can the bundle commit its writes
 * directly), and then replays that trace iteration after iteration
 * until the loop's own exit, bulk-accounting the per-iteration
 * counters. Control is handed back to the general path exactly at the
 * bundle after the backedge (counted exit / while exit) or at the
 * EXEC resume point.
 *
 * Safety gating happens entirely at build time. The fast tier
 * qualifies a body whose sole control transfer is the loop's own
 * unguarded, non-sensitive backedge with every other op from the
 * straight-line set (predicate defines, loads/stores, moves/converts/
 * select, the ALU family); such traces replay whole iterations with
 * bulk-accounted counters. The predicated tier (the paper's own
 * if-conversion move applied to the replay engine itself) widens
 * capture to bodies whose extra control ops are side exits — guarded
 * or conditional BR/JUMPs leaving the loop — and to guarded
 * backedges: those traces keep the control ops in the op stream,
 * evaluate their predicates from live machine state per iteration,
 * and compile side exits into trace-exit checks that hand control
 * back to the dispatch loop at the exact architectural point (the
 * redirect target, with the same penalties and loop-context
 * cancellation the general path would apply). Still untraceable:
 * calls, nested loops, second backedges, slot-sensitive backedges —
 * each named by its own TraceBailoutReason so the scorecard keeps
 * saying which rule to widen next.
 *
 * Invalidation: when the loop buffer evicts a loop's image, the
 * trace dies with it (the hardware analogy: replay state cannot
 * outlive the image) and is rebuilt at the next residency.
 *
 * The replay loop itself is VliwSim::replayResident (trace_cache.cc) —
 * a member so it can touch the same state the executor body does; the
 * engine-differential test pins its SimStats bit-identical to both
 * the general decoded path and the reference interpreter.
 */

#ifndef LBP_SIM_TRACE_CACHE_HH
#define LBP_SIM_TRACE_CACHE_HH

#include <cstdint>
#include <vector>

#include "sim/decoded.hh"

namespace lbp
{

/**
 * Why a buffered activation declined trace replay. Closed taxonomy:
 * every bailout the cache counts carries exactly one of these, so the
 * scorecard can say per loop *which* gating rule to widen next instead
 * of a bare count. Mirrors the loop-shape taxonomy of "Hardware
 * Support for Arbitrarily Complex Loop Structures" (PAPERS.md).
 *
 * None is the build verdict "traceable" and never counts as a bailout.
 * Unknown is the defensive fallback; nothing in the tree produces it
 * (the all-workloads trace-cache test asserts it stays zero). Buffer
 * eviction is deliberately NOT a reason: trace content is
 * allocation-invariant, so a built trace replays again at the loop's
 * next residency.
 */
enum class TraceBailoutReason : std::uint8_t
{
    None,                  ///< traceable — not a bailout
    Unknown,               ///< unclassified (must stay unreachable)
    EmptyBody,             ///< head block invalid or bundle-less
    NoHeadBackedge,        ///< loop backedge not in the head block
    GuardedBackedge,       ///< guarded backedge, pred replay disabled
    SlotSensitiveBackedge, ///< backedge is slot-predicate sensitive
    CallInBody,            ///< body calls (or returns) — frame churn
    MultiControlOp,        ///< extra control op, pred replay disabled
    NestedLoop,            ///< body re-enters the loop machinery
    MultiBackedge,         ///< a second backedge to the head
    BelowEngageThreshold,  ///< counted trip < SimConfig::replayMinIters
    Count,
};

/** Stable lower-camel token for counters/columns ("guardedBackedge"). */
const char *traceBailoutReasonName(TraceBailoutReason r);

/**
 * Side-band trace-cache counters. Deliberately NOT part of SimStats:
 * the reference engine never replays, so folding these into the
 * differentially-compared stats would break the bit-identical
 * contract. Published as sim.trace_cache.* registry counters.
 */
struct TraceCacheStats
{
    std::uint64_t builds = 0;        ///< traces built
    std::uint64_t replays = 0;       ///< engagements
    std::uint64_t bailouts = 0;      ///< activations declined
    std::uint64_t replayedIterations = 0;
    std::uint64_t replayedOps = 0;   ///< ops issued from traces

    /**
     * The predicated-replay tier's share of the counters above, plus
     * its own exit taxonomy. Published as
     * sim.trace_cache.pred_replay.*; the fast tier's share is the
     * difference against the aggregate counters.
     */
    struct PredReplay
    {
        std::uint64_t builds = 0;     ///< predicated traces built
        std::uint64_t replays = 0;    ///< predicated engagements
        std::uint64_t iterations = 0; ///< full predicated iterations
        std::uint64_t ops = 0;        ///< ops issued predicated
        std::uint64_t sideExits = 0;  ///< replays ended by a taken exit
        /** Nullified-backedge hand-backs (activation stays live). */
        std::uint64_t backedgeFallthroughs = 0;
        /** Engagements that started at a nonzero trace bundle. */
        std::uint64_t midEngagements = 0;
    };
    PredReplay predReplay;

    /** Per-reason split of bailouts; sums exactly to bailouts. */
    std::uint64_t bailoutsBy[static_cast<std::size_t>(
        TraceBailoutReason::Count)] = {};

    struct PerLoop
    {
        std::uint64_t replays = 0;
        std::uint64_t iterations = 0;
        std::uint64_t ops = 0;       ///< of LoopStats::opsFromBuffer
        std::uint64_t bailouts = 0;  ///< declined activations
        TraceBailoutReason lastReason = TraceBailoutReason::None;
    };
    std::vector<PerLoop> perLoop;    ///< indexed by dense loop id
};

/**
 * Accumulate @p from into @p into — every counter added, the per-loop
 * table grown to the larger id space, lastReason taken from @p from
 * when it carries one. Lets a buffer-size sweep aggregate one
 * TraceCacheStats across runs (the bench JSON's trace_cache block)
 * while per-run code passes a freshly zeroed struct and gets a copy.
 */
void accumulateTraceCacheStats(TraceCacheStats &into,
                               const TraceCacheStats &from);

/** One flattened bundle of a built trace. */
struct TraceBundle
{
    std::uint32_t first = 0;    ///< into LoopTrace::ops
    std::uint32_t count = 0;
    std::int32_t sizeOps = 0;   ///< fetch size (for bulk accounting)
    /**
     * Slot-sensitive ops in the bundle (0 in REGISTER mode): the
     * per-bundle opsSensitive charge of the predicated replay path,
     * which cannot bulk-account per iteration because a side exit may
     * end the iteration mid-body.
     */
    std::int32_t sensOps = 0;
    /**
     * No op in the bundle reads register/predicate/slot state an
     * earlier op in the same bundle writes (and no load follows a
     * store), so writes can commit in place instead of through the
     * two-phase deferred-write buffers.
     */
    bool direct = false;
};

/** A per-loop flattened replay trace. */
struct LoopTrace
{
    enum class State : std::uint8_t
    {
        Unbuilt,
        /**
         * Built. Stays valid across buffer evictions: trace content
         * is allocation-invariant (REC/EXEC ops — the only bufAddr
         * carriers — never survive the build gating).
         */
        Ready,
        Untraceable,
    };
    State state = State::Unbuilt;
    /** Build verdict when Untraceable; None while traceable. */
    TraceBailoutReason reason = TraceBailoutReason::None;
    bool wloop = false;              ///< backedge is BR_WLOOP
    /**
     * The trace carries control ops — a guarded backedge and/or side
     * exits — and replays through the per-bundle predicated path
     * instead of the bulk-accounted fast path. Predicated traces keep
     * the backedge in the op stream (at beOpIndex) so its guard and
     * condition read live state in bundle order.
     */
    bool predicated = false;

    /** Body ops; backedge excluded unless predicated. */
    std::vector<MicroOp> ops;
    std::vector<TraceBundle> bundles;///< head bundles 0..backedge

    /** Predicated only: the backedge's position in ops. */
    std::uint32_t beOpIndex = 0;

    // While-loop backedge condition (read at the backedge bundle).
    // Fast-tier traces only; predicated traces evaluate the backedge
    // op in stream order.
    CmpCond beCond = CmpCond::EQ;
    XSrc beSrc0, beSrc1;

    std::uint32_t resumeBundle = 0;  ///< bundle index after backedge
    std::uint64_t bundlesPerIter = 0;
    std::uint64_t opsPerIter = 0;    ///< fetch-size sum per iteration
    std::uint64_t sensitivePerIter = 0; ///< SLOT-mode sensitive ops
};

struct LoopCtx;

/**
 * Static build-gating verdict for @p ctx's body in @p df: None means
 * the body is traceable, anything else names the first rule it fails.
 * With @p predReplay the predicated tier's wider rules apply: guarded
 * backedges and side-exit control ops (BR/JUMP leaving the loop) pass,
 * while nested loops, second backedges, and calls stay named; without
 * it the legacy strict verdicts (GuardedBackedge, MultiControlOp) are
 * produced, which is what the LBP_SIM_NO_PRED_REPLAY escape hatch
 * reverts to. Pure classification — no trace is built, no counters
 * move. Exposed so tests can probe the taxonomy against synthetic
 * decoded images without driving a full activation;
 * TraceCache::build() derives its Untraceable verdicts from exactly
 * this function.
 */
TraceBailoutReason classifyTraceBody(const LoopCtx &ctx,
                                     const DecodedFunction &df,
                                     bool predReplay);

/** Per-sim-instance trace store, keyed by interned dense loop id. */
class TraceCache
{
  public:
    TraceCache(std::size_t numLoops, bool slotMode, bool predReplay);

    /**
     * The trace for @p ctx's loop, building it on first use. The
     * caller checks the returned state: Ready replays, Untraceable
     * falls back (countBailout once per activation).
     */
    LoopTrace &acquire(const LoopCtx &ctx, const DecodedFunction &df);

    /**
     * Count one declined activation of @p loopId for @p reason —
     * total, per reason, and per loop (the loop also remembers the
     * reason for the scorecard). Call sites dedupe per activation via
     * LoopCtx::traceDeclined so bailouts ≤ activations holds.
     */
    void countBailout(int loopId, TraceBailoutReason reason);

    /** Counter reset at run() start; built traces stay valid. */
    void resetRunStats();

    const TraceCacheStats &stats() const { return stats_; }
    TraceCacheStats &stats() { return stats_; }

    bool slotMode() const { return slotMode_; }
    bool predReplay() const { return predReplay_; }

  private:
    void build(LoopTrace &tr, const LoopCtx &ctx,
               const DecodedFunction &df);

    std::vector<LoopTrace> traces_;
    TraceCacheStats stats_;
    bool slotMode_;
    bool predReplay_;
};

} // namespace lbp

#endif // LBP_SIM_TRACE_CACHE_HH
