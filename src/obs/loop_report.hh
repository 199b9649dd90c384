/**
 * @file
 * Per-loop attribution: the compiler's bufferability decisions joined
 * with the simulator's per-loop dynamics under one stable identity.
 *
 * Identity. A loop is named "<function>/<header-block>". That is
 * exactly the name buildLoopTable gives LoopStats for hardware loops
 * (the REC/EXEC target block is the loop header), so the compiler's
 * decision log and the simulator's residency stats join by string
 * equality with no side tables. Block names survive the transform
 * stack: if-conversion installs the hyperblock into the header,
 * peeling renames only the peeled *copies* (".peelN"), and collapsing
 * eliminates the outer loop (which the log records as such).
 *
 * Compiler side (LoopDecisionLog). Each transform appends a
 * LoopAttempt per loop it considered — applied or not, with a closed
 * rejection-reason enum and op-count deltas — and buffer allocation
 * writes the terminal LoopDecision (fate, final image size vs.
 * capacity, buffer address). Re-running allocation for another buffer
 * size (reallocateBuffers) overwrites the terminal fields and leaves
 * the transform attempts intact.
 *
 * Simulator side. Both engines accumulate per-loop ops issued from
 * the buffer vs. the instruction cache at the single fetch-accounting
 * site, so sum(loop.opsFromBuffer) == SimStats::opsFromBuffer holds
 * exactly by construction; buildLoopScorecard cross-checks it the
 * same way the trace integral is checked.
 *
 * The join (LoopScorecard) ranks loops by dynamic ops and prices
 * every rejection: missedOps is the upper-bound buffer-hit gain had
 * the loop been buffered, and the fetch-energy share comes from the
 * CACTI-lite per-access energies.
 */

#ifndef LBP_OBS_LOOP_REPORT_HH
#define LBP_OBS_LOOP_REPORT_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/cycle_stack.hh"
#include "obs/json.hh"

namespace lbp
{

struct SimStats;
struct FetchEnergy;
struct TraceCacheStats;
enum class TraceBailoutReason : std::uint8_t;

namespace obs
{

class Registry;

/**
 * Why a transformation or the allocator passed a loop over. Closed
 * enum: tools switch on it, so new causes get new values, never
 * free-form strings.
 */
enum class LoopReason
{
    None,               ///< no rejection (applied / buffered)
    TooLarge,           ///< image or expansion exceeds the budget
    HasCall,            ///< body contains CALL/RET (or forbidden op)
    AlreadyPredicated,  ///< body already carries guards
    Irreducible,        ///< body not topologically orderable
    MultiLatch,         ///< more than one backedge
    BadShape,           ///< CFG shape outside the pattern handled
    NotInnermost,       ///< has child loops (only innermost buffer)
    NotCounted,         ///< induction/trip count not recognized
    TripTooSmall,       ///< known trip count below the profit bound
    TripTooLarge,       ///< known trip count above the expansion bound
    NotProfitable,      ///< legal but the cost model said no
    NotSimple,          ///< not a single-block self-loop at the end
    MultiExit,          ///< side exits the transform cannot carry
    PredSlotsExhausted, ///< slot predication ran out of slots/ranges
    ColdLoop,           ///< zero profile benefit
    NoPreheader,        ///< no unique preheader to plant setup code
    SchedFailed,        ///< modulo scheduler found no feasible II
};

const char *loopReasonName(LoopReason r);

/** Terminal outcome of one loop in the compiled program. */
enum class LoopFate
{
    Unknown,    ///< decision not (yet) taken
    Buffered,   ///< hardware loop with a buffer address
    Rejected,   ///< executes, but always fetches from the cache
    Eliminated, ///< no longer exists (peeled away / collapsed into)
};

const char *loopFateName(LoopFate f);

/** One transformation's verdict on one loop. */
struct LoopAttempt
{
    std::string transform;  ///< "if_convert", "peel", "modulo", ...
    bool applied = false;
    LoopReason reason = LoopReason::None;  ///< when !applied
    int opsBefore = 0;      ///< loop body ops before the transform
    int opsAfter = 0;       ///< and after (== opsBefore when skipped)
    // Modulo-schedule outcome (transform == "modulo", applied):
    // achieved II and its lower bounds, so the scheduler-slack cycle
    // class can be cross-checked against the decision log.
    int ii = 0;
    int resMII = 0;
    int recMII = 0;
    std::string note;       ///< free-form detail ("ii=3", trip count)
};

/** Everything the compiler decided about one loop. */
struct LoopDecision
{
    std::string name;       ///< "<fn>/<header-block>" — the join key
    LoopFate fate = LoopFate::Unknown;
    LoopReason reason = LoopReason::None;
    int finalOps = 0;       ///< image size at allocation time
    int bufferCapacity = 0; ///< capacity it was judged against
    int bufAddr = -1;
    double estDynOps = 0.0; ///< profile-weighted static dynamic ops
    std::vector<LoopAttempt> attempts;
};

/**
 * Ordered collection of per-loop decisions, keyed by loop name.
 * Creation order is preserved (pipeline order reads naturally);
 * lookups are O(log n) through a side index.
 */
class LoopDecisionLog
{
  public:
    /** Find-or-create the decision record for @p name. */
    LoopDecision &decision(const std::string &name);

    const LoopDecision *find(const std::string &name) const;

    /**
     * Append one transform attempt to @p name's record. A repeat
     * with the same (transform, applied, reason) — fixpoint drivers
     * re-judge unchanged loops — refreshes the existing entry.
     */
    void addAttempt(const std::string &name, LoopAttempt a);

    const std::vector<LoopDecision> &decisions() const
    { return decisions_; }

    bool empty() const { return decisions_.empty(); }

  private:
    std::vector<LoopDecision> decisions_;
    std::map<std::string, std::size_t> index_;
};

/** One scorecard line: a loop's fate joined with its dynamics. */
struct ScorecardRow
{
    std::string name;
    int loopId = -1;        ///< dense sim id; -1 = never a hw loop
    LoopFate fate = LoopFate::Unknown;
    LoopReason reason = LoopReason::None;
    int imageOps = 0;
    int bufAddr = -1;

    std::uint64_t activations = 0;
    std::uint64_t recordings = 0;
    std::uint64_t evictions = 0;
    std::uint64_t iterations = 0;
    std::uint64_t opsFromBuffer = 0;
    std::uint64_t opsFromCache = 0;
    std::uint64_t dynOps = 0;    ///< buffer + cache ops (ranking key)

    /**
     * Dynamic cost of the rejection: the ops this loop fetched from
     * the cache that a buffered image would have issued from the
     * buffer (upper bound — ignores the one recording pass). Zero for
     * buffered loops.
     */
    std::uint64_t missedOps = 0;

    /**
     * Of opsFromBuffer, the ops the decoded engine's trace cache
     * issued by replay rather than through the general path. Zero
     * when the run had no trace cache (reference engine, cache
     * disabled) or the loop never replayed (untraceable body, trip
     * counts under the engage threshold).
     */
    std::uint64_t replayedOps = 0;
    double replayFraction = 0.0; ///< replayedOps / opsFromBuffer

    /**
     * Buffered activations the trace cache declined, and why (the
     * last reason counted; a loop's verdict is static so it never
     * mixes build-gating reasons, though a short final activation
     * can leave belowEngageThreshold on an otherwise replayed loop).
     * Zero/None when the run had no trace cache.
     */
    std::uint64_t bailouts = 0;
    TraceBailoutReason bailoutReason{};  ///< zero-init == None

    double energyNj = 0.0;  ///< fetch-energy share of this loop

    /**
     * This loop's cycle stack (simulator loops only, when the run
     * carried a CycleStack). Sums with every other row plus the
     * scorecard's outside row to the workload stack.
     */
    bool hasCycles = false;
    CycleRow cycles{};
    std::uint64_t totalCycles = 0;  ///< sum of cycles[]

    std::vector<LoopAttempt> attempts;
};

/** The per-workload loop scorecard. */
struct LoopScorecard
{
    std::string workload;
    int bufferOps = 0;
    std::uint64_t totalOpsFetched = 0;
    std::uint64_t totalOpsFromBuffer = 0;
    std::vector<ScorecardRow> rows;  ///< ranked by dynOps descending

    /** Cycle accounting (present when the run carried a CycleStack). */
    bool hasCycles = false;
    CycleRow workloadCycles{};  ///< per-class totals == SimStats::cycles
    CycleRow outsideCycles{};   ///< the outside-any-loop row
    std::uint64_t totalCycles = 0;  ///< sum of workloadCycles[]
};

/**
 * Join @p log with @p stats. Every simulator loop gets a row with its
 * measured dynamics; decisions without a simulator twin (eliminated
 * loops, natural loops that never became hardware loops) are appended
 * with loopId -1 and the profile-estimated dynOps. Rows are sorted by
 * dynOps descending, then name. @p fe, when given, prices each row's
 * fetch-energy share from the workload-level breakdown. @p tc, when
 * given, attributes the trace cache's per-loop replayed ops to each
 * row (replayedOps / replayFraction stay zero otherwise).
 *
 * Fatal (assert) if sum of per-loop buffer ops != stats.opsFromBuffer
 * — the attribution invariant both engines maintain by construction.
 *
 * @p cs, when given, copies each dense loop's cycle row onto its
 * scorecard row and the workload/outside stacks onto the scorecard
 * (asserting the closed-sum invariant: per-class totals equal
 * stats.cycles and per-loop rows integrate to the workload stack).
 */
LoopScorecard buildLoopScorecard(const std::string &workload,
                                 const LoopDecisionLog &log,
                                 const SimStats &stats, int bufferOps,
                                 const FetchEnergy *fe = nullptr,
                                 const TraceCacheStats *tc = nullptr,
                                 const CycleStack *cs = nullptr);

/** Sum of per-loop buffer-issued ops (the invariant's left side). */
std::uint64_t scorecardBufferOps(const LoopScorecard &sc);

/** Human-oriented aligned table, one row per loop. */
void printScorecard(std::ostream &os, const LoopScorecard &sc);

/**
 * "Where the simulated cycles go" table: one row per loop holding a
 * cycle stack (plus the outside-any-loop row and the workload
 * totals), one column per CycleClass. No-op with a notice when the
 * scorecard carries no cycle data.
 */
void printScorecardCycles(std::ostream &os, const LoopScorecard &sc);

/** Machine-readable form (ints stay exact through obs::Json). */
Json scorecardToJson(const LoopScorecard &sc);

/**
 * Publish each row under "<prefix>.<id3>.*" (row rank, zero-padded):
 * fate/reason/name as infos, dynamics as counters, energy as a gauge.
 */
void publishScorecard(Registry &r, const LoopScorecard &sc,
                      const std::string &prefix = "loop");

} // namespace obs
} // namespace lbp

#endif // LBP_OBS_LOOP_REPORT_HH
