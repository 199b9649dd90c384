#include "sched/modulo_scheduler.hh"

#include <algorithm>
#include <optional>

#include "analysis/dependence.hh"
#include "obs/prof.hh"
#include "support/logging.hh"

namespace lbp
{

int
computeResMII(const BasicBlock &bb, const Machine &machine)
{
    int total = 0;
    std::array<int, static_cast<size_t>(UnitClass::NUM_CLASSES)>
        perClass{};
    for (const auto &op : bb.ops) {
        if (op.op == Opcode::NOP)
            continue;
        ++total;
        ++perClass[static_cast<size_t>(unitClassOf(op.op))];
    }
    auto ceilDiv = [](int a, int b) { return (a + b - 1) / b; };
    int mii = std::max(1, ceilDiv(total, Machine::width));
    for (int u = 0; u < static_cast<int>(UnitClass::NUM_CLASSES); ++u) {
        const UnitClass uc = static_cast<UnitClass>(u);
        if (uc == UnitClass::IALU)
            continue; // IALU ops can use every slot (covered by total)
        const int cnt = perClass[u];
        if (cnt > 0)
            mii = std::max(mii, ceilDiv(cnt, machine.unitCount(uc)));
    }
    return mii;
}

namespace
{

/** Modulo reservation table: one op index (or -1) per row x slot. */
class MRT
{
  public:
    MRT(int ii) : ii_(ii), table_(ii * Machine::width, -1) {}

    int &at(int cycle, int slot)
    { return table_[mod(cycle) * Machine::width + slot]; }

    int mod(int cycle) const
    { return ((cycle % ii_) + ii_) % ii_; }

  private:
    int ii_;
    std::vector<int> table_;
};

struct ImsState
{
    std::vector<int> cycleOf;  // -1 = unscheduled
    std::vector<int> slotOf;
};

/**
 * Unscheduled ops, popped in priority order: height descending, then
 * program order. A binary heap plus a membership bitset; an op is
 * queued at most once.
 */
class Worklist
{
  public:
    Worklist(const std::vector<int> &heights)
        : order_{heights}, queued_(heights.size(), false)
    {
    }

    bool empty() const { return heap_.empty(); }

    void push(int op)
    {
        if (queued_[op])
            return;
        queued_[op] = true;
        heap_.push_back(op);
        std::push_heap(heap_.begin(), heap_.end(), order_);
    }

    int pop()
    {
        std::pop_heap(heap_.begin(), heap_.end(), order_);
        const int op = heap_.back();
        heap_.pop_back();
        queued_[op] = false;
        return op;
    }

  private:
    /** Heap order: true when @p a has lower priority than @p b. */
    struct LowerPriority
    {
        const std::vector<int> &h;
        bool operator()(int a, int b) const
        {
            return h[a] != h[b] ? h[a] < h[b] : a > b;
        }
    };

    LowerPriority order_;
    std::vector<int> heap_;
    std::vector<bool> queued_;
};

/**
 * Attempt one II. Returns true and fills @p state on success.
 */
bool
tryScheduleII(const BasicBlock &bb, const DepGraph &dg,
              const std::vector<int> &heights, const Machine &machine,
              int ii, int budget, ImsState &state)
{
    const int n = dg.numOps();
    state.cycleOf.assign(n, -1);
    state.slotOf.assign(n, kNoSlot);
    MRT mrt(ii);

    Worklist work(heights);
    for (int i = 0; i < n; ++i)
        if (bb.ops[i].op != Opcode::NOP)
            work.push(i);

    std::vector<int> lastTried(n, -1);
    std::array<PredId, Machine::width> slotOwner{};
    slotOwner.fill(kNoPred);

    while (!work.empty()) {
        if (budget-- <= 0)
            return false;
        // Highest-priority unscheduled op.
        const int op = work.pop();
        // Earliest start from scheduled predecessors.
        int estart = 0;
        for (int eidx : dg.preds(op)) {
            const DepEdge &e = dg.edge(eidx);
            if (state.cycleOf[e.from] < 0)
                continue;
            estart = std::max(estart, state.cycleOf[e.from] +
                                          e.latency - ii * e.distance);
        }
        // Iterative restart rule: never retry the same cycle.
        int tmin = estart;
        if (lastTried[op] >= 0)
            tmin = std::max(tmin, lastTried[op] + 1);

        // Find a (cycle, slot) within [tmin, tmin + ii - 1].
        // Predicated consumers prefer slots owned by their guard
        // predicate and avoid foreign-owned slots (scheduler-side
        // cooperation with slot-based predication, paper section
        // 4.3).
        const UnitClass uc = unitClassOf(bb.ops[op].op);
        const PredId guard = bb.ops[op].guard;
        const auto &slots = machine.slotsFor(uc);
        int chosenT = -1, chosenSlot = kNoSlot;
        if (guard != kNoPred) {
            for (int pass = 0; pass < 2 && chosenT < 0; ++pass) {
                for (int t = tmin; t < tmin + ii && chosenT < 0;
                     ++t) {
                    for (auto it = slots.rbegin(); it != slots.rend();
                         ++it) {
                        const bool ownerOk =
                            pass == 0
                                ? slotOwner[*it] == guard
                                : slotOwner[*it] == kNoPred;
                        if (ownerOk && mrt.at(t, *it) < 0) {
                            chosenT = t;
                            chosenSlot = *it;
                            break;
                        }
                    }
                }
            }
        }
        for (int t = tmin; t < tmin + ii && chosenT < 0; ++t) {
            for (auto it = slots.rbegin(); it != slots.rend(); ++it) {
                if (mrt.at(t, *it) < 0) {
                    chosenT = t;
                    chosenSlot = *it;
                    break;
                }
            }
        }
        if (chosenT < 0) {
            // Force placement at tmin, ejecting the victim in the
            // least-height-critical capable slot.
            chosenT = tmin;
            int victimSlot = kNoSlot, victimH = INT32_MAX;
            for (auto it = slots.rbegin(); it != slots.rend(); ++it) {
                const int occ = mrt.at(chosenT, *it);
                LBP_ASSERT(occ >= 0, "free slot missed");
                if (heights[occ] < victimH) {
                    victimH = heights[occ];
                    victimSlot = *it;
                }
            }
            chosenSlot = victimSlot;
            const int victim = mrt.at(chosenT, chosenSlot);
            mrt.at(chosenT, chosenSlot) = -1;
            state.cycleOf[victim] = -1;
            state.slotOf[victim] = kNoSlot;
            work.push(victim);
        }

        mrt.at(chosenT, chosenSlot) = op;
        state.cycleOf[op] = chosenT;
        state.slotOf[op] = chosenSlot;
        lastTried[op] = chosenT;
        if (guard != kNoPred && slotOwner[chosenSlot] == kNoPred)
            slotOwner[chosenSlot] = guard;

        // Eject scheduled ops whose dependence on/from op is now
        // violated.
        auto violated = [&](const DepEdge &e) {
            if (state.cycleOf[e.from] < 0 || state.cycleOf[e.to] < 0)
                return false;
            return state.cycleOf[e.to] + ii * e.distance -
                       state.cycleOf[e.from] < e.latency;
        };
        for (int eidx : dg.succs(op)) {
            const DepEdge &e = dg.edge(eidx);
            if (e.to != op && violated(e)) {
                const int q = e.to;
                mrt.at(state.cycleOf[q], state.slotOf[q]) = -1;
                state.cycleOf[q] = -1;
                state.slotOf[q] = kNoSlot;
                work.push(q);
            }
        }
        for (int eidx : dg.preds(op)) {
            const DepEdge &e = dg.edge(eidx);
            if (e.from != op && violated(e)) {
                const int q = e.from;
                mrt.at(state.cycleOf[q], state.slotOf[q]) = -1;
                state.cycleOf[q] = -1;
                state.slotOf[q] = kNoSlot;
                work.push(q);
            }
        }
    }
    return true;
}

/** Modulo-variable-expansion factor from value lifetimes. */
int
computeMve(const DepGraph &dg, const ImsState &state, int ii)
{
    int mve = 1;
    for (const auto &e : dg.edges()) {
        if (e.kind != DepKind::TRUE_)
            continue;
        if (state.cycleOf[e.from] < 0 || state.cycleOf[e.to] < 0)
            continue;
        // Lifetime of the value produced by e.from, as consumed by
        // e.to (possibly in a later iteration).
        const int life = state.cycleOf[e.to] + ii * e.distance -
                         state.cycleOf[e.from];
        if (life > 0)
            mve = std::max(mve, (life + ii - 1) / ii);
    }
    return mve;
}

} // namespace

SchedBlock
moduloScheduleLoop(const BasicBlock &bb, const Machine &machine,
                   const ModuloOptions &opts, ModuloResult *outInfo)
{
    static const std::uint8_t graphRegion =
        obs::prof::internRegion("schedule.depgraph");
    static const std::uint8_t imsRegion =
        obs::prof::internRegion("schedule.ims");

    SchedBlock sb;
    sb.irBlock = bb.id;
    sb.valid = true;
    sb.isLoopBody = true;

    // Host-profiler attribution: the dependence graph and its
    // analyses, then the II search.
    std::optional<obs::prof::ScopedRegion> region(std::in_place,
                                                  graphRegion);
    DepGraph dg(bb, /*loopCarried=*/true);
    const int resMII = computeResMII(bb, machine);
    const int recMII = dg.recMII();
    if (outInfo) {
        outInfo->resMII = resMII;
        outInfo->recMII = recMII;
    }

    ImsState state;
    int ii = std::max(resMII, recMII);
    bool ok = false;
    int realOps = 0;
    for (const auto &op : bb.ops)
        if (op.op != Opcode::NOP)
            ++realOps;
    if (realOps == 0)
        return sb;

    const std::vector<int> heights = dg.heights();
    region.emplace(imsRegion);
    for (; ii <= opts.maxII; ++ii) {
        if (tryScheduleII(bb, dg, heights, machine, ii,
                          opts.budgetRatio * realOps, state)) {
            ok = true;
            break;
        }
    }
    if (!ok) {
        sb.valid = false;
        if (outInfo)
            outInfo->success = false;
        return sb;
    }

    // Normalize to cycle 0 and emit bundles.
    int minC = INT32_MAX, maxC = INT32_MIN;
    for (size_t i = 0; i < bb.ops.size(); ++i) {
        if (bb.ops[i].op == Opcode::NOP)
            continue;
        minC = std::min(minC, state.cycleOf[i]);
        maxC = std::max(maxC, state.cycleOf[i]);
    }
    const int len = maxC - minC + 1;
    // Count each cycle's ops, place them in program order, then order
    // each bundle by op id.
    sb.bundles.assign(len, Bundle{});
    for (size_t i = 0; i < bb.ops.size(); ++i)
        if (bb.ops[i].op != Opcode::NOP)
            ++sb.bundles[state.cycleOf[i] - minC].count;
    std::uint32_t at = 0;
    for (auto &bu : sb.bundles) {
        bu.first = at;
        at += bu.count;
    }
    sb.ops.resize(at);
    std::vector<std::uint32_t> fill(len);
    for (size_t i = 0; i < bb.ops.size(); ++i) {
        if (bb.ops[i].op == Opcode::NOP)
            continue;
        const int c = state.cycleOf[i] - minC;
        sb.ops[sb.bundles[c].first + fill[c]++] = {bb.ops[i],
                                                   state.slotOf[i]};
    }
    for (const auto &bu : sb.bundles) {
        const auto ops = sb.opsOf(bu);
        std::sort(ops.begin(), ops.end(),
                  [](const SchedOp &a, const SchedOp &b) {
                      return a.op.id < b.op.id;
                  });
    }

    sb.ii = ii;
    sb.minII = std::max(resMII, recMII);
    sb.pipelined = true;
    // Rotating register files rename kernel values per iteration in
    // hardware, making modulo variable expansion (and its buffer
    // image growth) unnecessary.
    sb.mveFactor = opts.rotatingRegisters
                       ? 1
                       : computeMve(dg, state, ii);
    if (outInfo)
        outInfo->success = true;
    return sb;
}

} // namespace lbp
