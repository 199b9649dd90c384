#include "sched/list_scheduler.hh"

#include <algorithm>

#include "analysis/dependence.hh"
#include "obs/prof.hh"
#include "support/logging.hh"

namespace lbp
{

SchedBlock
listScheduleBlock(const BasicBlock &bb, const Machine &machine)
{
    static const std::uint8_t listRegion =
        obs::prof::internRegion("schedule.list");
    obs::prof::ScopedRegion region(listRegion);

    SchedBlock sb;
    sb.irBlock = bb.id;
    sb.valid = true;

    // Collect real op indices.
    std::vector<int> realOps;
    for (size_t i = 0; i < bb.ops.size(); ++i)
        if (bb.ops[i].op != Opcode::NOP)
            realOps.push_back(static_cast<int>(i));
    if (realOps.empty()) {
        return sb;
    }

    DepGraph dg(bb, /*loopCarried=*/false);
    const std::vector<int> heights = dg.heights();

    const int n = dg.numOps();
    std::vector<int> cycleOf(n, -1);
    std::vector<int> unscheduledPreds(n, 0);
    for (const auto &e : dg.edges()) {
        if (e.distance == 0)
            ++unscheduledPreds[e.to];
    }

    // NOPs are dropped from the schedule; release their dependence
    // successors immediately so nothing waits on them.
    std::vector<int> earliest(n, 0);
    for (int i = 0; i < n; ++i) {
        if (bb.ops[i].op != Opcode::NOP)
            continue;
        cycleOf[i] = 0;
        for (int eidx : dg.succs(i)) {
            const DepEdge &e = dg.edge(eidx);
            if (e.distance == 0)
                --unscheduledPreds[e.to];
        }
    }

    // Ready list management.
    std::vector<int> ready;
    for (int i = 0; i < n; ++i) {
        if (bb.ops[i].op == Opcode::NOP)
            continue;
        if (unscheduledPreds[i] == 0)
            ready.push_back(i);
    }

    int cycle = 0;
    int scheduled = 0;
    const int target =
        static_cast<int>(realOps.size());
    sb.ops.reserve(realOps.size());
    // Predicate-affinity ownership: first predicate whose consumer
    // lands in a slot owns it for the rest of the block.
    std::array<PredId, Machine::width> slotOwner{};
    slotOwner.fill(kNoPred);

    int guard = 0;
    while (scheduled < target && guard++ < 100000) {
        Bundle bu;
        bu.first = static_cast<std::uint32_t>(sb.ops.size());
        std::vector<char> slotUsed(Machine::width, 0);

        // Candidates ready at this cycle, highest-priority first.
        std::vector<int> cands;
        for (int i : ready) {
            if (earliest[i] <= cycle)
                cands.push_back(i);
        }
        std::sort(cands.begin(), cands.end(), [&](int a, int b) {
            if (heights[a] != heights[b])
                return heights[a] > heights[b];
            return a < b; // stable: program order
        });

        for (int i : cands) {
            // Find a free capable slot. Predicated consumers prefer a
            // slot already owned by their guard predicate (and avoid
            // slots owned by other predicates): this is the
            // scheduler-side cooperation the slot-predication scheme
            // relies on (paper section 4.3).
            int slot = kNoSlot;
            const UnitClass uc = unitClassOf(bb.ops[i].op);
            const PredId guard = bb.ops[i].guard;
            const auto &slots = machine.slotsFor(uc);
            if (guard != kNoPred) {
                for (auto it = slots.rbegin(); it != slots.rend();
                     ++it) {
                    if (!slotUsed[*it] && slotOwner[*it] == guard) {
                        slot = *it;
                        break;
                    }
                }
                if (slot == kNoSlot) {
                    for (auto it = slots.rbegin(); it != slots.rend();
                         ++it) {
                        if (!slotUsed[*it] &&
                            slotOwner[*it] == kNoPred) {
                            slot = *it;
                            break;
                        }
                    }
                }
            }
            // Prefer the least-capable slots first so flexible ops
            // don't starve constrained ones: iterate the capability
            // list in reverse (specialized slots come first in it).
            if (slot == kNoSlot) {
                for (auto it = slots.rbegin(); it != slots.rend();
                     ++it) {
                    if (!slotUsed[*it]) {
                        slot = *it;
                        break;
                    }
                }
            }
            if (slot == kNoSlot)
                continue;
            if (guard != kNoPred && slotOwner[slot] == kNoPred)
                slotOwner[slot] = guard;
            slotUsed[slot] = 1;
            cycleOf[i] = cycle;
            sb.ops.push_back({bb.ops[i], slot});
            ++scheduled;
            ready.erase(std::remove(ready.begin(), ready.end(), i),
                        ready.end());
            // Release successors.
            for (int eidx : dg.succs(i)) {
                const DepEdge &e = dg.edge(eidx);
                if (e.distance != 0)
                    continue;
                earliest[e.to] = std::max(earliest[e.to],
                                          cycle + e.latency);
                if (--unscheduledPreds[e.to] == 0 &&
                    bb.ops[e.to].op != Opcode::NOP) {
                    ready.push_back(e.to);
                }
            }
        }

        // Keep ops within a bundle in program order for deterministic
        // execution semantics.
        std::sort(sb.ops.begin() + bu.first, sb.ops.end(),
                  [](const SchedOp &a, const SchedOp &b) {
                      return a.op.id < b.op.id;
                  });
        bu.count = static_cast<std::uint32_t>(sb.ops.size()) - bu.first;
        sb.bundles.push_back(bu);
        ++cycle;
    }
    LBP_ASSERT(scheduled == target, "list scheduler did not converge");

    // NOP-only successors of the last real op would leave trailing
    // empty bundles; trim them.
    while (!sb.bundles.empty() && sb.bundles.back().count == 0)
        sb.bundles.pop_back();
    return sb;
}

} // namespace lbp
