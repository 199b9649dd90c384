#include "core/slot_predication.hh"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/liveness.hh"
#include "obs/loop_report.hh"
#include "support/logging.hh"

namespace lbp
{

namespace
{

/** Locate every scheduled op: (cycle, bundle-op index). */
struct OpRef
{
    int cycle = 0;
    size_t buIdx = 0;
    size_t opIdx = 0;
};

} // namespace

bool
lowerBlockToSlots(const BasicBlock &irBlock, SchedBlock &sb,
                  const Machine &machine,
                  const std::vector<PredId> &externalPreds,
                  SlotLoweringStats &stats, int predQueueDepth)
{
    (void)irBlock;
    ++stats.blocksAttempted;

    const std::set<PredId> external(externalPreds.begin(),
                                    externalPreds.end());

    // Gather, per predicate: consumer (cycle, slot) pairs and define
    // positions. Consumers are guards on any op, including guards of
    // predicate defines.
    struct PredInfo
    {
        std::set<int> consumerSlots;
        int firstDef = INT32_MAX;
        int lastDef = INT32_MIN;
        int lastUse = INT32_MIN;
        std::vector<OpRef> defines;
    };
    std::map<PredId, PredInfo> preds;

    for (size_t bu = 0; bu < sb.bundles.size(); ++bu) {
        const auto bundleOps = sb.opsOf(sb.bundles[bu]);
        for (size_t oi = 0; oi < bundleOps.size(); ++oi) {
            const SchedOp &so = bundleOps[oi];
            const Operation &op = so.op;
            const int cycle = static_cast<int>(bu);
            if (op.guard != kNoPred) {
                PredInfo &pi = preds[op.guard];
                pi.consumerSlots.insert(so.slot);
                pi.lastUse = std::max(pi.lastUse, cycle);
            }
            if (op.op == Opcode::PRED_DEF) {
                for (const auto &d : op.dsts) {
                    if (!d.isPred())
                        continue;
                    PredInfo &pi = preds[d.asPred()];
                    pi.firstDef = std::min(pi.firstDef, cycle);
                    pi.lastDef = std::max(pi.lastDef, cycle);
                    pi.defines.push_back({cycle, bu, oi});
                }
            }
        }
    }
    if (preds.empty()) {
        ++stats.blocksLowered;
        return true; // nothing to lower
    }

    // Per-slot interval check: a slot's standing predicate is owned
    // by one logical predicate from its first define to its last
    // consumer; two predicates sharing a slot must not overlap.
    // Pipelined loops additionally bound the range by II (the next
    // iteration's define wraps around).
    struct Interval
    {
        PredId p;
        int lo, hi;
    };
    // Predicates whose live range reaches the next iteration's
    // define (range >= II in a pipelined kernel) cannot live in a
    // slot's standing predicate: the overlapped iteration would
    // clobber them mid-use. The paper flags this as the scheme's
    // liveness constraint and sketches "queuing a predicate to become
    // active at some future time" as future hardware; our model keeps
    // such predicates on the register-file fallback instead
    // (documented substitution), counted in the statistics.
    std::map<int, std::vector<Interval>> bySlot;
    std::set<PredId> keepInRegs;
    for (const auto &[p, pi] : preds) {
        if (pi.consumerSlots.empty())
            continue; // defined but unconsumed here (external only)
        if (pi.defines.empty()) {
            // Consumed but defined elsewhere: must stay in registers.
            ++stats.predsKeptInRegisters;
            keepInRegs.insert(p);
            continue;
        }
        const int lo = pi.firstDef;
        const int hi = std::max(pi.lastUse, pi.lastDef);
        // A per-slot activation queue (paper §7.3 future work) lets
        // the overlapped iterations' defines wait in the queue, so a
        // standing predicate may live up to (1 + depth) initiation
        // intervals.
        const int rangeLimit = sb.ii * (1 + predQueueDepth);
        if (sb.pipelined && hi - lo >= rangeLimit) {
            ++stats.predsRangeTooLong;
            keepInRegs.insert(p);
            continue;
        }
        if (sb.pipelined && hi - lo >= sb.ii)
            ++stats.predsQueued;
        for (int s : pi.consumerSlots)
            bySlot[s].push_back({p, lo, hi});
    }
    for (auto &[slot, ivs] : bySlot) {
        std::sort(ivs.begin(), ivs.end(),
                  [](const Interval &a, const Interval &b) {
                      return a.lo < b.lo;
                  });
        for (size_t i = 1; i < ivs.size(); ++i) {
            if (ivs[i].lo <= ivs[i - 1].hi &&
                ivs[i].p != ivs[i - 1].p) {
                ++stats.blocksFailedConflict;
                return false;
            }
        }
    }

    // Plan destination rewrites per define op. Each logical pred dest
    // expands to its consumer-slot destinations (plus a register dest
    // if the predicate escapes the block). A define holds at most two
    // destinations; extras go to clone defines placed in free
    // PRED-capable slots of the same cycle.
    struct NewDest
    {
        PredDefKind kind;
        Operand dst;
    };
    // Free PRED slots per cycle.
    std::vector<std::set<int>> freePredSlots(sb.bundles.size());
    for (size_t bu = 0; bu < sb.bundles.size(); ++bu) {
        for (int s : machine.slotsFor(UnitClass::PRED))
            freePredSlots[bu].insert(s);
        for (const auto &so : sb.opsOf(sb.bundles[bu]))
            freePredSlots[bu].erase(so.slot);
    }

    struct DefRewrite
    {
        OpRef where;
        std::vector<NewDest> dests;
    };
    std::vector<DefRewrite> rewrites;

    // Walk defines in schedule order and expand their destinations.
    for (size_t bu = 0; bu < sb.bundles.size(); ++bu) {
        const auto bundleOps = sb.opsOf(sb.bundles[bu]);
        for (size_t oi = 0; oi < bundleOps.size(); ++oi) {
            const SchedOp &so = bundleOps[oi];
            if (so.op.op != Opcode::PRED_DEF)
                continue;
            DefRewrite rw;
            rw.where = {static_cast<int>(bu), bu, oi};
            const PredDefKind kinds[2] = {so.op.defKind0,
                                          so.op.defKind1};
            for (size_t di = 0; di < so.op.dsts.size(); ++di) {
                const Operand &d = so.op.dsts[di];
                if (!d.isPred()) {
                    rw.dests.push_back({kinds[di], d});
                    continue;
                }
                const PredId p = d.asPred();
                const auto &pi = preds.at(p);
                const bool inRegs = keepInRegs.count(p) != 0;
                if (!inRegs) {
                    for (int s : pi.consumerSlots) {
                        rw.dests.push_back(
                            {kinds[di], Operand::slot(s)});
                    }
                }
                if (inRegs || external.count(p)) {
                    // Keep a register-file copy: cross-block
                    // consumers or a live range too long for a
                    // standing predicate.
                    rw.dests.push_back({kinds[di], Operand::pred(p)});
                    if (external.count(p))
                        ++stats.predsKeptInRegisters;
                }
            }
            if (rw.dests.empty()) {
                // Define with no remaining destinations: neutralize.
                rw.dests.push_back(
                    {so.op.defKind0, so.op.dsts[0]});
            }
            rewrites.push_back(std::move(rw));
        }
    }

    // Check clone capacity: each clone needs a free PRED slot in the
    // define's cycle, and every define of a bundle draws on the same
    // free slots, so the clones are summed per bundle.
    std::vector<int> clonesNeeded(sb.bundles.size(), 0);
    for (const auto &rw : rewrites)
        clonesNeeded[rw.where.buIdx] +=
            std::max(0, (static_cast<int>(rw.dests.size()) + 1) / 2 - 1);
    for (size_t bu = 0; bu < sb.bundles.size(); ++bu) {
        if (clonesNeeded[bu] >
            static_cast<int>(freePredSlots[bu].size())) {
            ++stats.blocksFailedCapacity;
            return false;
        }
    }

    // Apply: rewrite defines (and clone as needed), set sensitivity
    // bits on consumers.
    for (auto &rw : rewrites) {
        // A clone goes at the end of its bundle, so the op indices
        // of the rewrites still to come stay valid; `op` is rewritten
        // before adding a clone can move it in memory.
        Operation &op =
            sb.opsOf(sb.bundles[rw.where.buIdx])[rw.where.opIdx].op;
        const Operation proto = op;

        auto setDests = [](Operation &o, const NewDest *a,
                           const NewDest *b) {
            o.dsts.clear();
            o.defKind0 = a->kind;
            o.dsts.push_back(a->dst);
            if (b) {
                o.defKind1 = b->kind;
                o.dsts.push_back(b->dst);
            } else {
                o.defKind1 = PredDefKind::NONE;
            }
        };

        setDests(op, &rw.dests[0],
                 rw.dests.size() > 1 ? &rw.dests[1] : nullptr);
        ++stats.definesRewritten;

        size_t next = 2;
        while (next < rw.dests.size()) {
            Operation clone = proto;
            clone.id = 0; // fresh (validator matches by id)
            setDests(clone, &rw.dests[next],
                     next + 1 < rw.dests.size() ? &rw.dests[next + 1]
                                                : nullptr);
            next += 2;
            LBP_ASSERT(!freePredSlots[rw.where.buIdx].empty(),
                       "clone capacity re-check failed");
            const int s = *freePredSlots[rw.where.buIdx].begin();
            freePredSlots[rw.where.buIdx].erase(s);
            sb.addOp(rw.where.buIdx, {clone, s});
            ++stats.definesCloned;
        }
    }

    for (auto &so : sb.ops) {
        if (so.op.guard != kNoPred) {
            const auto it = preds.find(so.op.guard);
            if (it != preds.end() && !it->second.defines.empty() &&
                !keepInRegs.count(so.op.guard)) {
                so.op.sensitive = true;
                ++stats.sensitiveOps;
            }
            // else: register-file predicate (externally defined or
            // range-limited) — keep the register guard (mixed mode).
        }
    }

    ++stats.blocksLowered;
    return true;
}

SlotLoweringStats
lowerProgramToSlots(const Program &prog, SchedProgram &code,
                    const Machine &machine, int predQueueDepth,
                    obs::LoopDecisionLog *log)
{
    SlotLoweringStats stats;
    for (const auto &fn : prog.functions) {
        // Predicates consumed in block B but defined in block A != B
        // must keep register routing. Approximate the escape set per
        // block as "predicates used in any *other* block".
        std::map<BlockId, std::set<PredId>> usedIn, definedIn;
        for (const auto &bb : fn.blocks) {
            if (bb.dead)
                continue;
            for (const auto &op : bb.ops) {
                if (op.guard != kNoPred)
                    usedIn[bb.id].insert(op.guard);
                for (PredId p : Liveness::predDefs(op))
                    definedIn[bb.id].insert(p);
            }
        }
        for (auto &bb : fn.blocks) {
            if (bb.dead)
                continue;
            SchedBlock &sb = code.functions[fn.id].blocks[bb.id];
            if (!sb.valid || !sb.isLoopBody)
                continue;
            std::vector<PredId> external;
            for (PredId p : definedIn[bb.id]) {
                for (const auto &[other, uses] : usedIn) {
                    if (other != bb.id && uses.count(p)) {
                        external.push_back(p);
                        break;
                    }
                }
            }
            const int conflictsBefore = stats.blocksFailedConflict;
            const int capacityBefore = stats.blocksFailedCapacity;
            const bool ok = lowerBlockToSlots(bb, sb, machine, external,
                                              stats, predQueueDepth);
            if (log) {
                obs::LoopAttempt a;
                a.transform = "slot_lowering";
                a.opsBefore = a.opsAfter = bb.sizeOps();
                if (ok) {
                    a.applied = true;
                } else {
                    a.reason = obs::LoopReason::PredSlotsExhausted;
                    a.note =
                        stats.blocksFailedConflict > conflictsBefore
                            ? "slot conflict"
                        : stats.blocksFailedCapacity > capacityBefore
                            ? "clone capacity"
                            : "lowering failed";
                }
                log->addAttempt(fn.name + "/" + bb.name, std::move(a));
            }
        }
    }
    return stats;
}

} // namespace lbp
