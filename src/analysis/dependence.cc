#include "analysis/dependence.hh"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/liveness.hh"
#include "support/logging.hh"

namespace lbp
{

void
DepGraph::addEdge(int from, int to, DepKind kind, int latency,
                  int distance)
{
    // Deduplicate: keep the strongest (max latency) edge per
    // (from, to, distance).
    for (int e : succIdx_[from]) {
        DepEdge &ex = edges_[e];
        if (ex.to == to && ex.distance == distance) {
            ex.latency = std::max(ex.latency, latency);
            return;
        }
    }
    const int idx = static_cast<int>(edges_.size());
    edges_.push_back({from, to, kind, latency, distance});
    succIdx_[from].push_back(idx);
    predIdx_[to].push_back(idx);
}

DepGraph::DepGraph(const BasicBlock &bb, bool loopCarried)
{
    numOps_ = static_cast<int>(bb.ops.size());
    succIdx_.assign(numOps_, {});
    predIdx_.assign(numOps_, {});

    // --- Register dependences (general + predicate) ---
    // Track last writer and readers-since-last-write per register.
    struct Accesses
    {
        int lastWriter = -1;
        std::vector<int> readersSince;
        std::vector<int> upwardReaders; // readers before any write
        int firstWriter = -1;
        int lastWriterFinal = -1;
    };
    std::map<std::int64_t, Accesses> regs;   // key: reg id
    std::map<std::int64_t, Accesses> preds;  // key: pred id

    auto touchRead = [&](std::map<std::int64_t, Accesses> &table,
                         std::int64_t key, int i, int /*lat*/) {
        Accesses &a = table[key];
        if (a.lastWriter >= 0) {
            // TRUE dep from the in-block writer.
            // Latency added by caller via writer's opcode below.
        } else {
            a.upwardReaders.push_back(i);
        }
        a.readersSince.push_back(i);
    };

    for (int i = 0; i < numOps_; ++i) {
        const Operation &op = bb.ops[i];

        // Reads.
        for (RegId r : Liveness::uses(op)) {
            Accesses &a = regs[r];
            if (a.lastWriter >= 0) {
                addEdge(a.lastWriter, i, DepKind::TRUE_,
                        latencyOf(bb.ops[a.lastWriter].op), 0);
            }
            touchRead(regs, r, i, 0);
        }
        for (PredId p : Liveness::predUses(op)) {
            Accesses &a = preds[p];
            if (a.lastWriter >= 0) {
                // Predicate generation has a 1-cycle path to the
                // consumer's squash input (paper §7.3).
                addEdge(a.lastWriter, i, DepKind::TRUE_, 1, 0);
            }
            touchRead(preds, p, i, 0);
        }

        // Writes.
        auto doWrite = [&](std::map<std::int64_t, Accesses> &table,
                           std::int64_t key) {
            Accesses &a = table[key];
            for (int rd : a.readersSince) {
                if (rd != i)
                    addEdge(rd, i, DepKind::ANTI, 0, 0);
            }
            if (a.lastWriter >= 0 && a.lastWriter != i)
                addEdge(a.lastWriter, i, DepKind::OUTPUT, 1, 0);
            a.readersSince.clear();
            if (a.firstWriter < 0)
                a.firstWriter = i;
            a.lastWriter = i;
            a.lastWriterFinal = i;
        };
        for (RegId r : Liveness::defs(op))
            doWrite(regs, r);
        for (PredId p : Liveness::predDefs(op))
            doWrite(preds, p);
    }

    // --- Memory ordering with base+offset disambiguation ---
    // Two accesses are provably independent when they share the same
    // base register *version* (no intervening write to the base) and
    // their [offset, offset+size) ranges are disjoint — the
    // lightweight fruit of the pointer analysis the paper calls
    // "important to optimization and instruction scheduling".
    struct MemAccess
    {
        int op;
        bool isSt;
        RegId base = 0;
        bool baseValid = false; // reg base with immediate offset
        int version = 0;
        std::int64_t off = 0;
        int size = 0;
    };
    std::vector<MemAccess> accesses;
    std::map<RegId, int> regVersion;
    std::set<RegId> writtenInBlock;
    for (int i = 0; i < numOps_; ++i) {
        for (RegId r : Liveness::defs(bb.ops[i]))
            writtenInBlock.insert(r);
    }

    auto accessSize = [](Opcode oc) {
        switch (oc) {
          case Opcode::LD_B: case Opcode::ST_B: return 1;
          case Opcode::LD_H: case Opcode::ST_H: return 2;
          default: return 4;
        }
    };
    auto mayAlias = [&](const MemAccess &a, const MemAccess &b,
                        bool crossIteration) {
        if (!a.baseValid || !b.baseValid)
            return true;
        if (a.base != b.base || a.version != b.version)
            return true;
        // Cross-iteration comparisons additionally require the base
        // to be loop-invariant over the whole body.
        if (crossIteration && writtenInBlock.count(a.base))
            return true;
        return a.off < b.off + b.size && b.off < a.off + a.size;
    };

    std::vector<int> stores_all;
    for (int i = 0; i < numOps_; ++i) {
        const Operation &op = bb.ops[i];
        const Opcode oc = op.op;
        if (isLoad(oc) || isStore(oc)) {
            MemAccess ma;
            ma.op = i;
            ma.isSt = isStore(oc);
            ma.size = accessSize(oc);
            if (op.srcs[0].isReg() && op.srcs[1].isImm()) {
                ma.base = op.srcs[0].asReg();
                ma.baseValid = true;
                ma.version = regVersion[ma.base];
                ma.off = op.srcs[1].value;
            }
            for (const auto &prev : accesses) {
                if (!prev.isSt && !ma.isSt)
                    continue; // load-load never conflicts
                if (mayAlias(prev, ma, /*crossIteration=*/false)) {
                    // store->load / store->store need a cycle; a
                    // store may issue in a load's cycle (reads
                    // precede writes within a bundle).
                    addEdge(prev.op, i, DepKind::MEM,
                            prev.isSt ? 1 : 0, 0);
                }
            }
            accesses.push_back(ma);
            if (ma.isSt)
                stores_all.push_back(i);
        }
        // Every register write (memory op or not) advances base
        // versions, invalidating offset comparisons across it.
        for (RegId r : Liveness::defs(op))
            ++regVersion[r];
    }

    // --- Control: branches are position barriers ---
    for (int i = 0; i < numOps_; ++i) {
        if (!bb.ops[i].isBranchOp() && bb.ops[i].op != Opcode::CALL &&
            bb.ops[i].op != Opcode::RET && !isBufferOp(bb.ops[i].op)) {
            continue;
        }
        for (int j = 0; j < i; ++j)
            addEdge(j, i, DepKind::CONTROL, 0, 0);
        for (int j = i + 1; j < numOps_; ++j)
            addEdge(i, j, DepKind::CONTROL, 1, 0);
    }

    if (!loopCarried)
        return;

    // --- Loop-carried register dependences (distance 1) ---
    for (const auto &[r, a] : regs) {
        if (a.lastWriterFinal < 0)
            continue;
        for (int rd : a.upwardReaders) {
            addEdge(a.lastWriterFinal, rd, DepKind::TRUE_,
                    latencyOf(bb.ops[a.lastWriterFinal].op), 1);
        }
    }
    for (const auto &[p, a] : preds) {
        if (a.lastWriterFinal < 0)
            continue;
        for (int rd : a.upwardReaders)
            addEdge(a.lastWriterFinal, rd, DepKind::TRUE_, 1, 1);
    }

    // --- Loop-carried memory (distance 1), disambiguated ---
    for (const auto &a : accesses) {
        if (!a.isSt)
            continue;
        for (const auto &b : accesses) {
            if (!a.isSt && !b.isSt)
                continue;
            if (mayAlias(a, b, /*crossIteration=*/true))
                addEdge(a.op, b.op, DepKind::MEM, 1, 1);
        }
    }

    // --- Loop-carried control: an exit whose outcome is not known in
    //     advance (while-loop back branch, conditional exits) limits
    //     store speculation in the next iteration. Counted-loop
    //     branches (BR_CLOOP) impose no such constraint: the trip
    //     count is known to the fetch hardware.
    for (int i = 0; i < numOps_; ++i) {
        const Opcode oc = bb.ops[i].op;
        if (oc != Opcode::BR_WLOOP && oc != Opcode::BR &&
            oc != Opcode::JUMP) {
            continue;
        }
        for (int st : stores_all)
            addEdge(i, st, DepKind::CONTROL, 1, 1);
    }
}

std::vector<int>
DepGraph::heights() const
{
    std::vector<int> h(numOps_, 0);
    // Ops are in program order; distance-0 edges always go forward
    // (by construction), so a reverse sweep computes longest paths.
    for (int i = numOps_ - 1; i >= 0; --i) {
        for (int e : succIdx_[i]) {
            const DepEdge &ed = edges_[e];
            if (ed.distance != 0)
                continue;
            h[i] = std::max(h[i], ed.latency + h[ed.to]);
        }
    }
    return h;
}

int
DepGraph::recMII() const
{
    // Find the smallest II such that the graph with edge weights
    // (latency - II * distance) has no positive-weight cycle.
    auto hasPositiveCycle = [&](int ii) {
        std::vector<double> dist(numOps_, 0.0);
        for (int iter = 0; iter <= numOps_; ++iter) {
            bool relaxed = false;
            for (const auto &e : edges_) {
                const double w =
                    e.latency - static_cast<double>(ii) * e.distance;
                if (dist[e.from] + w > dist[e.to]) {
                    dist[e.to] = dist[e.from] + w;
                    relaxed = true;
                }
            }
            if (!relaxed)
                return false;
        }
        return true;
    };

    int lo = 1, hi = 1;
    for (const auto &e : edges_)
        hi = std::max(hi, e.latency + 1);
    hi = std::max(hi, numOps_ + 1);
    while (hasPositiveCycle(hi))
        hi *= 2;
    while (lo < hi) {
        const int mid = (lo + hi) / 2;
        if (hasPositiveCycle(mid))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

} // namespace lbp
