#include "analysis/dependence.hh"

#include <algorithm>

#include "support/logging.hh"

namespace lbp
{

namespace
{

/** Per-register and per-memory-op construction state of one graph. */
struct Scratch
{
    /** Access history of one register or predicate in the block. */
    struct Access
    {
        RegId id = 0;
        int lastWriter = -1;
        /** Readers since the last write, then readers before any
         *  write: chains through `links`, in read order. */
        int sinceHead = -1, sinceTail = -1;
        int upHead = -1, upTail = -1;
        /** Writes so far (the base-register version of memory
         *  disambiguation). */
        int version = 0;
    };
    struct Link
    {
        int op;
        int next;
    };
    struct MemAccess
    {
        int op;
        bool isSt;
        bool baseValid; // reg base with immediate offset
        int base;       // local register index
        int version;
        std::int64_t off;
        int size;
    };

    /** Dense id -> index into `regs` / `preds`; kAbsent if the
     *  block does not touch the id. */
    static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
    std::vector<std::uint32_t> regIds, predIds;
    std::vector<Access> regs, preds;
    std::vector<Link> links;
    std::vector<MemAccess> accesses;
    std::vector<int> stores;
    std::vector<int> carried;

    /** The access record of @p id, created on first touch. */
    static Access &touch(std::vector<std::uint32_t> &map,
                         std::vector<Access> &table, std::uint32_t id)
    {
        if (id >= map.size())
            map.resize(id + 1, kAbsent);
        if (map[id] == kAbsent) {
            map[id] = static_cast<std::uint32_t>(table.size());
            table.push_back({});
            table.back().id = id;
        }
        return table[map[id]];
    }
    /** Local index of register @p r (touched first). */
    int localReg(RegId r)
    {
        touch(regIds, regs, r);
        return static_cast<int>(regIds[r]);
    }

    static void append(std::vector<Link> &links, int &head, int &tail,
                       int op)
    {
        const int at = static_cast<int>(links.size());
        links.push_back({op, -1});
        if (tail >= 0)
            links[tail].next = at;
        else
            head = at;
        tail = at;
    }
};

} // namespace

/**
 * The graph's edges by (from, to, distance), open addressing, at most
 * half full. It is sized from the block and freed with the build: a
 * table kept for the largest block would stay in the heap for the
 * life of the thread, next to whatever runs after the compile.
 */
struct DepGraph::EdgeIndex
{
    std::vector<std::uint64_t> keys;
    std::vector<int> slots;
    std::uint64_t mask = 0;

    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    explicit EdgeIndex(size_t expectedEdges) { resize(expectedEdges); }

    static std::uint64_t key(int from, int to, int distance)
    {
        return std::uint64_t(from) << 32 | std::uint64_t(to) << 1 |
               std::uint64_t(distance);
    }

    /** The slot holding @p k, or the empty slot where it belongs. */
    std::uint64_t find(std::uint64_t k) const
    {
        std::uint64_t h = (k * 0x9e3779b97f4a7c15ull) >> 20;
        while (keys[h & mask] != k && keys[h & mask] != kEmpty)
            ++h;
        return h & mask;
    }

    /** Empty the table, with room for @p edges at most half full. */
    void resize(size_t edges)
    {
        size_t cap = 64;
        while (cap < 2 * edges)
            cap *= 2;
        keys.assign(cap, kEmpty);
        slots.resize(cap);
        mask = cap - 1;
    }
};

void
DepGraph::addEdge(EdgeIndex &index, int from, int to, DepKind kind,
                  int latency, int distance)
{
    // Deduplicate: keep the strongest (max latency) edge per
    // (from, to, distance), at the position of its first insertion.
    LBP_ASSERT(distance == 0 || distance == 1, "bad edge distance");
    const std::uint64_t k = EdgeIndex::key(from, to, distance);
    const std::uint64_t at = index.find(k);
    if (index.keys[at] == k) {
        DepEdge &ex = edges_[index.slots[at]];
        ex.latency = std::max(ex.latency, latency);
        return;
    }
    index.keys[at] = k;
    index.slots[at] = static_cast<int>(edges_.size());
    edges_.push_back({from, to, kind, latency, distance});
    if (2 * edges_.size() <= index.mask + 1)
        return;
    index.resize(2 * edges_.size());
    for (size_t e = 0; e < edges_.size(); ++e) {
        const DepEdge &ed = edges_[e];
        const std::uint64_t ek = EdgeIndex::key(ed.from, ed.to, ed.distance);
        const std::uint64_t slot = index.find(ek);
        index.keys[slot] = ek;
        index.slots[slot] = static_cast<int>(e);
    }
}

DepGraph::DepGraph(const BasicBlock &bb, bool loopCarried)
{
    Scratch s;
    numOps_ = static_cast<int>(bb.ops.size());
    EdgeIndex index(4 * bb.ops.size());

    // --- Register dependences (general + predicate) ---
    // Track last writer and readers-since-last-write per register.
    auto read = [&](Scratch::Access &a, int i, int latency) {
        if (a.lastWriter >= 0)
            addEdge(index, a.lastWriter, i, DepKind::TRUE_, latency, 0);
        else
            Scratch::append(s.links, a.upHead, a.upTail, i);
        Scratch::append(s.links, a.sinceHead, a.sinceTail, i);
    };
    auto write = [&](Scratch::Access &a, int i) {
        for (int l = a.sinceHead; l >= 0; l = s.links[l].next) {
            if (s.links[l].op != i)
                addEdge(index, s.links[l].op, i, DepKind::ANTI, 0, 0);
        }
        if (a.lastWriter >= 0 && a.lastWriter != i)
            addEdge(index, a.lastWriter, i, DepKind::OUTPUT, 1, 0);
        a.sinceHead = a.sinceTail = -1;
        a.lastWriter = i;
    };
    for (int i = 0; i < numOps_; ++i) {
        const Operation &op = bb.ops[i];

        // Reads: registers, then the guard and predicate sources.
        for (const Operand &o : op.srcs) {
            if (!o.isReg())
                continue;
            Scratch::Access &a = s.touch(s.regIds, s.regs, o.asReg());
            read(a, i,
                 a.lastWriter >= 0 ? latencyOf(bb.ops[a.lastWriter].op)
                                   : 0);
        }
        // Predicate generation has a 1-cycle path to the consumer's
        // squash input (paper §7.3).
        if (op.guard != kNoPred)
            read(s.touch(s.predIds, s.preds, op.guard), i, 1);
        for (const Operand &o : op.srcs)
            if (o.isPred())
                read(s.touch(s.predIds, s.preds, o.asPred()), i, 1);

        // Writes.
        for (const Operand &o : op.dsts)
            if (o.isReg())
                write(s.touch(s.regIds, s.regs, o.asReg()), i);
        if (op.op == Opcode::PRED_DEF) {
            for (const Operand &o : op.dsts)
                if (o.isPred())
                    write(s.touch(s.predIds, s.preds, o.asPred()), i);
        }
    }

    // --- Memory ordering with base+offset disambiguation ---
    // Two accesses are provably independent when they share the same
    // base register *version* (no intervening write to the base) and
    // their [offset, offset+size) ranges are disjoint — the
    // lightweight fruit of the pointer analysis the paper calls
    // "important to optimization and instruction scheduling".
    for (auto &a : s.regs)
        a.version = 0;
    auto accessSize = [](Opcode oc) {
        switch (oc) {
          case Opcode::LD_B: case Opcode::ST_B: return 1;
          case Opcode::LD_H: case Opcode::ST_H: return 2;
          default: return 4;
        }
    };
    auto mayAlias = [&](const Scratch::MemAccess &a,
                        const Scratch::MemAccess &b, bool crossIteration) {
        if (!a.baseValid || !b.baseValid)
            return true;
        if (a.base != b.base || a.version != b.version)
            return true;
        // Cross-iteration comparisons additionally require the base
        // to be loop-invariant over the whole body.
        if (crossIteration && s.regs[a.base].lastWriter >= 0)
            return true;
        return a.off < b.off + b.size && b.off < a.off + a.size;
    };

    for (int i = 0; i < numOps_; ++i) {
        const Operation &op = bb.ops[i];
        const Opcode oc = op.op;
        if (isLoad(oc) || isStore(oc)) {
            Scratch::MemAccess ma{i, isStore(oc), false, 0, 0, 0,
                                  accessSize(oc)};
            if (op.srcs[0].isReg() && op.srcs[1].isImm()) {
                ma.base = s.localReg(op.srcs[0].asReg());
                ma.baseValid = true;
                ma.version = s.regs[ma.base].version;
                ma.off = op.srcs[1].value;
            }
            for (const auto &prev : s.accesses) {
                if (!prev.isSt && !ma.isSt)
                    continue; // load-load never conflicts
                if (mayAlias(prev, ma, /*crossIteration=*/false)) {
                    // store->load / store->store need a cycle; a
                    // store may issue in a load's cycle (reads
                    // precede writes within a bundle).
                    addEdge(index, prev.op, i, DepKind::MEM,
                            prev.isSt ? 1 : 0, 0);
                }
            }
            s.accesses.push_back(ma);
            if (ma.isSt)
                s.stores.push_back(i);
        }
        // Every register write (memory op or not) advances base
        // versions, invalidating offset comparisons across it.
        for (const Operand &o : op.dsts)
            if (o.isReg())
                ++s.regs[s.localReg(o.asReg())].version;
    }

    // --- Control: branches are position barriers ---
    for (int i = 0; i < numOps_; ++i) {
        if (!bb.ops[i].isBranchOp() && bb.ops[i].op != Opcode::CALL &&
            bb.ops[i].op != Opcode::RET && !isBufferOp(bb.ops[i].op)) {
            continue;
        }
        for (int j = 0; j < i; ++j)
            addEdge(index, j, i, DepKind::CONTROL, 0, 0);
        for (int j = i + 1; j < numOps_; ++j)
            addEdge(index, i, j, DepKind::CONTROL, 1, 0);
    }

    if (loopCarried) {
        // --- Loop-carried register dependences (distance 1), by
        //     ascending register id, then by ascending predicate id ---
        auto carry = [&](std::vector<Scratch::Access> &table,
                         bool predicate) {
            s.carried.clear();
            for (size_t k = 0; k < table.size(); ++k)
                if (table[k].lastWriter >= 0 && table[k].upHead >= 0)
                    s.carried.push_back(static_cast<int>(k));
            std::sort(s.carried.begin(), s.carried.end(),
                      [&](int x, int y) {
                          return table[x].id < table[y].id;
                      });
            for (int k : s.carried) {
                const Scratch::Access &a = table[k];
                const int latency =
                    predicate ? 1 : latencyOf(bb.ops[a.lastWriter].op);
                for (int l = a.upHead; l >= 0; l = s.links[l].next) {
                    addEdge(index, a.lastWriter, s.links[l].op,
                            DepKind::TRUE_, latency, 1);
                }
            }
        };
        carry(s.regs, false);
        carry(s.preds, true);

        // --- Loop-carried memory (distance 1), disambiguated ---
        for (const auto &a : s.accesses) {
            if (!a.isSt)
                continue;
            for (const auto &b : s.accesses) {
                if (mayAlias(a, b, /*crossIteration=*/true))
                    addEdge(index, a.op, b.op, DepKind::MEM, 1, 1);
            }
        }

        // --- Loop-carried control: an exit whose outcome is not known
        //     in advance (while-loop back branch, conditional exits)
        //     limits store speculation in the next iteration.
        //     Counted-loop branches (BR_CLOOP) impose no such
        //     constraint: the trip count is known to the fetch
        //     hardware.
        for (int i = 0; i < numOps_; ++i) {
            const Opcode oc = bb.ops[i].op;
            if (oc != Opcode::BR_WLOOP && oc != Opcode::BR &&
                oc != Opcode::JUMP) {
                continue;
            }
            for (int st : s.stores)
                addEdge(index, i, st, DepKind::CONTROL, 1, 1);
        }
    }

    // Successor and predecessor rows, each in edge order.
    const int n = numOps_;
    adjStart_.assign(2 * n + 2, 0);
    for (const DepEdge &e : edges_) {
        ++adjStart_[e.from + 1];
        ++adjStart_[n + 2 + e.to];
    }
    for (int r = 0; r < 2 * n + 1; ++r)
        adjStart_[r + 1] += adjStart_[r];
    adj_.resize(2 * edges_.size());
    std::vector<std::uint32_t> cursor(adjStart_.begin(),
                                      adjStart_.end() - 1);
    for (size_t e = 0; e < edges_.size(); ++e) {
        adj_[cursor[edges_[e].from]++] = static_cast<int>(e);
        adj_[cursor[n + 1 + edges_[e].to]++] = static_cast<int>(e);
    }
}

std::vector<int>
DepGraph::heights() const
{
    std::vector<int> h(numOps_, 0);
    // Ops are in program order; distance-0 edges always go forward
    // (by construction), so a reverse sweep computes longest paths.
    for (int i = numOps_ - 1; i >= 0; --i) {
        for (int e : succs(i)) {
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
    const int n = numOps_;
    // Tarjan's strongly connected components, iteratively.
    std::vector<int> index(n, -1), low(n, 0), comp(n, -1);
    std::vector<int> stack, call;
    std::vector<char> onStack(n, 0);
    std::vector<int> nextEdge(n, 0);
    int counter = 0, numComps = 0;
    for (int root = 0; root < n; ++root) {
        if (index[root] >= 0)
            continue;
        call.push_back(root);
        while (!call.empty()) {
            const int v = call.back();
            if (index[v] < 0) {
                index[v] = low[v] = counter++;
                stack.push_back(v);
                onStack[v] = 1;
            }
            const auto out = succs(v);
            if (nextEdge[v] < static_cast<int>(out.size())) {
                const int w = edges_[out[nextEdge[v]++]].to;
                if (index[w] < 0)
                    call.push_back(w);
                else if (onStack[w])
                    low[v] = std::min(low[v], index[w]);
                continue;
            }
            call.pop_back();
            if (!call.empty())
                low[call.back()] = std::min(low[call.back()], low[v]);
            if (low[v] == index[v]) {
                int w;
                do {
                    w = stack.back();
                    stack.pop_back();
                    onStack[w] = 0;
                    comp[w] = numComps;
                } while (w != v);
                ++numComps;
            }
        }
    }

    // Edges inside each component; a component with none (a single
    // op without a self edge) holds no cycle.
    std::vector<std::vector<const DepEdge *>> inner(numComps);
    for (const DepEdge &e : edges_)
        if (comp[e.from] == comp[e.to])
            inner[comp[e.from]].push_back(&e);

    // Find the smallest II such that the component with edge weights
    // (latency - II * distance) has no positive-weight cycle. Every
    // cycle carries distance >= 1 (distance-0 edges go forward), so
    // II = the sum of the component's latencies always suffices.
    std::vector<std::int64_t> dist(n, 0);
    std::vector<int> members;
    auto hasPositiveCycle = [&](const std::vector<const DepEdge *> &es,
                                int ii) {
        for (int m : members)
            dist[m] = 0;
        for (size_t iter = 0; iter <= members.size(); ++iter) {
            bool relaxed = false;
            for (const DepEdge *e : es) {
                const std::int64_t w =
                    e->latency - std::int64_t{ii} * e->distance;
                if (dist[e->from] + w > dist[e->to]) {
                    dist[e->to] = dist[e->from] + w;
                    relaxed = true;
                }
            }
            if (!relaxed)
                return false;
        }
        return true;
    };

    int best = 1;
    for (int c = 0; c < numComps; ++c) {
        const auto &es = inner[c];
        if (es.empty())
            continue;
        members.clear();
        int hi = 1;
        for (const DepEdge *e : es) {
            hi += std::max(e->latency, 0);
            members.push_back(e->from);
        }
        std::sort(members.begin(), members.end());
        members.erase(std::unique(members.begin(), members.end()),
                      members.end());
        int lo = best;
        if (!hasPositiveCycle(es, lo))
            continue;
        while (lo < hi) {
            const int mid = lo + (hi - lo) / 2;
            if (hasPositiveCycle(es, mid))
                lo = mid + 1;
            else
                hi = mid;
        }
        best = lo;
    }
    return best;
}

} // namespace lbp
