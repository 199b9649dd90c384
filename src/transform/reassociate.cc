#include "transform/reassociate.hh"

#include <map>
#include <set>

#include "analysis/liveness.hh"
#include "support/logging.hh"

namespace lbp
{

namespace
{

/** Opcodes that are associative and commutative over int64. */
bool
isAssoc(Opcode op)
{
    switch (op) {
      case Opcode::ADD:
      case Opcode::MUL:
      case Opcode::AND:
      case Opcode::OR:
      case Opcode::XOR:
      case Opcode::MIN:
      case Opcode::MAX:
        return true;
      default:
        return false;
    }
}

struct Chain
{
    std::vector<size_t> links;   ///< op indices, program order
    std::vector<Operand> leaves; ///< non-chain operands
};

/**
 * Try to grow a chain starting at op @p start. Returns a chain of at
 * least 3 links (shorter chains gain nothing), or an empty one.
 */
Chain
findChain(const BasicBlock &bb, size_t start,
          RegSetRef liveOut,
          const std::vector<char> &consumed)
{
    Chain chain;
    const Opcode oc = bb.ops[start].op;
    const PredId guard = bb.ops[start].guard;

    size_t cur = start;
    while (true) {
        const Operation &op = bb.ops[cur];
        chain.links.push_back(cur);
        const RegId dst = op.dsts[0].asReg();

        // Find the unique in-block reader of dst after cur; it must
        // be the next link, and nothing else may read or write dst
        // in between.
        size_t reader = SIZE_MAX;
        bool ok = true;
        for (size_t j = cur + 1; j < bb.ops.size() && ok; ++j) {
            const Operation &later = bb.ops[j];
            if (later.readsReg(dst)) {
                if (reader != SIZE_MAX) {
                    ok = false; // second reader
                    break;
                }
                reader = j;
                // The reader terminates the search window only if it
                // also rewrites dst (accumulator form); otherwise
                // keep scanning for extra readers.
                if (later.writesReg(dst))
                    break;
            } else if (later.writesReg(dst)) {
                break; // dst re-killed; no more readers possible
            }
        }
        if (!ok || reader == SIZE_MAX)
            break;
        const Operation &next = bb.ops[reader];
        if (next.op != oc || next.guard != guard ||
            next.dsts.size() != 1 || !next.dsts[0].isReg() ||
            consumed[reader]) {
            break;
        }
        // Exactly one source of `next` is dst.
        const bool s0 = next.srcs[0].isReg() &&
                        next.srcs[0].asReg() == dst;
        const bool s1 = next.srcs[1].isReg() &&
                        next.srcs[1].asReg() == dst;
        if (s0 == s1)
            break; // both or neither
        // Intermediate dst must die here: not live-out, and the scan
        // above guaranteed no other readers.
        if (liveOut.test(dst) && !next.writesReg(dst))
            break;
        cur = reader;
    }

    if (chain.links.size() < 3) {
        chain.links.clear();
        return chain;
    }

    // Collect leaves and validate relocation: the rebuilt tree issues
    // at the last link's position, so no op between a leaf's chain
    // link and the last link may write that leaf, and no non-chain op
    // in the chain's span may read any chained destination.
    const size_t first = chain.links.front();
    const size_t last = chain.links.back();
    std::set<size_t> linkSet(chain.links.begin(), chain.links.end());

    std::set<RegId> chainDsts;
    for (size_t l : chain.links)
        chainDsts.insert(bb.ops[l].dsts[0].asReg());
    for (size_t j = first; j <= last; ++j) {
        if (linkSet.count(j))
            continue;
        for (RegId d : chainDsts) {
            if (bb.ops[j].readsReg(d) || bb.ops[j].writesReg(d)) {
                chain.links.clear();
                return chain;
            }
        }
    }

    for (size_t li = 0; li < chain.links.size(); ++li) {
        const size_t l = chain.links[li];
        const Operation &op = bb.ops[l];
        for (const auto &src : op.srcs) {
            // Skip the incoming-chain operand (previous link's dst),
            // except on the first link where both operands are
            // leaves.
            if (li > 0 && src.isReg() &&
                src.asReg() ==
                    bb.ops[chain.links[li - 1]].dsts[0].asReg()) {
                continue;
            }
            chain.leaves.push_back(src);
            if (!src.isReg())
                continue;
            // Leaf must be stable from its link through the last
            // link.
            for (size_t j = l; j <= last; ++j) {
                if (linkSet.count(j))
                    continue;
                if (bb.ops[j].writesReg(src.asReg())) {
                    chain.links.clear();
                    return chain;
                }
            }
            // A leaf cannot alias an intermediate chain destination
            // (intermediates have exactly one reader — the next
            // link), and aliasing the *final* destination (the
            // accumulator form) is safe: after the rebuild only the
            // final tree op writes it, after all leaf reads.
        }
    }
    return chain;
}

} // namespace

ReassociateStats
reassociate(Function &fn)
{
    ReassociateStats st;
    Liveness live(fn);
    for (auto &bb : fn.blocks) {
        if (bb.dead)
            continue;
        const RegSetRef liveOut = live.liveOut(bb.id);
        std::vector<char> consumed(bb.ops.size(), 0);

        std::vector<Chain> chains;
        for (size_t i = 0; i < bb.ops.size(); ++i) {
            const Operation &op = bb.ops[i];
            if (consumed[i] || !isAssoc(op.op))
                continue;
            if (op.dsts.size() != 1 || !op.dsts[0].isReg())
                continue;
            Chain c = findChain(bb, i, liveOut, consumed);
            if (c.links.empty())
                continue;
            for (size_t l : c.links)
                consumed[l] = 1;
            chains.push_back(std::move(c));
        }
        if (chains.empty())
            continue;

        // Rebuild: remove the chain links; at the last link's
        // position emit a balanced tree (pairwise-combine queue) with
        // fresh intermediate registers, final op writing the original
        // final destination.
        std::set<size_t> removed;
        std::map<size_t, std::vector<Operation>> insertAt;
        for (const auto &c : chains) {
            for (size_t l : c.links)
                removed.insert(l);
            const Operation &lastOp = bb.ops[c.links.back()];
            const Opcode oc = lastOp.op;
            const PredId guard = lastOp.guard;
            const RegId finalDst = lastOp.dsts[0].asReg();

            std::vector<Operand> queue = c.leaves;
            std::vector<Operation> tree;
            while (queue.size() > 2) {
                const Operand a = queue.front();
                queue.erase(queue.begin());
                const Operand b = queue.front();
                queue.erase(queue.begin());
                const RegId t = fn.newReg();
                Operation o = makeBinary(oc, t, a, b);
                o.guard = guard;
                o.id = fn.newOpId();
                tree.push_back(std::move(o));
                queue.push_back(Operand::reg(t));
            }
            LBP_ASSERT(queue.size() == 2, "tree underflow");
            Operation fin = makeBinary(oc, finalDst, queue[0],
                                       queue[1]);
            fin.guard = guard;
            fin.id = fn.newOpId();
            tree.push_back(std::move(fin));
            insertAt[c.links.back()] = std::move(tree);
            ++st.chainsRebalanced;
            st.opsInChains += static_cast<int>(c.links.size());
        }

        std::vector<Operation> out;
        out.reserve(bb.ops.size());
        for (size_t i = 0; i < bb.ops.size(); ++i) {
            auto it = insertAt.find(i);
            if (it != insertAt.end()) {
                for (auto &o : it->second)
                    out.push_back(std::move(o));
                continue;
            }
            if (!removed.count(i))
                out.push_back(std::move(bb.ops[i]));
        }
        bb.ops = std::move(out);
    }
    return st;
}

ReassociateStats
reassociate(Program &prog)
{
    ReassociateStats st;
    for (auto &fn : prog.functions) {
        auto s = reassociate(fn);
        st.chainsRebalanced += s.chainsRebalanced;
        st.opsInChains += s.opsInChains;
    }
    return st;
}

} // namespace lbp
