#include "ir/function.hh"

#include <algorithm>

#include "support/logging.hh"

namespace lbp
{

BlockId
Function::newBlock(const std::string &bname)
{
    BasicBlock bb;
    bb.id = static_cast<BlockId>(blocks.size());
    bb.name = bname.empty() ? ("bb" + std::to_string(bb.id)) : bname;
    blocks.push_back(std::move(bb));
    return blocks.back().id;
}

std::vector<std::vector<BlockId>>
Function::predecessors() const
{
    std::vector<std::vector<BlockId>> preds(blocks.size());
    for (const auto &b : blocks) {
        if (b.dead)
            continue;
        for (BlockId s : b.successors()) {
            LBP_ASSERT(s < blocks.size(), "bad successor in ", name);
            preds[s].push_back(b.id);
        }
    }
    return preds;
}

std::vector<BlockId>
Function::reversePostorder() const
{
    std::vector<BlockId> order;
    if (entry == kNoBlock)
        return order;
    std::vector<char> state(blocks.size(), 0); // 0 new, 1 open, 2 done
    // Iterative DFS computing postorder.
    std::vector<std::pair<BlockId, size_t>> stack;
    stack.emplace_back(entry, 0);
    state[entry] = 1;
    std::vector<BlockId> post;
    while (!stack.empty()) {
        auto &[b, idx] = stack.back();
        auto succs = blocks[b].successors();
        if (idx < succs.size()) {
            BlockId s = succs[idx++];
            if (!blocks[s].dead && state[s] == 0) {
                state[s] = 1;
                stack.emplace_back(s, 0);
            }
        } else {
            post.push_back(b);
            state[b] = 2;
            stack.pop_back();
        }
    }
    order.assign(post.rbegin(), post.rend());
    return order;
}

int
Function::sizeOps() const
{
    int n = 0;
    for (const auto &b : blocks)
        if (!b.dead)
            n += b.sizeOps();
    return n;
}

int
Function::assignOpIds()
{
    int touched = 0;
    for (auto &b : blocks) {
        if (b.dead)
            continue;
        for (auto &o : b.ops) {
            if (o.id == 0) {
                o.id = newOpId();
                ++touched;
            }
        }
    }
    return touched;
}

int
Function::pruneUnreachable()
{
    std::vector<char> reach(blocks.size(), 0);
    for (BlockId b : reversePostorder())
        reach[b] = 1;
    int removed = 0;
    for (auto &b : blocks) {
        if (!b.dead && !reach[b.id]) {
            b.dead = true;
            b.ops.clear();
            b.fallthrough = kNoBlock;
            ++removed;
        }
    }
    return removed;
}

} // namespace lbp
