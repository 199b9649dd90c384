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

BlockLists
Function::successorLists() const
{
    BlockLists out;
    out.offsets.reserve(blocks.size() + 1);
    out.offsets.push_back(0);
    for (const auto &b : blocks) {
        b.appendSuccessors(out.ids);
        for (auto i = out.offsets.back(); i < out.ids.size(); ++i)
            LBP_ASSERT(b.dead || out.ids[i] < blocks.size(),
                       "bad successor in ", name);
        out.offsets.push_back(static_cast<std::uint32_t>(out.ids.size()));
    }
    return out;
}

BlockLists
Function::predecessorLists(const BlockLists &succs) const
{
    BlockLists out;
    out.offsets.assign(blocks.size() + 1, 0);
    for (const auto &b : blocks)
        if (!b.dead)
            for (BlockId s : succs[b.id])
                ++out.offsets[s + 1];
    for (size_t i = 0; i < blocks.size(); ++i)
        out.offsets[i + 1] += out.offsets[i];
    out.ids.resize(out.offsets.back());
    std::vector<std::uint32_t> fill(out.offsets.begin(),
                                    out.offsets.end() - 1);
    for (const auto &b : blocks)
        if (!b.dead)
            for (BlockId s : succs[b.id])
                out.ids[fill[s]++] = b.id;
    return out;
}

std::vector<BlockId>
Function::reversePostorder() const
{
    return reversePostorder(successorLists());
}

std::vector<BlockId>
Function::reversePostorder(const BlockLists &succs) const
{
    std::vector<BlockId> post;
    if (entry == kNoBlock)
        return post;
    std::vector<char> seen(blocks.size(), 0);
    // Iterative DFS computing postorder.
    std::vector<std::pair<BlockId, std::uint32_t>> stack;
    stack.emplace_back(entry, succs.offsets[entry]);
    seen[entry] = 1;
    post.reserve(blocks.size());
    while (!stack.empty()) {
        auto &[b, next] = stack.back();
        if (next < succs.offsets[b + 1]) {
            const BlockId s = succs.ids[next++];
            if (!blocks[s].dead && !seen[s]) {
                seen[s] = 1;
                stack.emplace_back(s, succs.offsets[s]);
            }
        } else {
            post.push_back(b);
            stack.pop_back();
        }
    }
    std::reverse(post.begin(), post.end());
    return post;
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
            b.kill();
            ++removed;
        }
    }
    return removed;
}

} // namespace lbp
