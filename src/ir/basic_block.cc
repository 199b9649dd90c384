#include "ir/basic_block.hh"

#include <algorithm>

namespace lbp
{

std::vector<BlockId>
BasicBlock::successors() const
{
    std::vector<BlockId> succs;
    appendSuccessors(succs);
    return succs;
}

void
BasicBlock::appendSuccessors(std::vector<BlockId> &out) const
{
    const auto first = static_cast<std::ptrdiff_t>(out.size());
    auto add = [&](BlockId s) {
        if (std::find(out.begin() + first, out.end(), s) == out.end())
            out.push_back(s);
    };
    for (const auto &o : ops)
        if (o.isBranchOp() && o.target != kNoBlock)
            add(o.target);
    if (fallthrough != kNoBlock)
        add(fallthrough);
}

bool
BasicBlock::endsWithUnconditional() const
{
    if (ops.empty())
        return false;
    const Operation &last = ops.back();
    if (last.op == Opcode::RET)
        return true;
    if (last.op == Opcode::JUMP && !last.hasGuard())
        return true;
    return false;
}

const Operation *
BasicBlock::terminator() const
{
    if (!ops.empty() && (ops.back().isBranchOp() ||
                         ops.back().op == Opcode::RET)) {
        return &ops.back();
    }
    return nullptr;
}

Operation *
BasicBlock::terminator()
{
    return const_cast<Operation *>(
        static_cast<const BasicBlock *>(this)->terminator());
}

int
BasicBlock::sizeOps() const
{
    int n = 0;
    for (const auto &o : ops)
        if (o.op != Opcode::NOP)
            ++n;
    return n;
}

void
BasicBlock::kill()
{
    dead = true;
    std::vector<Operation>().swap(ops);
    fallthrough = kNoBlock;
}

} // namespace lbp
