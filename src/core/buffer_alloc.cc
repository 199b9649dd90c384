#include "core/buffer_alloc.hh"

#include <algorithm>
#include <map>

#include "obs/loop_report.hh"
#include "support/logging.hh"

namespace lbp
{

namespace
{

/** A candidate loop: the REC op location plus its image and profit. */
struct Candidate
{
    FuncId func;
    BlockId recBlock;
    size_t recOpIdx;   ///< index into the IR block's ops
    BlockId body;
    int imageOps;
    double benefit;
    std::string name;
};

/** Is @p target a simple hardware-loop body in the scheduled code? */
bool
isBufferableBody(const Function &fn, const SchedProgram &code,
                 BlockId target)
{
    if (target >= fn.blocks.size() || fn.blocks[target].dead)
        return false;
    const SchedBlock &sb = code.functions[fn.id].blocks[target];
    if (!sb.valid || sb.bundles.empty())
        return false;
    const BasicBlock &bb = fn.blocks[target];
    const Operation *term = bb.terminator();
    if (!term)
        return false;
    if (term->op != Opcode::BR_CLOOP && term->op != Opcode::BR_WLOOP)
        return false;
    return term->target == target;
}

} // namespace

BufferAllocResult
allocateLoopBuffers(Program &prog, SchedProgram &code,
                    const BufferAllocOptions &opts,
                    obs::LoopDecisionLog *log)
{
    BufferAllocResult res;
    const int cap = opts.bufferOps;

    // Terminal verdict writer: assignment-only so re-allocation for a
    // different buffer size replaces the verdict cleanly.
    auto decide = [&](const std::string &name, obs::LoopFate fate,
                      obs::LoopReason reason, int imageOps, int addr,
                      double benefit) {
        if (!log)
            return;
        obs::LoopDecision &d = log->decision(name);
        d.fate = fate;
        d.reason = reason;
        d.finalOps = imageOps;
        d.bufAddr = addr;
        d.bufferCapacity = cap;
        d.estDynOps = benefit;
    };

    // Collect candidates from REC/EXEC ops in the IR.
    std::vector<Candidate> cands;
    for (auto &fn : prog.functions) {
        for (auto &bb : fn.blocks) {
            if (bb.dead)
                continue;
            for (size_t oi = 0; oi < bb.ops.size(); ++oi) {
                Operation &op = bb.ops[oi];
                if (!isBufferOp(op.op))
                    continue;
                // Reset any previous allocation.
                op.bufAddr = -1;
                op.numOps = 0;
                if (!isBufferableBody(fn, code, op.target)) {
                    if (op.target < fn.blocks.size() &&
                        !fn.blocks[op.target].dead) {
                        decide(fn.name + "/" +
                                   fn.blocks[op.target].name,
                               obs::LoopFate::Rejected,
                               obs::LoopReason::NotSimple, 0, -1,
                               0.0);
                    }
                    continue;
                }
                const SchedBlock &body =
                    code.functions[fn.id].blocks[op.target];
                Candidate c;
                c.func = fn.id;
                c.recBlock = bb.id;
                c.recOpIdx = oi;
                c.body = op.target;
                c.imageOps = body.imageOps();
                // Benefit: dynamic ops this loop issues (profile
                // iteration weight times real body size).
                c.benefit = fn.blocks[op.target].weight *
                            body.sizeOps();
                c.name = fn.name + "/" + fn.blocks[op.target].name;
                cands.push_back(std::move(c));
            }
        }
    }

    std::sort(cands.begin(), cands.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.benefit != b.benefit)
                      return a.benefit > b.benefit;
                  return a.imageOps < b.imageOps;
              });

    // Greedy placement. `occupancy[x]` = summed benefit of loops
    // already overlapping op slot x; the best offset for a new loop
    // minimizes displaced benefit (0 when free space exists).
    std::vector<double> occupancy(std::max(cap, 1), 0.0);
    // Candidate offsets: 0, plus the end of every placed image.
    std::vector<int> offsets{0};

    auto writeAssignment = [&](const Candidate &c, int addr) {
        Operation &irOp =
            prog.functions[c.func].blocks[c.recBlock].ops[c.recOpIdx];
        irOp.bufAddr = addr;
        irOp.numOps = c.imageOps;
        // Mirror onto the scheduled copy (matched by op id).
        SchedFunction &sf = code.functions[c.func];
        for (auto &so : sf.blocks[c.recBlock].ops) {
            if (so.op.id == irOp.id) {
                so.op.bufAddr = addr;
                so.op.numOps = c.imageOps;
            }
        }
        BufferAssignment a;
        a.loopName = c.name;
        a.func = c.func;
        a.body = c.body;
        a.imageOps = c.imageOps;
        a.bufAddr = addr;
        a.benefit = c.benefit;
        res.assignments.push_back(std::move(a));
    };

    for (const auto &c : cands) {
        if (c.imageOps > cap || c.imageOps <= 0 || c.benefit <= 0) {
            const obs::LoopReason why =
                c.imageOps > cap    ? obs::LoopReason::TooLarge
                : c.imageOps <= 0   ? obs::LoopReason::BadShape
                                    : obs::LoopReason::ColdLoop;
            decide(c.name, obs::LoopFate::Rejected, why, c.imageOps,
                   -1, c.benefit);
            writeAssignment(c, -1);
            ++res.unbuffered;
            continue;
        }
        double bestCost = -1;
        int bestAddr = -1;
        for (int off : offsets) {
            if (off + c.imageOps > cap)
                continue;
            double cost = 0;
            for (int x = off; x < off + c.imageOps; ++x)
                cost = std::max(cost, occupancy[x]);
            if (bestAddr < 0 || cost < bestCost) {
                bestCost = cost;
                bestAddr = off;
            }
        }
        // Also consider the last-fit position.
        if (cap - c.imageOps >= 0) {
            const int off = cap - c.imageOps;
            double cost = 0;
            for (int x = off; x < off + c.imageOps; ++x)
                cost = std::max(cost, occupancy[x]);
            if (bestAddr < 0 || cost < bestCost) {
                bestCost = cost;
                bestAddr = off;
            }
        }
        LBP_ASSERT(bestAddr >= 0, "no offset for fitting image");
        for (int x = bestAddr; x < bestAddr + c.imageOps; ++x)
            occupancy[x] += c.benefit;
        if (std::find(offsets.begin(), offsets.end(),
                      bestAddr + c.imageOps) == offsets.end()) {
            offsets.push_back(bestAddr + c.imageOps);
        }
        decide(c.name, obs::LoopFate::Buffered,
               obs::LoopReason::None, c.imageOps, bestAddr, c.benefit);
        writeAssignment(c, bestAddr);
        ++res.buffered;
    }
    return res;
}

} // namespace lbp
