#include "transform/loop_peel.hh"

#include <map>

#include "analysis/loop_info.hh"
#include "obs/loop_report.hh"
#include "support/logging.hh"

namespace lbp
{

namespace
{

bool
peelOne(Function &fn, const Loop &loop, const PeelOptions &opts,
        PeelStats &st, obs::LoopDecisionLog *log)
{
    int body_ops = 0;
    for (BlockId b : loop.blocks)
        body_ops += fn.blocks[b].sizeOps();

    auto reject = [&](obs::LoopReason r, std::string note = "") {
        if (log) {
            obs::LoopAttempt a;
            a.transform = "peel";
            a.reason = r;
            a.opsBefore = a.opsAfter = body_ops;
            a.note = std::move(note);
            log->addAttempt(fn.name + "/" +
                                fn.blocks[loop.header].name,
                            std::move(a));
        }
        return false;
    };

    if (!loop.induction.valid || loop.induction.constTrip < 1)
        return reject(obs::LoopReason::NotCounted);
    if (loop.induction.constTrip > opts.maxTrip) {
        return reject(obs::LoopReason::TripTooLarge,
                      "trip " + std::to_string(loop.induction.constTrip));
    }
    if (loop.latches.size() != 1)
        return reject(obs::LoopReason::MultiLatch);
    const std::int64_t trip = loop.induction.constTrip;

    for (BlockId b : loop.blocks) {
        const BasicBlock &bb = fn.blocks[b];
        for (const auto &op : bb.ops) {
            // Hardware-loop and call ops cannot be replicated safely.
            if (op.op == Opcode::CALL || op.op == Opcode::RET ||
                isBufferOp(op.op) || op.op == Opcode::BR_CLOOP ||
                op.op == Opcode::BR_WLOOP) {
                return reject(obs::LoopReason::HasCall, bb.name);
            }
        }
    }
    if (trip * body_ops >= opts.maxExpansionOps) {
        return reject(obs::LoopReason::TooLarge,
                      std::to_string(trip * body_ops) + " >= " +
                          std::to_string(opts.maxExpansionOps) +
                          " expanded ops");
    }

    const BlockId latch = loop.latches[0];
    const BasicBlock &latchBlk = fn.blocks[latch];
    const Operation *term = latchBlk.terminator();
    // Canonical bottom-test: conditional backedge, fallthrough exits.
    if (!term || term->op != Opcode::BR || term->target != loop.header ||
        term->hasGuard()) {
        return reject(obs::LoopReason::BadShape, "latch terminator");
    }
    const BlockId exitBlk = latchBlk.fallthrough;
    if (exitBlk == kNoBlock || loop.contains(exitBlk))
        return reject(obs::LoopReason::BadShape, "no exit fallthrough");

    // Make `trip` copies of the body. Registers are NOT renamed: the
    // copies execute sequentially exactly like the iterations did.
    std::vector<std::map<BlockId, BlockId>> maps(trip);
    for (std::int64_t it = 0; it < trip; ++it) {
        for (BlockId b : loop.blocks) {
            maps[it][b] = fn.newBlock(
                fn.blocks[b].name + ".peel" + std::to_string(it));
        }
    }

    for (std::int64_t it = 0; it < trip; ++it) {
        for (BlockId b : loop.blocks) {
            const BasicBlock &src = fn.blocks[b];
            BasicBlock &dst = fn.blocks[maps[it].at(b)];
            dst.weight = src.weight / static_cast<double>(trip);
            const bool isLatchBlk = (b == latch);
            for (const auto &op : src.ops) {
                // Drop the backedge: iteration boundaries become
                // straight-line control.
                if (isLatchBlk && &op == &src.ops.back()) {
                    break;
                }
                Operation copy = op;
                copy.id = fn.newOpId();
                if (copy.target != kNoBlock) {
                    auto mapped = maps[it].find(copy.target);
                    if (mapped != maps[it].end())
                        copy.target = mapped->second;
                    // else: side exit out of the loop, keep as is.
                }
                if (it > 0 && copy.op != Opcode::NOP)
                    ++st.opsAdded;
                dst.ops.push_back(std::move(copy));
            }
            if (isLatchBlk) {
                dst.fallthrough = it + 1 < trip
                                      ? maps[it + 1].at(loop.header)
                                      : exitBlk;
            } else if (src.fallthrough != kNoBlock) {
                auto mapped = maps[it].find(src.fallthrough);
                dst.fallthrough = mapped != maps[it].end()
                                      ? mapped->second
                                      : src.fallthrough;
            }
        }
    }

    // Redirect all external edges into the header to the first copy.
    const BlockId newHead = maps[0].at(loop.header);
    for (auto &bb : fn.blocks) {
        if (bb.dead || loop.contains(bb.id))
            continue;
        if (bb.fallthrough == loop.header)
            bb.fallthrough = newHead;
        for (auto &op : bb.ops) {
            if (op.target == loop.header)
                op.target = newHead;
        }
    }
    if (fn.entry == loop.header)
        fn.entry = newHead;

    // Kill the original body.
    for (BlockId b : loop.blocks) {
        fn.blocks[b].kill();
    }
    ++st.loopsPeeled;
    if (log) {
        const std::string name =
            fn.name + "/" + fn.blocks[loop.header].name;
        obs::LoopAttempt a;
        a.transform = "peel";
        a.applied = true;
        a.opsBefore = body_ops;
        a.opsAfter = static_cast<int>(trip) * body_ops;
        a.note = "trip " + std::to_string(trip);
        log->addAttempt(name, std::move(a));
        // The loop no longer exists: its straightened copies belong
        // to the enclosing loop.
        log->decision(name).fate = obs::LoopFate::Eliminated;
    }
    return true;
}

} // namespace

PeelStats
peelLoops(Function &fn, const PeelOptions &opts,
          obs::LoopDecisionLog *log)
{
    PeelStats st;
    bool changed = true;
    int guard = 0;
    while (changed && guard++ < 100) {
        changed = false;
        LoopInfo li(fn);
        for (const auto &loop : li.loops()) {
            if (!loop.children.empty())
                continue; // innermost only
            if (opts.requireParentLoop && loop.parent < 0)
                continue;
            if (peelOne(fn, loop, opts, st, log)) {
                changed = true;
                break; // loop forest stale
            }
        }
    }
    return st;
}

PeelStats
peelLoops(Program &prog, const PeelOptions &opts,
          obs::LoopDecisionLog *log)
{
    PeelStats st;
    for (auto &fn : prog.functions) {
        auto s = peelLoops(fn, opts, log);
        st.loopsPeeled += s.loopsPeeled;
        st.opsAdded += s.opsAdded;
    }
    return st;
}

} // namespace lbp
