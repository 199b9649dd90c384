#include "sched/schedule.hh"

#include <map>
#include <sstream>

#include "analysis/dependence.hh"
#include "ir/printer.hh"
#include "support/logging.hh"

namespace lbp
{

void
SchedBlock::addOp(std::size_t cycle, const SchedOp &so)
{
    Bundle &b = bundles[cycle];
    ops.insert(ops.begin() + b.first + b.count, so);
    ++b.count;
    for (std::size_t c = cycle + 1; c < bundles.size(); ++c)
        ++bundles[c].first;
}

int
SchedBlock::sizeOps() const
{
    int n = 0;
    for (const auto &b : bundles) {
        bool any = false;
        for (const auto &so : opsOf(b)) {
            if (so.op.op != Opcode::NOP) {
                ++n;
                any = true;
            }
        }
        if (!any)
            ++n; // an empty cycle costs one (multi-cycle NOP) op
    }
    return n;
}

int
SchedFunction::sizeOps() const
{
    int n = 0;
    for (const auto &b : blocks)
        if (b.valid)
            n += b.sizeOps();
    return n;
}

int
SchedProgram::sizeOps() const
{
    int n = 0;
    for (const auto &f : functions)
        n += f.sizeOps();
    return n;
}

void
SchedProgram::link()
{
    std::int64_t addr = 0;
    for (auto &f : functions) {
        for (auto &b : f.blocks) {
            if (!b.valid)
                continue;
            for (auto &bu : b.bundles) {
                bu.addr = addr;
                addr += bu.sizeOps();
            }
        }
    }
}

std::vector<std::string>
validateSchedule(const BasicBlock &bb, const SchedBlock &sb,
                 const Machine &machine)
{
    std::vector<std::string> errs;
    auto err = [&](const std::string &m) { errs.push_back(m); };

    // Map op index (program order) -> (cycle, slot).
    // Bundles list ops in program order within a cycle.
    std::vector<int> cycleOf(bb.ops.size(), -1);
    size_t seen = 0;
    for (size_t cy = 0; cy < sb.bundles.size(); ++cy) {
        std::vector<char> slotUsed(Machine::width, 0);
        for (const auto &so : sb.opsOf(sb.bundles[cy])) {
            if (so.op.op == Opcode::NOP)
                continue;
            if (so.slot < 0 || so.slot >= Machine::width) {
                err("op without a slot: " + toString(so.op));
                continue;
            }
            if (slotUsed[so.slot])
                err("slot collision at cycle " + std::to_string(cy));
            slotUsed[so.slot] = 1;
            if (!machine.slotSupports(so.slot, so.op.op)) {
                err("slot " + std::to_string(so.slot) +
                    " cannot issue " + toString(so.op));
            }
            ++seen;
        }
    }
    // Each IR op scheduled exactly once (matched by op id).
    std::map<OpId, int> sched_cycle;
    for (size_t cy = 0; cy < sb.bundles.size(); ++cy) {
        for (const auto &so : sb.opsOf(sb.bundles[cy])) {
            if (so.op.op == Opcode::NOP)
                continue;
            if (sched_cycle.count(so.op.id))
                err("op scheduled twice: " + toString(so.op));
            sched_cycle[so.op.id] = static_cast<int>(cy);
        }
    }
    size_t realOps = 0;
    for (size_t i = 0; i < bb.ops.size(); ++i) {
        if (bb.ops[i].op == Opcode::NOP)
            continue;
        ++realOps;
        auto it = sched_cycle.find(bb.ops[i].id);
        if (it == sched_cycle.end()) {
            err("op not scheduled: " + toString(bb.ops[i]));
            continue;
        }
        cycleOf[i] = it->second;
    }
    if (seen != realOps)
        err("scheduled op count mismatch");
    if (!errs.empty())
        return errs;

    // Dependence latencies.
    DepGraph dg(bb, sb.pipelined);
    const int ii = sb.pipelined ? sb.ii : 0;
    for (const auto &e : dg.edges()) {
        if (cycleOf[e.from] < 0 || cycleOf[e.to] < 0)
            continue;
        const int gap = cycleOf[e.to] + ii * e.distance - cycleOf[e.from];
        if (gap < e.latency) {
            std::ostringstream os;
            os << "latency violation (" << e.latency << " needed, "
               << gap << " given, dist " << e.distance << "): '"
               << toString(bb.ops[e.from]) << "' -> '"
               << toString(bb.ops[e.to]) << "'";
            err(os.str());
        }
    }
    return errs;
}

} // namespace lbp
