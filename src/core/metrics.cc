#include "core/metrics.hh"

#include <map>

#include "analysis/liveness.hh"

namespace lbp
{

PredicationMetrics
collectPredicationMetrics(const CompileResult &cr)
{
    PredicationMetrics m;
    const Program &prog = cr.ir;

    for (const auto &fn : prog.functions) {
        for (const auto &bb : fn.blocks) {
            if (bb.dead)
                continue;
            const SchedBlock &sb =
                cr.code.functions[fn.id].blocks[bb.id];
            if (!sb.valid || !sb.isLoopBody)
                continue;
            ++m.candidateLoops;

            const double iters = bb.weight;
            const double dynOps = iters * sb.sizeOps();

            // Per-pred define/consume positions in scheduled cycles.
            struct P
            {
                int firstDef = INT32_MAX;
                int lastUse = INT32_MIN;
                int defines = 0;
                int consumers = 0;
            };
            std::map<PredId, P> preds;
            // Per-define consumer counts need the define's dest set.
            struct DefineRec
            {
                int cycle;
                std::vector<PredId> dsts;
            };
            std::vector<DefineRec> defines;

            double sensDyn = 0;
            for (size_t cy = 0; cy < sb.bundles.size(); ++cy) {
                for (const auto &so : sb.opsOf(sb.bundles[cy])) {
                    const Operation &op = so.op;
                    const bool guarded =
                        op.guard != kNoPred || op.sensitive;
                    if (guarded && op.op != Opcode::PRED_DEF)
                        sensDyn += iters;
                    if (op.guard != kNoPred) {
                        P &p = preds[op.guard];
                        ++p.consumers;
                        p.lastUse = std::max(p.lastUse,
                                             static_cast<int>(cy));
                    }
                    if (op.op == Opcode::PRED_DEF) {
                        DefineRec dr;
                        dr.cycle = static_cast<int>(cy);
                        for (const auto &d : op.dsts) {
                            if (d.isPred()) {
                                dr.dsts.push_back(d.asPred());
                                P &p = preds[d.asPred()];
                                ++p.defines;
                                p.firstDef =
                                    std::min(p.firstDef,
                                             static_cast<int>(cy));
                            }
                        }
                        if (!dr.dsts.empty())
                            defines.push_back(std::move(dr));
                    }
                }
            }

            const bool predicated = !preds.empty();
            if (predicated)
                ++m.predicatedLoops;

            // Sensitivity fractions (§4.3).
            m.dynOpsInBufferableLoops += dynOps;
            m.dynSensitiveInBufferableLoops += sensDyn;
            if (predicated) {
                m.dynOpsInPredicatedLoops += dynOps;
                m.dynSensitiveInPredicatedLoops += sensDyn;
            }

            // Figure 3a/3b: per define.
            for (const auto &dr : defines) {
                int consumers = 0;
                int lastUse = dr.cycle;
                for (PredId p : dr.dsts) {
                    const P &pi = preds[p];
                    // Consumers are attributed per define evenly when
                    // a predicate has several or-type defines.
                    consumers += pi.defines > 0
                                     ? (pi.consumers + pi.defines - 1) /
                                           pi.defines
                                     : pi.consumers;
                    lastUse = std::max(lastUse, pi.lastUse);
                }
                m.consumersPerDefineStatic.add(consumers);
                m.consumersPerDefineDynamic.add(consumers, iters);
                const int range = std::max(0, lastUse - dr.cycle);
                m.liveRangeStatic.add(range);
                m.liveRangeDynamic.add(range, iters);
            }

            // Figure 3c: max simultaneously-live predicates. A
            // defined predicate is live at least over its define
            // cycle even if its consumers were promoted away.
            if (predicated) {
                int maxLive = 0;
                for (size_t cy = 0; cy < sb.bundles.size(); ++cy) {
                    int live = 0;
                    for (const auto &[p, pi] : preds) {
                        if (pi.firstDef == INT32_MAX)
                            continue;
                        const int hi =
                            std::max(pi.lastUse, pi.firstDef);
                        if (pi.firstDef <= static_cast<int>(cy) &&
                            static_cast<int>(cy) <= hi) {
                            ++live;
                        }
                    }
                    maxLive = std::max(maxLive, live);
                }
                m.overlapPerLoop.add(maxLive, std::max(iters, 1.0));
            }
        }
    }
    return m;
}

RegisterPressure
collectRegisterPressure(const CompileResult &cr)
{
    RegisterPressure rp;
    for (const auto &fn : cr.ir.functions) {
        Liveness live(fn);
        for (const auto &bb : fn.blocks) {
            if (bb.dead)
                continue;
            const SchedBlock &sb =
                cr.code.functions[fn.id].blocks[bb.id];
            if (!sb.valid || !sb.isLoopBody)
                continue;
            // Sweep the block backwards maintaining the live set,
            // seeded with live-out (which, for a loop body, includes
            // the next iteration's needs via the backedge).
            RegSet liveNow = live.liveOut(bb.id);
            int maxLive = liveNow.count();
            for (auto it = bb.ops.rbegin(); it != bb.ops.rend();
                 ++it) {
                if (!it->hasGuard()) {
                    for (RegId d : Liveness::defs(*it))
                        liveNow.reset(d);
                }
                for (RegId u : Liveness::uses(*it))
                    liveNow.set(u);
                maxLive = std::max(maxLive, liveNow.count());
            }
            // Pipelined loops replicate loop-carried values across
            // mveFactor overlapped iterations; values private to one
            // iteration are not expanded.
            int carried = 0;
            if (sb.pipelined && sb.mveFactor > 1) {
                RegSet defined(fn.nextReg);
                for (const auto &op : bb.ops)
                    for (RegId d : Liveness::defs(op))
                        defined.set(d);
                defined &= live.liveIn(bb.id);
                carried = defined.count();
            }
            const int effective =
                maxLive + (sb.mveFactor - 1) * carried;
            rp.maxLoopPressure =
                std::max(rp.maxLoopPressure, effective);
        }
    }
    return rp;
}

void
mergeMetrics(PredicationMetrics &acc, const PredicationMetrics &in)
{
    for (const auto &[v, w] : in.consumersPerDefineStatic.bins())
        acc.consumersPerDefineStatic.add(v, w);
    for (const auto &[v, w] : in.consumersPerDefineDynamic.bins())
        acc.consumersPerDefineDynamic.add(v, w);
    for (const auto &[v, w] : in.liveRangeStatic.bins())
        acc.liveRangeStatic.add(v, w);
    for (const auto &[v, w] : in.liveRangeDynamic.bins())
        acc.liveRangeDynamic.add(v, w);
    for (const auto &[v, w] : in.overlapPerLoop.bins())
        acc.overlapPerLoop.add(v, w);
    acc.predicatedLoops += in.predicatedLoops;
    acc.candidateLoops += in.candidateLoops;
    acc.dynOpsInPredicatedLoops += in.dynOpsInPredicatedLoops;
    acc.dynSensitiveInPredicatedLoops +=
        in.dynSensitiveInPredicatedLoops;
    acc.dynOpsInBufferableLoops += in.dynOpsInBufferableLoops;
    acc.dynSensitiveInBufferableLoops +=
        in.dynSensitiveInBufferableLoops;
}

} // namespace lbp
