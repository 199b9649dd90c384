/**
 * @file
 * Pins of the compile layer's intermediate results: the IR after each
 * classic-optimization stage, liveness at those same points, and
 * every dependence graph the scheduler can build. The corpus is the
 * workload registry and ProgramGen seeds 0-199, each compiled at both
 * levels. The constants were recorded before the analyses were
 * rewritten for speed; a rewrite must leave them unchanged, so never
 * edit them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "analysis/dependence.hh"
#include "analysis/liveness.hh"
#include "core/compiler.hh"
#include "ir/interpreter.hh"
#include "ir/serialize.hh"
#include "program_gen.hh"
#include "workloads/registry.hh"

namespace lbp
{
namespace
{

/** Values the current stage hook appends to. */
std::vector<std::uint64_t> *gVals = nullptr;

/** Which stages the current hook digests. */
bool
isClassicStage(const char *stage)
{
    return std::strcmp(stage, "03_classic_opts") == 0 ||
           std::strcmp(stage, "10_classic_opts2") == 0;
}

/**
 * Compile every corpus program at both levels with @p hook installed
 * and return the FNV-1a digest of what the hook appended.
 */
std::uint64_t
digestCorpus(StageHook hook)
{
    std::vector<std::uint64_t> vals;
    gVals = &vals;
    setStageHookForTest(hook);
    auto compileBoth = [&](const Program &input) {
        for (OptLevel lvl : {OptLevel::Traditional, OptLevel::Aggressive}) {
            CompileOptions opts;
            opts.level = lvl;
            CompileResult cr;
            compileProgram(input, opts, cr);
        }
    };
    for (const auto &w : workloads::allWorkloads())
        compileBoth(workloads::buildWorkload(w.name));
    for (int seed = 0; seed < 200; ++seed)
        compileBoth(testgen::ProgramGen(0xfeed0000ull + seed).generate());
    setStageHookForTest(nullptr);
    gVals = nullptr;
    EXPECT_FALSE(vals.empty());
    return fnv1a(reinterpret_cast<const std::uint8_t *>(vals.data()),
                 vals.size() * sizeof(std::uint64_t));
}

TEST(ClassicOpts, RegistryIrPinned)
{
    // The canonical text of the whole program after 03_classic_opts
    // and after 10_classic_opts2.
    const std::uint64_t digest =
        digestCorpus([](const char *stage, Program &prog) {
            if (!isClassicStage(stage))
                return;
            const std::string text = writeText(prog);
            gVals->push_back(fnv1a(
                reinterpret_cast<const std::uint8_t *>(text.data()),
                text.size()));
        });
    EXPECT_EQ(digest, 0x8c12e9a58a61c3b0ull) << std::hex << digest;
}

TEST(Liveness, RegistryPinned)
{
    // Live-in/out and predicate live-in/out of every block at the same
    // two points. Only ids some op reads can be live, so the members
    // are listed over those ids, and each set's count proves it holds
    // no other.
    const std::uint64_t digest =
        digestCorpus([](const char *stage, Program &prog) {
            if (!isClassicStage(stage))
                return;
            for (const auto &fn : prog.functions) {
                std::vector<RegId> regs;
                std::vector<PredId> preds;
                for (const auto &bb : fn.blocks) {
                    for (const auto &op : bb.ops) {
                        if (op.hasGuard())
                            preds.push_back(op.guard);
                        for (const auto &s : op.srcs) {
                            if (s.isReg())
                                regs.push_back(s.asReg());
                            else if (s.isPred())
                                preds.push_back(s.asPred());
                        }
                    }
                }
                for (auto *ids : {&regs, &preds}) {
                    std::sort(ids->begin(), ids->end());
                    ids->erase(std::unique(ids->begin(), ids->end()),
                               ids->end());
                }
                auto add = [&](const auto &s,
                               const std::vector<std::uint32_t> &ids) {
                    gVals->push_back(static_cast<std::uint64_t>(s.count()));
                    for (std::uint32_t id : ids)
                        if (s.test(id))
                            gVals->push_back(id);
                };
                const Liveness live(fn);
                for (const auto &bb : fn.blocks) {
                    gVals->push_back(bb.id);
                    add(live.liveIn(bb.id), regs);
                    add(live.liveOut(bb.id), regs);
                    add(live.predLiveIn(bb.id), preds);
                    add(live.predLiveOut(bb.id), preds);
                }
            }
        });
    EXPECT_EQ(digest, 0xe253be6bc25874baull) << std::hex << digest;
}

TEST(DepGraph, RegistryGraphsPinned)
{
    // Every live block of the IR 13_schedule sees (the output of
    // 11_counted_loop; 12_reprofile changes only block weights), in
    // both modes: the edges in order, each op's successor and
    // predecessor edge lists, heights and recMII.
    const std::uint64_t digest =
        digestCorpus([](const char *stage, Program &prog) {
            if (std::strcmp(stage, "11_counted_loop") != 0)
                return;
            auto &v = *gVals;
            for (const auto &fn : prog.functions) {
                for (const auto &bb : fn.blocks) {
                    if (bb.dead)
                        continue;
                    for (bool loopCarried : {false, true}) {
                        const DepGraph dg(bb, loopCarried);
                        v.insert(v.end(),
                                 {fn.id, bb.id, std::uint64_t(loopCarried),
                                  std::uint64_t(dg.numOps()),
                                  dg.edges().size()});
                        for (const DepEdge &e : dg.edges()) {
                            v.insert(v.end(),
                                     {std::uint64_t(e.from),
                                      std::uint64_t(e.to),
                                      std::uint64_t(e.kind),
                                      std::uint64_t(e.latency),
                                      std::uint64_t(e.distance)});
                        }
                        for (int i = 0; i < dg.numOps(); ++i) {
                            v.push_back(dg.succs(i).size());
                            v.insert(v.end(), dg.succs(i).begin(),
                                     dg.succs(i).end());
                            v.push_back(dg.preds(i).size());
                            v.insert(v.end(), dg.preds(i).begin(),
                                     dg.preds(i).end());
                        }
                        for (int h : dg.heights())
                            v.push_back(std::uint64_t(h));
                        v.push_back(std::uint64_t(dg.recMII()));
                    }
                }
            }
        });
    EXPECT_EQ(digest, 0x9b66b1fc048d6af7ull) << std::hex << digest;
}

} // namespace
} // namespace lbp
