#include "bench_common.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>

#include "obs/loop_report.hh"
#include "obs/prof.hh"
#include "obs/trace.hh"
#include "obs/version.hh"
#include "sim/dispatch.hh"
#include "support/logging.hh"

namespace lbp
{
namespace bench
{

bool
parseBenchOptions(int argc, char **argv,
                  const std::string &defaultJsonPath,
                  BenchOptions &o)
{
    o.jsonPath = defaultJsonPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            o.json = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            o.json = true;
            o.jsonPath = arg.substr(7);
        } else if (arg == "--loops") {
            o.loops = true;
        } else if (arg == "--pmu") {
            o.pmu = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--json[=PATH]] [--loops] "
                         "[--pmu]\n",
                         argv[0]);
            return false;
        }
    }
    return true;
}

void
startBenchPmu(const BenchOptions &o)
{
    if (!o.pmu)
        return;
    if (!obs::pmu::compiledIn()) {
        std::fprintf(stderr, "--pmu: host counters compiled out "
                             "(built with -DLBP_PMU=OFF)\n");
        std::exit(1);
    }
    std::string why;
    if (!obs::pmu::PmuSession::instance().start(&why))
        std::printf("host pmu unavailable: %s (continuing without "
                    "counters)\n",
                    why.c_str());
}

obs::Json
finishBenchPmu(const BenchOptions &o)
{
    using obs::Json;
    if (!o.pmu) {
        Json j = Json::object();
        j.set("requested", Json::boolean(false));
        j.set("available", Json::boolean(false));
        j.set("reason", Json::str("not requested"));
        return j;
    }
    obs::pmu::PmuSession &session =
        obs::pmu::PmuSession::instance();
    session.stop();
    const obs::pmu::Snapshot snap = session.snapshot();
    std::printf("\nhost pmu (per-region hardware counters)\n");
    rule();
    {
        std::ostringstream os;
        obs::pmu::printSnapshotTable(os, snap);
        std::fputs(os.str().c_str(), stdout);
    }
    Json j = obs::pmu::snapshotJson(snap);
    j.set("requested", Json::boolean(true));
    return j;
}

const std::vector<int> &
figureBufferSizes()
{
    static const std::vector<int> sizes{16, 32, 64, 128, 256, 512,
                                        1024, 2048};
    return sizes;
}

CompileResult &
compileBench(const std::string &name, OptLevel level, PredMode mode)
{
    // Slot lowering only runs at the aggressive level; elsewhere both
    // PredModes map to the same compilation, so normalize the key to
    // avoid duplicate compiles.
    const bool slot =
        level != OptLevel::Aggressive || mode == PredMode::SLOT;

    static std::map<std::tuple<std::string, int, bool>,
                    std::unique_ptr<CompileResult>> cache;
    auto &entry = cache[{name, static_cast<int>(level), slot}];
    if (!entry) {
        Program prog = workloads::buildWorkload(name);
        CompileOptions opts;
        opts.level = level;
        opts.slotLowering = slot;
        entry = std::make_unique<CompileResult>();
        compileProgram(prog, opts, *entry);
    }
    return *entry;
}

SimStats
simulate(CompileResult &cr, int bufferOps, PredMode mode,
         SimEngine engine, TraceCacheStats *tcOut,
         obs::CycleStack *csOut)
{
    reallocateBuffers(cr, bufferOps);
    SimConfig sc;
    sc.bufferOps = bufferOps;
    sc.predMode = mode;
    sc.engine = engine;
    VliwSim sim(cr.code, sc);
    SimStats st = sim.run();
    LBP_ASSERT(st.checksum == cr.goldenChecksum,
               "simulation checksum mismatch for ", cr.ir.name);
    if (tcOut)
        if (const TraceCacheStats *tc = sim.traceCacheStats())
            accumulateTraceCacheStats(*tcOut, *tc);
    if (csOut)
        *csOut = sim.cycleStack();
    return st;
}

std::vector<std::string>
benchNames()
{
    std::vector<std::string> names;
    for (const auto &w : workloads::allWorkloads())
        names.push_back(w.name);
    return names;
}

obs::Json
cycleStackJson(const obs::CycleRow &row)
{
    using obs::Json;
    Json j = Json::object();
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k) {
        j.set(obs::cycleClassName(static_cast<obs::CycleClass>(k)),
              Json::uinteger(row[k]));
        total += row[k];
    }
    j.set("total", Json::uinteger(total));
    return j;
}

void
rule(char c, int n)
{
    for (int i = 0; i < n; ++i)
        std::putchar(c);
    std::putchar('\n');
}

obs::Json
benchJsonDoc(const std::string &benchName)
{
    using obs::Json;
    Json doc = Json::object();
    // Layout versions are listed at obs::kBenchSchemaVersion
    // (version.hh).
    doc.set("schema_version",
            Json::integer(obs::kBenchSchemaVersion));
    doc.set("bench", Json::str(benchName));
    obs::stampVersion(doc);

    Json machine = Json::object();
    machine.set("hardware_concurrency",
                Json::integer(std::thread::hardware_concurrency()));
    machine.set("compiler", Json::str(__VERSION__));
    machine.set("pointer_bits", Json::integer(8 * sizeof(void *)));
    doc.set("machine", std::move(machine));

    // Compiled-in code-path toggles. Unlike "machine" (identity,
    // ignored by `lbp_stats diff`) these are config-class leaves,
    // compared exactly: numbers from differently-configured builds
    // must fail the diff loudly.
    Json build = Json::object();
    build.set("threaded_dispatch",
              Json::boolean(LBP_THREADED_DISPATCH != 0));
    build.set("trace_hooks", Json::boolean(LBP_TRACE != 0));
    build.set("prof", Json::boolean(LBP_PROF != 0));
    build.set("pmu", Json::boolean(LBP_PMU != 0));
    doc.set("build", std::move(build));
    return doc;
}

void
writeBenchJson(const std::string &path, const obs::Json &doc)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        std::exit(1);
    }
    doc.write(os);
    os << "\n";
    if (!os.good()) {
        std::fprintf(stderr, "write to %s failed\n", path.c_str());
        std::exit(1);
    }
    std::printf("wrote %s\n", path.c_str());
}

void
dumpLoopScorecard(const std::string &workload, OptLevel level,
                  int bufferOps)
{
    CompileResult &cr = compileBench(workload, level);
    TraceCacheStats tc;
    obs::CycleStack cs;
    const SimStats st =
        simulate(cr, bufferOps, PredMode::SLOT, SimEngine::DECODED,
                 &tc, &cs);
    const FetchEnergy fe = computeFetchEnergy(st, bufferOps);
    const obs::LoopScorecard sc = obs::buildLoopScorecard(
        workload, cr.loopLog, st, bufferOps, &fe, &tc, &cs);
    obs::printScorecard(std::cout, sc);
}

void
dumpLoopScorecards(OptLevel level, int bufferOps)
{
    for (const auto &name : benchNames()) {
        dumpLoopScorecard(name, level, bufferOps);
        std::putchar('\n');
    }
}

} // namespace bench
} // namespace lbp
