/**
 * @file
 * Observability front door: run a workload and pretty-print / dump the
 * metrics registry, diff two registry dumps, export a cycle-level
 * Chrome trace (Perfetto-loadable), and render the self-contained
 * HTML flight recorder.
 *
 *   lbp_stats run <workload> [options]     registry table + dumps
 *   lbp_stats diff <a.json> <b.json>       field-by-field dump diff
 *   lbp_stats trace <workload> [options]   Chrome trace-event JSON
 *   lbp_stats loops <workload> [options]   per-loop scorecard
 *   lbp_stats explain <a.json> <b.json>    cycle delta by class x loop
 *   lbp_stats report <workload> [options]  single-file HTML report
 *   lbp_stats prof <workload> [options]    sampling self-profile
 *   lbp_stats pmu <workload> [options]     host hardware counters by
 *                                          region (perf_event_open)
 *   lbp_stats --trace <workload>           alias for `trace`
 *   lbp_stats --version                    git SHA + schema versions
 *
 * Options:
 *   --level=aggressive|traditional   compile configuration
 *   --buffer=N                       loop buffer size in ops (256)
 *   --engine=decoded|reference       simulator engine (decoded)
 *   --json=FILE                      write the registry dump as JSON
 *   --csv=FILE                       write the registry dump as CSV
 *   --out=FILE                       trace / report output path
 *   --sample=N                       keep 1/N of Fetch/Branch/Nullify
 *   --capacity=N                     trace ring capacity in events
 *   --sort=ops|gain|evictions|bailouts|replay
 *                                    `loops` ranking key: total
 *                                    dynamic ops (default), realized
 *                                    buffer gain (ops issued from the
 *                                    buffer), eviction count,
 *                                    trace-cache bailout count, or
 *                                    trace-replayed op count
 *   --cycles                         `loops` also prints the per-loop
 *                                    cycle stack table
 *   --hz=N --reps=N                  `prof` sampling rate / workload
 *                                    repetitions (reps=0 sizes the
 *                                    run for a stable sample count;
 *                                    `pmu` defaults to 3 reps)
 *   --cpi                            `explain` also joins the two
 *                                    documents' host "pmu" blocks:
 *                                    host per-region IPC and branch
 *                                    miss movement next to the
 *                                    simulated cycle delta
 *
 * `trace` cross-checks the trace against the registry before writing:
 * the sum of ops carried by buffer-hit events must equal the run's
 * sim.opsFromBuffer counter exactly (structural kinds are exempt from
 * sampling and aggregates are immune to ring overflow, so this holds
 * at any capacity). A mismatch is a simulator/tracing bug and exits
 * nonzero.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler.hh"
#include "obs/json.hh"
#include "obs/loop_report.hh"
#include "obs/pmu.hh"
#include "obs/prof.hh"
#include "obs/publish.hh"
#include "obs/registry.hh"
#include "obs/report.hh"
#include "obs/trace.hh"
#include "obs/version.hh"
#include "power/fetch_energy.hh"
#include "sim/trace_cache.hh"
#include "sim/vliw_sim.hh"
#include "workloads/registry.hh"

namespace
{

using namespace lbp;

struct Options
{
    std::string command;
    std::vector<std::string> positional;
    OptLevel level = OptLevel::Aggressive;
    int bufferOps = 256;
    SimEngine engine = SimEngine::DECODED;
    std::string jsonPath;
    std::string csvPath;
    std::string outPath;
    std::uint64_t sample = 1;
    std::size_t capacity = 1u << 20;
    std::string sort = "ops";
    unsigned hz = obs::prof::kDefaultHz;
    int reps = 0;  ///< prof repetitions; 0 = auto (sample target)
    bool cycles = false;  ///< loops: print the per-loop cycle stack
    bool cpi = false;     ///< explain: host-vs-simulated CPI join
};

int
usage()
{
    std::cerr
        << "usage: lbp_stats run <workload> [--level=L] [--buffer=N]\n"
        << "                 [--engine=E] [--json=F] [--csv=F]\n"
        << "       lbp_stats diff <a.json> <b.json>\n"
        << "       lbp_stats trace <workload> [--out=F] [--sample=N]\n"
        << "                 [--capacity=N] [--buffer=N] [--level=L]\n"
        << "       lbp_stats loops <workload> [--level=L] [--buffer=N]\n"
        << "                 [--engine=E] [--json=F] [--sort=S]\n"
        << "                 [--cycles]\n"
        << "       lbp_stats explain <a.json> <b.json> [--cpi]\n"
        << "       lbp_stats report <workload> [--out=F]\n"
        << "                 [--level=L] [--buffer=N] [--engine=E]\n"
        << "       lbp_stats prof <workload> [--hz=N] [--reps=N]\n"
        << "                 [--out=F] [--level=L] [--buffer=N]\n"
        << "                 [--engine=E] [--json=F]\n"
        << "       lbp_stats pmu <workload> [--reps=N] [--level=L]\n"
        << "                 [--buffer=N] [--engine=E] [--json=F]\n"
        << "       lbp_stats list\n"
        << "       lbp_stats --version\n"
        << "\nworkloads:\n";
    for (const auto &w : workloads::allWorkloads())
        std::cerr << "  " << w.name << "  (" << w.description << ")\n";
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    if (argc < 2)
        return false;
    o.command = argv[1];
    if (o.command == "--trace")
        o.command = "trace";
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto val = [&](const char *key) -> const char * {
            const size_t n = std::strlen(key);
            if (arg.compare(0, n, key) == 0 && arg[n] == '=')
                return arg.c_str() + n + 1;
            return nullptr;
        };
        if (const char *v = val("--level")) {
            const std::string s = v;
            if (s == "aggressive") {
                o.level = OptLevel::Aggressive;
            } else if (s == "traditional") {
                o.level = OptLevel::Traditional;
            } else {
                std::cerr << "unknown level '" << s << "'\n";
                return false;
            }
        } else if (const char *v2 = val("--buffer")) {
            o.bufferOps = std::atoi(v2);
        } else if (const char *v3 = val("--engine")) {
            const std::string s = v3;
            if (s == "decoded") {
                o.engine = SimEngine::DECODED;
            } else if (s == "reference") {
                o.engine = SimEngine::REFERENCE;
            } else {
                std::cerr << "unknown engine '" << s << "'\n";
                return false;
            }
        } else if (const char *v4 = val("--json")) {
            o.jsonPath = v4;
        } else if (const char *v5 = val("--csv")) {
            o.csvPath = v5;
        } else if (const char *v6 = val("--out")) {
            o.outPath = v6;
        } else if (const char *v7 = val("--sample")) {
            o.sample = std::strtoull(v7, nullptr, 10);
            if (o.sample == 0)
                o.sample = 1;
        } else if (const char *v8 = val("--capacity")) {
            o.capacity = std::strtoull(v8, nullptr, 10);
            if (o.capacity == 0)
                o.capacity = 1;
        } else if (const char *v9 = val("--sort")) {
            o.sort = v9;
            if (o.sort != "ops" && o.sort != "gain" &&
                o.sort != "evictions" && o.sort != "bailouts" &&
                o.sort != "replay") {
                std::cerr << "unknown sort key '" << o.sort
                          << "' (ops|gain|evictions|bailouts|"
                             "replay)\n";
                return false;
            }
        } else if (const char *v10 = val("--hz")) {
            o.hz = static_cast<unsigned>(std::atoi(v10));
            if (o.hz == 0)
                o.hz = 1;
        } else if (const char *v11 = val("--reps")) {
            o.reps = std::atoi(v11);
            if (o.reps < 1)
                o.reps = 1;
        } else if (arg == "--cycles") {
            o.cycles = true;
        } else if (arg == "--cpi") {
            o.cpi = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown option '" << arg << "'\n";
            return false;
        } else {
            o.positional.push_back(arg);
        }
    }
    return true;
}

/**
 * Compile + simulate one workload, publishing everything into @p r.
 * When the decoded engine ran with its trace cache, the side counters
 * are published too and copied to @p tcOut (if given); @p tcOut is
 * left untouched otherwise.
 */
SimStats
runWorkload(const Options &o, const std::string &name,
            obs::Registry &r, obs::TraceSink *trace,
            CompileResult &cr, TraceCacheStats *tcOut = nullptr,
            obs::CycleStack *csOut = nullptr)
{
    Program prog = workloads::buildWorkload(name);
    CompileOptions copts;
    copts.level = o.level;
    copts.bufferOps = o.bufferOps;
    copts.obsRegistry = &r;
    compileProgram(prog, copts, cr);

    SimConfig sc;
    sc.bufferOps = o.bufferOps;
    sc.engine = o.engine;
    sc.trace = trace;
    VliwSim sim(cr.code, sc);
    const SimStats stats = sim.run();
    if (stats.checksum != cr.goldenChecksum) {
        std::cerr << "FATAL: simulation checksum "
                  << stats.checksum << " != golden "
                  << cr.goldenChecksum << "\n";
        std::exit(1);
    }

    r.info("workload", name);
    r.info("level", o.level == OptLevel::Aggressive ? "aggressive"
                                                    : "traditional");
    r.info("engine", o.engine == SimEngine::DECODED ? "decoded"
                                                    : "reference");
    r.info("buffer_ops", std::to_string(o.bufferOps));
    publishCompileResult(r, cr);
    publishSimStats(r, stats);
    if (const TraceCacheStats *tc = sim.traceCacheStats()) {
        obs::publishTraceCacheStats(r, *tc);
        if (tcOut)
            *tcOut = *tc;
    }
    obs::publishCycleStack(r, sim.cycleStack());
    if (csOut)
        *csOut = sim.cycleStack();
    publishFetchEnergy(r,
                       computeFetchEnergy(stats, o.bufferOps));
    return stats;
}

bool
writeFile(const std::string &path,
          const std::function<void(std::ostream &)> &emit)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot open '" << path << "' for writing\n";
        return false;
    }
    emit(os);
    return os.good();
}

obs::Json
loadJson(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::cerr << "cannot open '" << path << "'\n";
        std::exit(1);
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string error;
    obs::Json doc = obs::Json::parse(buf.str(), error);
    if (!error.empty()) {
        std::cerr << path << ": parse error: " << error << "\n";
        std::exit(1);
    }
    return doc;
}

int
cmdRun(const Options &o)
{
    if (o.positional.size() != 1)
        return usage();
    obs::Registry reg;
    CompileResult cr;
    runWorkload(o, o.positional[0], reg, nullptr, cr);
    reg.writeTable(std::cout);
    if (!o.jsonPath.empty()) {
        if (!writeFile(o.jsonPath, [&](std::ostream &os) {
                reg.toJson().write(os);
                os << "\n";
            }))
            return 1;
        std::cout << "registry dump: " << o.jsonPath << "\n";
    }
    if (!o.csvPath.empty()) {
        if (!writeFile(o.csvPath, [&](std::ostream &os) {
                reg.writeCsv(os);
            }))
            return 1;
        std::cout << "registry csv: " << o.csvPath << "\n";
    }
    return 0;
}

/**
 * Recursive diff of two BENCH_*.json documents: the "machine"
 * identity block, the git_sha stamp and the root "pmu" block are
 * skipped; every other leaf (fractions, energies, cycles, counters)
 * must be byte-identical. Bench documents carry no host timings —
 * those are perfbench's, judged by scripts/perf_ab.py.
 */
void
diffBenchJson(const obs::Json &a, const obs::Json &b,
              const std::string &path,
              std::vector<obs::DiffEntry> &out)
{
    using obs::Json;
    auto emit = [&](const Json *va, const Json *vb) {
        obs::DiffEntry d;
        d.key = path.empty() ? "<root>" : path;
        d.a = va ? va->dump() : "<absent>";
        d.b = vb ? vb->dump() : "<absent>";
        out.push_back(std::move(d));
    };
    if (a.kind() != b.kind()) {
        emit(&a, &b);
        return;
    }
    if (a.kind() == Json::Kind::Object) {
        std::vector<std::string> keys;
        for (const auto &kv : a.members())
            keys.push_back(kv.first);
        for (const auto &kv : b.members())
            if (!a.find(kv.first))
                keys.push_back(kv.first);
        for (const auto &k : keys) {
            if (k == "machine" || k == "git_sha")
                continue;
            // The top-level "pmu" block is host hardware counters —
            // per-machine, per-run values, never comparable across
            // dumps.
            if (path.empty() && k == "pmu")
                continue;
            const Json *va = a.find(k);
            const Json *vb = b.find(k);
            const std::string sub =
                path.empty() ? k : path + "." + k;
            if (!va || !vb) {
                obs::DiffEntry d;
                d.key = sub;
                d.a = va ? va->dump() : "<absent>";
                d.b = vb ? vb->dump() : "<absent>";
                out.push_back(std::move(d));
                continue;
            }
            diffBenchJson(*va, *vb, sub, out);
        }
        return;
    }
    if (a.kind() == Json::Kind::Array) {
        const auto &ia = a.items();
        const auto &ib = b.items();
        const size_t n = std::max(ia.size(), ib.size());
        for (size_t i = 0; i < n; ++i) {
            const std::string sub =
                path + "[" + std::to_string(i) + "]";
            if (i >= ia.size() || i >= ib.size()) {
                obs::DiffEntry d;
                d.key = sub;
                d.a = i < ia.size() ? ia[i].dump() : "<absent>";
                d.b = i < ib.size() ? ib[i].dump() : "<absent>";
                out.push_back(std::move(d));
                continue;
            }
            diffBenchJson(ia[i], ib[i], sub, out);
        }
        return;
    }
    // Null leaves are serialized NaN/inf gauges; NaN never equals
    // anything, itself included, so null always diffs (the same
    // poison policy as obs::diffRegistries).
    if (a.kind() == Json::Kind::Null || a != b)
        emit(&a, &b);
}

int
cmdDiff(const Options &o)
{
    if (o.positional.size() != 2)
        return usage();
    const obs::Json a = loadJson(o.positional[0]);
    const obs::Json b = loadJson(o.positional[1]);

    // Registry dumps carry "metrics"/"histograms" sections and diff
    // field-by-field; BENCH_*.json documents (marked by a "bench"
    // key) diff recursively, every counter exact.
    std::vector<obs::DiffEntry> diffs;
    if (!a.find("metrics") && !b.find("metrics") &&
        (a.find("bench") || b.find("bench"))) {
        diffBenchJson(a, b, "", diffs);
    } else {
        diffs = obs::diffRegistries(a, b);
    }
    if (diffs.empty()) {
        std::cout << "identical (" << o.positional[0] << " vs "
                  << o.positional[1] << ")\n";
        return 0;
    }
    std::cout << diffs.size() << " field(s) differ:\n";
    for (const auto &d : diffs) {
        std::cout << "  " << d.key << ": " << d.a << " -> " << d.b
                  << "\n";
    }
    return 1;
}

int
cmdTrace(const Options &o)
{
    if (o.positional.size() != 1)
        return usage();
    const std::string &name = o.positional[0];

    obs::Registry reg;
    obs::TraceSink sink(o.capacity, o.sample);
    CompileResult cr;
    const SimStats stats = runWorkload(o, name, reg, &sink, cr);

    // The headline integrity check: buffer-hit events carry the ops
    // count of each bundle issued from the buffer, so their sum must
    // equal the simulator's own counter exactly.
    const std::int64_t bufOps =
        sink.sumA(obs::TraceKind::BufHit);
    if (bufOps < 0 ||
        static_cast<std::uint64_t>(bufOps) != stats.opsFromBuffer) {
        std::cerr << "FATAL: trace buffer-hit ops " << bufOps
                  << " != sim.opsFromBuffer " << stats.opsFromBuffer
                  << "\n";
        return 1;
    }

    std::vector<std::string> loopNames;
    for (const auto &ls : stats.loops)
        loopNames.push_back(ls.name);

    const std::string out =
        o.outPath.empty() ? name + ".trace.json" : o.outPath;
    if (!writeFile(out, [&](std::ostream &os) {
            obs::writeChromeTrace(os, sink, loopNames);
        }))
        return 1;

    const auto spans = obs::residencyTimeline(sink);
    std::uint64_t bufferedCycles = 0;
    for (const auto &sp : spans)
        if (sp.fromBuffer)
            bufferedCycles += sp.exitCycle - sp.enterCycle;

    std::cout << "workload:         " << name << "\n"
              << "cycles:           " << stats.cycles << "\n"
              << "events recorded:  " << sink.size() << "\n"
              << "events dropped:   " << sink.dropped() << "\n"
              << "events sampled:   " << sink.sampledOut() << "\n"
              << "loop activations: " << spans.size() << "\n"
              << "buffered cycles:  " << bufferedCycles << "\n"
              << "buffer-hit ops:   " << bufOps
              << " (== sim.opsFromBuffer: ok)\n"
              << "trace:            " << out << "\n"
              << "load it at https://ui.perfetto.dev or "
                 "chrome://tracing\n";
    return 0;
}

int
cmdLoops(const Options &o)
{
    if (o.positional.size() != 1)
        return usage();
    const std::string &name = o.positional[0];

    obs::Registry reg;
    CompileResult cr;
    TraceCacheStats tc;
    obs::CycleStack cs;
    const SimStats stats = runWorkload(o, name, reg, nullptr, cr,
                                       &tc, &cs);
    const FetchEnergy fe = computeFetchEnergy(stats, o.bufferOps);

    // The join asserts the headline invariants internally: the sum of
    // per-loop buffer-issued ops equals sim.opsFromBuffer exactly,
    // and the cycle stack is closed over classes and loops.
    obs::LoopScorecard sc = obs::buildLoopScorecard(
        name, cr.loopLog, stats, o.bufferOps, &fe, &tc, &cs);

    // Re-rank on request; the default build order is dynOps.
    if (o.sort != "ops") {
        auto key = [&](const obs::ScorecardRow &r) {
            if (o.sort == "gain")
                return r.opsFromBuffer;
            if (o.sort == "bailouts")
                return r.bailouts;
            if (o.sort == "replay")
                return r.replayedOps;
            return r.evictions;
        };
        std::stable_sort(
            sc.rows.begin(), sc.rows.end(),
            [&key](const obs::ScorecardRow &a,
                   const obs::ScorecardRow &b) {
                return key(a) > key(b);
            });
    }
    obs::publishScorecard(reg, sc);

    obs::printScorecard(std::cout, sc);
    if (o.cycles) {
        std::cout << "\n";
        obs::printScorecardCycles(std::cout, sc);
    }
    if (!o.jsonPath.empty()) {
        if (!writeFile(o.jsonPath, [&](std::ostream &os) {
                obs::scorecardToJson(sc).write(os);
                os << "\n";
            }))
            return 1;
        std::cout << "scorecard dump: " << o.jsonPath << "\n";
    }
    return 0;
}

int
cmdList()
{
    for (const auto &w : workloads::allWorkloads())
        std::cout << w.name << "\n";
    return 0;
}

/**
 * If @p key's last dotted segment names a CycleClass, return its
 * index and leave the preceding segments in @p ctxTail; -1 otherwise.
 * Registry dumps flatten "sim.cycles.issueFromBuffer" into one member
 * name, while bench/scorecard documents nest {"cycle_stack":
 * {"issueFromBuffer": N}} — matching the final segment covers both.
 */
int
cycleClassOfKey(const std::string &key, std::string &ctxTail)
{
    const std::size_t cut = key.rfind('.');
    const std::string seg =
        cut == std::string::npos ? key : key.substr(cut + 1);
    for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k) {
        if (seg == obs::cycleClassName(
                       static_cast<obs::CycleClass>(k))) {
            ctxTail =
                cut == std::string::npos ? "" : key.substr(0, cut);
            return static_cast<int>(k);
        }
    }
    return -1;
}

using CycleRowD = std::array<double, obs::kNumCycleClasses>;

/** Collect every cycle-class numeric leaf, grouped by context path. */
void
collectCycleLeaves(const obs::Json &node, const std::string &path,
                   std::map<std::string, CycleRowD> &out)
{
    using obs::Json;
    if (node.kind() == Json::Kind::Object) {
        for (const auto &kv : node.members()) {
            std::string tail;
            const int k = cycleClassOfKey(kv.first, tail);
            if (k >= 0 && kv.second.isNumber()) {
                std::string ctx = path;
                if (!tail.empty())
                    ctx += ctx.empty() ? tail : "." + tail;
                out[ctx][static_cast<std::size_t>(k)] +=
                    kv.second.asDouble();
            } else {
                collectCycleLeaves(kv.second,
                                   path.empty()
                                       ? kv.first
                                       : path + "." + kv.first,
                                   out);
            }
        }
    } else if (node.kind() == Json::Kind::Array) {
        const auto &items = node.items();
        for (std::size_t i = 0; i < items.size(); ++i)
            collectCycleLeaves(items[i],
                               path + "[" + std::to_string(i) + "]",
                               out);
    }
}

/**
 * The --cpi cross-view: join the two documents' host "pmu" blocks
 * (schema v5 bench JSON or `lbp_stats pmu --json` dumps) so host
 * per-region IPC and branch-miss movement reads next to the
 * simulated cycle delta printed above it — "the simulator charges
 * more branch-penalty cycles AND the host now mispredicts in
 * simDispatch" is one view. Degrades to an explicit per-document
 * note when either side has no usable host counters.
 */
void
printHostCpi(const obs::Json &a, const obs::Json &b)
{
    using obs::Json;
    std::cout << "\nhost cpi cross-view (--cpi):\n";

    auto regionsOf = [](const Json &doc,
                        std::string &note) -> const Json * {
        const Json *pmu = doc.find("pmu");
        if (!pmu) {
            note = "no \"pmu\" block (schema v5 bench JSON or "
                   "`lbp_stats pmu --json` dump)";
            return nullptr;
        }
        const Json *avail = pmu->find("available");
        if (!avail || !avail->asBool()) {
            note = "host counters unavailable";
            if (const Json *reason = pmu->find("reason"))
                note += ": " + reason->asString();
            return nullptr;
        }
        return pmu->find("regions");
    };

    std::string noteA, noteB;
    const Json *ra = regionsOf(a, noteA);
    const Json *rb = regionsOf(b, noteB);
    if (!ra || !rb) {
        if (!ra)
            std::cout << "  a: " << noteA << "\n";
        if (!rb)
            std::cout << "  b: " << noteB << "\n";
        return;
    }

    std::map<std::string, char> labels;
    for (const auto &kv : ra->members())
        labels[kv.first] = 1;
    for (const auto &kv : rb->members())
        labels[kv.first] = 1;

    auto field = [](const Json *row, const char *key, double &out) {
        if (!row)
            return false;
        const Json *v = row->find(key);
        if (!v || !v->isNumber())
            return false;
        out = v->asDouble();
        return true;
    };
    std::cout << "  region                 ipc a -> b        "
                 "br-miss% a -> b\n";
    for (const auto &lv : labels) {
        const Json *qa = ra->find(lv.first);
        const Json *qb = rb->find(lv.first);
        double ipcA = 0, ipcB = 0, brA = 0, brB = 0;
        const bool hasIpc =
            field(qa, "ipc", ipcA) && field(qb, "ipc", ipcB);
        const bool hasBr = field(qa, "branchMissPct", brA) &&
                           field(qb, "branchMissPct", brB);
        char line[128];
        char ipc[32], br[32];
        if (hasIpc)
            std::snprintf(ipc, sizeof(ipc), "%5.2f -> %5.2f", ipcA,
                          ipcB);
        else
            std::snprintf(ipc, sizeof(ipc), "     -");
        if (hasBr)
            std::snprintf(br, sizeof(br), "%6.2f -> %6.2f", brA,
                          brB);
        else
            std::snprintf(br, sizeof(br), "     -");
        std::snprintf(line, sizeof(line), "  %-22s %-17s %s\n",
                      lv.first.c_str(), ipc, br);
        std::cout << line;
    }
}

/**
 * Decompose the simulated-cycle delta between two documents by
 * CycleClass x context (loop row, workload stack, registry counter —
 * any grouping either document carries). Prints the grand total, the
 * per-class split, and every (context, class) mover ranked by |delta|.
 */
int
cmdExplain(const Options &o)
{
    if (o.positional.size() != 2)
        return usage();
    const obs::Json a = loadJson(o.positional[0]);
    const obs::Json b = loadJson(o.positional[1]);

    std::map<std::string, CycleRowD> ma, mb;
    collectCycleLeaves(a, "", ma);
    collectCycleLeaves(b, "", mb);
    if (ma.empty() || mb.empty()) {
        // A document without any cycle-class leaf cannot be
        // explained — a usage-class error (exit 2, like bad flags),
        // distinct from runtime failures (exit 1). Name the
        // offending document(s) and the keys that were expected.
        if (ma.empty())
            std::cerr << "explain: no cycle-class keys in "
                      << o.positional[0] << "\n";
        if (mb.empty())
            std::cerr << "explain: no cycle-class keys in "
                      << o.positional[1] << "\n";
        std::cerr << "expected leaves named after a cycle class (";
        for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k)
            std::cerr << (k ? ", " : "")
                      << obs::cycleClassName(
                             static_cast<obs::CycleClass>(k));
        std::cerr << ") as in schema v4+ bench JSON, a registry "
                     "dump with sim.cycles.*, or a scorecard dump\n";
        return 2;
    }

    std::map<std::string, char> ctxs;
    for (const auto &kv : ma)
        ctxs[kv.first] = 1;
    for (const auto &kv : mb)
        ctxs[kv.first] = 1;

    struct Entry
    {
        std::string ctx;
        std::size_t cls;
        double va, vb;
    };
    std::vector<Entry> entries;
    CycleRowD clsA{}, clsB{};
    double totA = 0, totB = 0;
    for (const auto &ckv : ctxs) {
        const CycleRowD ra = ma.count(ckv.first) ? ma[ckv.first]
                                                 : CycleRowD{};
        const CycleRowD rb = mb.count(ckv.first) ? mb[ckv.first]
                                                 : CycleRowD{};
        for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k) {
            clsA[k] += ra[k];
            clsB[k] += rb[k];
            totA += ra[k];
            totB += rb[k];
            if (ra[k] != rb[k])
                entries.push_back({ckv.first, k, ra[k], rb[k]});
        }
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry &x, const Entry &y) {
                         return std::abs(x.vb - x.va) >
                                std::abs(y.vb - y.va);
                     });

    auto num = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return std::string(buf);
    };
    auto delta = [&](double va, double vb) {
        const double d = vb - va;
        return (d >= 0 ? "+" : "") + num(d);
    };

    std::cout << "cycle delta: " << o.positional[0] << " -> "
              << o.positional[1] << "\n";
    std::cout << "total: " << num(totA) << " -> " << num(totB)
              << " (" << delta(totA, totB) << ")\n\nby class:\n";
    for (std::size_t k = 0; k < obs::kNumCycleClasses; ++k) {
        if (clsA[k] == 0 && clsB[k] == 0)
            continue;
        std::cout << "  "
                  << obs::cycleClassName(
                         static_cast<obs::CycleClass>(k))
                  << ": " << num(clsA[k]) << " -> " << num(clsB[k])
                  << " (" << delta(clsA[k], clsB[k]) << ")\n";
    }

    if (entries.empty()) {
        std::cout << "\nno per-context movement: the stacks are "
                     "identical\n";
    } else {
        const std::size_t kMaxEntries = 40;
        std::cout << "\nby context x class (ranked by |delta|):\n";
        for (std::size_t i = 0;
             i < entries.size() && i < kMaxEntries; ++i) {
            const Entry &e = entries[i];
            std::cout << "  " << (e.ctx.empty() ? "<root>" : e.ctx)
                      << " . "
                      << obs::cycleClassName(
                             static_cast<obs::CycleClass>(e.cls))
                      << ": " << num(e.va) << " -> " << num(e.vb)
                      << " (" << delta(e.va, e.vb) << ")\n";
        }
        if (entries.size() > kMaxEntries)
            std::cout << "  ... " << entries.size() - kMaxEntries
                      << " further mover(s) elided\n";
    }
    if (o.cpi)
        printHostCpi(a, b);
    return 0;
}

/** Core of the self-profile snapshot as report/dump JSON. */
obs::Json
profSnapshotJson(const obs::prof::Snapshot &snap)
{
    obs::Json doc = obs::Json::object();
    doc.set("samples", obs::Json::uinteger(snap.samples));
    doc.set("dropped", obs::Json::uinteger(snap.dropped));
    doc.set("untracked", obs::Json::uinteger(snap.untracked));
    doc.set("attributed_fraction",
            obs::Json::number(snap.attributedFraction()));
    obs::Json regions = obs::Json::object();
    for (const auto &rc : snap.regions)
        regions.set(rc.label, obs::Json::uinteger(rc.count));
    doc.set("regions", regions);
    return doc;
}

int
cmdReport(const Options &o)
{
    if (o.positional.size() != 1)
        return usage();
    const std::string &name = o.positional[0];

    // Self-profile the report's own workload run so the "where the
    // host cycles go" section describes exactly the run whose
    // counters fill the rest of the document. Best-effort: when the
    // profiler is compiled out or the timer cannot be armed the
    // section degrades to its placeholder.
    obs::prof::Profiler &prof = obs::prof::Profiler::instance();
    const bool profiling =
        obs::prof::compiledIn() && prof.start(o.hz);

    // Same discipline for the host counters: best-effort session
    // around the same run; the #pmu section renders the snapshot's
    // reason when the host has none.
    obs::pmu::PmuSession &pmuSession =
        obs::pmu::PmuSession::instance();
    const bool counting = pmuSession.start();

    obs::Registry reg;
    CompileResult cr;
    TraceCacheStats tc;
    obs::CycleStack cs;
    const SimStats stats = runWorkload(o, name, reg, nullptr, cr,
                                       &tc, &cs);
    const FetchEnergy fe = computeFetchEnergy(stats, o.bufferOps);
    const obs::LoopScorecard sc = obs::buildLoopScorecard(
        name, cr.loopLog, stats, o.bufferOps, &fe, &tc, &cs);

    obs::ReportData data;
    data.workload = name;
    data.registryDoc = reg.toJson();
    data.scorecard = obs::scorecardToJson(sc);
    if (profiling) {
        prof.stop();
        data.prof = profSnapshotJson(prof.snapshot());
    }
    if (counting)
        pmuSession.stop();
    data.pmu = obs::pmu::snapshotJson(pmuSession.snapshot());

    const std::string out =
        o.outPath.empty() ? name + ".report.html" : o.outPath;
    if (!writeFile(out, [&](std::ostream &os) {
            obs::writeHtmlReport(os, data);
        }))
        return 1;
    std::cout << "report: " << out << "\n";
    return 0;
}

/**
 * Run the workload under the sampling self-profiler and print where
 * the host cycles went, by region. The workload is compiled and
 * simulated repeatedly (--reps, or until the sample count is stable
 * enough to rank regions) so even --quick workloads accumulate
 * statistics at the default ~1 kHz rate. Attribution is checked
 * against the samples the handler could not tag: the tool reports
 * the attributed fraction and exits nonzero only on harness errors,
 * never on attribution quality (CI smoke asserts the fraction
 * separately where the environment is controlled).
 */
int
cmdProf(const Options &o)
{
    if (o.positional.size() != 1)
        return usage();
    const std::string &name = o.positional[0];

    if (!obs::prof::compiledIn()) {
        std::cerr << "lbp_stats prof: profiler compiled out "
                     "(built with -DLBP_PROF=OFF)\n";
        return 1;
    }

    obs::prof::Profiler &prof = obs::prof::Profiler::instance();
    if (!prof.start(o.hz)) {
        std::cerr << "lbp_stats prof: cannot arm the sampling "
                     "timer on this system\n";
        return 1;
    }

    // Repeat the full pipeline — build, compile, decode, simulate —
    // so every region has a chance to be sampled. reps=0 sizes the
    // run adaptively: stop once we hold enough samples to rank
    // regions meaningfully, with a hard cap so pathological clocks
    // cannot hang the tool.
    constexpr std::uint64_t kTargetSamples = 400;
    constexpr int kMaxAutoReps = 300;
    int reps = 0;
    for (;;) {
        ++reps;
        obs::Registry reg;
        CompileResult cr;
        runWorkload(o, name, reg, nullptr, cr);
        if (o.reps > 0) {
            if (reps >= o.reps)
                break;
        } else if (reps >= kMaxAutoReps ||
                   prof.snapshot().samples >= kTargetSamples) {
            break;
        }
    }
    prof.stop();
    const obs::prof::Snapshot snap = prof.snapshot();

    std::cout << "workload:            " << name << "\n"
              << "repetitions:         " << reps << "\n"
              << "sampling rate:       " << o.hz << " Hz\n"
              << "samples:             " << snap.samples << "\n"
              << "samples dropped:     " << snap.dropped << "\n"
              << "samples untracked:   " << snap.untracked << "\n";
    char frac[32];
    std::snprintf(frac, sizeof(frac), "%.1f%%",
                  100.0 * snap.attributedFraction());
    std::cout << "attributed:          " << frac << "\n\n";

    // The label column fits the longest label.
    size_t labelWidth = 6;
    for (const auto &rc : snap.regions)
        labelWidth = std::max(labelWidth, rc.label.size());
    auto padded = [&](const std::string &label) {
        return label + std::string(labelWidth + 1 - label.size(), ' ');
    };
    std::cout << "  " << padded("region") << "samples   share\n";
    for (const auto &rc : snap.regions) {
        char cols[64];
        std::snprintf(cols, sizeof(cols), "%7llu  %5.1f%%",
                      static_cast<unsigned long long>(rc.count),
                      snap.samples
                          ? 100.0 * static_cast<double>(rc.count) /
                                static_cast<double>(snap.samples)
                          : 0.0);
        std::cout << "  " << padded(rc.label) << cols << "\n";
    }

    if (!o.outPath.empty()) {
        if (!writeFile(o.outPath, [&](std::ostream &os) {
                os << obs::prof::collapsedStacks(snap);
            }))
            return 1;
        std::cout << "\ncollapsed stacks: " << o.outPath
                  << " (feed to flamegraph.pl / speedscope)\n";
    }
    if (!o.jsonPath.empty()) {
        obs::Json doc = profSnapshotJson(snap);
        doc.set("workload", obs::Json::str(name));
        doc.set("hz", obs::Json::uinteger(o.hz));
        doc.set("reps", obs::Json::integer(reps));
        obs::Json paths = obs::Json::array();
        for (const auto &pc : snap.paths) {
            obs::Json p = obs::Json::object();
            p.set("path", obs::Json::str(pc.label));
            p.set("samples", obs::Json::uinteger(pc.count));
            paths.push(p);
        }
        doc.set("paths", paths);
        if (!writeFile(o.jsonPath, [&](std::ostream &os) {
                doc.write(os);
                os << "\n";
            }))
            return 1;
        std::cout << "profile dump: " << o.jsonPath << "\n";
    }
    return 0;
}

/**
 * Run the workload under a host PMU session and print per-region
 * hardware counters: IPC, branch-miss rate, cache MPKI for compile /
 * decode / dispatch / replay, attributed through the profiler's
 * existing region markers. The workload repeats (--reps, default 3)
 * so short workloads still accumulate counter deltas across every
 * region. Exit 0 in every environment: a host without usable
 * counters (container, restrictive perf_event_paranoid, LBP_PMU=OFF
 * build) prints the reason and publishes pmu.available=0 — graceful
 * unavailability is the contract, not an error.
 */
int
cmdPmu(const Options &o)
{
    if (o.positional.size() != 1)
        return usage();
    const std::string &name = o.positional[0];

    obs::pmu::PmuSession &session =
        obs::pmu::PmuSession::instance();
    std::string why;
    const bool counting = session.start(&why);
    if (!counting)
        std::cout << "host pmu unavailable: " << why
                  << " (running anyway; publishing "
                     "pmu.available=0)\n";

    const int reps = o.reps > 0 ? o.reps : 3;
    std::unique_ptr<obs::Registry> reg;
    {
        // The harness marker keeps inter-region tool time (workload
        // construction, registry churn) attributed to "bench"
        // rather than untracked, the same discipline the bench
        // drivers use — this is what holds attribution >= 95%.
        obs::prof::ScopedRegion harness(obs::prof::Region::Bench);
        for (int i = 0; i < reps; ++i) {
            reg = std::make_unique<obs::Registry>();
            CompileResult cr;
            runWorkload(o, name, *reg, nullptr, cr);
        }
    }
    if (counting)
        session.stop();
    const obs::pmu::Snapshot snap = session.snapshot();

    std::cout << "workload:     " << name << "\n"
              << "repetitions:  " << reps << "\n\n";
    obs::pmu::printSnapshotTable(std::cout, snap);

    // The dump is the last repetition's full registry plus the
    // pmu.* keys, so one artifact carries simulated and host
    // counters side by side.
    obs::publishPmu(*reg, snap);
    if (!o.jsonPath.empty()) {
        if (!writeFile(o.jsonPath, [&](std::ostream &os) {
                reg->toJson().write(os);
                os << "\n";
            }))
            return 1;
        std::cout << "\nregistry dump: " << o.jsonPath << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, o))
        return usage();
    if (o.command == "--version") {
        std::cout << obs::versionString() << "\n";
        return 0;
    }
    if (o.command == "run")
        return cmdRun(o);
    if (o.command == "diff")
        return cmdDiff(o);
    if (o.command == "trace")
        return cmdTrace(o);
    if (o.command == "loops")
        return cmdLoops(o);
    if (o.command == "explain")
        return cmdExplain(o);
    if (o.command == "report")
        return cmdReport(o);
    if (o.command == "prof")
        return cmdProf(o);
    if (o.command == "pmu")
        return cmdPmu(o);
    if (o.command == "list")
        return cmdList();
    return usage();
}
