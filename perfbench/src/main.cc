/**
 * @file
 * lbp_perfbench: the repository benchmark. One process, one thread,
 * one workload per run, the simulator configuration pinned:
 *
 *   cold_registry  every registry workload x {traditional, aggressive}
 *                  x {slot, register}: buildWorkload -> compileProgram
 *                  -> buildDecodedImage -> one point at 256 ops, with
 *                  no compile cache
 *   warm_sweep     the Figure-7 sweep: the same 44 configs compiled
 *                  once in set-up; each pass decodes once per config
 *                  and simulates a point at each of the 8 figure
 *                  buffer sizes
 *   generated      seeded random structured programs (gen.hh), each
 *                  compiled cold at both levels and simulated at 256
 *                  and 32 ops, under the REGISTER predication scheme:
 *                  slot lowering miscompiles (and on some programs
 *                  aborts on) a few per thousand of these programs
 *
 * A point is reallocateBuffers -> rebindBufferAddresses ->
 * VliwSim::run over the config's shared decoded image.
 *
 * Every simulated point must reproduce the checksum and return values
 * of Interpreter::run on the untransformed program (computed in
 * set-up); warm_sweep's slot-mode buffer fractions must also equal the
 * checked-in BENCH_fig7.json exactly.
 *
 * --trace 0 measures the end-to-end metrics with no spans. --trace 1
 * alternates untraced and traced passes: traced passes (and the
 * set-up) record a span around every call into a layer, and the run
 * reports per-layer numbers plus the traced/untraced pass-time
 * difference as the tracing overhead.
 *
 * The last line of standard output is one JSON object:
 *   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
 *
 * Usage: lbp_perfbench --workload W --seed N --seconds S --trace 0|1
 *                      [--fig7 PATH] [--spans PATH] [--corrupt K]
 *   --fig7 PATH   Figure-7 reference (warm_sweep; default
 *                 BENCH_fig7.json)
 *   --spans PATH  write the traced run's spans, one JSON per line
 *   --corrupt K   flip a bit of subject K's expected checksum (the
 *                 self-test's failure-accounting probe)
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/compiler.hh"
#include "gen.hh"
#include "ir/interpreter.hh"
#include "obs/cycle_stack.hh"
#include "obs/json.hh"
#include "obs/pmu.hh"
#include "obs/prof.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "power/fetch_energy.hh"
#include "sim/decoded.hh"
#include "sim/dispatch.hh"
#include "sim/trace_cache.hh"
#include "sim/vliw_sim.hh"
#include "spans.hh"
#include "support/random.hh"
#include "workloads/registry.hh"

using namespace lbp;

namespace perfbench
{
namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Host-speed calibration. On a shared host, other tenants' load slows
 * this process down by up to ~70% for seconds at a time, and a fixed
 * kernel of the benchmark's own — std::map updates and a dependent
 * array walk, the kind of work the compiler and simulator do — slows
 * down with it. Every host time is scaled by kCalibRefMs over the
 * kernel's median time around it: times read as on a host where the
 * kernel takes kCalibRefMs.
 */
constexpr double kCalibRefMs = 2.0;
/** Work between calibrations (the kernel adds about 10%). */
constexpr double kCalibEveryS = 0.02;

volatile std::uint64_t calibrationSink;

double
calibrationMs()
{
    const auto t0 = Clock::now();
    std::map<int, int> m;
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 10000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        m[static_cast<int>(x & 4095)] += static_cast<int>(x >> 40);
    }
    std::vector<std::uint64_t> v(4096);
    for (size_t r = 0; r < 100; ++r)
        for (size_t i = 0; i < v.size(); ++i)
            v[i] = v[(i * 7 + r) & 4095] * 31 + i;
    calibrationSink = m.size() + v[5];
    return 1e3 * secondsSince(t0);
}

/**
 * Set-ups before the timed passes of an untraced run; a set-up
 * cheaper than a tenth of a pass is also re-measured after every pass
 * (up to kMaxSetupReps). setup_s is the median of all of them.
 */
constexpr size_t kSetupReps = 5, kMaxSetupReps = 64;
/** The cold path's (and compileProgram's default) buffer size. */
constexpr int kColdBufferOps = 256;
/** Figure 7's buffer sizes. */
const std::vector<int> kSweepSizes{16, 32, 64, 128, 256, 512, 1024, 2048};
/** Programs drawn per generated run, and their simulated sizes. */
constexpr size_t kGenPrograms = 144;
const std::vector<int> kGenSizes{256, 32};

/** compileProgram's stages, as they name their obsRegistry phases. */
const char *const kPhases[] = {
    "01_profile",     "02_inline",         "03_classic_opts",
    "04_peel",        "05_if_convert",     "06_collapse",
    "07_if_convert2", "08_branch_combine", "09_promote",
    "10_classic_opts2", "11_counted_loop", "12_reprofile",
    "13_schedule",    "14_slot_lowering",  "15_buffer_alloc",
};
constexpr size_t kNumPhases = sizeof(kPhases) / sizeof(kPhases[0]);
constexpr size_t kProfilePhase = 0, kReprofilePhase = 11,
                 kBufferAllocPhase = 14;

/** Per-call trace-closure floor (trace.attributed_frac). */
constexpr double kMinAttributedFrac = 0.95;

enum class Workload
{
    ColdRegistry,
    WarmSweep,
    Generated,
};

struct Options
{
    Workload workload = Workload::ColdRegistry;
    std::string workloadName;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string fig7Path = "BENCH_fig7.json";
    std::string spansPath;
    long corrupt = -1;
};

/** One untransformed program and the oracle's answer for it. */
struct Subject
{
    std::string name;
    Program prog;
    std::uint64_t checksum = 0;
    std::vector<std::int64_t> returns;
    std::uint64_t dynOps = 0;
};

struct Config
{
    size_t subject = 0;
    OptLevel level = OptLevel::Traditional;
    PredMode mode = PredMode::SLOT;
    /** warm_sweep only: compiled once in set-up. */
    std::unique_ptr<CompileResult> compiled;
};

constexpr size_t kNumReasons =
    static_cast<size_t>(TraceBailoutReason::Count);

/**
 * The exact counters of one pass over every config. They depend only
 * on the seed, so every pass of a run must reproduce the first.
 */
struct Tally
{
    std::uint64_t configs = 0, points = 0, failed = 0;
    std::uint64_t cycles = 0, bundles = 0;
    std::uint64_t opsFetched = 0, opsFromBuffer = 0;
    std::uint64_t codeSizeOps = 0, moduloLoops = 0;
    double energyNj = 0, unbufferedNj = 0;
    std::uint64_t traceBuilds = 0, replays = 0, bailouts = 0;
    std::uint64_t replayedOps = 0;
    std::array<std::uint64_t, kNumReasons> bailoutsBy{};
    std::uint64_t predReplays = 0, sideExits = 0;
    std::uint64_t backedgeFallthroughs = 0;
    obs::CycleRow stack{};
    std::array<std::uint64_t, kNumPhases> opsAfter{}; ///< traced only

    bool operator==(const Tally &o) const = default;
};

/** Per-phase wall time over every traced compile. */
struct PhaseTimes
{
    std::array<double, kNumPhases> ms{};
    std::array<std::uint64_t, kNumPhases> runs{};
    std::uint64_t compiles = 0;
};

/** Figure-7 slot-mode reference: [level][workload] -> fractions. */
using Fig7Ref = std::map<std::pair<int, std::string>, std::vector<double>>;

struct Bench
{
    Options opt;
    SpanRecorder rec;
    std::vector<Subject> subjects;
    std::vector<Config> configs; ///< in the seed's permuted order

    /** Unscaled host times and calibrations of the current pass. */
    std::vector<double> rawCompileMs, rawSimMs, calibMs;
    double calibSpentS = 0; ///< all calibration time so far
    Clock::time_point lastCalib{};

    /**
     * Between two items: calibrate when kCalibEveryS of work has run
     * since the last calibration, or none has run in this pass yet.
     */
    void tick()
    {
        if (!calibMs.empty() && secondsSince(lastCalib) < kCalibEveryS)
            return;
        calibMs.push_back(calibrationMs());
        calibSpentS += 1e-3 * calibMs.back();
        lastCalib = Clock::now();
    }
    /** Host times of the run, scaled to the reference host speed. */
    std::vector<double> compileMs, simMs, speedFactors;
    PhaseTimes phases;

    Fig7Ref fig7;
    std::uint64_t fig7Checked = 0, fig7Mismatched = 0;
};

SimConfig
pinnedSimConfig(int bufferOps, PredMode mode)
{
    SimConfig sc;
    sc.bufferOps = bufferOps;
    sc.predMode = mode;
    sc.engine = SimEngine::DECODED;
    sc.traceCache = TraceCacheMode::On;
    sc.predReplay = PredReplayMode::On;
    sc.replayMinIters = kMinCountedReplayIters;
    return sc;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::ColdRegistry: return "cold_registry";
      case Workload::WarmSweep: return "warm_sweep";
      case Workload::Generated: return "generated";
    }
    return "?";
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    bool haveW = false, haveSeed = false, haveSecs = false,
         haveTrace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            haveW = true;
            o.workloadName = v;
            if (v == "cold_registry")
                o.workload = Workload::ColdRegistry;
            else if (v == "warm_sweep")
                o.workload = Workload::WarmSweep;
            else if (v == "generated")
                o.workload = Workload::Generated;
            else
                return false;
        } else if (k == "--seed") {
            haveSeed = true;
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                return false;
        } else if (k == "--seconds") {
            haveSecs = true;
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(o.seconds > 0))
                return false;
        } else if (k == "--trace") {
            haveTrace = true;
            if (v != "0" && v != "1")
                return false;
            o.trace = v == "1";
        } else if (k == "--fig7") {
            o.fig7Path = v;
        } else if (k == "--spans") {
            o.spansPath = v;
        } else if (k == "--corrupt") {
            o.corrupt = std::strtol(v.c_str(), &end, 10);
            if (v.empty() || *end)
                return false;
        } else {
            return false;
        }
    }
    return (argc % 2) == 1 && haveW && haveSeed && haveSecs &&
           haveTrace;
}

/**
 * The env overrides that would silently replace the pinned SimConfig
 * (vliw_sim.cc consults them at construction).
 */
bool
refuseSimEnvOverrides()
{
    for (const char *var :
         {"LBP_SIM_NO_TRACE_CACHE", "LBP_SIM_NO_PRED_REPLAY",
          "LBP_SIM_REPLAY_MIN_ITERS"}) {
        if (std::getenv(var)) {
            std::fprintf(stderr,
                         "refusing to run: %s is set and would "
                         "override the pinned simulator config\n",
                         var);
            return true;
        }
    }
    return false;
}

void
printIdentity(const Options &o)
{
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
#ifdef __OPTIMIZE__
    const bool optimize = true;
#else
    const bool optimize = false;
#endif
    std::printf("identity: {\"workload\": \"%s\", \"seed\": %llu, "
                "\"nproc\": %ld, \"compiler\": \"%s\", "
                "\"NDEBUG\": %s, \"__OPTIMIZE__\": %s, "
                "\"LBP_TRACE\": %d, \"LBP_PROF\": %d, "
                "\"LBP_PMU\": %d, \"LBP_THREADED_DISPATCH\": %d, "
                "\"sim\": {\"engine\": \"decoded\", \"trace_cache\": "
                "\"on\", \"pred_replay\": \"on\", "
                "\"replay_min_iters\": %lld}, \"threads\": 1}\n",
                o.workloadName.c_str(),
                static_cast<unsigned long long>(o.seed),
                sysconf(_SC_NPROCESSORS_ONLN), __VERSION__,
                ndebug ? "true" : "false", optimize ? "true" : "false",
                LBP_TRACE, LBP_PROF, LBP_PMU, LBP_THREADED_DISPATCH,
                static_cast<long long>(kMinCountedReplayIters));
}

bool
loadFig7(const std::string &path, Fig7Ref &ref, std::string &err)
{
    std::ifstream is(path);
    if (!is) {
        err = "cannot read " + path;
        return false;
    }
    std::stringstream ss;
    ss << is.rdbuf();
    const obs::Json doc = obs::Json::parse(ss.str(), err);
    if (!err.empty())
        return false;
    const obs::Json *cfg = doc.find("config");
    const obs::Json *sizes = cfg ? cfg->find("buffer_sizes") : nullptr;
    if (!sizes || sizes->items().size() != kSweepSizes.size()) {
        err = path + ": buffer_sizes differ from the Figure-7 sweep";
        return false;
    }
    for (size_t i = 0; i < kSweepSizes.size(); ++i)
        if (sizes->items()[i].asInt() != kSweepSizes[i]) {
            err = path + ": buffer_sizes differ from the Figure-7 sweep";
            return false;
        }
    for (OptLevel lvl : {OptLevel::Traditional, OptLevel::Aggressive}) {
        const obs::Json *rows = doc.find(
            lvl == OptLevel::Aggressive ? "aggressive" : "traditional");
        if (!rows) {
            err = path + ": missing level rows";
            return false;
        }
        for (const obs::Json &row : rows->items()) {
            const obs::Json *w = row.find("workload");
            const obs::Json *f = row.find("bufferFraction");
            if (!w || !f || f->items().size() != kSweepSizes.size()) {
                err = path + ": malformed row";
                return false;
            }
            std::vector<double> v;
            for (const obs::Json &x : f->items())
                v.push_back(x.asDouble());
            ref[{static_cast<int>(lvl), w->asString()}] = std::move(v);
        }
    }
    return true;
}

/** Deterministic Fisher-Yates with the repository's own RNG. */
template <typename T>
void
shuffle(std::vector<T> &v, std::uint64_t seed)
{
    Rng rng(seed ^ 0x5eedf00dcafeull);
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.nextBelow(i)]);
}

void
runOracle(Bench &b, Subject &s)
{
    ScopedSpan span(b.rec, "ir");
    Interpreter interp(s.prog);
    const ExecResult r = interp.run();
    s.checksum = r.checksum;
    s.returns = r.returns;
    s.dynOps = r.dynOps;
}

bool
slotLoweringFor(OptLevel level, PredMode mode)
{
    // REGISTER simulation requires slot lowering off; it only runs at
    // the aggressive level.
    return level != OptLevel::Aggressive || mode == PredMode::SLOT;
}

/**
 * compileProgram with default options (stage checks on). Traced runs
 * attach an obsRegistry and read the per-phase times and op counts
 * back into @p t and b.phases.
 */
std::unique_ptr<CompileResult>
compileConfig(Bench &b, const Program &prog, const Config &c, Tally &t)
{
    CompileOptions opts;
    opts.level = c.level;
    opts.slotLowering = slotLoweringFor(c.level, c.mode);
    obs::Registry reg;
    if (b.rec.enabled())
        opts.obsRegistry = &reg;
    auto cr = std::make_unique<CompileResult>();
    {
        ScopedSpan span(b.rec, "compile");
        const auto t0 = Clock::now();
        compileProgram(prog, opts, *cr);
        if (!b.rec.enabled())
            b.rawCompileMs.push_back(1e3 * secondsSince(t0));
    }
    t.codeSizeOps += static_cast<std::uint64_t>(cr->scheduledOps);
    t.moduloLoops += static_cast<std::uint64_t>(cr->moduloLoops);
    if (!opts.obsRegistry)
        return cr;

    // A stage without an ops_after counter leaves the program as the
    // next stage found it; the last one leaves the final IR.
    ++b.phases.compiles;
    std::int64_t after = cr->ir.sizeOps();
    for (size_t k = kNumPhases; k-- > 0;) {
        const std::string base = std::string("compile.phase.") +
                                 kPhases[k];
        const obs::Counter *before = reg.findCounter(base + ".ops_before");
        if (!before)
            continue;
        if (const obs::Counter *oa = reg.findCounter(base + ".ops_after"))
            after = static_cast<std::int64_t>(oa->value());
        t.opsAfter[k] += static_cast<std::uint64_t>(after);
        b.phases.ms[k] += reg.gauge(base + ".ms").value();
        ++b.phases.runs[k];
        after = static_cast<std::int64_t>(before->value());
    }
    return cr;
}

DecodedImage
decode(Bench &b, const CompileResult &cr)
{
    ScopedSpan span(b.rec, "decode");
    return buildDecodedImage(cr.code);
}

/**
 * One simulated point, the repository's shared-image step
 * (bench::simulateShared): reallocateBuffers -> rebindBufferAddresses
 * -> VliwSim::run at @p bufferOps. At compileProgram's own 256 ops the
 * reallocation repeats the compile's allocation. Folds the point into
 * @p t; returns false when the outputs differ from the oracle's.
 */
bool
simulatePoint(Bench &b, CompileResult &cr, DecodedImage &img,
              int bufferOps, const Config &c, Tally &t,
              double *bufferFraction = nullptr)
{
    {
        ScopedSpan span(b.rec, "buffer_alloc");
        reallocateBuffers(cr, bufferOps);
    }
    {
        ScopedSpan span(b.rec, "rebind");
        rebindBufferAddresses(img, cr.code);
    }
    const SimConfig sc = pinnedSimConfig(bufferOps, c.mode);
    SimStats st;
    TraceCacheStats tc;
    obs::CycleRow row{};
    {
        ScopedSpan span(b.rec, "sim");
        const auto t0 = Clock::now();
        VliwSim sim(cr.code, sc, &img);
        st = sim.run();
        if (!b.rec.enabled())
            b.rawSimMs.push_back(1e3 * secondsSince(t0));
        tc = *sim.traceCacheStats();
        row = sim.cycleStack().totals();
    }
    ++t.points;
    t.cycles += st.cycles;
    t.bundles += st.bundles;
    t.opsFetched += st.opsFetched;
    t.opsFromBuffer += st.opsFromBuffer;
    t.energyNj += computeFetchEnergy(st, bufferOps).totalNj;
    t.unbufferedNj += unbufferedEnergyNj(st.opsFetched);
    t.traceBuilds += tc.builds;
    t.replays += tc.replays;
    t.bailouts += tc.bailouts;
    t.replayedOps += tc.replayedOps;
    for (size_t k = 0; k < kNumReasons; ++k)
        t.bailoutsBy[k] += tc.bailoutsBy[k];
    t.predReplays += tc.predReplay.replays;
    t.sideExits += tc.predReplay.sideExits;
    t.backedgeFallthroughs += tc.predReplay.backedgeFallthroughs;
    for (size_t k = 0; k < obs::kNumCycleClasses; ++k)
        t.stack[k] += row[k];
    if (bufferFraction)
        *bufferFraction = st.bufferFraction();

    const Subject &s = b.subjects[c.subject];
    return st.checksum == s.checksum && st.returns == s.returns;
}

/** Build one registry subject (span-wrapped) and run its oracle. */
void
prepareRegistrySubject(Bench &b, const std::string &name)
{
    b.rec.nextConfig();
    ScopedSpan root(b.rec, "setup");
    Subject s;
    s.name = name;
    {
        ScopedSpan span(b.rec, "workloads");
        s.prog = workloads::buildWorkload(name);
    }
    runOracle(b, s);
    b.subjects.push_back(std::move(s));
}

void
prepareGeneratedSubject(Bench &b, size_t i)
{
    b.rec.nextConfig();
    ScopedSpan root(b.rec, "setup");
    Subject s;
    s.name = "gen" + std::to_string(i);
    {
        ScopedSpan span(b.rec, "workloads");
        // splitmix-style spread so neighbouring seeds share nothing.
        Rng seeder(b.opt.seed * 0x9e3779b97f4a7c15ull + i + 1);
        s.prog = generateProgram(seeder.next());
    }
    runOracle(b, s);
    b.subjects.push_back(std::move(s));
}

/**
 * Set-up: subjects and their oracles, the permuted config list, and
 * for warm_sweep the compile of every config. Rebuilds from scratch.
 */
void
setup(Bench &b, Tally &setupTally)
{
    b.subjects.clear();
    b.configs.clear();
    if (b.opt.workload == Workload::Generated) {
        for (size_t i = 0; i < kGenPrograms; ++i) {
            b.tick();
            prepareGeneratedSubject(b, i);
        }
        for (size_t s = 0; s < b.subjects.size(); ++s)
            for (OptLevel l : {OptLevel::Traditional, OptLevel::Aggressive})
                b.configs.push_back({s, l, PredMode::REGISTER, nullptr});
    } else {
        for (const auto &w : workloads::allWorkloads()) {
            b.tick();
            prepareRegistrySubject(b, w.name);
        }
        for (size_t s = 0; s < b.subjects.size(); ++s)
            for (OptLevel l : {OptLevel::Traditional, OptLevel::Aggressive})
                for (PredMode m : {PredMode::SLOT, PredMode::REGISTER})
                    b.configs.push_back({s, l, m, nullptr});
    }
    shuffle(b.configs, b.opt.seed);

    if (b.opt.corrupt >= 0 &&
        static_cast<size_t>(b.opt.corrupt) < b.subjects.size())
        b.subjects[static_cast<size_t>(b.opt.corrupt)].checksum ^= 1;

    if (b.opt.workload != Workload::WarmSweep)
        return;
    for (Config &c : b.configs) {
        b.tick();
        b.rec.nextConfig();
        ScopedSpan root(b.rec, "setup");
        c.compiled =
            compileConfig(b, b.subjects[c.subject].prog, c, setupTally);
    }
}

void
runColdConfig(Bench &b, const Config &c, Tally &t)
{
    Program prog;
    {
        ScopedSpan span(b.rec, "workloads");
        prog = workloads::buildWorkload(b.subjects[c.subject].name);
    }
    const auto cr = compileConfig(b, prog, c, t);
    DecodedImage img = decode(b, *cr);
    const bool ok = cr->goldenChecksum == b.subjects[c.subject].checksum;
    if (!simulatePoint(b, *cr, img, kColdBufferOps, c, t) || !ok)
        ++t.failed;
}

void
runWarmConfig(Bench &b, const Config &c, Tally &t)
{
    CompileResult &cr = *c.compiled;
    t.codeSizeOps += static_cast<std::uint64_t>(cr.scheduledOps);
    t.moduloLoops += static_cast<std::uint64_t>(cr.moduloLoops);
    DecodedImage img = decode(b, cr);
    bool ok = true;
    const auto ref = b.fig7.find(
        {static_cast<int>(c.level), b.subjects[c.subject].name});
    for (size_t i = 0; i < kSweepSizes.size(); ++i) {
        double frac = 0;
        ok &= simulatePoint(b, cr, img, kSweepSizes[i], c, t, &frac);
        if (c.mode != PredMode::SLOT)
            continue;
        ++b.fig7Checked;
        if (ref == b.fig7.end() || ref->second[i] != frac)
            ++b.fig7Mismatched;
    }
    if (!ok)
        ++t.failed;
}

void
runGeneratedConfig(Bench &b, const Config &c, Tally &t)
{
    const auto cr =
        compileConfig(b, b.subjects[c.subject].prog, c, t);
    DecodedImage img = decode(b, *cr);
    bool ok = cr->goldenChecksum == b.subjects[c.subject].checksum;
    for (int size : kGenSizes)
        ok &= simulatePoint(b, *cr, img, size, c, t);
    if (!ok)
        ++t.failed;
}

/**
 * One pass over every config, calibrating between configs. Failures
 * are counted, never fatal. Returns the pass's unscaled time
 * (calibration excluded), in seconds.
 */
double
runPass(Bench &b, Tally &t)
{
    double passS = 0;
    for (size_t i = 0; i < b.configs.size(); ++i) {
        b.tick();
        const Config &c = b.configs[i];
        b.rec.nextConfig();
        const auto t0 = Clock::now();
        ScopedSpan root(b.rec, "config");
        ++t.configs;
        try {
            switch (b.opt.workload) {
              case Workload::ColdRegistry: runColdConfig(b, c, t); break;
              case Workload::WarmSweep: runWarmConfig(b, c, t); break;
              case Workload::Generated: runGeneratedConfig(b, c, t); break;
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "config %s failed: %s\n",
                         b.subjects[c.subject].name.c_str(), e.what());
            ++t.failed;
        }
        passS += secondsSince(t0);
    }
    return passS;
}

/**
 * Close a pass or set-up: its host speed factor from the calibrations
 * taken during it, and — when @p keep — its compile and sim times,
 * scaled by that factor, added to the run's samples.
 */
double
closeSamples(Bench &b, bool keep)
{
    const double f = kCalibRefMs / median(b.calibMs);
    if (keep) {
        for (double ms : b.rawCompileMs)
            b.compileMs.push_back(ms * f);
        for (double ms : b.rawSimMs)
            b.simMs.push_back(ms * f);
        b.speedFactors.push_back(f);
    }
    b.rawCompileMs.clear();
    b.rawSimMs.clear();
    b.calibMs.clear();
    return f;
}

/** Nearest-rank percentile (q in (0, 1]). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(q * double(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + buf + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** The exact counters both modes report: the modelled machine. */
void
modelMetrics(const Tally &t, std::vector<Metric> &m)
{
    m.push_back({"sim_cycles", double(t.cycles), "cycles"});
    m.push_back({"buffer_issue_frac",
                 ratio(double(t.opsFromBuffer), double(t.opsFetched)),
                 "fraction"});
    m.push_back({"fetch_energy_rel", ratio(t.energyNj, t.unbufferedNj),
                 "ratio"});
    m.push_back({"code_size_ops", double(t.codeSizeOps), "ops"});
}

struct LayerTotals
{
    double totalMs = 0, selfMs = 0;
    std::uint64_t calls = 0;
};

/**
 * Fold the recorded spans into per-layer totals. Returns the smallest
 * per-config share of traced wall time covered by layer spans, and
 * the summed wall time of every config and set-up root in @p rootMs.
 */
double
foldSpans(const SpanRecorder &rec,
          std::map<std::string, LayerTotals> &layers, double &rootMs)
{
    const std::vector<Span> &spans = rec.spans();
    const std::vector<std::int64_t> self = rec.selfTimes();
    double minFrac = 1.0;
    rootMs = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double dur = 1e-6 * double(s.endNs - s.startNs);
        if (s.parent < 0) {
            rootMs += dur;
            LayerTotals &h = layers["harness"];
            h.selfMs += 1e-6 * double(self[i]);
            h.totalMs += 1e-6 * double(self[i]);
            ++h.calls;
            if (dur > 0)
                minFrac = std::min(minFrac,
                                   1.0 - 1e-6 * double(self[i]) / dur);
            continue;
        }
        LayerTotals &l = layers[s.name];
        l.totalMs += dur;
        l.selfMs += 1e-6 * double(self[i]);
        ++l.calls;
    }
    return minFrac;
}

double
meanMs(const std::map<std::string, LayerTotals> &layers,
       const char *name)
{
    const auto it = layers.find(name);
    return it == layers.end() || it->second.calls == 0
               ? 0
               : it->second.totalMs / double(it->second.calls);
}

void
printLayerTable(const Bench &b,
                const std::map<std::string, LayerTotals> &layers,
                double rootMs)
{
    std::printf("\ntraced run: layer self time (%s)\n",
                workloadName(b.opt.workload));
    std::printf("%-24s %10s %12s %8s\n", "layer", "calls", "self-ms",
                "share");
    for (const auto &[name, l] : layers)
        std::printf("%-24s %10llu %12.3f %7.2f%%\n", name.c_str(),
                    static_cast<unsigned long long>(l.calls), l.selfMs,
                    100.0 * ratio(l.selfMs, rootMs));
    double compileMs = 0;
    if (const auto it = layers.find("compile"); it != layers.end())
        compileMs = it->second.totalMs;
    std::printf("compile phases (obsRegistry), share of compile:\n");
    for (size_t k = 0; k < kNumPhases; ++k)
        std::printf("  %-22s %10llu %12.3f %7.2f%%\n", kPhases[k],
                    static_cast<unsigned long long>(b.phases.runs[k]),
                    b.phases.ms[k],
                    100.0 * ratio(b.phases.ms[k], compileMs));
}

/** The traced run's per-layer metrics. */
std::vector<Metric>
layerMetrics(const Bench &b, const Tally &t,
             const std::map<std::string, LayerTotals> &layers,
             double attributedFrac, double overheadFrac,
             std::uint64_t tracedBundles)
{
    std::vector<Metric> m;
    std::uint64_t dynOps = 0;
    for (const Subject &s : b.subjects)
        dynOps += s.dynOps;
    const auto ir = layers.find("ir");
    const double irMs = ir == layers.end() ? 0 : ir->second.totalMs;
    const double compiles = double(b.phases.compiles);

    m.push_back({"workloads.build_ms", meanMs(layers, "workloads"), "ms"});
    m.push_back({"ir.interp_ms", meanMs(layers, "ir"), "ms"});
    m.push_back({"ir.interp_dyn_ops", double(dynOps), "ops"});
    m.push_back({"ir.interp_mops_per_s", ratio(double(dynOps), irMs) / 1e3,
                 "Mops/s"});
    m.push_back({"profile.ms",
                 ratio(b.phases.ms[kProfilePhase] +
                           b.phases.ms[kReprofilePhase],
                       compiles),
                 "ms"});
    m.push_back({"compile.ms", meanMs(layers, "compile"), "ms"});
    for (size_t k = 0; k < kNumPhases; ++k) {
        const std::string base = std::string("compile.phase.") +
                                 kPhases[k];
        m.push_back({base + ".ms",
                     ratio(b.phases.ms[k], double(b.phases.runs[k])),
                     "ms"});
        m.push_back({base + ".ops_after", double(t.opsAfter[k]), "ops"});
    }
    m.push_back({"compile.modulo_loops", double(t.moduloLoops), "count"});

    // Buffer allocation runs inside compileProgram (phase 15) and in
    // every reallocateBuffers call.
    double allocMs = b.phases.ms[kBufferAllocPhase];
    double allocCalls = double(b.phases.runs[kBufferAllocPhase]);
    if (const auto it = layers.find("buffer_alloc"); it != layers.end()) {
        allocMs += it->second.totalMs;
        allocCalls += double(it->second.calls);
    }
    m.push_back({"buffer_alloc.ms", ratio(allocMs, allocCalls), "ms"});
    m.push_back({"decode.ms", meanMs(layers, "decode"), "ms"});
    m.push_back({"rebind.ms", meanMs(layers, "rebind"), "ms"});

    const auto sim = layers.find("sim");
    const double simMs = sim == layers.end() ? 0 : sim->second.totalMs;
    m.push_back({"sim.run_ms", meanMs(layers, "sim"), "ms"});
    m.push_back({"sim.bundles", double(t.bundles), "count"});
    m.push_back({"sim.ns_per_bundle",
                 ratio(1e6 * simMs, double(tracedBundles)), "ns"});
    m.push_back({"sim.replay_coverage",
                 ratio(double(t.replayedOps), double(t.opsFromBuffer)),
                 "fraction"});
    m.push_back({"sim.replayed_ops", double(t.replayedOps), "ops"});
    m.push_back({"sim.ops_from_buffer", double(t.opsFromBuffer), "ops"});
    m.push_back({"sim.trace_builds", double(t.traceBuilds), "count"});
    m.push_back({"sim.replays", double(t.replays), "count"});
    m.push_back({"sim.bailouts", double(t.bailouts), "count"});
    for (size_t k = static_cast<size_t>(TraceBailoutReason::Unknown);
         k < kNumReasons; ++k)
        m.push_back({std::string("sim.bailout.") +
                         traceBailoutReasonName(
                             static_cast<TraceBailoutReason>(k)),
                     double(t.bailoutsBy[k]), "count"});
    m.push_back({"sim.pred_replay.replays", double(t.predReplays),
                 "count"});
    m.push_back({"sim.pred_replay.side_exits", double(t.sideExits),
                 "count"});
    m.push_back({"sim.pred_replay.backedge_fallthroughs",
                 double(t.backedgeFallthroughs), "count"});
    for (size_t k = 0; k < obs::kNumCycleClasses; ++k)
        m.push_back({std::string("sim.cycles.") +
                         obs::cycleClassName(
                             static_cast<obs::CycleClass>(k)),
                     double(t.stack[k]), "cycles"});
    m.push_back({"trace.attributed_frac", attributedFrac, "fraction"});
    m.push_back({"trace.overhead_frac", overheadFrac, "fraction"});
    return m;
}

int
run(const Options &opt)
{
    Bench b;
    b.opt = opt;
    printIdentity(opt);
    if (opt.workload == Workload::WarmSweep) {
        std::string err;
        if (!loadFig7(opt.fig7Path, b.fig7, err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 2;
        }
    }

    // Set-up: kSetupReps times for a median (state of the last one is
    // kept); once, traced, in a traced run.
    std::vector<double> setupS;
    Tally setupTally;
    auto timedSetup = [&] {
        setupTally = Tally{};
        const double spent = b.calibSpentS;
        const auto t0 = Clock::now();
        setup(b, setupTally);
        const double raw = secondsSince(t0) - (b.calibSpentS - spent);
        setupS.push_back(raw * closeSamples(b, !opt.trace));
    };
    b.rec.setEnabled(opt.trace);
    for (size_t r = 0; r < (opt.trace ? 1 : kSetupReps); ++r)
        timedSetup();

    // Pass 0 warms caches and allocators: checked, not timed. A traced
    // run then alternates untraced and traced passes.
    std::vector<double> passS, tracedPassS;
    Tally first;
    bool deterministic = true;
    std::uint64_t attempted = 0, failed = 0;
    const int minPasses = opt.trace ? 3 : 2;
    const auto start = Clock::now();
    for (int pass = 0;; ++pass) {
        const bool traced = opt.trace && pass > 0 && pass % 2 == 0;
        b.rec.setEnabled(traced);
        Tally t;
        const double raw = runPass(b, t);
        const double dt = raw * closeSamples(b, pass > 0 && !traced);
        if (pass > 0)
            (traced ? tracedPassS : passS).push_back(dt);
        attempted += t.configs;
        failed += t.failed;
        // Phase op counts exist only in traced passes: the first one
        // sets them, later traced passes must repeat them.
        const auto noOps = Tally{}.opsAfter;
        if (t.opsAfter != noOps && first.opsAfter != noOps)
            deterministic &= t.opsAfter == first.opsAfter;
        if (pass == 0)
            first = t;
        if (first.opsAfter == noOps)
            first.opsAfter = t.opsAfter;
        t.opsAfter = first.opsAfter;
        deterministic &= t == first;
        if (pass + 1 >= minPasses && secondsSince(start) >= opt.seconds)
            break;
        // A cheap set-up is re-measured across the run, so its median
        // does not hang on the host's state in the first second.
        if (!opt.trace && setupS.size() < kMaxSetupReps &&
            setupS.back() < 0.1 * dt)
            timedSetup();
    }
    b.rec.setEnabled(false);
    if (opt.workload == Workload::WarmSweep)
        first.opsAfter = setupTally.opsAfter;

    std::printf("model: simulated cycles, buffer issue and fetch energy "
                "come from an unvalidated model (no measurement on real "
                "hardware); the checked-in figure counters "
                "(BENCH_fig7.json) are its regression reference\n");
    if (opt.workload == Workload::WarmSweep)
        std::printf("fig7 cross-check: %llu of %llu slot-mode points "
                    "equal BENCH_fig7.json bufferFraction exactly\n",
                    static_cast<unsigned long long>(b.fig7Checked -
                                                    b.fig7Mismatched),
                    static_cast<unsigned long long>(b.fig7Checked));
    std::printf("passes: 1 warm-up, %zu untraced, %zu traced; %llu configs "
                "attempted, %llu failed (failed_frac %.17g); counters "
                "%s across passes\n",
                passS.size(), tracedPassS.size(),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                ratio(double(failed), double(attempted)),
                deterministic ? "identical" : "DIFFER");

    bool correct = failed == 0 && deterministic && b.fig7Mismatched == 0;
    std::vector<Metric> metrics;
    if (!opt.trace) {
        const double passMed = median(passS);
        std::vector<double> f = b.speedFactors;
        std::sort(f.begin(), f.end());
        std::printf("host speed: times scaled to a %.1f ms calibration "
                    "kernel; scale factors %.3f..%.3f (median %.3f) "
                    "over %zu set-ups and passes\n",
                    kCalibRefMs, f.front(), f.back(), median(f),
                    f.size());
        std::printf("samples: compile_ms over %zu compileProgram calls, "
                    "sim_ms over %zu VliwSim::run calls, rates over %zu "
                    "passes, setup_s over %zu set-ups\n",
                    b.compileMs.size(), b.simMs.size(), passS.size(),
                    setupS.size());
        metrics.push_back({"setup_s", median(setupS), "s"});
        metrics.push_back({"configs_per_s",
                           ratio(double(first.configs), passMed), "1/s"});
        metrics.push_back({"points_per_s",
                           ratio(double(first.points), passMed), "1/s"});
        metrics.push_back({"compile_ms_p50", percentile(b.compileMs, 0.5),
                           "ms"});
        metrics.push_back({"compile_ms_p95",
                           percentile(b.compileMs, 0.95), "ms"});
        metrics.push_back({"sim_ms_p50", percentile(b.simMs, 0.5), "ms"});
        metrics.push_back({"sim_ms_p95", percentile(b.simMs, 0.95), "ms"});
        metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
        modelMetrics(first, metrics);
        metrics.push_back(
            {"verified_frac",
             ratio(double(attempted - failed), double(attempted)),
             "fraction"});
    } else {
        std::map<std::string, LayerTotals> layers;
        double rootMs = 0;
        const double attributed = foldSpans(b.rec, layers, rootMs);
        printLayerTable(b, layers, rootMs);
        const double overhead =
            ratio(median(tracedPassS), median(passS)) - 1.0;
        std::printf("trace closure: every config's layer spans cover "
                    ">= %.4f of its wall time (floor %.2f); tracing "
                    "overhead %+.2f%% of an untraced pass\n",
                    attributed, kMinAttributedFrac, 100.0 * overhead);
        correct &= attributed >= kMinAttributedFrac;
        metrics = layerMetrics(b, first, layers, attributed, overhead,
                               first.bundles * tracedPassS.size());
        if (!opt.spansPath.empty() &&
            !b.rec.write(opt.spansPath.c_str()))
            std::fprintf(stderr, "cannot write spans to %s\n",
                         opt.spansPath.c_str());
    }
    printResult(correct, attempted, failed, metrics);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    if (!perfbench::parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload cold_registry|warm_sweep|"
                     "generated --seed N --seconds S --trace 0|1 "
                     "[--fig7 PATH] [--spans PATH] [--corrupt K]\n",
                     argv[0]);
        return 2;
    }
    if (perfbench::refuseSimEnvOverrides())
        return 2;
    return perfbench::run(opt);
}
