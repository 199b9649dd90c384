/**
 * @file
 * Sampling self-profiler internals: per-thread CPU-time timers, the
 * SIGPROF handler, and snapshot aggregation. The signal-safety rules
 * are documented in prof.hh and DESIGN.md §13; the short version is
 * that the handler runs on the thread that owns the state it touches
 * (SIGEV_THREAD_ID delivery), uses only relaxed atomics bracketed by
 * signal fences, and never allocates, locks, or reads label strings.
 */

#include "obs/prof.hh"

#include <algorithm>
#include <map>

namespace lbp
{
namespace obs
{
namespace prof
{

const char *
regionName(Region r)
{
    switch (r) {
      case Region::None: return "untracked";
      case Region::Compile: return "compile";
      case Region::Decode: return "decode";
      case Region::SimDispatch: return "simDispatch";
      case Region::SimReplay: return "simReplay";
      case Region::TraceBuild: return "traceBuild";
      case Region::SimReference: return "simReference";
      case Region::Bench: return "bench";
      case Region::Interpret: return "interpret";
      case Region::Count: break;
    }
    return "untracked";
}

std::string
collapsedStacks(const Snapshot &s)
{
    std::string out;
    for (const PathCount &p : s.paths) {
        out += p.label;
        out += ' ';
        out += std::to_string(p.count);
        out += '\n';
    }
    return out;
}

} // namespace prof
} // namespace obs
} // namespace lbp

#if LBP_PROF

#include <atomic>
#include <csignal>
#include <cstring>
#include <ctime>
#include <mutex>
#include <vector>

#include <pthread.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <unistd.h>

// Linux thread-directed timer delivery. glibc only exposes the
// sigevent field behind a macro in recent versions; provide the
// canonical fallbacks (g++ defines _GNU_SOURCE, so SIGEV_THREAD_ID
// is normally already present).
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace lbp
{
namespace obs
{
namespace prof
{

namespace
{

/** TLS stack capacity; deeper nests keep counting depth only. */
constexpr std::size_t kMaxStack = 16;

/**
 * All mutable profiler state one thread owns. Heap-allocated on the
 * thread's first ScopedRegion, registered under gMu, and never freed:
 * a snapshot taken after a pool thread exits must still see its
 * samples, and the signal handler must never race a destructor.
 */
struct ThreadState
{
    // Region stack: written by the owning thread, read by the SIGPROF
    // handler interrupting that same thread. Relaxed atomics carry
    // the values; signal fences pin the store order the handler
    // depends on (slot before depth).
    std::atomic<std::uint32_t> depth;
    std::atomic<std::uint8_t> stack[kMaxStack];

    // Path-count table: the handler is the only writer (single-writer
    // by construction — SIGEV_THREAD_ID delivers to the owning thread
    // only); snapshot() reads cross-thread. Key 0 means empty slot.
    std::atomic<std::uint64_t> pathKey[kPathTableSize];
    std::atomic<std::uint64_t> pathCount[kPathTableSize];
    std::atomic<std::uint64_t> dropped;

    pid_t tid = 0;
    clockid_t cpuClock{};
    bool clockOk = false;
    timer_t timer{};
    bool timerArmed = false;   ///< guarded by gMu
    bool alive = true;         ///< guarded by gMu

    ThreadState()
    {
        depth.store(0, std::memory_order_relaxed);
        dropped.store(0, std::memory_order_relaxed);
        for (auto &s : stack)
            s.store(0, std::memory_order_relaxed);
        for (auto &k : pathKey)
            k.store(0, std::memory_order_relaxed);
        for (auto &c : pathCount)
            c.store(0, std::memory_order_relaxed);
    }
};

std::mutex gMu;
/** Leak-by-design registry. Immortalized (never destroyed) so the
 * states stay reachable past static destruction: threads that
 * outlive main() can still run their TlsGuard, and LeakSanitizer
 * sees the intentional leaks as still-reachable, not leaked. */
std::vector<ThreadState *> &gThreads =
    *new std::vector<ThreadState *>;
std::vector<std::string> gDynLabels;   ///< interned ids Count + i
bool gRunning = false;
bool gHandlerInstalled = false;
unsigned gHz = kDefaultHz;

thread_local ThreadState *tlsState = nullptr;

/** Region-transition observer (obs/pmu); nullptr when idle. */
std::atomic<RegionHook> gRegionHook{nullptr};

/** Handler probe bound; below kPathTableSize only under test. */
std::atomic<std::size_t> gPathLimit{kPathTableSize};

void
sigprofHandler(int, siginfo_t *, void *)
{
    ThreadState *const ts = tlsState;
    if (ts == nullptr)
        return;
    std::atomic_signal_fence(std::memory_order_acquire);
    std::uint32_t d = ts->depth.load(std::memory_order_relaxed);
    if (d > kMaxStack)
        d = kMaxStack;
    // Keep the innermost levels when the path encoding truncates:
    // leaf attribution is what the reports rank by.
    std::uint32_t start = 0;
    if (d > kMaxPathDepth)
        start = d - static_cast<std::uint32_t>(kMaxPathDepth);
    std::uint64_t key = 1;  // leading marker keeps empty paths nonzero
    for (std::uint32_t i = start; i < d; ++i) {
        key = (key << 8) |
              ts->stack[i].load(std::memory_order_relaxed);
    }
    const std::size_t limit =
        gPathLimit.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < limit; ++i) {
        const std::uint64_t k =
            ts->pathKey[i].load(std::memory_order_relaxed);
        if (k == key) {
            ts->pathCount[i].fetch_add(1, std::memory_order_relaxed);
            return;
        }
        if (k == 0) {
            // Single writer: claim-then-count needs no CAS. A
            // concurrent snapshot may transiently see the key with a
            // zero count; it skips such slots.
            ts->pathKey[i].store(key, std::memory_order_relaxed);
            ts->pathCount[i].fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
    ts->dropped.fetch_add(1, std::memory_order_relaxed);
}

/** Arm @p ts's CPU-time timer at @p hz. Caller holds gMu. */
bool
armTimer(ThreadState *ts, unsigned hz)
{
    if (!ts->clockOk || ts->timerArmed)
        return false;
    struct sigevent sev;
    std::memset(&sev, 0, sizeof(sev));
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_notify_thread_id = ts->tid;
    if (timer_create(ts->cpuClock, &sev, &ts->timer) != 0)
        return false;
    struct itimerspec its;
    std::memset(&its, 0, sizeof(its));
    its.it_interval.tv_nsec = static_cast<long>(
        1'000'000'000ull / (hz != 0 ? hz : kDefaultHz));
    its.it_value = its.it_interval;
    if (timer_settime(ts->timer, 0, &its, nullptr) != 0) {
        timer_delete(ts->timer);
        return false;
    }
    ts->timerArmed = true;
    return true;
}

/** Caller holds gMu. */
void
disarmTimer(ThreadState *ts)
{
    if (!ts->timerArmed)
        return;
    timer_delete(ts->timer);
    ts->timerArmed = false;
}

void
threadExiting(ThreadState *ts)
{
    std::lock_guard<std::mutex> lk(gMu);
    disarmTimer(ts);
    ts->alive = false;
    tlsState = nullptr;
}

/** Disarms the thread's timer before its CPU clock dies with it. */
struct TlsGuard
{
    ThreadState *ts = nullptr;
    ~TlsGuard()
    {
        if (ts != nullptr)
            threadExiting(ts);
    }
};
thread_local TlsGuard tlsGuard;

ThreadState *
ensureThreadState()
{
    ThreadState *ts = tlsState;
    if (ts != nullptr)
        return ts;
    ts = new ThreadState;
    ts->tid = static_cast<pid_t>(::syscall(SYS_gettid));
    ts->clockOk =
        pthread_getcpuclockid(pthread_self(), &ts->cpuClock) == 0;
    {
        std::lock_guard<std::mutex> lk(gMu);
        gThreads.push_back(ts);
        if (gRunning)
            armTimer(ts, gHz);
    }
    tlsState = ts;
    tlsGuard.ts = ts;
    return ts;
}

/** Label lookup without taking gMu (caller holds it). */
std::string
labelNoLock(std::uint8_t id)
{
    if (id < static_cast<std::uint8_t>(Region::Count))
        return regionName(static_cast<Region>(id));
    const std::size_t idx =
        id - static_cast<std::size_t>(Region::Count);
    if (idx < gDynLabels.size())
        return gDynLabels[idx];
    return "region#" + std::to_string(id);
}

/** Caller holds gMu. */
void
resetTablesLocked()
{
    for (ThreadState *ts : gThreads) {
        for (std::size_t i = 0; i < kPathTableSize; ++i) {
            ts->pathKey[i].store(0, std::memory_order_relaxed);
            ts->pathCount[i].store(0, std::memory_order_relaxed);
        }
        ts->dropped.store(0, std::memory_order_relaxed);
    }
}

} // namespace

void
setRegionHook(RegionHook hook)
{
    gRegionHook.store(hook, std::memory_order_relaxed);
}

void
setPathTableLimitForTest(std::size_t n)
{
    gPathLimit.store(n == 0 || n > kPathTableSize ? kPathTableSize
                                                  : n,
                     std::memory_order_relaxed);
}

std::uint8_t
internRegion(const std::string &label)
{
    std::lock_guard<std::mutex> lk(gMu);
    for (std::size_t i = 0; i < gDynLabels.size(); ++i) {
        if (gDynLabels[i] == label) {
            return static_cast<std::uint8_t>(
                static_cast<std::size_t>(Region::Count) + i);
        }
    }
    const std::size_t next =
        static_cast<std::size_t>(Region::Count) + gDynLabels.size();
    if (next >= kMaxRegions)
        return static_cast<std::uint8_t>(Region::None);
    gDynLabels.push_back(label);
    return static_cast<std::uint8_t>(next);
}

std::string
regionLabel(std::uint8_t id)
{
    if (id < static_cast<std::uint8_t>(Region::Count))
        return regionName(static_cast<Region>(id));
    std::lock_guard<std::mutex> lk(gMu);
    return labelNoLock(id);
}

ScopedRegion::ScopedRegion(std::uint8_t id)
{
    ThreadState *const ts = ensureThreadState();
    const std::uint32_t d =
        ts->depth.load(std::memory_order_relaxed);
    if (d < kMaxStack)
        ts->stack[d].store(id, std::memory_order_relaxed);
    // Slot must be visible before the depth that exposes it.
    std::atomic_signal_fence(std::memory_order_release);
    ts->depth.store(d + 1, std::memory_order_relaxed);
    if (RegionHook hook =
            gRegionHook.load(std::memory_order_relaxed))
        hook(id);
}

ScopedRegion::~ScopedRegion()
{
    ThreadState *const ts = tlsState;
    if (ts == nullptr)
        return;  // thread already unregistered (exit path)
    const std::uint32_t d =
        ts->depth.load(std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_release);
    if (d > 0)
        ts->depth.store(d - 1, std::memory_order_relaxed);
    if (RegionHook hook =
            gRegionHook.load(std::memory_order_relaxed)) {
        // The new innermost after the pop: the slot below the one
        // just vacated. Depths past kMaxStack never stored a slot,
        // so clamp to the deepest stored id.
        std::uint8_t inner =
            static_cast<std::uint8_t>(Region::None);
        if (d >= 2) {
            const std::uint32_t slot =
                std::min<std::uint32_t>(d - 2, kMaxStack - 1);
            inner = ts->stack[slot].load(std::memory_order_relaxed);
        }
        hook(inner);
    }
}

Profiler &
Profiler::instance()
{
    static Profiler p;
    return p;
}

bool
Profiler::start(unsigned hz)
{
    ensureThreadState();  // the caller's thread always participates
    std::lock_guard<std::mutex> lk(gMu);
    if (gRunning)
        return false;
    if (!gHandlerInstalled) {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_sigaction = sigprofHandler;
        sa.sa_flags = SA_RESTART | SA_SIGINFO;
        sigemptyset(&sa.sa_mask);
        if (sigaction(SIGPROF, &sa, nullptr) != 0)
            return false;
        gHandlerInstalled = true;
    }
    resetTablesLocked();
    gHz = hz != 0 ? hz : kDefaultHz;
    bool any = false;
    for (ThreadState *ts : gThreads) {
        if (ts->alive)
            any = armTimer(ts, gHz) || any;
    }
    gRunning = true;
    return any;
}

void
Profiler::stop()
{
    std::lock_guard<std::mutex> lk(gMu);
    if (!gRunning)
        return;
    for (ThreadState *ts : gThreads)
        disarmTimer(ts);
    gRunning = false;
}

bool
Profiler::running() const
{
    std::lock_guard<std::mutex> lk(gMu);
    return gRunning;
}

void
Profiler::reset()
{
    std::lock_guard<std::mutex> lk(gMu);
    resetTablesLocked();
}

Snapshot
Profiler::snapshot() const
{
    std::lock_guard<std::mutex> lk(gMu);

    // Aggregate path keys across threads first: the same path on two
    // pool threads is one row.
    std::map<std::uint64_t, std::uint64_t> agg;
    Snapshot s;
    for (const ThreadState *ts : gThreads) {
        s.dropped += ts->dropped.load(std::memory_order_relaxed);
        for (std::size_t i = 0; i < kPathTableSize; ++i) {
            const std::uint64_t k =
                ts->pathKey[i].load(std::memory_order_relaxed);
            const std::uint64_t c =
                ts->pathCount[i].load(std::memory_order_relaxed);
            if (k != 0 && c != 0)
                agg[k] += c;
        }
    }

    std::map<std::string, std::uint64_t> leaf;
    for (const auto &[key, count] : agg) {
        PathCount p;
        p.count = count;
        std::uint8_t rev[8];
        int n = 0;
        for (std::uint64_t v = key; v > 1; v >>= 8)
            rev[n++] = static_cast<std::uint8_t>(v & 0xff);
        for (int i = n - 1; i >= 0; --i)
            p.ids.push_back(rev[i]);
        if (p.ids.empty()) {
            p.label = regionName(Region::None);
            s.untracked += count;
        } else {
            for (std::size_t i = 0; i < p.ids.size(); ++i) {
                if (i != 0)
                    p.label += ';';
                p.label += labelNoLock(p.ids[i]);
            }
        }
        s.samples += count;
        leaf[p.ids.empty() ? regionName(Region::None)
                           : labelNoLock(p.ids.back())] += count;
        s.paths.push_back(std::move(p));
    }

    std::sort(s.paths.begin(), s.paths.end(),
              [](const PathCount &a, const PathCount &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.label < b.label;
              });
    for (const auto &[label, count] : leaf)
        s.regions.push_back({label, count});
    std::sort(s.regions.begin(), s.regions.end(),
              [](const RegionCount &a, const RegionCount &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.label < b.label;
              });
    return s;
}

} // namespace prof
} // namespace obs
} // namespace lbp

#endif // LBP_PROF
