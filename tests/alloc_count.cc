/**
 * @file
 * Heap allocations made by the compile pipeline. The global operator
 * new is replaced with a counting one; each registry workload is
 * compiled once at each level (22 compiles) and the calls are
 * attributed to the stage that made them, using the pipeline's stage
 * hook. Prints a table and fails if the total exceeds the budget.
 *
 * Not built under the sanitizers: they replace operator new
 * themselves.
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <string>

#include "core/compiler.hh"
#include "workloads/registry.hh"

namespace
{

/** operator new calls since start-up. */
std::uint64_t gAllocs = 0;

void *
countedAlloc(std::size_t n)
{
    ++gAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    ++gAllocs;
    const auto a = static_cast<std::size_t>(al);
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

/** Calls to the end of the last stage the hook saw. */
std::uint64_t gMark = 0;
/** Calls per stage, over all compiles. */
std::map<std::string, std::uint64_t> *gPerStage = nullptr;

/** Budget for the 22 compiles, calls to operator new. */
constexpr std::uint64_t kBudget = 300'000;

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *operator new(std::size_t n, std::align_val_t a)
{ return countedAlignedAlloc(n, a); }
void *operator new[](std::size_t n, std::align_val_t a)
{ return countedAlignedAlloc(n, a); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{ std::free(p); }
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{ std::free(p); }

int
main()
{
    using namespace lbp;
    std::map<std::string, std::uint64_t> perStage;
    gPerStage = &perStage;
    // The hook runs after each of stages 02-11; what a stage's row
    // counts starts where the previous row ended, so "02_inline"
    // includes 01_profile and copying the input.
    // The table's own bookkeeping is not counted.
    setStageHookForTest([](const char *stage, Program &) {
        const std::uint64_t now = gAllocs;
        (*gPerStage)[stage] += now - gMark;
        gMark = gAllocs;
    });

    const std::string rest = "12_reprofile..15_buffer_alloc, result";
    for (const auto &w : workloads::allWorkloads()) {
        const Program input = workloads::buildWorkload(w.name);
        for (OptLevel lvl : {OptLevel::Traditional, OptLevel::Aggressive}) {
            gMark = gAllocs;
            {
                CompileOptions opts;
                opts.level = lvl;
                CompileResult cr;
                compileProgram(input, opts, cr);
            }
            const std::uint64_t now = gAllocs;
            perStage[rest] += now - gMark;
        }
    }
    setStageHookForTest(nullptr);

    std::uint64_t total = 0;
    for (const auto &[stage, n] : perStage)
        total += n;

    std::printf("%-42s %10s\n", "stage", "allocs");
    for (const auto &[stage, n] : perStage)
        std::printf("%-42s %10llu\n", stage.c_str(),
                    static_cast<unsigned long long>(n));
    std::printf("%-42s %10llu (budget %llu)\n", "total",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(kBudget));
    if (total > kBudget) {
        std::printf("FAIL: the registry compiles exceed the allocation "
                    "budget\n");
        return 1;
    }
    return 0;
}
