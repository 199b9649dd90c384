/**
 * @file
 * Concurrency tests for the obs registry under worker threads — the
 * target of the TSan pass in scripts/check.sh. The Registry itself is
 * deliberately not thread-safe (metrics are plain fields on the sim's
 * hot path), so the supported concurrent pattern is: create every
 * metric up front on one thread, then let workers mutate *disjoint*
 * metrics lock-free and share a mutex only for metrics they actually
 * share. These tests exercise exactly that pattern; under
 * -fsanitize=thread they prove the pattern (and the start/join
 * handoff) race-free.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hh"

namespace lbp
{
namespace
{

TEST(ObsConcurrency, DisjointCountersAcrossPool)
{
    obs::Registry reg;
    constexpr int kWorkers = 8;
    constexpr std::uint64_t kIncs = 10000;

    // Creation phase, single-threaded: find-or-create mutates the
    // registry's map, so it must finish before workers start.
    std::vector<obs::Counter *> counters;
    for (int w = 0; w < kWorkers; ++w)
        counters.push_back(
            &reg.counter("worker." + std::to_string(w) + ".ops"));

    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
        obs::Counter *c = counters[w];
        workers.emplace_back([c] {
            for (std::uint64_t i = 0; i < kIncs; ++i)
                c->inc();
        });
    }
    for (auto &t : workers)
        t.join();

    for (int w = 0; w < kWorkers; ++w)
        EXPECT_EQ(counters[w]->value(), kIncs);
}

TEST(ObsConcurrency, SharedHistogramUnderMutex)
{
    obs::Registry reg;
    constexpr int kWorkers = 8;
    constexpr int kSamples = 2000;

    Histogram &hist = reg.histogram("latency");
    obs::Gauge &level = reg.gauge("level");
    std::mutex mu;

    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w)
        workers.emplace_back([&hist, &level, &mu, w] {
            for (int i = 0; i < kSamples; ++i) {
                std::lock_guard<std::mutex> lock(mu);
                hist.add(w);
                level.add(1.0);
            }
        });
    for (auto &t : workers)
        t.join();

    EXPECT_DOUBLE_EQ(hist.total(), double(kWorkers) * kSamples);
    EXPECT_EQ(hist.maxValue(), kWorkers - 1);
    EXPECT_DOUBLE_EQ(level.value(), double(kWorkers) * kSamples);

    // Every worker value landed exactly kSamples times.
    for (int w = 0; w < kWorkers; ++w)
        EXPECT_DOUBLE_EQ(hist.bins().at(w), double(kSamples));
}

TEST(ObsConcurrency, WaitIsABarrierForResults)
{
    // Waiting on the workers (join) must publish every worker's
    // writes to the starting thread; repeated rounds cover many
    // start/join transitions.
    obs::Registry reg;
    obs::Counter &total = reg.counter("rounds.total");

    std::uint64_t expected = 0;
    for (int round = 0; round < 20; ++round) {
        std::mutex mu;
        std::vector<std::thread> workers;
        for (int t = 0; t < 4; ++t)
            workers.emplace_back([&total, &mu] {
                std::lock_guard<std::mutex> lock(mu);
                total.inc();
            });
        for (auto &t : workers)
            t.join();
        expected += 4;
        EXPECT_EQ(total.value(), expected);
    }
}

} // namespace
} // namespace lbp
