/**
 * @file
 * Unit tests for the support layer: deterministic RNG, histograms,
 * logging helpers.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "support/logging.hh"
#include "support/random.hh"
#include "support/stats.hh"

namespace lbp
{
namespace
{

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBelow(17), 17u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng r(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Histogram, BasicAccumulation)
{
    Histogram h;
    h.add(1, 2.0);
    h.add(3, 1.0);
    h.add(1, 1.0);
    EXPECT_DOUBLE_EQ(h.total(), 4.0);
    EXPECT_DOUBLE_EQ(h.mean(), (1 * 3.0 + 3 * 1.0) / 4.0);
    EXPECT_EQ(h.maxValue(), 3);
}

TEST(Histogram, Cdf)
{
    Histogram h;
    h.add(1, 1);
    h.add(2, 1);
    h.add(4, 2);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(0), 0.0);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(1), 0.25);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(2), 0.5);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(3), 0.5);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(4), 1.0);
    auto rows = h.cdf();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows.back().first, 4);
    EXPECT_DOUBLE_EQ(rows.back().second, 1.0);
}

TEST(Histogram, EmptyIsSafe)
{
    Histogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_DOUBLE_EQ(h.total(), 0);
    EXPECT_DOUBLE_EQ(h.mean(), 0);
    EXPECT_EQ(h.maxValue(), 0);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(5), 0);
}

TEST(Stats, Formatting)
{
    EXPECT_EQ(pct(0.5), "50.0%");
    EXPECT_EQ(pct(0.123, 2), "12.30%");
    EXPECT_EQ(fixed(1.5, 1), "1.5");
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({3.0, 3.0, 3.0}), 3.0, 1e-12);
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(LBP_FATAL("user error ", 42), std::runtime_error);
}

} // namespace
} // namespace lbp
