/**
 * @file
 * Unit and property tests for the util substrate: RNG, histograms,
 * tables, the stopwatch, thread pool, and formatting.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "digest.h"
#include "util/errors.h"
#include "util/format.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace buffalo::util {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_LT(equal, 3);
}

TEST(Rng, NextBoundedRejectsZero)
{
    Rng rng(1);
    EXPECT_THROW(rng.nextBounded(0), InvalidArgument);
}

/** Property: nextBounded stays in range for many bounds. */
class RngBoundedProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngBoundedProperty, StaysInRange)
{
    const std::uint64_t bound = GetParam();
    Rng rng(bound * 7919 + 1);
    for (int i = 0; i < 2000; ++i)
        EXPECT_LT(rng.nextBounded(bound), bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundedProperty,
                         ::testing::Values(1, 2, 3, 7, 10, 1000,
                                           1ull << 32, (1ull << 63)));

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(5);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.nextDouble();
        ASSERT_GE(x, 0.0);
        ASSERT_LT(x, 1.0);
        sum += x;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(9);
    double sum = 0.0, sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.nextGaussian();
        sum += x;
        sum2 += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sum2 / n, 1.0, 0.1);
}

TEST(Rng, NextInRangeInclusive)
{
    Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextInRange(-2, 2));
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_EQ(*seen.begin(), -2);
    EXPECT_EQ(*seen.rbegin(), 2);
}

/** Property: sampling without replacement yields distinct in-range ids. */
class RngSampleProperty
    : public ::testing::TestWithParam<std::pair<std::uint64_t,
                                                std::uint64_t>>
{
};

TEST_P(RngSampleProperty, DistinctAndInRange)
{
    const auto [population, count] = GetParam();
    Rng rng(population * 31 + count);
    auto picks = rng.sampleWithoutReplacement(population, count);
    EXPECT_EQ(picks.size(), std::min(population, count));
    std::set<std::uint64_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), picks.size());
    for (auto pick : picks)
        EXPECT_LT(pick, population);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RngSampleProperty,
    ::testing::Values(std::pair<std::uint64_t, std::uint64_t>{10, 3},
                      std::pair<std::uint64_t, std::uint64_t>{10, 10},
                      std::pair<std::uint64_t, std::uint64_t>{10, 20},
                      std::pair<std::uint64_t, std::uint64_t>{1000, 1},
                      std::pair<std::uint64_t, std::uint64_t>{1000, 999},
                      std::pair<std::uint64_t, std::uint64_t>{50000,
                                                              128}));

/**
 * Pinned output of Floyd's sampler, taken before it dropped its hash
 * set: the same draws must pick the same values in the same order.
 */
TEST(Rng, SampleWithoutReplacementIsPinned)
{
    Rng rng(2024);
    EXPECT_EQ(rng.sampleWithoutReplacement(100, 10),
              (std::vector<std::uint64_t>{47, 9, 53, 63, 3, 85, 44, 74,
                                          7, 24}));
    // Collision-heavy: most of the population is drawn.
    EXPECT_EQ(rng.sampleWithoutReplacement(30, 25),
              (std::vector<std::uint64_t>{4,  0,  6,  8,  1,  10, 5,
                                          9,  11, 14, 15, 16, 17, 18,
                                          19, 20, 21, 22, 3,  24, 25,
                                          26, 13, 28, 2}));

    // Larger draws, pinned by digest.
    testing_digest::Fnv h;
    h.vec(rng.sampleWithoutReplacement(5000, 1000));
    h.vec(rng.sampleWithoutReplacement(1u << 20, 200));
    h.vec(rng.sampleWithoutReplacement(64, 63));
    h.vec(rng.sampleWithoutReplacement(12, 12));
    EXPECT_EQ(h.value(), 0x9fdcc2a756874769ULL) << std::hex << h.value();
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(3);
    std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = values;
    rng.shuffle(values);
    std::sort(values.begin(), values.end());
    EXPECT_EQ(values, sorted);
}

TEST(Rng, ForkIsIndependent)
{
    Rng parent(77);
    Rng child = parent.fork();
    // Child stream should not replay the parent stream.
    Rng parent_copy(77);
    parent_copy.fork();
    int equal = 0;
    for (int i = 0; i < 50; ++i)
        if (child.next() == parent.next())
            ++equal;
    EXPECT_LT(equal, 3);
}

TEST(CounterStream, KeyedDrawsAndBoundedRange)
{
    // Draw n of a stream depends on its key alone; sub-stream i's key
    // is draw i + 1 of the parent stream.
    CounterStream a(5), b(5), other(6);
    std::vector<std::uint64_t> draws;
    for (int i = 0; i < 8; ++i) {
        draws.push_back(a.next());
        EXPECT_EQ(draws.back(), b.next());
        EXPECT_NE(draws.back(), other.next());
    }
    EXPECT_EQ(CounterStream::streamKey(5, 0), draws[0]);
    EXPECT_EQ(CounterStream::streamKey(5, 7), draws[7]);
    // Bounds near 2^64 take Lemire's rejection path often.
    for (const std::uint64_t bound :
         {1ULL, 2ULL, 3ULL, 7ULL, (1ULL << 32) + 1, (1ULL << 63) + 1,
          ~0ULL}) {
        CounterStream stream(bound);
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(stream.nextBounded(bound), bound);
    }
}

TEST(Histogram, LinearBinning)
{
    Histogram h = Histogram::linear(10.0, 5);
    h.add(0.5);
    h.add(3.0);
    h.add(9.9);
    h.add(100.0); // clamps into last bin
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bins()[0].count, 1u);
    EXPECT_EQ(h.bins()[1].count, 1u);
    EXPECT_EQ(h.bins()[4].count, 2u);
}

TEST(Histogram, LogBinningEdges)
{
    Histogram h = Histogram::logarithmic(16.0, 2.0);
    // bins: [0,1) [1,2) [2,4) [4,8) [8,16)
    ASSERT_EQ(h.bins().size(), 5u);
    h.add(0.0);
    h.add(1.0);
    h.add(3.0);
    h.add(8.0);
    EXPECT_EQ(h.bins()[0].count, 1u);
    EXPECT_EQ(h.bins()[1].count, 1u);
    EXPECT_EQ(h.bins()[2].count, 1u);
    EXPECT_EQ(h.bins()[4].count, 1u);
}

TEST(Histogram, WeightedMean)
{
    Histogram h = Histogram::linear(10, 10);
    h.addWeighted(2.0, 3);
    h.addWeighted(8.0, 1);
    EXPECT_DOUBLE_EQ(h.mean(), (2.0 * 3 + 8.0) / 4.0);
}

TEST(SummaryStats, BasicMoments)
{
    auto stats = SummaryStats::of({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(stats.min, 1.0);
    EXPECT_DOUBLE_EQ(stats.max, 4.0);
    EXPECT_DOUBLE_EQ(stats.mean, 2.5);
    EXPECT_NEAR(stats.stddev, 1.118, 1e-3);
}

TEST(SummaryStats, EmptyIsZero)
{
    auto stats = SummaryStats::of({});
    EXPECT_EQ(stats.mean, 0.0);
    EXPECT_EQ(stats.stddev, 0.0);
}

TEST(Table, RendersAlignedRows)
{
    Table table({"name", "value"});
    table.addRow({"alpha", "1"});
    table.addRow({"b", "23456"});
    const std::string text = table.render();
    EXPECT_NE(text.find("| alpha |"), std::string::npos);
    EXPECT_NE(text.find("| 23456 |"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(Table, RejectsWrongArity)
{
    Table table({"a", "b"});
    EXPECT_THROW(table.addRow({"only-one"}), InvalidArgument);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::count(1234567), "1,234,567");
    EXPECT_EQ(Table::count(-1000), "-1,000");
    EXPECT_EQ(Table::count(7), "7");
}

TEST(StopWatch, MovesForward)
{
    StopWatch watch;
    const double t1 = watch.seconds();
    const double t2 = watch.seconds();
    EXPECT_GE(t2, t1);
    watch.reset();
    EXPECT_LT(watch.seconds(), 1.0);
}

TEST(ThreadPool, ParallelForCoversRange)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(0, 1000,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange)
{
    ThreadPool pool(2);
    bool ran = false;
    pool.parallelFor(5, 5, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(0, 100,
                                  [&](std::size_t i) {
                                      if (i == 42)
                                          throw InvalidArgument("boom");
                                  }),
                 InvalidArgument);
}

TEST(ThreadPool, SubmitAndWait)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 50; ++i)
        pool.submit([&] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 50);
}

TEST(Format, Bytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(1536), "1.50 KB");
    EXPECT_EQ(formatBytes(gib(24)), "24.00 GB");
}

TEST(Format, Percent)
{
    EXPECT_EQ(formatPercent(0.709), "70.9%");
    EXPECT_EQ(formatPercent(1.0, 0), "100%");
}

TEST(Format, Seconds)
{
    EXPECT_EQ(formatSeconds(0.5e-4), "50.0 us");
    EXPECT_EQ(formatSeconds(0.05), "50.00 ms");
    EXPECT_EQ(formatSeconds(2.5), "2.50 s");
}

TEST(Errors, CheckHelpers)
{
    EXPECT_NO_THROW(checkArgument(true, "fine"));
    EXPECT_THROW(checkArgument(false, "bad arg"), InvalidArgument);
    EXPECT_THROW(checkInternal(false, "bug"), InternalError);
}

} // namespace
} // namespace buffalo::util
