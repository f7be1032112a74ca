#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> values;
    for (std::size_t i = 1; i <= n; ++i)
        values.push_back(static_cast<double>(i));
    return values;
}

TEST(TailPercentile, TooFewSamplesGiveNoTail)
{
    const TailPick pick = tailPercentile(ramp(19));
    EXPECT_EQ(pick.percentile, 0.0);
    EXPECT_EQ(pick.beyond, 0u);
    EXPECT_EQ(tailPercentile({}).percentile, 0.0);
}

TEST(TailPercentile, KeepsExactlyTenBeyond)
{
    // n = 20: the 11th largest is the median rank, p50.
    TailPick pick = tailPercentile(ramp(20));
    EXPECT_EQ(pick.percentile, 50.0);
    EXPECT_EQ(pick.beyond, 10u);
    EXPECT_EQ(pick.value, 10.0);

    // n = 100: p90, the value 90 with 91..100 beyond it.
    pick = tailPercentile(ramp(100));
    EXPECT_EQ(pick.percentile, 90.0);
    EXPECT_EQ(pick.beyond, 10u);
    EXPECT_EQ(pick.value, 90.0);

    // n = 64 (not a round percentile): p84.375.
    pick = tailPercentile(ramp(64));
    EXPECT_DOUBLE_EQ(pick.percentile, 84.375);
    EXPECT_EQ(pick.value, 54.0);

    EXPECT_EQ(tailPercentile(ramp(1000)).percentile, 99.0);
}

TEST(TailPercentile, IgnoresInputOrderAndHonoursMinBeyond)
{
    std::vector<double> values = ramp(40);
    std::reverse(values.begin(), values.end());
    const TailPick pick = tailPercentile(values, 4);
    EXPECT_EQ(pick.percentile, 90.0);
    EXPECT_EQ(pick.beyond, 4u);
    EXPECT_EQ(pick.value, 36.0);
}

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(MedianWindowRate, MedianOfWindowRatesIgnoresOneSlowWindow)
{
    // Six steps of 10 items in 5 windows: sizes 1,1,1,1,2. The steps
    // take 1 s except step 2, a 10 s stall, so the window rates are
    // 10, 10, 1, 10, 10 and their median is 10.
    const std::vector<double> seconds = {1, 1, 10, 1, 1, 1};
    const std::vector<double> items(6, 10.0);
    EXPECT_EQ(medianWindowRate(seconds, items, 5), 10.0);
    // One window is plain total items over total seconds.
    EXPECT_DOUBLE_EQ(medianWindowRate(seconds, items, 1), 60.0 / 15.0);
    // Fewer steps than windows: every step is its own window.
    EXPECT_EQ(medianWindowRate({2.0, 4.0}, {8.0, 8.0}, 5), 3.0);
    EXPECT_THROW(medianWindowRate({1.0}, {}, 5), InvalidArgument);
}

TEST(MetricNames, CharacterSet)
{
    EXPECT_TRUE(validMetricName("batch_p50_ms"));
    EXPECT_TRUE(validMetricName("sampling.ms_per_batch"));
    EXPECT_TRUE(validMetricName("a-B.9_z"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("seeds per s"));
    EXPECT_FALSE(validMetricName("rate/s"));
    EXPECT_FALSE(validMetricName("x\"y"));
}

TEST(MetricNames, ReportRejectsBadDuplicateAndNonFinite)
{
    Report report;
    report.add("setup_s", 1.5, "s");
    EXPECT_THROW(report.add("setup_s", 2.0, "s"), InvalidArgument);
    EXPECT_THROW(report.add("bad name", 1.0, "s"), InvalidArgument);
    EXPECT_THROW(report.add("nan_metric", std::nan(""), "s"),
                 InvalidArgument);
    EXPECT_EQ(report.json(true, 3, 0),
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": "
              "\"s\"}}}");
}

std::vector<graph::NodeList>
batchesFor(const graph::Dataset &data, std::uint64_t seed,
           std::size_t count)
{
    util::Rng rng(batchSeed(seed));
    BatchStream stream(data, 32, rng);
    return stream.next(count);
}

TEST(Batches, SameSeedSameBatchesOtherSeedOthers)
{
    const graph::Dataset data =
        graph::loadDataset(graph::DatasetId::Cora, 7, 0.25);
    // More batches than one epoch holds, so the reshuffle is covered.
    const std::size_t count = data.trainNodes().size() / 32 + 4;
    const std::vector<graph::NodeList> batches = batchesFor(data, 1, count);
    EXPECT_EQ(batches, batchesFor(data, 1, count));
    EXPECT_NE(batches, batchesFor(data, 2, count));
    for (const graph::NodeList &batch : batches)
        EXPECT_EQ(batch.size(), 32u); // the short tail batch is dropped
}

TEST(Batches, SameSeedSameDataset)
{
    const graph::Dataset a =
        graph::loadDataset(graph::DatasetId::Cora, 3, 0.25);
    const graph::Dataset b =
        graph::loadDataset(graph::DatasetId::Cora, 3, 0.25);
    const graph::Dataset c =
        graph::loadDataset(graph::DatasetId::Cora, 4, 0.25);
    EXPECT_EQ(a.trainNodes(), b.trainNodes());
    EXPECT_EQ(a.labels(), b.labels());
    EXPECT_NE(a.trainNodes(), c.trainNodes());
}

TEST(Workloads, ThreadCountsAndDepthArePinned)
{
    ASSERT_EQ(workloads().size(), 3u);
    for (const Workload &w : workloads()) {
        EXPECT_GE(w.kernel_threads, 1u) << w.name;
        EXPECT_GE(w.warmup_steps, 1) << w.name;
        EXPECT_TRUE(validMetricName(w.name)) << w.name;
        if (w.pipelined) {
            EXPECT_GE(w.prefetch_depth, 1) << w.name;
            EXPECT_GE(w.epoch_batches, 1u) << w.name;
        }
    }
    EXPECT_THROW(workloadByName("serve"), NotFound);
}

} // namespace
} // namespace perfbench
