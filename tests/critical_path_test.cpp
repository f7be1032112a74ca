/**
 * @file
 * Tests for the critical-path analyzer (DESIGN.md, "Critical-path
 * attribution"): synthetic span chains with hand-computed critical
 * paths, the what-if pipeline recurrence, and the trace/run-log
 * ingestion used by tools/buffalo_profile.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/critical_path.h"
#include "obs/json.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace buffalo::obs {
namespace {

CpSpan
span(const char *stage, std::uint64_t item, double start_us,
     double end_us)
{
    CpSpan s;
    s.stage = stage;
    s.item = item;
    s.start_us = start_us;
    s.end_us = end_us;
    return s;
}

const CpStageReport &
stageReport(const CriticalPathReport &report, const std::string &name)
{
    for (const CpStageReport &sr : report.stages)
        if (sr.stage == name)
            return sr;
    throw std::runtime_error("missing stage " + name);
}

// ---------------------------------------------------------------------
// analyzeCriticalPath on hand-built chains

TEST(CriticalPath, EmptyAndUnattributedInputsYieldEmptyReport)
{
    EXPECT_EQ(analyzeCriticalPath({}).items, 0u);
    // item == 0 means "not attributed to any chain" — ignored.
    const CriticalPathReport report =
        analyzeCriticalPath({span("a", 0, 0.0, 10.0)});
    EXPECT_EQ(report.items, 0u);
    EXPECT_EQ(report.spans, 0u);
    EXPECT_EQ(report.wall_us, 0.0);
}

TEST(CriticalPath, SerialChainSelfTimesEqualBusyTimes)
{
    // One item through three stages back to back: every span is on
    // the critical path for exactly its own duration, no idle.
    const CriticalPathReport report = analyzeCriticalPath(
        {span("a", 1, 0.0, 10.0), span("b", 1, 10.0, 30.0),
         span("c", 1, 30.0, 60.0)});
    EXPECT_EQ(report.items, 1u);
    EXPECT_EQ(report.spans, 3u);
    EXPECT_EQ(report.incomplete_items, 0u);
    EXPECT_DOUBLE_EQ(report.wall_us, 60.0);
    EXPECT_DOUBLE_EQ(report.serial_us, 60.0);
    EXPECT_DOUBLE_EQ(report.idle_us, 0.0);
    EXPECT_DOUBLE_EQ(report.overlap_efficiency, 1.0);
    EXPECT_DOUBLE_EQ(stageReport(report, "a").cp_self_us, 10.0);
    EXPECT_DOUBLE_EQ(stageReport(report, "b").cp_self_us, 20.0);
    EXPECT_DOUBLE_EQ(stageReport(report, "c").cp_self_us, 30.0);
    EXPECT_EQ(report.dominant_stage, "c");
    EXPECT_DOUBLE_EQ(report.dominant_share, 0.5);
    // Self times are also each stage's busy time here.
    for (const CpStageReport &sr : report.stages)
        EXPECT_DOUBLE_EQ(sr.cp_self_us, sr.busy_us);
}

TEST(CriticalPath, PerfectlyOverlappedPipelineChargesDownstream)
{
    // Stage a produces item i over [i, i+1]; stage b consumes it over
    // [i+1, i+2]. The critical path is a's first span plus every b
    // span: self(a) = 1, self(b) = n, wall = n + 1, idle = 0.
    constexpr int kItems = 4;
    std::vector<CpSpan> spans;
    for (int i = 0; i < kItems; ++i) {
        const double t = static_cast<double>(i);
        spans.push_back(span("a", i + 1, t, t + 1.0));
        spans.push_back(span("b", i + 1, t + 1.0, t + 2.0));
    }
    CpOptions options;
    options.stage_order = {"a", "b"};
    const CriticalPathReport report =
        analyzeCriticalPath(spans, options);
    EXPECT_EQ(report.items, static_cast<std::size_t>(kItems));
    EXPECT_DOUBLE_EQ(report.wall_us, kItems + 1.0);
    EXPECT_DOUBLE_EQ(report.serial_us, 2.0 * kItems);
    EXPECT_DOUBLE_EQ(report.idle_us, 0.0);
    ASSERT_EQ(report.stages.size(), 2u);
    EXPECT_EQ(report.stages[0].stage, "a");
    EXPECT_DOUBLE_EQ(report.stages[0].cp_self_us, 1.0);
    EXPECT_DOUBLE_EQ(report.stages[1].cp_self_us,
                     static_cast<double>(kItems));
    EXPECT_EQ(report.dominant_stage, "b");
    EXPECT_DOUBLE_EQ(report.dominant_share,
                     kItems / (kItems + 1.0));
    EXPECT_DOUBLE_EQ(report.overlap_efficiency, 1.0);
    EXPECT_DOUBLE_EQ(report.avg_concurrency,
                     2.0 * kItems / (kItems + 1.0));
    // With every stage fully busy the perfect-overlap bound equals
    // the measured wall: no headroom, speedup exactly 1.
    ASSERT_FALSE(report.whatifs.empty());
    EXPECT_EQ(report.whatifs[0].name, "perfect_overlap");
    EXPECT_DOUBLE_EQ(report.whatifs[0].wall_us, kItems + 1.0);
    EXPECT_DOUBLE_EQ(report.whatifs[0].speedup, 1.0);
}

TEST(CriticalPath, InferredStageOrderMatchesChainPositions)
{
    // No configured order: "a" always precedes "b" within each item's
    // chain, so the inferred pipeline order is [a, b].
    std::vector<CpSpan> spans;
    for (int i = 0; i < 3; ++i) {
        const double t = static_cast<double>(i);
        spans.push_back(span("b", i + 1, t + 1.0, t + 2.0));
        spans.push_back(span("a", i + 1, t, t + 1.0));
    }
    const CriticalPathReport report = analyzeCriticalPath(spans);
    ASSERT_EQ(report.stages.size(), 2u);
    EXPECT_EQ(report.stages[0].stage, "a");
    EXPECT_EQ(report.stages[1].stage, "b");
}

TEST(CriticalPath, MissingStageMarksItemIncomplete)
{
    // Item 2 lost its "b" span (ring overwrite): it cannot form a
    // full chain, and the report says so instead of silently
    // under-attributing.
    const CriticalPathReport report = analyzeCriticalPath(
        {span("a", 1, 0.0, 1.0), span("b", 1, 1.0, 2.0),
         span("a", 2, 1.0, 2.0)});
    EXPECT_EQ(report.items, 2u);
    EXPECT_EQ(report.incomplete_items, 1u);
}

TEST(CriticalPath, SelfTimesPlusIdleAlwaysSumToWall)
{
    // A staggered, gappy schedule: exact decomposition is fiddly by
    // hand, but the invariant sum(self) + idle == wall must hold.
    const CriticalPathReport report = analyzeCriticalPath(
        {span("a", 1, 0.0, 4.0), span("b", 1, 9.0, 12.0),
         span("a", 2, 5.0, 7.0), span("b", 2, 12.0, 20.0),
         span("a", 3, 7.0, 8.0), span("b", 3, 25.0, 30.0)});
    double self_sum = 0.0;
    for (const CpStageReport &sr : report.stages)
        self_sum += sr.cp_self_us;
    EXPECT_NEAR(self_sum + report.idle_us, report.wall_us, 1e-9);
    EXPECT_GT(report.idle_us, 0.0); // the gaps are visible
    EXPECT_LT(report.overlap_efficiency, 1.0);
}

// ---------------------------------------------------------------------
// What-if bounds

TEST(CriticalPath, WhatIfRecurrenceMatchesHandComputation)
{
    // Three items through [a, b, c] with durations [1, 5, 1] each;
    // stage b dominates. Pipeline recurrence by hand:
    //   item 1: a=1, b=6,  c=7
    //   item 2: a=2, b=11, c=12
    //   item 3: a=3, b=16, c=17    -> wall 17 s
    // blockgen_2x (b scaled 0.5): b durations 2.5:
    //   item 1: a=1, b=3.5, c=4.5
    //   item 2: a=2, b=6,   c=7
    //   item 3: a=3, b=8.5, c=9.5  -> wall 9.5 s
    CpOptions options;
    options.build_stage = "b";
    const CriticalPathReport report = analyzeModeledPipeline(
        {"a", "b", "c"},
        {{1.0, 5.0, 1.0}, {1.0, 5.0, 1.0}, {1.0, 5.0, 1.0}},
        options);
    EXPECT_DOUBLE_EQ(report.wall_us, 17e6);
    EXPECT_DOUBLE_EQ(stageReport(report, "a").cp_self_us, 1e6);
    EXPECT_DOUBLE_EQ(stageReport(report, "b").cp_self_us, 15e6);
    EXPECT_DOUBLE_EQ(stageReport(report, "c").cp_self_us, 1e6);
    EXPECT_EQ(report.dominant_stage, "b");
    EXPECT_NEAR(report.dominant_share, 15.0 / 17.0, 1e-12);
    EXPECT_DOUBLE_EQ(report.idle_us, 0.0);

    ASSERT_EQ(report.whatifs.size(), 3u);
    EXPECT_EQ(report.whatifs[0].name, "perfect_overlap");
    EXPECT_DOUBLE_EQ(report.whatifs[0].wall_us, 17e6);
    EXPECT_EQ(report.whatifs[1].name, "blockgen_2x");
    EXPECT_DOUBLE_EQ(report.whatifs[1].wall_us, 9.5e6);
    EXPECT_NEAR(report.whatifs[1].speedup, 17.0 / 9.5, 1e-12);
    EXPECT_EQ(report.whatifs[2].name, "blockgen_4x");
}

TEST(CriticalPath, PipelineTimelineWindowHandComputation)
{
    // Three items through {prep, device}: prep [1, 1, 10], device
    // [10, 1, 1].
    //   window 1 (one item in flight, fully serial): 11 + 2 + 11 = 24
    //   window 2: item 2's prep waits for item 0's device (ends 11),
    //             so it runs 11-21 and its device 21-22
    //   no window: item 2's prep runs 2-12, its device 12-13
    const std::vector<std::vector<double>> rows = {
        {1.0, 10.0}, {1.0, 1.0}, {10.0, 1.0}};
    EXPECT_EQ(pipelineTimeline(rows, 2, 1).wall(), 24.0);
    EXPECT_EQ(pipelineTimeline(rows, 2, 2).wall(), 22.0);
    EXPECT_EQ(pipelineTimeline(rows, 2).wall(), 13.0);

    const PipelineTimeline windowed = pipelineTimeline(rows, 2, 2);
    ASSERT_EQ(windowed.start.size(), 6u);
    EXPECT_EQ(windowed.start[4], 11.0); // item 2, prep
    EXPECT_EQ(windowed.end[4], 21.0);
    EXPECT_EQ(windowed.start[5], 21.0); // item 2, device
    EXPECT_EQ(pipelineTimeline({}, 2, 2).wall(), 0.0);
}

TEST(CriticalPath, ModeledPipelineAppliesTheQueueWindow)
{
    // The rows of PipelineTimelineWindowHandComputation: window 2
    // gives a wall of 22, no window 13. The what-ifs stay unwindowed,
    // so perfect_overlap prices the queue capacity at 22/13. Walking
    // back from item 2's device span: device 21-22 (self 1), item 2's
    // prep 11-21 (self 10), then 2-11 idle while it waited on the
    // window, then items 1 and 0's prep (self 1 each).
    const std::vector<std::vector<double>> rows = {
        {1.0, 10.0}, {1.0, 1.0}, {10.0, 1.0}};
    const CriticalPathReport report = analyzeModeledPipeline(
        {"prep", "device"}, rows, CpOptions{}, 2);
    EXPECT_DOUBLE_EQ(report.wall_us, 22e6);
    EXPECT_DOUBLE_EQ(report.serial_us, 24e6);
    EXPECT_DOUBLE_EQ(stageReport(report, "prep").cp_self_us, 12e6);
    EXPECT_DOUBLE_EQ(stageReport(report, "device").cp_self_us, 1e6);
    EXPECT_DOUBLE_EQ(report.idle_us, 9e6);

    ASSERT_EQ(report.whatifs.size(), 1u);
    EXPECT_EQ(report.whatifs[0].name, "perfect_overlap");
    EXPECT_DOUBLE_EQ(report.whatifs[0].wall_us, 13e6);
    EXPECT_NEAR(report.whatifs[0].speedup, 22.0 / 13.0, 1e-12);

    // Window 0 is the unwindowed model: perfect_overlap equals it.
    const CriticalPathReport open =
        analyzeModeledPipeline({"prep", "device"}, rows);
    EXPECT_DOUBLE_EQ(open.wall_us, 13e6);
    EXPECT_DOUBLE_EQ(open.whatifs[0].wall_us, 13e6);
}

TEST(CriticalPath, PipelineTimelineWindowTwoIsTheLockstepFormula)
{
    // Reference: the lockstep form of a two-deep prefetch (prepare
    // item k+1 while the device runs item k),
    //   p[0] + sum_k max(p[k+1], d[k]) + d[n-1].
    // The recurrence with a 2-item window must equal it bit for bit,
    // for any durations.
    auto lockstep = [](const std::vector<std::vector<double>> &rows) {
        double overlapped = rows.empty() ? 0.0 : rows.front()[0];
        for (std::size_t i = 0; i + 1 < rows.size(); ++i)
            overlapped += std::max(rows[i + 1][0], rows[i][1]);
        if (!rows.empty())
            overlapped += rows.back()[1];
        return overlapped;
    };
    util::Rng rng(2024);
    auto duration = [&] {
        // Zeros, ties and values across eight decades.
        switch (rng.nextBounded(4)) {
        case 0:
            return 0.0;
        case 1:
            return 1.0;
        default:
            return rng.nextDouble() *
                   std::pow(10.0, static_cast<double>(
                                      rng.nextBounded(8)) -
                                      6.0);
        }
    };
    for (int trial = 0; trial < 20000; ++trial) {
        std::vector<std::vector<double>> rows(rng.nextBounded(12));
        for (std::vector<double> &row : rows)
            row = {duration(), duration()};
        const double expected = lockstep(rows);
        const double got = pipelineTimeline(rows, 2, 2).wall();
        ASSERT_EQ(std::memcmp(&got, &expected, sizeof(double)), 0)
            << "trial " << trial << ": " << got << " vs " << expected;
    }
}

TEST(CriticalPath, ZeroCacheMissBoundScalesFeatureStage)
{
    // One item, feature stage f of 10 us at hit rate 0.5 and
    // kappa 0.25: scale = 0.25 / (0.5 + 0.5 * 0.25) = 0.4, so the
    // modeled wall is 10 + 10 * 0.4 = 14 us.
    CpOptions options;
    options.stage_order = {"a", "f"};
    options.feature_stage = "f";
    options.cache_hit_rate = 0.5;
    const CriticalPathReport report = analyzeCriticalPath(
        {span("a", 1, 0.0, 10.0), span("f", 1, 10.0, 20.0)},
        options);
    ASSERT_EQ(report.whatifs.size(), 2u);
    EXPECT_EQ(report.whatifs[1].name, "zero_cache_miss");
    EXPECT_NEAR(report.whatifs[1].wall_us, 14.0, 1e-9);
    EXPECT_NEAR(report.whatifs[1].speedup, 20.0 / 14.0, 1e-12);

    // Unknown hit rate (< 0): the bound is skipped, not fabricated.
    options.cache_hit_rate = -1.0;
    const CriticalPathReport no_cache = analyzeCriticalPath(
        {span("a", 1, 0.0, 10.0), span("f", 1, 10.0, 20.0)},
        options);
    ASSERT_EQ(no_cache.whatifs.size(), 1u);
    EXPECT_EQ(no_cache.whatifs[0].name, "perfect_overlap");
}

TEST(CriticalPath, ZeroCacheMissScaleEndpoints)
{
    EXPECT_DOUBLE_EQ(zeroCacheMissScale(0.0), 0.25);
    EXPECT_DOUBLE_EQ(zeroCacheMissScale(1.0), 1.0);
    EXPECT_NEAR(zeroCacheMissScale(0.5), 0.4, 1e-12);
    // Out-of-range rates clamp instead of producing nonsense scales.
    EXPECT_DOUBLE_EQ(zeroCacheMissScale(1.5), 1.0);
    EXPECT_DOUBLE_EQ(zeroCacheMissScale(-0.5), 0.25);
    EXPECT_DOUBLE_EQ(zeroCacheMissScale(0.0, 0.1), 0.1);
}

TEST(CriticalPath, OverlapEfficiencyCappedAndGuarded)
{
    EXPECT_DOUBLE_EQ(overlapEfficiency(2.0, 4.0), 0.5);
    EXPECT_DOUBLE_EQ(overlapEfficiency(8.0, 4.0), 1.0);
    EXPECT_DOUBLE_EQ(overlapEfficiency(0.0, 4.0), 0.0);
    EXPECT_DOUBLE_EQ(overlapEfficiency(4.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(overlapEfficiency(-1.0, 4.0), 0.0);
}

// ---------------------------------------------------------------------
// Trace / run-log ingestion (the buffalo_profile input path)

TEST(CriticalPath, TraceRoundTripThroughTracerJson)
{
    // Record an item-attributed pipeline with a private tracer,
    // export the Chrome JSON, reload it, and re-derive the critical
    // path: what buffalo_profile does offline.
    Tracer tracer;
    tracer.enable();
    for (int i = 0; i < 3; ++i) {
        const double t = 10.0 * i;
        tracer.record(names::kSpanPipelineSample, t, 10.0,
                      static_cast<std::uint64_t>(i) + 1);
        tracer.record(names::kSpanTrainIteration, t + 10.0, 10.0,
                      static_cast<std::uint64_t>(i) + 1);
    }
    tracer.record("untracked", 0.0, 5.0); // no item -> skipped
    tracer.disable();

    const std::string path =
        ::testing::TempDir() + "/buffalo_cp_roundtrip_trace.json";
    tracer.writeJson(path);
    const std::vector<CpSpan> spans = loadTraceSpans(path);
    std::remove(path.c_str());
    ASSERT_EQ(spans.size(), 6u); // the unattributed span is gone

    CpOptions options;
    options.stage_order = {names::kSpanPipelineSample,
                           names::kSpanTrainIteration};
    const CriticalPathReport report =
        analyzeCriticalPath(spans, options);
    EXPECT_EQ(report.items, 3u);
    EXPECT_EQ(report.incomplete_items, 0u);
    EXPECT_DOUBLE_EQ(report.wall_us, 40.0);
    EXPECT_DOUBLE_EQ(
        stageReport(report, names::kSpanPipelineSample).cp_self_us,
        10.0);
    EXPECT_DOUBLE_EQ(
        stageReport(report, names::kSpanTrainIteration).cp_self_us,
        30.0);
    EXPECT_EQ(report.dominant_stage, names::kSpanTrainIteration);
}

TEST(CriticalPath, CacheHitRateComesFromLastSnapshot)
{
    const std::string path =
        ::testing::TempDir() + "/buffalo_cp_runlog.jsonl";
    std::string log;
    log += "not json at all\n";
    log += "{\"ev\":\"run.begin\",\"tool\":\"test\"}\n";
    log += "{\"ev\":\"" + std::string(names::kEvCacheSnapshot) +
           "\",\"hit_rate\":0.25}\n";
    log += "{\"ev\":\"" + std::string(names::kEvCacheSnapshot) +
           "\",\"hit_rate\":0.75}\n";
    writeFileText(path, log);
    EXPECT_DOUBLE_EQ(cacheHitRateFromRunLog(path), 0.75);

    // A log without any snapshot reports "unknown", not 0.
    writeFileText(path, "{\"ev\":\"run.begin\"}\n");
    EXPECT_DOUBLE_EQ(cacheHitRateFromRunLog(path), -1.0);
    std::remove(path.c_str());
}

} // namespace
} // namespace buffalo::obs
