/**
 * @file
 * Tests for the observability layer: metric primitives under
 * concurrency, reservoir-histogram percentile exactness, tracer ring
 * semantics, and the JSON schema round-trips the obs_validate CI tool
 * relies on.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.h"
#include "obs/flush.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "phase_times.h"
#include "util/errors.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace buffalo::obs {
namespace {

// ---------------------------------------------------------------------
// Metrics

TEST(Metrics, CountersAreExactUnderParallelFor)
{
    MetricsRegistry registry;
    util::ThreadPool pool(8);
    constexpr std::size_t kIters = 10000;
    pool.parallelFor(0, kIters, [&](std::size_t i) {
        registry.counter("test.iterations").add();
        registry.counter("test.bytes").add(i);
        registry.gauge("test.high_water")
            .setMax(static_cast<double>(i));
        registry.histogram("test.values")
            .add(static_cast<double>(i));
    });
    EXPECT_EQ(registry.counter("test.iterations").value(), kIters);
    EXPECT_EQ(registry.counter("test.bytes").value(),
              kIters * (kIters - 1) / 2);
    EXPECT_EQ(registry.gauge("test.high_water").value(),
              static_cast<double>(kIters - 1));
    EXPECT_EQ(registry.histogram("test.values").count(), kIters);
}

TEST(Metrics, HandlesAreStableAcrossLookups)
{
    MetricsRegistry registry;
    Counter &a = registry.counter("stable");
    // Force rebalancing churn around the first registration.
    for (int i = 0; i < 100; ++i)
        registry.counter("churn." + std::to_string(i)).add();
    Counter &b = registry.counter("stable");
    EXPECT_EQ(&a, &b);
}

TEST(Metrics, GaugeSetMaxNeverLowers)
{
    Gauge gauge;
    gauge.setMax(5.0);
    gauge.setMax(3.0);
    EXPECT_EQ(gauge.value(), 5.0);
    gauge.set(1.0); // plain set may lower
    EXPECT_EQ(gauge.value(), 1.0);
}

TEST(Metrics, ResetZeroesButKeepsRegistrations)
{
    MetricsRegistry registry;
    Counter &c = registry.counter("will.reset");
    c.add(7);
    registry.histogram("hist.reset").add(1.0);
    registry.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(registry.histogram("hist.reset").count(), 0u);
    EXPECT_EQ(&registry.counter("will.reset"), &c);
}

// ---------------------------------------------------------------------
// Histogram percentiles

TEST(Histogram, PercentilesExactBelowCapacity)
{
    ReservoirHistogram hist(2048);
    // 1..1000 inserted in a scrambled order: below capacity the
    // reservoir holds every observation, so percentiles are exact
    // linear interpolations over 1..1000.
    std::vector<double> values;
    for (int i = 1; i <= 1000; ++i)
        values.push_back(static_cast<double>(i));
    std::mt19937_64 shuffle(123);
    std::shuffle(values.begin(), values.end(), shuffle);
    for (const double v : values)
        hist.add(v);

    const HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, 1000u);
    EXPECT_EQ(snap.min, 1.0);
    EXPECT_EQ(snap.max, 1000.0);
    EXPECT_DOUBLE_EQ(snap.mean, 500.5);
    // percentile p interpolates at rank p/100*(n-1): exact values.
    EXPECT_NEAR(snap.p50, 500.5, 1e-9);
    EXPECT_NEAR(snap.p95, 950.05, 1e-9);
    EXPECT_NEAR(snap.p99, 990.01, 1e-9);
    EXPECT_NEAR(snap.p999, 999.001, 1e-9);
    // Population stddev of 1..n: sqrt((n^2 - 1) / 12).
    EXPECT_NEAR(snap.stddev, 288.6749902572095, 1e-6);
    EXPECT_NEAR(hist.percentile(0.0), 1.0, 1e-12);
    EXPECT_NEAR(hist.percentile(100.0), 1000.0, 1e-12);
}

TEST(Histogram, PastCapacityStaysInRangeAndDeterministic)
{
    ReservoirHistogram a(64);
    ReservoirHistogram b(64);
    for (int i = 0; i < 10000; ++i) {
        a.add(static_cast<double>(i % 500));
        b.add(static_cast<double>(i % 500));
    }
    EXPECT_EQ(a.count(), 10000u);
    const HistogramSnapshot sa = a.snapshot();
    const HistogramSnapshot sb = b.snapshot();
    // min/max track the full stream, not just the reservoir.
    EXPECT_EQ(sa.min, 0.0);
    EXPECT_EQ(sa.max, 499.0);
    EXPECT_GE(sa.p50, 0.0);
    EXPECT_LE(sa.p50, 499.0);
    EXPECT_LE(sa.p50, sa.p95);
    EXPECT_LE(sa.p95, sa.p99);
    EXPECT_LE(sa.p99, sa.p999);
    EXPECT_GE(sa.stddev, 0.0);
    // Deterministic seeding: identical streams, identical snapshots.
    EXPECT_EQ(sa.p50, sb.p50);
    EXPECT_EQ(sa.p99, sb.p99);
}

TEST(Histogram, EmptySnapshotIsZero)
{
    ReservoirHistogram hist;
    const HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.p50, 0.0);
    EXPECT_EQ(snap.stddev, 0.0);
    EXPECT_EQ(hist.percentile(95.0), 0.0);
}

// ---------------------------------------------------------------------
// Tracer

TEST(Trace, DisabledTracerRecordsNothing)
{
    Tracer tracer;
    {
        Span span(tracer, "ignored");
    }
    EXPECT_EQ(tracer.spanCount(), 0u);
    EXPECT_EQ(tracer.toJson(), "[]");
}

TEST(Trace, SpansFromManyThreadsExportSorted)
{
    Tracer tracer;
    tracer.enable();
    constexpr int kThreads = 4;
    constexpr int kSpansPerThread = 25;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&tracer] {
            for (int i = 0; i < kSpansPerThread; ++i)
                Span span(tracer, "worker.span");
        });
    }
    for (std::thread &t : threads)
        t.join();
    tracer.disable();
    EXPECT_EQ(tracer.spanCount(),
              static_cast<std::size_t>(kThreads * kSpansPerThread));
    EXPECT_EQ(tracer.droppedSpans(), 0u);

    const JsonValue doc = JsonValue::parse(tracer.toJson());
    ASSERT_TRUE(doc.isArray());
    ASSERT_EQ(doc.size(),
              static_cast<std::size_t>(kThreads * kSpansPerThread));
    double last_ts = -1.0;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        const JsonValue &event = doc.at(i);
        EXPECT_EQ(event.at("name").asString(), "worker.span");
        EXPECT_EQ(event.at("ph").asString(), "X");
        EXPECT_GE(event.at("ts").asNumber(), last_ts);
        EXPECT_GE(event.at("dur").asNumber(), 0.0);
        EXPECT_EQ(event.at("pid").asNumber(), 1.0);
        EXPECT_GE(event.at("tid").asNumber(), 0.0);
        last_ts = event.at("ts").asNumber();
    }
}

TEST(Trace, RingOverwritesOldestAndCountsDrops)
{
    Tracer tracer(/*ring_capacity=*/8);
    tracer.enable();
    for (int i = 0; i < 20; ++i)
        tracer.record("r", static_cast<double>(i), 1.0);
    tracer.disable();
    EXPECT_EQ(tracer.spanCount(), 8u);
    EXPECT_EQ(tracer.droppedSpans(), 12u);

    // The survivors are the 8 newest records.
    const JsonValue doc = JsonValue::parse(tracer.toJson());
    ASSERT_EQ(doc.size(), 8u);
    EXPECT_EQ(doc.at(0u).at("ts").asNumber(), 12.0);
    EXPECT_EQ(doc.at(7u).at("ts").asNumber(), 19.0);
}

TEST(Trace, ItemAttributedSpansExportArgsItem)
{
    Tracer tracer;
    tracer.enable();
    // toJson() sorts by start time and the scoped span's start is
    // real-clock microseconds since tracer construction, so the
    // explicit timestamps must bracket it: 0.0 sorts first and the
    // far-future start sorts last no matter how quickly the scoped
    // span opens (2.0 µs used to race the clock and flake).
    tracer.record("attributed", 0.0, 1.0, /*item=*/7);
    tracer.record("plain", 1e15, 1.0);
    {
        Span span(tracer, "scoped", /*item=*/9);
    }
    tracer.disable();

    const JsonValue doc = JsonValue::parse(tracer.toJson());
    ASSERT_EQ(doc.size(), 3u);
    EXPECT_EQ(doc.at(0u).at("args").at("item").asNumber(), 7.0);
    EXPECT_EQ(doc.at(1u).at("args").at("item").asNumber(), 9.0);
    // Unattributed spans carry no args block at all.
    EXPECT_FALSE(doc.at(2u).has("args"));
}

TEST(Trace, SetRingCapacityTakesEffectAndReportsDrops)
{
    Tracer tracer;
    tracer.setRingCapacity(4);
    EXPECT_EQ(tracer.ringCapacity(), 4u);
    tracer.enable();
    for (int i = 0; i < 6; ++i)
        tracer.record("r", static_cast<double>(i), 1.0);
    tracer.disable();
    EXPECT_EQ(tracer.spanCount(), 4u);
    EXPECT_EQ(tracer.droppedSpans(), 2u);

    // Per-thread drop reports sum to the global drop counter; a
    // single-threaded recorder has exactly one nonzero entry.
    std::uint64_t total = 0;
    for (const ThreadDropReport &report : tracer.droppedByThread())
        total += report.dropped;
    EXPECT_EQ(total, 2u);
    EXPECT_EQ(tracer.droppedByThread().size(), 1u);
}

TEST(Trace, RingCapacityClampedToAtLeastOne)
{
    Tracer tracer;
    tracer.setRingCapacity(0);
    EXPECT_EQ(tracer.ringCapacity(), 1u);
    tracer.enable();
    tracer.record("a", 0.0, 1.0);
    tracer.record("b", 1.0, 1.0);
    tracer.disable();
    EXPECT_EQ(tracer.spanCount(), 1u);
    EXPECT_EQ(tracer.droppedSpans(), 1u);
}

TEST(Trace, ClearDropsBufferedSpans)
{
    Tracer tracer;
    tracer.enable();
    tracer.record("a", 0.0, 1.0);
    tracer.clear();
    EXPECT_EQ(tracer.spanCount(), 0u);
}

// ---------------------------------------------------------------------
// JSON schema round-trips

TEST(Json, MetricsExportRoundTrips)
{
    MetricsRegistry registry;
    registry.counter("c.one").add(41);
    registry.gauge("g.load").set(0.75);
    for (int i = 0; i < 10; ++i)
        registry.histogram("h.lat").add(static_cast<double>(i));

    const JsonValue doc = JsonValue::parse(registry.toJson());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("counters").at("c.one").asNumber(), 41.0);
    EXPECT_EQ(doc.at("gauges").at("g.load").asNumber(), 0.75);
    const JsonValue &hist = doc.at("histograms").at("h.lat");
    EXPECT_EQ(hist.at("count").asNumber(), 10.0);
    EXPECT_EQ(hist.at("min").asNumber(), 0.0);
    EXPECT_EQ(hist.at("max").asNumber(), 9.0);
    for (const char *field :
         {"count", "min", "max", "mean", "stddev", "p50", "p95",
          "p99", "p999"})
        EXPECT_TRUE(hist.has(field)) << field;
}

TEST(Json, ParserHandlesEscapesAndNesting)
{
    const JsonValue doc = JsonValue::parse(
        R"({"s":"a\"b\\c\u0041\n","arr":[1,-2.5e2,true,null],)"
        R"("nested":{"k":{}}})");
    EXPECT_EQ(doc.at("s").asString(), "a\"b\\cA\n");
    EXPECT_EQ(doc.at("arr").at(1u).asNumber(), -250.0);
    EXPECT_TRUE(doc.at("arr").at(3u).isNull());
    EXPECT_TRUE(doc.at("nested").at("k").isObject());
}

TEST(Json, ParserRejectsMalformedInput)
{
    EXPECT_THROW(JsonValue::parse(""), InvalidArgument);
    EXPECT_THROW(JsonValue::parse("{"), InvalidArgument);
    EXPECT_THROW(JsonValue::parse("[1,]"), InvalidArgument);
    EXPECT_THROW(JsonValue::parse("{\"a\":1} extra"),
                 InvalidArgument);
    EXPECT_THROW(JsonValue::parse("nul"), InvalidArgument);
    EXPECT_THROW(JsonValue::parse("\"\\x\""), InvalidArgument);
}

TEST(Json, WriterEscapesAndPlacesCommas)
{
    JsonWriter w;
    w.beginObject();
    w.key("a\"b").beginArray();
    w.value(1).value(std::string_view("x\ny"));
    w.endArray();
    w.key("n").value(2.5);
    w.endObject();
    const JsonValue doc = JsonValue::parse(w.str());
    EXPECT_EQ(doc.at("a\"b").at(1u).asString(), "x\ny");
    EXPECT_EQ(doc.at("n").asNumber(), 2.5);
}

// ---------------------------------------------------------------------
// Phase enum

TEST(Phase, NamesMatchLegacyStringsAndCoverAllPhases)
{
    EXPECT_STREQ(phaseName(Phase::Sampling), "sampling");
    EXPECT_STREQ(phaseName(Phase::Scheduling), "buffalo scheduling");
    EXPECT_STREQ(phaseName(Phase::GpuCompute), "GPU compute");
    EXPECT_EQ(kAllPhases.size(), static_cast<std::size_t>(kNumPhases));
    // Names are distinct non-null literals.
    for (std::size_t i = 0; i < kAllPhases.size(); ++i)
        for (std::size_t j = i + 1; j < kAllPhases.size(); ++j)
            EXPECT_STRNE(phaseName(kAllPhases[i]),
                         phaseName(kAllPhases[j]));
}

TEST(Phase, PhaseScopeChargesTimerAndSpan)
{
    Tracer &global = tracer();
    global.clear();
    global.enable();
    PhaseTimes times;
    {
        PhaseScope scope(times, Phase::ConnectionCheck);
        util::StopWatch inner;
        while (inner.seconds() < 1e-6) {
        }
    }
    global.disable();
    testing_phase::expectOnlyMeasured(times, {Phase::ConnectionCheck});
    EXPECT_GE(global.spanCount(), 1u);
    global.clear();
}

TEST(PhaseTimes, AccumulatesEachClockApart)
{
    PhaseTimes times;
    times.addMeasured(Phase::Sampling, 1.0);
    times.addModeled(Phase::GpuCompute, 2.0);
    times.addMeasured(Phase::Sampling, 0.5);
    times.addMeasured(Phase::DataLoading, 0.125);
    times.addModeled(Phase::DataLoading, 0.25);
    EXPECT_EQ(times.measured(Phase::Sampling), 1.5);
    EXPECT_EQ(times.modeled(Phase::Sampling), 0.0);
    EXPECT_EQ(times.measured(Phase::GpuCompute), 0.0);
    EXPECT_EQ(times.modeled(Phase::GpuCompute), 2.0);
    EXPECT_EQ(times.measured(Phase::DataLoading), 0.125);
    EXPECT_EQ(times.modeled(Phase::DataLoading), 0.25);
    EXPECT_EQ(times.measuredSeconds(), 1.625);
    EXPECT_EQ(times.modeledSeconds(), 2.25);
    // Phases never charged read 0 on both clocks.
    for (const Phase phase :
         {Phase::Scheduling, Phase::RegConstruction,
          Phase::MetisPartition, Phase::ConnectionCheck,
          Phase::BlockConstruction}) {
        EXPECT_EQ(times.measured(phase), 0.0) << phaseName(phase);
        EXPECT_EQ(times.modeled(phase), 0.0) << phaseName(phase);
    }
}

TEST(PhaseTimes, PlusEqualsSumsEachClockApart)
{
    PhaseTimes a, b;
    a.addMeasured(Phase::Scheduling, 1.0);
    a.addModeled(Phase::GpuCompute, 4.0);
    b.addMeasured(Phase::Scheduling, 2.0);
    b.addMeasured(Phase::BlockConstruction, 0.5);
    b.addModeled(Phase::DataLoading, 8.0);
    a += b;
    EXPECT_EQ(a.measured(Phase::Scheduling), 3.0);
    EXPECT_EQ(a.measured(Phase::BlockConstruction), 0.5);
    EXPECT_EQ(a.modeled(Phase::GpuCompute), 4.0);
    EXPECT_EQ(a.modeled(Phase::DataLoading), 8.0);
    // Nothing crosses clocks.
    EXPECT_EQ(a.modeled(Phase::Scheduling), 0.0);
    EXPECT_EQ(a.measured(Phase::DataLoading), 0.0);
    EXPECT_EQ(a.measured(Phase::GpuCompute), 0.0);
    EXPECT_EQ(a.measuredSeconds(), 3.5);
    EXPECT_EQ(a.modeledSeconds(), 12.0);
    // The right-hand side is left as it was.
    EXPECT_EQ(b.measuredSeconds(), 2.5);
    EXPECT_EQ(b.modeledSeconds(), 8.0);
}

TEST(PhaseTimes, PhaseScopeChargesOnlyMeasured)
{
    PhaseTimes times;
    {
        PhaseScope scope(times, Phase::BlockConstruction);
        util::StopWatch inner;
        while (inner.seconds() < 1e-3) {
        }
    }
    // The scope's watch starts before the inner one and stops after.
    EXPECT_GE(times.measured(Phase::BlockConstruction), 1e-3);
    testing_phase::expectOnlyMeasured(times, {Phase::BlockConstruction});
    EXPECT_EQ(times.modeledSeconds(), 0.0);
}

// ---------------------------------------------------------------------
// Exit-safe flushing

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(ExitFlush, FlushClosesLogAndWritesMetrics)
{
    const std::string dir = ::testing::TempDir();
    const std::string log_path = dir + "/buffalo_flush_test.jsonl";
    const std::string metrics_path =
        dir + "/buffalo_flush_test_metrics.json";
    std::remove(log_path.c_str());
    std::remove(metrics_path.c_str());

    eventLog().open(log_path);
    eventLog().event("run.begin").field("tool", "obs_test");
    metrics().counter("test.flush.marker").add(3);
    exitFlush().registerMetricsJson(metrics_path);
    exitFlush().flush();

    // The log is closed (complete on disk) and terminated by the
    // run.flush marker; the metrics dump exists and parses.
    EXPECT_FALSE(eventLog().enabled());
    const std::string log = slurp(log_path);
    EXPECT_NE(log.find("\"run.begin\""), std::string::npos) << log;
    EXPECT_NE(log.find("\"run.flush\""), std::string::npos) << log;
    const std::string metrics_json = slurp(metrics_path);
    EXPECT_NE(metrics_json.find("test.flush.marker"),
              std::string::npos);
    EXPECT_NO_THROW(JsonValue::parse(metrics_json));

    // Idempotent: a second flush (the atexit hook on a clean exit)
    // must not reopen the log or append anything.
    const auto size_before = log.size();
    exitFlush().flush();
    EXPECT_EQ(slurp(log_path).size(), size_before);
    exitFlush().registerMetricsJson("");
}

TEST(ExitFlushDeath, AtexitHookFlushesOnEarlyExit)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string dir = ::testing::TempDir();
    const std::string log_path = dir + "/buffalo_exit_test.jsonl";
    const std::string metrics_path =
        dir + "/buffalo_exit_test_metrics.json";
    std::remove(log_path.c_str());
    std::remove(metrics_path.c_str());

    // The child arms the hook and leaves through std::exit without
    // ever flushing explicitly — the early-termination path that
    // used to truncate --run-log/--metrics-json output.
    EXPECT_EXIT(
        {
            eventLog().open(log_path);
            eventLog().event("run.begin").field("tool", "child");
            metrics().counter("test.exit.marker").add(1);
            exitFlush().registerMetricsJson(metrics_path);
            exitFlush().arm();
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");

    const std::string log = slurp(log_path);
    EXPECT_NE(log.find("\"run.begin\""), std::string::npos) << log;
    EXPECT_NE(log.find("\"run.flush\""), std::string::npos) << log;
    const std::string metrics_json = slurp(metrics_path);
    EXPECT_NE(metrics_json.find("test.exit.marker"),
              std::string::npos);
    EXPECT_NO_THROW(JsonValue::parse(metrics_json));
}

} // namespace
} // namespace buffalo::obs
