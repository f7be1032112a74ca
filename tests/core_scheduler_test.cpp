/**
 * @file
 * Tests for the Buffalo Scheduler (Algorithm 3): constraint
 * satisfaction, seed coverage, explosion splitting, K growth as the
 * budget shrinks, and micro-batch generation.
 */
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "core/micro_batch_generator.h"
#include "core/scheduler.h"
#include "digest.h"
#include "graph/datasets.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "util/format.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace buffalo::core {
namespace {

struct SchedSetup
{
    graph::Dataset data;
    SampledSubgraph sg;
    nn::ModelConfig config;
    double coefficient;
};

SchedSetup
makeSetup(std::size_t num_seeds = 192,
          nn::AggregatorKind kind = nn::AggregatorKind::Lstm)
{
    SchedSetup setup{graph::loadDataset(graph::DatasetId::Arxiv, 42, 0.1),
                {},
                {},
                0.0};
    setup.coefficient = setup.data.spec().paper_avg_coefficient;
    util::Rng rng(3);
    sampling::NeighborSampler sampler({10, 10});
    graph::NodeList seeds(
        setup.data.trainNodes().begin(),
        setup.data.trainNodes().begin() +
            std::min(num_seeds, setup.data.trainNodes().size()));
    setup.sg = sampler.sample(setup.data.graph(), seeds, rng);

    setup.config.aggregator = kind;
    setup.config.num_layers = 2;
    setup.config.feature_dim = setup.data.featureDim();
    setup.config.hidden_dim = 32;
    setup.config.num_classes = setup.data.numClasses();
    return setup;
}

ScheduleResult
scheduleWith(const SchedSetup &setup, std::uint64_t budget,
             SchedulerOptions options = {})
{
    nn::MemoryModel model(setup.config);
    options.mem_constraint = budget;
    BuffaloScheduler scheduler(model, setup.coefficient, options);
    return scheduler.schedule(setup.sg);
}

/** Redundancy-aware estimate of the whole batch as one group. */
std::uint64_t
wholeBatchEstimate(const SchedSetup &setup)
{
    auto result = scheduleWith(setup, util::gib(1024));
    std::uint64_t total = 0;
    for (const auto &group : result.groups)
        total += group.est_bytes;
    return total;
}

TEST(Scheduler, LargeBudgetSingleGroup)
{
    SchedSetup setup = makeSetup();
    auto result = scheduleWith(setup, util::gib(64));
    EXPECT_EQ(result.num_groups, 1);
    EXPECT_TRUE(result.single_group);
}

TEST(Scheduler, GroupsCoverAllSeedsDisjointly)
{
    SchedSetup setup = makeSetup();
    auto result = scheduleWith(setup, util::mib(64));
    std::set<sampling::NodeId> seen;
    for (const auto &group : result.groups) {
        for (auto seed : group.outputSeeds()) {
            ASSERT_LT(seed, setup.sg.numSeeds());
            EXPECT_TRUE(seen.insert(seed).second)
                << "seed assigned to two groups";
        }
    }
    EXPECT_EQ(seen.size(), setup.sg.numSeeds());
}

TEST(Scheduler, EveryGroupRespectsConstraint)
{
    SchedSetup setup = makeSetup();
    const std::uint64_t budget = wholeBatchEstimate(setup) / 3;
    auto result = scheduleWith(setup, budget);
    EXPECT_GT(result.num_groups, 1);
    for (const auto &group : result.groups)
        EXPECT_LE(group.est_bytes, budget);
}

TEST(Scheduler, KGrowsAsBudgetShrinks)
{
    SchedSetup setup = makeSetup();
    const std::uint64_t whole = wholeBatchEstimate(setup);
    int previous = 1;
    for (std::uint64_t budget :
         {whole * 2, whole / 2, whole / 4, whole / 8}) {
        auto result = scheduleWith(setup, budget);
        EXPECT_GE(result.num_groups, previous)
            << "budget " << util::formatBytes(budget);
        previous = result.num_groups;
    }
    EXPECT_GT(previous, 1);
}

TEST(Scheduler, DetectsAndSplitsExplosion)
{
    SchedSetup setup = makeSetup(256);
    // Power-law arxiv-sim with fanout 10 explodes the degree-10
    // bucket; a tight budget forces a split.
    auto result = scheduleWith(setup, wholeBatchEstimate(setup) / 4);
    EXPECT_TRUE(result.explosion_detected);
    EXPECT_GT(result.num_groups, 1);

    // The cut-off bucket's members must now be spread across groups.
    const auto &top =
        setup.sg.layerAdjacency(setup.sg.numLayers() - 1);
    std::set<int> groups_with_cutoff;
    for (std::size_t g = 0; g < result.groups.size(); ++g) {
        for (const auto &info : result.groups[g].buckets) {
            if (info.bucket.degree == 10)
                groups_with_cutoff.insert(static_cast<int>(g));
        }
    }
    (void)top;
    EXPECT_GT(groups_with_cutoff.size(), 1u);
}

/** Estimate of the largest single bucket (the explosion bucket). */
std::uint64_t
largestBucketEstimate(const SchedSetup &setup)
{
    nn::MemoryModel model(setup.config);
    BucketMemEstimator estimator(model, setup.sg);
    std::uint64_t largest = 0;
    for (const auto &info :
         estimator.estimate(sampling::bucketizeSeeds(setup.sg)))
        largest = std::max(largest, info.est_bytes);
    return largest;
}

TEST(Scheduler, SplitDisabledSchedulesAboveAtomicBucket)
{
    // With splitting off, the explosion bucket is atomic; any budget
    // above it still schedules (just with coarser groups).
    SchedSetup setup = makeSetup(128);
    SchedulerOptions options;
    options.enable_split = false;
    const std::uint64_t budget = largestBucketEstimate(setup) * 2;
    auto result = scheduleWith(setup, budget, options);
    EXPECT_FALSE(result.explosion_detected);
    std::set<sampling::NodeId> seen;
    for (const auto &group : result.groups)
        for (auto seed : group.outputSeeds())
            seen.insert(seed);
    EXPECT_EQ(seen.size(), setup.sg.numSeeds());
}

TEST(Scheduler, SplittingBreaksTheAtomicBucketWall)
{
    // The paper's core claim (§IV-A): once the budget drops below the
    // explosion bucket's own footprint, no amount of grouping helps —
    // only splitting the bucket does.
    SchedSetup setup = makeSetup(256);
    const std::uint64_t budget =
        largestBucketEstimate(setup) * 7 / 10;

    SchedulerOptions no_split;
    no_split.enable_split = false;
    no_split.max_groups = 64;
    EXPECT_THROW(scheduleWith(setup, budget, no_split),
                 InvalidArgument);

    SchedulerOptions with_split;
    auto result = scheduleWith(setup, budget, with_split);
    EXPECT_TRUE(result.explosion_detected);
    EXPECT_GT(result.num_groups, 1);
}

TEST(Scheduler, ImpossibleBudgetThrows)
{
    SchedSetup setup = makeSetup(64);
    SchedulerOptions options;
    options.max_groups = 4;
    EXPECT_THROW(scheduleWith(setup, util::mib(1), options),
                 InvalidArgument);
}

TEST(Scheduler, ReservedBytesTightenBudget)
{
    SchedSetup setup = makeSetup();
    const std::uint64_t whole = wholeBatchEstimate(setup);
    SchedulerOptions plain;
    auto base = scheduleWith(setup, whole * 2, plain);
    SchedulerOptions reserved;
    reserved.reserved_bytes = whole * 2 - whole / 2;
    auto tight = scheduleWith(setup, whole * 2, reserved);
    EXPECT_GE(tight.num_groups, base.num_groups);
}

TEST(Scheduler, RejectsBadOptions)
{
    SchedSetup setup = makeSetup(64);
    nn::MemoryModel model(setup.config);
    SchedulerOptions options; // mem_constraint = 0
    EXPECT_THROW(BuffaloScheduler(model, 0.2, options),
                 InvalidArgument);
}

TEST(MicroBatchGenerator, GroupsBecomeValidMicroBatches)
{
    SchedSetup setup = makeSetup();
    auto result = scheduleWith(setup, wholeBatchEstimate(setup) / 3);
    MicroBatchGenerator generator;
    auto batches = generator.generate(setup.sg, result.groups);
    ASSERT_EQ(batches.size(), result.groups.size());

    std::set<graph::NodeId> outputs;
    for (std::size_t i = 0; i < batches.size(); ++i) {
        batches[i].validateChain();
        EXPECT_EQ(batches[i].numLayers(), 2);
        EXPECT_EQ(batches[i].outputNodes().size(),
                  result.groups[i].outputCount());
        for (auto node : batches[i].outputNodes())
            EXPECT_TRUE(outputs.insert(node).second);
    }
    EXPECT_EQ(outputs.size(), setup.sg.numSeeds());
}

TEST(MicroBatchGenerator, RedundancyExistsAcrossMicroBatches)
{
    // The non-linear memory phenomenon of §IV-D: micro-batches share
    // input nodes, so the sum of inputs exceeds the whole batch's.
    SchedSetup setup = makeSetup();
    auto result = scheduleWith(setup, wholeBatchEstimate(setup) / 4);
    ASSERT_GT(result.num_groups, 1);
    MicroBatchGenerator generator;
    auto batches = generator.generate(setup.sg, result.groups);

    std::size_t summed = 0;
    std::set<graph::NodeId> unique_inputs;
    for (const auto &mb : batches) {
        summed += mb.inputNodes().size();
        unique_inputs.insert(mb.inputNodes().begin(),
                             mb.inputNodes().end());
    }
    EXPECT_GT(summed, unique_inputs.size());
}

/**
 * Products-like batch: the graph's average degree exceeds both
 * fanouts, so every seed lands in the single cut-off bucket, bucket
 * explosion is not detected by volume, and only the memory fallback
 * splits it.
 */
SchedSetup
makeProductsSetup(std::uint64_t seed)
{
    SchedSetup setup{
        graph::loadDataset(graph::DatasetId::Products, seed, 0.2),
        {},
        {},
        0.0};
    setup.coefficient = setup.data.spec().paper_avg_coefficient;
    util::Rng rng(seed + 1);
    sampling::NeighborSampler sampler({10, 25});
    graph::NodeList seeds(setup.data.trainNodes().begin(),
                          setup.data.trainNodes().begin() + 384);
    setup.sg = sampler.sample(setup.data.graph(), seeds, rng);

    setup.config.aggregator = nn::AggregatorKind::Lstm;
    setup.config.num_layers = 2;
    setup.config.feature_dim = setup.data.featureDim();
    setup.config.hidden_dim = 64;
    setup.config.num_classes = setup.data.numClasses();
    return setup;
}

/**
 * Golden digests of ScheduleResult, computed from the scheduler
 * before its pricing was parallelised and its cone walks reused
 * scratch, and refreshed when Eq. 1-2 stopped pricing layer 0's input
 * gradient and when the sampler moved to counter-keyed streams. Any
 * change here means a plan or an estimate changed.
 */
TEST(ScheduleDigest, ArxivPlansArePinned)
{
    SchedSetup setup = makeSetup(256);
    const std::uint64_t whole = wholeBatchEstimate(setup);
    SchedulerOptions linear;
    linear.redundancy_aware = false;
    SchedulerOptions first_fit;
    first_fit.policy = GroupingPolicy::FirstFit;
    SchedulerOptions reserved;
    reserved.reserved_bytes = whole / 16;

    const std::vector<std::uint64_t> digests = {
        testing_digest::digest(scheduleWith(setup, whole * 2)),
        testing_digest::digest(scheduleWith(setup, whole / 3)),
        testing_digest::digest(scheduleWith(setup, whole / 8)),
        testing_digest::digest(scheduleWith(setup, whole / 5, linear)),
        testing_digest::digest(
            scheduleWith(setup, whole / 5, first_fit)),
        testing_digest::digest(scheduleWith(setup, whole / 4, reserved)),
    };
    const std::vector<std::uint64_t> golden = {
        0xa5e3d5c01607c6c5ULL, 0x6e18c965e04ed3ffULL,
        0xad04e720c9e9138eULL, 0xa3f179bc90e13986ULL,
        0x18a686a633e90e21ULL, 0x8837baefb06ac361ULL,
    };
    for (std::size_t i = 0; i < digests.size(); ++i)
        EXPECT_EQ(digests[i], golden[i])
            << "case " << i << " digest 0x" << std::hex << digests[i];
}

TEST(ScheduleDigest, ProductsFallbackSplitIsPinned)
{
    struct Case
    {
        std::uint64_t seed;
        /** Budget = whole-batch estimate / divisor. */
        std::uint64_t divisor;
        /** The accepted plan holds generalized-split pieces. */
        bool split_pieces;
        std::uint64_t golden;
    };
    const std::vector<Case> cases = {
        {5, 6, false, 0xaee4c60e718cb26cULL},
        {5, 33, true, 0x4b9fbf36e20e5044ULL},
        {6, 22, true, 0x33e2ba271d411131ULL},
        {6, 33, true, 0xd80832767b44f1c6ULL},
    };
    for (const Case &c : cases) {
        SchedSetup setup = makeProductsSetup(c.seed);
        // Every seed is in the cut-off bucket, so volume-based
        // explosion detection cannot fire.
        const BucketList buckets = sampling::bucketizeSeeds(setup.sg);
        ASSERT_EQ(buckets.size(), 1u);
        ASSERT_LT(sampling::findExplosionBucket(buckets, 2.0), 0);

        auto result =
            scheduleWith(setup, wholeBatchEstimate(setup) / c.divisor);
        EXPECT_TRUE(result.explosion_detected);
        // The generalized split re-splits an oversized micro-bucket
        // (round 0) and prices its pieces (round 1); without it there
        // is exactly one item per group.
        std::size_t items = 0;
        for (const auto &group : result.groups)
            items += group.buckets.size();
        EXPECT_EQ(items > result.groups.size(), c.split_pieces)
            << "seed " << c.seed << " divisor " << c.divisor;

        const std::uint64_t d = testing_digest::digest(result);
        EXPECT_EQ(d, c.golden) << "seed " << c.seed << " divisor "
                               << c.divisor << " digest 0x" << std::hex
                               << d;
    }
}

/** Schedules @p setup on @p pool and returns the plan's digest. */
std::uint64_t
digestOnPool(const SchedSetup &setup, std::uint64_t budget,
             util::ThreadPool *pool)
{
    nn::MemoryModel model(setup.config);
    SchedulerOptions options;
    options.mem_constraint = budget;
    BuffaloScheduler scheduler(model, setup.coefficient, options, pool);
    return testing_digest::digest(scheduler.schedule(setup.sg));
}

TEST(ScheduleDeterminism, SamePlanOnEveryPoolAndInsideAPoolTask)
{
    std::vector<std::pair<SchedSetup, std::uint64_t>> cases;
    {
        SchedSetup arxiv = makeSetup(256);
        const std::uint64_t budget = wholeBatchEstimate(arxiv) / 8;
        cases.emplace_back(std::move(arxiv), budget);
        SchedSetup products = makeProductsSetup(6);
        const std::uint64_t tight = wholeBatchEstimate(products) / 25;
        cases.emplace_back(std::move(products), tight);
    }
    util::ThreadPool one(1), two(2), four(4);
    for (const auto &[setup, budget] : cases) {
        const std::uint64_t serial = digestOnPool(setup, budget, &one);
        EXPECT_EQ(digestOnPool(setup, budget, &two), serial);
        EXPECT_EQ(digestOnPool(setup, budget, &four), serial);
        EXPECT_EQ(digestOnPool(setup, budget, nullptr), serial);

        // The prefetcher schedules from inside a stage task, where
        // pricing stays serial; several concurrent tasks also share
        // the pool the pricing would fan out on.
        std::vector<std::uint64_t> nested(4, 0);
        util::ThreadPool stage(2);
        for (std::size_t t = 0; t < nested.size(); ++t) {
            stage.submit([&, t] {
                nested[t] = digestOnPool(setup, budget,
                                         t % 2 == 0 ? &four : nullptr);
            });
        }
        stage.wait();
        for (std::uint64_t d : nested)
            EXPECT_EQ(d, serial);
    }
}

TEST(ScheduleDigest, ConeWalksAreCountedOncePerSchedule)
{
    SchedSetup setup = makeProductsSetup(6);
    const std::uint64_t budget = wholeBatchEstimate(setup) / 25;
    obs::Counter &walks =
        obs::metrics().counter(obs::names::kCtrSchedulerConeWalks);
    util::ThreadPool one(1), four(4);
    std::vector<std::uint64_t> counts;
    for (util::ThreadPool *pool : {&one, &four}) {
        const std::uint64_t before = walks.value();
        nn::MemoryModel model(setup.config);
        SchedulerOptions options;
        options.mem_constraint = budget;
        BuffaloScheduler(model, setup.coefficient, options, pool)
            .schedule(setup.sg);
        counts.push_back(walks.value() - before);
    }
    // One walk per base bucket, per micro-bucket of every K attempt,
    // and per generalized-split piece: the same count whether pricing
    // runs serially or on four workers.
    EXPECT_EQ(counts[0], counts[1]);
    EXPECT_GT(counts[0], 1u);
}

TEST(Scheduler, HugeLowerBoundThrowsWithoutAttempts)
{
    // A wide LSTM and a 1-byte activation budget put the K lower bound
    // (discounted bytes / budget) far past INT_MAX. It must clamp to
    // "infeasible" rather than wrap to a small K and grind through
    // max_groups attempts.
    SchedSetup setup = makeSetup(256);
    setup.config.hidden_dim = 1 << 16;
    nn::MemoryModel model(setup.config);
    BucketMemEstimator estimator(model, setup.sg);
    const RedundancyAwareMemEstimator discount(setup.coefficient);
    double bound = 0.0;
    for (const auto &info :
         estimator.estimate(sampling::bucketizeSeeds(setup.sg)))
        bound += static_cast<double>(info.est_bytes) *
                 discount.groupingRatio(info);
    ASSERT_GT(bound, 2.0 * std::numeric_limits<int>::max());

    SchedulerOptions options;
    options.mem_constraint = 1;
    options.safety_factor = 1.0;
    options.max_groups = 64;
    obs::Counter &attempts =
        obs::metrics().counter(obs::names::kCtrSchedulerKAttempts);
    const std::uint64_t before = attempts.value();
    BuffaloScheduler scheduler(model, setup.coefficient, options);
    EXPECT_THROW(scheduler.schedule(setup.sg), InvalidArgument);
    EXPECT_EQ(attempts.value() - before, 0u);
}

} // namespace
} // namespace buffalo::core
