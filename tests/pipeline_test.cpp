/**
 * @file
 * Tests for the async micro-batch pipeline: StageQueue semantics,
 * ByteBudget backpressure, FeatureCache LRU/pinning, serial-vs-
 * pipelined loss parity, and the transfer-savings accounting.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/names.h"
#include "pipeline/feature_cache.h"
#include "pipeline/pipeline_trainer.h"
#include "pipeline/prefetcher.h"
#include "pipeline/stage_queue.h"
#include "train/experiment.h"
#include "train/feature_loader.h"
#include "util/errors.h"
#include "util/format.h"

namespace buffalo::pipeline {
namespace {

// ---------------------------------------------------------------------
// StageQueue

TEST(StageQueue, FifoOrderAndClose)
{
    StageQueue<int> q(8);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(q.push(i));
    q.close();
    for (int i = 0; i < 5; ++i) {
        auto item = q.pop();
        ASSERT_TRUE(item.has_value());
        EXPECT_EQ(*item, i);
    }
    EXPECT_FALSE(q.pop().has_value());
    EXPECT_FALSE(q.push(99)); // closed
}

TEST(StageQueue, BoundedBackpressure)
{
    StageQueue<int> q(2);
    std::thread producer([&] {
        for (int i = 0; i < 50; ++i)
            ASSERT_TRUE(q.push(i));
        q.close();
    });
    int expected = 0;
    while (auto item = q.pop()) {
        EXPECT_EQ(*item, expected++);
        EXPECT_LE(q.size(), 2u);
    }
    producer.join();
    EXPECT_EQ(expected, 50);
    EXPECT_LE(q.maxOccupancy(), 2u);
}

TEST(StageQueue, AbortPropagatesToConsumerAndProducer)
{
    StageQueue<int> q(1);
    ASSERT_TRUE(q.push(1)); // queue now full
    std::thread consumer([&] {
        EXPECT_THROW(
            {
                while (q.pop())
                    ;
            },
            std::runtime_error);
    });
    q.abort(std::make_exception_ptr(
        std::runtime_error("stage failed")));
    consumer.join();
    EXPECT_FALSE(q.push(2)); // producers unwind instead of blocking
    EXPECT_TRUE(q.aborted());
}

TEST(ByteBudget, CapsAndAdmitsOversizeWhenEmpty)
{
    ByteBudget budget(100);
    EXPECT_TRUE(budget.acquire(60));
    EXPECT_TRUE(budget.acquire(40));
    EXPECT_EQ(budget.bytesInUse(), 100u);

    std::atomic<bool> acquired{false};
    std::thread waiter([&] {
        EXPECT_TRUE(budget.acquire(500)); // oversize: admitted at 0
        acquired = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(acquired.load());
    budget.release(60);
    budget.release(40);
    waiter.join();
    EXPECT_TRUE(acquired.load());
    budget.release(500);
    EXPECT_EQ(budget.bytesInUse(), 0u);
}

TEST(ByteBudget, CancelUnblocksWaiters)
{
    ByteBudget budget(10);
    EXPECT_TRUE(budget.acquire(10));
    std::thread waiter([&] { EXPECT_FALSE(budget.acquire(5)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    budget.cancel();
    waiter.join();
}

// ---------------------------------------------------------------------
// FeatureCache

FeatureCacheOptions
cacheOptions(int dim, std::uint64_t rows, bool payload = true)
{
    FeatureCacheOptions options;
    options.feature_dim = dim;
    options.capacity_bytes = rows * dim * sizeof(float);
    options.store_payload = payload;
    return options;
}

TEST(FeatureCache, LruEvictionOrder)
{
    FeatureCache cache(cacheOptions(4, 3));
    ASSERT_TRUE(cache.enabled());
    EXPECT_EQ(cache.capacityRows(), 3u);

    std::vector<float> row(4, 1.0f);
    cache.insert(10, row);
    cache.insert(11, row);
    cache.insert(12, row);
    // Refresh 10 so 11 becomes the LRU victim.
    EXPECT_TRUE(cache.lookup(10, {}));
    cache.insert(13, row); // evicts 11
    EXPECT_TRUE(cache.lookup(10, {}));
    EXPECT_FALSE(cache.lookup(11, {}));
    EXPECT_TRUE(cache.lookup(12, {}));
    EXPECT_TRUE(cache.lookup(13, {}));

    const FeatureCacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.insertions, 4u);
    EXPECT_EQ(stats.resident_nodes, 3u);
    EXPECT_EQ(stats.hits, 4u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(FeatureCache, PayloadRoundTrips)
{
    FeatureCache cache(cacheOptions(3, 2));
    const std::vector<float> row = {1.5f, -2.0f, 0.25f};
    cache.insert(7, row);
    std::vector<float> out(3, 0.0f);
    ASSERT_TRUE(cache.lookup(7, out));
    EXPECT_EQ(out, row);
}

TEST(FeatureCache, PresenceOnlyModeTracksCapacity)
{
    FeatureCache cache(cacheOptions(64, 2, /*payload=*/false));
    cache.insert(1, {});
    cache.insert(2, {});
    cache.insert(3, {}); // evicts 1
    EXPECT_FALSE(cache.lookup(1, {}));
    EXPECT_TRUE(cache.lookup(2, {}));
    EXPECT_EQ(cache.stats().bytes_in_use, 2u * 64u * sizeof(float));
}

TEST(FeatureCache, DisabledCacheRefusesEverything)
{
    FeatureCache cache(cacheOptions(4, 0));
    EXPECT_FALSE(cache.enabled());
    cache.insert(1, std::vector<float>(4, 0.0f));
    EXPECT_FALSE(cache.lookup(1, {}));
    EXPECT_EQ(cache.stats().resident_nodes, 0u);
}

TEST(FeatureCache, PinnedHotNodesSurviveEviction)
{
    graph::Dataset data =
        graph::loadDataset(graph::DatasetId::Cora, 42, 0.5);
    FeatureCache cache(cacheOptions(data.featureDim(), 4));
    cache.pinHotSet(data, 2);
    EXPECT_EQ(cache.stats().pinned_nodes, 2u);

    // Find the two pinned (highest-degree) nodes.
    const graph::CsrGraph &g = data.graph();
    std::vector<graph::NodeId> pinned;
    for (graph::NodeId u = 0; u < g.numNodes(); ++u)
        if (cache.lookup(u, {}))
            pinned.push_back(u);
    ASSERT_EQ(pinned.size(), 2u);

    // Flood with unpinned rows; pinned entries must survive.
    std::vector<float> row(data.featureDim(), 0.0f);
    for (graph::NodeId u = 0; u < 50; ++u) {
        if (std::find(pinned.begin(), pinned.end(), u) ==
            pinned.end())
            cache.insert(u, row);
    }
    for (const graph::NodeId u : pinned)
        EXPECT_TRUE(cache.lookup(u, {})) << "pinned node " << u;

    // Pinned rows hold the dataset's actual features.
    std::vector<float> expect(data.featureDim());
    std::vector<float> got(data.featureDim());
    data.fillFeatures(pinned.front(), expect);
    ASSERT_TRUE(cache.lookup(pinned.front(), got));
    EXPECT_EQ(got, expect);
}

TEST(FeatureCache, StagedRowsMatchAFreshFill)
{
    graph::Dataset data =
        graph::loadDataset(graph::DatasetId::Cora, 42, 0.5);
    const int dim = data.featureDim();
    // Node 1 twice: its second row is served by the first's insert.
    const graph::NodeList nodes = {3, 1, 4, 1, 5, 9, 2, 6};
    const tensor::Tensor fresh = train::loadFeatures(data, nodes);
    const std::size_t bytes = nodes.size() * dim * sizeof(float);

    FeatureCache cache(cacheOptions(dim, 16));
    for (int pass = 0; pass < 2; ++pass) {
        tensor::Tensor staged;
        EXPECT_EQ(stageThroughCache(&cache, data, nodes, &staged),
                  pass == 0 ? 1u : nodes.size());
        ASSERT_EQ(staged.rows(), nodes.size());
        EXPECT_EQ(std::memcmp(staged.data(), fresh.data(), bytes), 0)
            << "pass " << pass;
    }

    // Without a cache every row is filled and none is served.
    tensor::Tensor uncached;
    EXPECT_EQ(stageThroughCache(nullptr, data, nodes, &uncached), 0u);
    ASSERT_EQ(uncached.rows(), nodes.size());
    EXPECT_EQ(std::memcmp(uncached.data(), fresh.data(), bytes), 0);

    // No tensor tracks presence only (cost model).
    FeatureCache presence(cacheOptions(dim, 16, /*payload=*/false));
    EXPECT_EQ(stageThroughCache(&presence, data, nodes, nullptr), 1u);
    EXPECT_EQ(presence.stats().resident_nodes, 7u);
}

// ---------------------------------------------------------------------
// Serial-vs-pipelined parity

graph::Dataset &
arxiv()
{
    static graph::Dataset data =
        graph::loadDataset(graph::DatasetId::Arxiv, 42, 0.08);
    return data;
}

train::TrainerOptions
baseOptions(const graph::Dataset &data)
{
    train::TrainerOptions options;
    options.model.aggregator = nn::AggregatorKind::Mean;
    options.model.num_layers = 2;
    options.model.feature_dim = data.featureDim();
    options.model.hidden_dim = 16;
    options.model.num_classes = data.numClasses();
    options.fanouts = {5, 10};
    return options;
}

/** Serial reference epochs via the stock runTraining loop. */
std::vector<train::EpochReport>
serialEpochs(const graph::Dataset &data,
             const train::TrainerOptions &options,
             std::uint64_t budget, int epochs, std::size_t batch_size,
             std::uint64_t rng_seed)
{
    device::Device dev("serial", budget);
    train::BuffaloTrainer trainer(options, dev);
    util::Rng rng(rng_seed);
    return train::runTraining(trainer, data, epochs, batch_size, rng);
}

/** The bit pattern of @p x, so a parity check is exact, not near. */
std::uint64_t
bitsOf(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

TEST(PipelineParity, LossMatchesSerialAcrossSeedsAndEpochs)
{
    // Every deterministic field of the epoch fold must come out of the
    // pipelined trainer exactly as the serial one computes it. 4 GiB
    // trains each batch as one group; 1 MiB splits them (6 groups per
    // epoch with mean), so the per-group audit and peak fold run over
    // several records.
    auto &data = arxiv();
    constexpr int kEpochs = 2;
    constexpr std::size_t kBatch = 64;

    struct Case
    {
        nn::AggregatorKind aggregator;
        std::uint64_t budget;
        std::uint64_t seed;
    };
    std::vector<Case> cases;
    for (const auto aggregator :
         {nn::AggregatorKind::Mean, nn::AggregatorKind::Lstm})
        for (const std::uint64_t budget : {util::gib(4), util::mib(1)})
            for (const std::uint64_t seed : {1ull, 202ull})
                cases.push_back({aggregator, budget, seed});

    for (const Case &c : cases) {
        train::TrainerOptions options = baseOptions(data);
        options.model.aggregator = c.aggregator;
        const auto serial = serialEpochs(data, options, c.budget, kEpochs,
                                         kBatch, c.seed);
        if (c.budget == util::mib(1)) {
            EXPECT_GT(serial[0].num_micro_batches, serial[0].num_batches);
        }

        device::Device dev("pipelined", c.budget);
        train::TrainerOptions pipelined_options = options;
        pipelined_options.pipeline.prefetch_depth = 2;
        pipelined_options.pipeline.feature_cache_bytes = util::mib(4);
        pipelined_options.pipeline.pinned_hot_nodes = 32;
        PipelineTrainer trainer(pipelined_options, dev);
        util::Rng rng(c.seed);
        for (int epoch = 0; epoch < kEpochs; ++epoch) {
            const train::EpochReport got =
                trainer.trainEpoch(data, kBatch, rng);
            const train::EpochReport &want = serial[epoch];
            SCOPED_TRACE(std::string(nn::aggregatorName(c.aggregator)) +
                         " budget " + std::to_string(c.budget) + " seed " +
                         std::to_string(c.seed) + " epoch " +
                         std::to_string(epoch));
            EXPECT_EQ(bitsOf(got.mean_loss), bitsOf(want.mean_loss));
            EXPECT_EQ(bitsOf(got.loss_sum), bitsOf(want.loss_sum));
            EXPECT_EQ(bitsOf(got.accuracy), bitsOf(want.accuracy));
            EXPECT_EQ(got.correct, want.correct);
            EXPECT_EQ(got.outputs, want.outputs);
            EXPECT_EQ(got.num_batches, want.num_batches);
            EXPECT_EQ(got.num_micro_batches, want.num_micro_batches);
            EXPECT_EQ(got.peak_device_bytes, want.peak_device_bytes);
            EXPECT_EQ(got.mem_audit.groups, want.mem_audit.groups);
            EXPECT_EQ(got.mem_audit.predicted_bytes,
                      want.mem_audit.predicted_bytes);
            EXPECT_EQ(got.mem_audit.actual_bytes,
                      want.mem_audit.actual_bytes);
            EXPECT_EQ(got.mem_audit.max_actual_bytes,
                      want.mem_audit.max_actual_bytes);
            EXPECT_EQ(bitsOf(got.mem_audit.sum_signed_rel_error),
                      bitsOf(want.mem_audit.sum_signed_rel_error));
            // The cache discounts traffic; it never adds or hides any.
            EXPECT_EQ(got.transfer_bytes + got.transfer_saved_bytes,
                      want.transfer_bytes);
        }
    }
}

TEST(PipelineParity, CacheHitsReduceTransferOnRedundantWorkload)
{
    auto &data = arxiv();
    train::TrainerOptions options = baseOptions(data);
    const std::uint64_t budget = util::gib(4);
    constexpr std::size_t kBatch = 48;

    // Uncached reference traffic.
    device::Device plain_dev("plain", budget);
    PipelineTrainer plain(options, plain_dev);
    util::Rng plain_rng(9);
    const train::EpochReport plain_stats =
        plain.trainEpoch(data, kBatch, plain_rng);
    EXPECT_EQ(plain_stats.transfer_saved_bytes, 0u);

    device::Device dev("cached", budget);
    train::TrainerOptions cached_options = options;
    cached_options.pipeline.prefetch_depth = 2;
    cached_options.pipeline.feature_cache_bytes = util::mib(8);
    cached_options.pipeline.pinned_hot_nodes = 64;
    PipelineTrainer trainer(cached_options, dev);
    util::Rng rng(9);
    const train::EpochReport stats =
        trainer.trainEpoch(data, kBatch, rng);

    // Adjacent micro-batches share input nodes (paper Eq. 1-2), so a
    // warm cache must see hits and shed exactly that much traffic.
    EXPECT_GT(stats.cache.hits, 0u);
    EXPECT_GT(stats.cache.hitRate(), 0.0);
    EXPECT_GT(stats.transfer_saved_bytes, 0u);
    EXPECT_EQ(stats.transfer_bytes + stats.transfer_saved_bytes,
              plain_stats.transfer_bytes);
    EXPECT_EQ(dev.transferSavedBytes(), stats.transfer_saved_bytes);

    // The discount is accounting only: the numbers stay identical.
    EXPECT_NEAR(stats.mean_loss, plain_stats.mean_loss, 1e-12);
}

TEST(PipelineParity, HostBudgetBackpressureStillCompletes)
{
    auto &data = arxiv();
    train::TrainerOptions options = baseOptions(data);
    const std::uint64_t budget = util::gib(4);
    constexpr std::size_t kBatch = 64;

    const auto serial =
        serialEpochs(data, options, budget, 1, kBatch, 5);

    device::Device dev("tight-host", budget);
    train::TrainerOptions tight_options = options;
    tight_options.pipeline.prefetch_depth = 4;
    // Far below one batch's staging cost: batches are admitted one at
    // a time through the oversize path.
    tight_options.pipeline.host_memory_budget = 1024;
    PipelineTrainer trainer(tight_options, dev);
    util::Rng rng(5);
    const train::EpochReport stats =
        trainer.trainEpoch(data, kBatch, rng);
    EXPECT_NEAR(stats.mean_loss, serial[0].mean_loss, 1e-12);
    EXPECT_GT(stats.stages.peak_host_bytes, 0u);
}

std::uint64_t
oomRetries()
{
    return obs::metrics().counter(obs::names::kCtrTrainOomRetries).value();
}

TEST(PipelineParity, OomFallbackMatchesSerialBitwise)
{
    // Tell the scheduler twice the real capacity, so prefetched plans
    // overflow and the pipelined trainer falls back to rescheduling
    // inline. It must then train exactly what the serial trainer
    // trains: same losses, same weights, same number of retries.
    auto &data = arxiv();
    train::TrainerOptions options = baseOptions(data);
    options.model.aggregator = nn::AggregatorKind::Lstm;
    // One kernel thread: the parity holds at any count, and the test
    // then leaves the cores to the wall-clock tests ctest runs beside it.
    options.kernels.threads = 1;
    constexpr std::size_t kBatch = 64;
    constexpr int kEpochs = 2;
    for (const std::uint64_t seed : {1ull, 7ull}) {
        options.seed = seed;
        std::uint64_t whole_batch_peak = 0;
        {
            device::Device probe("probe", util::gib(64));
            train::WholeBatchTrainer whole(options, probe);
            util::Rng rng(seed);
            const graph::NodeList seeds(data.trainNodes().begin(),
                                        data.trainNodes().begin() +
                                            kBatch);
            whole_batch_peak =
                whole.trainIteration(data, seeds, rng).peak_device_bytes;
        }
        const std::uint64_t capacity = whole_batch_peak * 6 / 10;
        options.scheduler.mem_constraint = 2 * capacity;

        const std::uint64_t retries0 = oomRetries();
        device::Device serial_dev("serial", capacity);
        train::BuffaloTrainer serial(options, serial_dev);
        util::Rng serial_rng(seed);
        std::vector<double> serial_losses;
        for (int epoch = 0; epoch < kEpochs; ++epoch)
            serial_losses.push_back(
                serial.trainEpoch(data, kBatch, serial_rng).mean_loss);
        const std::uint64_t serial_retries = oomRetries() - retries0;
        ASSERT_GT(serial_retries, 0u) << "seed " << seed;

        train::TrainerOptions pipelined_options = options;
        pipelined_options.pipeline.prefetch_depth = 2;
        pipelined_options.pipeline.feature_cache_bytes = util::mib(4);
        device::Device pipelined_dev("pipelined", capacity);
        PipelineTrainer pipelined(pipelined_options, pipelined_dev);
        util::Rng pipelined_rng(seed);
        for (int epoch = 0; epoch < kEpochs; ++epoch)
            EXPECT_EQ(pipelined.trainEpoch(data, kBatch, pipelined_rng)
                          .mean_loss,
                      serial_losses[epoch])
                << "seed " << seed << " epoch " << epoch;
        EXPECT_EQ(oomRetries() - retries0 - serial_retries,
                  serial_retries)
            << "seed " << seed;

        const auto a = serial.model().module().parameters();
        const auto b = pipelined.model().module().parameters();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i]->value().size(), b[i]->value().size());
            EXPECT_EQ(std::memcmp(a[i]->value().data(),
                                  b[i]->value().data(),
                                  a[i]->value().bytes()),
                      0)
                << "seed " << seed << " " << a[i]->name();
        }
    }
}

TEST(PipelineModel, OverlapStrictlyBeatsSerialAccounting)
{
    auto &data = arxiv();
    train::TrainerOptions options = baseOptions(data);
    options.mode = train::ExecutionMode::CostModel;

    device::Device dev("gpu", util::mib(48));
    options.pipeline.prefetch_depth = 2;
    options.pipeline.feature_cache_bytes = util::mib(2);
    PipelineTrainer trainer(options, dev);
    util::Rng rng(3);
    // arxiv-sim @0.08 has 128 train nodes: batch 32 -> 4 batches.
    const train::EpochReport stats =
        trainer.trainEpoch(data, 32, rng);

    ASSERT_GT(stats.num_batches, 1);
    // The epoch's overlap model: measured prep lanes (sample, build,
    // feature) beside the modeled device lane (train.iteration).
    double prep_busy = 0.0;
    double device_busy = 0.0;
    for (const obs::CpStageReport &stage : stats.cp.stages) {
        if (stage.stage == obs::names::kSpanTrainIteration)
            device_busy += stage.busy_us;
        else
            prep_busy += stage.busy_us;
    }
    EXPECT_GT(device_busy, 0.0);
    EXPECT_GT(prep_busy, 0.0);
    EXPECT_LT(stats.cp.wall_us, stats.cp.serial_us);
    EXPECT_GE(stats.cp.wall_us, device_busy);
}

TEST(Prefetcher, StageErrorPropagatesToConsumer)
{
    auto &data = arxiv();
    nn::ModelConfig config;
    config.aggregator = nn::AggregatorKind::Mean;
    config.num_layers = 2;
    config.feature_dim = data.featureDim();
    config.hidden_dim = 16;
    config.num_classes = data.numClasses();
    nn::MemoryModel model(config);

    core::SchedulerOptions sched;
    sched.mem_constraint = 1; // infeasible: scheduling must fail
    sched.max_groups = 2;

    std::vector<graph::NodeList> batches = {graph::NodeList(
        data.trainNodes().begin(), data.trainNodes().begin() + 32)};
    util::Rng rng(11);
    Prefetcher prefetcher(data, batches, {5, 10}, model, sched,
                          /*stage_features=*/false, PipelineOptions{},
                          nullptr, rng);
    EXPECT_THROW(
        {
            while (prefetcher.next())
                ;
        },
        buffalo::Error);
}

} // namespace
} // namespace buffalo::pipeline
