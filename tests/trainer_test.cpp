/**
 * @file
 * Tests for the end-to-end training pipelines: OOM semantics,
 * cost-model execution, phase accounting, epoch training, and the
 * simulated multi-GPU runner.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "obs/metrics.h"
#include "obs/names.h"
#include "train/experiment.h"
#include "train/trainer.h"
#include "util/format.h"

namespace buffalo::train {
namespace {

graph::Dataset &
arxiv()
{
    static graph::Dataset data =
        graph::loadDataset(graph::DatasetId::Arxiv, 42, 0.08);
    return data;
}

TrainerOptions
baseOptions(const graph::Dataset &data,
            nn::AggregatorKind kind = nn::AggregatorKind::Mean)
{
    TrainerOptions options;
    options.model.aggregator = kind;
    options.model.num_layers = 2;
    options.model.feature_dim = data.featureDim();
    options.model.hidden_dim = 16;
    options.model.num_classes = data.numClasses();
    options.fanouts = {5, 10};
    return options;
}

NodeList
seedsOf(const graph::Dataset &data, std::size_t count)
{
    return NodeList(data.trainNodes().begin(),
                    data.trainNodes().begin() +
                        std::min(count, data.trainNodes().size()));
}

TEST(WholeBatch, TrainsUnderLargeBudget)
{
    auto &data = arxiv();
    device::Device dev("gpu", util::gib(8));
    WholeBatchTrainer trainer(baseOptions(data), dev);
    util::Rng rng(1);
    auto stats = trainer.trainIteration(data, seedsOf(data, 64), rng);
    EXPECT_EQ(stats.num_micro_batches, 1);
    EXPECT_GT(stats.loss, 0.0);
    EXPECT_EQ(stats.num_outputs, 64u);
    EXPECT_GT(stats.peak_device_bytes, 0u);
    EXPECT_GT(stats.phases.modeled(Phase::GpuCompute), 0.0);
    // Numeric data loading is a measured feature fill plus a modeled
    // transfer; device compute is modeled only.
    EXPECT_GT(stats.phases.measured(Phase::DataLoading), 0.0);
    EXPECT_GT(stats.phases.modeled(Phase::DataLoading), 0.0);
    EXPECT_EQ(stats.phases.measured(Phase::GpuCompute), 0.0);
}

/** Measures the whole-batch peak for @p options on huge memory. */
std::uint64_t
measureWholeBatchPeak(const TrainerOptions &options,
                      const NodeList &seeds, std::uint64_t rng_seed)
{
    device::Device dev("probe", util::gib(64));
    WholeBatchTrainer trainer(options, dev);
    util::Rng rng(rng_seed);
    return trainer.trainIteration(arxiv(), seeds, rng)
        .peak_device_bytes;
}

TEST(WholeBatch, OomsUnderTightBudget)
{
    auto &data = arxiv();
    TrainerOptions options =
        baseOptions(data, nn::AggregatorKind::Lstm);
    const NodeList seeds = seedsOf(data, 256);
    const std::uint64_t peak =
        measureWholeBatchPeak(options, seeds, 2);
    device::Device dev("gpu", peak / 2);
    WholeBatchTrainer trainer(options, dev);
    util::Rng rng(2);
    EXPECT_THROW(trainer.trainIteration(data, seeds, rng),
                 device::DeviceOom);
}

TEST(Buffalo, SucceedsWhereWholeBatchOoms)
{
    auto &data = arxiv();
    TrainerOptions options =
        baseOptions(data, nn::AggregatorKind::Lstm);
    const NodeList seeds = seedsOf(data, 256);
    const std::uint64_t budget =
        measureWholeBatchPeak(options, seeds, 3) * 7 / 10;

    device::Device whole_dev("gpu", budget);
    {
        WholeBatchTrainer whole(options, whole_dev);
        util::Rng rng(3);
        EXPECT_THROW(whole.trainIteration(data, seeds, rng),
                     device::DeviceOom);
    }

    device::Device buffalo_dev("gpu", budget);
    BuffaloTrainer buffalo(options, buffalo_dev);
    util::Rng rng(3);
    auto stats = buffalo.trainIteration(data, seeds, rng);
    EXPECT_GT(stats.num_micro_batches, 1);
    EXPECT_LE(stats.peak_device_bytes, budget);
    EXPECT_EQ(stats.num_outputs, seeds.size());
}

TEST(Buffalo, PhasesIncludeScheduling)
{
    auto &data = arxiv();
    device::Device dev("gpu", util::mib(64));
    BuffaloTrainer trainer(baseOptions(data), dev);
    util::Rng rng(4);
    auto stats = trainer.trainIteration(data, seedsOf(data, 128), rng);
    EXPECT_GE(stats.phases.measured(Phase::Scheduling), 0.0);
    EXPECT_GE(stats.phases.measured(Phase::ConnectionCheck), 0.0);
    EXPECT_GE(stats.phases.measured(Phase::BlockConstruction), 0.0);
    // Buffalo never pays REG or METIS time, on either clock.
    for (const Phase phase :
         {Phase::RegConstruction, Phase::MetisPartition}) {
        EXPECT_EQ(stats.phases.measured(phase), 0.0);
        EXPECT_EQ(stats.phases.modeled(phase), 0.0);
    }
    EXPECT_EQ(stats.endToEndSeconds(), stats.phases.measuredSeconds() +
                                           stats.phases.modeledSeconds());
}

TEST(Betty, TrainsAndPaysPartitioningTime)
{
    auto &data = arxiv();
    device::Device dev("gpu", util::gib(2));
    BettyTrainer trainer(baseOptions(data), dev, 4);
    util::Rng rng(5);
    auto stats = trainer.trainIteration(data, seedsOf(data, 128), rng);
    EXPECT_GE(stats.num_micro_batches, 2);
    EXPECT_GT(stats.phases.measured(Phase::RegConstruction) +
                  stats.phases.measured(Phase::MetisPartition),
              0.0);
    EXPECT_GT(stats.loss, 0.0);
}

TEST(CostModel, RunsWithoutNumericKernels)
{
    auto &data = arxiv();
    TrainerOptions options =
        baseOptions(data, nn::AggregatorKind::Lstm);
    options.mode = ExecutionMode::CostModel;
    device::Device dev("gpu", util::gib(24));
    BuffaloTrainer trainer(options, dev);
    util::Rng rng(6);
    auto stats = trainer.trainIteration(data, seedsOf(data, 256), rng);
    EXPECT_EQ(stats.loss, 0.0); // no numeric loss in cost mode
    EXPECT_GT(stats.phases.modeled(Phase::GpuCompute), 0.0);
    EXPECT_GT(stats.peak_device_bytes, 0u);
    EXPECT_GT(dev.totalSeconds(), 0.0);
}

TEST(CostModel, OomsExactlyLikeNumericMode)
{
    auto &data = arxiv();
    TrainerOptions options =
        baseOptions(data, nn::AggregatorKind::Lstm);
    const NodeList seeds = seedsOf(data, 256);
    const std::uint64_t peak =
        measureWholeBatchPeak(options, seeds, 7);
    options.mode = ExecutionMode::CostModel;
    device::Device dev("gpu", peak / 2);
    WholeBatchTrainer trainer(options, dev);
    util::Rng rng(7);
    EXPECT_THROW(trainer.trainIteration(data, seeds, rng),
                 device::DeviceOom);
}

TEST(CostModel, StaticBytesChargedAndReleased)
{
    auto &data = arxiv();
    TrainerOptions options = baseOptions(data);
    options.mode = ExecutionMode::CostModel;
    device::Device dev("gpu", util::gib(1));
    {
        BuffaloTrainer trainer(options, dev);
        EXPECT_EQ(dev.allocator().bytesInUse(),
                  trainer.staticBytes());
    }
    EXPECT_EQ(dev.allocator().bytesInUse(), 0u);
}

TEST(Trainer, RejectsMismatchedFanouts)
{
    auto &data = arxiv();
    TrainerOptions options = baseOptions(data);
    options.fanouts = {5}; // model has 2 layers
    device::Device dev("gpu", util::gib(1));
    EXPECT_THROW(WholeBatchTrainer(options, dev), InvalidArgument);
}

TEST(Epochs, LossDecreasesOverTraining)
{
    auto &data = arxiv();
    TrainerOptions options = baseOptions(data);
    options.learning_rate = 1e-2;
    device::Device dev("gpu", util::gib(8));
    BuffaloTrainer trainer(options, dev);
    util::Rng rng(8);
    auto epochs = runTraining(trainer, data, 6, 64, rng);
    ASSERT_EQ(epochs.size(), 6u);
    EXPECT_LT(epochs.back().mean_loss,
              epochs.front().mean_loss * 0.9);
    EXPECT_GT(epochs.back().accuracy, epochs.front().accuracy);
}

TEST(Epochs, MakeBatchesPartitionsNodes)
{
    util::Rng rng(9);
    NodeList nodes(100);
    for (std::size_t i = 0; i < nodes.size(); ++i)
        nodes[i] = static_cast<graph::NodeId>(i);
    auto batches = makeBatches(nodes, 32, rng);
    ASSERT_EQ(batches.size(), 4u);
    std::size_t total = 0;
    for (const auto &batch : batches)
        total += batch.size();
    EXPECT_EQ(total, 100u);
    EXPECT_EQ(batches.back().size(), 4u);
}

// MultiGpu.TwoDevicesSlightlyFaster lives in perf_test.cpp: it
// asserts on measured wall-clock time, so it carries the `perf`
// CTest label and sanitizer CI legs skip it.

std::uint64_t
oomRetries()
{
    return obs::metrics().counter(obs::names::kCtrTrainOomRetries).value();
}

TEST(Buffalo, OomRetryReschedulesTighter)
{
    // Lie to the scheduler: tell it the device has 2x the real
    // capacity. Execution then OOMs and the retry loop must recover
    // by rescheduling against a shrinking safety factor. The retried
    // iteration must train exactly what a fresh trainer scheduled at
    // the tightened factor from the start trains: the failed attempts
    // leave no gradient, cache or optimizer state behind.
    auto &data = arxiv();
    TrainerOptions options =
        baseOptions(data, nn::AggregatorKind::Lstm);
    const NodeList seeds = seedsOf(data, 256);
    const std::uint64_t real_capacity =
        measureWholeBatchPeak(options, seeds, 14) * 6 / 10;
    options.scheduler.mem_constraint = real_capacity * 2;

    const std::uint64_t retries0 = oomRetries();
    device::Device dev("gpu", real_capacity);
    BuffaloTrainer trainer(options, dev);
    util::Rng rng(14);
    auto stats = trainer.trainIteration(data, seeds, rng);
    const std::uint64_t retries = oomRetries() - retries0;
    ASSERT_GE(retries, 1u);
    EXPECT_GT(stats.num_micro_batches, 1);
    EXPECT_LE(stats.peak_device_bytes, real_capacity);
    EXPECT_EQ(stats.num_outputs, seeds.size());

    // The factor the retry loop reached: the default 0.82 times 0.7
    // per retry, multiplied in the loop's order.
    TrainerOptions tight = options;
    ASSERT_EQ(tight.scheduler.safety_factor, 0.82);
    for (std::uint64_t r = 0; r < retries; ++r)
        tight.scheduler.safety_factor *= 0.7;
    device::Device fresh_dev("fresh", real_capacity);
    BuffaloTrainer fresh(tight, fresh_dev);
    util::Rng fresh_rng(14);
    const auto expected = fresh.trainIteration(data, seeds, fresh_rng);
    EXPECT_EQ(oomRetries() - retries0, retries)
        << "the tightened schedule must fit first time";

    EXPECT_EQ(std::memcmp(&stats.loss, &expected.loss, sizeof(double)),
              0)
        << stats.loss << " vs " << expected.loss;
    EXPECT_EQ(stats.num_micro_batches, expected.num_micro_batches);
    const auto a = trainer.model().module().parameters();
    const auto b = fresh.model().module().parameters();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i]->value().size(), b[i]->value().size());
        EXPECT_EQ(std::memcmp(a[i]->value().data(),
                              b[i]->value().data(),
                              a[i]->value().bytes()),
                  0)
            << a[i]->name();
    }
}

TEST(MultiGpu, RequiresCostModelMode)
{
    auto &data = arxiv();
    TrainerOptions options = baseOptions(data);
    device::DeviceGroup group(2, util::mib(64));
    util::Rng rng(11);
    EXPECT_THROW(runBuffaloDataParallel(data, options, group,
                                        seedsOf(data, 32), rng),
                 InvalidArgument);
}

} // namespace
} // namespace buffalo::train
