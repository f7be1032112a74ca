/**
 * @file
 * Wall-clock-sensitive performance comparisons. These tests assert on
 * measured host time, which sanitizer instrumentation (TSan/ASan)
 * skews enough to flake, so the whole binary carries the CTest `perf`
 * label and tools/ci.sh excludes it from sanitizer legs with
 * `ctest -LE perf`.
 */
#include <gtest/gtest.h>

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

TEST(MultiGpu, TwoDevicesSlightlyFaster)
{
    auto &data = arxiv();
    TrainerOptions options =
        baseOptions(data, nn::AggregatorKind::Lstm);
    const NodeList seeds = seedsOf(data, 256);
    const std::uint64_t budget =
        measureWholeBatchPeak(options, seeds, 10) / 2;
    options.mode = ExecutionMode::CostModel;

    device::DeviceGroup one(1, budget);
    device::DeviceGroup two(2, budget);
    util::Rng rng1(10), rng2(10);
    auto single = runBuffaloDataParallel(data, options, one, seeds,
                                         rng1);
    auto dual =
        runBuffaloDataParallel(data, options, two, seeds, rng2);

    EXPECT_GT(single.num_micro_batches, 1);
    // Two devices shave device time but host time is unchanged
    // (paper §V-G: only a 3-5% end-to-end gain). The saving is
    // asserted on the modeled clock alone: iteration_seconds adds the
    // measured host time of two separate runs, whose noise is as
    // large as the modeled saving.
    EXPECT_LE(dual.device_seconds, single.device_seconds);
    EXPECT_LT(dual.device_seconds + dual.allreduce_seconds,
              single.device_seconds);
    EXPECT_GT(dual.allreduce_seconds, 0.0);
}

} // namespace
} // namespace buffalo::train
