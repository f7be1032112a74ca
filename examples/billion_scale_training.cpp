/**
 * @file
 * The paper's headline scenario: training on a billion-scale-shaped
 * citation graph (ogbn-papers-sim) on a single memory-limited GPU.
 *
 * The dataset contains zero-in-edge nodes, which break Betty's REG
 * construction (paper Fig. 11 reports "no data" for OGBN-papers);
 * Buffalo's degree-0 bucket handles them natively. This example shows
 * both behaviours, then trains with Buffalo under a tight budget.
 */
#include <cstdio>

#include "baselines/betty.h"
#include "device/device.h"
#include "graph/datasets.h"
#include "train/trainer.h"
#include "util/format.h"

using namespace buffalo;

int
main()
{
    graph::Dataset data =
        graph::loadDataset(graph::DatasetId::Papers, 42, 0.5);
    std::printf("dataset %s: %u nodes (%u with zero in-edges), "
                "%llu edges\n",
                data.name().c_str(), data.graph().numNodes(),
                data.graph().countZeroDegreeNodes(),
                static_cast<unsigned long long>(
                    data.graph().numEdges()));

    // A batch that includes some isolated nodes, as a random batch of
    // a real billion-scale graph would.
    graph::NodeList seeds;
    const auto &train = data.trainNodes();
    const std::size_t count = std::min<std::size_t>(1024, train.size());
    for (std::size_t i = 0; i < count; ++i)
        seeds.push_back(train[i * train.size() / count]);

    train::TrainerOptions options;
    options.model.aggregator = nn::AggregatorKind::Lstm;
    options.model.num_layers = 2;
    options.model.feature_dim = data.featureDim();
    options.model.hidden_dim = 32;
    options.model.num_classes = data.numClasses();
    options.fanouts = {10, 25};
    options.mode = train::ExecutionMode::CostModel;

    const std::uint64_t budget = util::mib(64);

    // Betty cannot process this batch at all.
    {
        device::Device gpu("gpu:betty", budget);
        train::BettyTrainer betty(options, gpu, 8);
        util::Rng rng(5);
        try {
            betty.trainIteration(data, seeds, rng);
            std::printf("Betty: unexpectedly succeeded?\n");
        } catch (const baselines::BettyUnsupported &e) {
            std::printf("Betty: FAILED as in the paper — %s\n",
                        e.what());
        }
    }

    // Buffalo schedules around both the isolated nodes and the budget.
    device::Device gpu("gpu:buffalo", budget);
    train::BuffaloTrainer trainer(options, gpu);
    util::Rng rng(5);
    for (int iteration = 0; iteration < 3; ++iteration) {
        auto stats = trainer.trainIteration(data, seeds, rng);
        std::printf(
            "Buffalo iteration %d: %d micro-batches, peak %s / %s, "
            "simulated device time %s, end-to-end %s\n",
            iteration, stats.num_micro_batches,
            util::formatBytes(stats.peak_device_bytes).c_str(),
            util::formatBytes(budget).c_str(),
            util::formatSeconds(
                stats.phases.modeled(train::Phase::GpuCompute))
                .c_str(),
            util::formatSeconds(stats.endToEndSeconds()).c_str());
    }
    std::printf("the paper reports the same qualitative result: "
                "OGBN-papers trains in tens of seconds per iteration "
                "on one GPU, where prior systems need minutes or "
                "cannot run.\n");
    return 0;
}
