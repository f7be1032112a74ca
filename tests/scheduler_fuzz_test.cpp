/**
 * @file
 * Randomized property tests for the Buffalo scheduler: across random
 * graph families, batch sizes, aggregators, depths, and budgets, every
 * successful schedule must satisfy the core invariants —
 *   (1) groups cover all seeds disjointly,
 *   (2) every group estimate respects the constraint,
 *   (3) generated micro-batches are structurally valid and match
 *       their groups,
 *   (4) numeric execution of every micro-batch stays within budget
 *       (spot-checked on small cases).
 */
#include <gtest/gtest.h>

#include <set>

#include "core/micro_batch_generator.h"
#include "device/device.h"
#include "core/scheduler.h"
#include "graph/generators.h"
#include "nn/loss.h"
#include "nn/gnn_model.h"
#include "tensor/ops.h"
#include "util/format.h"
#include "util/rng.h"

namespace buffalo::core {
namespace {

struct FuzzCase
{
    std::uint64_t seed;
};

class SchedulerFuzz : public ::testing::TestWithParam<FuzzCase>
{
};

TEST_P(SchedulerFuzz, InvariantsHoldOnRandomInputs)
{
    util::Rng rng(GetParam().seed);

    // Random graph family and shape.
    graph::CsrGraph graph;
    switch (rng.nextBounded(4)) {
      case 0:
        graph = graph::generateBarabasiAlbert(
            300 + rng.nextBounded(900), 2 + rng.nextBounded(5), rng);
        break;
      case 1:
        graph = graph::generateWattsStrogatz(
            300 + rng.nextBounded(900), 2 + rng.nextBounded(3),
            rng.nextDouble() * 0.8, rng);
        break;
      case 2:
        graph = graph::generateCommunityPowerLaw(
            300 + rng.nextBounded(900), 16 + rng.nextBounded(32),
            0.2 + rng.nextDouble() * 0.4, 2 + rng.nextBounded(4),
            rng);
        break;
      default:
        graph = graph::generateErdosRenyi(
            300 + rng.nextBounded(900),
            0.005 + rng.nextDouble() * 0.02, rng);
        break;
    }

    // Random model configuration.
    nn::ModelConfig config;
    const nn::AggregatorKind kinds[] = {
        nn::AggregatorKind::Mean, nn::AggregatorKind::Pool,
        nn::AggregatorKind::Lstm};
    config.aggregator = kinds[rng.nextBounded(3)];
    config.num_layers = 1 + static_cast<int>(rng.nextBounded(3));
    config.feature_dim = 4 + static_cast<int>(rng.nextBounded(28));
    config.hidden_dim = 4 + static_cast<int>(rng.nextBounded(28));
    config.num_classes = 2 + static_cast<int>(rng.nextBounded(14));
    nn::MemoryModel model(config);

    // Random batch and sampling.
    std::vector<int> fanouts(config.num_layers);
    for (auto &fanout : fanouts)
        fanout = 2 + static_cast<int>(rng.nextBounded(12));
    const std::size_t num_seeds = 16 + rng.nextBounded(200);
    auto picks =
        rng.sampleWithoutReplacement(graph.numNodes(), num_seeds);
    graph::NodeList seeds(picks.begin(), picks.end());
    sampling::NeighborSampler sampler(fanouts);
    auto sg = sampler.sample(graph, seeds, rng);

    // A budget somewhere between "needs heavy splitting" and "easy".
    core::SchedulerOptions options;
    options.mem_constraint =
        util::mib(2) + rng.nextBounded(util::mib(60));
    const double coefficient = rng.nextDouble() * 0.6;
    core::BuffaloScheduler scheduler(model, coefficient, options);

    ScheduleResult result;
    try {
        result = scheduler.schedule(sg);
    } catch (const InvalidArgument &) {
        return; // infeasible budget: a legal outcome
    }

    // (1) disjoint cover of all seeds.
    std::set<sampling::NodeId> seen;
    for (const auto &group : result.groups) {
        ASSERT_FALSE(group.buckets.empty());
        for (auto seed : group.outputSeeds()) {
            ASSERT_LT(seed, sg.numSeeds());
            ASSERT_TRUE(seen.insert(seed).second)
                << "seed in two groups";
        }
    }
    ASSERT_EQ(seen.size(), sg.numSeeds());

    // (2) every group estimate within the constraint.
    for (const auto &group : result.groups)
        ASSERT_LE(group.est_bytes, options.mem_constraint);

    // (3) structurally valid micro-batches matching their groups.
    MicroBatchGenerator generator;
    auto batches = generator.generate(sg, result.groups);
    ASSERT_EQ(batches.size(), result.groups.size());
    for (std::size_t i = 0; i < batches.size(); ++i) {
        batches[i].validateChain();
        ASSERT_EQ(batches[i].numLayers(), config.num_layers);
        ASSERT_EQ(batches[i].outputNodes().size(),
                  result.groups[i].outputCount());
    }

    // (4) numeric spot check on small cases: real training of the
    // heaviest micro-batch stays within ~the constraint (safety
    // factor + estimator tolerance allow modest overshoot; the hard
    // guarantee is enforced by the trainer's OOM-retry loop).
    if (sg.nodes().size() < 4000 && config.num_layers <= 2) {
        std::size_t heaviest = 0;
        for (std::size_t i = 1; i < result.groups.size(); ++i)
            if (result.groups[i].est_bytes >
                result.groups[heaviest].est_bytes)
                heaviest = i;
        const auto &mb = batches[heaviest];

        nn::GnnModel sage(config, 5);
        nn::Tensor feats =
            nn::Tensor::zeros(mb.inputNodes().size(),
                              config.feature_dim);
        tensor::fillUniform(feats, 1.0f, rng);
        device::Device probe("probe", util::gib(8));
        probe.allocator().resetPeak();
        // Track activations only (weights live off-device here).
        nn::Tensor feats_dev = feats.clone(&probe.allocator());
        nn::Tensor logits =
            sage.forward(mb, feats_dev, &probe.allocator());
        std::vector<std::int32_t> labels(mb.outputNodes().size(), 0);
        auto loss = nn::softmaxCrossEntropy(logits, labels, 0,
                                            &probe.allocator());
        sage.backward(loss.grad_logits, &probe.allocator());
        EXPECT_LT(probe.allocator().peakBytes(),
                  2 * options.mem_constraint)
            << "heaviest micro-batch wildly exceeded its estimate";
    }
}

std::vector<FuzzCase>
fuzzCases()
{
    std::vector<FuzzCase> cases;
    for (std::uint64_t seed = 1; seed <= 24; ++seed)
        cases.push_back({seed * 7919});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Random, SchedulerFuzz, ::testing::ValuesIn(fuzzCases()),
    [](const ::testing::TestParamInfo<FuzzCase> &info) {
        return "seed_" + std::to_string(info.param.seed);
    });

} // namespace
} // namespace buffalo::core
