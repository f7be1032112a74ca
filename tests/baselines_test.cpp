/**
 * @file
 * Tests for the Betty baseline (REG construction + METIS partitioning,
 * including the zero-in-edge failure the paper reports) and the
 * PyG-style padding accounting.
 */
#include <gtest/gtest.h>

#include <set>

#include "baselines/betty.h"
#include "baselines/padding.h"
#include "graph/datasets.h"
#include "phase_times.h"
#include "sampling/block_generator.h"
#include "util/rng.h"

namespace buffalo::baselines {
namespace {

SampledSubgraph
sampleArxiv(std::size_t num_seeds = 128)
{
    static graph::Dataset data =
        graph::loadDataset(graph::DatasetId::Arxiv, 42, 0.1);
    util::Rng rng(4);
    sampling::NeighborSampler sampler({10, 10});
    graph::NodeList seeds(
        data.trainNodes().begin(),
        data.trainNodes().begin() +
            std::min(num_seeds, data.trainNodes().size()));
    return sampler.sample(data.graph(), seeds, rng);
}

TEST(Betty, RegCoversAllSeeds)
{
    auto sg = sampleArxiv();
    BettyPartitioner betty;
    auto reg = betty.buildReg(sg);
    reg.validate();
    EXPECT_EQ(reg.numNodes(), sg.numSeeds());
    // The REG must contain redundancy edges on a clustered graph.
    EXPECT_GT(reg.numEdges(), 0u);
    // Node weights reflect seed degree.
    const auto &top = sg.layerAdjacency(sg.numLayers() - 1);
    for (graph::NodeId seed = 0; seed < sg.numSeeds(); ++seed)
        EXPECT_EQ(reg.node_weights[seed], 1 + top.degree(seed));
}

TEST(Betty, RegEdgeWeightsCountSharedNeighbors)
{
    auto sg = sampleArxiv(64);
    BettyPartitioner betty;
    auto reg = betty.buildReg(sg);
    const auto &top = sg.layerAdjacency(sg.numLayers() - 1);

    // Spot-check: an edge's weight is at most the smaller sampled
    // degree of its endpoints.
    for (graph::NodeId u = 0; u < reg.numNodes(); ++u) {
        const auto &offsets = reg.graph.offsets();
        for (graph::EdgeIndex e = offsets[u]; e < offsets[u + 1];
             ++e) {
            const graph::NodeId v = reg.graph.targets()[e];
            EXPECT_LE(reg.edge_weights[e],
                      std::min(top.degree(u), top.degree(v)));
        }
    }
}

TEST(Betty, PartitionCoversSeedsDisjointly)
{
    auto sg = sampleArxiv();
    BettyPartitioner betty;
    auto parts = betty.partition(sg, 4);
    EXPECT_GE(parts.size(), 2u);
    std::set<graph::NodeId> seen;
    for (const auto &part : parts) {
        EXPECT_FALSE(part.empty());
        for (auto seed : part) {
            ASSERT_LT(seed, sg.numSeeds());
            EXPECT_TRUE(seen.insert(seed).second);
        }
    }
    EXPECT_EQ(seen.size(), sg.numSeeds());
}

TEST(Betty, RecordsPhaseTimings)
{
    auto sg = sampleArxiv();
    BettyPartitioner betty;
    obs::PhaseTimes times;
    betty.partition(sg, 4, &times);
    testing_phase::expectOnlyMeasured(
        times, {obs::Phase::RegConstruction, obs::Phase::MetisPartition});
}

TEST(Betty, ZeroInEdgeSeedFails)
{
    // papers-sim contains zero-in-edge nodes; Betty must refuse —
    // exactly the "no data" cell of paper Fig. 11.
    graph::Dataset papers =
        graph::loadDataset(graph::DatasetId::Papers, 42, 0.05);
    ASSERT_GT(papers.graph().countZeroDegreeNodes(), 0u);

    // Find an isolated node and include it in the seeds.
    graph::NodeList seeds;
    for (graph::NodeId u = 0; u < papers.graph().numNodes(); ++u) {
        if (papers.graph().degree(u) == 0) {
            seeds.push_back(u);
            break;
        }
    }
    for (graph::NodeId u = 0; seeds.size() < 32; ++u)
        if (papers.graph().degree(u) > 0)
            seeds.push_back(u);

    util::Rng rng(6);
    sampling::NeighborSampler sampler({5, 5});
    auto sg = sampler.sample(papers.graph(), seeds, rng);
    BettyPartitioner betty;
    EXPECT_THROW(betty.partition(sg, 2), BettyUnsupported);
}

TEST(Betty, BuffaloHandlesWhatBettyCannot)
{
    // The same zero-in-edge seeds must bucketize fine under Buffalo
    // (degree-0 bucket).
    graph::Dataset papers =
        graph::loadDataset(graph::DatasetId::Papers, 42, 0.05);
    graph::NodeList seeds;
    for (graph::NodeId u = 0;
         u < papers.graph().numNodes() && seeds.size() < 32; ++u) {
        if (papers.graph().degree(u) == 0 || seeds.size() > 4)
            seeds.push_back(u);
    }
    util::Rng rng(7);
    sampling::NeighborSampler sampler({5, 5});
    auto sg = sampler.sample(papers.graph(), seeds, rng);
    auto buckets = sampling::bucketizeSeeds(sg);
    EXPECT_EQ(buckets.front().degree, 0u);
    EXPECT_GE(buckets.front().volume(), 1u);
}

TEST(Padding, PaddedAtLeastBucketed)
{
    auto sg = sampleArxiv(96);
    sampling::FastBlockGenerator gen;
    graph::NodeList all(sg.numSeeds());
    for (graph::NodeId i = 0; i < sg.numSeeds(); ++i)
        all[i] = i;
    auto mb = gen.generate(sg, all);

    nn::ModelConfig config;
    config.num_layers = 2;
    config.feature_dim = 16;
    config.hidden_dim = 16;
    config.num_classes = 4;
    nn::MemoryModel model(config);

    EXPECT_GE(paddedMicroBatchBytes(model, mb),
              model.microBatchBytes(mb));
    EXPECT_GE(paddedMicroBatchFlops(model, mb),
              model.microBatchFlops(mb));
}

TEST(Padding, SkewedDegreesInflatePadding)
{
    // One high-degree dst + many low-degree dsts: padding explodes.
    sampling::Block block;
    block.num_dst = 10;
    // dst 0 has degree 20; dsts 1..9 have degree 1.
    block.offsets.resize(11);
    block.offsets[0] = 0;
    block.offsets[1] = 20;
    for (int i = 2; i <= 10; ++i)
        block.offsets[i] = block.offsets[i - 1] + 1;
    const std::size_t num_src = 40;
    for (std::size_t s = 0; s < num_src; ++s)
        block.src_nodes.push_back(static_cast<graph::NodeId>(s));
    for (std::size_t e = 0; e < block.offsets[10]; ++e)
        block.neighbors.push_back(
            static_cast<graph::NodeId>(10 + e % 30));
    block.validate();
    sampling::MicroBatch mb;
    mb.blocks = {block};

    nn::ModelConfig config;
    config.num_layers = 1;
    config.feature_dim = 8;
    config.hidden_dim = 8;
    config.num_classes = 2;
    nn::MemoryModel model(config);

    // Padded edges = 10 * 20 = 200 vs actual 29: > 3x inflation.
    EXPECT_GT(paddedMicroBatchBytes(model, mb),
              3 * model.microBatchBytes(mb) / 2);
}

} // namespace
} // namespace buffalo::baselines
