/**
 * @file
 * Tests for the sampling substrate: neighbor sampler invariants, block
 * chain validity, and fast-vs-baseline block generator equivalence.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>

#include "digest.h"
#include "graph/generators.h"
#include "phase_times.h"
#include "sampling/block_generator.h"
#include "sampling/sampled_subgraph.h"
#include "util/errors.h"

namespace buffalo::sampling {
namespace {

CsrGraph
testGraph(std::uint64_t seed = 1, NodeId nodes = 600)
{
    util::Rng rng(seed);
    return graph::generateBarabasiAlbert(nodes, 4, rng);
}

NodeList
firstSeeds(NodeId count)
{
    NodeList seeds(count);
    for (NodeId i = 0; i < count; ++i)
        seeds[i] = i * 3; // spread out
    return seeds;
}

TEST(NeighborSampler, SeedsGetPrefixLocalIds)
{
    CsrGraph g = testGraph();
    util::Rng rng(2);
    NeighborSampler sampler({5, 5});
    NodeList seeds = firstSeeds(20);
    SampledSubgraph sg = sampler.sample(g, seeds, rng);

    EXPECT_EQ(sg.numSeeds(), 20u);
    for (NodeId i = 0; i < 20; ++i) {
        EXPECT_EQ(sg.globalId(i), seeds[i]);
        EXPECT_EQ(sg.localId(seeds[i]), i);
    }
}

TEST(NeighborSampler, FanoutCapsDegrees)
{
    CsrGraph g = testGraph();
    util::Rng rng(3);
    NeighborSampler sampler({3, 7});
    SampledSubgraph sg = sampler.sample(g, firstSeeds(30), rng);

    ASSERT_EQ(sg.numLayers(), 2);
    const CsrGraph &top = sg.layerAdjacency(1);
    const CsrGraph &bottom = sg.layerAdjacency(0);
    for (NodeId u = 0; u < top.numNodes(); ++u) {
        EXPECT_LE(top.degree(u), 7u);
        EXPECT_LE(bottom.degree(u), 3u);
    }
}

TEST(NeighborSampler, SampledNeighborsAreRealNeighbors)
{
    CsrGraph g = testGraph();
    util::Rng rng(4);
    NeighborSampler sampler({4, 4});
    SampledSubgraph sg = sampler.sample(g, firstSeeds(15), rng);

    for (int layer = 0; layer < sg.numLayers(); ++layer) {
        const CsrGraph &adj = sg.layerAdjacency(layer);
        for (NodeId u = 0; u < adj.numNodes(); ++u) {
            for (NodeId v_local : adj.neighbors(u)) {
                EXPECT_TRUE(g.hasEdge(sg.globalId(u),
                                      sg.globalId(v_local)));
            }
        }
    }
}

TEST(NeighborSampler, NoSamplingWhenDegreeBelowFanout)
{
    CsrGraph g = testGraph();
    util::Rng rng(5);
    NeighborSampler sampler({1000, 1000});
    SampledSubgraph sg = sampler.sample(g, firstSeeds(5), rng);
    // With fanout over the max degree, every neighbor is kept.
    const CsrGraph &top = sg.layerAdjacency(1);
    for (NodeId i = 0; i < sg.numSeeds(); ++i)
        EXPECT_EQ(top.degree(i), g.degree(sg.globalId(i)));
}

TEST(NeighborSampler, RejectsDuplicateSeeds)
{
    CsrGraph g = testGraph();
    util::Rng rng(6);
    NeighborSampler sampler({3});
    EXPECT_THROW(sampler.sample(g, {1, 1}, rng), InvalidArgument);
}

TEST(NeighborSampler, RejectsBadFanouts)
{
    EXPECT_THROW(NeighborSampler({}), InvalidArgument);
    EXPECT_THROW(NeighborSampler({0}), InvalidArgument);
}

TEST(NeighborSampler, LocalIdThrowsForAbsentNode)
{
    CsrGraph g = testGraph();
    util::Rng rng(7);
    NeighborSampler sampler({2});
    SampledSubgraph sg = sampler.sample(g, {0}, rng);
    EXPECT_THROW(sg.localId(599), NotFound);
}

/** Graph families of the golden sampling digests. */
enum class Family
{
    BarabasiAlbert,
    ErdosRenyi,
    CommunityPowerLaw,
};

CsrGraph
familyGraph(Family family, std::uint64_t seed)
{
    util::Rng rng(seed);
    switch (family) {
      case Family::BarabasiAlbert:
        return graph::generateBarabasiAlbert(3000, 6, rng);
      case Family::ErdosRenyi:
        return graph::generateErdosRenyi(2000, 0.012, rng);
      case Family::CommunityPowerLaw:
        return graph::generateCommunityPowerLaw(3000, 40, 0.5, 3, rng);
    }
    return {};
}

/** Samples 200 spread seeds with fanouts {10, 25}. */
SampledSubgraph
sampleFamily(const CsrGraph &g, std::uint64_t seed)
{
    util::Rng rng(seed * 7 + 1);
    NeighborSampler sampler({10, 25});
    return sampler.sample(g, firstSeeds(200), rng);
}

/**
 * Golden digests of SampledSubgraph, computed from the sampler before
 * it replaced its hash maps with flat id tables. Any change here means
 * a sampled batch changed.
 */
TEST(SampleDigest, PinnedPerFamilyAndSeed)
{
    struct Case
    {
        Family family;
        std::uint64_t seed;
        std::uint64_t golden;
    };
    const std::vector<Case> cases = {
        {Family::BarabasiAlbert, 1, 0x1bd6fcb6f711cc98ULL},
        {Family::BarabasiAlbert, 2, 0x3964eb6db7eb5bdaULL},
        {Family::ErdosRenyi, 1, 0x9ebc717c42bf4a38ULL},
        {Family::ErdosRenyi, 2, 0x44a0fd04138e3ae1ULL},
        {Family::CommunityPowerLaw, 1, 0x7f4c77c917d3d691ULL},
        {Family::CommunityPowerLaw, 2, 0x8f8758203b11c730ULL},
    };
    for (const Case &c : cases) {
        const CsrGraph g = familyGraph(c.family, c.seed);
        const std::uint64_t d =
            testing_digest::digest(sampleFamily(g, c.seed));
        EXPECT_EQ(d, c.golden)
            << "family " << static_cast<int>(c.family) << " seed "
            << c.seed << " digest 0x" << std::hex << d;
    }
}

TEST(SampleDigest, ConcurrentThreadsMatchSerial)
{
    // Each thread keeps its own id table; two threads sampling
    // different graphs at once (and switching graphs, so a table
    // serves several id spaces) must each reproduce the serial bytes.
    const std::vector<CsrGraph> graphs = {
        familyGraph(Family::BarabasiAlbert, 1),
        familyGraph(Family::ErdosRenyi, 2),
        familyGraph(Family::CommunityPowerLaw, 1),
    };
    std::vector<std::uint64_t> serial;
    for (std::size_t i = 0; i < graphs.size(); ++i)
        serial.push_back(testing_digest::digest(sampleFamily(graphs[i], i)));

    constexpr int kRounds = 4;
    std::vector<std::vector<std::uint64_t>> seen(2);
    auto worker = [&](std::size_t t) {
        for (int round = 0; round < kRounds; ++round) {
            for (std::size_t i = 0; i < graphs.size(); ++i) {
                const std::size_t g = (i + t) % graphs.size();
                seen[t].push_back(testing_digest::digest(
                    sampleFamily(graphs[g], g)));
            }
        }
    };
    std::thread a(worker, 0), b(worker, 1);
    a.join();
    b.join();
    for (std::size_t t = 0; t < seen.size(); ++t) {
        ASSERT_EQ(seen[t].size(), kRounds * graphs.size());
        for (std::size_t k = 0; k < seen[t].size(); ++k) {
            const std::size_t g = (k % graphs.size() + t) % graphs.size();
            EXPECT_EQ(seen[t][k], serial[g])
                << "thread " << t << " sample " << k;
        }
    }
}

/** Shared fixture: one sampled batch + both generators. */
class BlockGeneration : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        graph_ = testGraph(11, 800);
        util::Rng rng(12);
        NeighborSampler sampler({4, 8});
        sg_ = std::make_unique<SampledSubgraph>(
            sampler.sample(graph_, firstSeeds(40), rng));
    }

    CsrGraph graph_;
    std::unique_ptr<SampledSubgraph> sg_;
};

TEST_F(BlockGeneration, FastChainIsValid)
{
    FastBlockGenerator fast;
    NodeList outputs = {0, 1, 2, 3, 4};
    MicroBatch mb = fast.generate(*sg_, outputs);
    ASSERT_EQ(mb.numLayers(), 2);
    mb.validateChain();
    // Output nodes are the requested seeds (as global ids).
    NodeList expected;
    for (NodeId local : outputs)
        expected.push_back(sg_->globalId(local));
    EXPECT_EQ(mb.outputNodes(), expected);
}

TEST_F(BlockGeneration, FastAndBaselineAgree)
{
    FastBlockGenerator fast;
    BaselineBlockGenerator baseline;
    NodeList outputs = {0, 5, 10, 15, 20, 25};
    MicroBatch a = fast.generate(*sg_, outputs);
    MicroBatch b = baseline.generate(*sg_, outputs);
    b.validateChain();

    ASSERT_EQ(a.numLayers(), b.numLayers());
    for (int layer = 0; layer < a.numLayers(); ++layer) {
        const Block &fa = a.blocks[layer];
        const Block &fb = b.blocks[layer];
        ASSERT_EQ(fa.numDst(), fb.numDst());
        EXPECT_EQ(fa.numEdges(), fb.numEdges());
        // The generators may order appended sources differently, so
        // align destinations by *global id*: each destination must see
        // the same neighbor set under both strategies.
        auto rows_by_global = [](const Block &block) {
            std::map<NodeId, std::multiset<NodeId>> rows;
            for (NodeId dst = 0; dst < block.numDst(); ++dst) {
                auto &row = rows[block.dstGlobal(dst)];
                for (NodeId local : block.neighborList(dst))
                    row.insert(block.src_nodes[local]);
            }
            return rows;
        };
        EXPECT_EQ(rows_by_global(fa), rows_by_global(fb))
            << "layer " << layer;
        // Same input node sets.
        std::set<NodeId> ia(fa.src_nodes.begin(), fa.src_nodes.end());
        std::set<NodeId> ib(fb.src_nodes.begin(), fb.src_nodes.end());
        EXPECT_EQ(ia, ib);
    }
}

TEST_F(BlockGeneration, SubsetBlocksAreSmaller)
{
    FastBlockGenerator fast;
    NodeList all(sg_->numSeeds());
    for (NodeId i = 0; i < sg_->numSeeds(); ++i)
        all[i] = i;
    MicroBatch whole = fast.generate(*sg_, all);
    MicroBatch half =
        fast.generate(*sg_, NodeList(all.begin(),
                                     all.begin() + all.size() / 2));
    EXPECT_LT(half.inputNodes().size(), whole.inputNodes().size());
    EXPECT_LT(half.structureBytes(), whole.structureBytes());
}

TEST_F(BlockGeneration, RejectsNonSeedOutputs)
{
    FastBlockGenerator fast;
    EXPECT_THROW(fast.generate(*sg_, {sg_->numSeeds()}),
                 InvalidArgument);
}

TEST_F(BlockGeneration, PhaseTimerReceivesBothPhases)
{
    FastBlockGenerator fast;
    obs::PhaseTimes times;
    fast.generate(*sg_, {0, 1, 2}, &times);
    testing_phase::expectOnlyMeasured(
        times, {Phase::ConnectionCheck, Phase::BlockConstruction});
}

TEST_F(BlockGeneration, ParallelPoolMatchesSerial)
{
    // A multi-worker pool must produce exactly the serial result.
    // (This batch sits below the default fan-out threshold, so only
    // the degree fill parallelizes; the chunked-construction case is
    // ParallelConstructionIsByteIdenticalAtAnyGrain below.)
    util::ThreadPool pool(4);
    FastBlockGenerator parallel_gen(&pool);
    FastBlockGenerator serial_gen;
    NodeList all(sg_->numSeeds());
    for (NodeId i = 0; i < sg_->numSeeds(); ++i)
        all[i] = i;
    MicroBatch a = parallel_gen.generate(*sg_, all);
    MicroBatch b = serial_gen.generate(*sg_, all);
    ASSERT_EQ(a.numLayers(), b.numLayers());
    for (int layer = 0; layer < a.numLayers(); ++layer) {
        EXPECT_EQ(a.blocks[layer].src_nodes,
                  b.blocks[layer].src_nodes);
        EXPECT_EQ(a.blocks[layer].offsets, b.blocks[layer].offsets);
        EXPECT_EQ(a.blocks[layer].neighbors,
                  b.blocks[layer].neighbors);
    }
}

TEST_F(BlockGeneration, ParallelConstructionIsByteIdenticalAtAnyGrain)
{
    // The three-phase parallel construction must reproduce the serial
    // first-seen source order byte for byte, whatever the chunking.
    // Tiny grain settings force the parallel path (and many chunks)
    // even on this small batch, so the stitch is exercised for real:
    // chunk boundaries cut through CSR rows' source sets, and the
    // same source appears as a candidate in several chunks.
    FastBlockGenerator serial_gen;
    NodeList all(sg_->numSeeds());
    for (NodeId i = 0; i < sg_->numSeeds(); ++i)
        all[i] = i;
    const MicroBatch want = serial_gen.generate(*sg_, all);

    for (const std::size_t workers : {2u, 4u, 7u}) {
        util::ThreadPool pool(workers);
        for (const std::size_t min_chunk : {1u, 3u, 16u, 64u}) {
            FastBlockGenerator::Grain grain;
            grain.parallel_dst_threshold = 1;
            grain.min_chunk = min_chunk;
            grain.degree_grain = 1;
            FastBlockGenerator parallel_gen(&pool, grain);
            const MicroBatch got = parallel_gen.generate(*sg_, all);
            ASSERT_EQ(got.numLayers(), want.numLayers());
            for (int layer = 0; layer < want.numLayers(); ++layer) {
                const Block &w = want.blocks[layer];
                const Block &g = got.blocks[layer];
                EXPECT_EQ(g.num_dst, w.num_dst)
                    << "workers=" << workers
                    << " min_chunk=" << min_chunk;
                EXPECT_EQ(g.src_nodes, w.src_nodes)
                    << "workers=" << workers
                    << " min_chunk=" << min_chunk;
                EXPECT_EQ(g.offsets, w.offsets)
                    << "workers=" << workers
                    << " min_chunk=" << min_chunk;
                EXPECT_EQ(g.neighbors, w.neighbors)
                    << "workers=" << workers
                    << " min_chunk=" << min_chunk;
            }
            got.validateChain();
        }
    }
}

TEST_F(BlockGeneration, RejectsDegenerateGrain)
{
    FastBlockGenerator::Grain grain;
    grain.min_chunk = 0;
    EXPECT_THROW(FastBlockGenerator(nullptr, grain),
                 InvalidArgument);
}

TEST_F(BlockGeneration, DstPrefixInvariant)
{
    FastBlockGenerator fast;
    MicroBatch mb = fast.generate(*sg_, {3, 7, 9});
    for (const Block &block : mb.blocks) {
        // Destinations must be the prefix of sources.
        for (NodeId dst = 0; dst < block.numDst(); ++dst)
            EXPECT_EQ(block.dstGlobal(dst), block.src_nodes[dst]);
    }
}

TEST(Block, ValidateCatchesCorruption)
{
    Block block;
    block.src_nodes = {10, 20};
    block.num_dst = 1;
    block.offsets = {0, 1};
    block.neighbors = {5}; // out of range (only 2 srcs)
    EXPECT_THROW(block.validate(), InternalError);
    block.neighbors = {1};
    EXPECT_NO_THROW(block.validate());
}

TEST(MicroBatch, ValidateChainCatchesMismatch)
{
    Block bottom;
    bottom.src_nodes = {1, 2, 3};
    bottom.num_dst = 2;
    bottom.offsets = {0, 1, 1};
    bottom.neighbors = {2};

    Block top;
    top.src_nodes = {1, 9}; // 9 != 2: chain broken
    top.num_dst = 1;
    top.offsets = {0, 1};
    top.neighbors = {1};

    MicroBatch mb;
    mb.blocks = {bottom, top};
    EXPECT_THROW(mb.validateChain(), InternalError);
}

} // namespace
} // namespace buffalo::sampling
