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
#include "sampling/first_seen.h"
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

TEST(NeighborSampler, LocalIdIndexIsBuiltOnceUnderRacingLookups)
{
    CsrGraph g = testGraph();
    util::Rng rng(8);
    NeighborSampler sampler({5, 5});
    SampledSubgraph sampled = sampler.sample(g, firstSeeds(20), rng);
    // Moved before the first lookup; the lazy build is raced by four
    // threads.
    SampledSubgraph sg = std::move(sampled);
    std::vector<int> mismatches(4, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < mismatches.size(); ++t) {
        threads.emplace_back([&, t] {
            for (NodeId i = 0; i < sg.nodes().size(); ++i)
                mismatches[t] += sg.tryLocalId(sg.globalId(i)) != i;
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int count : mismatches)
        EXPECT_EQ(count, 0);
    // A built index moves with its subgraph and answers absent ids.
    SampledSubgraph moved = std::move(sg);
    const std::set<NodeId> in_batch(moved.nodes().begin(),
                                    moved.nodes().end());
    for (NodeId global = 0; global < g.numNodes(); ++global) {
        if (!in_batch.count(global)) {
            EXPECT_EQ(moved.tryLocalId(global),
                      static_cast<NodeId>(-1));
        }
    }
    EXPECT_EQ(moved.localId(moved.globalId(7)), 7u);
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
 * Golden digests of SampledSubgraph, computed when the sampler moved
 * to counter-keyed per-node streams. Any change here means a sampled
 * batch changed.
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
        {Family::BarabasiAlbert, 1, 0x87c61c3c1939050cULL},
        {Family::BarabasiAlbert, 2, 0x11f7378c6485c7dbULL},
        {Family::ErdosRenyi, 1, 0x78eeb578d8d4e814ULL},
        {Family::ErdosRenyi, 2, 0xb185e88747ffe004ULL},
        {Family::CommunityPowerLaw, 1, 0x1410ae68503c3ed9ULL},
        {Family::CommunityPowerLaw, 2, 0xdb521b779debb751ULL},
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

/** Digest of sampleFamily's batch drawn by @p sampler. */
std::uint64_t
digestWith(const NeighborSampler &sampler, const CsrGraph &g,
           std::uint64_t seed)
{
    util::Rng rng(seed * 7 + 1);
    return testing_digest::digest(
        sampler.sample(g, firstSeeds(200), rng));
}

TEST(SampleDigest, SameBytesOnEveryPoolAndInsideAPoolTask)
{
    const CsrGraph g = familyGraph(Family::BarabasiAlbert, 1);
    const std::uint64_t want = 0x87c61c3c1939050cULL;
    util::ThreadPool one(1), two(2), four(4);
    EXPECT_EQ(digestWith(NeighborSampler({10, 25}), g, 1), want);
    // The 200-seed layer samples serially and the ~2700-node one in
    // chunks; chunking alone is covered by FirstSeen's tests below.
    for (util::ThreadPool *pool : {&one, &two, &four}) {
        EXPECT_EQ(digestWith(NeighborSampler({10, 25}, pool), g, 1),
                  want)
            << "workers=" << pool->size();
    }

    // Inside pool tasks a call samples on its own thread. Queued on
    // the pool this thread fans out on, a task may also run while
    // this thread waits for its chunks, nested in its sample() call.
    const NeighborSampler on_four({10, 25}, &four);
    std::vector<std::uint64_t> nested(8, 0);
    for (std::size_t t = 0; t < nested.size(); ++t) {
        four.submit([&, t] {
            nested[t] = digestWith(
                t % 2 == 0 ? on_four : NeighborSampler({10, 25}), g, 1);
        });
    }
    for (int round = 0; round < 4; ++round)
        EXPECT_EQ(digestWith(on_four, g, 1), want);
    four.wait();
    for (std::uint64_t d : nested)
        EXPECT_EQ(d, want);
}

/** A CSR of random raw ids in [0, id_space) for fillFirstSeen. */
struct RawCsr
{
    std::vector<EdgeIndex> offsets{0};
    NodeList raw;
};

RawCsr
randomRawCsr(std::size_t rows, NodeId id_space, std::uint64_t seed)
{
    util::Rng rng(seed);
    RawCsr csr;
    for (std::size_t r = 0; r < rows; ++r) {
        const auto degree = static_cast<EdgeIndex>(rng.nextBounded(13));
        for (EdgeIndex e = 0; e < degree; ++e)
            csr.raw.push_back(
                static_cast<NodeId>(rng.nextBounded(id_space)));
        csr.offsets.push_back(csr.raw.size());
    }
    return csr;
}

/** fillFirstSeen over @p csr, with raw ids 0, 7, 14, ... numbered
 *  first; returns the renumbered edges followed by the order. */
NodeList
firstSeenOf(const RawCsr &csr, NodeId id_space, std::size_t chunk_rows,
            util::ThreadPool *pool)
{
    FirstSeenTable table;
    table.begin(id_space);
    NodeList order;
    for (NodeId id = 0; id < id_space; id += 7)
        table.add(id, order);
    NodeList edges(csr.raw.size());
    fillFirstSeen(
        csr.offsets, edges, chunk_rows, pool,
        [&](std::size_t r0, std::size_t r1) {
            std::copy(csr.raw.begin() + csr.offsets[r0],
                      csr.raw.begin() + csr.offsets[r1],
                      edges.begin() + csr.offsets[r0]);
        },
        table, order);
    edges.insert(edges.end(), order.begin(), order.end());
    return edges;
}

TEST(FirstSeen, EveryChunkSizeAndPoolNumbersInScanOrder)
{
    constexpr NodeId kIds = 900;
    const RawCsr csr = randomRawCsr(300, kIds, 5);
    std::map<NodeId, NodeId> number;
    NodeList want_order;
    for (NodeId id = 0; id < kIds; id += 7) {
        number.emplace(id, want_order.size());
        want_order.push_back(id);
    }
    NodeList want;
    for (NodeId id : csr.raw) {
        if (number.emplace(id, want_order.size()).second)
            want_order.push_back(id);
        want.push_back(number.at(id));
    }
    want.insert(want.end(), want_order.begin(), want_order.end());

    EXPECT_EQ(firstSeenOf(csr, kIds, 1, nullptr), want);
    util::ThreadPool one(1), two(2), four(4);
    for (util::ThreadPool *pool : {&one, &two, &four}) {
        for (const std::size_t chunk_rows : {1u, 3u, 64u, 5000u}) {
            EXPECT_EQ(firstSeenOf(csr, kIds, chunk_rows, pool), want)
                << "workers=" << pool->size()
                << " chunk_rows=" << chunk_rows;
        }
    }
}

TEST(NeighborSampler, TakesExactlyOneDrawFromTheCallersRng)
{
    CsrGraph g = testGraph();
    NeighborSampler sampler({10, 25});
    util::Rng used(21), reference(21);
    sampler.sample(g, firstSeeds(50), used);
    reference.next();
    EXPECT_EQ(used.next(), reference.next());
}

/** One destination (node 0) whose in-neighbors are 1..degree. */
CsrGraph
starGraph(NodeId degree)
{
    std::vector<EdgeIndex> offsets(degree + 2, degree);
    offsets[0] = 0;
    NodeList targets(degree);
    for (NodeId i = 0; i < degree; ++i)
        targets[i] = i + 1;
    return CsrGraph(std::move(offsets), std::move(targets));
}

TEST(NeighborSampler, PicksAreUniformOverBatchKeys)
{
    // 4000 batches pick 5 of node 0's 40 neighbors: each neighbor is
    // expected 500 times. Chi-square with 39 degrees of freedom stays
    // below 72.05 with probability 0.999 when picks are uniform.
    constexpr NodeId kDegree = 40;
    constexpr int kFanout = 5, kBatches = 4000;
    const CsrGraph g = starGraph(kDegree);
    NeighborSampler sampler({kFanout});
    util::Rng rng(33);
    std::vector<int> counts(kDegree + 1, 0);
    for (int b = 0; b < kBatches; ++b) {
        const SampledSubgraph sg = sampler.sample(g, {0}, rng);
        for (NodeId local : sg.layerAdjacency(0).neighbors(0))
            ++counts[sg.globalId(local)];
    }
    const double expected =
        static_cast<double>(kBatches) * kFanout / kDegree;
    double chi2 = 0.0;
    for (NodeId v = 1; v <= kDegree; ++v)
        chi2 += (counts[v] - expected) * (counts[v] - expected) / expected;
    EXPECT_LT(chi2, 72.05);
}

TEST(NeighborSampler, FanoutAbove64GivesDistinctValidPicks)
{
    const CsrGraph g = starGraph(300);
    for (const int fanout : {65, 100, 299}) {
        NeighborSampler sampler({fanout});
        util::Rng rng(fanout);
        const SampledSubgraph sg = sampler.sample(g, {0}, rng);
        const auto row = sg.layerAdjacency(0).neighbors(0);
        ASSERT_EQ(row.size(), static_cast<std::size_t>(fanout));
        std::set<NodeId> picked;
        for (NodeId local : row) {
            const NodeId global = sg.globalId(local);
            EXPECT_TRUE(g.hasEdge(0, global));
            picked.insert(global);
        }
        EXPECT_EQ(picked.size(), row.size()) << "fanout " << fanout;
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
    EXPECT_THROW(fast.generate(*sg_, {1, 1}), InvalidArgument);
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
