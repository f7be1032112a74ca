/**
 * @file
 * Tests for graph/dataset (de)serialization: edge lists and binary
 * dataset bundles.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "graph/generators.h"
#include "graph/io.h"
#include "util/errors.h"
#include "util/rng.h"

namespace buffalo::graph {
namespace {

TEST(EdgeList, ParsesPairsCommentsAndBlanks)
{
    std::istringstream in("# a comment\n"
                          "0 1\n"
                          "\n"
                          "  2 0\n"
                          "1 2\n");
    CsrGraph g = readEdgeList(in, /*symmetrize=*/false);
    EXPECT_EQ(g.numNodes(), 3u);
    EXPECT_EQ(g.numEdges(), 3u);
    EXPECT_TRUE(g.hasEdge(1, 0)); // edge 0 -> 1 (in-CSR row of 1)
    EXPECT_TRUE(g.hasEdge(0, 2));
}

TEST(EdgeList, SymmetrizeDoublesEdges)
{
    std::istringstream in("0 1\n1 2\n");
    CsrGraph g = readEdgeList(in, /*symmetrize=*/true);
    EXPECT_EQ(g.numEdges(), 4u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0));
}

TEST(EdgeList, RejectsMalformedLines)
{
    std::istringstream bad("0 x\n");
    EXPECT_THROW(readEdgeList(bad), InvalidArgument);
    std::istringstream negative("0 -1\n");
    EXPECT_THROW(readEdgeList(negative), InvalidArgument);
    std::istringstream too_big("0 9\n");
    EXPECT_THROW(readEdgeList(too_big, true, 5), InvalidArgument);
}

TEST(EdgeList, ExplicitNodeCountAddsIsolated)
{
    std::istringstream in("0 1\n");
    CsrGraph g = readEdgeList(in, true, 10);
    EXPECT_EQ(g.numNodes(), 10u);
    EXPECT_EQ(g.countZeroDegreeNodes(), 8u);
}

TEST(EdgeList, RoundTripPreservesGraph)
{
    util::Rng rng(1);
    CsrGraph original = generateBarabasiAlbert(200, 3, rng);
    std::stringstream buffer;
    writeEdgeList(buffer, original);
    // The writer emits directed edges; read back without symmetrize.
    CsrGraph restored =
        readEdgeList(buffer, /*symmetrize=*/false,
                     original.numNodes());
    EXPECT_EQ(restored.offsets(), original.offsets());
    EXPECT_EQ(restored.targets(), original.targets());
}

TEST(EdgeList, MissingFileThrowsNotFound)
{
    EXPECT_THROW(readEdgeListFile("/nonexistent/graph.txt"),
                 NotFound);
}

TEST(Bundle, RoundTripPreservesEverything)
{
    Dataset original = loadDataset(DatasetId::Arxiv, 7, 0.05);
    std::stringstream buffer;
    saveDataset(buffer, original);
    Dataset restored = loadDatasetBundle(buffer);

    EXPECT_EQ(restored.name(), original.name());
    EXPECT_EQ(restored.spec().paper_power_law,
              original.spec().paper_power_law);
    EXPECT_EQ(restored.spec().num_classes,
              original.spec().num_classes);
    EXPECT_EQ(restored.graph().offsets(),
              original.graph().offsets());
    EXPECT_EQ(restored.graph().targets(),
              original.graph().targets());
    EXPECT_EQ(restored.labels(), original.labels());
    EXPECT_EQ(restored.trainNodes(), original.trainNodes());
    EXPECT_EQ(restored.seed(), original.seed());

    // Features regenerate identically from the stored seed.
    std::vector<float> a(original.featureDim());
    std::vector<float> b(restored.featureDim());
    ASSERT_EQ(a.size(), b.size());
    original.fillFeatures(3, a);
    restored.fillFeatures(3, b);
    EXPECT_EQ(a, b);
}

TEST(Bundle, CustomDatasetRoundTrip)
{
    util::Rng rng(2);
    CsrGraph g = generateWattsStrogatz(100, 2, 0.2, rng);
    std::vector<std::int32_t> labels(100);
    for (std::size_t i = 0; i < labels.size(); ++i)
        labels[i] = static_cast<std::int32_t>(i % 4);
    Dataset original =
        makeDataset("custom", std::move(g), std::move(labels), 4, 16,
                    0.3, 99);

    std::stringstream buffer;
    saveDataset(buffer, original);
    Dataset restored = loadDatasetBundle(buffer);
    EXPECT_EQ(restored.name(), "custom");
    EXPECT_EQ(restored.labels(), original.labels());
    EXPECT_EQ(restored.featureDim(), 16);
}

/** The per-node feature formula, centroid hashed per component. */
std::vector<float>
referenceFeatures(const Dataset &data, NodeId node)
{
    const auto mix = [](std::uint64_t a, std::uint64_t b) {
        std::uint64_t x = a * 0x9E3779B97F4A7C15ULL + b;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
        return x ^ (x >> 31);
    };
    const std::uint64_t seed = data.seed();
    const std::int32_t label = data.labels()[node];
    std::vector<float> out(data.featureDim());
    for (std::size_t d = 0; d < out.size(); ++d) {
        const std::uint64_t ch = mix(
            seed ^ 0xC0FFEE, (static_cast<std::uint64_t>(label) << 32) | d);
        const float centroid =
            static_cast<float>(ch >> 40) / 16777216.0f - 0.5f;
        const std::uint64_t nh =
            mix(seed ^ 0xBADF00D, (static_cast<std::uint64_t>(node) << 24) ^ d);
        const float noise =
            static_cast<float>(nh >> 40) / 16777216.0f - 0.5f;
        out[d] = centroid + 0.3f * noise;
    }
    return out;
}

/**
 * fillFeatures reads the class centroids from a table built once per
 * dataset; every construction path must build it so that each row is
 * byte for byte the per-component formula.
 */
TEST(Features, CentroidTableMatchesThePerNodeFormula)
{
    util::Rng rng(3);
    CsrGraph g = generateWattsStrogatz(120, 2, 0.2, rng);
    std::vector<std::int32_t> labels(120);
    for (std::size_t i = 0; i < labels.size(); ++i)
        labels[i] = static_cast<std::int32_t>((7 * i) % 5);
    const Dataset custom =
        makeDataset("custom", std::move(g), std::move(labels), 5, 24,
                    0.3, 77);
    const Dataset arxiv = loadDataset(DatasetId::Arxiv, 11, 0.02);
    std::stringstream buffer;
    saveDataset(buffer, arxiv);
    const Dataset restored = loadDatasetBundle(buffer);

    for (const Dataset *data : {&custom, &arxiv, &restored}) {
        std::vector<float> row(data->featureDim());
        for (NodeId node = 0; node < data->graph().numNodes(); ++node) {
            data->fillFeatures(node, row);
            const std::vector<float> expect =
                referenceFeatures(*data, node);
            ASSERT_EQ(std::memcmp(row.data(), expect.data(),
                                  row.size() * sizeof(float)),
                      0)
                << data->name() << " node " << node;
        }
    }
}

TEST(Bundle, RejectsCorruptStreams)
{
    std::istringstream bad_magic("NOPE....");
    EXPECT_THROW(loadDatasetBundle(bad_magic), InvalidArgument);

    Dataset original = loadDataset(DatasetId::Cora, 1, 0.1);
    std::stringstream buffer;
    saveDataset(buffer, original);
    std::string bytes = buffer.str();
    std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(loadDatasetBundle(truncated), InvalidArgument);
}

TEST(Bundle, MissingFileThrowsNotFound)
{
    EXPECT_THROW(loadDatasetBundleFile("/nonexistent/data.bufd"),
                 NotFound);
}

TEST(MakeDataset, ValidatesInputs)
{
    util::Rng rng(3);
    CsrGraph g = generateWattsStrogatz(50, 2, 0.2, rng);
    std::vector<std::int32_t> short_labels(10);
    EXPECT_THROW(makeDataset("x", g, short_labels, 4, 8, 0.2),
                 InvalidArgument);
    std::vector<std::int32_t> bad_labels(50, 9); // >= num_classes
    EXPECT_THROW(makeDataset("x", g, bad_labels, 4, 8, 0.2),
                 InvalidArgument);
}

} // namespace
} // namespace buffalo::graph
