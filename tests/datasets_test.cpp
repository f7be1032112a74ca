/**
 * @file
 * Tests for the simulated dataset registry against the published
 * Table II characteristics each dataset emulates.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/datasets.h"
#include "graph/stats.h"
#include "util/errors.h"
#include "util/rng.h"

namespace buffalo::graph {
namespace {

TEST(DatasetSpecs, RegistryComplete)
{
    EXPECT_EQ(allDatasetIds().size(), 6u);
    for (DatasetId id : allDatasetIds()) {
        const DatasetSpec &spec = datasetSpec(id);
        EXPECT_FALSE(spec.name.empty());
        EXPECT_GT(spec.sim_nodes, 0u);
        EXPECT_GT(spec.num_classes, 1);
        EXPECT_EQ(&datasetSpecByName(spec.name), &spec);
    }
}

TEST(DatasetSpecs, UnknownNameThrows)
{
    EXPECT_THROW(datasetSpecByName("no-such-dataset"), NotFound);
}

/** Property suite over every dataset (scaled down for test speed). */
class DatasetProperty : public ::testing::TestWithParam<DatasetId>
{
  protected:
    Dataset
    load(double scale = 0.2)
    {
        return loadDataset(GetParam(), 42, scale);
    }
};

TEST_P(DatasetProperty, LabelsInRange)
{
    Dataset data = load();
    for (auto label : data.labels()) {
        ASSERT_GE(label, 0);
        ASSERT_LT(label, data.numClasses());
    }
    EXPECT_EQ(data.labels().size(), data.graph().numNodes());
}

TEST_P(DatasetProperty, FeaturesDeterministic)
{
    Dataset data = load();
    std::vector<float> a(data.featureDim()), b(data.featureDim());
    data.fillFeatures(0, a);
    data.fillFeatures(0, b);
    EXPECT_EQ(a, b);
    // Different nodes of potentially different labels should differ.
    data.fillFeatures(1, b);
    EXPECT_NE(a, b);
}

TEST_P(DatasetProperty, TrainNodesValidAndSorted)
{
    Dataset data = load();
    ASSERT_FALSE(data.trainNodes().empty());
    NodeId prev = 0;
    bool first = true;
    for (NodeId node : data.trainNodes()) {
        ASSERT_LT(node, data.graph().numNodes());
        if (!first) {
            ASSERT_GT(node, prev);
        }
        prev = node;
        first = false;
    }
}

TEST_P(DatasetProperty, PowerLawVerdictMatchesPaper)
{
    // Full-size sim: the verdict column of Table II must reproduce.
    Dataset data = loadDataset(GetParam(), 42, 1.0);
    PowerLawFit fit = fitPowerLaw(data.graph());
    EXPECT_EQ(fit.is_power_law, data.spec().paper_power_law)
        << data.name() << " alpha=" << fit.alpha;
}

TEST_P(DatasetProperty, ReproducibleFromSeed)
{
    Dataset a = load();
    Dataset b = load();
    EXPECT_EQ(a.graph().targets(), b.graph().targets());
    EXPECT_EQ(a.labels(), b.labels());
    EXPECT_EQ(a.trainNodes(), b.trainNodes());
}

TEST_P(DatasetProperty, LabelsAreHomophilous)
{
    // Label propagation should make neighbors agree far more often
    // than chance — the property real citation graphs have and the
    // convergence experiments rely on.
    Dataset data = load();
    const CsrGraph &g = data.graph();
    std::uint64_t same = 0, total = 0;
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        for (NodeId v : g.neighbors(u)) {
            ++total;
            if (data.labels()[u] == data.labels()[v])
                ++same;
        }
    }
    ASSERT_GT(total, 0u);
    const double agreement = static_cast<double>(same) / total;
    const double chance = 1.0 / data.numClasses();
    EXPECT_GT(agreement, std::min(2.0 * chance, chance + 0.15))
        << data.name();
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, DatasetProperty,
    ::testing::ValuesIn(allDatasetIds()),
    [](const ::testing::TestParamInfo<DatasetId> &info) {
        std::string name = datasetSpec(info.param).name;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(PapersDataset, HasZeroInEdgeNodes)
{
    // papers-sim must reproduce the zero-in-edge nodes that break
    // Betty (paper Fig. 11).
    Dataset data = loadDataset(DatasetId::Papers, 42, 0.2);
    EXPECT_GT(data.graph().countZeroDegreeNodes(), 0u);
}

TEST(OtherDatasets, NoIsolatedNodes)
{
    Dataset data = loadDataset(DatasetId::Arxiv, 42, 0.2);
    EXPECT_EQ(data.graph().countZeroDegreeNodes(), 0u);
}

TEST(Datasets, ScaleParameterScalesNodes)
{
    Dataset small = loadDataset(DatasetId::Cora, 42, 0.25);
    Dataset large = loadDataset(DatasetId::Cora, 42, 1.0);
    EXPECT_LT(small.graph().numNodes(), large.graph().numNodes());
    EXPECT_NEAR(static_cast<double>(small.graph().numNodes()) /
                    large.graph().numNodes(),
                0.25, 0.05);
}

TEST(Datasets, ClusteringTracksPaperOrdering)
{
    // Absolute coefficients need not match Table II, but the ordering
    // between a high-clustering and a low-clustering dataset must.
    Dataset products = loadDataset(DatasetId::Products, 42, 0.3);
    Dataset papers = loadDataset(DatasetId::Papers, 42, 0.3);
    util::Rng rng(13);
    const double c_products =
        sampledClusteringCoefficient(products.graph(), 400, rng);
    const double c_papers =
        sampledClusteringCoefficient(papers.graph(), 400, rng);
    EXPECT_GT(c_products, c_papers);
}

TEST(Datasets, FillFeaturesValidatesArgs)
{
    Dataset data = loadDataset(DatasetId::Cora, 42, 0.1);
    std::vector<float> wrong(data.featureDim() + 1);
    EXPECT_THROW(data.fillFeatures(0, wrong), InvalidArgument);
    std::vector<float> right(data.featureDim());
    EXPECT_THROW(data.fillFeatures(data.graph().numNodes(), right),
                 InvalidArgument);
}

} // namespace
} // namespace buffalo::graph
