/**
 * @file
 * Tests for Buffalo's analytical memory estimation (paper §IV-D):
 * per-bucket cone pricing, the Eq. 1 grouping ratio, and the accuracy
 * of the redundancy-aware group estimate against real measured memory
 * (the property Table III reports).
 */
#include <gtest/gtest.h>

#include "core/mem_estimator.h"
#include "core/micro_batch_generator.h"
#include "device/device.h"
#include "graph/datasets.h"
#include "nn/loss.h"
#include "nn/gnn_model.h"
#include "train/feature_loader.h"
#include "util/format.h"
#include "util/rng.h"

namespace buffalo::core {
namespace {

struct EstSetup
{
    graph::Dataset data;
    SampledSubgraph sg;
    nn::ModelConfig config;
};

EstSetup
makeSetup(nn::AggregatorKind kind, std::size_t num_seeds = 128)
{
    EstSetup setup{graph::loadDataset(graph::DatasetId::Arxiv, 42, 0.1),
                {},
                {}};
    util::Rng rng(5);
    sampling::NeighborSampler sampler({10, 25});
    graph::NodeList seeds(
        setup.data.trainNodes().begin(),
        setup.data.trainNodes().begin() +
            std::min(num_seeds, setup.data.trainNodes().size()));
    setup.sg = sampler.sample(setup.data.graph(), seeds, rng);

    setup.config.aggregator = kind;
    setup.config.num_layers = 2;
    setup.config.feature_dim = setup.data.featureDim();
    setup.config.hidden_dim = 16;
    setup.config.num_classes = setup.data.numClasses();
    return setup;
}

TEST(BucketMemEstimator, CountsAreExactForTheCone)
{
    EstSetup setup = makeSetup(nn::AggregatorKind::Mean);
    nn::MemoryModel model(setup.config);
    BucketMemEstimator estimator(model, setup.sg);

    auto buckets = sampling::bucketizeSeeds(setup.sg);
    auto infos = estimator.estimate(buckets);
    ASSERT_EQ(infos.size(), buckets.size());

    MicroBatchGenerator generator;
    for (const auto &info : infos) {
        EXPECT_EQ(info.outputs, info.bucket.volume());
        EXPECT_EQ(info.degree,
                  static_cast<double>(info.bucket.degree));
        // The cone walk's input count must equal the real block
        // chain's input count for the same outputs.
        BucketGroup group;
        group.buckets = {info};
        auto mb = generator.generateOne(setup.sg, group);
        EXPECT_EQ(info.inputs, mb.inputNodes().size());
        EXPECT_GT(info.est_bytes, 0u);
    }
}

TEST(BucketMemEstimator, MoreOutputsCostMore)
{
    EstSetup setup = makeSetup(nn::AggregatorKind::Lstm);
    nn::MemoryModel model(setup.config);
    BucketMemEstimator estimator(model, setup.sg);
    auto buckets = sampling::bucketizeSeeds(setup.sg);

    // Find a bucket with >= 4 members and compare against its half.
    for (const auto &bucket : buckets) {
        if (bucket.volume() < 4)
            continue;
        DegreeBucket half = bucket;
        half.members.resize(bucket.members.size() / 2);
        EXPECT_LT(estimator.estimateBucket(half).est_bytes,
                  estimator.estimateBucket(bucket).est_bytes);
        break;
    }
}

TEST(BucketMemEstimator, RejectsDepthMismatch)
{
    EstSetup setup = makeSetup(nn::AggregatorKind::Mean);
    nn::ModelConfig bad = setup.config;
    bad.num_layers = 3;
    nn::MemoryModel model(bad);
    EXPECT_THROW(BucketMemEstimator(model, setup.sg),
                 InvalidArgument);
}

TEST(RedundancyRatio, Bounds)
{
    RedundancyAwareMemEstimator estimator(0.4);
    BucketMemInfo info;
    info.outputs = 10;
    info.degree = 5;
    info.inputs = 50; // I = O*D -> ratio = 1/C > 1 -> clamped
    EXPECT_DOUBLE_EQ(estimator.groupingRatio(info), 1.0);

    info.inputs = 4; // heavy overlap
    const double ratio = estimator.groupingRatio(info);
    EXPECT_GT(ratio, 0.0);
    EXPECT_LT(ratio, 1.0);
    EXPECT_NEAR(ratio, 4.0 / (10 * 5 * 0.4), 1e-12);
}

TEST(RedundancyRatio, HigherClusteringLowersRatio)
{
    BucketMemInfo info;
    info.outputs = 100;
    info.degree = 10;
    info.inputs = 150;
    RedundancyAwareMemEstimator low_c(0.2), high_c(0.6);
    EXPECT_GT(low_c.groupingRatio(info), high_c.groupingRatio(info));
}

TEST(RedundancyRatio, DegenerateBucketsRatioOne)
{
    RedundancyAwareMemEstimator estimator(0.4);
    BucketMemInfo info; // zero outputs / degree
    EXPECT_DOUBLE_EQ(estimator.groupingRatio(info), 1.0);
}

TEST(GroupEstimate, NeverExceedsLinearSum)
{
    EstSetup setup = makeSetup(nn::AggregatorKind::Lstm);
    nn::MemoryModel model(setup.config);
    BucketMemEstimator bucket_estimator(model, setup.sg);
    auto infos =
        bucket_estimator.estimate(sampling::bucketizeSeeds(setup.sg));

    RedundancyAwareMemEstimator estimator(
        setup.data.spec().paper_avg_coefficient);
    std::vector<const BucketMemInfo *> group;
    std::uint64_t linear = 0;
    for (const auto &info : infos) {
        group.push_back(&info);
        linear += info.est_bytes;
    }
    EXPECT_LE(estimator.estimateGroup(group), linear);
}

/** Measures the real peak of training one micro-batch. */
std::uint64_t
measureMicroBatchPeak(const EstSetup &setup,
                      const sampling::MicroBatch &mb)
{
    device::Device dev("gpu", util::gib(8));
    nn::GnnModel sage(setup.config, 3, &dev.allocator());
    const std::uint64_t static_bytes = dev.allocator().bytesInUse();
    dev.allocator().resetPeak();
    nn::Tensor feats = train::loadFeatures(setup.data, mb.inputNodes(),
                                           &dev.allocator());
    nn::Tensor logits =
        sage.forward(mb, feats, &dev.allocator());
    auto labels = train::gatherLabels(setup.data, mb.outputNodes());
    auto loss =
        nn::softmaxCrossEntropy(logits, labels, 0, &dev.allocator());
    sage.backward(loss.grad_logits, &dev.allocator());
    return dev.allocator().peakBytes() - static_bytes;
}

/**
 * The Table III property: the redundancy-aware per-group estimates
 * that drive scheduling must land close to the real measured training
 * memory of the generated micro-batches.
 */
class EstimatorAccuracy
    : public ::testing::TestWithParam<nn::AggregatorKind>
{
};

TEST_P(EstimatorAccuracy, PerGroupEstimateTracksMeasured)
{
    EstSetup setup = makeSetup(GetParam(), 192);
    nn::MemoryModel model(setup.config);
    BucketMemEstimator bucket_estimator(model, setup.sg);
    auto infos =
        bucket_estimator.estimate(sampling::bucketizeSeeds(setup.sg));

    RedundancyAwareMemEstimator estimator(
        setup.data.spec().paper_avg_coefficient);

    // Split the batch four ways (the paper's "# batch 4" column).
    GroupingResult grouping = memBalancedGrouping(
        infos, 4, util::gib(64), estimator);
    ASSERT_TRUE(grouping.success);

    MicroBatchGenerator generator;
    double worst_under = 0.0;
    double total_error = 0.0;
    int groups = 0;
    for (const auto &group : grouping.groups) {
        auto mb = generator.generateOne(setup.sg, group);
        const std::uint64_t measured =
            measureMicroBatchPeak(setup, mb);
        const double error =
            (static_cast<double>(group.est_bytes) -
             static_cast<double>(measured)) /
            static_cast<double>(measured);
        total_error += std::abs(error);
        worst_under = std::min(worst_under, error);
        ++groups;
    }
    // Estimates may be conservative (over), but must not badly
    // under-predict (that would cause real OOMs), and the average
    // magnitude must stay within ~80% at this reduced scale.
    EXPECT_GT(worst_under, -0.35);
    EXPECT_LT(total_error / groups, 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    Aggregators, EstimatorAccuracy,
    ::testing::Values(nn::AggregatorKind::Mean,
                      nn::AggregatorKind::Lstm),
    [](const ::testing::TestParamInfo<nn::AggregatorKind> &info) {
        return nn::aggregatorName(info.param);
    });

} // namespace
} // namespace buffalo::core
