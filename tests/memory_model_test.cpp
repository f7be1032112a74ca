/**
 * @file
 * Tests that the analytic memory model tracks reality: its byte
 * estimates must bound/track the tracking allocator's measured peak
 * during real numeric training. This is the calibration the paper's
 * Table III error metric rests on.
 */
#include <gtest/gtest.h>

#include "device/device.h"
#include "graph/datasets.h"
#include "nn/loss.h"
#include "nn/memory_model.h"
#include "nn/gnn_model.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "sampling/block_generator.h"
#include "train/feature_loader.h"
#include "util/format.h"
#include "util/rng.h"

namespace buffalo::nn {
namespace {

sampling::MicroBatch
sampleBatch(const graph::Dataset &data, int layers,
            std::size_t num_seeds, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<int> fanouts(layers, 10);
    sampling::NeighborSampler sampler(fanouts);
    graph::NodeList seeds(
        data.trainNodes().begin(),
        data.trainNodes().begin() +
            std::min(num_seeds, data.trainNodes().size()));
    auto sg = sampler.sample(data.graph(), seeds, rng);
    graph::NodeList all(sg.numSeeds());
    for (graph::NodeId i = 0; i < sg.numSeeds(); ++i)
        all[i] = i;
    sampling::FastBlockGenerator gen;
    return gen.generate(sg, all);
}

ModelConfig
smallConfig(const graph::Dataset &data, AggregatorKind kind)
{
    ModelConfig config;
    config.aggregator = kind;
    config.num_layers = 2;
    config.feature_dim = data.featureDim();
    config.hidden_dim = 16;
    config.num_classes = data.numClasses();
    return config;
}

TEST(MemoryModel, BucketBytesMonotonic)
{
    ModelConfig config;
    config.feature_dim = 32;
    config.hidden_dim = 64;
    config.num_classes = 8;
    MemoryModel model(config);
    EXPECT_LT(model.bucketActivationBytes(0, 10, 4),
              model.bucketActivationBytes(0, 20, 4));
    EXPECT_LT(model.bucketActivationBytes(0, 10, 4),
              model.bucketActivationBytes(0, 10, 8));
}

TEST(MemoryModel, LstmCostsMoreThanMean)
{
    ModelConfig mean_config;
    mean_config.aggregator = AggregatorKind::Mean;
    mean_config.feature_dim = 32;
    mean_config.hidden_dim = 64;
    mean_config.num_classes = 8;
    ModelConfig lstm_config = mean_config;
    lstm_config.aggregator = AggregatorKind::Lstm;

    MemoryModel mean_model(mean_config), lstm_model(lstm_config);
    EXPECT_GT(lstm_model.bucketActivationBytes(0, 100, 10),
              3 * mean_model.bucketActivationBytes(0, 100, 10));
    EXPECT_GT(lstm_model.weightBytes(), mean_model.weightBytes());
}

TEST(MemoryModel, WeightBytesMatchRealModel)
{
    graph::Dataset data =
        graph::loadDataset(graph::DatasetId::Cora, 42, 0.2);
    for (auto kind : {AggregatorKind::Mean, AggregatorKind::Pool,
                      AggregatorKind::Lstm}) {
        ModelConfig config = smallConfig(data, kind);
        MemoryModel analytic(config);
        GnnModel model(config, 1);
        std::uint64_t real = 0;
        for (Parameter *p : model.parameters())
            real += p->bytes();
        EXPECT_EQ(analytic.weightBytes(), real)
            << aggregatorName(kind);
    }
}

/** Property: analytic micro-batch bytes track the measured peak. */
class MemoryModelCalibration
    : public ::testing::TestWithParam<AggregatorKind>
{
};

TEST_P(MemoryModelCalibration, TracksMeasuredPeak)
{
    graph::Dataset data =
        graph::loadDataset(graph::DatasetId::Arxiv, 42, 0.05);
    ModelConfig config = smallConfig(data, GetParam());
    MemoryModel analytic(config);

    sampling::MicroBatch mb = sampleBatch(data, 2, 64, 7);

    device::Device dev("gpu", util::gib(4));
    GnnModel model(config, 3, &dev.allocator());
    dev.allocator().resetPeak();
    const std::uint64_t baseline = dev.allocator().bytesInUse();

    Tensor feats =
        train::loadFeatures(data, mb.inputNodes(), &dev.allocator());
    Tensor logits = model.forward(mb, feats, &dev.allocator());
    auto labels = train::gatherLabels(data, mb.outputNodes());
    auto loss = softmaxCrossEntropy(logits, labels, 0,
                                    &dev.allocator());
    model.backward(loss.grad_logits, &dev.allocator());

    const std::uint64_t measured =
        dev.allocator().peakBytes() - baseline;
    const std::uint64_t predicted = analytic.microBatchBytes(mb);
    // The analytic model must be within 2x of the measured peak in
    // both directions — tight enough that scheduling decisions based
    // on it match decisions based on real memory.
    EXPECT_GT(predicted, measured / 2)
        << util::formatBytes(predicted) << " vs measured "
        << util::formatBytes(measured);
    EXPECT_LT(predicted, measured * 2)
        << util::formatBytes(predicted) << " vs measured "
        << util::formatBytes(measured);
}

INSTANTIATE_TEST_SUITE_P(
    Aggregators, MemoryModelCalibration,
    ::testing::Values(AggregatorKind::Mean, AggregatorKind::Pool,
                      AggregatorKind::Lstm),
    [](const ::testing::TestParamInfo<AggregatorKind> &info) {
        return aggregatorName(info.param);
    });

TEST(MemoryModel, FlopsGrowWithDepthAndHidden)
{
    graph::Dataset data =
        graph::loadDataset(graph::DatasetId::Cora, 42, 0.2);
    sampling::MicroBatch mb = sampleBatch(data, 2, 32, 9);

    ModelConfig small = smallConfig(data, AggregatorKind::Mean);
    ModelConfig wide = small;
    wide.hidden_dim = 64;
    EXPECT_LT(MemoryModel(small).microBatchFlops(mb),
              MemoryModel(wide).microBatchFlops(mb));
}

/**
 * The modeled FLOPs of a SAGE-LSTM micro-batch are exactly the GEMM
 * FLOPs its numeric forward and backward count: every LSTM and update
 * FLOP is a GEMM, so the device clock prices the work that runs.
 */
TEST(MemoryModel, LstmFlopsEqualCountedGemmFlops)
{
    graph::Dataset data =
        graph::loadDataset(graph::DatasetId::Arxiv, 42, 0.3);
    ModelConfig config = smallConfig(data, AggregatorKind::Lstm);
    config.hidden_dim = 64;
    // Every train node of arxiv x0.3 (480) in one micro-batch.
    const sampling::MicroBatch mb = sampleBatch(data, 2, 512, 3);

    GnnModel model(config, 5);
    Tensor feats = train::loadFeatures(data, mb.inputNodes());
    auto &gemm_flops =
        obs::metrics().counter(obs::names::kCtrKernelsGemmFlops);
    const std::uint64_t before = gemm_flops.value();
    Tensor logits = model.forward(mb, feats);
    auto loss =
        softmaxCrossEntropy(logits, train::gatherLabels(data,
                                                        mb.outputNodes()));
    model.backward(loss.grad_logits);
    const std::uint64_t counted = gemm_flops.value() - before;

    EXPECT_EQ(static_cast<std::uint64_t>(
                  MemoryModel(config).microBatchFlops(mb)),
              counted);
}

TEST(MemoryModel, TransferBytesIncludeAllPayloads)
{
    graph::Dataset data =
        graph::loadDataset(graph::DatasetId::Cora, 42, 0.2);
    sampling::MicroBatch mb = sampleBatch(data, 2, 32, 11);
    ModelConfig config = smallConfig(data, AggregatorKind::Mean);
    MemoryModel model(config);
    EXPECT_GT(model.transferBytes(mb),
              model.inputFeatureBytes(mb.inputNodes().size()));
    EXPECT_GT(model.transferBytes(mb), mb.structureBytes());
}

TEST(MemoryModel, CountsApiConsistent)
{
    ModelConfig config;
    config.feature_dim = 16;
    config.hidden_dim = 16;
    config.num_classes = 4;
    MemoryModel model(config);
    EXPECT_EQ(model.bucketActivationBytes(0, 7, 3),
              model.layerActivationBytesFromCounts(0, 7, 21, 28));
}

} // namespace
} // namespace buffalo::nn
