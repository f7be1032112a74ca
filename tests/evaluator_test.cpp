/**
 * @file
 * Tests for the inference/evaluation path: budget-safe micro-batched
 * evaluation, and accuracy improving with training.
 */
#include <gtest/gtest.h>

#include "train/evaluator.h"
#include "train/experiment.h"
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
baseOptions(const graph::Dataset &data)
{
    TrainerOptions options;
    options.model.num_layers = 2;
    options.model.feature_dim = data.featureDim();
    options.model.hidden_dim = 16;
    options.model.num_classes = data.numClasses();
    options.fanouts = {5, 10};
    options.learning_rate = 1e-2;
    return options;
}

TEST(Evaluator, ReportsAllFields)
{
    auto &data = arxiv();
    device::Device dev("gpu", util::gib(4));
    BuffaloTrainer trainer(baseOptions(data), dev);
    util::Rng rng(1);
    auto stats = evaluate(trainer, data, data.trainNodes(), rng);
    EXPECT_EQ(stats.nodes, data.trainNodes().size());
    EXPECT_GT(stats.loss, 0.0);
    EXPECT_GE(stats.accuracy, 0.0);
    EXPECT_LE(stats.accuracy, 1.0);
    EXPECT_GE(stats.micro_batches, 1);
    EXPECT_GT(stats.peak_device_bytes, 0u);
}

TEST(Evaluator, RespectsTightBudget)
{
    auto &data = arxiv();
    TrainerOptions options = baseOptions(data);
    options.model.aggregator = nn::AggregatorKind::Lstm;
    device::Device dev("gpu", util::mib(8));
    BuffaloTrainer trainer(options, dev);
    util::Rng rng(2);
    auto stats = evaluate(trainer, data, data.trainNodes(), rng);
    EXPECT_GT(stats.micro_batches, 1);
    EXPECT_LE(stats.peak_device_bytes, util::mib(8));
}

TEST(Evaluator, AccuracyImprovesWithTraining)
{
    auto &data = arxiv();
    device::Device dev("gpu", util::gib(4));
    BuffaloTrainer trainer(baseOptions(data), dev);
    util::Rng rng(3);

    auto before = evaluate(trainer, data, data.trainNodes(), rng);
    runTraining(trainer, data, /*epochs=*/6, /*batch_size=*/64, rng);
    auto after = evaluate(trainer, data, data.trainNodes(), rng);

    EXPECT_LT(after.loss, before.loss);
    EXPECT_GT(after.accuracy, before.accuracy);
}

TEST(Evaluator, RejectsEmptyNodeSet)
{
    auto &data = arxiv();
    device::Device dev("gpu", util::gib(1));
    BuffaloTrainer trainer(baseOptions(data), dev);
    util::Rng rng(4);
    EXPECT_THROW(evaluate(trainer, data, {}, rng), InvalidArgument);
}

TEST(Evaluator, WorksForGcnAndGat)
{
    auto &data = arxiv();
    for (auto kind : {ModelKind::Gcn, ModelKind::Gat}) {
        TrainerOptions options = baseOptions(data);
        options.model_kind = kind;
        device::Device dev("gpu", util::gib(4));
        BuffaloTrainer trainer(options, dev);
        util::Rng rng(5);
        auto stats = evaluate(trainer, data, data.trainNodes(), rng);
        EXPECT_EQ(stats.nodes, data.trainNodes().size())
            << nn::modelArchName(kind);
    }
}

} // namespace
} // namespace buffalo::train
