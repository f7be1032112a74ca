/**
 * @file
 * Tests for model checkpointing: round trips across fresh model
 * instances, and rejection of mismatched architectures.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "nn/checkpoint.h"
#include "nn/gnn_model.h"
#include "tensor/ops.h"
#include "util/errors.h"

namespace buffalo::nn {
namespace {

ModelConfig
smallConfig(AggregatorKind kind = AggregatorKind::Mean)
{
    ModelConfig config;
    config.aggregator = kind;
    config.num_layers = 2;
    config.feature_dim = 6;
    config.hidden_dim = 8;
    config.num_classes = 3;
    return config;
}

sampling::MicroBatch
tinyBatch()
{
    sampling::Block bottom;
    bottom.src_nodes = {0, 1, 2, 3};
    bottom.num_dst = 3;
    bottom.offsets = {0, 1, 2, 3};
    bottom.neighbors = {3, 0, 1};
    sampling::Block top;
    top.src_nodes = {0, 1, 2};
    top.num_dst = 2;
    top.offsets = {0, 1, 2};
    top.neighbors = {2, 0};
    sampling::MicroBatch mb;
    mb.blocks = {bottom, top};
    mb.validateChain();
    return mb;
}

TEST(Checkpoint, RoundTripRestoresOutputs)
{
    util::Rng rng(1);
    Tensor feats = Tensor::zeros(4, 6);
    tensor::fillUniform(feats, 1.0f, rng);
    auto mb = tinyBatch();

    GnnModel original(smallConfig(), /*seed=*/11);
    Tensor expected = original.forward(mb, feats);

    std::stringstream buffer;
    saveCheckpoint(buffer, original);

    // A model with DIFFERENT random init must reproduce the original
    // outputs exactly after loading.
    GnnModel restored(smallConfig(), /*seed=*/99);
    Tensor before = restored.forward(mb, feats);
    ASSERT_GT(tensor::maxAbsDiff(before, expected), 1e-6);

    loadCheckpoint(buffer, restored);
    Tensor after = restored.forward(mb, feats);
    EXPECT_EQ(tensor::maxAbsDiff(after, expected), 0.0);
}

TEST(Checkpoint, WorksForEveryAggregator)
{
    for (auto kind : {AggregatorKind::Mean, AggregatorKind::Pool,
                      AggregatorKind::Lstm}) {
        GnnModel a(smallConfig(kind), 1);
        GnnModel b(smallConfig(kind), 2);
        std::stringstream buffer;
        saveCheckpoint(buffer, a);
        loadCheckpoint(buffer, b);
        auto pa = a.parameters();
        auto pb = b.parameters();
        ASSERT_EQ(pa.size(), pb.size());
        for (std::size_t i = 0; i < pa.size(); ++i)
            EXPECT_EQ(tensor::maxAbsDiff(pa[i]->value(),
                                         pb[i]->value()),
                      0.0)
                << aggregatorName(kind);
    }
}

TEST(Checkpoint, RejectsArchitectureMismatch)
{
    GnnModel sage(smallConfig(), 1);
    std::stringstream buffer;
    saveCheckpoint(buffer, sage);

    ModelConfig gcn_config = smallConfig();
    gcn_config.arch = ModelArch::Gcn;
    GnnModel gcn(gcn_config, 1); // different parameter names
    EXPECT_THROW(loadCheckpoint(buffer, gcn), InvalidArgument);
}

TEST(Checkpoint, RejectsShapeMismatch)
{
    GnnModel narrow(smallConfig(), 1);
    std::stringstream buffer;
    saveCheckpoint(buffer, narrow);

    ModelConfig wide_config = smallConfig();
    wide_config.hidden_dim = 16;
    GnnModel wide(wide_config, 1);
    EXPECT_THROW(loadCheckpoint(buffer, wide), InvalidArgument);
}

TEST(Checkpoint, ShapeMismatchErrorNamesBothShapes)
{
    GnnModel narrow(smallConfig(), 1);
    std::stringstream buffer;
    saveCheckpoint(buffer, narrow);

    ModelConfig wide_config = smallConfig();
    wide_config.hidden_dim = 16;
    GnnModel wide(wide_config, 1);
    try {
        loadCheckpoint(buffer, wide);
        FAIL() << "expected InvalidArgument";
    } catch (const InvalidArgument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("shape mismatch"), std::string::npos)
            << what;
        // Both the checkpoint's and the model's dimensions must be
        // spelled out so the user can see which config knob is off.
        EXPECT_NE(what.find("8"), std::string::npos) << what;
        EXPECT_NE(what.find("16"), std::string::npos) << what;
        EXPECT_NE(what.find("hidden_dim"), std::string::npos) << what;
    }
}

TEST(Checkpoint, RejectsExtraParameters)
{
    // Build a checkpoint that is a strict superset of the model's
    // parameters: every model parameter matches, plus one orphan
    // entry. The load must fail naming the orphan rather than
    // silently dropping it.
    GnnModel model(smallConfig(), 1);
    std::stringstream buffer;
    saveCheckpoint(buffer, model);
    std::string bytes = buffer.str();

    // Bump the entry count (u64 after the 4-byte magic and u32
    // version) and append one 2x2 entry under an unknown name.
    std::uint64_t count = 0;
    std::memcpy(&count, bytes.data() + 8, sizeof(count));
    ++count;
    std::memcpy(bytes.data() + 8, &count, sizeof(count));
    const std::string name = "stale.extra.weight";
    const std::uint64_t name_size = name.size();
    const std::uint64_t dims[2] = {2, 2};
    const float values[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    bytes.append(reinterpret_cast<const char *>(&name_size),
                 sizeof(name_size));
    bytes.append(name);
    bytes.append(reinterpret_cast<const char *>(dims), sizeof(dims));
    bytes.append(reinterpret_cast<const char *>(values),
                 sizeof(values));

    std::istringstream superset(bytes);
    try {
        loadCheckpoint(superset, model);
        FAIL() << "expected InvalidArgument";
    } catch (const InvalidArgument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("no matching model parameter"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("stale.extra.weight"), std::string::npos)
            << what;
    }
}

TEST(Checkpoint, FailedLoadLeavesModelUntouched)
{
    GnnModel narrow(smallConfig(), 1);
    std::stringstream buffer;
    saveCheckpoint(buffer, narrow);

    ModelConfig wide_config = smallConfig();
    wide_config.hidden_dim = 16;
    GnnModel wide(wide_config, /*seed=*/7);
    std::vector<Tensor> before;
    for (Parameter *param : wide.parameters())
        before.push_back(param->value());

    EXPECT_THROW(loadCheckpoint(buffer, wide), InvalidArgument);

    // Validation runs before any copy, so a rejected checkpoint must
    // never leave the module half-loaded.
    auto params = wide.parameters();
    ASSERT_EQ(params.size(), before.size());
    for (std::size_t i = 0; i < params.size(); ++i)
        EXPECT_EQ(tensor::maxAbsDiff(params[i]->value(), before[i]),
                  0.0);
}

TEST(Checkpoint, RejectsCorruption)
{
    GnnModel model(smallConfig(), 1);
    std::stringstream buffer;
    saveCheckpoint(buffer, model);
    std::string bytes = buffer.str();

    std::istringstream bad_magic("XXXX" + bytes.substr(4));
    EXPECT_THROW(loadCheckpoint(bad_magic, model), InvalidArgument);

    std::istringstream truncated(bytes.substr(0, bytes.size() - 10));
    EXPECT_THROW(loadCheckpoint(truncated, model), InvalidArgument);
}

TEST(Checkpoint, MissingFileThrowsNotFound)
{
    GnnModel model(smallConfig(), 1);
    EXPECT_THROW(loadCheckpointFile("/nonexistent/model.ckpt", model),
                 NotFound);
}

} // namespace
} // namespace buffalo::nn
