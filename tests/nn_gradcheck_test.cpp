/**
 * @file
 * Numerical gradient checks (central differences) for every
 * differentiable module: Linear, LSTM cell, all aggregators, and the
 * full GraphSAGE / GCN / GAT models through the cross-entropy loss. These
 * anchor the convergence-parity experiments (Table IV, Fig. 17) — if
 * backward passes are right, gradient accumulation equivalence follows.
 */
#include <gtest/gtest.h>

#include "nn/aggregators.h"
#include "nn/gnn_model.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace buffalo::nn {
namespace {

namespace ops = buffalo::tensor;

constexpr float kEps = 1e-2f;
constexpr double kTol = 3e-2; // float32 central differences

/** L = sum(out .* weights): a generic scalar head for grad checks. */
double
weightedLoss(const Tensor &out, const Tensor &weights)
{
    return ops::sum(ops::multiply(out, weights));
}

/** Relative error robust to small denominators. */
double
relErr(double analytic, double numeric)
{
    const double denom =
        std::max({std::abs(analytic), std::abs(numeric), 1e-3});
    return std::abs(analytic - numeric) / denom;
}

/**
 * Checks one coordinate by central differences. Estimates at two step
 * sizes must agree, otherwise the coordinate sits on a kink (ReLU /
 * max-pool argmax boundary) where numerical gradients are meaningless
 * and the coordinate is skipped.
 */
template <typename LossFn>
void
checkCoordinate(float &slot, double analytic, LossFn loss_of,
                const std::string &label)
{
    const float original = slot;
    auto central = [&](float eps) {
        slot = original + eps;
        const double up = loss_of();
        slot = original - eps;
        const double down = loss_of();
        slot = original;
        return (up - down) / (2.0 * eps);
    };
    const double n1 = central(kEps);
    const double n2 = central(2 * kEps);
    if (relErr(n1, n2) > 0.02)
        return; // nonsmooth point
    EXPECT_LT(relErr(analytic, n1), kTol) << label;
}

TEST(GradCheck, LinearInputAndParams)
{
    util::Rng rng(1);
    Linear layer("lin", 4, 3, rng);
    Tensor x = Tensor::zeros(5, 4);
    ops::fillUniform(x, 1.0f, rng);
    Tensor head = Tensor::zeros(5, 3);
    ops::fillUniform(head, 1.0f, rng);

    Linear::Cache cache;
    layer.forward(x, cache);
    layer.zeroGrad();
    Tensor grad_x = layer.backward(cache, head, true);

    auto loss_of = [&]() {
        Linear::Cache c;
        return weightedLoss(layer.forward(x, c), head);
    };

    // Input gradient.
    for (std::size_t k = 0; k < x.size(); k += 3)
        checkCoordinate(x.data()[k], grad_x.data()[k], loss_of,
                        "x[" + std::to_string(k) + "]");

    // Weight gradient (sampled entries).
    Tensor &w = layer.weight().value();
    const Tensor &gw = layer.weight().grad();
    for (std::size_t k = 0; k < w.size(); k += 5)
        checkCoordinate(w.data()[k], gw.data()[k], loss_of,
                        "w[" + std::to_string(k) + "]");

    // Bias gradient.
    Tensor &b = layer.bias().value();
    const Tensor &gb = layer.bias().grad();
    for (std::size_t k = 0; k < b.size(); ++k)
        checkCoordinate(b.data()[k], gb.data()[k], loss_of,
                        "b[" + std::to_string(k) + "]");
}

TEST(GradCheck, LstmCellTwoSteps)
{
    util::Rng rng(2);
    const std::size_t n = 3, f = 4;
    LstmCell cell("lstm", f, f, rng);

    Tensor x0 = Tensor::zeros(n, f), x1 = Tensor::zeros(n, f);
    ops::fillUniform(x0, 0.8f, rng);
    ops::fillUniform(x1, 0.8f, rng);
    Tensor head = Tensor::zeros(n, f);
    ops::fillUniform(head, 1.0f, rng);

    auto run_forward = [&](double *loss_out) {
        Tensor h = Tensor::zeros(n, f), c = Tensor::zeros(n, f);
        LstmCell::StepCache c0, c1;
        auto [h1, s1] = cell.step(x0, h, c, c0);
        auto [h2, s2] = cell.step(x1, h1, s1, c1);
        *loss_out = weightedLoss(h2, head);
        return std::pair{std::move(c0), std::move(c1)};
    };

    double base_loss = 0.0;
    auto [cache0, cache1] = run_forward(&base_loss);
    cell.zeroGrad();
    Tensor dc = Tensor::zeros(n, f);
    auto g1 = cell.stepBackward(cache1, head, dc, true, true);
    auto g0 =
        cell.stepBackward(cache0, g1.dh_prev, g1.dc_prev, true, true);

    auto loss_of = [&]() {
        double loss = 0.0;
        run_forward(&loss);
        return loss;
    };

    // Grad w.r.t. the first step's input (goes through the recurrence).
    for (std::size_t k = 0; k < x0.size(); k += 2)
        checkCoordinate(x0.data()[k], g0.dx.data()[k], loss_of,
                        "x0[" + std::to_string(k) + "]");

    // Grad w.r.t. Wx (sampled).
    auto params = cell.parameters();
    Tensor &wx = params[0]->value();
    const Tensor &gwx = params[0]->grad();
    for (std::size_t k = 0; k < wx.size(); k += 17)
        checkCoordinate(wx.data()[k], gwx.data()[k], loss_of,
                        "wx[" + std::to_string(k) + "]");
}

/** Parameterized gradient check over every aggregator family. */
class AggregatorGradCheck
    : public ::testing::TestWithParam<AggregatorKind>
{
};

TEST_P(AggregatorGradCheck, NeighborAndParamGradients)
{
    util::Rng rng(3);
    const std::size_t n = 4, d = 3, f = 5;
    auto agg = makeAggregator(GetParam(), "agg", f, rng);

    Tensor feats = Tensor::zeros(n * d, f);
    ops::fillUniform(feats, 0.9f, rng);
    Tensor head = Tensor::zeros(n, f);
    ops::fillUniform(head, 1.0f, rng);

    auto loss_of = [&]() {
        std::unique_ptr<AggregatorCache> cache;
        return weightedLoss(agg->forward(feats, n, d, cache), head);
    };

    std::unique_ptr<AggregatorCache> cache;
    agg->forward(feats, n, d, cache);
    agg->zeroGrad();
    Tensor grad_in = agg->backward(*cache, head, true);
    ASSERT_EQ(grad_in.rows(), n * d);
    ASSERT_EQ(grad_in.cols(), f);

    for (std::size_t k = 0; k < feats.size(); k += 4)
        checkCoordinate(feats.data()[k], grad_in.data()[k], loss_of,
                        std::string(aggregatorName(GetParam())) +
                            " feats[" + std::to_string(k) + "]");

    // Parameter gradients (where the aggregator has any).
    for (Parameter *param : agg->parameters()) {
        Tensor &value = param->value();
        const Tensor &grad = param->grad();
        for (std::size_t k = 0; k < value.size(); k += 13)
            checkCoordinate(value.data()[k], grad.data()[k], loss_of,
                            param->name() + "[" +
                                std::to_string(k) + "]");
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AggregatorGradCheck,
    ::testing::Values(AggregatorKind::Mean, AggregatorKind::Gcn,
                      AggregatorKind::Pool, AggregatorKind::Lstm),
    [](const ::testing::TestParamInfo<AggregatorKind> &info) {
        return aggregatorName(info.param);
    });

/** Tiny deterministic two-layer micro-batch over 6 input nodes. */
sampling::MicroBatch
tinyMicroBatch()
{
    // Bottom layer: 4 dst (ids 0-3) over 6 srcs (ids 0-5).
    sampling::Block bottom;
    bottom.src_nodes = {0, 1, 2, 3, 4, 5};
    bottom.num_dst = 4;
    bottom.offsets = {0, 2, 4, 5, 7};
    bottom.neighbors = {4, 5, 0, 4, 5, 1, 2};

    // Top layer: 2 dst (seeds 0, 1) over the 4 lower dsts.
    sampling::Block top;
    top.src_nodes = {0, 1, 2, 3};
    top.num_dst = 2;
    top.offsets = {0, 2, 4};
    top.neighbors = {2, 3, 0, 3};

    sampling::MicroBatch mb;
    mb.blocks = {bottom, top};
    mb.validateChain();
    return mb;
}

/** Parameterized end-to-end model gradient check. */
struct ModelCase
{
    ModelArch arch;
    AggregatorKind aggregator;
    const char *name;
};

class ModelGradCheck : public ::testing::TestWithParam<ModelCase>
{
};

TEST_P(ModelGradCheck, ParamsThroughCrossEntropy)
{
    const ModelCase &param = GetParam();
    util::Rng rng(4);
    ModelConfig config;
    config.arch = param.arch;
    config.aggregator = param.aggregator;
    config.num_layers = 2;
    config.feature_dim = 4;
    config.hidden_dim = 6;
    config.num_classes = 3;

    sampling::MicroBatch mb = tinyMicroBatch();
    Tensor feats = Tensor::zeros(6, config.feature_dim);
    ops::fillUniform(feats, 0.8f, rng);
    std::vector<std::int32_t> labels = {1, 2};

    GnnModel model(config, 99);
    auto loss_of = [&]() {
        Tensor logits = model.forwardInference(mb, feats);
        return softmaxCrossEntropy(logits, labels).loss;
    };

    Tensor logits = model.forward(mb, feats);
    auto loss = softmaxCrossEntropy(logits, labels);
    model.zeroGrad();
    model.backward(loss.grad_logits);

    for (Parameter *p : model.parameters()) {
        Tensor &value = p->value();
        const Tensor &grad = p->grad();
        const std::size_t stride =
            std::max<std::size_t>(1, value.size() / 7);
        for (std::size_t k = 0; k < value.size(); k += stride)
            checkCoordinate(value.data()[k], grad.data()[k], loss_of,
                            p->name() + "[" + std::to_string(k) + "]");
    }
}

INSTANTIATE_TEST_SUITE_P(
    Models, ModelGradCheck,
    ::testing::Values(
        ModelCase{ModelArch::Sage, AggregatorKind::Mean, "sage_mean"},
        ModelCase{ModelArch::Sage, AggregatorKind::Pool, "sage_pool"},
        ModelCase{ModelArch::Sage, AggregatorKind::Lstm, "sage_lstm"},
        ModelCase{ModelArch::Gat, AggregatorKind::Mean, "gat"},
        ModelCase{ModelArch::Gcn, AggregatorKind::Mean, "gcn"}),
    [](const ::testing::TestParamInfo<ModelCase> &info) {
        return info.param.name;
    });

TEST(GradCheck, SoftmaxCrossEntropyGradient)
{
    util::Rng rng(5);
    Tensor logits = Tensor::zeros(3, 4);
    ops::fillUniform(logits, 2.0f, rng);
    std::vector<std::int32_t> labels = {0, 3, 2};

    auto result = softmaxCrossEntropy(logits, labels);
    auto loss_of = [&]() {
        return softmaxCrossEntropy(logits, labels).loss;
    };
    for (std::size_t k = 0; k < logits.size(); ++k)
        checkCoordinate(logits.data()[k],
                        result.grad_logits.data()[k], loss_of,
                        "logits[" + std::to_string(k) + "]");
}

} // namespace
} // namespace buffalo::nn
