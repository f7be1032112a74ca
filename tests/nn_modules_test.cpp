/**
 * @file
 * Behavioral tests for the NN substrate beyond gradient correctness:
 * parameter plumbing, loss semantics, optimizers, and model shapes.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "digest.h"
#include "nn/aggregators.h"
#include "nn/gnn_model.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "simd_lanes.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace buffalo::nn {
namespace {

namespace ops = buffalo::tensor;

TEST(Parameter, GradAccumulatesAcrossCalls)
{
    Parameter p("p", 2, 2);
    Tensor delta = Tensor::full(2, 2, 1.0f);
    p.accumulateGrad(delta);
    p.accumulateGrad(delta);
    EXPECT_EQ(p.grad().at(0, 0), 2.0f);
    p.zeroGrad();
    EXPECT_EQ(p.grad().at(0, 0), 0.0f);
    EXPECT_EQ(p.bytes(), 2 * 16u);
}

TEST(Loss, PerfectPredictionNearZero)
{
    // Huge margin on the right class -> near-zero loss, full accuracy.
    Tensor logits = Tensor::fromValues(2, 3,
                                       {10, -10, -10, -10, 10, -10});
    auto result = softmaxCrossEntropy(logits, {0, 1});
    EXPECT_LT(result.loss, 1e-6);
    EXPECT_EQ(result.correct, 2u);
}

TEST(Loss, UniformLogitsGiveLogK)
{
    Tensor logits = Tensor::zeros(4, 8);
    auto result = softmaxCrossEntropy(logits, {0, 1, 2, 3});
    EXPECT_NEAR(result.loss, std::log(8.0), 1e-6);
}

TEST(Loss, DenominatorScalesGradient)
{
    Tensor logits = Tensor::fromValues(1, 2, {0.3f, -0.2f});
    auto full = softmaxCrossEntropy(logits, {0});
    auto scaled = softmaxCrossEntropy(logits, {0}, 4);
    EXPECT_NEAR(scaled.loss, full.loss / 4.0, 1e-9);
    EXPECT_NEAR(scaled.grad_logits.at(0, 0),
                full.grad_logits.at(0, 0) / 4.0f, 1e-7);
}

TEST(Loss, RejectsBadLabels)
{
    Tensor logits = Tensor::zeros(1, 3);
    EXPECT_THROW(softmaxCrossEntropy(logits, {3}), InvalidArgument);
    EXPECT_THROW(softmaxCrossEntropy(logits, {0, 1}),
                 InvalidArgument);
}

/** Toy quadratic problem: optimizers must reduce the loss. */
template <typename MakeOpt>
double
optimizeQuadratic(MakeOpt make_opt, int steps)
{
    Parameter p("w", 1, 4);
    for (std::size_t j = 0; j < 4; ++j)
        p.value().at(0, j) = 2.0f + static_cast<float>(j);
    auto opt = make_opt(std::vector<Parameter *>{&p});
    double loss = 0.0;
    for (int i = 0; i < steps; ++i) {
        loss = 0.0;
        for (std::size_t j = 0; j < 4; ++j) {
            const float w = p.value().at(0, j);
            loss += 0.5 * w * w;
            p.grad().at(0, j) += w; // dL/dw = w
        }
        opt->step();
    }
    return loss;
}

TEST(Optimizer, SgdConverges)
{
    const double final_loss = optimizeQuadratic(
        [](std::vector<Parameter *> params) {
            return std::make_unique<Sgd>(std::move(params), 0.1);
        },
        100);
    EXPECT_LT(final_loss, 1e-4);
}

TEST(Optimizer, SgdMomentumConverges)
{
    const double final_loss = optimizeQuadratic(
        [](std::vector<Parameter *> params) {
            return std::make_unique<Sgd>(std::move(params), 0.05, 0.9);
        },
        120);
    EXPECT_LT(final_loss, 1e-3);
}

TEST(Optimizer, AdamConverges)
{
    const double final_loss = optimizeQuadratic(
        [](std::vector<Parameter *> params) {
            return std::make_unique<Adam>(std::move(params), 0.3);
        },
        200);
    EXPECT_LT(final_loss, 1e-3);
}

TEST(Optimizer, StepZeroesGradients)
{
    Parameter p("w", 1, 1);
    p.grad().at(0, 0) = 1.0f;
    Sgd sgd({&p}, 0.1);
    sgd.step();
    EXPECT_EQ(p.grad().at(0, 0), 0.0f);
}

TEST(Optimizer, AdamStateBytesAreDoubleWeights)
{
    Parameter p("w", 8, 8);
    Adam adam({&p}, 1e-3);
    EXPECT_EQ(adam.stateBytes(), 2 * p.value().bytes());
}

TEST(Aggregators, FactoryAndNames)
{
    util::Rng rng(1);
    for (auto kind :
         {AggregatorKind::Mean, AggregatorKind::Pool,
          AggregatorKind::Lstm, AggregatorKind::Gcn}) {
        auto agg = makeAggregator(kind, "a", 8, rng);
        EXPECT_EQ(agg->kind(), kind);
        EXPECT_EQ(agg->dim(), 8u);
        EXPECT_EQ(aggregatorFromName(aggregatorName(kind)), kind);
    }
    EXPECT_THROW(aggregatorFromName("nope"), InvalidArgument);
}

TEST(Aggregators, MeanOfIdenticalRowsIsIdentity)
{
    util::Rng rng(2);
    auto agg = makeAggregator(AggregatorKind::Mean, "m", 3, rng);
    // 2 nodes, degree 2, all neighbor rows equal to (1, 2, 3).
    Tensor feats = Tensor::zeros(4, 3);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            feats.at(r, c) = static_cast<float>(c + 1);
    std::unique_ptr<AggregatorCache> cache;
    Tensor out = agg->forward(feats, 2, 2, cache);
    EXPECT_NEAR(out.at(0, 0), 1.0f, 1e-6);
    EXPECT_NEAR(out.at(1, 2), 3.0f, 1e-6);
}

TEST(Aggregators, GcnUsesSqrtNormalization)
{
    util::Rng rng(3);
    auto agg = makeAggregator(AggregatorKind::Gcn, "g", 2, rng);
    Tensor feats = Tensor::full(4, 2, 1.0f); // 1 node, degree 4
    std::unique_ptr<AggregatorCache> cache;
    Tensor out = agg->forward(feats, 1, 4, cache);
    EXPECT_NEAR(out.at(0, 0), 4.0f / std::sqrt(4.0f), 1e-5);
}

TEST(Aggregators, LstmCacheGrowsWithDegree)
{
    util::Rng rng(4);
    auto agg = makeAggregator(AggregatorKind::Lstm, "l", 4, rng);
    std::unique_ptr<AggregatorCache> small_cache, large_cache;
    Tensor f2 = Tensor::full(2 * 2, 4, 0.1f);
    Tensor f8 = Tensor::full(2 * 8, 4, 0.1f);
    agg->forward(f2, 2, 2, small_cache);
    agg->forward(f8, 2, 8, large_cache);
    EXPECT_GT(large_cache->bytes(), small_cache->bytes());
}

void
hashTensor(testing_digest::Fnv &h, const Tensor &t)
{
    h.pod(static_cast<std::uint64_t>(t.rows()));
    h.pod(static_cast<std::uint64_t>(t.cols()));
    if (t.size() != 0)
        h.bytes(t.data(), t.size() * sizeof(float));
}

/**
 * Hashes the LSTM aggregator's forward output and input gradient over
 * two forward/backward passes (different inputs, no optimizer step in
 * between), then the accumulated wx/wh/b gradients, for every shape.
 */
std::uint64_t
lstmAggregatorDigest()
{
    struct Shape
    {
        std::size_t n, d, dim;
    };
    std::vector<Shape> shapes;
    for (std::size_t n : {1u, 33u, 130u, 257u})
        for (std::size_t d : {1u, 3u, 5u, 10u})
            for (std::size_t dim : {8u, 20u, 24u, 32u})
                shapes.push_back({n, d, dim});
    shapes.push_back({33, 3, 128});
    shapes.push_back({130, 1, 128});

    testing_digest::Fnv h;
    for (const Shape &s : shapes) {
        util::Rng rng(31 + s.n + 7 * s.d + 13 * s.dim);
        auto agg = makeAggregator(AggregatorKind::Lstm, "l", s.dim, rng);
        // A random bias: the initial one is zero outside the forget
        // gate, which would hide the order of the bias add.
        ops::fillUniform(agg->parameters().back()->value(), 1.0f, rng);
        for (int pass = 0; pass < 2; ++pass) {
            Tensor feats = Tensor::zeros(s.n * s.d, s.dim);
            Tensor grad = Tensor::zeros(s.n, s.dim);
            ops::fillUniform(feats, 2.0f, rng);
            ops::fillUniform(grad, 1.0f, rng);
            std::unique_ptr<AggregatorCache> cache;
            hashTensor(h, agg->forward(feats, s.n, s.d, cache));
            hashTensor(h, agg->backward(*cache, grad));
        }
        for (Parameter *p : agg->parameters())
            hashTensor(h, p->grad());
    }
    return h.value();
}

/**
 * Golden digest of the LSTM aggregator, computed from the unfused
 * slice/sigmoid/tanh/concat cell with the owned exp and tanh
 * (tensor/transcendental.h) and the 4x1 / one-chain GEMM kernels. It
 * must hold at every SIMD width the CPU runs (1, 8 and 16 on an
 * AVX-512 host) and thread count; any change here means a numeric
 * LSTM output changed.
 */
TEST(Aggregators, LstmDigestIsPinnedAcrossSimdAndThreads)
{
    const std::uint64_t golden = 0xa761d47f2144e53cULL;
    for (const testing_simd::SimdLane &lane :
         testing_simd::sweepLanes()) {
        for (std::size_t threads : {1u, 4u}) {
            tensor::kernels::KernelConfig cfg;
            cfg.threads = threads;
            if (threads > 1) {
                // Fan out even the smallest steps.
                cfg.min_parallel_work = 1;
                cfg.min_rows_per_task = 1;
            }
            testing_simd::setConfigAt(cfg, lane);
            const std::uint64_t digest = lstmAggregatorDigest();
            testing_simd::resetDispatch();
            EXPECT_EQ(digest, golden)
                << std::hex << "0x" << digest << " simd="
                << testing_simd::laneName(lane)
                << " threads=" << std::dec << threads;
        }
    }
}

TEST(Aggregators, FlopsMonotonicInWork)
{
    util::Rng rng(5);
    for (auto kind : {AggregatorKind::Mean, AggregatorKind::Pool,
                      AggregatorKind::Lstm}) {
        auto agg = makeAggregator(kind, "f", 16, rng);
        EXPECT_LT(agg->flops(10, 5), agg->flops(20, 5));
        EXPECT_LT(agg->flops(10, 5), agg->flops(10, 10));
    }
}

TEST(Aggregators, RejectsBadShapes)
{
    util::Rng rng(6);
    auto agg = makeAggregator(AggregatorKind::Mean, "m", 4, rng);
    std::unique_ptr<AggregatorCache> cache;
    Tensor bad = Tensor::zeros(5, 4); // not n*d rows
    EXPECT_THROW(agg->forward(bad, 2, 3, cache), InvalidArgument);
    EXPECT_THROW(agg->forward(bad, 5, 0, cache), InvalidArgument);
}

/** Tiny 1-layer micro-batch: 2 seeds over 4 srcs. */
sampling::MicroBatch
oneLayerBatch()
{
    sampling::Block block;
    block.src_nodes = {0, 1, 2, 3};
    block.num_dst = 2;
    block.offsets = {0, 2, 3};
    block.neighbors = {2, 3, 3};
    sampling::MicroBatch mb;
    mb.blocks = {block};
    mb.validateChain();
    return mb;
}

TEST(SageModel, OutputShapeAndDeterminism)
{
    ModelConfig config;
    config.num_layers = 1;
    config.feature_dim = 4;
    config.hidden_dim = 8;
    config.num_classes = 3;

    sampling::MicroBatch mb = oneLayerBatch();
    util::Rng rng(7);
    Tensor feats = Tensor::zeros(4, 4);
    ops::fillUniform(feats, 1.0f, rng);

    GnnModel model_a(config, 5);
    GnnModel model_b(config, 5);
    Tensor out_a = model_a.forward(mb, feats);
    Tensor out_b = model_b.forward(mb, feats);
    EXPECT_EQ(out_a.rows(), 2u);
    EXPECT_EQ(out_a.cols(), 3u);
    EXPECT_LT(ops::maxAbsDiff(out_a, out_b), 1e-9);

    GnnModel model_c(config, 6); // different seed -> different weights
    Tensor out_c = model_c.forward(mb, feats);
    EXPECT_GT(ops::maxAbsDiff(out_a, out_c), 1e-6);
}

TEST(SageModel, HandlesZeroDegreeDestinations)
{
    // One destination with no neighbors at all.
    sampling::Block block;
    block.src_nodes = {0, 1, 2};
    block.num_dst = 2;
    block.offsets = {0, 0, 2}; // dst 0 has degree 0
    block.neighbors = {1, 2};
    sampling::MicroBatch mb;
    mb.blocks = {block};

    ModelConfig config;
    config.num_layers = 1;
    config.feature_dim = 3;
    config.hidden_dim = 4;
    config.num_classes = 2;

    util::Rng rng(8);
    Tensor feats = Tensor::zeros(3, 3);
    ops::fillUniform(feats, 1.0f, rng);
    GnnModel model(config, 9);
    Tensor out = model.forward(mb, feats);
    EXPECT_EQ(out.rows(), 2u);
    // Backward must not crash on the empty bucket.
    Tensor grad = Tensor::full(2, 2, 0.5f);
    EXPECT_NO_THROW(model.backward(grad));
}

TEST(SageModel, ParameterCountMatchesConfig)
{
    ModelConfig config;
    config.aggregator = AggregatorKind::Lstm;
    config.num_layers = 2;
    config.feature_dim = 4;
    config.hidden_dim = 8;
    config.num_classes = 3;
    GnnModel model(config, 1);
    // Per layer: LSTM (3 params) + update Linear (2 params).
    EXPECT_EQ(model.parameters().size(), 2u * (3 + 2));
}

TEST(GatModel, OutputShapeAndHeads)
{
    ModelConfig config;
    config.arch = ModelArch::Gat;
    config.num_layers = 2;
    config.feature_dim = 4;
    config.hidden_dim = 8;
    config.num_classes = 4;
    config.num_heads = 2;

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

    util::Rng rng(10);
    Tensor feats = Tensor::zeros(4, 4);
    ops::fillUniform(feats, 1.0f, rng);
    GnnModel model(config, 11);
    Tensor out = model.forward(mb, feats);
    EXPECT_EQ(out.rows(), 2u);
    EXPECT_EQ(out.cols(), 4u);
    // 2 layers x 2 heads x 3 params.
    EXPECT_EQ(model.parameters().size(), 12u);
}

TEST(GatModel, AttentionRowsSumToOne)
{
    ModelConfig config;
    config.arch = ModelArch::Gat;
    config.num_layers = 1;
    config.feature_dim = 3;
    config.hidden_dim = 4;
    config.num_classes = 4;

    sampling::MicroBatch mb = oneLayerBatch();
    util::Rng rng(12);
    Tensor feats = Tensor::zeros(4, 3);
    ops::fillUniform(feats, 1.0f, rng);
    GnnModel model(config, 13);
    model.forward(mb, feats);

    const auto &state =
        dynamic_cast<const GatLayerState &>(model.layerState(0));
    ASSERT_FALSE(state.heads.empty());
    for (const auto &bucket_states : state.heads) {
        for (const auto &head : bucket_states) {
            for (std::size_t r = 0; r < head.alpha.rows(); ++r) {
                double row_sum = 0.0;
                for (std::size_t c = 0; c < head.alpha.cols(); ++c)
                    row_sum += head.alpha.at(r, c);
                EXPECT_NEAR(row_sum, 1.0, 1e-5);
            }
        }
    }
}

/**
 * Two layers over 40 -> 24 -> 10 nodes. Destination i of the bottom
 * block has degree i % 5 and of the top block i % 4, so both layers
 * have zero-degree destinations and four or five degree buckets.
 */
sampling::MicroBatch
twoLayerBucketedBatch()
{
    auto block = [](sampling::NodeId num_src, sampling::NodeId num_dst,
                    sampling::NodeId max_degree) {
        sampling::Block b;
        for (sampling::NodeId v = 0; v < num_src; ++v)
            b.src_nodes.push_back(v);
        b.num_dst = num_dst;
        b.offsets = {0};
        for (sampling::NodeId i = 0; i < num_dst; ++i) {
            for (sampling::NodeId t = 0; t < i % (max_degree + 1); ++t)
                b.neighbors.push_back((i + 1 + 5 * t) % num_src);
            b.offsets.push_back(b.neighbors.size());
        }
        return b;
    };
    sampling::MicroBatch mb;
    mb.blocks = {block(40, 24, 4), block(24, 10, 3)};
    mb.validateChain();
    return mb;
}

/** Records the live bytes at every allocation, in order. */
class AllocationTrace : public AllocationObserver
{
  public:
    void
    onAllocate(std::uint64_t bytes) override
    {
        h_.pod(live_);
        h_.pod(bytes);
        live_ += bytes;
    }
    void onFree(std::uint64_t bytes) override { live_ -= bytes; }
    std::uint64_t value() const { return h_.value(); }

  private:
    testing_digest::Fnv h_;
    std::uint64_t live_ = 0;
};

/**
 * Hashes, per architecture, the training and inference logits of two
 * forward/backward passes (different features and logit gradients, no
 * optimizer step in between), then every parameter's name, shape and
 * accumulated gradient, then the allocation trace: the live bytes at
 * each allocation, which fixes every device peak.
 */
std::uint64_t
modelDigest()
{
    struct Arch
    {
        ModelArch arch;
        AggregatorKind aggregator;
        int heads;
    };
    const std::vector<Arch> archs = {
        {ModelArch::Sage, AggregatorKind::Mean, 1},
        {ModelArch::Sage, AggregatorKind::Pool, 1},
        {ModelArch::Sage, AggregatorKind::Lstm, 1},
        {ModelArch::Sage, AggregatorKind::Gcn, 1},
        {ModelArch::Gcn, AggregatorKind::Mean, 1},
        {ModelArch::Gat, AggregatorKind::Mean, 1},
        {ModelArch::Gat, AggregatorKind::Mean, 2},
    };
    const sampling::MicroBatch mb = twoLayerBucketedBatch();
    testing_digest::Fnv h;
    for (std::size_t a = 0; a < archs.size(); ++a) {
        ModelConfig config;
        config.arch = archs[a].arch;
        config.aggregator = archs[a].aggregator;
        config.num_heads = archs[a].heads;
        config.num_layers = 2;
        config.feature_dim = 11;
        config.hidden_dim = 18;
        config.num_classes = 6;
        AllocationTrace trace;
        GnnModel model(config, 40 + a, &trace);
        util::Rng rng(70 + a);
        for (int pass = 0; pass < 2; ++pass) {
            Tensor feats = Tensor::zeros(40, 11);
            Tensor grad = Tensor::zeros(10, 6);
            ops::fillUniform(feats, 2.0f, rng);
            ops::fillUniform(grad, 1.0f, rng);
            hashTensor(h, model.forwardInference(mb, feats, &trace));
            hashTensor(h, model.forward(mb, feats, &trace));
            model.backward(grad, &trace);
        }
        for (Parameter *p : model.parameters()) {
            h.vec(std::vector<char>(p->name().begin(), p->name().end()));
            hashTensor(h, p->grad());
        }
        h.pod(trace.value());
    }
    return h.value();
}

/**
 * Golden digest of every architecture, last computed when the LSTM
 * gates and GAT's softmax moved to the owned exp and tanh
 * (tensor/transcendental.h). It must hold at every SIMD width the
 * CPU runs and thread count; any change here means a logit, a
 * gradient or a device peak changed.
 */
TEST(Models, DigestIsPinnedAcrossSimdAndThreads)
{
    const std::uint64_t golden = 0x897d2016cceff055ULL;
    for (const testing_simd::SimdLane &lane :
         testing_simd::sweepLanes()) {
        for (std::size_t threads : {1u, 4u}) {
            tensor::kernels::KernelConfig cfg;
            cfg.threads = threads;
            if (threads > 1) {
                cfg.min_parallel_work = 1;
                cfg.min_rows_per_task = 1;
            }
            testing_simd::setConfigAt(cfg, lane);
            const std::uint64_t digest = modelDigest();
            testing_simd::resetDispatch();
            EXPECT_EQ(digest, golden)
                << std::hex << "0x" << digest << " simd="
                << testing_simd::laneName(lane)
                << " threads=" << std::dec << threads;
        }
    }
}

/** A small two-layer config of @p arch over twoLayerBucketedBatch(). */
ModelConfig
smallConfig(ModelArch arch)
{
    ModelConfig config;
    config.arch = arch;
    config.num_layers = 2;
    config.feature_dim = 11;
    config.hidden_dim = 18;
    config.num_classes = 6;
    return config;
}

TEST(GnnModel, BackwardWithoutMatchingForwardThrows)
{
    const sampling::MicroBatch mb = twoLayerBucketedBatch();
    const Tensor grad = Tensor::full(10, 6, 0.1f);
    for (ModelArch arch :
         {ModelArch::Sage, ModelArch::Gcn, ModelArch::Gat}) {
        GnnModel model(smallConfig(arch), 3);
        EXPECT_THROW(model.backward(grad), InvalidArgument)
            << modelArchName(arch);

        model.forward(mb, Tensor::full(40, 11, 0.5f));
        model.clearCache();
        EXPECT_THROW(model.backward(grad), InvalidArgument)
            << modelArchName(arch);

        // Inference keeps no state to run backward over.
        model.forwardInference(mb, Tensor::full(40, 11, 0.5f));
        EXPECT_THROW(model.backward(grad), InvalidArgument)
            << modelArchName(arch);
    }
}

TEST(GnnModel, RejectsFeaturesOfTheWrongShape)
{
    const sampling::MicroBatch mb = twoLayerBucketedBatch();
    for (ModelArch arch :
         {ModelArch::Sage, ModelArch::Gcn, ModelArch::Gat}) {
        GnnModel model(smallConfig(arch), 3);
        for (const Tensor &feats :
             {Tensor::zeros(40, 12), Tensor::zeros(40, 10),
              Tensor::zeros(39, 11), Tensor::zeros(41, 11)}) {
            EXPECT_THROW(model.forward(mb, feats), InvalidArgument)
                << modelArchName(arch) << " " << feats.rows() << "x"
                << feats.cols();
            EXPECT_THROW(model.forwardInference(mb, feats),
                         InvalidArgument)
                << modelArchName(arch) << " " << feats.rows() << "x"
                << feats.cols();
        }
        EXPECT_EQ(model.forward(mb, Tensor::zeros(40, 11)).cols(), 6u);
    }
}

TEST(ModelConfig, ArchNamesRoundTrip)
{
    for (ModelArch arch :
         {ModelArch::Sage, ModelArch::Gcn, ModelArch::Gat})
        EXPECT_EQ(modelArchFromName(modelArchName(arch)), arch);
    EXPECT_THROW(modelArchFromName("graphsage"), InvalidArgument);
    EXPECT_THROW(modelArchFromName(""), InvalidArgument);
}

TEST(ModelConfig, ValidationAndDims)
{
    ModelConfig config;
    config.num_layers = 3;
    config.feature_dim = 10;
    config.hidden_dim = 20;
    config.num_classes = 5;
    config.validate();
    EXPECT_EQ(config.layerInDim(0), 10);
    EXPECT_EQ(config.layerInDim(1), 20);
    EXPECT_EQ(config.layerOutDim(1), 20);
    EXPECT_EQ(config.layerOutDim(2), 5);

    config.num_layers = 0;
    EXPECT_THROW(config.validate(), InvalidArgument);
}

} // namespace
} // namespace buffalo::nn
