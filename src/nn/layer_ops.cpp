#include "nn/layer_ops.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "nn/aggregators.h"
#include "nn/linear.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/transcendental.h"
#include "util/errors.h"

namespace buffalo::nn {

namespace ops = buffalo::tensor;
namespace kernels = buffalo::tensor::kernels;

namespace {

/** Update over [self || AGG(neighbors)], so its weight is 2*in wide. */
class SageLayer final : public LayerOp
{
  public:
    SageLayer(const std::string &tag, std::size_t in, std::size_t out,
              AggregatorKind kind, util::Rng &rng,
              AllocationObserver *observer)
        : in_(in),
          aggregator_(makeAggregator(kind, tag, in, rng, observer)),
          update_(tag + ".update", 2 * in, out, rng, observer)
    {
    }

    struct Bucket
    {
        sampling::DegreeBucket bucket;
        std::vector<std::uint32_t> gather_indices;
        std::unique_ptr<AggregatorCache> agg_cache;
    };
    struct SageState : State
    {
        std::vector<Bucket> buckets;
        Linear::Cache update;
    };

    Tensor
    forward(const sampling::Block &block, const Tensor &x, bool training,
            std::unique_ptr<State> &state, std::vector<Tensor> &working,
            AllocationObserver *observer) override
    {
        auto s = std::make_unique<SageState>();
        Tensor aggregated = Tensor::zeros(block.numDst(), in_, observer);
        for (auto &bucket : sampling::bucketizeBlock(block)) {
            // Built locally either way; outside training it (and the
            // aggregator's activation stash) dies with this iteration.
            Bucket b;
            b.bucket = bucket;
            const std::size_t n = bucket.members.size();
            const std::size_t d = bucket.degree;
            if (d > 0) {
                auto &indices = b.gather_indices;
                indices.reserve(n * d);
                for (sampling::NodeId dst : bucket.members)
                    for (sampling::NodeId src : block.neighborList(dst))
                        indices.push_back(src);
                // Fused path: aggregate straight from x into the
                // destination rows, skipping the gathered round-trip.
                const bool fused = aggregator_->forwardFused(
                    x, indices.data(), bucket.members.data(), n, d,
                    b.agg_cache, aggregated.data(), observer);
                if (!fused) {
                    Tensor gathered =
                        ops::gatherRows(x, indices, observer);
                    Tensor agg_out = aggregator_->forward(
                        gathered, n, d, b.agg_cache, observer);
                    // Scatter bucket rows to their destinations.
                    for (std::size_t i = 0; i < n; ++i) {
                        std::memcpy(
                            aggregated.data() + bucket.members[i] * in_,
                            agg_out.data() + i * in_,
                            in_ * sizeof(float));
                    }
                }
            }
            if (training)
                s->buckets.push_back(std::move(b));
        }

        // Self features: destinations are the src prefix of x.
        Tensor self_prefix = Tensor::zeros(block.numDst(), in_, observer);
        std::memcpy(self_prefix.data(), x.data(),
                    static_cast<std::size_t>(block.numDst()) * in_ *
                        sizeof(float));

        Tensor concat =
            ops::concatColumns(self_prefix, aggregated, observer);
        Tensor out = update_.forward(concat, s->update, observer);
        working.push_back(std::move(aggregated));
        working.push_back(std::move(self_prefix));
        state = std::move(s);
        return out;
    }

    Tensor
    backward(const State &state, const Tensor &x, const Tensor &grad_out,
             bool input_grad, AllocationObserver *observer) override
    {
        const auto &s = static_cast<const SageState &>(state);
        // Without an input gradient, only an aggregator with weights
        // still reads the update's dX, and only its aggregated half.
        const bool agg_grads =
            aggregatorHasWeights(aggregator_->kind());
        Tensor grad_concat = update_.backward(
            s.update, grad_out, input_grad || agg_grads, observer);
        if (!input_grad && !agg_grads)
            return {};
        Tensor grad_self;
        if (input_grad)
            grad_self = ops::sliceColumns(grad_concat, 0, in_, observer);
        Tensor grad_agg =
            ops::sliceColumns(grad_concat, in_, 2 * in_, observer);

        Tensor grad_x;
        if (input_grad) {
            grad_x = Tensor::zeros(x.rows(), in_, observer);
            // Self path: destinations are the src prefix (a flat
            // element-range add over the owned slab).
            kernels::OpTimer timer(kernels::OpClass::Elementwise,
                                   3 * grad_self.bytes());
            float *px = grad_x.data();
            const float *ps = grad_self.data();
            const std::size_t elems = grad_self.size();
            kernels::parallelRows(
                elems, elems, [&](std::size_t lo, std::size_t hi) {
                    kernels::ewAddInPlace(px, ps, lo, hi);
                });
        }
        // Aggregation path, bucket by bucket.
        for (const Bucket &b : s.buckets) {
            if (b.bucket.degree == 0)
                continue;
            if (input_grad &&
                aggregator_->backwardFused(
                    *b.agg_cache, grad_agg, b.bucket.members.data(),
                    b.gather_indices.data(), grad_x.data(),
                    grad_x.rows(), observer))
                continue;
            std::vector<std::uint32_t> member_rows(
                b.bucket.members.begin(), b.bucket.members.end());
            Tensor grad_bucket =
                ops::gatherRows(grad_agg, member_rows, observer);
            Tensor grad_gathered = aggregator_->backward(
                *b.agg_cache, grad_bucket, input_grad, observer);
            if (input_grad)
                ops::scatterAddRows(grad_x, grad_gathered,
                                    b.gather_indices);
        }
        return grad_x;
    }

    std::vector<Parameter *>
    parameters() override
    {
        std::vector<Parameter *> params = aggregator_->parameters();
        for (Parameter *p : update_.parameters())
            params.push_back(p);
        return params;
    }

  private:
    std::size_t in_;
    std::unique_ptr<Aggregator> aggregator_;
    Linear update_;
};

/** Mean over each node and its neighbors, then one update weight. */
class GcnLayer final : public LayerOp
{
  public:
    GcnLayer(const std::string &tag, std::size_t in, std::size_t out,
             util::Rng &rng, AllocationObserver *observer)
        : in_(in), update_(tag + ".update", in, out, rng, observer)
    {
    }

    struct Bucket
    {
        sampling::DegreeBucket bucket;
        /** Per member, self followed by its neighbors ((d+1) rows
         *  each). */
        std::vector<std::uint32_t> gather_indices;
    };
    struct GcnState : State
    {
        std::vector<Bucket> buckets;
        Linear::Cache update;
    };

    Tensor
    forward(const sampling::Block &block, const Tensor &x, bool training,
            std::unique_ptr<State> &state, std::vector<Tensor> &working,
            AllocationObserver *observer) override
    {
        (void)working;
        auto s = std::make_unique<GcnState>();
        Tensor aggregated = Tensor::zeros(block.numDst(), in_, observer);
        for (auto &bucket : sampling::bucketizeBlock(block)) {
            Bucket b;
            b.bucket = bucket;
            const std::size_t n = bucket.members.size();
            const std::size_t width = bucket.degree + 1; // + self
            auto &indices = b.gather_indices;
            indices.reserve(n * width);
            for (sampling::NodeId dst : bucket.members) {
                indices.push_back(dst); // self (dst prefix of srcs)
                for (sampling::NodeId src : block.neighborList(dst))
                    indices.push_back(src);
            }
            // Mean over the (d+1)-row groups, fused: accumulate
            // straight from x via the gather indices — no gathered
            // tensor, same t-ascending per-element order.
            const float norm = 1.0f / static_cast<float>(width);
            kernels::fusedGatherScaledAdd(
                x.data(), indices.data(), bucket.members.data(), n,
                width, in_, norm, aggregated.data());
            if (training)
                s->buckets.push_back(std::move(b));
        }
        Tensor out = update_.forward(aggregated, s->update, observer);
        state = std::move(s);
        return out;
    }

    Tensor
    backward(const State &state, const Tensor &x, const Tensor &grad_out,
             bool input_grad, AllocationObserver *observer) override
    {
        const auto &s = static_cast<const GcnState &>(state);
        Tensor grad_agg =
            update_.backward(s.update, grad_out, input_grad, observer);
        if (!input_grad)
            return {};
        Tensor grad_x = Tensor::zeros(x.rows(), in_, observer);
        for (const Bucket &b : s.buckets) {
            const std::size_t width = b.bucket.degree + 1;
            const float norm = 1.0f / static_cast<float>(width);
            // Distribute each member's gradient over its (d+1)
            // gather targets in place — the fused form of broadcast
            // + scatterAddRows, same input-ascending accumulation.
            kernels::fusedScatterScaledAdd(
                grad_agg.data(), b.bucket.members.data(),
                b.gather_indices.data(), b.bucket.members.size(), width,
                in_, norm, grad_x.data(), grad_x.rows());
        }
        return grad_x;
    }

    std::vector<Parameter *>
    parameters() override
    {
        return update_.parameters();
    }

  private:
    std::size_t in_;
    Linear update_;
};

/** Multi-head attention over each node's neighbors plus itself. */
class GatLayer final : public LayerOp
{
  public:
    GatLayer(const std::string &tag, std::size_t in, std::size_t out,
             int num_heads, util::Rng &rng, AllocationObserver *observer)
        : in_(in), out_(out), hd_(out / num_heads)
    {
        for (int head = 0; head < num_heads; ++head) {
            const std::string name = tag + ".h" + std::to_string(head);
            w_.emplace_back(name + ".w", in, hd_, observer);
            ops::fillXavier(w_.back().value(), rng);
            a_src_.emplace_back(name + ".a_src", 1, hd_, observer);
            ops::fillUniform(a_src_.back().value(), 0.1f, rng);
            a_dst_.emplace_back(name + ".a_dst", 1, hd_, observer);
            ops::fillUniform(a_dst_.back().value(), 0.1f, rng);
        }
    }

    Tensor
    forward(const sampling::Block &block, const Tensor &x, bool training,
            std::unique_ptr<State> &state, std::vector<Tensor> &working,
            AllocationObserver *observer) override
    {
        // hw/buckets/heads are working storage for the layer either
        // way; outside training the driver drops them after the
        // activation.
        (void)training;
        (void)working;
        auto s = std::make_unique<GatLayerState>();
        s->block = &block;
        s->buckets = sampling::bucketizeBlock(block);
        const std::size_t num_heads = w_.size();
        Tensor output = Tensor::zeros(block.numDst(), out_, observer);

        for (std::size_t head = 0; head < num_heads; ++head)
            s->hw.push_back(ops::matmul(x, w_[head].value(), observer));

        s->heads.resize(s->buckets.size());
        for (std::size_t b = 0; b < s->buckets.size(); ++b) {
            const auto &bucket = s->buckets[b];
            const std::size_t n = bucket.members.size();
            const std::size_t d = bucket.degree;
            auto &head_states = s->heads[b];
            head_states.resize(num_heads);

            for (std::size_t head = 0; head < num_heads; ++head) {
                const Tensor &hw = s->hw[head];
                const float *asv = a_src_[head].value().data();
                const float *adv = a_dst_[head].value().data();
                auto &hs = head_states[head];
                hs.pre_lrelu = Tensor::zeros(n, d + 1, observer);
                hs.alpha = Tensor::zeros(n, d + 1, observer);

                for (std::size_t i = 0; i < n; ++i) {
                    const sampling::NodeId v = bucket.members[i];
                    auto nbrs = block.neighborList(v);
                    // Participant t: self at t = d, neighbors at 0..d-1.
                    float dst_score = 0.0f;
                    const float *hv = hw.data() + v * hd_;
                    for (std::size_t j = 0; j < hd_; ++j)
                        dst_score += adv[j] * hv[j];

                    float *pre = hs.pre_lrelu.data() + i * (d + 1);
                    for (std::size_t t = 0; t <= d; ++t) {
                        const sampling::NodeId u = t < d ? nbrs[t] : v;
                        const float *hu = hw.data() + u * hd_;
                        float src_score = 0.0f;
                        for (std::size_t j = 0; j < hd_; ++j)
                            src_score += asv[j] * hu[j];
                        pre[t] = dst_score + src_score;
                    }
                    // LeakyReLU + softmax over the d+1 participants.
                    float *alpha = hs.alpha.data() + i * (d + 1);
                    float row_max = -std::numeric_limits<float>::infinity();
                    for (std::size_t t = 0; t <= d; ++t) {
                        const float e =
                            pre[t] > 0 ? pre[t] : kLeakySlope * pre[t];
                        alpha[t] = e;
                        row_max = std::max(row_max, e);
                    }
                    float z = 0.0f;
                    for (std::size_t t = 0; t <= d; ++t) {
                        alpha[t] = tensor::math::exp(alpha[t] - row_max);
                        z += alpha[t];
                    }
                    for (std::size_t t = 0; t <= d; ++t)
                        alpha[t] /= z;

                    // Weighted sum into the head's column slice.
                    float *dst = output.data() + v * out_ + head * hd_;
                    for (std::size_t t = 0; t <= d; ++t) {
                        const sampling::NodeId u = t < d ? nbrs[t] : v;
                        const float *hu = hw.data() + u * hd_;
                        for (std::size_t j = 0; j < hd_; ++j)
                            dst[j] += alpha[t] * hu[j];
                    }
                }
            }
        }
        state = std::move(s);
        return output;
    }

    Tensor
    backward(const State &state, const Tensor &x, const Tensor &grad_out,
             bool input_grad, AllocationObserver *observer) override
    {
        const auto &s = static_cast<const GatLayerState &>(state);
        const std::size_t num_src = x.rows();
        // Accumulate per-head dHW, then push through W to dX. The
        // attention and W gradients need dHW either way.
        Tensor grad_x;
        if (input_grad)
            grad_x = Tensor::zeros(num_src, in_, observer);
        for (std::size_t head = 0; head < w_.size(); ++head) {
            const Tensor &hw = s.hw[head];
            Tensor dhw = Tensor::zeros(num_src, hd_, observer);
            float *das = a_src_[head].grad().data();
            float *dad = a_dst_[head].grad().data();
            const float *asv = a_src_[head].value().data();
            const float *adv = a_dst_[head].value().data();

            for (std::size_t b = 0; b < s.buckets.size(); ++b) {
                const auto &bucket = s.buckets[b];
                const auto &hs = s.heads[b][head];
                const std::size_t n = bucket.members.size();
                const std::size_t d = bucket.degree;

                for (std::size_t i = 0; i < n; ++i) {
                    const sampling::NodeId v = bucket.members[i];
                    auto nbrs = s.block->neighborList(v);
                    const float *gout =
                        grad_out.data() + v * out_ + head * hd_;
                    const float *alpha = hs.alpha.data() + i * (d + 1);
                    const float *pre = hs.pre_lrelu.data() + i * (d + 1);

                    // dalpha_t = gout . hw_u ; dhw_u += alpha_t * gout
                    std::vector<float> dalpha(d + 1, 0.0f);
                    for (std::size_t t = 0; t <= d; ++t) {
                        const sampling::NodeId u = t < d ? nbrs[t] : v;
                        const float *hu = hw.data() + u * hd_;
                        float *du = dhw.data() + u * hd_;
                        float dot = 0.0f;
                        for (std::size_t j = 0; j < hd_; ++j) {
                            dot += gout[j] * hu[j];
                            du[j] += alpha[t] * gout[j];
                        }
                        dalpha[t] = dot;
                    }
                    // Softmax backward.
                    float inner = 0.0f;
                    for (std::size_t t = 0; t <= d; ++t)
                        inner += alpha[t] * dalpha[t];
                    for (std::size_t t = 0; t <= d; ++t) {
                        float de = alpha[t] * (dalpha[t] - inner);
                        // LeakyReLU backward.
                        if (pre[t] <= 0.0f)
                            de *= kLeakySlope;
                        // e = a_dst.hw_v + a_src.hw_u
                        const sampling::NodeId u = t < d ? nbrs[t] : v;
                        const float *hv = hw.data() + v * hd_;
                        const float *hu = hw.data() + u * hd_;
                        float *dv = dhw.data() + v * hd_;
                        float *du = dhw.data() + u * hd_;
                        for (std::size_t j = 0; j < hd_; ++j) {
                            dad[j] += de * hv[j];
                            dv[j] += de * adv[j];
                            das[j] += de * hu[j];
                            du[j] += de * asv[j];
                        }
                    }
                }
            }
            // dW += X^T dHW ; dX += dHW W^T.
            w_[head].accumulateGrad(
                ops::matmulTransposeA(x, dhw, observer));
            if (input_grad)
                ops::addInPlace(grad_x,
                                ops::matmulTransposeB(
                                    dhw, w_[head].value(), observer));
        }
        return grad_x;
    }

    std::vector<Parameter *>
    parameters() override
    {
        std::vector<Parameter *> params;
        for (std::size_t head = 0; head < w_.size(); ++head) {
            params.push_back(&w_[head]);
            params.push_back(&a_src_[head]);
            params.push_back(&a_dst_[head]);
        }
        return params;
    }

  private:
    static constexpr float kLeakySlope = 0.2f;

    std::size_t in_, out_;
    std::size_t hd_; ///< width of one head's output
    /** Per head: weight in x head_dim, attention vectors 1 x head_dim. */
    std::vector<Parameter> w_, a_src_, a_dst_;
};

} // namespace

std::unique_ptr<LayerOp>
makeLayerOp(const ModelConfig &config, int layer, util::Rng &rng,
            AllocationObserver *observer)
{
    const std::size_t in = config.layerInDim(layer);
    const std::size_t out = config.layerOutDim(layer);
    std::string tag = modelArchName(config.arch);
    tag += '.';
    tag += std::to_string(layer);
    switch (config.arch) {
      case ModelArch::Sage:
        return std::make_unique<SageLayer>(tag, in, out,
                                           config.aggregator, rng,
                                           observer);
      case ModelArch::Gcn:
        return std::make_unique<GcnLayer>(tag, in, out, rng, observer);
      case ModelArch::Gat:
        checkArgument(config.hidden_dim % config.num_heads == 0,
                      "GAT: hidden_dim must divide num_heads");
        checkArgument(config.num_classes % config.num_heads == 0 ||
                          config.num_heads == 1,
                      "GAT: num_classes must divide num_heads");
        return std::make_unique<GatLayer>(tag, in, out, config.num_heads,
                                          rng, observer);
    }
    throw InvalidArgument("makeLayerOp: unknown model architecture");
}

} // namespace buffalo::nn
