#include "nn/aggregators.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/errors.h"

namespace buffalo::nn {

namespace ops = buffalo::tensor;
namespace kernels = buffalo::tensor::kernels;

namespace {

void
checkBucketShape(const Tensor &neighbor_feats, std::size_t n,
                 std::size_t d, std::size_t dim)
{
    checkArgument(d >= 1, "Aggregator: bucket degree must be >= 1");
    checkArgument(neighbor_feats.rows() == n * d &&
                      neighbor_feats.cols() == dim,
                  "Aggregator: neighbor features must be (n*d) x dim");
}

/** Mean (and sqrt-normalized GCN-style) aggregation. */
class MeanAggregator : public Aggregator
{
  public:
    MeanAggregator(std::size_t dim, bool sqrt_norm)
        : dim_(dim), sqrt_norm_(sqrt_norm) {}

    struct Cache : AggregatorCache
    {
        std::size_t n = 0, d = 0;
        float norm = 1.0f;
        std::uint64_t bytes() const override { return 0; }
    };

    std::size_t dim() const override { return dim_; }

    Tensor
    forward(const Tensor &neighbor_feats, std::size_t n, std::size_t d,
            std::unique_ptr<AggregatorCache> &cache,
            AllocationObserver *observer) override
    {
        checkBucketShape(neighbor_feats, n, d, dim_);
        auto c = std::make_unique<Cache>();
        c->n = n;
        c->d = d;
        c->norm = sqrt_norm_
                      ? 1.0f / std::sqrt(static_cast<float>(d))
                      : 1.0f / static_cast<float>(d);
        Tensor out = Tensor::uninitialized(n, dim_, observer);
        kernels::OpTimer timer(kernels::OpClass::Aggregate,
                               neighbor_feats.bytes() + out.bytes());
        const float *feats = neighbor_feats.data();
        float *po = out.data();
        const float norm = c->norm;
        const std::size_t dim = dim_;
        // Node v owns output row v; the t-ascending accumulation is
        // the serial order for any node partition.
        kernels::parallelRows(
            n, n * d * dim, [&](std::size_t v0, std::size_t v1) {
                for (std::size_t v = v0; v < v1; ++v) {
                    float *dst = po + v * dim;
                    std::fill(dst, dst + dim, 0.0f);
                    for (std::size_t t = 0; t < d; ++t) {
                        const float *src = feats + (v * d + t) * dim;
                        for (std::size_t j = 0; j < dim; ++j)
                            dst[j] += src[j];
                    }
                    for (std::size_t j = 0; j < dim; ++j)
                        dst[j] *= norm;
                }
            });
        cache = std::move(c);
        return out;
    }

    Tensor
    backward(const AggregatorCache &cache_base, const Tensor &grad_output,
             bool input_grad, AllocationObserver *observer) override
    {
        if (!input_grad)
            return {}; // no parameters, so nothing to accumulate
        const auto &cache = static_cast<const Cache &>(cache_base);
        Tensor grad_in =
            Tensor::uninitialized(cache.n * cache.d, dim_, observer);
        kernels::OpTimer timer(kernels::OpClass::Aggregate,
                               grad_output.bytes() + grad_in.bytes());
        const float *pg = grad_output.data();
        float *pi = grad_in.data();
        const float norm = cache.norm;
        const std::size_t d = cache.d, dim = dim_;
        kernels::parallelRows(
            cache.n, cache.n * d * dim,
            [&](std::size_t v0, std::size_t v1) {
                for (std::size_t v = v0; v < v1; ++v) {
                    const float *src = pg + v * dim;
                    for (std::size_t t = 0; t < d; ++t) {
                        float *dst = pi + (v * d + t) * dim;
                        for (std::size_t j = 0; j < dim; ++j)
                            dst[j] = src[j] * norm;
                    }
                }
            });
        return grad_in;
    }

    bool
    forwardFused(const Tensor &x, const std::uint32_t *gather,
                 const std::uint32_t *out_rows, std::size_t n,
                 std::size_t d,
                 std::unique_ptr<AggregatorCache> &cache, float *out,
                 AllocationObserver *observer) override
    {
        (void)observer;
        checkArgument(x.cols() == dim_,
                      "MeanAggregator: input width != dim");
        checkArgument(d >= 1,
                      "MeanAggregator: bucket degree must be >= 1");
        auto c = std::make_unique<Cache>();
        c->n = n;
        c->d = d;
        c->norm = sqrt_norm_
                      ? 1.0f / std::sqrt(static_cast<float>(d))
                      : 1.0f / static_cast<float>(d);
        kernels::fusedGatherSumScale(x.data(), gather, out_rows, n, d,
                                     dim_, c->norm, out);
        cache = std::move(c);
        return true;
    }

    bool
    backwardFused(const AggregatorCache &cache_base,
                  const Tensor &grad_out, const std::uint32_t *out_rows,
                  const std::uint32_t *gather, float *grad_x,
                  std::size_t grad_x_rows,
                  AllocationObserver *observer) override
    {
        (void)observer;
        const auto &cache = static_cast<const Cache &>(cache_base);
        kernels::fusedScatterScaledAdd(grad_out.data(), out_rows,
                                       gather, cache.n, cache.d, dim_,
                                       cache.norm, grad_x, grad_x_rows);
        return true;
    }

    AggregatorKind
    kind() const override
    {
        return sqrt_norm_ ? AggregatorKind::Gcn : AggregatorKind::Mean;
    }

    std::vector<Parameter *> parameters() override { return {}; }

  private:
    std::size_t dim_;
    bool sqrt_norm_;
};

/** Max-pool over per-neighbor Linear + ReLU (GraphSAGE-pool). */
class PoolAggregator : public Aggregator
{
  public:
    PoolAggregator(const std::string &name, std::size_t dim,
                   util::Rng &rng, AllocationObserver *observer)
        : dim_(dim), linear_(name + ".pool", dim, dim, rng, observer) {}

    struct Cache : AggregatorCache
    {
        std::size_t n = 0, d = 0;
        Linear::Cache linear_cache;
        Tensor pre_activation; ///< (n*d) x dim, pre-ReLU
        Tensor activated;      ///< (n*d) x dim, post-ReLU
        std::vector<std::uint32_t> argmax; ///< n*dim winning row ids

        std::uint64_t
        bytes() const override
        {
            return pre_activation.bytes() + activated.bytes() +
                   argmax.size() * sizeof(std::uint32_t);
        }
    };

    std::size_t dim() const override { return dim_; }

    Tensor
    forward(const Tensor &neighbor_feats, std::size_t n, std::size_t d,
            std::unique_ptr<AggregatorCache> &cache,
            AllocationObserver *observer) override
    {
        checkBucketShape(neighbor_feats, n, d, dim_);
        auto c = std::make_unique<Cache>();
        c->n = n;
        c->d = d;
        c->pre_activation =
            linear_.forward(neighbor_feats, c->linear_cache, observer);
        c->activated = ops::relu(c->pre_activation, observer);
        c->argmax.assign(n * dim_, 0);

        Tensor out = Tensor::uninitialized(n, dim_, observer);
        kernels::OpTimer timer(kernels::OpClass::Aggregate,
                               c->activated.bytes() + out.bytes());
        const float *act = c->activated.data();
        float *po = out.data();
        std::uint32_t *argmax = c->argmax.data();
        const std::size_t dim = dim_;
        // Node v owns out row v and argmax[v*dim .. ); the max scan is
        // t-ascending per element, so ties resolve like the serial loop.
        kernels::parallelRows(
            n, n * d * dim, [&](std::size_t v0, std::size_t v1) {
                for (std::size_t v = v0; v < v1; ++v) {
                    float *dst = po + v * dim;
                    std::fill(
                        dst, dst + dim,
                        -std::numeric_limits<float>::infinity());
                    for (std::size_t t = 0; t < d; ++t) {
                        const std::size_t row = v * d + t;
                        const float *src = act + row * dim;
                        for (std::size_t j = 0; j < dim; ++j) {
                            if (src[j] > dst[j]) {
                                dst[j] = src[j];
                                argmax[v * dim + j] =
                                    static_cast<std::uint32_t>(row);
                            }
                        }
                    }
                }
            });
        cache = std::move(c);
        return out;
    }

    Tensor
    backward(const AggregatorCache &cache_base, const Tensor &grad_output,
             bool input_grad, AllocationObserver *observer) override
    {
        const auto &cache = static_cast<const Cache &>(cache_base);
        Tensor grad_act =
            Tensor::zeros(cache.n * cache.d, dim_, observer);
        {
            kernels::OpTimer timer(kernels::OpClass::Aggregate,
                                   grad_output.bytes() +
                                       grad_act.bytes());
            const float *pg = grad_output.data();
            float *pa = grad_act.data();
            const std::uint32_t *argmax = cache.argmax.data();
            const std::size_t dim = dim_;
            // argmax rows for node v lie inside v's own block
            // [v*d, (v+1)*d), so a node partition owns disjoint
            // grad_act rows.
            kernels::parallelRows(
                cache.n, cache.n * dim,
                [&](std::size_t v0, std::size_t v1) {
                    for (std::size_t v = v0; v < v1; ++v) {
                        const float *src = pg + v * dim;
                        for (std::size_t j = 0; j < dim; ++j) {
                            const std::uint32_t row =
                                argmax[v * dim + j];
                            pa[row * dim + j] += src[j];
                        }
                    }
                });
        }
        Tensor grad_pre =
            ops::reluBackward(grad_act, cache.pre_activation, observer);
        return linear_.backward(cache.linear_cache, grad_pre,
                                input_grad, observer);
    }

    AggregatorKind kind() const override { return AggregatorKind::Pool; }

    std::vector<Parameter *>
    parameters() override
    {
        return linear_.parameters();
    }

  private:
    std::size_t dim_;
    Linear linear_;
};

/** LSTM over the neighbor sequence (GraphSAGE-LSTM). */
class LstmAggregator : public Aggregator
{
  public:
    LstmAggregator(const std::string &name, std::size_t dim,
                   util::Rng &rng, AllocationObserver *observer)
        : dim_(dim), cell_(name + ".lstm", dim, dim, rng, observer) {}

    struct Cache : AggregatorCache
    {
        std::size_t n = 0, d = 0;
        std::vector<LstmCell::StepCache> steps;

        std::uint64_t
        bytes() const override
        {
            std::uint64_t total = 0;
            for (const auto &step : steps)
                total += step.bytes();
            return total;
        }
    };

    std::size_t dim() const override { return dim_; }

    Tensor
    forward(const Tensor &neighbor_feats, std::size_t n, std::size_t d,
            std::unique_ptr<AggregatorCache> &cache,
            AllocationObserver *observer) override
    {
        checkBucketShape(neighbor_feats, n, d, dim_);
        auto c = std::make_unique<Cache>();
        c->n = n;
        c->d = d;
        c->steps.resize(d);

        Tensor h = Tensor::zeros(n, dim_, observer);
        Tensor state = Tensor::zeros(n, dim_, observer);
        const float *feats = neighbor_feats.data();
        const std::size_t dim = dim_;
        for (std::size_t t = 0; t < d; ++t) {
            // x_t: row v*d + t of the node-major layout, for each v.
            Tensor x_t = Tensor::uninitialized(n, dim_, observer);
            {
                float *px = x_t.data();
                kernels::OpTimer timer(kernels::OpClass::Aggregate,
                                       2 * x_t.bytes());
                kernels::parallelRows(
                    n, n * dim, [&](std::size_t v0, std::size_t v1) {
                        for (std::size_t v = v0; v < v1; ++v) {
                            const float *src =
                                feats + (v * d + t) * dim;
                            std::copy(src, src + dim, px + v * dim);
                        }
                    });
            }
            auto [h_next, c_next] =
                cell_.step(x_t, h, state, c->steps[t], observer);
            h = std::move(h_next);
            state = std::move(c_next);
        }
        cache = std::move(c);
        return h;
    }

    Tensor
    backward(const AggregatorCache &cache_base, const Tensor &grad_output,
             bool input_grad, AllocationObserver *observer) override
    {
        const auto &cache = static_cast<const Cache &>(cache_base);
        // Every row (v*d + t) is overwritten exactly once across the
        // step loop below, so the buffer can start uninitialized.
        Tensor grad_in;
        if (input_grad)
            grad_in = Tensor::uninitialized(cache.n * cache.d, dim_,
                                            observer);
        Tensor dh = grad_output.clone(observer);
        Tensor dc =
            Tensor::zeros(grad_output.rows(), dim_, observer);
        const std::size_t d = cache.d, dim = dim_;
        float *pi = grad_in.data();
        for (std::size_t t = cache.d; t-- > 0;) {
            // h_0 and c_0 are constants: step 0 has no dh_prev to pass
            // down.
            auto grads = cell_.stepBackward(cache.steps[t], dh, dc,
                                            input_grad, t > 0, observer);
            dh = std::move(grads.dh_prev);
            dc = std::move(grads.dc_prev);
            if (!input_grad)
                continue;
            const float *px = grads.dx.data();
            kernels::OpTimer timer(kernels::OpClass::Aggregate,
                                   2 * grads.dx.bytes());
            kernels::parallelRows(
                cache.n, cache.n * dim,
                [&](std::size_t v0, std::size_t v1) {
                    for (std::size_t v = v0; v < v1; ++v) {
                        const float *src = px + v * dim;
                        std::copy(src, src + dim,
                                  pi + (v * d + t) * dim);
                    }
                });
        }
        return grad_in;
    }

    AggregatorKind kind() const override { return AggregatorKind::Lstm; }

    std::vector<Parameter *>
    parameters() override
    {
        return cell_.parameters();
    }

  private:
    std::size_t dim_;
    LstmCell cell_;
};

} // namespace

const char *
modelArchName(ModelArch arch)
{
    switch (arch) {
      case ModelArch::Sage: return "sage";
      case ModelArch::Gcn: return "gcn";
      case ModelArch::Gat: return "gat";
    }
    return "?";
}

ModelArch
modelArchFromName(const std::string &name)
{
    for (ModelArch arch : {ModelArch::Sage, ModelArch::Gcn, ModelArch::Gat})
        if (name == modelArchName(arch))
            return arch;
    throw InvalidArgument("modelArchFromName: unknown model '" + name +
                          "'");
}

const char *
aggregatorName(AggregatorKind kind)
{
    switch (kind) {
      case AggregatorKind::Mean: return "mean";
      case AggregatorKind::Pool: return "pool";
      case AggregatorKind::Lstm: return "lstm";
      case AggregatorKind::Gcn: return "gcn";
    }
    return "?";
}

AggregatorKind
aggregatorFromName(const std::string &name)
{
    if (name == "mean")
        return AggregatorKind::Mean;
    if (name == "pool")
        return AggregatorKind::Pool;
    if (name == "lstm")
        return AggregatorKind::Lstm;
    if (name == "gcn")
        return AggregatorKind::Gcn;
    throw InvalidArgument("aggregatorFromName: unknown aggregator '" +
                          name + "'");
}

std::unique_ptr<Aggregator>
makeAggregator(AggregatorKind kind, const std::string &name,
               std::size_t dim, util::Rng &rng,
               AllocationObserver *observer)
{
    switch (kind) {
      case AggregatorKind::Mean:
        return std::make_unique<MeanAggregator>(dim, false);
      case AggregatorKind::Gcn:
        return std::make_unique<MeanAggregator>(dim, true);
      case AggregatorKind::Pool:
        return std::make_unique<PoolAggregator>(name, dim, rng,
                                                observer);
      case AggregatorKind::Lstm:
        return std::make_unique<LstmAggregator>(name, dim, rng,
                                                observer);
    }
    throw InvalidArgument("makeAggregator: unknown aggregator kind");
}

bool
aggregatorHasWeights(AggregatorKind kind)
{
    return kind == AggregatorKind::Pool || kind == AggregatorKind::Lstm;
}

double
aggregatorCacheFloatsPerEdge(AggregatorKind kind, std::size_t dim,
                             bool input_grad)
{
    const double f = static_cast<double>(dim);
    switch (kind) {
      case AggregatorKind::Mean:
      case AggregatorKind::Gcn:
        // The fused gather→sum→scale forward reads the layer input in
        // place and the fused backward scatter accumulates in place
        // (kernels::fusedGatherSumScale / fusedScatterScaledAdd), so
        // no per-edge feature transient exists any more; the only
        // per-edge state is the cached gather index (one uint32 =
        // one float-equivalent).
        return 1.0;
      case AggregatorKind::Pool:
        // gathered feats (transient) + pre-activation +
        // post-activation (cached) + backward transients (activation
        // gradient, pre-activation gradient, and the linear's input
        // gradient when the layer passes one down).
        return (input_grad ? 5.0 : 4.0) * f;
      case AggregatorKind::Lstm:
        // gathered feats + what each step allocates: x, 4 gates, c,
        // tanh_c and h (h_prev and c_prev alias the step before) -> 9
        // tensors of width f per edge, plus the gathered input
        // gradient when the layer passes one down.
        return (input_grad ? 10.0 : 9.0) * f;
    }
    return f;
}

} // namespace buffalo::nn
