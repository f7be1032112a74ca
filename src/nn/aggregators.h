/**
 * @file
 * Degree-bucketed neighborhood aggregators.
 *
 * An aggregator consumes the gathered neighbor features of one degree
 * bucket — n nodes of identical sampled degree d, laid out as an
 * (n*d) x in_dim tensor with each node's d neighbor rows consecutive —
 * and produces one n x in_dim embedding. Fixed d per call is exactly
 * what degree bucketing buys: no zero padding, dense kernels.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "nn/config.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/parameter.h"

namespace buffalo::nn {

/** Opaque per-call activation cache (concrete type per aggregator). */
struct AggregatorCache
{
    virtual ~AggregatorCache() = default;

    /** Activation bytes this cache pins until backward. */
    virtual std::uint64_t bytes() const = 0;
};

/** Strategy interface; one instance per GNN layer. */
class Aggregator : public Module
{
  public:
    /** Input (and output) feature width. */
    virtual std::size_t dim() const = 0;

    /**
     * Aggregates one degree bucket.
     * @param neighbor_feats (n*d) x dim(), node-major.
     * @param n number of nodes in the bucket.
     * @param d the bucket degree (>= 1).
     * @return n x dim() aggregated embeddings; @p cache receives the
     *         state backward() needs.
     */
    virtual Tensor forward(const Tensor &neighbor_feats, std::size_t n,
                           std::size_t d,
                           std::unique_ptr<AggregatorCache> &cache,
                           AllocationObserver *observer = nullptr) = 0;

    /**
     * Backward for one bucket: accumulates parameter grads and returns
     * the gradient w.r.t. neighbor_feats ((n*d) x dim()), or an empty
     * tensor without computing it when @p input_grad is false.
     */
    virtual Tensor backward(const AggregatorCache &cache,
                            const Tensor &grad_output, bool input_grad,
                            AllocationObserver *observer = nullptr) = 0;

    /**
     * Fused forward: aggregate straight out of the layer input @p x
     * (num_src x dim()) via @p gather (n*d source-row ids, node-major)
     * and write node v's embedding to row out_rows[v] of @p out
     * (pre-zeroed, num_dst x dim()), skipping the materialized
     * gatherRows round-trip. Returns false when the aggregator has no
     * fused path (caller falls back to gather + forward) and true on
     * success, with @p cache filled exactly as forward() would.
     * Fused and unfused paths are bitwise identical.
     */
    virtual bool
    forwardFused(const Tensor &x, const std::uint32_t *gather,
                 const std::uint32_t *out_rows, std::size_t n,
                 std::size_t d, std::unique_ptr<AggregatorCache> &cache,
                 float *out, AllocationObserver *observer = nullptr)
    {
        (void)x;
        (void)gather;
        (void)out_rows;
        (void)n;
        (void)d;
        (void)cache;
        (void)out;
        (void)observer;
        return false;
    }

    /**
     * Fused backward: scatter-accumulate this bucket's input gradient
     * into @p grad_x (num_src x dim()) directly — reading node v's
     * output gradient from row out_rows[v] of @p grad_out and
     * distributing over its gather targets — instead of materializing
     * the (n*d) x dim() gradient and scatterAddRows'ing it. Returns
     * false when unfused (caller falls back); bitwise identical to
     * the unfused path, at any thread count.
     */
    virtual bool
    backwardFused(const AggregatorCache &cache, const Tensor &grad_out,
                  const std::uint32_t *out_rows,
                  const std::uint32_t *gather, float *grad_x,
                  std::size_t grad_x_rows,
                  AllocationObserver *observer = nullptr)
    {
        (void)cache;
        (void)grad_out;
        (void)out_rows;
        (void)gather;
        (void)grad_x;
        (void)grad_x_rows;
        (void)observer;
        return false;
    }

    /** The aggregator family. */
    virtual AggregatorKind kind() const = 0;
};

/**
 * Creates an aggregator of @p kind over @p dim features. LSTM state and
 * pool width equal @p dim (matching DGL's SAGEConv conventions).
 */
std::unique_ptr<Aggregator> makeAggregator(
    AggregatorKind kind, const std::string &name, std::size_t dim,
    util::Rng &rng, AllocationObserver *observer = nullptr);

/**
 * Whether an aggregator of @p kind has weights (pool, lstm): its
 * backward then reads the update's input gradient even at a layer that
 * passes none down.
 */
bool aggregatorHasWeights(AggregatorKind kind);

/**
 * Activation floats per message edge of an aggregator of @p kind over
 * @p dim features: its forward cache plus its backward transients,
 * including the per-edge input gradient only when @p input_grad. The
 * shared constant behind both the device-side memory charging and
 * Buffalo's BucketMemEstimator (see nn/memory_model.h).
 */
double aggregatorCacheFloatsPerEdge(AggregatorKind kind,
                                    std::size_t dim, bool input_grad);

} // namespace buffalo::nn
