/**
 * @file
 * Per-architecture message-passing layers (paper Algorithm 1 lines
 * 4-8: Bucketing -> per-bucket Aggregate + Update). nn::GnnModel runs a
 * stack of them and owns everything around a layer: input checks, the
 * input stash, ReLU between layers and the reverse loop.
 *
 *  - SAGE: h_dst = [x_dst || AGG(x_neighbors)] W + b, with AGG one of
 *    the bucketed aggregators of nn/aggregators.h.
 *  - GCN: h_v = W . mean(h_u : u in N(v) U {v}) + b; the mean over the
 *    node and its sampled neighbors approximates the normalized
 *    adjacency.
 *  - GAT: per head, e_vu = LeakyReLU(a_dst . Wh_v + a_src . Wh_u) over
 *    the sampled neighbors u of v plus v itself, softmax over that set,
 *    output = attention-weighted sum of Wh_u; heads are concatenated.
 *
 * Degree bucketing keeps every per-bucket kernel dense: n nodes of one
 * sampled degree d, no padding.
 */
#pragma once

#include <memory>
#include <vector>

#include "nn/config.h"
#include "nn/parameter.h"
#include "sampling/block.h"
#include "sampling/bucketing.h"
#include "util/rng.h"

namespace buffalo::nn {

/** One layer of an architecture: forward and backward over a block. */
class LayerOp : public Module
{
  public:
    /** What backward() needs from one forward(); concrete per op. */
    struct State
    {
        virtual ~State() = default;
    };

    /**
     * Runs the layer over @p block from its input @p x (numSrc x in)
     * and returns the pre-activation output (numDst x out).
     * @param training Keep per-bucket state for backward(); without it
     *        the op drops each bucket's state as soon as it is done.
     * @param state Receives what backward() needs.
     * @param working Receives tensors that must stay allocated until
     *        the driver has applied the activation (see DESIGN.md,
     *        "Model layer": the live set at every allocation is part of
     *        the contract).
     */
    virtual Tensor forward(const sampling::Block &block, const Tensor &x,
                           bool training, std::unique_ptr<State> &state,
                           std::vector<Tensor> &working,
                           AllocationObserver *observer) = 0;

    /**
     * Accumulates parameter gradients for the forward that left
     * @p state over input @p x; returns the gradient w.r.t. @p x, or,
     * when @p input_grad is false, an empty tensor, skipping every
     * allocation and kernel that only feeds it. The parameter
     * gradients are bitwise the same either way.
     */
    virtual Tensor backward(const State &state, const Tensor &x,
                            const Tensor &grad_out, bool input_grad,
                            AllocationObserver *observer) = 0;
};

/** A GAT layer's forward state (public so tests can read attention). */
struct GatLayerState : LayerOp::State
{
    struct HeadBucket
    {
        Tensor alpha;     ///< n x (d+1) attention weights
        Tensor pre_lrelu; ///< n x (d+1) scores before LeakyReLU
    };
    /** The block the layer ran over (owned by the caller's MicroBatch,
     *  which must outlive the state). */
    const sampling::Block *block = nullptr;
    sampling::BucketList buckets;
    std::vector<Tensor> hw; ///< per head: numSrc x head_dim
    /** [bucket][head]. */
    std::vector<std::vector<HeadBucket>> heads;
};

/**
 * Builds layer @p layer of @p config.arch. Weights are drawn from
 * @p rng and allocated under @p observer.
 */
std::unique_ptr<LayerOp> makeLayerOp(const ModelConfig &config,
                                     int layer, util::Rng &rng,
                                     AllocationObserver *observer);

} // namespace buffalo::nn
