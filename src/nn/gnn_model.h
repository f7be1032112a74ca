/**
 * @file
 * The GNN model: a stack of per-architecture layer ops (nn/layer_ops.h)
 * under one driver that runs the paper's per-layer loop (Algorithm 1
 * lines 4-8) for every architecture, with ReLU between layers and raw
 * logits at the output.
 */
#pragma once

#include <memory>
#include <vector>

#include "nn/config.h"
#include "nn/layer_ops.h"
#include "nn/memory_model.h"
#include "sampling/block.h"

namespace buffalo::nn {

/** Multi-layer GNN of ModelConfig::arch over micro-batch blocks. */
class GnnModel : public Module
{
  public:
    /**
     * Builds the layers of @p config.arch. Weights are initialized
     * deterministically from @p seed and allocated under
     * @p param_observer.
     */
    GnnModel(const ModelConfig &config, std::uint64_t seed,
             AllocationObserver *param_observer = nullptr);

    /**
     * Forward pass over @p mb with raw input features
     * @p input_features (mb.inputNodes().size() x feature_dim). The
     * activation cache is held until the matching backward() (one in
     * flight at a time).
     * @return logits, numOutput x num_classes.
     */
    Tensor forward(const sampling::MicroBatch &mb,
                   const Tensor &input_features,
                   AllocationObserver *observer = nullptr);

    /**
     * Inference-mode forward: identical arithmetic (and therefore
     * bitwise-identical logits) to forward(), but no activation state
     * is kept, so peak memory is bounded by one layer's working set.
     * Leaves the cache of an earlier forward() untouched.
     */
    Tensor forwardInference(const sampling::MicroBatch &mb,
                            const Tensor &input_features,
                            AllocationObserver *observer = nullptr);

    /**
     * Backward for the last forward(): accumulates parameter gradients
     * and releases the cache. The gradient w.r.t. the raw inputs is
     * not computed (features are not trained), so layer 0 runs none
     * of the kernels or allocations that would only feed it.
     * @throws InvalidArgument when no forward() is waiting for it.
     */
    void backward(const Tensor &grad_logits,
                  AllocationObserver *observer = nullptr);

    /** Drops any held activation cache without a backward pass. */
    void clearCache() { cache_.clear(); }

    /** The op state the last forward() left at @p layer. */
    const LayerOp::State &layerState(int layer) const;

    /** The parameter owner (for zeroGrad / optimizers). */
    Module &module() { return *this; }

    const ModelConfig &config() const { return config_; }

    /** Shared analytic cost model for this configuration. */
    const MemoryModel &memoryModel() const { return memory_model_; }

    std::vector<Parameter *> parameters() override;

  private:
    /** Activation state one layer keeps from forward to backward. */
    struct LayerCache
    {
        Tensor input;          ///< numSrc x in_dim
        Tensor pre_activation; ///< numDst x out_dim (hidden layers)
        std::unique_ptr<LayerOp::State> op;
    };

    /** Shared body of forward()/forwardInference(). */
    Tensor run(const sampling::MicroBatch &mb,
               const Tensor &input_features, bool training,
               AllocationObserver *observer);

    ModelConfig config_;
    MemoryModel memory_model_;
    std::vector<std::unique_ptr<LayerOp>> layers_;
    std::vector<LayerCache> cache_;
};

} // namespace buffalo::nn
