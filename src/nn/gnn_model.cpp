#include "nn/gnn_model.h"

#include "tensor/ops.h"
#include "util/errors.h"

namespace buffalo::nn {

namespace ops = buffalo::tensor;

GnnModel::GnnModel(const ModelConfig &config, std::uint64_t seed,
                   AllocationObserver *param_observer)
    : config_(config), memory_model_(config_)
{
    config_.validate();
    util::Rng rng(seed);
    for (int layer = 0; layer < config_.num_layers; ++layer)
        layers_.push_back(
            makeLayerOp(config_, layer, rng, param_observer));
}

Tensor
GnnModel::forward(const sampling::MicroBatch &mb,
                  const Tensor &input_features,
                  AllocationObserver *observer)
{
    return run(mb, input_features, true, observer);
}

Tensor
GnnModel::forwardInference(const sampling::MicroBatch &mb,
                           const Tensor &input_features,
                           AllocationObserver *observer)
{
    return run(mb, input_features, false, observer);
}

Tensor
GnnModel::run(const sampling::MicroBatch &mb,
              const Tensor &input_features, bool training,
              AllocationObserver *observer)
{
    checkArgument(mb.numLayers() == config_.num_layers,
                  "GnnModel::forward: block count != num_layers");
    checkArgument(input_features.rows() == mb.inputNodes().size() &&
                      input_features.cols() ==
                          static_cast<std::size_t>(config_.feature_dim),
                  "GnnModel::forward: bad input feature shape");
    if (training) {
        cache_.clear();
        cache_.resize(config_.num_layers);
    }

    Tensor x = input_features;
    for (int layer = 0; layer < config_.num_layers; ++layer) {
        const sampling::Block &block = mb.blocks[layer];
        checkArgument(x.rows() == block.numSrc(),
                      "GnnModel::forward: feature/block row mismatch");
        // Outside training the layer's state lives in `scratch` and,
        // like `working`, is released only after the activation.
        LayerCache scratch;
        LayerCache &state = training ? cache_[layer] : scratch;
        if (training)
            state.input = x;
        std::vector<Tensor> working;
        Tensor out = layers_[layer]->forward(block, x, training, state.op,
                                             working, observer);
        if (layer + 1 < config_.num_layers) {
            if (training)
                state.pre_activation = out;
            x = ops::relu(out, observer);
        } else {
            x = out;
        }
    }
    return x;
}

void
GnnModel::backward(const Tensor &grad_logits, AllocationObserver *observer)
{
    checkArgument(cache_.size() ==
                      static_cast<std::size_t>(config_.num_layers),
                  "GnnModel::backward: no forward() to match (stale "
                  "cache)");
    Tensor grad = grad_logits;
    for (int layer = config_.num_layers - 1; layer >= 0; --layer) {
        const LayerCache &state = cache_[layer];
        if (layer + 1 < config_.num_layers)
            grad = ops::reluBackward(grad, state.pre_activation,
                                     observer);
        // The raw input features are not trained: layer 0 computes
        // no input gradient.
        grad = layers_[layer]->backward(*state.op, state.input, grad,
                                        layer > 0, observer);
    }
    clearCache();
}

const LayerOp::State &
GnnModel::layerState(int layer) const
{
    checkArgument(static_cast<std::size_t>(layer) < cache_.size(),
                  "GnnModel::layerState: no forward() state");
    return *cache_[layer].op;
}

std::vector<Parameter *>
GnnModel::parameters()
{
    std::vector<Parameter *> params;
    for (auto &layer : layers_)
        for (Parameter *p : layer->parameters())
            params.push_back(p);
    return params;
}

} // namespace buffalo::nn
