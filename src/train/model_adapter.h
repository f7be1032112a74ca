/**
 * @file
 * The trainers' names for the model layer: one nn::GnnModel for every
 * architecture, chosen by configuration.
 */
#pragma once

#include <memory>

#include "nn/gnn_model.h"

namespace buffalo::train {

/** Which architecture to instantiate. */
using ModelKind = nn::ModelArch;

using nn::GnnModel;

/** Instantiates @p config with its architecture set to @p kind. */
inline std::unique_ptr<GnnModel>
makeModel(ModelKind kind, nn::ModelConfig config, std::uint64_t seed,
          nn::AllocationObserver *param_observer = nullptr)
{
    config.arch = kind;
    return std::make_unique<GnnModel>(config, seed, param_observer);
}

} // namespace buffalo::train
