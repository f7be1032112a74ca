/**
 * @file
 * Model configuration shared by the GNN models, the device cost model,
 * and Buffalo's memory estimator.
 */
#pragma once

#include <string>
#include <vector>

#include "util/errors.h"

namespace buffalo::nn {

/** Neighborhood aggregation operator (paper Fig. 2's x-axis). */
enum class AggregatorKind
{
    Mean, ///< elementwise mean of neighbor features
    Pool, ///< max-pool over per-neighbor linear + ReLU
    Lstm, ///< LSTM over the neighbor sequence (memory-intensive)
    Gcn,  ///< mean including the node itself
};

/** Printable name of @p kind. */
const char *aggregatorName(AggregatorKind kind);

/** Model architecture (determines update-weight shapes). */
enum class ModelArch
{
    Sage, ///< GraphSAGE: update over concat(self, aggregated)
    Gcn,  ///< plain GCN: single weight over the mean incl. self
    Gat,  ///< graph attention: per-head weight + attention vectors
};

/** Printable name of @p arch ("sage", "gcn", "gat"). */
const char *modelArchName(ModelArch arch);

/** Parses an architecture name; the inverse of modelArchName(). */
ModelArch modelArchFromName(const std::string &name);

/** Parses an aggregator name ("mean", "pool", "lstm", "gcn"). */
AggregatorKind aggregatorFromName(const std::string &name);

/** Hyperparameters of a GNN model. */
struct ModelConfig
{
    /** Architecture the model builds its layers for. */
    ModelArch arch = ModelArch::Sage;
    AggregatorKind aggregator = AggregatorKind::Mean;
    /** Aggregation depth L (number of message-passing layers). */
    int num_layers = 2;
    /** Raw input feature width. */
    int feature_dim = 64;
    /** Hidden width of every intermediate layer (and LSTM state). */
    int hidden_dim = 128;
    /** Output width (number of classes). */
    int num_classes = 16;
    /** Attention heads (GAT only). */
    int num_heads = 1;

    /** Input feature width of layer @p layer (0-based, input first). */
    int
    layerInDim(int layer) const
    {
        return layer == 0 ? feature_dim : hidden_dim;
    }

    /** Output width of layer @p layer. */
    int
    layerOutDim(int layer) const
    {
        return layer == num_layers - 1 ? num_classes : hidden_dim;
    }

    /** Throws InvalidArgument if any field is out of range. */
    void
    validate() const
    {
        checkArgument(num_layers >= 1, "ModelConfig: num_layers >= 1");
        checkArgument(feature_dim >= 1, "ModelConfig: feature_dim >= 1");
        checkArgument(hidden_dim >= 1, "ModelConfig: hidden_dim >= 1");
        checkArgument(num_classes >= 2, "ModelConfig: num_classes >= 2");
        checkArgument(num_heads >= 1, "ModelConfig: num_heads >= 1");
    }
};

} // namespace buffalo::nn
