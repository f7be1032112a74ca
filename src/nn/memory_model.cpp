#include "nn/memory_model.h"

#include "nn/aggregators.h"

namespace buffalo::nn {

namespace {

constexpr double kBytesPerFloat = 4.0;

/** Layer 0 computes no input gradient (GnnModel::backward). */
bool
layerInputGrad(int layer)
{
    return layer > 0;
}

} // namespace

MemoryModel::MemoryModel(const ModelConfig &config) : config_(config)
{
    config_.validate();
}

std::uint64_t
MemoryModel::bucketActivationBytes(int layer, std::uint64_t n,
                                   std::uint64_t d) const
{
    // Without dedup information, sources are bounded by n + n*d.
    return layerActivationBytesFromCounts(layer, n, n * d, n + n * d);
}

std::uint64_t
MemoryModel::layerActivationBytesFromCounts(int layer, std::uint64_t dst,
                                            std::uint64_t edges,
                                            std::uint64_t src) const
{
    const double in = config_.layerInDim(layer);
    const double out = config_.layerOutDim(layer);
    const bool input_grad = layerInputGrad(layer);
    // The update computes its input (concat) gradient for the layer's
    // own input gradient or for aggregator weights to backpropagate to.
    const bool update_dx =
        input_grad || aggregatorHasWeights(config_.aggregator);

    // Gathered neighbor features + aggregator internal caches.
    const double agg_floats =
        static_cast<double>(edges) *
        aggregatorCacheFloatsPerEdge(config_.aggregator,
                                     static_cast<std::size_t>(in),
                                     input_grad);
    // Forward: aggregated output + concat(self, agg) + pre/post
    // activation. Backward: the concat gradient (2*in per dst), when
    // the update computes one.
    const double update_floats =
        static_cast<double>(dst) * ((update_dx ? 5.0 : 3.0) * in + 2.0 * out);
    // Backward: the input-gradient buffer spans the layer's sources.
    const double grad_floats =
        input_grad ? static_cast<double>(src) * in : 0.0;
    return static_cast<std::uint64_t>(
        (agg_floats + update_floats + grad_floats) * kBytesPerFloat);
}

std::uint64_t
MemoryModel::blockActivationBytes(const sampling::Block &block,
                                  int layer) const
{
    std::uint64_t total = 0;
    std::uint64_t dst_total = 0, edge_total = 0;
    for (const auto &bucket : sampling::bucketizeBlock(block)) {
        dst_total += bucket.volume();
        edge_total += bucket.volume() * bucket.degree;
    }
    total += layerActivationBytesFromCounts(layer, dst_total,
                                            edge_total,
                                            block.numSrc());
    return total;
}

std::uint64_t
MemoryModel::inputFeatureBytes(std::uint64_t num_inputs) const
{
    return static_cast<std::uint64_t>(
        static_cast<double>(num_inputs) * config_.feature_dim *
        kBytesPerFloat);
}

std::uint64_t
MemoryModel::microBatchBytes(const sampling::MicroBatch &mb) const
{
    std::uint64_t total =
        inputFeatureBytes(mb.inputNodes().size());
    for (int layer = 0; layer < mb.numLayers(); ++layer)
        total += blockActivationBytes(mb.blocks[layer], layer);
    // Output gradients (logits + dlogits).
    const auto &top = mb.blocks.back();
    total += static_cast<std::uint64_t>(
        2.0 * top.numDst() * config_.num_classes * kBytesPerFloat);
    return total;
}

double
MemoryModel::parameterFloats() const
{
    double total = 0.0;
    for (int layer = 0; layer < config_.num_layers; ++layer) {
        const double in = config_.layerInDim(layer);
        const double out = config_.layerOutDim(layer);
        switch (config_.arch) {
          case ModelArch::Sage:
            // Update weight over concat(self, agg) + bias.
            total += 2.0 * in * out + out;
            switch (config_.aggregator) {
              case AggregatorKind::Pool:
                total += in * in + in;
                break;
              case AggregatorKind::Lstm:
                total += 8.0 * in * in + 4.0 * in;
                break;
              default:
                break;
            }
            break;
          case ModelArch::Gcn:
            // Single weight over the mean (incl. self) + bias.
            total += in * out + out;
            break;
          case ModelArch::Gat:
            // Per head: W (in x out/heads) + a_src + a_dst.
            total += in * out + 2.0 * out;
            break;
        }
    }
    return total;
}

std::uint64_t
MemoryModel::weightBytes() const
{
    // Values + gradients.
    return static_cast<std::uint64_t>(2.0 * parameterFloats() *
                                      kBytesPerFloat);
}

std::uint64_t
MemoryModel::optimizerBytes() const
{
    return static_cast<std::uint64_t>(2.0 * parameterFloats() *
                                      kBytesPerFloat);
}

double
MemoryModel::bucketFlops(int layer, std::uint64_t n,
                         std::uint64_t d) const
{
    const double in = config_.layerInDim(layer);
    const double out = config_.layerOutDim(layer);
    const double nn = static_cast<double>(n);
    const double edges = nn * static_cast<double>(d);
    const bool input_grad = layerInputGrad(layer);
    const bool update_dx =
        input_grad || aggregatorHasWeights(config_.aggregator);
    // One GEMM pass (2 FLOPs per multiply-add) over rows x k x cols.
    const auto gemm = [](double rows, double k, double cols) {
        return 2.0 * rows * k * cols;
    };

    double agg = 0.0;
    switch (config_.aggregator) {
      case AggregatorKind::Mean:
      case AggregatorKind::Gcn:
        // Forward sum; backward broadcast into the input gradient.
        agg = (input_grad ? 2.0 : 1.0) * edges * in;
        break;
      case AggregatorKind::Pool:
        // Linear forward, dW and (with an input gradient) dX GEMMs,
        // plus relu and max forward and backward.
        agg = (input_grad ? 3.0 : 2.0) * gemm(edges, in, in) +
              4.0 * edges * in;
        break;
      case AggregatorKind::Lstm:
        // Per step, gate GEMMs x.Wx and h.Wh forward, dWx and dWh,
        // dx (with an input gradient) and dh_prev (not at step 0,
        // whose h_prev is the constant zero state).
        agg = (input_grad ? 5.0 : 4.0) * gemm(edges, in, 4.0 * in);
        if (d > 0)
            agg += gemm(nn * static_cast<double>(d - 1), in, 4.0 * in);
        break;
    }
    // Update: concat(self, agg) [n x 2in] times W [2in x out]: forward
    // and dW, plus dX when it computes one.
    const double update = (update_dx ? 3.0 : 2.0) * gemm(nn, 2.0 * in, out);
    return agg + update;
}

double
MemoryModel::microBatchFlops(const sampling::MicroBatch &mb) const
{
    double total = 0.0;
    for (int layer = 0; layer < mb.numLayers(); ++layer) {
        for (const auto &bucket :
             sampling::bucketizeBlock(mb.blocks[layer])) {
            total += bucketFlops(layer, bucket.volume(), bucket.degree);
        }
    }
    return total;
}

std::uint64_t
MemoryModel::transferBytes(const sampling::MicroBatch &mb) const
{
    return mb.structureBytes() +
           inputFeatureBytes(mb.inputNodes().size()) +
           mb.outputNodes().size() * sizeof(std::int32_t);
}

} // namespace buffalo::nn
