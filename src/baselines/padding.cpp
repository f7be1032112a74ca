#include "baselines/padding.h"

namespace buffalo::baselines {

namespace {

graph::EdgeIndex
blockMaxDegree(const sampling::Block &block)
{
    graph::EdgeIndex max_degree = 0;
    for (graph::NodeId dst = 0; dst < block.numDst(); ++dst)
        max_degree = std::max(max_degree, block.degree(dst));
    return max_degree;
}

} // namespace

std::uint64_t
paddedMicroBatchBytes(const nn::MemoryModel &model,
                      const sampling::MicroBatch &mb)
{
    std::uint64_t total =
        model.inputFeatureBytes(mb.inputNodes().size());
    for (int layer = 0; layer < mb.numLayers(); ++layer) {
        const auto &block = mb.blocks[layer];
        const graph::EdgeIndex padded_edges =
            static_cast<graph::EdgeIndex>(block.numDst()) *
            blockMaxDegree(block);
        total += model.layerActivationBytesFromCounts(
            layer, block.numDst(), padded_edges,
            block.numDst() + padded_edges);
        // A padded layer materializes its message tensor, in floats
        // per padded edge. The per-edge term of mean and gcn does not
        // hold it (their fused kernels read the input in place); those
        // of pool and lstm already count the gathered rows.
        const nn::AggregatorKind kind = model.config().aggregator;
        if (kind == nn::AggregatorKind::Mean ||
            kind == nn::AggregatorKind::Gcn)
            total += static_cast<std::uint64_t>(
                static_cast<double>(padded_edges) *
                model.config().layerInDim(layer) * 4.0);
    }
    const auto &top = mb.blocks.back();
    total += static_cast<std::uint64_t>(
        2.0 * top.numDst() * model.config().num_classes * 4.0);
    return total;
}

double
paddedMicroBatchFlops(const nn::MemoryModel &model,
                      const sampling::MicroBatch &mb)
{
    double total = 0.0;
    for (int layer = 0; layer < mb.numLayers(); ++layer) {
        const auto &block = mb.blocks[layer];
        total += model.bucketFlops(layer, block.numDst(),
                                   blockMaxDegree(block));
    }
    return total;
}

} // namespace buffalo::baselines
