#include "sampling/sampled_subgraph.h"

#include <algorithm>

#include "util/errors.h"

namespace buffalo::sampling {

namespace {

/**
 * Per-thread global -> local id table over the parent graph's id
 * space: stamp[g] == epoch marks g as already in the batch being
 * sampled, and local[g] holds its local id. Epoch-stamped so each
 * sample() resets it in O(1); it keeps its size across calls, bounded
 * by the largest graph the thread has sampled.
 */
struct IdTable
{
    std::vector<std::uint32_t> stamp;
    std::vector<NodeId> local;
    std::uint32_t epoch = 0;

    void
    begin(std::size_t id_space)
    {
        if (stamp.size() < id_space) {
            stamp.assign(id_space, 0);
            local.resize(id_space);
            epoch = 0;
        }
        if (++epoch == 0) {
            std::fill(stamp.begin(), stamp.end(), 0);
            epoch = 1;
        }
    }
};

IdTable &
idTable()
{
    static thread_local IdTable table;
    return table;
}

} // namespace

NodeId
SampledSubgraph::localId(NodeId global) const
{
    auto it = to_local_.find(global);
    if (it == to_local_.end())
        throw NotFound("SampledSubgraph::localId: node not in batch");
    return it->second;
}

NodeId
SampledSubgraph::tryLocalId(NodeId global) const
{
    auto it = to_local_.find(global);
    return it == to_local_.end() ? static_cast<NodeId>(-1)
                                 : it->second;
}

const CsrGraph &
SampledSubgraph::layerAdjacency(int layer) const
{
    checkArgument(layer >= 0 && layer < numLayers(),
                  "SampledSubgraph::layerAdjacency: bad layer index");
    return layers_[layer];
}

std::uint64_t
SampledSubgraph::memoryBytes() const
{
    std::uint64_t total = nodes_.size() * sizeof(NodeId);
    for (const auto &layer : layers_)
        total += layer.memoryBytes();
    return total;
}

NeighborSampler::NeighborSampler(std::vector<int> fanouts)
    : fanouts_(std::move(fanouts))
{
    checkArgument(!fanouts_.empty(),
                  "NeighborSampler: need at least one layer");
    for (int f : fanouts_)
        checkArgument(f >= 1, "NeighborSampler: fanouts must be >= 1");
}

SampledSubgraph
NeighborSampler::sample(const CsrGraph &graph, const NodeList &seeds,
                        util::Rng &rng) const
{
    SampledSubgraph sg;
    sg.parent_ = &graph;
    sg.fanouts_ = fanouts_;
    sg.num_seeds_ = static_cast<NodeId>(seeds.size());

    // Global -> local ids while the union grows: one array probe per
    // sampled edge.
    IdTable &ids = idTable();
    ids.begin(graph.numNodes());
    const std::uint32_t epoch = ids.epoch;
    sg.nodes_ = seeds;
    for (NodeId i = 0; i < seeds.size(); ++i) {
        checkArgument(seeds[i] < graph.numNodes(),
                      "NeighborSampler::sample: seed out of range");
        checkArgument(ids.stamp[seeds[i]] != epoch,
                      "NeighborSampler::sample: duplicate seed");
        ids.stamp[seeds[i]] = epoch;
        ids.local[seeds[i]] = i;
    }

    // Each layer's CSR is written while sampling: destinations are the
    // local ids 0..frontier_end-1 in order, and a row stores local ids
    // (new neighbors get the next id in first-seen order).
    const int num_layers = numLayers();
    std::vector<std::vector<EdgeIndex>> offsets(num_layers);
    std::vector<NodeList> targets(num_layers);

    // frontier = local ids that are destinations at the current layer.
    NodeId frontier_end = sg.num_seeds_;
    for (int layer = num_layers - 1; layer >= 0; --layer) {
        const auto fanout = static_cast<std::uint64_t>(fanouts_[layer]);
        std::vector<EdgeIndex> &row_offsets = offsets[layer];
        NodeList &row_targets = targets[layer];
        row_offsets.reserve(static_cast<std::size_t>(frontier_end) + 1);
        row_offsets.push_back(0);
        auto append = [&](NodeId nbr) {
            if (ids.stamp[nbr] != epoch) {
                ids.stamp[nbr] = epoch;
                ids.local[nbr] = static_cast<NodeId>(sg.nodes_.size());
                sg.nodes_.push_back(nbr);
            }
            row_targets.push_back(ids.local[nbr]);
        };
        for (NodeId local = 0; local < frontier_end; ++local) {
            auto nbrs = graph.neighbors(sg.nodes_[local]);
            if (nbrs.size() <= fanout) {
                for (NodeId nbr : nbrs)
                    append(nbr);
            } else {
                for (auto pick :
                     rng.sampleWithoutReplacement(nbrs.size(), fanout))
                    append(nbrs[pick]);
            }
            row_offsets.push_back(row_targets.size());
        }
        frontier_end = static_cast<NodeId>(sg.nodes_.size());
    }

    // Pad each layer's CSR to the final union size (non-destinations
    // have empty rows) and index the node list for localId().
    const NodeId n = static_cast<NodeId>(sg.nodes_.size());
    sg.layers_.reserve(num_layers);
    for (int layer = 0; layer < num_layers; ++layer) {
        offsets[layer].resize(static_cast<std::size_t>(n) + 1,
                              offsets[layer].back());
        sg.layers_.emplace_back(std::move(offsets[layer]),
                                std::move(targets[layer]));
    }
    sg.to_local_.reserve(n);
    for (NodeId i = 0; i < n; ++i)
        sg.to_local_.emplace(sg.nodes_[i], i);
    return sg;
}

} // namespace buffalo::sampling
