#include "baselines/betty.h"

#include <algorithm>
#include <unordered_map>

#include "graph/coo.h"
#include "util/rng.h"
#include "util/timer.h"

namespace buffalo::baselines {

using graph::NodeId;
using partition::WeightedGraph;

BettyPartitioner::BettyPartitioner(
    const partition::MetisLikeOptions &metis_options, int pair_cap)
    : metis_options_(metis_options), pair_cap_(pair_cap)
{
    checkArgument(pair_cap_ >= 1,
                  "BettyPartitioner: pair_cap must be >= 1");
}

WeightedGraph
BettyPartitioner::buildReg(const SampledSubgraph &sg) const
{
    const NodeId num_seeds = sg.numSeeds();
    const auto &top = sg.layerAdjacency(sg.numLayers() - 1);

    // Betty requires every output node to have at least one in-edge;
    // zero-in-edge nodes have no place in the REG.
    for (NodeId seed = 0; seed < num_seeds; ++seed) {
        if (top.degree(seed) == 0) {
            throw BettyUnsupported(
                "Betty cannot process output nodes with zero in-edges "
                "(seed " + std::to_string(sg.globalId(seed)) + ")");
        }
    }

    // Inverted index: sampled neighbor -> seeds that reference it.
    std::unordered_map<NodeId, NodeList> seeds_of_neighbor;
    for (NodeId seed = 0; seed < num_seeds; ++seed)
        for (NodeId nbr : top.neighbors(seed))
            seeds_of_neighbor[nbr].push_back(seed);

    // Edge weights: number of shared sampled neighbors per seed pair.
    // Hub neighbors shared by s seeds would create s*(s-1)/2 pairs;
    // Betty's embedding cost is intentionally heavy, but we bound it at
    // pair_cap * s sampled pairs per neighbor to avoid quadratic
    // blowup on the simulator host.
    std::unordered_map<std::uint64_t, std::uint32_t> pair_weight;
    util::Rng rng(metis_options_.seed ^ 0xBE77F);
    auto pair_key = [](NodeId a, NodeId b) {
        if (a > b)
            std::swap(a, b);
        return (static_cast<std::uint64_t>(a) << 32) | b;
    };
    for (const auto &[nbr, seeds] : seeds_of_neighbor) {
        const std::size_t s = seeds.size();
        if (s < 2)
            continue;
        const std::size_t full_pairs = s * (s - 1) / 2;
        const std::size_t budget =
            static_cast<std::size_t>(pair_cap_) * s;
        if (full_pairs <= budget) {
            for (std::size_t i = 0; i < s; ++i)
                for (std::size_t j = i + 1; j < s; ++j)
                    ++pair_weight[pair_key(seeds[i], seeds[j])];
        } else {
            for (std::size_t p = 0; p < budget; ++p) {
                const std::size_t i = rng.nextBounded(s);
                std::size_t j = rng.nextBounded(s - 1);
                if (j >= i)
                    ++j;
                ++pair_weight[pair_key(seeds[i], seeds[j])];
            }
        }
    }

    // Materialize the REG as a symmetric weighted CSR.
    graph::CooBuilder builder(num_seeds);
    std::vector<std::uint32_t> weights_by_edge;
    // First build CSR rows; weights assigned after sorting via map.
    for (const auto &[key, weight] : pair_weight) {
        const NodeId a = static_cast<NodeId>(key >> 32);
        const NodeId b = static_cast<NodeId>(key & 0xFFFFFFFFu);
        builder.addUndirectedEdge(a, b);
        (void)weight;
    }
    WeightedGraph reg;
    reg.graph = builder.toCsr(/*dedup=*/true, /*drop_self_loops=*/true);
    reg.node_weights.assign(num_seeds, 1);
    reg.edge_weights.resize(reg.graph.numEdges(), 1);
    // Node weight = seed degree (heavier seeds cost more memory).
    for (NodeId seed = 0; seed < num_seeds; ++seed) {
        reg.node_weights[seed] =
            static_cast<std::uint32_t>(1 + top.degree(seed));
    }
    // Assign pair weights onto the CSR edges.
    for (NodeId dst = 0; dst < num_seeds; ++dst) {
        const auto &offsets = reg.graph.offsets();
        for (graph::EdgeIndex e = offsets[dst]; e < offsets[dst + 1];
             ++e) {
            const NodeId src = reg.graph.targets()[e];
            auto it = pair_weight.find(pair_key(src, dst));
            if (it != pair_weight.end())
                reg.edge_weights[e] = it->second;
        }
    }
    return reg;
}

std::vector<NodeList>
BettyPartitioner::partition(const SampledSubgraph &sg, int num_parts,
                            obs::PhaseTimes *times) const
{
    checkArgument(num_parts >= 1,
                  "BettyPartitioner: need >= 1 part");

    util::StopWatch watch;
    WeightedGraph reg = buildReg(sg);
    if (times)
        times->addMeasured(obs::Phase::RegConstruction, watch.seconds());

    watch.reset();
    partition::MetisLike metis(metis_options_);
    partition::Assignment assignment = metis.partition(reg, num_parts);
    if (times)
        times->addMeasured(obs::Phase::MetisPartition, watch.seconds());

    std::vector<NodeList> parts(num_parts);
    for (NodeId seed = 0; seed < sg.numSeeds(); ++seed)
        parts[assignment[seed]].push_back(seed);
    std::erase_if(parts,
                  [](const NodeList &part) { return part.empty(); });
    return parts;
}

} // namespace buffalo::baselines
