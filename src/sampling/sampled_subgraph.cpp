#include "sampling/sampled_subgraph.h"

#include <algorithm>

#include "sampling/first_seen.h"
#include "util/errors.h"

namespace buffalo::sampling {

namespace {

/** Frontier size up to which a layer samples serially. */
constexpr std::size_t kParallelRowsThreshold = 512;
/** Minimum frontier rows per chunk. */
constexpr std::size_t kMinChunkRows = 256;

/**
 * Per-thread global -> local tables over the parent graph's id space,
 * one per nesting depth: while a sample() call waits on its chunks,
 * its thread may run another queued task, and a task that samples
 * must not reuse the waiting call's table. The tables keep their size
 * across calls, bounded by the largest graph the thread has sampled.
 */
class IdTableLease
{
  public:
    IdTableLease()
    {
        Stack &s = stack();
        if (s.tables.size() == s.depth)
            s.tables.push_back(std::make_unique<FirstSeenTable>());
        table_ = s.tables[s.depth++].get();
    }
    ~IdTableLease() { --stack().depth; }

    IdTableLease(const IdTableLease &) = delete;
    IdTableLease &operator=(const IdTableLease &) = delete;

    FirstSeenTable &table() { return *table_; }

  private:
    struct Stack
    {
        std::vector<std::unique_ptr<FirstSeenTable>> tables;
        std::size_t depth = 0;
    };

    static Stack &
    stack()
    {
        static thread_local Stack s;
        return s;
    }

    FirstSeenTable *table_;
};

} // namespace

const std::unordered_map<NodeId, NodeId> &
SampledSubgraph::localIndex() const
{
    if (!index_->built.load(std::memory_order_acquire)) {
        std::call_once(index_->once, [this] {
            index_->to_local.reserve(nodes_.size());
            for (NodeId i = 0; i < nodes_.size(); ++i)
                index_->to_local.emplace(nodes_[i], i);
            index_->built.store(true, std::memory_order_release);
        });
    }
    return index_->to_local;
}

NodeId
SampledSubgraph::localId(NodeId global) const
{
    const auto &to_local = localIndex();
    auto it = to_local.find(global);
    if (it == to_local.end())
        throw NotFound("SampledSubgraph::localId: node not in batch");
    return it->second;
}

NodeId
SampledSubgraph::tryLocalId(NodeId global) const
{
    const auto &to_local = localIndex();
    auto it = to_local.find(global);
    return it == to_local.end() ? static_cast<NodeId>(-1)
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

NeighborSampler::NeighborSampler(std::vector<int> fanouts,
                                 util::ThreadPool *pool)
    : fanouts_(std::move(fanouts)), pool_(pool)
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
    const std::uint64_t batch_key = rng.next();
    util::ThreadPool &pool =
        pool_ ? *pool_ : util::ThreadPool::global();
    const bool may_fan_out =
        pool.size() > 1 && !util::ThreadPool::inPoolTask();

    SampledSubgraph sg;
    sg.parent_ = &graph;
    sg.fanouts_ = fanouts_;
    sg.num_seeds_ = static_cast<NodeId>(seeds.size());

    IdTableLease lease;
    FirstSeenTable &ids = lease.table();
    ids.begin(graph.numNodes());
    for (NodeId seed : seeds) {
        checkArgument(seed < graph.numNodes(),
                      "NeighborSampler::sample: seed out of range");
        checkArgument(!ids.contains(seed),
                      "NeighborSampler::sample: duplicate seed");
        ids.add(seed, sg.nodes_);
    }

    // Layer by layer from the seeds down, the destinations are every
    // node numbered so far (local ids 0..frontier-1). Each row takes
    // min(degree, fanout) slots: the whole neighbor list when it fits,
    // else the row's own stream's Floyd picks. New neighbors get the
    // next local ids in first-seen order (fillFirstSeen).
    const int num_layers = numLayers();
    std::vector<std::vector<EdgeIndex>> offsets(num_layers);
    std::vector<NodeList> targets(num_layers);
    for (int layer = num_layers - 1; layer >= 0; --layer) {
        const std::size_t frontier = sg.nodes_.size();
        const auto fanout = static_cast<EdgeIndex>(fanouts_[layer]);
        const std::uint64_t layer_key =
            util::CounterStream::streamKey(batch_key, layer);
        const bool fan_out =
            may_fan_out && frontier > kParallelRowsThreshold;
        const std::size_t chunk_rows = std::max<std::size_t>(
            kMinChunkRows, frontier / (pool.size() * 4));

        std::vector<EdgeIndex> &row_offsets = offsets[layer];
        row_offsets.resize(frontier + 1);
        row_offsets[0] = 0;
        for (std::size_t r = 0; r < frontier; ++r) {
            row_offsets[r + 1] =
                row_offsets[r] +
                std::min(graph.degree(sg.nodes_[r]), fanout);
        }

        NodeList &row_targets = targets[layer];
        row_targets.resize(row_offsets.back());
        fillFirstSeen(
            row_offsets, row_targets, chunk_rows,
            fan_out ? &pool : nullptr,
            [&](std::size_t r0, std::size_t r1) {
                for (std::size_t r = r0; r < r1; ++r) {
                    const NodeId global = sg.nodes_[r];
                    const auto nbrs = graph.neighbors(global);
                    NodeId *out = row_targets.data() + row_offsets[r];
                    const std::size_t count =
                        row_offsets[r + 1] - row_offsets[r];
                    if (count == nbrs.size()) {
                        std::copy(nbrs.begin(), nbrs.end(), out);
                        continue;
                    }
                    util::CounterStream stream(
                        util::CounterStream::streamKey(layer_key,
                                                       global));
                    util::floydSample(
                        nbrs.size(), count, out,
                        [&stream](std::uint64_t bound) {
                            return stream.nextBounded(bound);
                        });
                    for (std::size_t i = 0; i < count; ++i)
                        out[i] = nbrs[out[i]];
                }
            },
            ids, sg.nodes_);
    }

    // Pad each layer's CSR to the final union size (non-destinations
    // have empty rows).
    const NodeId n = static_cast<NodeId>(sg.nodes_.size());
    sg.layers_.reserve(num_layers);
    for (int layer = 0; layer < num_layers; ++layer) {
        offsets[layer].resize(static_cast<std::size_t>(n) + 1,
                              offsets[layer].back());
        sg.layers_.emplace_back(std::move(offsets[layer]),
                                std::move(targets[layer]));
    }
    return sg;
}

} // namespace buffalo::sampling
