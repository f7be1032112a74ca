/**
 * @file
 * Per-iteration neighbor sampling.
 *
 * One training iteration samples a subgraph ("batch") from the input
 * graph: for every node reachable within L hops of the seeds, up to
 * fanout[l] in-neighbors are drawn per layer. The SampledSubgraph keeps
 * the per-layer sampled adjacency in CSR so that block generation for
 * *any subset* of the seeds (Buffalo's micro-batches) can read neighbor
 * rows directly instead of re-checking connectivity against the parent
 * graph — the key to the fast block generator of paper §IV-E.
 */
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/csr.h"
#include "graph/types.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace buffalo::sampling {

using graph::CsrGraph;
using graph::EdgeIndex;
using graph::NodeId;
using graph::NodeList;

/** The result of sampling one batch. Node ids are *local* (0..n-1). */
class SampledSubgraph
{
  public:
    /** The graph this batch was sampled from. */
    const CsrGraph &parent() const { return *parent_; }

    /** Seed (output) nodes, in local ids 0..numSeeds()-1. */
    NodeId numSeeds() const { return num_seeds_; }

    /** All nodes touched by the batch; index is the local id. */
    const NodeList &nodes() const { return nodes_; }

    /** Global id for @p local. */
    NodeId globalId(NodeId local) const { return nodes_[local]; }

    /**
     * Local id for @p global; throws NotFound if absent. The first
     * localId()/tryLocalId() call on a subgraph builds its global ->
     * local index (O(nodes), once, safe to race from several threads);
     * later calls are hash lookups.
     */
    NodeId localId(NodeId global) const;

    /** Local id for @p global, or -1 (as NodeId) when absent. */
    NodeId tryLocalId(NodeId global) const;

    /** Number of GNN layers (== fanouts.size()). */
    int numLayers() const { return static_cast<int>(layers_.size()); }

    /**
     * Sampled adjacency for layer @p layer (0 = input-most layer,
     * numLayers()-1 = the seed layer). Rows are local ids; nodes that
     * are not destinations at this layer have empty rows.
     */
    const CsrGraph &layerAdjacency(int layer) const;

    /** Fanout used at @p layer (same indexing as layerAdjacency). */
    int fanout(int layer) const { return fanouts_[layer]; }

    /** All fanouts, input-most layer first. */
    const std::vector<int> &fanouts() const { return fanouts_; }

    /** Bytes held by the sampled CSR structures. */
    std::uint64_t memoryBytes() const;

  private:
    friend class NeighborSampler;

    /** The localId() index, built on first use. Held by pointer so
     *  the subgraph stays movable (std::once_flag is not). */
    struct LocalIndex
    {
        std::once_flag once;
        /** Set (release) at the end of the build: the lookup fast
         *  path, so a built index costs one acquire load per call. */
        std::atomic<bool> built{false};
        std::unordered_map<NodeId, NodeId> to_local;
    };

    const std::unordered_map<NodeId, NodeId> &localIndex() const;

    const CsrGraph *parent_ = nullptr;
    NodeId num_seeds_ = 0;
    NodeList nodes_;
    std::unique_ptr<LocalIndex> index_ = std::make_unique<LocalIndex>();
    std::vector<int> fanouts_;
    std::vector<CsrGraph> layers_;
};

/**
 * Fanout-based uniform neighbor sampler.
 *
 * Fanout convention matches the paper's "cut-off degree for 1-hop and
 * 2-hop neighbors are 25 and 10": fanouts are given input-most layer
 * first, so a 2-layer model with fanouts {10, 25} samples 25 neighbors
 * per seed at the top layer and 10 at the input layer.
 *
 * Each destination draws its picks from its own util::CounterStream,
 * keyed by (batch key, layer, global node id), so a layer samples in
 * parallel chunks of its frontier and the sampled bytes do not depend
 * on the pool, the chunking or the thread that runs a chunk.
 */
class NeighborSampler
{
  public:
    /**
     * Creates a sampler with per-layer @p fanouts (input-most first).
     *
     * @param pool Pool the layers fan out on; null uses the
     *             process-global pool. Called from inside a pool task
     *             (any pool's), sample() runs on the calling thread,
     *             the rule the estimator and the compute kernels
     *             follow, so a prefetcher stage never takes workers
     *             from compute.
     */
    explicit NeighborSampler(std::vector<int> fanouts,
                             util::ThreadPool *pool = nullptr);

    /** Number of layers this sampler expands. */
    int numLayers() const { return static_cast<int>(fanouts_.size()); }

    /**
     * Samples the batch subgraph for @p seeds. Seeds must be unique.
     * Seeds receive local ids 0..seeds.size()-1 in order; every other
     * node is numbered at its first occurrence in a row-ascending,
     * top-layer-first scan of the sampled rows.
     *
     * Takes exactly one rng.next() per call, the batch key.
     */
    SampledSubgraph sample(const CsrGraph &graph, const NodeList &seeds,
                           util::Rng &rng) const;

  private:
    std::vector<int> fanouts_;
    util::ThreadPool *pool_;
};

} // namespace buffalo::sampling
