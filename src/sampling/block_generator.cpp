#include "sampling/block_generator.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/names.h"
#include "util/errors.h"
#include "util/timer.h"

namespace buffalo::sampling {

namespace {

/**
 * Assembles one Block from per-destination neighbor rows given in
 * subgraph-local ids. @p dst_locals become the destination prefix; new
 * sources are appended in first-seen order. The returned block's
 * src_nodes hold *subgraph-local* ids; the caller translates to global
 * ids at the end.
 */
Block
assembleBlock(const NodeList &dst_locals,
              const std::vector<NodeList> &rows)
{
    Block block;
    block.num_dst = static_cast<NodeId>(dst_locals.size());
    block.src_nodes = dst_locals;
    block.offsets.resize(dst_locals.size() + 1, 0);

    std::unordered_map<NodeId, NodeId> to_block;
    to_block.reserve(dst_locals.size() * 2);
    for (NodeId i = 0; i < dst_locals.size(); ++i)
        to_block.emplace(dst_locals[i], i);

    EdgeIndex total = 0;
    for (const auto &row : rows)
        total += row.size();
    block.neighbors.reserve(total);

    for (std::size_t i = 0; i < rows.size(); ++i) {
        for (NodeId nbr : rows[i]) {
            auto [it, inserted] = to_block.emplace(
                nbr, static_cast<NodeId>(block.src_nodes.size()));
            if (inserted)
                block.src_nodes.push_back(nbr);
            block.neighbors.push_back(it->second);
        }
        block.offsets[i + 1] = block.neighbors.size();
    }
    return block;
}

/** Translates block.src_nodes from subgraph-local ids to global ids. */
void
translateToGlobal(MicroBatch &mb, const SampledSubgraph &sg)
{
    for (Block &block : mb.blocks)
        for (NodeId &id : block.src_nodes)
            id = sg.globalId(id);
}

void
checkOutputs(const SampledSubgraph &sg, const NodeList &output_locals)
{
    for (NodeId local : output_locals)
        checkArgument(local < sg.numSeeds(),
                      "BlockGenerator: output id is not a seed");
}

void
charge(obs::PhaseTimes *times, Phase phase, util::StopWatch &watch)
{
    if (times)
        times->addMeasured(phase, watch.seconds());
    watch.reset();
}

/**
 * Per-thread first-seen filter for one chunk of destinations
 * (parallel block construction, phase A). Epoch-stamped so a worker
 * that processes several chunks reuses its allocation with an O(1)
 * reset between chunks.
 */
struct ChunkDedup
{
    std::vector<std::uint64_t> stamp;
    std::uint64_t epoch = 0;

    void
    beginChunk(std::size_t id_space)
    {
        if (stamp.size() < id_space) {
            stamp.assign(id_space, 0);
            epoch = 0;
        }
        ++epoch;
    }
};

ChunkDedup &
chunkDedup()
{
    static thread_local ChunkDedup dedup;
    return dedup;
}

/** Per-layer block size telemetry (one histogram entry per block). */
void
recordBlockSizes(const MicroBatch &mb)
{
    obs::MetricsRegistry &m = obs::metrics();
    std::uint64_t nodes = 0, edges = 0;
    for (const Block &block : mb.blocks) {
        m.histogram(obs::names::kHistBlockgenLayerNodes)
            .add(static_cast<double>(block.src_nodes.size()));
        m.histogram(obs::names::kHistBlockgenLayerEdges)
            .add(static_cast<double>(block.neighbors.size()));
        nodes += block.src_nodes.size();
        edges += block.neighbors.size();
    }
    m.counter(obs::names::kCtrBlockgenBlocks).add(mb.blocks.size());
    m.counter(obs::names::kCtrBlockgenNodes).add(nodes);
    m.counter(obs::names::kCtrBlockgenEdges).add(edges);
}

} // namespace

FastBlockGenerator::FastBlockGenerator(util::ThreadPool *pool)
    : FastBlockGenerator(pool, Grain{})
{
}

FastBlockGenerator::FastBlockGenerator(util::ThreadPool *pool,
                                       Grain grain)
    : pool_(pool), grain_(grain)
{
    checkArgument(grain_.parallel_dst_threshold >= 1 &&
                      grain_.min_chunk >= 1 &&
                      grain_.degree_grain >= 1,
                  "FastBlockGenerator: grain fields must be >= 1");
}

MicroBatch
FastBlockGenerator::generate(const SampledSubgraph &sg,
                             const NodeList &output_locals,
                             obs::PhaseTimes *times) const
{
    checkOutputs(sg, output_locals);
    obs::Span span(obs::names::kSpanBlockgenFast);
    util::ThreadPool &pool =
        pool_ ? *pool_ : util::ThreadPool::global();

    MicroBatch mb;
    mb.blocks.resize(sg.numLayers());

    // First-seen dedup over subgraph-local ids as an epoch-stamped
    // flat table (allocated once per call, O(1) reset per layer):
    // seen[local] == epoch marks membership, to_block[local] holds
    // the block-local id. Replaces the per-layer unordered_map — a
    // direct array probe per edge instead of a hash — and doubles as
    // the shared stitch table of the parallel path.
    const std::size_t id_space = sg.nodes().size();
    std::vector<std::uint32_t> seen(id_space, 0);
    std::vector<NodeId> to_block(id_space, 0);
    std::uint32_t epoch = 0;

    util::StopWatch watch;
    NodeList dst = output_locals;
    for (int layer = sg.numLayers() - 1; layer >= 0; --layer) {
        const CsrGraph &adjacency = sg.layerAdjacency(layer);

        // Connection check (paper §IV-E): neighbor tracking is a
        // single contiguous CSR-row read per destination — no
        // rechecking against the parent graph. The offsets (degree
        // prefix sums) are computed in parallel at the node level when
        // more than one worker is available; one core runs the loop
        // directly since fan-out overhead would dominate.
        Block &block = mb.blocks[layer];
        block.num_dst = static_cast<NodeId>(dst.size());
        block.offsets.resize(dst.size() + 1, 0);
        const bool fan_out =
            pool.size() > 1 &&
            dst.size() > grain_.parallel_dst_threshold;
        if (fan_out) {
            // Grain hint: a degree lookup is a couple of loads, so
            // chunks below ~1k nodes cost more to enqueue than to run
            // — and when this runs inside a prefetcher worker the
            // nested-call cap keeps the fan-out at the worker count.
            util::ParallelForOptions opts;
            opts.grain = grain_.degree_grain;
            pool.parallelFor(0, dst.size(), opts, [&](std::size_t i) {
                block.offsets[i + 1] = adjacency.degree(dst[i]);
            });
        } else {
            for (std::size_t i = 0; i < dst.size(); ++i)
                block.offsets[i + 1] = adjacency.degree(dst[i]);
        }
        for (std::size_t i = 0; i < dst.size(); ++i)
            block.offsets[i + 1] += block.offsets[i];
        charge(times, Phase::ConnectionCheck, watch);

        // Block construction: append new sources in first-seen order
        // while streaming the CSR rows straight into the block.
        ++epoch;
        block.src_nodes = dst;
        for (NodeId i = 0; i < dst.size(); ++i) {
            seen[dst[i]] = epoch;
            to_block[dst[i]] = i;
        }
        if (!fan_out) {
            block.neighbors.reserve(block.offsets.back());
            for (std::size_t i = 0; i < dst.size(); ++i) {
                for (NodeId nbr : adjacency.neighbors(dst[i])) {
                    if (seen[nbr] != epoch) {
                        seen[nbr] = epoch;
                        to_block[nbr] = static_cast<NodeId>(
                            block.src_nodes.size());
                        block.src_nodes.push_back(nbr);
                    }
                    block.neighbors.push_back(to_block[nbr]);
                }
            }
        } else {
            // Parallel construction in three phases, byte-identical
            // to the serial first-seen order at any chunk or thread
            // count.
            //
            // Phase A (parallel): each chunk of destinations copies
            // its CSR rows into its owned neighbors range as raw
            // local ids and collects, in within-chunk first-seen
            // order, the candidate sources that are not destinations
            // (the shared table holds only the dst seeds here, so
            // reads race with nothing).
            block.neighbors.resize(block.offsets.back());
            const std::size_t chunk_size = std::max<std::size_t>(
                grain_.min_chunk, dst.size() / (pool.size() * 4));
            const std::size_t num_chunks =
                (dst.size() + chunk_size - 1) / chunk_size;
            std::vector<NodeList> candidates(num_chunks);
            util::ParallelForOptions opts;
            opts.grain = 1;
            pool.parallelFor(
                0, num_chunks, opts, [&](std::size_t c) {
                    const std::size_t d0 = c * chunk_size;
                    const std::size_t d1 =
                        std::min(dst.size(), d0 + chunk_size);
                    ChunkDedup &local = chunkDedup();
                    local.beginChunk(id_space);
                    NodeList &out = candidates[c];
                    EdgeIndex e = block.offsets[d0];
                    for (std::size_t i = d0; i < d1; ++i) {
                        for (NodeId nbr :
                             adjacency.neighbors(dst[i])) {
                            block.neighbors[e++] = nbr;
                            if (seen[nbr] == epoch)
                                continue; // a destination
                            if (local.stamp[nbr] == local.epoch)
                                continue; // already a candidate
                            local.stamp[nbr] = local.epoch;
                            out.push_back(nbr);
                        }
                    }
                });
            // Phase B (serial stitch): walk chunks ascending and
            // append unseen candidates. The first global occurrence
            // of any id lies in the earliest chunk that saw it, at
            // its first within-chunk position — so this append order
            // IS the serial first-seen order, for any chunking.
            for (const NodeList &cands : candidates) {
                for (NodeId nbr : cands) {
                    if (seen[nbr] != epoch) {
                        seen[nbr] = epoch;
                        to_block[nbr] = static_cast<NodeId>(
                            block.src_nodes.size());
                        block.src_nodes.push_back(nbr);
                    }
                }
            }
            // Phase C (parallel): map raw local ids to block ids;
            // the table is read-only now and every edge has exactly
            // one owner.
            pool.parallelFor(
                0, num_chunks, opts, [&](std::size_t c) {
                    const std::size_t d0 = c * chunk_size;
                    const std::size_t d1 =
                        std::min(dst.size(), d0 + chunk_size);
                    for (EdgeIndex e = block.offsets[d0];
                         e < block.offsets[d1]; ++e)
                        block.neighbors[e] =
                            to_block[block.neighbors[e]];
                });
        }
        dst = block.src_nodes; // subgraph-local ids
        charge(times, Phase::BlockConstruction, watch);
    }
    translateToGlobal(mb, sg);
    charge(times, Phase::BlockConstruction, watch);
    recordBlockSizes(mb);
    return mb;
}

MicroBatch
BaselineBlockGenerator::generate(const SampledSubgraph &sg,
                                 const NodeList &output_locals,
                                 obs::PhaseTimes *times) const
{
    checkOutputs(sg, output_locals);
    obs::Span span(obs::names::kSpanBlockgenBaseline);
    const CsrGraph &parent = sg.parent();

    MicroBatch mb;
    mb.blocks.resize(sg.numLayers());

    util::StopWatch watch;
    NodeList dst = output_locals;
    for (int layer = sg.numLayers() - 1; layer >= 0; --layer) {
        const CsrGraph &adjacency = sg.layerAdjacency(layer);

        // Repeated connection check (the redundant work Buffalo's
        // fast path avoids, paper §III/§IV-E): the baseline does not
        // keep per-node sampled rows, so for every micro-batch it
        // re-derives this layer's dependency structure — materializing
        // the micro-batch cone's sampled-edge set, then walking each
        // destination's FULL parent-graph neighbor list and probing
        // which of those edges sampling selected.
        std::unordered_set<std::uint64_t> sampled_edges;
        for (NodeId u : dst) {
            for (NodeId v : adjacency.neighbors(u)) {
                sampled_edges.insert(
                    (static_cast<std::uint64_t>(u) << 32) | v);
            }
        }

        std::vector<NodeList> rows(dst.size());
        for (std::size_t i = 0; i < dst.size(); ++i) {
            const NodeId global = sg.globalId(dst[i]);
            NodeList &row = rows[i];
            for (NodeId parent_nbr : parent.neighbors(global)) {
                const NodeId local = sg.tryLocalId(parent_nbr);
                if (local == static_cast<NodeId>(-1))
                    continue; // neighbor not in the batch at all
                const std::uint64_t key =
                    (static_cast<std::uint64_t>(dst[i]) << 32) |
                    local;
                if (sampled_edges.count(key))
                    row.push_back(local);
            }
        }
        charge(times, Phase::ConnectionCheck, watch);

        mb.blocks[layer] = assembleBlock(dst, rows);
        dst = mb.blocks[layer].src_nodes;
        charge(times, Phase::BlockConstruction, watch);
    }
    translateToGlobal(mb, sg);
    charge(times, Phase::BlockConstruction, watch);
    recordBlockSizes(mb);
    return mb;
}

} // namespace buffalo::sampling
