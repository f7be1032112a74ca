#include "sampling/first_seen.h"

#include "util/errors.h"

namespace buffalo::sampling {

namespace {

/**
 * Per-thread set of the ids a phase A chunk has listed. A chunk runs
 * to completion on one thread without nesting another, so each thread
 * needs one, reused across chunks and calls.
 */
SeenSet &
chunkSeen()
{
    static thread_local SeenSet seen;
    return seen;
}

} // namespace

void
fillFirstSeen(std::span<const EdgeIndex> offsets, std::span<NodeId> edges,
              std::size_t rows_per_chunk, util::ThreadPool *pool,
              const std::function<void(std::size_t, std::size_t)> &fill,
              FirstSeenTable &table, NodeList &order)
{
    checkArgument(!offsets.empty() && offsets.back() == edges.size(),
                  "fillFirstSeen: offsets do not cover the edges");
    checkArgument(rows_per_chunk >= 1,
                  "fillFirstSeen: rows_per_chunk must be >= 1");
    const std::size_t rows = offsets.size() - 1;
    const std::size_t num_chunks =
        (rows + rows_per_chunk - 1) / rows_per_chunk;
    if (!pool || num_chunks <= 1) {
        fill(0, rows);
        for (NodeId &id : edges) {
            table.add(id, order);
            id = table.number(id);
        }
        return;
    }

    auto edgesOf = [&](std::size_t c) {
        const std::size_t r0 = c * rows_per_chunk;
        const std::size_t r1 = std::min(rows, r0 + rows_per_chunk);
        return edges.subspan(offsets[r0], offsets[r1] - offsets[r0]);
    };
    // Phase A: the table is only read until every chunk is done.
    std::vector<NodeList> candidates(num_chunks);
    util::ParallelForOptions opts;
    opts.grain = 1;
    pool->parallelFor(0, num_chunks, opts, [&](std::size_t c) {
        const std::size_t r0 = c * rows_per_chunk;
        fill(r0, std::min(rows, r0 + rows_per_chunk));
        // Collected in a list of its own, then moved in: pushing
        // into candidates[c] would write list headers that share
        // cache lines with the neighboring chunks'.
        SeenSet &listed = chunkSeen();
        listed.begin(table.idSpace());
        NodeList found;
        for (NodeId id : edgesOf(c)) {
            if (!table.contains(id) && listed.insert(id))
                found.push_back(id);
        }
        candidates[c] = std::move(found);
    });
    // Phase B: chunk order makes the numbering the serial one.
    for (const NodeList &ids : candidates)
        for (NodeId id : ids)
            table.add(id, order);
    // Phase C: the table is final and each edge has one owner.
    pool->parallelFor(0, num_chunks, opts, [&](std::size_t c) {
        for (NodeId &id : edgesOf(c))
            id = table.number(id);
    });
}

} // namespace buffalo::sampling
