/**
 * @file
 * First-seen renumbering of a CSR's edge ids, chunk-parallel and
 * byte-identical to a serial scan.
 *
 * The neighbor sampler and FastBlockGenerator both write a CSR whose
 * edges first hold *raw* ids (parent-graph ids for the sampler,
 * subgraph-local ids for a block) and must end up holding *dense*
 * numbers, where an id not numbered before gets the next number at
 * its first occurrence in a row-ascending scan. fillFirstSeen() runs
 * that in three phases over contiguous chunks of rows:
 *
 *  - A (parallel): the caller's fill writes each chunk's raw ids into
 *    the chunk's own slots; the chunk then lists, in scan order, its
 *    first occurrences of ids the table has not numbered.
 *  - B (serial stitch): the lists are visited in chunk order and each
 *    id not yet numbered gets the next number. An id's first global
 *    occurrence lies in the earliest chunk that lists it, at its
 *    position in that list, so this IS the serial first-seen order
 *    for any chunking.
 *  - C (parallel): each chunk maps its raw ids to their numbers.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/types.h"
#include "util/thread_pool.h"

namespace buffalo::sampling {

using graph::EdgeIndex;
using graph::NodeId;
using graph::NodeList;

/**
 * Set of raw ids in [0, id_space): stamp[id] == epoch marks a member.
 * Epoch-stamped, so begin() empties it in O(1); the array only grows.
 */
class SeenSet
{
  public:
    /** Starts an empty set over raw ids in [0, id_space). */
    void
    begin(std::size_t id_space)
    {
        if (stamp_.size() < id_space) {
            stamp_.assign(id_space, 0);
            epoch_ = 0;
        }
        if (++epoch_ == 0) {
            std::fill(stamp_.begin(), stamp_.end(), 0);
            epoch_ = 1;
        }
    }

    /** Size of the raw id space the set covers. */
    std::size_t idSpace() const { return stamp_.size(); }

    /** True when @p id is in the set. */
    bool contains(NodeId id) const { return stamp_[id] == epoch_; }

    /** Adds @p id; true when it was not in the set before. */
    bool
    insert(NodeId id)
    {
        if (stamp_[id] == epoch_)
            return false;
        stamp_[id] = epoch_;
        return true;
    }

  private:
    std::vector<std::uint32_t> stamp_;
    std::uint32_t epoch_ = 0;
};

/**
 * Raw -> dense id table over a raw id space: the numbered ids form a
 * SeenSet and number[id] holds an id's number. begin() starts a new
 * numbering in O(1); the arrays only grow.
 */
class FirstSeenTable
{
  public:
    /** Starts an empty numbering over raw ids in [0, id_space). */
    void
    begin(std::size_t id_space)
    {
        numbered_.begin(id_space);
        if (number_.size() < id_space)
            number_.resize(id_space);
    }

    /** Size of the raw id space the table covers. */
    std::size_t idSpace() const { return numbered_.idSpace(); }

    /** True when @p id has a number in the current numbering. */
    bool contains(NodeId id) const { return numbered_.contains(id); }

    /** The number of @p id; contains(id) must hold. */
    NodeId number(NodeId id) const { return number_[id]; }

    /** Numbers @p id as order.size() and appends it to @p order,
     *  unless it already has a number. */
    void
    add(NodeId id, NodeList &order)
    {
        if (!numbered_.insert(id))
            return;
        number_[id] = static_cast<NodeId>(order.size());
        order.push_back(id);
    }

  private:
    SeenSet numbered_;
    std::vector<NodeId> number_;
};

/**
 * Fills a CSR's edges with raw ids and renumbers them in first-seen
 * order (phases A-C above).
 *
 * @param offsets        Row offsets, rows + 1 entries.
 * @param edges          The offsets.back() edge slots.
 * @param rows_per_chunk Rows per chunk (>= 1) when @p pool is set.
 * @param pool           Runs the chunks; null fills every row, then
 *                       numbers the edges in order, on the calling
 *                       thread. The result is the same either way.
 * @param fill           fill(r0, r1) writes the raw ids of rows
 *                       [r0, r1) into their slots of @p edges. Chunks
 *                       fill concurrently and must not touch @p table.
 * @param table          The numbering so far over the raw id space;
 *                       numbered ids keep their numbers.
 * @param order          Receives each newly numbered raw id, in
 *                       number order.
 */
void fillFirstSeen(std::span<const EdgeIndex> offsets,
                   std::span<NodeId> edges, std::size_t rows_per_chunk,
                   util::ThreadPool *pool,
                   const std::function<void(std::size_t, std::size_t)>
                       &fill,
                   FirstSeenTable &table, NodeList &order);

} // namespace buffalo::sampling
