#include "core/mem_estimator.h"

#include <algorithm>
#include <memory>

#include "util/errors.h"

namespace buffalo::core {

namespace {

/**
 * Per-thread cone-walk scratch: an epoch-stamped visited table over
 * subgraph-local ids and a buffer holding the cone in discovery order.
 * Stamps are one byte: a walk resets the table in O(1), and every 255
 * walks the epoch wraps and the table is cleared once. The cone buffer
 * is left uninitialized, so only the slots walks actually fill become
 * resident. Both only grow, bounded by the largest subgraph (plus
 * bucket) the thread has priced.
 */
struct ConeScratch
{
    std::vector<std::uint8_t> stamp;
    std::uint8_t epoch = 0;
    std::unique_ptr<sampling::NodeId[]> cone;
    std::size_t cone_capacity = 0;

    void
    begin(std::size_t id_space, std::size_t capacity)
    {
        if (stamp.size() < id_space) {
            stamp.assign(id_space, 0);
            epoch = 0;
        }
        if (++epoch == 0) {
            std::fill(stamp.begin(), stamp.end(), 0);
            epoch = 1;
        }
        if (cone_capacity < capacity) {
            cone = std::make_unique_for_overwrite<sampling::NodeId[]>(capacity);
            cone_capacity = capacity;
        }
    }
};

/** Fewest buckets per parallel pricing chunk. */
constexpr std::size_t kPriceGrain = 4;

ConeScratch &
coneScratch()
{
    static thread_local ConeScratch scratch;
    return scratch;
}

} // namespace

BucketMemEstimator::BucketMemEstimator(const nn::MemoryModel &model,
                                       const SampledSubgraph &sg,
                                       util::ThreadPool *pool)
    : model_(model), sg_(sg), pool_(pool)
{
    checkArgument(model.config().num_layers == sg.numLayers(),
                  "BucketMemEstimator: model depth != sampled depth");
}

void
BucketMemEstimator::price(BucketMemInfo &info) const
{
    const DegreeBucket &bucket = info.bucket;
    info.outputs = bucket.volume();
    info.degree = static_cast<double>(bucket.degree);

    // Walk the bucket's dependency cone top-down over the sampled
    // adjacency, counting destinations and message edges per layer.
    // The cone only grows: each layer's destinations are its prefix
    // cone[0, frontier), and newly reached sources are appended behind
    // them. The append is branch-free — every neighbor is written to
    // the next slot, which only advances for an unseen one — because
    // whether a neighbor is new is close to random and a branch on it
    // mispredicts. The buffer holds the members plus every other node,
    // plus the one slot a write past the last new node may touch.
    const std::size_t id_space = sg_.nodes().size();
    ConeScratch &scratch = coneScratch();
    scratch.begin(id_space, id_space + bucket.members.size() + 1);
    std::uint8_t *stamp = scratch.stamp.data();
    const std::uint8_t epoch = scratch.epoch;
    sampling::NodeId *cone = scratch.cone.get();
    std::size_t end = 0;
    for (sampling::NodeId v : bucket.members) {
        cone[end++] = v;
        stamp[v] = epoch;
    }

    std::uint64_t est = 0;
    for (int layer = sg_.numLayers() - 1; layer >= 0; --layer) {
        const auto &adjacency = sg_.layerAdjacency(layer);
        const std::size_t frontier = end;
        std::uint64_t edges = 0;
        for (std::size_t i = 0; i < frontier; ++i) {
            auto nbrs = adjacency.neighbors(cone[i]);
            edges += nbrs.size();
            for (sampling::NodeId u : nbrs) {
                cone[end] = u;
                end += stamp[u] != epoch;
                stamp[u] = epoch;
            }
        }
        est += model_.layerActivationBytesFromCounts(layer, frontier,
                                                     edges, end);
    }
    info.inputs = end;
    est += model_.inputFeatureBytes(info.inputs);
    // Output logits + their gradient.
    est += static_cast<std::uint64_t>(
        2.0 * static_cast<double>(info.outputs) *
        model_.config().num_classes * 4.0);
    info.est_bytes = est;
}

BucketMemInfo
BucketMemEstimator::estimateBucket(const DegreeBucket &bucket) const
{
    BucketMemInfo info;
    info.bucket = bucket;
    price(info);
    return info;
}

std::vector<BucketMemInfo>
BucketMemEstimator::estimate(BucketList buckets) const
{
    std::vector<BucketMemInfo> infos(buckets.size());
    for (std::size_t i = 0; i < buckets.size(); ++i)
        infos[i].bucket = std::move(buckets[i]);
    util::ThreadPool &pool =
        pool_ ? *pool_ : util::ThreadPool::global();
    if (pool.size() <= 1 || util::ThreadPool::inPoolTask()) {
        for (BucketMemInfo &info : infos)
            price(info);
        return infos;
    }
    // A walk costs microseconds, so buckets go out in a few large
    // contiguous chunks (at least kPriceGrain buckets, at most one per
    // worker): fewer hand-offs, and short lists stay on this thread.
    util::ParallelForOptions opts;
    opts.grain = kPriceGrain;
    opts.max_chunks = pool.size();
    pool.parallelFor(0, infos.size(), opts,
                     [&](std::size_t i) { price(infos[i]); });
    return infos;
}

RedundancyAwareMemEstimator::RedundancyAwareMemEstimator(
    double clustering_coefficient)
    : c_(std::max(clustering_coefficient, 1e-3))
{
}

double
RedundancyAwareMemEstimator::groupingRatio(
    const BucketMemInfo &info) const
{
    if (info.outputs == 0 || info.degree <= 0.0)
        return 1.0;
    const double ratio =
        static_cast<double>(info.inputs) /
        (static_cast<double>(info.outputs) * info.degree * c_);
    return std::min(1.0, ratio);
}

std::uint64_t
RedundancyAwareMemEstimator::estimateGroup(
    const std::vector<const BucketMemInfo *> &group) const
{
    double total = 0.0;
    std::uint64_t largest = 0;
    for (const BucketMemInfo *info : group) {
        total += static_cast<double>(info->est_bytes) *
                 groupingRatio(*info);
        largest = std::max(largest, info->est_bytes);
    }
    // Eq. 2 discounts each member for cross-member redundancy, but
    // per-bucket estimates are already deduplicated within their own
    // cone — a group can never cost less than its heaviest member.
    return std::max(static_cast<std::uint64_t>(total), largest);
}

} // namespace buffalo::core
