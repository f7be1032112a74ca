/**
 * @file
 * Buffalo's analytical memory estimation (paper §IV-D).
 *
 * BucketMemEstimator computes, once per batch, each output-layer
 * bucket's standalone memory estimate M_est[i] together with the
 * quantities Eq. 1 needs (I_i input nodes, O_i output nodes, D_i
 * degree). RedundancyAwareMemEstimator then prices any *group* of
 * buckets with the redundancy-aware grouping ratio
 *
 *     R_group[i] = min(1, I_i / (O_i * D_i * C))          (Eq. 1)
 *     M_group    = sum_i M_est[i] * R_group[i]            (Eq. 2)
 *
 * where C is the graph's average clustering coefficient. The group
 * estimator is O(|group|) per call, which is what keeps the greedy
 * grouping loop of Algorithm 4 cheap.
 */
#pragma once

#include <vector>

#include "nn/memory_model.h"
#include "sampling/bucketing.h"
#include "sampling/sampled_subgraph.h"
#include "util/thread_pool.h"

namespace buffalo::core {

using sampling::BucketList;
using sampling::DegreeBucket;
using sampling::NodeList;
using sampling::SampledSubgraph;

/** Per-bucket quantities produced during bucketing (paper §IV-D). */
struct BucketMemInfo
{
    DegreeBucket bucket;
    /** I_i: unique input-layer nodes in the bucket's L-hop cone. */
    std::uint64_t inputs = 0;
    /** O_i: bucket volume (output nodes). */
    std::uint64_t outputs = 0;
    /** D_i: the bucket's output-layer degree. */
    double degree = 0.0;
    /** M_est[i]: standalone training bytes of this bucket's cone. */
    std::uint64_t est_bytes = 0;

    bool operator==(const BucketMemInfo &) const = default;
};

/**
 * Computes per-bucket standalone memory estimates.
 *
 * Pricing a bucket is a pure function of the bucket and the subgraph,
 * so a list of buckets is priced on a thread pool with each result
 * written at its bucket's index: the output is byte-identical at any
 * worker count. Each thread walks cones over one reused, epoch-stamped
 * visited table sized by the subgraph (no per-walk allocation).
 */
class BucketMemEstimator
{
  public:
    /**
     * @param model The shared analytic model (see nn/memory_model.h).
     * @param sg The batch subgraph (provides the sampled adjacency the
     *           cone walk runs over).
     * @param pool Pool that prices bucket lists; null uses the
     *             process-global pool. Calls made from inside a pool
     *             task price serially, like the compute kernels, so a
     *             pipeline stage never takes workers from compute.
     */
    BucketMemEstimator(const nn::MemoryModel &model,
                       const SampledSubgraph &sg,
                       util::ThreadPool *pool = nullptr);

    /**
     * Prices every bucket in @p buckets (one cone walk each), in
     * parallel; result i belongs to bucket i. The cone walk touches
     * each sampled edge at most once per bucket, so the total cost is
     * the same order as one block generation — no tensor work.
     */
    std::vector<BucketMemInfo> estimate(BucketList buckets) const;

    /** Prices one bucket on the calling thread. */
    BucketMemInfo estimateBucket(const DegreeBucket &bucket) const;

  private:
    /** Fills @p info's counts and estimate from its bucket. */
    void price(BucketMemInfo &info) const;

    const nn::MemoryModel &model_;
    const SampledSubgraph &sg_;
    util::ThreadPool *pool_;
};

/** Redundancy-aware group pricing (Eq. 1 + Eq. 2). */
class RedundancyAwareMemEstimator
{
  public:
    /**
     * @param clustering_coefficient The graph's average clustering
     *        coefficient C; clamped away from zero.
     */
    explicit RedundancyAwareMemEstimator(double clustering_coefficient);

    /** R_group[i] of Eq. 1 for one bucket. */
    double groupingRatio(const BucketMemInfo &info) const;

    /** Eq. 2 over a group of buckets. */
    std::uint64_t estimateGroup(
        const std::vector<const BucketMemInfo *> &group) const;

    /** The clamped C in use. */
    double clusteringCoefficient() const { return c_; }

  private:
    double c_;
};

} // namespace buffalo::core
