/**
 * @file
 * Bucket split and memory-balanced grouping (paper §IV-C, Algorithm 4).
 *
 * SplitExplosionBucket evenly splits the explosion (cut-off) bucket into
 * micro-buckets. MemBalancedGrouping treats each (micro-)bucket as a
 * bin-packing item whose weight is its memory estimate, and greedily
 * packs items largest-first into the currently lightest of K groups
 * under the redundancy-aware group estimator, failing if any group
 * exceeds the memory constraint.
 */
#pragma once

#include <vector>

#include "core/mem_estimator.h"

namespace buffalo::core {

/** One bucket group: members plus its redundancy-aware estimate. */
struct BucketGroup
{
    std::vector<BucketMemInfo> buckets;
    std::uint64_t est_bytes = 0;
    /**
     * Effective R_group discount the estimator applied to the group:
     * est_bytes / sum of the members' standalone M_est[i] (Eq. 1-2).
     * 1.0 for a single-bucket group or under the linear estimator.
     */
    double mean_grouping_ratio = 1.0;

    /** Union of member buckets' output seeds (subgraph-local ids). */
    NodeList outputSeeds() const;

    /** Total output nodes across member buckets. */
    std::uint64_t outputCount() const;

    bool operator==(const BucketGroup &) const = default;
};

/**
 * Evenly splits @p bucket into @p pieces micro-buckets (paper's
 * SplitExplosionBucket), dealing members round-robin. Every piece
 * keeps the original degree; member counts differ by at most one. The
 * piece count is clamped to the volume (to one piece for an empty
 * bucket), so no piece comes back empty unless the bucket is.
 */
std::vector<DegreeBucket> splitExplosionBucket(
    const DegreeBucket &bucket, int pieces);

/** Result of one MemBalancedGrouping attempt. */
struct GroupingResult
{
    bool success = false;
    std::vector<BucketGroup> groups;
    /** Largest group estimate seen (diagnostic, set even on failure). */
    std::uint64_t max_group_bytes = 0;
};

/** Grouping heuristics for the ablation bench. */
enum class GroupingPolicy
{
    /** Paper's Algorithm 4: sort desc, place into lightest group. */
    LargestFirstBalanced,
    /** First-fit-decreasing: place into first group that fits. */
    FirstFit,
};

/**
 * Algorithm 4. Packs @p infos into @p num_groups groups whose
 * redundancy-aware estimates must each stay within @p mem_constraint.
 *
 * @param estimator Prices candidate groups (Eq. 1-2).
 * @param reserved_bytes Static bytes (weights, grads, optimizer state)
 *        subtracted from the constraint before packing.
 */
GroupingResult memBalancedGrouping(
    const std::vector<BucketMemInfo> &infos, int num_groups,
    std::uint64_t mem_constraint,
    const RedundancyAwareMemEstimator &estimator,
    std::uint64_t reserved_bytes = 0,
    GroupingPolicy policy = GroupingPolicy::LargestFirstBalanced);

} // namespace buffalo::core
