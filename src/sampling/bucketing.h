/**
 * @file
 * Degree bucketing (paper §II-C).
 *
 * Nodes with identical sampled in-degree are grouped into a bucket so
 * DNN kernels see fixed-shape inputs without zero padding. Because the
 * fanout F caps sampled degrees, every node of original degree >= F
 * lands in the degree-F bucket — on power-law graphs that bucket
 * *explodes* (paper §III), which is the problem Buffalo's scheduler
 * solves by splitting and regrouping.
 */
#pragma once

#include <vector>

#include "sampling/block.h"
#include "sampling/sampled_subgraph.h"

namespace buffalo::sampling {

/** All destinations of one degree within a block or seed layer. */
struct DegreeBucket
{
    /** The common sampled in-degree of every member. */
    EdgeIndex degree = 0;
    /** Member destinations (block-local or subgraph-local ids). */
    NodeList members;

    /** Number of member nodes (the bucket volume). */
    NodeId volume() const { return static_cast<NodeId>(members.size()); }

    bool operator==(const DegreeBucket &) const = default;
};

/** A degree-sorted list of buckets. */
using BucketList = std::vector<DegreeBucket>;

/**
 * Buckets the destinations of @p block by sampled in-degree.
 * Returned buckets are sorted by ascending degree; empty degrees are
 * omitted. Member ids are block-local destination indices.
 */
BucketList bucketizeBlock(const Block &block);

/**
 * Buckets the *seed* nodes of @p sg by their sampled in-degree at the
 * output layer. This is DegreeBucketing(G, L) of Algorithm 3: Buffalo
 * partitions at the output layer, so the scheduler only ever buckets
 * seeds. Member ids are subgraph-local seed ids.
 */
BucketList bucketizeSeeds(const SampledSubgraph &sg);

/**
 * Returns the index within @p buckets of the explosion bucket, or -1 if
 * none. A bucket explodes when it is the cut-off (max degree) bucket
 * and its volume exceeds @p threshold times the mean volume of the
 * other buckets (paper §III; threshold 2 by default).
 */
int findExplosionBucket(const BucketList &buckets,
                        double threshold = 2.0);

} // namespace buffalo::sampling
