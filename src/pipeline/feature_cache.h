/**
 * @file
 * Redundancy-aware feature cache.
 *
 * Buffalo's grouping ratio R_group (paper Eq. 1-2) quantifies exactly
 * how many input nodes adjacent micro-batches share; every shared node
 * whose feature row is still device-resident needs no host->device
 * re-transfer. The cache models that resident set: an LRU keyed by
 * global node id, with an optional *pinned* hot set that is never
 * evicted. Which nodes deserve pinning is delegated to a pluggable
 * CachePolicy (cache_policy.h): highest in-degree (BGL's hub
 * insight), presample-frequency (FGNN's measured ranking), or none
 * (pure LRU).
 *
 * Two payload modes share the accounting: in numeric execution the
 * cache stores the actual rows (hits skip dataset.fillFeatures); in
 * cost-model execution it stores presence only, so capacity, hits,
 * and evictions behave identically without the float traffic.
 */
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/datasets.h"
#include "graph/types.h"
#include "pipeline/cache_policy.h"
#include "tensor/tensor.h"
#include "train/report.h"
#include "util/thread_annotations.h"

namespace buffalo::pipeline {

/** Cache configuration. */
struct FeatureCacheOptions
{
    /** Byte budget for cached rows; 0 disables the cache entirely. */
    std::uint64_t capacity_bytes = 0;
    /** Feature row width, floats (== dataset.featureDim()). */
    int feature_dim = 0;
    /** Store row payloads (numeric mode) or presence only (cost model). */
    bool store_payload = true;
    /** Hot-set policy; null defaults to DegreePolicy. */
    std::shared_ptr<const CachePolicy> policy;
};

/** Counter snapshot, shared with EpochReport (train/report.h). */
using train::FeatureCacheStats;

/**
 * Thread-safe LRU feature-row cache with a policy-selected pinned hot
 * set. All methods are safe to call concurrently from prefetch
 * workers.
 */
class FeatureCache
{
  public:
    explicit FeatureCache(const FeatureCacheOptions &options);

    /** False when capacity is 0 or the row width is larger than it. */
    bool enabled() const { return enabled_; }

    /** Bytes one cached row occupies. */
    std::uint64_t rowBytes() const { return row_bytes_; }

    /** Rows that fit under the capacity. */
    std::uint64_t capacityRows() const;

    /** The installed hot-set policy (never null once constructed). */
    std::shared_ptr<const CachePolicy> policy() const
        BUFFALO_EXCLUDES(mutex_);

    /**
     * Replaces the hot-set policy. Call before pinHotSet(); already
     * pinned rows are unaffected.
     */
    void setPolicy(std::shared_ptr<const CachePolicy> policy)
        BUFFALO_EXCLUDES(mutex_);

    /**
     * Permanently pins the policy's hot set for @p dataset: up to
     * @p max_pinned nodes (0 = up to the cache capacity; always
     * capped by it), in the policy's ranking order. Pinned rows are
     * filled from the dataset immediately (payload mode) and are
     * never evicted. A policy may rank fewer nodes than the budget
     * (LRU-only ranks none); the rest of the capacity serves LRU
     * admission.
     */
    void pinHotSet(const graph::Dataset &dataset,
                   std::size_t max_pinned) BUFFALO_EXCLUDES(mutex_);

    /**
     * Looks @p node up, refreshing its LRU position. On a payload-mode
     * hit the row is copied into @p out when non-empty (@p out must
     * then hold feature_dim floats).
     * @return true on hit.
     */
    bool lookup(graph::NodeId node, std::span<float> out)
        BUFFALO_EXCLUDES(mutex_);

    /**
     * Inserts @p node's row (ignored if already resident or the cache
     * is disabled), evicting least-recently-used unpinned rows to make
     * room. @p row may be empty in presence-only mode.
     */
    void insert(graph::NodeId node, std::span<const float> row)
        BUFFALO_EXCLUDES(mutex_);

    /**
     * Counter snapshot, taken as one consistent read under the cache
     * mutex: hits + misses equals the number of lookups even while
     * workers mutate the cache.
     */
    FeatureCacheStats stats() const BUFFALO_EXCLUDES(mutex_);

  private:
    struct Entry
    {
        std::vector<float> row;
        /** Position in lru_ (valid only when !pinned). */
        std::list<graph::NodeId>::iterator lru_pos;
        bool pinned = false;
    };

    void evictUntilFitsLocked(std::uint64_t needed_bytes)
        BUFFALO_REQUIRES(mutex_);

    /** Immutable after construction. */
    FeatureCacheOptions options_;
    std::uint64_t row_bytes_ = 0;
    bool enabled_ = false;

    mutable util::Mutex mutex_;
    /** Hot-set policy; replaced by setPolicy() before pinning, read
     *  by pinHotSet()/stats() — guarded so a concurrent stats() call
     *  can never observe a half-swapped pointer. */
    std::shared_ptr<const CachePolicy> policy_
        BUFFALO_GUARDED_BY(mutex_);
    std::unordered_map<graph::NodeId, Entry> entries_
        BUFFALO_GUARDED_BY(mutex_);
    /** Unpinned residents, most recent at the front. */
    std::list<graph::NodeId> lru_ BUFFALO_GUARDED_BY(mutex_);
    std::uint64_t bytes_in_use_ BUFFALO_GUARDED_BY(mutex_) = 0;
    std::uint64_t hits_ BUFFALO_GUARDED_BY(mutex_) = 0;
    std::uint64_t misses_ BUFFALO_GUARDED_BY(mutex_) = 0;
    std::uint64_t insertions_ BUFFALO_GUARDED_BY(mutex_) = 0;
    std::uint64_t evictions_ BUFFALO_GUARDED_BY(mutex_) = 0;
    std::uint64_t pinned_count_ BUFFALO_GUARDED_BY(mutex_) = 0;
};

/**
 * Stages the feature rows of @p nodes through @p cache into
 * @p features (|nodes| x featureDim(), node i in row i): a row the
 * cache holds is copied from it, any other is filled from @p dataset
 * and inserted. With a null @p cache this is train::loadFeatures; with
 * a null @p features only cache presence is tracked (cost model).
 * Features are deterministic in (dataset seed, node), so a served row
 * is bitwise the one a fresh fill writes.
 * @return rows the cache served.
 */
std::uint64_t stageThroughCache(FeatureCache *cache,
                                const graph::Dataset &dataset,
                                const graph::NodeList &nodes,
                                tensor::Tensor *features);

/** Publishes @p stats as the cache.* gauges of the metrics registry. */
void publishCacheGauges(const FeatureCacheStats &stats);

} // namespace buffalo::pipeline
