/**
 * @file
 * The Buffalo Scheduler (paper Algorithm 3).
 *
 * Given a sampled batch, the aggregation depth (implied by the batch),
 * and a device memory constraint, the scheduler:
 *   1. degree-buckets the output layer,
 *   2. detects bucket explosion,
 *   3. for K = 1, 2, ...: splits the explosion bucket into K
 *      micro-buckets and runs MemBalancedGrouping,
 *   4. stops at the first K whose groups all fit the constraint,
 *   5. hands the groups to the MicroBatchGenerator.
 *
 * Partitioning happens at the *output layer* (paper §IV-B): output
 * nodes are disjoint across groups, so gradient accumulation across
 * micro-batches is exact and activations are released per group.
 */
#pragma once

#include <vector>

#include "core/grouping.h"
#include "core/mem_estimator.h"

namespace buffalo::core {

/** Scheduler knobs. */
struct SchedulerOptions
{
    /** Hard device memory constraint M_ctr, bytes. */
    std::uint64_t mem_constraint = 0;
    /** Bytes reserved for weights/grads/optimizer before activations. */
    std::uint64_t reserved_bytes = 0;
    /** Give up past this many groups. */
    int max_groups = 4096;
    /** Explosion detection threshold (see findExplosionBucket). */
    double explosion_threshold = 2.0;
    /** Grouping heuristic (ablation hook). */
    GroupingPolicy policy = GroupingPolicy::LargestFirstBalanced;
    /** Disable the split step entirely (ablation hook). */
    bool enable_split = true;
    /** Use the redundancy-aware estimator; false sums linearly
     *  (ablation hook; the paper's estimator is redundancy-aware). */
    bool redundancy_aware = true;
    /** Fraction of the activation budget the scheduler actually packs
     *  against; the rest is headroom for estimation error and
     *  allocator transients (analogous to CUDA allocator slack). */
    double safety_factor = 0.82;
};

/** Scheduler output: a valid K-way bucket-group plan. */
struct ScheduleResult
{
    /** Number of micro-batches K. */
    int num_groups = 0;
    std::vector<BucketGroup> groups;
    /** True if the whole batch fit as one group (no partitioning). */
    bool single_group = false;
    /** True if an explosion bucket was detected and split. */
    bool explosion_detected = false;
    /** Wall-clock seconds the scheduling took. */
    double schedule_seconds = 0.0;
};

/** Algorithm 3: turns a batch into memory-safe bucket groups. */
class BuffaloScheduler
{
  public:
    /**
     * @param model The analytic memory model for the GNN config.
     * @param clustering_coefficient Average clustering coefficient of
     *        the input graph (offline statistic, paper §IV-D).
     * @param pool Pool that prices bucket lists (see
     *        BucketMemEstimator); null uses the process-global pool.
     *        The schedule is byte-identical for every pool.
     */
    BuffaloScheduler(const nn::MemoryModel &model,
                     double clustering_coefficient,
                     const SchedulerOptions &options,
                     util::ThreadPool *pool = nullptr);

    /**
     * Schedules @p sg into bucket groups. Throws DeviceOom-agnostic
     * InvalidArgument when even max_groups groups cannot satisfy the
     * constraint.
     */
    ScheduleResult schedule(const SampledSubgraph &sg) const;

    const SchedulerOptions &options() const { return options_; }

  private:
    const nn::MemoryModel &model_;
    RedundancyAwareMemEstimator redundancy_estimator_;
    RedundancyAwareMemEstimator linear_estimator_;
    SchedulerOptions options_;
    util::ThreadPool *pool_;
};

} // namespace buffalo::core
