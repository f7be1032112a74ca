/**
 * @file
 * The unified trainer reporting API (DESIGN.md, "Observability").
 *
 * Every trainer — WholeBatch, Buffalo, Betty, and the pipelined
 * Buffalo — returns one EpochReport per epoch from trainEpoch(), so
 * benches and tools aggregate a single shape regardless of which
 * pipeline produced it. Pipeline-only sections (stages, cache, the
 * overlap model) are zero-filled for serial trainers and `pipelined`
 * says which path ran.
 *
 * This header is deliberately light (no trainer machinery) so the
 * pipeline layer can share PipelineOptions without pulling in the
 * model stack.
 */
#pragma once

#include <cstdint>
#include <functional>

#include "obs/audit.h"
#include "obs/critical_path.h"
#include "obs/phase.h"

namespace buffalo::train {

/**
 * Which hot-set policy a feature cache pins with (DESIGN.md,
 * "Pipeline & feature cache"). Lives in this deliberately light
 * header so the train, pipeline, and serve layers can all name a
 * policy without pulling in the cache machinery; the implementations
 * are in pipeline/cache_policy.h.
 */
enum class CachePolicyKind
{
    /** No pinned hot set; pure LRU admission. */
    LruOnly,
    /** Pin the highest in-degree nodes (the BGL hub insight). */
    Degree,
    /**
     * Pin the nodes most frequently touched by a startup presample
     * pass that runs the real sampler (the FGNN insight: measured
     * frequency for this sampler + dataset beats static degree).
     */
    PresampleFrequency,
};

/**
 * Pipeline knobs, carried inside TrainerOptions. Consumed by the
 * pipeline::PipelineTrainer / Prefetcher; serial trainers ignore them.
 */
struct PipelineOptions
{
    /** Run the asynchronous prefetch pipeline at all (CLI --pipeline). */
    bool enabled = false;
    /** Batches prepared ahead of training (per-queue capacity). */
    int prefetch_depth = 2;
    /**
     * Host bytes prepared-but-unconsumed batches may pin (staged
     * features + block structures + sampled CSRs); 0 = unlimited.
     */
    std::uint64_t host_memory_budget = 0;
    /** Feature cache byte budget; 0 disables the cache. */
    std::uint64_t feature_cache_bytes = 0;
    /**
     * Cap on nodes the cache policy may pin permanently; 0 lets the
     * policy pin up to the cache capacity (LRU-only never pins).
     */
    std::size_t pinned_hot_nodes = 0;
    /** Hot-set selection policy (CLI --cache-policy). */
    CachePolicyKind cache_policy = CachePolicyKind::Degree;
    /** Micro-batches the presample pass runs (--presample-batches). */
    int presample_batches = 8;
};

/**
 * Feature-cache counter snapshot (pipeline::FeatureCache::stats()) and
 * the cache section of an EpochReport (pipelined runs only). Rates
 * are derived; all counts are monotonic.
 */
struct FeatureCacheStats
{
    /** Policy name ("lru" | "degree" | "presample"); "" = no cache. */
    const char *policy = "";
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t pinned_nodes = 0;
    std::uint64_t resident_nodes = 0;
    std::uint64_t bytes_in_use = 0;
    std::uint64_t capacity_bytes = 0;

    /** hits / (hits + misses), 0 when never queried. */
    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0
                   ? 0.0
                   : static_cast<double>(hits) /
                         static_cast<double>(total);
    }
};

/** Prefetch-stage section of an EpochReport (pipelined runs only). */
struct StageReport
{
    /** Measured busy seconds of each preparation stage. */
    double sample_busy_seconds = 0.0;
    double build_busy_seconds = 0.0;
    double feature_busy_seconds = 0.0;
    std::size_t max_sampled_queue = 0;
    std::size_t max_built_queue = 0;
    std::size_t max_ready_queue = 0;
    std::uint64_t peak_host_bytes = 0;
};

/** One epoch's aggregate result, common to every trainer. */
struct EpochReport
{
    /** Mean per-batch loss (valid in Numeric mode). */
    double mean_loss = 0.0;
    /** Top-1 training accuracy (Numeric mode). */
    double accuracy = 0.0;
    double loss_sum = 0.0;
    std::size_t correct = 0;
    std::size_t outputs = 0;
    int num_batches = 0;
    int num_micro_batches = 0;

    /** Per-phase seconds summed across the epoch's iterations, each
     *  clock (measured, modeled) kept apart; phases.modeledSeconds()
     *  is the epoch's modeled device time. */
    obs::PhaseTimes phases;
    /** Measured host wall-clock of the epoch loop. */
    double wall_seconds = 0.0;

    /** True when the prefetch pipeline produced this epoch. */
    bool pipelined = false;

    std::uint64_t transfer_bytes = 0;
    std::uint64_t transfer_saved_bytes = 0;
    std::uint64_t peak_device_bytes = 0;

    StageReport stages;
    /** Cache counters since the trainer was built (the cache outlives
     *  epochs); transfer_saved_bytes covers this epoch only. */
    FeatureCacheStats cache;
    /**
     * Predicted-vs-actual memory accounting over the epoch's trained
     * bucket groups (DESIGN.md, "Memory audit & bench regression").
     * Populated by trainers that schedule against the estimator
     * (Buffalo serial + pipelined); zero-group for the baselines.
     */
    obs::MemoryAuditSummary mem_audit;
    /**
     * The epoch's overlap model and its critical-path decomposition
     * (DESIGN.md, "Critical-path attribution"): the per-batch rows
     * run through the pipeline recurrence with the queue capacities
     * as the window, giving the overlapped wall, the serial sum,
     * per-stage self time, the dominant stage and the unwindowed
     * what-if bounds. Its lanes mix the clocks: the sample, build and
     * feature stages are measured host seconds, the device lane is
     * modeled. Populated by the pipelined trainer; empty (items == 0)
     * for serial runs.
     */
    obs::CriticalPathReport cp;
};

/**
 * Callback invoked after each trained epoch (TrainerOptions::
 * epoch_observer): @p epoch is 0-based and counts every epoch the
 * trainer instance has run. Hook point for metrics sinks and progress
 * reporting; must not retain the reference past the call.
 */
using EpochObserver =
    std::function<void(int epoch, const EpochReport &)>;

} // namespace buffalo::train
