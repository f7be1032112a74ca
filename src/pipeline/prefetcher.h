/**
 * @file
 * Asynchronous micro-batch preparation (DESIGN.md, "Pipeline & feature
 * cache").
 *
 * The serial trainers interleave host-side preparation (sampling,
 * Buffalo scheduling, block generation, feature materialization) with
 * device execution, so preparation time adds to, instead of hiding
 * behind, simulated device compute — the paper's §V-G bottleneck. The
 * Prefetcher runs those four stages for batches i+1..i+depth on
 * util::ThreadPool workers while the trainer consumes batch i:
 *
 *   sample ──q──▶ build (schedule + blocks) ──q──▶ features ──q──▶ next()
 *
 * Stages are connected by bounded StageQueues (item backpressure) and
 * a ByteBudget (host-memory backpressure). Sampling runs on a single
 * in-order worker that owns the caller's Rng, so the random stream is
 * consumed in exactly the serial batch order — this is what keeps the
 * pipelined trainer bitwise-identical to the serial one.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/micro_batch_generator.h"
#include "core/scheduler.h"
#include "graph/datasets.h"
#include "nn/memory_model.h"
#include "obs/queue_telemetry.h"
#include "pipeline/feature_cache.h"
#include "pipeline/stage_queue.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/tensor.h"
#include "train/report.h"
#include "train/trainer.h"
#include "util/rng.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace buffalo::pipeline {

/** Pipeline knobs now live in TrainerOptions (train/report.h). */
using train::PipelineOptions;
/** What the trainer consumes per micro-batch (train/trainer.h). */
using train::PreparedMicroBatch;

/**
 * Micro-batch generator tuned for running inside the pipeline: block
 * generation executes on a prefetcher stage worker while the sampling
 * and feature stages compete for the process-global kernel pool, so
 * its intra-stage fan-out uses coarser grain hints than the serial
 * trainer's default (fewer, larger chunks — less queue pressure on
 * the shared pool, identical output bytes for any grain).
 */
core::MicroBatchGenerator makePipelineGenerator();

/** One fully prepared training batch, in submission order. */
struct PreparedBatch
{
    std::size_t index = 0;
    /** Kept so OOM recovery can re-schedule without re-sampling. */
    sampling::SampledSubgraph sg;
    core::ScheduleResult schedule;
    std::vector<PreparedMicroBatch> micro;
    /** Host bytes charged against the ByteBudget until release(). */
    std::uint64_t staged_bytes = 0;
    /** Preparation phases (sampling/scheduling/block gen), measured. */
    obs::PhaseTimes phases;
    /** Per-stage busy seconds, for the pipeline overlap model. */
    double sample_seconds = 0.0;
    double build_seconds = 0.0;
    double feature_seconds = 0.0;
};

/** Runs the three preparation stages on a private util::ThreadPool. */
class Prefetcher
{
  public:
    /**
     * Starts preparing @p batches immediately.
     *
     * @param stage_features Materialize host feature tensors (numeric
     *        execution); the cost model only tracks cache presence.
     * @param cache Optional shared feature cache (may be null).
     * @param rng Consumed *only* by the sampling stage, in batch
     *        order; the caller must not use it until the epoch ends.
     *        All other references must outlive the Prefetcher.
     */
    Prefetcher(const graph::Dataset &dataset,
               std::vector<graph::NodeList> batches,
               const std::vector<int> &fanouts,
               const nn::MemoryModel &memory_model,
               const core::SchedulerOptions &scheduler_options,
               bool stage_features, const PipelineOptions &options,
               FeatureCache *cache, util::Rng &rng);

    /** Cancels outstanding work and joins the stage workers. */
    ~Prefetcher();

    Prefetcher(const Prefetcher &) = delete;
    Prefetcher &operator=(const Prefetcher &) = delete;

    /**
     * Blocks for the next prepared batch, in submission order.
     * @return std::nullopt when every batch has been delivered.
     * @throws whatever a preparation stage threw (first error wins).
     */
    std::optional<PreparedBatch> next();

    /**
     * Returns @p batch's staged bytes to the host budget. Call after
     * the batch has been trained (its tensors may be freed then too).
     */
    void release(const PreparedBatch &batch);

    /** Stage busy times, queue high-water marks and peak host bytes
     *  so far. */
    train::StageReport stats() const BUFFALO_EXCLUDES(stats_mutex_);

    /**
     * Depth probes for the three stage queues ("sampled", "built",
     * "ready"), for an obs::QueueDepthSampler. The probes read live
     * queue state, so stop the sampler before this Prefetcher dies.
     */
    std::vector<obs::QueueDepthProbe> depthProbes();

  private:
    struct SampledItem
    {
        std::size_t index = 0;
        sampling::SampledSubgraph sg;
        /** Measured sampling seconds. */
        double seconds = 0.0;
    };

    void sampleStage(std::vector<graph::NodeList> batches,
                     util::Rng &rng);
    void buildStage();
    void featureStage();
    void failAll(std::exception_ptr error);

    /** Stages one micro-batch's features through the cache. */
    void stageFeatures(PreparedMicroBatch &pmb);

    const graph::Dataset &dataset_;
    const nn::MemoryModel &memory_model_;
    core::SchedulerOptions scheduler_options_;
    std::vector<int> fanouts_;
    bool stage_features_;
    PipelineOptions options_;
    FeatureCache *cache_;
    /** The caller's Rng, consumed only by the sampling stage. Held as
     * a member so the stage task does not capture a constructor-frame
     * reference. */
    util::Rng *rng_;
    core::MicroBatchGenerator generator_;

    StageQueue<SampledItem> sampled_;
    StageQueue<PreparedBatch> built_;
    StageQueue<PreparedBatch> ready_;
    ByteBudget budget_;

    mutable util::Mutex stats_mutex_;
    train::StageReport stats_ BUFFALO_GUARDED_BY(stats_mutex_);
    /** Host bytes currently staged. */
    std::uint64_t current_host_bytes_
        BUFFALO_GUARDED_BY(stats_mutex_) = 0;

    /** Owns the three stage workers; declared last so it is destroyed
     * (joining them) before the state they reference. Written only by
     * the constructor/destructor. */
    std::unique_ptr<util::ThreadPool> pool_; // buffalo-lint: allow(guarded-by)
};

} // namespace buffalo::pipeline
