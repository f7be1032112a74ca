/**
 * @file
 * PipelineTrainer — Buffalo training with asynchronous micro-batch
 * preparation (DESIGN.md, "Pipeline & feature cache").
 *
 * Wraps the Algorithm-2 trainer: while the (simulated) device executes
 * batch i, a Prefetcher prepares batches i+1..i+depth on background
 * workers and a FeatureCache serves repeated input rows without
 * re-transfer. Only *when* preparation happens changes — the sampling
 * Rng stream, the schedules, the micro-batch order, and the gradient
 * accumulation of Algorithm 2 are identical to the serial path, so
 * losses and weights match BuffaloTrainer bitwise.
 *
 * Epochs run through the unified TrainerBase::trainEpoch API: this
 * class overrides the protected epoch strategy, so callers see the
 * same train::EpochReport the serial trainers produce, with the
 * pipeline-only sections (stages, cache, overlap model) filled in.
 * Pipeline knobs come from TrainerOptions::pipeline.
 */
#pragma once

#include <memory>
#include <vector>

#include "pipeline/feature_cache.h"
#include "pipeline/prefetcher.h"
#include "train/trainer.h"

namespace buffalo::pipeline {

/** Buffalo trainer with prefetching and feature caching. */
class PipelineTrainer : public train::BuffaloTrainer
{
  public:
    /** Pipeline knobs are read from @p options.pipeline. */
    PipelineTrainer(const train::TrainerOptions &options,
                    device::Device &device);

    /** The cross-epoch feature cache (disabled when budget is 0). */
    FeatureCache &featureCache() { return *cache_; }
    const FeatureCache &featureCache() const { return *cache_; }

  protected:
    /**
     * The pipelined epoch strategy behind trainEpoch(): overlaps
     * preparation with device execution. @p rng is handed to the
     * sampling stage and must not be used elsewhere until this
     * returns; afterwards its state equals the serial trainer's after
     * the same batches.
     */
    train::EpochReport trainEpochImpl(
        const graph::Dataset &dataset,
        const std::vector<graph::NodeList> &batches,
        util::Rng &rng) override;

  private:
    std::unique_ptr<FeatureCache> cache_;
    bool hot_set_pinned_ = false;
};

} // namespace buffalo::pipeline
