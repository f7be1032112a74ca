/**
 * @file
 * The traced run's trainer: one Buffalo training iteration made from
 * the same public calls BuffaloTrainer::trainIteration makes, with a
 * steady-clock span around each call into a layer. Its losses and
 * micro-batch counts must equal the untraced trainer's bitwise, which
 * the benchmark checks batch by batch.
 */
#pragma once

#include <cstdint>
#include <memory>

#include "core/micro_batch_generator.h"
#include "harness.h"
#include "nn/optimizer.h"
#include "train/model_adapter.h"

namespace perfbench {

/** Time inside each layer's calls, summed over traced batches. */
struct LayerTimes
{
    double sample_s = 0.0;    ///< NeighborSampler::sample
    double schedule_s = 0.0;  ///< BuffaloScheduler::schedule
    double blockgen_s = 0.0;  ///< MicroBatchGenerator::generateOne
    double account_s = 0.0;   ///< memory-model bytes/FLOPs + device charges
    double feature_s = 0.0;   ///< train::loadFeatures
    double forward_s = 0.0;   ///< GnnModel::forward
    double loss_s = 0.0;      ///< gatherLabels + nn::softmaxCrossEntropy
    double backward_s = 0.0;  ///< GnnModel::backward
    double optimizer_s = 0.0; ///< Optimizer::step + its device charge
    /** Wall time of whole traced batches, glue included. */
    double batch_wall_s = 0.0;

    std::uint64_t batches = 0;
    std::uint64_t micro_batches = 0;
    std::uint64_t sampled_nodes = 0;
    std::uint64_t block_nodes = 0;
    std::uint64_t gemm_calls = 0;
    std::uint64_t elementwise_calls = 0;

    /** Sum of the per-layer times. */
    double attributedSeconds() const;
};

/** Outcome of one traced batch. */
struct StepResult
{
    double loss = 0.0;
    int micro_batches = 0;
};

class TracedTrainer
{
  public:
    TracedTrainer(const Workload &w, const graph::Dataset &dataset,
                  std::uint64_t seed);
    ~TracedTrainer();

    TracedTrainer(const TracedTrainer &) = delete;
    TracedTrainer &operator=(const TracedTrainer &) = delete;

    /** Trains @p seeds with sampling randomness from @p rng. */
    StepResult step(const graph::NodeList &seeds, util::Rng &rng);

    const LayerTimes &times() const { return times_; }
    void resetTimes() { times_ = LayerTimes{}; }

  private:
    void trainMicroBatch(const sampling::MicroBatch &mb,
                         std::size_t batch_outputs, StepResult &result);

    const graph::Dataset &dataset_;
    train::TrainerOptions options_;
    device::Device device_;
    std::unique_ptr<train::GnnModel> model_;
    std::unique_ptr<nn::Optimizer> optimizer_;
    core::MicroBatchGenerator generator_;
    std::uint64_t static_bytes_ = 0;
    LayerTimes times_;
};

} // namespace perfbench
