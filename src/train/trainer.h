/**
 * @file
 * End-to-end training iteration pipelines:
 *
 *  - WholeBatchTrainer — paper Algorithm 1 (DGL-like whole-batch degree
 *    bucketing; optional PyG-like padding accounting). OOMs when the
 *    batch exceeds the device budget.
 *  - BuffaloTrainer — paper Algorithm 2: Buffalo scheduling, fast block
 *    generation, per-micro-batch forward/backward with gradient
 *    accumulation, one optimizer step per batch.
 *  - BettyTrainer — REG construction + METIS partitioning + baseline
 *    block generation, per the Betty pipeline Buffalo is compared to.
 *
 * Two execution fidelities (DESIGN.md): Numeric runs real kernels under
 * the device's tracking allocator; CostModel walks identical scheduling
 * and blocking code but charges analytic bytes/FLOPs, so paper-scale
 * shapes finish quickly on one CPU core. Device-side time is always
 * simulated via the device cost model; host-side phases are measured.
 */
#pragma once

#include <memory>
#include <optional>

#include "baselines/betty.h"
#include "core/micro_batch_generator.h"
#include "core/scheduler.h"
#include "device/device.h"
#include "graph/datasets.h"
#include "nn/optimizer.h"
#include "obs/audit.h"
#include "obs/phase.h"
#include "sampling/block_generator.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/kernels.h"
#include "train/model_adapter.h"
#include "train/report.h"
#include "util/rng.h"
#include "util/timer.h"

namespace buffalo::train {

using graph::NodeList;

/** The typed phase taxonomy shared with Fig. 5 / Fig. 11 benches. */
using obs::kAllPhases;
using obs::Phase;
using obs::phaseName;

/** Numeric = real kernels; CostModel = analytic charging only. */
enum class ExecutionMode { Numeric, CostModel };

/** Configuration shared by all trainers. */
struct TrainerOptions
{
    nn::ModelConfig model;
    ModelKind model_kind = ModelKind::Sage;
    /** Per-layer fanouts, input-most first; size == model.num_layers. */
    std::vector<int> fanouts;
    ExecutionMode mode = ExecutionMode::Numeric;
    double learning_rate = 3e-3;
    std::uint64_t seed = 42;
    /** Scheduler knobs (BuffaloTrainer only); mem_constraint defaults
     *  to the device capacity when 0. */
    core::SchedulerOptions scheduler;
    /** Prefetch/cache knobs (PipelineTrainer; serial trainers ignore). */
    PipelineOptions pipeline;
    /** Compute-kernel tunables (threads, tiles, grain). Installed
     *  process-wide at trainer construction; never affects numerics. */
    tensor::kernels::KernelConfig kernels;
    /** Invoked after every trainEpoch() with the finished report. */
    EpochObserver epoch_observer;
};

/** Kernel launches a micro-batch incurs on the device cost model. */
std::uint64_t kernelLaunchCount(const sampling::MicroBatch &mb);

/** Splits @p nodes into shuffled batches of @p batch_size. */
std::vector<NodeList> makeBatches(const NodeList &nodes,
                                  std::size_t batch_size,
                                  util::Rng &rng);

/**
 * One micro-batch a prefetch pipeline prepared ahead of time. The
 * trainer consumes its staged features instead of materializing them
 * inline, and discounts the charged host->device traffic by the bytes
 * a feature cache already held device-resident.
 */
struct PreparedMicroBatch
{
    sampling::MicroBatch mb;
    /** Host-staged features (numeric mode; empty in cost model, which
     *  never materializes numerics). */
    tensor::Tensor staged_features;
    /** Input rows served by the feature cache. */
    std::uint64_t cached_rows = 0;
    /** Host->device bytes those rows avoid re-transferring. */
    std::uint64_t saved_transfer_bytes = 0;
};

/** Outcome of one training iteration. */
struct IterationStats
{
    /** Per-phase seconds, measured and modeled kept apart. */
    obs::PhaseTimes phases;
    /** Whole-batch loss (valid only in Numeric mode). */
    double loss = 0.0;
    /** Correct top-1 predictions (Numeric mode). */
    std::size_t correct = 0;
    /** Output (seed) nodes processed. */
    std::size_t num_outputs = 0;
    int num_micro_batches = 1;
    /** Device allocator watermark during the iteration. */
    std::uint64_t peak_device_bytes = 0;
    /**
     * Per-trained-group predicted-vs-actual memory records (Buffalo
     * trainers only; empty for whole-batch/Betty). The same records
     * feed obs::memoryAudit(); this copy rolls up into
     * EpochReport::mem_audit.
     */
    std::vector<obs::GroupMemRecord> group_audit;

    /**
     * The iteration cost the Fig. 10/11/15 benches rank by: every
     * phase on both clocks, measured host + modeled device seconds.
     */
    double
    endToEndSeconds() const
    {
        return phases.measuredSeconds() + phases.modeledSeconds();
    }
};

/**
 * The one fold of an epoch's IterationStats into its EpochReport,
 * shared by the serial and the pipelined epoch loops. Construct it
 * right before the loop: it snapshots the device's transfer counters
 * and starts the wall clock.
 */
class EpochFold
{
  public:
    explicit EpochFold(const device::Device &device)
        : device_(device), bytes0_(device.transferredBytes()),
          saved0_(device.transferSavedBytes())
    {
    }

    /** Folds one trained batch in. */
    void add(const IterationStats &stats);

    /** Fills the wall time, transfer deltas, mean loss and accuracy. */
    EpochReport finish();

  private:
    const device::Device &device_;
    EpochReport report_;
    std::uint64_t bytes0_;
    std::uint64_t saved0_;
    util::StopWatch wall_;
};

/** Common machinery of the three pipelines. */
class TrainerBase
{
  public:
    TrainerBase(const TrainerOptions &options, device::Device &device);
    virtual ~TrainerBase();

    TrainerBase(const TrainerBase &) = delete;
    TrainerBase &operator=(const TrainerBase &) = delete;

    /** Runs one training iteration over @p seeds (global node ids). */
    virtual IterationStats trainIteration(const graph::Dataset &dataset,
                                          const NodeList &seeds,
                                          util::Rng &rng) = 0;

    /**
     * Trains one epoch over @p batches (in order) and returns the
     * unified report. Serial trainers iterate trainIteration; the
     * pipelined trainer overlaps preparation with device execution —
     * either way the same EpochReport shape comes back, the
     * TrainerOptions::epoch_observer hook fires, and @p rng ends in
     * the state a serial run over the same batches would leave it.
     */
    EpochReport trainEpoch(const graph::Dataset &dataset,
                           const std::vector<NodeList> &batches,
                           util::Rng &rng);

    /**
     * Convenience epoch: shuffles the dataset's train nodes into
     * batches of @p batch_size (via makeBatches) and trains them.
     */
    EpochReport trainEpoch(const graph::Dataset &dataset,
                           std::size_t batch_size, util::Rng &rng);

    /** Epochs this trainer has completed (drives observer indices). */
    int epochsRun() const { return epochs_run_; }

    GnnModel &model() { return *model_; }
    device::Device &device() { return device_; }
    const TrainerOptions &options() const { return options_; }

    /** Weights + grads + optimizer state, bytes. */
    std::uint64_t staticBytes() const { return static_bytes_; }

  protected:
    /**
     * The epoch strategy behind trainEpoch(): the default drives
     * trainIteration serially; PipelineTrainer substitutes the
     * prefetch pipeline. Implementations fill everything except the
     * observer call, which the public wrapper owns.
     */
    virtual EpochReport trainEpochImpl(
        const graph::Dataset &dataset,
        const std::vector<NodeList> &batches, util::Rng &rng);

    /** Samples the batch subgraph for @p seeds ("sampling" phase). */
    sampling::SampledSubgraph sampleBatch(const graph::Dataset &dataset,
                                          const NodeList &seeds,
                                          util::Rng &rng,
                                          obs::PhaseTimes &phases) const;

    /**
     * Transfers, computes, and backpropagates one micro-batch;
     * gradients accumulate in the model parameters.
     * @param batch_output_count Denominator for the loss so micro-batch
     *        gradients sum to the whole-batch gradient.
     * @param extra_padding_bytes Additional activation bytes charged
     *        during compute (PyG-like padding accounting).
     * @param prepared Optional prefetched inputs of @p mb; numeric
     *        values are bitwise-identical to the inline path, only the
     *        data-loading time/traffic accounting changes.
     */
    void processMicroBatch(const sampling::MicroBatch &mb,
                           const graph::Dataset &dataset,
                           std::size_t batch_output_count,
                           IterationStats &stats,
                           std::uint64_t extra_padding_bytes = 0,
                           double extra_padding_flops = 0.0,
                           const PreparedMicroBatch *prepared = nullptr);

    /** Applies the optimizer step (modeled "GPU compute" charged). */
    void optimizerStep(IterationStats &stats);

    TrainerOptions options_;
    device::Device &device_;
    std::unique_ptr<GnnModel> model_;
    std::unique_ptr<nn::Optimizer> optimizer_;
    std::uint64_t static_bytes_ = 0;
    bool static_bytes_charged_ = false;

  private:
    int epochs_run_ = 0;
};

/** Paper Algorithm 1: one block chain for the whole batch. */
class WholeBatchTrainer : public TrainerBase
{
  public:
    /**
     * @param padding_based PyG-like accounting: destinations padded to
     *        the block max degree instead of degree-bucketed.
     */
    WholeBatchTrainer(const TrainerOptions &options,
                      device::Device &device,
                      bool padding_based = false);

    IterationStats trainIteration(const graph::Dataset &dataset,
                                  const NodeList &seeds,
                                  util::Rng &rng) override;

  private:
    bool padding_based_;
    sampling::FastBlockGenerator generator_;
};

/** Paper Algorithm 2: Buffalo scheduling + micro-batch training. */
class BuffaloTrainer : public TrainerBase
{
  public:
    BuffaloTrainer(const TrainerOptions &options,
                   device::Device &device);

    IterationStats trainIteration(const graph::Dataset &dataset,
                                  const NodeList &seeds,
                                  util::Rng &rng) override;

    /** Scheduler options with capacity/reserved bytes filled in. */
    core::SchedulerOptions resolvedSchedulerOptions() const;

  protected:
    /** Builds micro-batch blocks with @p generator. */
    BuffaloTrainer(const TrainerOptions &options, device::Device &device,
                   core::MicroBatchGenerator generator);

    /** A batch's first attempt as a prefetch pipeline prepared it. */
    struct Prefetched
    {
        const core::ScheduleResult &schedule;
        /** One per schedule group, in group order. */
        const std::vector<PreparedMicroBatch> &micro;
    };

    /**
     * Trains the sampled batch @p sg (Algorithm 2 lines 1-12): one
     * schedule, then per bucket group block generation, training and a
     * predicted-vs-actual memory record, then one optimizer step. On
     * device OOM the attempt's gradients are discarded and the batch is
     * rescheduled inline from @p sg with a tighter safety factor, for
     * at most four attempts. Only the first attempt uses @p prefetched.
     * @param phases Time already spent preparing the batch.
     */
    IterationStats trainScheduled(const graph::Dataset &dataset,
                                  const sampling::SampledSubgraph &sg,
                                  const obs::PhaseTimes &phases,
                                  const Prefetched *prefetched = nullptr);

  private:
    core::MicroBatchGenerator generator_;
};

/** Betty: REG + METIS partitioning + baseline block generation. */
class BettyTrainer : public TrainerBase
{
  public:
    /**
     * @param num_micro_batches Fixed partition count (Betty sweeps
     *        this externally in the paper's figures).
     */
    BettyTrainer(const TrainerOptions &options, device::Device &device,
                 int num_micro_batches);

    IterationStats trainIteration(const graph::Dataset &dataset,
                                  const NodeList &seeds,
                                  util::Rng &rng) override;

    int numMicroBatches() const { return num_micro_batches_; }

  private:
    int num_micro_batches_;
    baselines::BettyPartitioner partitioner_;
    sampling::BaselineBlockGenerator generator_;
};

} // namespace buffalo::train
