#include "train/trainer.h"

#include <algorithm>

#include "baselines/padding.h"
#include "nn/loss.h"
#include "obs/audit.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/names.h"
#include "sampling/bucketing.h"
#include "train/feature_loader.h"
#include "util/errors.h"
#include "util/logging.h"

namespace buffalo::train {

std::uint64_t
kernelLaunchCount(const sampling::MicroBatch &mb)
{
    std::uint64_t launches = 0;
    for (const auto &block : mb.blocks) {
        const auto buckets = sampling::bucketizeBlock(block);
        // Per bucket: gather, aggregate fwd, aggregate bwd, scatter.
        launches += buckets.size() * 4;
        // Per layer: update matmul fwd + 2 bwd + activation.
        launches += 4;
    }
    return launches;
}

std::vector<NodeList>
makeBatches(const NodeList &nodes, std::size_t batch_size,
            util::Rng &rng)
{
    checkArgument(batch_size >= 1, "makeBatches: batch_size >= 1");
    NodeList shuffled = nodes;
    rng.shuffle(shuffled);
    std::vector<NodeList> batches;
    for (std::size_t begin = 0; begin < shuffled.size();
         begin += batch_size) {
        const std::size_t end =
            std::min(shuffled.size(), begin + batch_size);
        batches.emplace_back(shuffled.begin() + begin,
                             shuffled.begin() + end);
    }
    return batches;
}

TrainerBase::TrainerBase(const TrainerOptions &options,
                         device::Device &device)
    : options_(options), device_(device)
{
    options_.model.validate();
    checkArgument(options_.fanouts.size() ==
                      static_cast<std::size_t>(options_.model.num_layers),
                  "TrainerBase: fanouts must match model depth");
    // Kernel tunables are process-wide (the tensor layer has no
    // per-trainer state); the last trainer constructed wins, which is
    // the right answer for every CLI / test we have.
    tensor::kernels::setConfig(options_.kernels);

    // Numeric mode keeps weights/optimizer state under the device
    // allocator for byte-exact accounting; cost-model mode charges the
    // same bytes logically so OOM behaviour matches.
    nn::AllocationObserver *param_observer =
        options_.mode == ExecutionMode::Numeric ? &device_.allocator()
                                                : nullptr;
    model_ = makeModel(options_.model_kind, options_.model,
                       options_.seed, param_observer);
    optimizer_ = std::make_unique<nn::Adam>(
        model_->module().parameters(), options_.learning_rate, 0.9,
        0.999, 1e-8, param_observer);

    const nn::MemoryModel &mm = model_->memoryModel();
    static_bytes_ = mm.weightBytes() + mm.optimizerBytes();
    if (options_.mode == ExecutionMode::CostModel) {
        device_.allocator().onAllocate(static_bytes_);
        static_bytes_charged_ = true;
    }
}

TrainerBase::~TrainerBase()
{
    if (static_bytes_charged_)
        device_.allocator().onFree(static_bytes_);
}

sampling::SampledSubgraph
TrainerBase::sampleBatch(const graph::Dataset &dataset,
                         const NodeList &seeds, util::Rng &rng,
                         obs::PhaseTimes &phases) const
{
    obs::PhaseScope scope(phases, Phase::Sampling);
    sampling::NeighborSampler sampler(options_.fanouts);
    return sampler.sample(dataset.graph(), seeds, rng);
}

EpochReport
TrainerBase::trainEpoch(const graph::Dataset &dataset,
                        const std::vector<NodeList> &batches,
                        util::Rng &rng)
{
    obs::Span span(obs::names::kSpanTrainEpoch);
    EpochReport report = trainEpochImpl(dataset, batches, rng);
    const int epoch = epochs_run_++;
    obs::metrics().counter(obs::names::kCtrTrainEpochs).add();
    if (report.mem_audit.groups > 0) {
        obs::MetricsRegistry &m = obs::metrics();
        m.counter(obs::names::kCtrAuditGroups)
            .add(report.mem_audit.groups);
        m.gauge(obs::names::kGaugeAuditMeanAbsRelError)
            .set(report.mem_audit.meanAbsRelError());
        m.gauge(obs::names::kGaugeAuditMaxAbsRelError)
            .setMax(report.mem_audit.max_abs_rel_error);
    }
    // Close the audit epoch (covers failed-attempt groups too; a
    // no-op when the audit is disabled or nothing was recorded).
    obs::memoryAudit().endEpoch();
    obs::eventLog()
        .event(obs::names::kEvTrainEpochSummary)
        .field("epoch", epoch)
        .field("batches", report.num_batches)
        .field("micro_batches", report.num_micro_batches)
        .field("mean_loss", report.mean_loss)
        .field("wall_seconds", report.wall_seconds)
        .field("device_seconds", report.phases.modeledSeconds())
        .field("peak_device_bytes", report.peak_device_bytes)
        .field("audit_groups", report.mem_audit.groups)
        .field("audit_mean_abs_rel_error",
               report.mem_audit.meanAbsRelError())
        .field("audit_mean_signed_rel_error",
               report.mem_audit.meanSignedRelError());
    if (options_.epoch_observer)
        options_.epoch_observer(epoch, report);
    return report;
}

EpochReport
TrainerBase::trainEpoch(const graph::Dataset &dataset,
                        std::size_t batch_size, util::Rng &rng)
{
    return trainEpoch(
        dataset, makeBatches(dataset.trainNodes(), batch_size, rng),
        rng);
}

void
EpochFold::add(const IterationStats &stats)
{
    report_.loss_sum += stats.loss;
    report_.correct += stats.correct;
    report_.outputs += stats.num_outputs;
    report_.num_micro_batches += stats.num_micro_batches;
    report_.phases += stats.phases;
    report_.peak_device_bytes =
        std::max(report_.peak_device_bytes, stats.peak_device_bytes);
    for (const obs::GroupMemRecord &record : stats.group_audit)
        report_.mem_audit.add(record);
    ++report_.num_batches;
}

EpochReport
EpochFold::finish()
{
    report_.wall_seconds = wall_.seconds();
    report_.transfer_bytes = device_.transferredBytes() - bytes0_;
    report_.transfer_saved_bytes =
        device_.transferSavedBytes() - saved0_;
    report_.mean_loss = report_.num_batches == 0
                            ? 0.0
                            : report_.loss_sum / report_.num_batches;
    report_.accuracy =
        report_.outputs == 0
            ? 0.0
            : static_cast<double>(report_.correct) /
                  static_cast<double>(report_.outputs);
    return report_;
}

EpochReport
TrainerBase::trainEpochImpl(const graph::Dataset &dataset,
                            const std::vector<NodeList> &batches,
                            util::Rng &rng)
{
    EpochFold fold(device_);
    for (const NodeList &batch : batches)
        fold.add(trainIteration(dataset, batch, rng));
    return fold.finish();
}

void
TrainerBase::processMicroBatch(const sampling::MicroBatch &mb,
                               const graph::Dataset &dataset,
                               std::size_t batch_output_count,
                               IterationStats &stats,
                               std::uint64_t extra_padding_bytes,
                               double extra_padding_flops,
                               const PreparedMicroBatch *prepared)
{
    const nn::MemoryModel &mm = model_->memoryModel();
    device::DeviceAllocator &allocator = device_.allocator();

    obs::Span span(obs::names::kSpanTrainMicroBatch);
    obs::metrics().counter(obs::names::kCtrTrainMicroBatches).add();

    // --- Data loading: host feature fill (measured) + simulated PCIe
    // transfer (modeled).
    // Rows the feature cache already holds device-resident are not
    // re-transferred; only the accounting changes, never the numerics.
    std::uint64_t transfer_bytes = mm.transferBytes(mb);
    const std::uint64_t saved_bytes =
        prepared ? std::min(prepared->saved_transfer_bytes, transfer_bytes)
                 : 0;
    transfer_bytes -= saved_bytes;
    const double transfer_seconds =
        device_.costModel().transferSeconds(transfer_bytes);
    device_.chargeTransfer(transfer_bytes);
    if (saved_bytes > 0)
        device_.noteTransferSaved(saved_bytes);

    const double flops =
        mm.microBatchFlops(mb) + extra_padding_flops;
    const std::uint64_t launches = kernelLaunchCount(mb);
    const double compute_seconds =
        device_.costModel().kernelsSeconds(flops, launches);

    if (options_.mode == ExecutionMode::CostModel) {
        stats.phases.addModeled(Phase::DataLoading, transfer_seconds);
        device_.chargeComputeSeconds(compute_seconds);
        stats.phases.addModeled(Phase::GpuCompute, compute_seconds);
        // Logical allocation exercises the capacity/peak machinery.
        const std::uint64_t bytes =
            mm.microBatchBytes(mb) + extra_padding_bytes;
        allocator.onAllocate(bytes);
        allocator.onFree(bytes);
        stats.num_outputs += mb.outputNodes().size();
        return;
    }

    // --- Numeric execution under the tracking allocator. Staged
    // features (prefetched to host by the pipeline) are copied onto
    // the device; otherwise they are materialized inline.
    util::StopWatch watch;
    const bool use_staged =
        prepared && !prepared->staged_features.empty();
    nn::Tensor feats =
        use_staged ? prepared->staged_features.clone(&allocator)
                   : loadFeatures(dataset, mb.inputNodes(), &allocator);
    stats.phases.addMeasured(Phase::DataLoading, watch.seconds());
    stats.phases.addModeled(Phase::DataLoading, transfer_seconds);

    std::optional<tensor::Tensor> padding_ballast;
    if (extra_padding_bytes > 0) {
        padding_ballast = tensor::Tensor::zeros(
            extra_padding_bytes / sizeof(float), 1, &allocator);
    }

    nn::Tensor logits = model_->forward(mb, feats, &allocator);
    const NodeList outputs = mb.outputNodes();
    auto labels = gatherLabels(dataset, outputs);
    nn::LossResult loss_result = nn::softmaxCrossEntropy(
        logits, labels, batch_output_count, &allocator);
    model_->backward(loss_result.grad_logits, &allocator);

    device_.chargeComputeSeconds(compute_seconds);
    stats.phases.addModeled(Phase::GpuCompute, compute_seconds);

    stats.loss += loss_result.loss;
    stats.correct += loss_result.correct;
    stats.num_outputs += outputs.size();
}

void
TrainerBase::optimizerStep(IterationStats &stats)
{
    if (options_.mode == ExecutionMode::Numeric)
        optimizer_->step();
    // Optimizer kernel time: ~4 FLOPs per parameter element.
    const double flops =
        static_cast<double>(model_->memoryModel().weightBytes()) / 4.0 *
        4.0;
    const double seconds = device_.costModel().kernelsSeconds(flops, 2);
    device_.chargeComputeSeconds(seconds);
    stats.phases.addModeled(Phase::GpuCompute, seconds);
}

// ---------------------------------------------------------------------
// WholeBatchTrainer (Algorithm 1)

WholeBatchTrainer::WholeBatchTrainer(const TrainerOptions &options,
                                     device::Device &device,
                                     bool padding_based)
    : TrainerBase(options, device), padding_based_(padding_based)
{
}

IterationStats
WholeBatchTrainer::trainIteration(const graph::Dataset &dataset,
                                  const NodeList &seeds, util::Rng &rng)
{
    IterationStats stats;
    device_.allocator().resetPeak();

    auto sg = sampleBatch(dataset, seeds, rng, stats.phases);

    NodeList all_seeds(sg.numSeeds());
    for (graph::NodeId i = 0; i < sg.numSeeds(); ++i)
        all_seeds[i] = i;
    sampling::MicroBatch mb =
        generator_.generate(sg, all_seeds, &stats.phases);

    std::uint64_t padding_bytes = 0;
    double padding_flops = 0.0;
    if (padding_based_) {
        const nn::MemoryModel &mm = model_->memoryModel();
        const std::uint64_t padded =
            baselines::paddedMicroBatchBytes(mm, mb);
        const std::uint64_t bucketed = mm.microBatchBytes(mb);
        padding_bytes = padded > bucketed ? padded - bucketed : 0;
        const double padded_flops =
            baselines::paddedMicroBatchFlops(mm, mb);
        const double bucketed_flops = mm.microBatchFlops(mb);
        padding_flops = std::max(0.0, padded_flops - bucketed_flops);
    }

    processMicroBatch(mb, dataset, seeds.size(), stats, padding_bytes,
                      padding_flops);
    optimizerStep(stats);

    stats.num_micro_batches = 1;
    stats.peak_device_bytes = device_.allocator().peakBytes();
    return stats;
}

// ---------------------------------------------------------------------
// BuffaloTrainer (Algorithms 2 + 3)

BuffaloTrainer::BuffaloTrainer(const TrainerOptions &options,
                               device::Device &device)
    : BuffaloTrainer(options, device, core::MicroBatchGenerator{})
{
}

BuffaloTrainer::BuffaloTrainer(const TrainerOptions &options,
                               device::Device &device,
                               core::MicroBatchGenerator generator)
    : TrainerBase(options, device), generator_(std::move(generator))
{
}

core::SchedulerOptions
BuffaloTrainer::resolvedSchedulerOptions() const
{
    core::SchedulerOptions sched = options_.scheduler;
    if (sched.mem_constraint == 0)
        sched.mem_constraint = device_.allocator().capacity();
    sched.reserved_bytes = static_bytes_;
    return sched;
}

IterationStats
BuffaloTrainer::trainIteration(const graph::Dataset &dataset,
                               const NodeList &seeds, util::Rng &rng)
{
    obs::Span iteration_span(obs::names::kSpanTrainIteration);
    obs::PhaseTimes sampling_phases;
    auto sg = sampleBatch(dataset, seeds, rng, sampling_phases);
    return trainScheduled(dataset, sg, sampling_phases);
}

IterationStats
BuffaloTrainer::trainScheduled(const graph::Dataset &dataset,
                               const sampling::SampledSubgraph &sg,
                               const obs::PhaseTimes &phases,
                               const Prefetched *prefetched)
{
    core::SchedulerOptions sched_options = resolvedSchedulerOptions();

    // Estimation error can make a scheduled group overflow during
    // execution; on OOM the iteration restarts with a tighter safety
    // factor (accumulated gradients are discarded first, so the
    // retried iteration is still exact). Retries schedule and build
    // inline from the retained subgraph: a prefetched plan, and its
    // feature-cache discount, serve the first attempt only, so the
    // accounting stays conservative.
    constexpr int kMaxAttempts = 4;
    for (int attempt = 0;; ++attempt) {
        const bool use_prefetched = prefetched != nullptr && attempt == 0;
        IterationStats stats;
        stats.phases = phases;
        device_.allocator().resetPeak();
        try {
            // Line 1 of Algorithm 2: the Buffalo Scheduler.
            core::ScheduleResult inline_schedule;
            if (!use_prefetched) {
                core::BuffaloScheduler scheduler(
                    model_->memoryModel(),
                    dataset.spec().paper_avg_coefficient, sched_options);
                inline_schedule = scheduler.schedule(sg);
                stats.phases.addMeasured(
                    Phase::Scheduling, inline_schedule.schedule_seconds);
            }
            const core::ScheduleResult &schedule =
                use_prefetched ? prefetched->schedule : inline_schedule;

            // Lines 3-12: per bucket group, generate and train. The
            // allocator peak is reset per group so each trained group
            // yields one predicted-vs-actual memory record (the
            // estimator audit, DESIGN.md "Memory audit & bench
            // regression"); the iteration peak is the max over them.
            std::uint64_t iteration_peak = 0;
            for (std::size_t g = 0; g < schedule.groups.size(); ++g) {
                const core::BucketGroup &group = schedule.groups[g];
                const PreparedMicroBatch *prepared =
                    use_prefetched ? &prefetched->micro[g] : nullptr;
                sampling::MicroBatch generated;
                if (prepared == nullptr)
                    generated =
                        generator_.generateOne(sg, group, &stats.phases);
                device_.allocator().resetPeak();
                processMicroBatch(prepared ? prepared->mb : generated,
                                  dataset, sg.numSeeds(), stats, 0, 0.0,
                                  prepared);

                obs::GroupMemRecord record;
                record.group_index = g;
                record.buckets = group.buckets.size();
                record.outputs =
                    static_cast<std::size_t>(group.outputCount());
                record.grouping_ratio = group.mean_grouping_ratio;
                record.predicted_bytes =
                    group.est_bytes + static_bytes_;
                record.actual_bytes =
                    device_.allocator().peakBytes();
                iteration_peak =
                    std::max(iteration_peak, record.actual_bytes);
                obs::metrics()
                    .histogram(
                        obs::names::kHistSchedulerEstimateRelError)
                    .add(record.signedRelError());
                obs::memoryAudit().record(record);
                stats.group_audit.push_back(record);
            }
            optimizerStep(stats);

            stats.num_micro_batches = schedule.num_groups;
            // The optimizer step runs after the last group reset, so
            // fold the current segment's peak in too.
            stats.peak_device_bytes =
                std::max(iteration_peak,
                         device_.allocator().peakBytes());
            obs::metrics()
                .gauge(obs::names::kGaugeTrainPeakDeviceBytes)
                .setMax(static_cast<double>(stats.peak_device_bytes));
            return stats;
        } catch (const device::DeviceOom &) {
            obs::metrics().counter(obs::names::kCtrTrainOomRetries).add();
            {
                obs::EventBuilder event =
                    obs::eventLog().event(obs::names::kEvTrainOomRetry);
                event.field("attempt", attempt + 1)
                    .field("max_attempts", kMaxAttempts)
                    .field("safety_factor", sched_options.safety_factor);
                if (prefetched != nullptr)
                    event.field("prefetched", use_prefetched);
                event.field("giving_up", attempt + 1 >= kMaxAttempts);
            }
            if (attempt + 1 >= kMaxAttempts)
                throw;
            model_->clearCache();
            if (options_.mode == ExecutionMode::Numeric)
                model_->module().zeroGrad();
            sched_options.safety_factor *= 0.7;
            BUFFALO_LOG_WARN("buffalo-trainer")
                << "micro-batch overflowed the device; rescheduling "
                   "inline with safety factor "
                << sched_options.safety_factor;
        }
    }
}

// ---------------------------------------------------------------------
// BettyTrainer

BettyTrainer::BettyTrainer(const TrainerOptions &options,
                           device::Device &device,
                           int num_micro_batches)
    : TrainerBase(options, device),
      num_micro_batches_(num_micro_batches)
{
    checkArgument(num_micro_batches_ >= 1,
                  "BettyTrainer: need >= 1 micro batch");
}

IterationStats
BettyTrainer::trainIteration(const graph::Dataset &dataset,
                             const NodeList &seeds, util::Rng &rng)
{
    IterationStats stats;
    device_.allocator().resetPeak();

    auto sg = sampleBatch(dataset, seeds, rng, stats.phases);

    auto parts =
        partitioner_.partition(sg, num_micro_batches_, &stats.phases);

    for (const NodeList &part : parts) {
        sampling::MicroBatch mb =
            generator_.generate(sg, part, &stats.phases);
        processMicroBatch(mb, dataset, seeds.size(), stats);
    }
    optimizerStep(stats);

    stats.num_micro_batches = static_cast<int>(parts.size());
    stats.peak_device_bytes = device_.allocator().peakBytes();
    return stats;
}

} // namespace buffalo::train
