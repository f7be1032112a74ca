#include "traced_step.h"

#include "core/scheduler.h"
#include "nn/loss.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "pipeline/prefetcher.h"
#include "sampling/bucketing.h"
#include "train/feature_loader.h"
#include "util/format.h"

namespace perfbench {

namespace {

/** Adds the lifetime of the scope to @p total (one span). */
class Span
{
  public:
    explicit Span(double &total) : total_(total), begin_(Clock::now()) {}
    ~Span() { total_ += secondsBetween(begin_, Clock::now()); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    double &total_;
    Clock::time_point begin_;
};

/** Kernel launches the trainer charges a micro-batch (per-bucket
 *  gather/aggregate/scatter plus the per-layer update kernels). */
std::uint64_t
kernelLaunchCount(const sampling::MicroBatch &mb)
{
    std::uint64_t launches = 0;
    for (const auto &block : mb.blocks)
        launches += sampling::bucketizeBlock(block).size() * 4 + 4;
    return launches;
}

std::uint64_t
counterValue(const char *name)
{
    return obs::metrics().counter(name).value();
}

} // namespace

double
LayerTimes::attributedSeconds() const
{
    return sample_s + schedule_s + blockgen_s + account_s + feature_s +
           forward_s + loss_s + backward_s + optimizer_s;
}

TracedTrainer::TracedTrainer(const Workload &w,
                             const graph::Dataset &dataset,
                             std::uint64_t seed)
    : dataset_(dataset), options_(trainerOptions(w, dataset, seed)),
      device_("gpu:0", util::mib(w.budget_mib)),
      // The pipelined trainer's prefetcher builds blocks with the
      // pipeline's coarser grain; the serial trainer with the default.
      generator_(w.pipelined ? pipeline::makePipelineGenerator()
                             : core::MicroBatchGenerator{})
{
    // The same construction as train::TrainerBase: weights and Adam
    // state live under the device allocator when numeric, and are
    // charged logically in cost-model mode.
    options_.model.validate();
    tensor::kernels::setConfig(options_.kernels);
    const bool numeric = options_.mode == train::ExecutionMode::Numeric;
    nn::AllocationObserver *observer =
        numeric ? &device_.allocator() : nullptr;
    model_ = train::makeModel(options_.model_kind, options_.model,
                              options_.seed, observer);
    optimizer_ = std::make_unique<nn::Adam>(
        model_->module().parameters(), options_.learning_rate, 0.9,
        0.999, 1e-8, observer);
    const nn::MemoryModel &mm = model_->memoryModel();
    static_bytes_ = mm.weightBytes() + mm.optimizerBytes();
    if (!numeric)
        device_.allocator().onAllocate(static_bytes_);
}

TracedTrainer::~TracedTrainer()
{
    if (options_.mode == train::ExecutionMode::CostModel)
        device_.allocator().onFree(static_bytes_);
}

StepResult
TracedTrainer::step(const graph::NodeList &seeds, util::Rng &rng)
{
    const Clock::time_point begin = Clock::now();
    const std::uint64_t gemm0 =
        counterValue(obs::names::kCtrKernelsGemmCalls);
    const std::uint64_t elementwise0 =
        counterValue(obs::names::kCtrKernelsElementwiseCalls);

    sampling::SampledSubgraph sg = [&] {
        Span span(times_.sample_s);
        sampling::NeighborSampler sampler(options_.fanouts);
        return sampler.sample(dataset_.graph(), seeds, rng);
    }();
    times_.sampled_nodes += sg.nodes().size();

    core::SchedulerOptions sched = options_.scheduler;
    if (sched.mem_constraint == 0)
        sched.mem_constraint = device_.allocator().capacity();
    sched.reserved_bytes = static_bytes_;

    // The trainer's OOM protocol: discard the attempt's gradients and
    // reschedule with a tighter safety factor, at most four attempts.
    constexpr int kMaxAttempts = 4;
    StepResult result;
    for (int attempt = 0;; ++attempt) {
        result = StepResult{};
        try {
            core::ScheduleResult schedule;
            {
                Span span(times_.schedule_s);
                core::BuffaloScheduler scheduler(
                    model_->memoryModel(),
                    dataset_.spec().paper_avg_coefficient, sched);
                schedule = scheduler.schedule(sg);
            }
            for (const core::BucketGroup &group : schedule.groups) {
                sampling::MicroBatch mb;
                {
                    Span span(times_.blockgen_s);
                    mb = generator_.generateOne(sg, group);
                }
                times_.block_nodes += mb.totalNodeCount();
                trainMicroBatch(mb, seeds.size(), result);
            }
            {
                Span span(times_.optimizer_s);
                if (options_.mode == train::ExecutionMode::Numeric)
                    optimizer_->step();
                const double flops = static_cast<double>(
                    model_->memoryModel().weightBytes());
                device_.chargeComputeSeconds(
                    device_.costModel().kernelsSeconds(flops, 2));
            }
            result.micro_batches = schedule.num_groups;
            break;
        } catch (const device::DeviceOom &) {
            if (attempt + 1 >= kMaxAttempts)
                throw;
            model_->clearCache();
            if (options_.mode == train::ExecutionMode::Numeric)
                model_->module().zeroGrad();
            sched.safety_factor *= 0.7;
        }
    }

    times_.batch_wall_s += secondsBetween(begin, Clock::now());
    times_.batches += 1;
    times_.micro_batches += static_cast<std::uint64_t>(result.micro_batches);
    times_.gemm_calls +=
        counterValue(obs::names::kCtrKernelsGemmCalls) - gemm0;
    times_.elementwise_calls +=
        counterValue(obs::names::kCtrKernelsElementwiseCalls) -
        elementwise0;
    return result;
}

void
TracedTrainer::trainMicroBatch(const sampling::MicroBatch &mb,
                               std::size_t batch_outputs,
                               StepResult &result)
{
    const nn::MemoryModel &mm = model_->memoryModel();
    device::DeviceAllocator &allocator = device_.allocator();
    double compute_seconds = 0.0;
    {
        Span span(times_.account_s);
        const std::uint64_t transfer_bytes = mm.transferBytes(mb);
        device_.chargeTransfer(transfer_bytes);
        compute_seconds = device_.costModel().kernelsSeconds(
            mm.microBatchFlops(mb), kernelLaunchCount(mb));
        if (options_.mode == train::ExecutionMode::CostModel) {
            device_.chargeComputeSeconds(compute_seconds);
            const std::uint64_t bytes = mm.microBatchBytes(mb);
            allocator.onAllocate(bytes);
            allocator.onFree(bytes);
            return;
        }
    }

    nn::Tensor features;
    {
        Span span(times_.feature_s);
        features = train::loadFeatures(dataset_, mb.inputNodes(),
                                       &allocator);
    }
    nn::Tensor logits;
    {
        Span span(times_.forward_s);
        logits = model_->forward(mb, features, &allocator);
    }
    nn::LossResult loss;
    {
        Span span(times_.loss_s);
        const auto labels =
            train::gatherLabels(dataset_, mb.outputNodes());
        loss = nn::softmaxCrossEntropy(logits, labels, batch_outputs,
                                       &allocator);
    }
    {
        Span span(times_.backward_s);
        model_->backward(loss.grad_logits, &allocator);
    }
    device_.chargeComputeSeconds(compute_seconds);
    result.loss += loss.loss;
}

} // namespace perfbench
