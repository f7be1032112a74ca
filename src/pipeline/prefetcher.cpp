#include "pipeline/prefetcher.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "train/trainer.h"
#include "util/errors.h"

namespace buffalo::pipeline {

core::MicroBatchGenerator
makePipelineGenerator()
{
    // Coarser fan-out than FastBlockGenerator's defaults: inside the
    // pipeline the global pool also serves the compute kernels, so
    // block construction trades scheduling freedom for fewer enqueues.
    sampling::FastBlockGenerator::Grain grain;
    grain.parallel_dst_threshold = 16384;
    grain.min_chunk = 8192;
    grain.degree_grain = 4096;
    return core::MicroBatchGenerator(
        std::make_unique<sampling::FastBlockGenerator>(nullptr, grain));
}

Prefetcher::Prefetcher(const graph::Dataset &dataset,
                       std::vector<graph::NodeList> batches,
                       const std::vector<int> &fanouts,
                       const nn::MemoryModel &memory_model,
                       const core::SchedulerOptions &scheduler_options,
                       bool stage_features,
                       const PipelineOptions &options,
                       FeatureCache *cache, util::Rng &rng)
    : dataset_(dataset), memory_model_(memory_model),
      scheduler_options_(scheduler_options), fanouts_(fanouts),
      stage_features_(stage_features), options_(options), cache_(cache),
      rng_(&rng), generator_(makePipelineGenerator()),
      sampled_(static_cast<std::size_t>(
          std::max(1, options.prefetch_depth))),
      built_(static_cast<std::size_t>(
          std::max(1, options.prefetch_depth))),
      ready_(static_cast<std::size_t>(
          std::max(1, options.prefetch_depth))),
      budget_(options.host_memory_budget)
{
    checkArgument(options_.prefetch_depth >= 1,
                  "Prefetcher: prefetch_depth must be >= 1");
    // Queue-wait histograms (DESIGN.md, "Critical-path attribution").
    // Histogram handles are stable for the process lifetime and are
    // captured by value, so the observers never dangle.
    obs::ReservoirHistogram *sampled_wait = &obs::metrics().histogram(
        obs::names::kHistQueueSampledWaitMs);
    sampled_.setWaitObserver([sampled_wait](double seconds) {
        sampled_wait->add(seconds * 1e3);
    });
    obs::ReservoirHistogram *built_wait = &obs::metrics().histogram(
        obs::names::kHistQueueBuiltWaitMs);
    built_.setWaitObserver([built_wait](double seconds) {
        built_wait->add(seconds * 1e3);
    });
    obs::ReservoirHistogram *ready_wait = &obs::metrics().histogram(
        obs::names::kHistQueueReadyWaitMs);
    ready_.setWaitObserver([ready_wait](double seconds) {
        ready_wait->add(seconds * 1e3);
    });
    // One dedicated worker per stage: the stage loops are long-running
    // tasks, so the pool must have a thread for each or the pipeline
    // would never start. Intra-stage parallelism (the fast block
    // generator's parallelFor) runs on the global pool.
    pool_ = std::make_unique<util::ThreadPool>(3);
    // buffalo-lint: allow(escape-this-capture) stage workers are joined
    // by ~Prefetcher via pool_.reset() before any member is torn down
    pool_->submit([this, batches = std::move(batches)]() mutable {
        try {
            sampleStage(std::move(batches), *rng_);
        } catch (...) {
            failAll(std::current_exception());
        }
    });
    // buffalo-lint: allow(escape-this-capture) joined by ~Prefetcher
    pool_->submit([this] {
        try {
            buildStage();
        } catch (...) {
            failAll(std::current_exception());
        }
    });
    // buffalo-lint: allow(escape-this-capture) joined by ~Prefetcher
    pool_->submit([this] {
        try {
            featureStage();
        } catch (...) {
            failAll(std::current_exception());
        }
    });
}

Prefetcher::~Prefetcher()
{
    failAll(std::make_exception_ptr(
        std::runtime_error("prefetcher cancelled")));
    pool_.reset(); // joins the stage workers
}

void
Prefetcher::failAll(std::exception_ptr error)
{
    sampled_.abort(error);
    built_.abort(error);
    ready_.abort(error);
    budget_.cancel();
}

void
Prefetcher::sampleStage(std::vector<graph::NodeList> batches,
                        util::Rng &rng)
{
    // Single in-order worker: the Rng stream is consumed in exactly
    // the order the serial trainer would consume it.
    sampling::NeighborSampler sampler(fanouts_);
    for (std::size_t i = 0; i < batches.size(); ++i) {
        SampledItem item;
        item.index = i;
        util::StopWatch watch;
        {
            obs::Span span(obs::names::kSpanPipelineSample, i + 1);
            item.sg = sampler.sample(dataset_.graph(), batches[i], rng);
        }
        item.seconds = watch.seconds();
        {
            util::MutexLock lock(stats_mutex_);
            stats_.sample_busy_seconds += item.seconds;
        }
        if (!sampled_.push(std::move(item)))
            return; // aborted
    }
    sampled_.close();
}

void
Prefetcher::buildStage()
{
    while (auto item = sampled_.pop()) {
        PreparedBatch pb;
        pb.index = item->index;
        pb.sg = std::move(item->sg);
        pb.phases.addMeasured(obs::Phase::Sampling, item->seconds);
        pb.sample_seconds = item->seconds;

        util::StopWatch watch;
        obs::Span span(obs::names::kSpanPipelineBuild, pb.index + 1);
        core::BuffaloScheduler scheduler(
            memory_model_, dataset_.spec().paper_avg_coefficient,
            scheduler_options_);
        pb.schedule = scheduler.schedule(pb.sg);
        pb.phases.addMeasured(obs::Phase::Scheduling,
                              pb.schedule.schedule_seconds);
        pb.micro.reserve(pb.schedule.groups.size());
        for (const core::BucketGroup &group : pb.schedule.groups) {
            PreparedMicroBatch pmb;
            pmb.mb = generator_.generateOne(pb.sg, group, &pb.phases);
            pb.micro.push_back(std::move(pmb));
        }
        pb.build_seconds = watch.seconds();
        obs::metrics()
            .histogram(obs::names::kHistQueueSampledServiceMs)
            .add(pb.build_seconds * 1e3);
        {
            util::MutexLock lock(stats_mutex_);
            stats_.build_busy_seconds += pb.build_seconds;
        }
        if (!built_.push(std::move(pb)))
            return; // aborted
    }
    built_.close();
}

void
Prefetcher::featureStage()
{
    const std::uint64_t row_bytes =
        static_cast<std::uint64_t>(dataset_.featureDim()) *
        sizeof(float);
    while (auto pb = built_.pop()) {
        // Charge the host bytes this batch will pin *before*
        // materializing anything — this is the backpressure that
        // bounds prepared-but-unconsumed work.
        std::uint64_t bytes = pb->sg.memoryBytes();
        for (const PreparedMicroBatch &pmb : pb->micro) {
            bytes += pmb.mb.structureBytes();
            if (stage_features_)
                bytes += pmb.mb.inputNodes().size() * row_bytes;
        }
        pb->staged_bytes = bytes;
        if (!budget_.acquire(bytes))
            return; // cancelled

        util::StopWatch watch;
        {
            obs::Span span(obs::names::kSpanPipelineFeature,
                           pb->index + 1);
            for (PreparedMicroBatch &pmb : pb->micro)
                stageFeatures(pmb);
        }
        pb->feature_seconds = watch.seconds();
        obs::metrics()
            .histogram(obs::names::kHistQueueBuiltServiceMs)
            .add(pb->feature_seconds * 1e3);
        {
            util::MutexLock lock(stats_mutex_);
            stats_.feature_busy_seconds += pb->feature_seconds;
            current_host_bytes_ += bytes;
            stats_.peak_host_bytes =
                std::max(stats_.peak_host_bytes, current_host_bytes_);
        }
        if (!ready_.push(std::move(*pb))) {
            budget_.release(bytes);
            return; // aborted
        }
    }
    ready_.close();
}

void
Prefetcher::stageFeatures(PreparedMicroBatch &pmb)
{
    // Cost-model execution leaves the tensor empty: presence only.
    pmb.cached_rows = stageThroughCache(
        cache_, dataset_, pmb.mb.inputNodes(),
        stage_features_ ? &pmb.staged_features : nullptr);
    pmb.saved_transfer_bytes =
        pmb.cached_rows *
        static_cast<std::uint64_t>(dataset_.featureDim()) * sizeof(float);
}

std::optional<PreparedBatch>
Prefetcher::next()
{
    return ready_.pop();
}

void
Prefetcher::release(const PreparedBatch &batch)
{
    budget_.release(batch.staged_bytes);
    util::MutexLock lock(stats_mutex_);
    current_host_bytes_ = batch.staged_bytes > current_host_bytes_
                              ? 0
                              : current_host_bytes_ -
                                    batch.staged_bytes;
}

std::vector<obs::QueueDepthProbe>
Prefetcher::depthProbes()
{
    // Queue pointers are captured by value; the sampler using these
    // probes must be stopped before the Prefetcher is destroyed.
    StageQueue<SampledItem> *sampled = &sampled_;
    StageQueue<PreparedBatch> *built = &built_;
    StageQueue<PreparedBatch> *ready = &ready_;
    std::vector<obs::QueueDepthProbe> probes;
    probes.push_back(
        {"sampled", [sampled] { return sampled->size(); }});
    probes.push_back({"built", [built] { return built->size(); }});
    probes.push_back({"ready", [ready] { return ready->size(); }});
    return probes;
}

train::StageReport
Prefetcher::stats() const
{
    util::MutexLock lock(stats_mutex_);
    train::StageReport s = stats_;
    s.max_sampled_queue = sampled_.maxOccupancy();
    s.max_built_queue = built_.maxOccupancy();
    s.max_ready_queue = ready_.maxOccupancy();
    return s;
}

} // namespace buffalo::pipeline
