#include "pipeline/pipeline_trainer.h"

#include <algorithm>

#include "obs/audit.h"
#include "obs/critical_path.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/queue_telemetry.h"
#include "obs/trace.h"
#include "pipeline/cache_policy.h"
#include "sampling/presample.h"

namespace buffalo::pipeline {

PipelineTrainer::PipelineTrainer(const train::TrainerOptions &options,
                                 device::Device &device)
    : BuffaloTrainer(options, device, makePipelineGenerator())
{
    FeatureCacheOptions cache_options;
    cache_options.capacity_bytes =
        options.pipeline.feature_cache_bytes;
    cache_options.feature_dim = options.model.feature_dim;
    cache_options.store_payload =
        options.mode == train::ExecutionMode::Numeric;
    cache_ = std::make_unique<FeatureCache>(cache_options);
}

namespace {

/** Publishes one pipelined epoch's telemetry to the global registry. */
void
recordEpochMetrics(const train::EpochReport &report)
{
    obs::MetricsRegistry &m = obs::metrics();
    m.counter(obs::names::kCtrPipelineEpochs).add();
    m.gauge(obs::names::kGaugePipelineSampleBusySeconds)
        .set(report.stages.sample_busy_seconds);
    m.gauge(obs::names::kGaugePipelineBuildBusySeconds)
        .set(report.stages.build_busy_seconds);
    m.gauge(obs::names::kGaugePipelineFeatureBusySeconds)
        .set(report.stages.feature_busy_seconds);
    m.gauge(obs::names::kGaugePipelineMaxSampledQueue)
        .setMax(static_cast<double>(report.stages.max_sampled_queue));
    m.gauge(obs::names::kGaugePipelineMaxBuiltQueue)
        .setMax(static_cast<double>(report.stages.max_built_queue));
    m.gauge(obs::names::kGaugePipelineMaxReadyQueue)
        .setMax(static_cast<double>(report.stages.max_ready_queue));
    m.gauge(obs::names::kGaugePipelinePeakHostBytes)
        .setMax(static_cast<double>(report.stages.peak_host_bytes));
    publishCacheGauges(report.cache);
    m.gauge(obs::names::kGaugeCpWallSeconds)
        .set(report.cp.wall_us / 1e6);
    m.gauge(obs::names::kGaugeCpSerialSeconds)
        .set(report.cp.serial_us / 1e6);
    m.gauge(obs::names::kGaugeCpOverlapEfficiency)
        .set(report.cp.overlap_efficiency);
    m.gauge(obs::names::kGaugeCpDominantShare)
        .set(report.cp.dominant_share);
}

} // namespace

train::EpochReport
PipelineTrainer::trainEpochImpl(
    const graph::Dataset &dataset,
    const std::vector<graph::NodeList> &batches, util::Rng &rng)
{
    if (cache_->enabled() && !hot_set_pinned_) {
        // The policy is built lazily on the first epoch — the
        // presample pass needs the dataset, which the constructor
        // never sees. Its Rng stream is private (seed ^ salt), so
        // running it leaves the training stream — and therefore
        // serial/pipelined loss parity — untouched.
        sampling::PresampleOptions presample;
        presample.num_batches = options_.pipeline.presample_batches;
        presample.batch_size =
            batches.empty() ? 256 : batches.front().size();
        presample.seed =
            options_.seed ^ sampling::kPresampleSeedSalt;
        cache_->setPolicy(makeCachePolicy(
            options_.pipeline.cache_policy, dataset,
            options_.fanouts, dataset.trainNodes(), presample));
        cache_->pinHotSet(dataset,
                          options_.pipeline.pinned_hot_nodes);
        hot_set_pinned_ = true;
    }

    Prefetcher prefetcher(
        dataset, batches, options_.fanouts, model_->memoryModel(),
        resolvedSchedulerOptions(),
        options_.mode == train::ExecutionMode::Numeric,
        options_.pipeline,
        cache_->enabled() ? cache_.get() : nullptr, rng);

    // Depth timeline for the three stage queues. Declared after the
    // prefetcher so destruction stops the sampler thread before the
    // queues its probes read are torn down.
    obs::QueueDepthSampler depth_sampler(prefetcher.depthProbes());

    /** Per-batch {sample, build, feature, device} durations feeding
     *  the overlap model: measured host stages, modeled device. */
    std::vector<std::vector<double>> cp_rows;

    train::EpochFold fold(device_);
    while (auto batch = prefetcher.next()) {
        const double device_before = device_.totalSeconds();
        util::StopWatch train_watch;
        train::IterationStats stats;
        {
            obs::Span iteration_span(obs::names::kSpanTrainIteration,
                                     batch->index + 1);
            const Prefetched prefetched{batch->schedule, batch->micro};
            stats = trainScheduled(dataset, batch->sg, batch->phases,
                                   &prefetched);
        }
        obs::metrics()
            .histogram(obs::names::kHistQueueReadyServiceMs)
            .add(train_watch.seconds() * 1e3);
        fold.add(stats);
        cp_rows.push_back({batch->sample_seconds, batch->build_seconds,
                           batch->feature_seconds,
                           device_.totalSeconds() - device_before});
        prefetcher.release(*batch);
    }
    train::EpochReport report = fold.finish();
    report.pipelined = true;
    report.stages = prefetcher.stats();

    report.cache = cache_->stats();

    // The epoch's overlap model: the 4-lane pipeline schedule
    // (sample | build | feature | device) with at most `window`
    // batches in flight (the queue capacities), attributed by the
    // critical-path walk. The rows come from the prefetcher's
    // stopwatches and the device's modeled clock, so this works with
    // the tracer off (buffalo_profile re-derives the same chains from
    // a recorded trace).
    const std::size_t window =
        3 * static_cast<std::size_t>(
                std::max(1, options_.pipeline.prefetch_depth)) +
        3;
    obs::CpOptions cp_options;
    cp_options.cache_hit_rate =
        cache_->enabled() ? report.cache.hitRate() : -1.0;
    cp_options.feature_stage = obs::names::kSpanPipelineFeature;
    cp_options.build_stage = obs::names::kSpanPipelineBuild;
    report.cp = obs::analyzeModeledPipeline(
        {obs::names::kSpanPipelineSample,
         obs::names::kSpanPipelineBuild,
         obs::names::kSpanPipelineFeature,
         obs::names::kSpanTrainIteration},
        cp_rows, cp_options, window);
    obs::eventLog()
        .event(obs::names::kEvCpReport)
        .field("items", static_cast<std::uint64_t>(report.cp.items))
        .field("wall_seconds", report.cp.wall_us / 1e6)
        .field("serial_seconds", report.cp.serial_us / 1e6)
        .field("overlap_efficiency", report.cp.overlap_efficiency)
        .field("dominant_stage", report.cp.dominant_stage)
        .field("dominant_share", report.cp.dominant_share);

    if (cache_->enabled()) {
        obs::eventLog()
            .event(obs::names::kEvCacheSnapshot)
            .field("policy", report.cache.policy)
            .field("hits", report.cache.hits)
            .field("misses", report.cache.misses)
            .field("hit_rate", report.cache.hitRate())
            .field("insertions", report.cache.insertions)
            .field("evictions", report.cache.evictions)
            .field("resident_nodes", report.cache.resident_nodes)
            .field("bytes_in_use", report.cache.bytes_in_use)
            .field("capacity_bytes", report.cache.capacity_bytes);
    }

    recordEpochMetrics(report);
    return report;
}

} // namespace buffalo::pipeline
