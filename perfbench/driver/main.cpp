/**
 * @file
 * buffalo_perfbench: one end-to-end training workload, timed for a
 * fixed number of wall seconds (perfbench/README.md).
 *
 *   buffalo_perfbench --workload arxiv-lstm --seed 1 --seconds 10 \
 *                     --trace 0
 *
 * --trace 0 times the real trainer with the benchmark's wall clock and
 * reports the end-to-end metrics. --trace 1 runs the same trainer in
 * lockstep with a TracedTrainer that repeats its calls under per-layer
 * spans, checks that both produce bitwise-equal losses, and reports
 * the per-layer metrics. The last stdout line is the JSON result.
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

#include "harness.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "pipeline/pipeline_trainer.h"
#include "traced_step.h"
#include "util/logging.h"

namespace {

using namespace perfbench;

/** Windows seeds_per_s is the median over (see medianWindowRate). */
constexpr std::size_t kRateWindows = 5;
/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetupRepeats = 3;
/** Least share of a traced batch's wall the layer spans must cover. */
constexpr double kMinAttributedShare = 0.95;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw InvalidArgument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
        } else if (flag == "--trace") {
            args.trace = value != "0";
        } else {
            throw InvalidArgument("unknown flag " + flag);
        }
    }
    checkArgument(have_workload, "--workload is required");
    checkArgument(args.seconds > 0.0, "--seconds must be > 0");
    return args;
}

/** The output check's tally. One operation is one set-up, one timed
 *  step, one lockstep step of the traced run, or the check of a whole
 *  timed or traced window. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Counts one operation; a non-empty @p problem fails it. */
    void
    record(const char *what, const std::string &problem)
    {
        ++attempted;
        if (!problem.empty()) {
            ++failed;
            std::fprintf(stderr, "check failed: %s: %s\n", what,
                         problem.c_str());
        }
    }
};

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

std::uint64_t
counter(const char *name)
{
    return obs::metrics().counter(name).value();
}

/** Sum of every value the registry histogram @p name has seen. */
double
histogramSum(const char *name)
{
    const obs::HistogramSnapshot snap =
        obs::metrics().histogram(name).snapshot();
    return snap.mean * static_cast<double>(snap.count);
}

/** What one trainer step did. */
struct StepOutcome
{
    double loss = 0.0;
    std::vector<int> micro_batches;
    std::size_t batches = 0;
    std::size_t seeds = 0;
    std::uint64_t peak_device_bytes = 0;
    train::EpochReport report; ///< pipelined steps only
};

/** One trainer step: trainIteration() on one batch, or trainEpoch()
 *  on Workload::epoch_batches batches when @p epoch is set. */
StepOutcome
trainStep(const Workload &w, const graph::Dataset &data,
          TrainerInstance &inst, bool epoch)
{
    StepOutcome out;
    if (!epoch) {
        const graph::NodeList batch = inst.stream.next();
        const train::IterationStats stats =
            inst.trainer->trainIteration(data, batch, inst.rng);
        out.loss = stats.loss;
        out.micro_batches.push_back(stats.num_micro_batches);
        out.batches = 1;
        out.seeds = batch.size();
        out.peak_device_bytes = stats.peak_device_bytes;
        return out;
    }
    const std::vector<graph::NodeList> batches =
        inst.stream.next(w.epoch_batches);
    out.report = inst.trainer->trainEpoch(data, batches, inst.rng);
    out.loss = out.report.loss_sum;
    out.micro_batches.push_back(out.report.num_micro_batches);
    out.batches = batches.size();
    for (const graph::NodeList &b : batches)
        out.seeds += b.size();
    out.peak_device_bytes = out.report.peak_device_bytes;
    return out;
}

/** Runs the traced replica over one step's batches. */
StepOutcome
tracedStep(const Workload &w, TracedTrainer &traced, BatchStream &stream,
           util::Rng &rng, bool epoch)
{
    StepOutcome out;
    const std::vector<graph::NodeList> batches =
        epoch ? stream.next(w.epoch_batches)
                  : std::vector<graph::NodeList>{stream.next()};
    int micro_batches = 0;
    for (const graph::NodeList &batch : batches) {
        const StepResult r = traced.step(batch, rng);
        out.loss += r.loss;
        micro_batches += r.micro_batches;
        out.seeds += batch.size();
    }
    out.micro_batches.push_back(micro_batches);
    out.batches = batches.size();
    return out;
}

bool
isNumeric(const Workload &w)
{
    return w.mode == train::ExecutionMode::Numeric;
}

/**
 * What is wrong with @p step, or "" when nothing is: a numeric loss
 * must be finite and equal @p reference's bit for bit; a cost-model
 * step must have @p reference's micro-batch counts.
 */
std::string
stepProblem(const Workload &w, const StepOutcome &step,
            const StepOutcome *reference)
{
    if (isNumeric(w) && !std::isfinite(step.loss))
        return "non-finite loss";
    if (!reference)
        return "";
    if (isNumeric(w))
        return sameBits(step.loss, reference->loss) ? ""
                                                     : "loss bits differ";
    return step.micro_batches == reference->micro_batches
               ? ""
               : "micro-batch counts differ";
}

// ---------------------------------------------------------------------
// --trace 0: end-to-end metrics of the real trainer.

int
runTimed(const Workload &w, const Args &args)
{
    Outcome outcome;
    std::vector<double> setup_seconds;
    std::optional<StepOutcome> first_warmup;
    std::unique_ptr<graph::Dataset> data;
    std::unique_ptr<TrainerInstance> inst;

    // Set-up: dataset generation, trainer construction and warm-up
    // (which includes the presample pass and hot-set pinning of a
    // pipelined trainer). Repeated; every repeat must warm up to the
    // same loss bits / micro-batch counts.
    for (int r = 0; r < kSetupRepeats; ++r) {
        inst.reset();
        data.reset();
        const Clock::time_point begin = Clock::now();
        data = std::make_unique<graph::Dataset>(
            graph::loadDataset(w.dataset, args.seed, w.scale));
        inst = std::make_unique<TrainerInstance>(w, *data, args.seed,
                                                 w.pipelined);
        // The warm-up's result is its last loss and every step's
        // micro-batch count.
        StepOutcome warm;
        for (int s = 0; s < w.warmup_steps; ++s) {
            const StepOutcome step =
                trainStep(w, *data, *inst, w.pipelined);
            warm.loss = step.loss;
            warm.micro_batches.insert(warm.micro_batches.end(),
                                      step.micro_batches.begin(),
                                      step.micro_batches.end());
        }
        setup_seconds.push_back(secondsBetween(begin, Clock::now()));
        outcome.record("set-up",
                       stepProblem(w, warm,
                                   first_warmup ? &*first_warmup : nullptr));
        if (!first_warmup)
            first_warmup = warm;
    }
    const double setup_s = median(setup_seconds);
    if (setup_s < 0.2)
        std::fprintf(stderr,
                     "note: set-up took %.3f s, below the 0.2 s the "
                     "workload is sized for\n",
                     setup_s);

    const std::uint64_t micro0 =
        counter(obs::names::kCtrTrainMicroBatches);
    const std::uint64_t retries0 =
        counter(obs::names::kCtrTrainOomRetries);
    std::vector<double> batch_ms, step_seconds, step_seeds;
    const Clock::time_point begin = Clock::now();
    const Clock::time_point deadline =
        begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds));
    Clock::time_point now = begin;
    while (now < deadline) {
        const Clock::time_point t0 = Clock::now();
        StepOutcome step;
        try {
            step = trainStep(w, *data, *inst, w.pipelined);
        } catch (const std::exception &e) {
            // The trainer's state is unknown after a throw: count the
            // step as failed and end the timed window.
            outcome.record("timed step", e.what());
            break;
        }
        now = Clock::now();
        step_seconds.push_back(secondsBetween(t0, now));
        step_seeds.push_back(static_cast<double>(step.seeds));
        batch_ms.push_back(step_seconds.back() * 1e3 /
                           static_cast<double>(step.batches));
        outcome.record("timed step", stepProblem(w, step, nullptr));
    }
    const std::uint64_t micro =
        counter(obs::names::kCtrTrainMicroBatches) - micro0;
    const std::uint64_t retries =
        counter(obs::names::kCtrTrainOomRetries) - retries0;

    const TailPick tail = tailPercentile(batch_ms);
    outcome.record("timed window",
                   tail.beyond > 0 ? "" : "fewer than 20 timed samples");
    std::printf("%s seed %llu: %zu timed samples (%s); batch tail is "
                "p%.1f with %zu samples beyond it\n",
                w.name.c_str(),
                static_cast<unsigned long long>(args.seed),
                batch_ms.size(),
                w.pipelined ? "one per epoch" : "one per batch",
                tail.percentile, tail.beyond);
    Report report;
    report.add("setup_s", setup_s, "s");
    report.add("seeds_per_s",
               medianWindowRate(step_seconds, step_seeds, kRateWindows),
               "1/s");
    report.add("batch_p50_ms", median(batch_ms), "ms");
    report.add("batch_tail_ms", tail.value, "ms");
    report.add("peak_rss_mb", peakRssMib(), "MiB");
    report.add("first_try_share",
               micro == 0 ? 1.0
                          : 1.0 - static_cast<double>(retries) /
                                      static_cast<double>(micro),
               "ratio");
    std::printf("%s", report.table().c_str());
    const bool correct = outcome.failed == 0;
    std::printf("%s\n",
                report.json(correct, outcome.attempted, outcome.failed)
                    .c_str());
    return correct ? 0 : 1;
}

// ---------------------------------------------------------------------
// --trace 1: per-layer metrics from the lockstep traced replica.

int
runTraced(const Workload &w, const Args &args)
{
    Outcome outcome;
    const graph::Dataset data =
        graph::loadDataset(w.dataset, args.seed, w.scale);
    // The real trainer (pipelined if the workload is), a serial
    // untraced twin for the pipelined workload, and the traced replica.
    TrainerInstance real(w, data, args.seed, w.pipelined);
    std::unique_ptr<TrainerInstance> serial;
    if (w.pipelined)
        serial = std::make_unique<TrainerInstance>(w, data, args.seed,
                                                   false);
    TracedTrainer traced(w, data, args.seed);
    util::Rng traced_rng(batchSeed(args.seed));
    BatchStream traced_stream(data, w.batch_size, traced_rng);

    double real_s = 0.0, serial_s = 0.0;
    std::uint64_t micro = 0, retries = 0, steps = 0;
    std::uint64_t batches = 0, peak_device = 0, transfer_bytes = 0;
    double modeled_s = 0.0, sample_busy = 0.0, build_busy = 0.0,
           feature_busy = 0.0, service_ms = 0.0, queued_ms = 0.0;

    auto lockstep = [&](bool timed) {
        const double service0 =
            histogramSum(obs::names::kHistQueueReadyServiceMs);
        const double queued0 =
            histogramSum(obs::names::kHistQueueReadyWaitMs);
        const std::uint64_t micro0 =
            counter(obs::names::kCtrTrainMicroBatches);
        const std::uint64_t retries0 =
            counter(obs::names::kCtrTrainOomRetries);
        const std::uint64_t bytes0 = real.device.transferredBytes();
        const double modeled0 = real.device.totalSeconds();

        Clock::time_point t0 = Clock::now();
        const StepOutcome step = trainStep(w, data, real, w.pipelined);
        const double step_s = secondsBetween(t0, Clock::now());

        const double step_service_ms =
            histogramSum(obs::names::kHistQueueReadyServiceMs) - service0;
        const double step_queued_ms =
            histogramSum(obs::names::kHistQueueReadyWaitMs) - queued0;
        const std::uint64_t step_micro =
            counter(obs::names::kCtrTrainMicroBatches) - micro0;
        const std::uint64_t step_retries =
            counter(obs::names::kCtrTrainOomRetries) - retries0;
        const std::uint64_t step_bytes =
            real.device.transferredBytes() - bytes0;
        const double step_modeled = real.device.totalSeconds() - modeled0;

        std::optional<StepOutcome> twin;
        double twin_s = 0.0;
        if (serial) {
            // The same batches as one serial trainEpoch() call.
            t0 = Clock::now();
            twin = trainStep(w, data, *serial, true);
            twin_s = secondsBetween(t0, Clock::now());
        }
        const StepOutcome replica =
            tracedStep(w, traced, traced_stream, traced_rng, w.pipelined);

        std::string problem = stepProblem(w, replica, &step);
        if (problem.empty() && twin)
            problem = stepProblem(w, *twin, &step);
        outcome.record("lockstep step", problem);
        if (!timed)
            return;
        real_s += step_s;
        serial_s += twin_s;
        ++steps;
        micro += step_micro;
        retries += step_retries;
        batches += step.batches;
        peak_device = std::max(peak_device, step.peak_device_bytes);
        transfer_bytes += step_bytes;
        modeled_s += step_modeled;
        if (w.pipelined) {
            sample_busy += step.report.stages.sample_busy_seconds;
            build_busy += step.report.stages.build_busy_seconds;
            feature_busy += step.report.stages.feature_busy_seconds;
            service_ms += step_service_ms;
            queued_ms += step_queued_ms;
        }
    };

    for (int s = 0; s < w.warmup_steps; ++s)
        lockstep(false);
    // Feature-cache lookups over the timed steps (pipelined only).
    auto cacheStats = [&] {
        return w.pipelined
                   ? dynamic_cast<pipeline::PipelineTrainer &>(*real.trainer)
                         .featureCache()
                         .stats()
                   : pipeline::FeatureCacheStats{};
    };
    const pipeline::FeatureCacheStats cache0 = cacheStats();
    traced.resetTimes();

    const Clock::time_point begin = Clock::now();
    const Clock::time_point deadline =
        begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds));
    while (Clock::now() < deadline) {
        try {
            lockstep(true);
        } catch (const std::exception &e) {
            outcome.record("lockstep step", e.what());
            break;
        }
    }
    const pipeline::FeatureCacheStats cache1 = cacheStats();
    const std::uint64_t cache_hits = cache1.hits - cache0.hits;
    const std::uint64_t cache_lookups =
        cache_hits + (cache1.misses - cache0.misses);

    const LayerTimes &t = traced.times();
    if (steps == 0) {
        // Nothing to divide by: report the failure without metrics.
        outcome.record("traced window", "no timed lockstep step completed");
        std::printf("%s\n", Report{}
                                .json(false, outcome.attempted,
                                      outcome.failed)
                                .c_str());
        return 1;
    }
    const double attributed_share = t.attributedSeconds() / t.batch_wall_s;
    outcome.record("traced window",
                   attributed_share >= kMinAttributedShare
                       ? ""
                       : "layer spans cover only " +
                             std::to_string(attributed_share) +
                             " of the traced batch wall");
    const double per_batch = 1.0 / static_cast<double>(t.batches);
    const double ms = 1e3 * per_batch;
    const double per_step = 1.0 / static_cast<double>(steps);
    const double untraced_s = w.pipelined ? serial_s : real_s;

    std::printf("%s seed %llu: %llu steps, %llu traced batches; ms per "
                "batch: trainer %.2f, serial twin %.2f, traced %.2f\n",
                w.name.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(steps),
                static_cast<unsigned long long>(t.batches),
                real_s * 1e3 / static_cast<double>(batches),
                serial_s * 1e3 / static_cast<double>(batches),
                t.batch_wall_s * ms);
    Report report;
    report.add("sampling.ms_per_batch", t.sample_s * ms, "ms");
    report.add("sampling.nodes_per_batch",
               static_cast<double>(t.sampled_nodes) * per_batch, "count");
    report.add("schedule.ms_per_batch", t.schedule_s * ms, "ms");
    report.add("schedule.micro_batches",
               static_cast<double>(t.micro_batches) * per_batch, "count");
    report.add("blockgen.ms_per_batch", t.blockgen_s * ms, "ms");
    report.add("blockgen.block_nodes",
               static_cast<double>(t.block_nodes) * per_batch, "count");
    report.add("account.ms_per_batch", t.account_s * ms, "ms");
    report.add("feature.ms_per_batch", t.feature_s * ms, "ms");
    report.add("forward.ms_per_batch", t.forward_s * ms, "ms");
    report.add("loss.ms_per_batch", t.loss_s * ms, "ms");
    report.add("backward.ms_per_batch", t.backward_s * ms, "ms");
    report.add("optimizer.ms_per_batch", t.optimizer_s * ms, "ms");
    report.add("kernels.gemm_calls",
               static_cast<double>(t.gemm_calls) * per_batch, "count");
    report.add("kernels.elementwise_calls",
               static_cast<double>(t.elementwise_calls) * per_batch,
               "count");
    const double real_per_batch = 1.0 / static_cast<double>(batches);
    report.add("device.modeled_ms_per_batch",
               modeled_s * 1e3 * real_per_batch, "ms");
    report.add("device.peak_mb",
               static_cast<double>(peak_device) / (1024.0 * 1024.0),
               "MiB");
    report.add("device.transfer_mb_per_batch",
               static_cast<double>(transfer_bytes) / (1024.0 * 1024.0) *
                   real_per_batch,
               "MiB");
    report.add("oom_retry_share",
               micro == 0 ? 0.0
                          : static_cast<double>(retries) /
                                static_cast<double>(micro),
               "ratio");
    if (w.pipelined) {
        report.add("pipeline.sample_busy_s", sample_busy * per_step, "s");
        report.add("pipeline.build_busy_s", build_busy * per_step, "s");
        report.add("pipeline.feature_busy_s", feature_busy * per_step,
                   "s");
        // The trainer waits for data whenever it is not training a
        // prepared batch (queue.ready.service_ms); queue.ready.wait_ms
        // is the other side, how long prepared batches waited for it.
        report.add("pipeline.ready_wait_ms",
                   (real_s * 1e3 - service_ms) * real_per_batch, "ms");
        report.add("pipeline.ready_queue_ms", queued_ms * real_per_batch,
                   "ms");
        report.add("cache.hit_rate",
                   cache_lookups == 0
                       ? 0.0
                       : static_cast<double>(cache_hits) /
                             static_cast<double>(cache_lookups),
                   "ratio");
        report.add("pipeline.overlap_gain", t.batch_wall_s / real_s,
                   "ratio");
    }
    report.add("trace.attributed_share", attributed_share, "ratio");
    report.add("trace.overhead", t.batch_wall_s / untraced_s - 1.0,
               "ratio");
    std::printf("%s", report.table().c_str());
    const bool correct = outcome.failed == 0;
    std::printf("%s\n",
                report.json(correct, outcome.attempted, outcome.failed)
                    .c_str());
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        const Workload &w = workloadByName(args.workload);
        util::setLogLevel(util::LogLevel::Warn);
        return args.trace ? runTraced(w, args) : runTimed(w, args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "buffalo_perfbench: %s\n", e.what());
        return 2;
    }
}
