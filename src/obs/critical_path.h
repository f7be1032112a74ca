/**
 * @file
 * Critical-path attribution over causal span chains (DESIGN.md,
 * "Critical-path attribution").
 *
 * Input: item-attributed spans — every micro-batch (training) or
 * batch plan (serving) carries a stable item id through the pipeline,
 * so its sample/build/feature/compute (or prep/forward) spans link
 * into one chain even though each stage ran on a different thread.
 *
 * The analyzer walks backwards from the globally last-ending span.
 * Each span's *binding predecessor* is the later-ending of
 *   (a) the previous stage of the same item   (parent/child edge) and
 *   (b) the previous item in the same stage   (follows-from edge —
 *       a single-threaded stage serializes its items),
 * i.e. whichever dependency actually released the span to finish.
 * Walking that chain decomposes the run's wall time into per-stage
 * *self time* (the stage was the critical activity) plus *idle* (a
 * gap where the next critical span had not started yet — queue wait
 * or startup); self times + idle always sum to the wall exactly.
 *
 * One pipeline recurrence, pipelineTimeline(), models every overlap
 * this repo reports:
 *   t[i][s] = max(t[i-1][s], t[i][s-1]) + d[i][s]
 * where stage 0 of item i also waits for the last stage of item
 * i - window (bounded queues; window 0 = infinite buffers). Its one
 * caller outside this file is the PipelineTrainer's epoch model,
 * analyzeModeledPipeline over {sample, build, feature, device} per
 * batch with the queue capacities as the window. The lanes keep two
 * clocks: the host stages are measured, the device lane is modeled
 * (device::CostModel seconds).
 *
 * What-if bounds re-run the recurrence, unwindowed, over the same
 * per-item stage durations, each scaled per stage first: scale 1
 * everywhere is the perfect-overlap bound (no queue gating, infinite
 * buffers), so against a windowed wall it prices the queue capacity;
 * scaling the feature stage by zeroCacheMissScale(hit_rate) models a
 * fully-warm feature cache; scaling the build stage by 1/N models an
 * N-times-faster block generator.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace buffalo::obs {

/** One item-attributed span, as reassembled from a trace. */
struct CpSpan
{
    /** Stage name (span name in the trace). */
    std::string stage;
    /** Causal item id (micro-batch / plan); must be nonzero. */
    std::uint64_t item = 0;
    double start_us = 0.0;
    double end_us = 0.0;
    std::uint32_t tid = 0;
};

/** Per-stage accounting in a CriticalPathReport. */
struct CpStageReport
{
    std::string stage;
    /** Spans of this stage that entered chains. */
    std::size_t spans = 0;
    /** Total busy time (sum of span durations). */
    double busy_us = 0.0;
    /** Self time on the critical path. */
    double cp_self_us = 0.0;
    /** cp_self_us / wall_us. */
    double cp_share = 0.0;
};

/** One modeled what-if bound. */
struct CpWhatIf
{
    std::string name;
    /** Modeled wall time under the scenario. */
    double wall_us = 0.0;
    /** Measured wall / modeled wall (>= 1 means faster). */
    double speedup = 0.0;
};

/** Critical-path decomposition of one run or epoch. */
struct CriticalPathReport
{
    /** Distinct item ids seen. */
    std::size_t items = 0;
    /** Item-attributed spans analyzed. */
    std::size_t spans = 0;
    /** Items missing at least one stage other items have (dropped
     *  spans or ring overwrites truncated their chains). */
    std::size_t incomplete_items = 0;

    /** Last span end minus first span start. */
    double wall_us = 0.0;
    /** Sum of all span durations (the no-overlap serial cost). */
    double serial_us = 0.0;
    /** Critical-path gaps (queue wait / startup), wall - sum(self). */
    double idle_us = 0.0;
    /** min(1, serial/wall): 1 = the pipeline kept some stage busy
     *  the whole run; < 1 = idle gaps on the critical path. */
    double overlap_efficiency = 0.0;
    /** serial/wall uncapped — mean number of concurrently busy
     *  stages (> 1 means overlap is hiding work). */
    double avg_concurrency = 0.0;

    /** Stage with the largest critical-path self time. */
    std::string dominant_stage;
    /** Its share of the wall. */
    double dominant_share = 0.0;

    /** Stages in pipeline order. */
    std::vector<CpStageReport> stages;
    std::vector<CpWhatIf> whatifs;
};

/** Analyzer knobs. */
struct CpOptions
{
    /**
     * Pipeline stage order, upstream first. Empty = inferred by each
     * stage's mean start-rank within its item's chain.
     */
    std::vector<std::string> stage_order;
    /** Feature-cache hit rate for the zero-cache-miss what-if; < 0 =
     *  unknown (the bound is skipped). */
    double cache_hit_rate = -1.0;
    /** Stage the cache what-if scales (feature loading). */
    std::string feature_stage;
    /** Stage the N-times-faster what-if scales (block generation). */
    std::string build_stage;
};

/**
 * Runs the critical-path walk and what-if models over @p spans.
 * Spans with item == 0 are ignored; an empty input yields an empty
 * report (items == 0).
 */
CriticalPathReport analyzeCriticalPath(std::vector<CpSpan> spans,
                                       const CpOptions &options = {});

/**
 * Analyzes a pipeline from per-item stage durations instead of
 * timestamps: synthesizes each item's spans at the times the pipeline
 * recurrence admits them, with at most @p window items in flight
 * (0 = infinite buffers), and runs analyzeCriticalPath. This is how
 * the PipelineTrainer attributes an epoch without requiring the
 * tracer to be on. A queue-window stall shows up as critical-path
 * idle; the what-ifs stay unwindowed.
 *
 * @p item_stage_seconds[i][s] is item i's duration in stage
 * @p stage_order[s] (rows may be ragged; missing stages are 0).
 */
CriticalPathReport analyzeModeledPipeline(
    const std::vector<std::string> &stage_order,
    const std::vector<std::vector<double>> &item_stage_seconds,
    const CpOptions &options = {}, std::size_t window = 0);

/** Every item's stage intervals, item-major: entry i * num_stages + s
 *  is item i in stage s. */
struct PipelineTimeline
{
    std::vector<double> start;
    std::vector<double> end;

    /** End of the last item's last stage; 0 for no items. */
    double wall() const { return end.empty() ? 0.0 : end.back(); }
};

/**
 * Runs the pipeline recurrence (file comment) over @p durations: row
 * i holds item i's non-negative seconds per stage, missing stages
 * count as 0. At most @p window items are in flight; 0 = no limit.
 */
PipelineTimeline pipelineTimeline(
    const std::vector<std::vector<double>> &durations,
    std::size_t num_stages, std::size_t window = 0);

/** serial/wall capped to [0, 1]; 0 when either input is <= 0. */
double overlapEfficiency(double serial, double wall);

/**
 * Duration scale of the feature stage if every cache miss became a
 * hit, given the measured hit rate: a hit costs @p kappa of a miss
 * (lookup + copy vs. a full feature fill), so the stage currently
 * costs (1-h) + h*kappa per unit and would cost kappa fully warm.
 * Returns 1 for h >= 1 (already all hits) and kappa for h == 0.
 */
double zeroCacheMissScale(double hit_rate, double kappa = 0.25);

/**
 * Loads the item-attributed spans (args.item != 0) from a Chrome
 * trace-event JSON file written by Tracer::writeJson. Unattributed
 * spans are skipped. @throws Error / InvalidArgument on bad input.
 */
std::vector<CpSpan> loadTraceSpans(const std::string &path);

/**
 * Extracts the last cache.snapshot hit_rate from a JSONL run log,
 * or -1 when the file has none (no cache enabled).
 */
double cacheHitRateFromRunLog(const std::string &path);

} // namespace buffalo::obs
