/**
 * @file
 * The central registry of observability name literals (DESIGN.md,
 * "Observability"). Every span and metric name in the codebase lives
 * here, once: instrumentation sites, `obs_validate --expect-* @core`,
 * and `tools/ci.sh` all reference these constants, so a renamed span
 * cannot silently drift apart from the CI expectations that gate on
 * it. `tools/buffalo_lint` rejects raw name literals at call sites
 * (rule `obs-name`) to keep it that way.
 *
 * Constants are grouped by kind (span / counter / gauge / histogram)
 * and named k<Kind><Subsystem><What>. All values are dotted lowercase
 * paths, `<subsystem>.<what>`. The arrays at the bottom are the core
 * sets a smoke-test epoch must produce; ci.sh gates on them via
 * `obs_validate --expect-spans @core --expect-metrics @core`.
 */
#pragma once

namespace buffalo::obs::names {

// --- Tracer spans (static storage duration, as Tracer requires) ----
inline constexpr char kSpanTrainEpoch[] = "train.epoch";
inline constexpr char kSpanTrainIteration[] = "train.iteration";
inline constexpr char kSpanTrainMicroBatch[] = "train.micro_batch";
inline constexpr char kSpanPipelineSample[] = "pipeline.sample";
inline constexpr char kSpanPipelineBuild[] = "pipeline.build";
inline constexpr char kSpanPipelineFeature[] = "pipeline.feature";
inline constexpr char kSpanSchedulerSchedule[] = "scheduler.schedule";
inline constexpr char kSpanBlockgenFast[] = "blockgen.fast";
inline constexpr char kSpanBlockgenBaseline[] = "blockgen.baseline";
inline constexpr char kSpanServePrep[] = "serve.prep";
inline constexpr char kSpanServeForward[] = "serve.forward";

// --- Counters ------------------------------------------------------
inline constexpr char kCtrTrainEpochs[] = "train.epochs";
inline constexpr char kCtrTrainMicroBatches[] = "train.micro_batches";
inline constexpr char kCtrTrainOomRetries[] = "train.oom_retries";
inline constexpr char kCtrPipelineEpochs[] = "pipeline.epochs";
inline constexpr char kCtrSchedulerSchedules[] = "scheduler.schedules";
inline constexpr char kCtrSchedulerKAttempts[] =
    "scheduler.k_attempts";
inline constexpr char kCtrSchedulerExplosionSplits[] =
    "scheduler.explosion_splits";
/** Bucket cone walks (BucketMemEstimator pricings); deterministic. */
inline constexpr char kCtrSchedulerConeWalks[] = "scheduler.cone_walks";
inline constexpr char kCtrBlockgenBlocks[] = "blockgen.blocks";
inline constexpr char kCtrBlockgenNodes[] = "blockgen.nodes";
inline constexpr char kCtrBlockgenEdges[] = "blockgen.edges";
inline constexpr char kCtrDeviceTransferBytes[] =
    "device.transfer_bytes";
inline constexpr char kCtrDeviceTransferSavedBytes[] =
    "device.transfer_saved_bytes";
inline constexpr char kCtrDeviceOomEvents[] = "device.oom_events";

// --- Counters: memory audit ----------------------------------------
inline constexpr char kCtrAuditGroups[] = "audit.groups";

// --- Counters: feature-cache policies ------------------------------
// Micro-batches the startup presample pass sampled to build the
// frequency table (PresampleFrequencyPolicy only).
inline constexpr char kCtrCachePresampleBatches[] =
    "cache.presample_batches";

// --- Counters: serving (DESIGN.md, "Serving") ----------------------
// requests = everything submitted; shed = rejected at admission
// (queue full); expired = dropped past their deadline before a
// worker saw them; completed = responses produced (deadline met or
// not); errors = forward-pass failures; batches = micro-batches
// executed; deadline_misses = completed but past deadline.
inline constexpr char kCtrServeRequests[] = "serve.requests";
inline constexpr char kCtrServeShed[] = "serve.shed";
inline constexpr char kCtrServeExpired[] = "serve.expired";
inline constexpr char kCtrServeCompleted[] = "serve.completed";
inline constexpr char kCtrServeErrors[] = "serve.errors";
inline constexpr char kCtrServeBatches[] = "serve.batches";
inline constexpr char kCtrServeDeadlineMisses[] =
    "serve.deadline_misses";

// --- Counters: compute kernels (DESIGN.md, "Compute kernels") ------
// Per-op-class call counts, cumulative nanoseconds, and bytes moved,
// recorded by tensor::kernels::OpTimer; gemm_flops counts multiply-add
// work (2*m*n*k per GEMM). parallel_ops / serial_ops count dispatch
// decisions (grain policy, nesting, thread budget).
inline constexpr char kCtrKernelsGemmCalls[] = "kernels.gemm_calls";
inline constexpr char kCtrKernelsGemmNanos[] = "kernels.gemm_nanos";
inline constexpr char kCtrKernelsGemmBytes[] = "kernels.gemm_bytes";
inline constexpr char kCtrKernelsGemmFlops[] = "kernels.gemm_flops";
inline constexpr char kCtrKernelsElementwiseCalls[] =
    "kernels.elementwise_calls";
inline constexpr char kCtrKernelsElementwiseNanos[] =
    "kernels.elementwise_nanos";
inline constexpr char kCtrKernelsElementwiseBytes[] =
    "kernels.elementwise_bytes";
inline constexpr char kCtrKernelsGatherCalls[] =
    "kernels.gather_calls";
inline constexpr char kCtrKernelsGatherNanos[] =
    "kernels.gather_nanos";
inline constexpr char kCtrKernelsGatherBytes[] =
    "kernels.gather_bytes";
inline constexpr char kCtrKernelsAggCalls[] = "kernels.agg_calls";
inline constexpr char kCtrKernelsAggNanos[] = "kernels.agg_nanos";
inline constexpr char kCtrKernelsAggBytes[] = "kernels.agg_bytes";
inline constexpr char kCtrKernelsParallelOps[] =
    "kernels.parallel_ops";
inline constexpr char kCtrKernelsSerialOps[] = "kernels.serial_ops";

// --- Gauges --------------------------------------------------------
inline constexpr char kGaugeTrainPeakDeviceBytes[] =
    "train.peak_device_bytes";
inline constexpr char kGaugeDevicePeakBytes[] = "device.peak_bytes";
inline constexpr char kGaugePipelineSampleBusySeconds[] =
    "pipeline.sample_busy_seconds";
inline constexpr char kGaugePipelineBuildBusySeconds[] =
    "pipeline.build_busy_seconds";
inline constexpr char kGaugePipelineFeatureBusySeconds[] =
    "pipeline.feature_busy_seconds";
inline constexpr char kGaugePipelineMaxSampledQueue[] =
    "pipeline.max_sampled_queue";
inline constexpr char kGaugePipelineMaxBuiltQueue[] =
    "pipeline.max_built_queue";
inline constexpr char kGaugePipelineMaxReadyQueue[] =
    "pipeline.max_ready_queue";
inline constexpr char kGaugePipelinePeakHostBytes[] =
    "pipeline.peak_host_bytes";
inline constexpr char kGaugeCacheHits[] = "cache.hits";
inline constexpr char kGaugeCacheMisses[] = "cache.misses";
inline constexpr char kGaugeCacheHitRate[] = "cache.hit_rate";
inline constexpr char kGaugeCacheBytesInUse[] = "cache.bytes_in_use";
inline constexpr char kGaugeCacheResidentNodes[] =
    "cache.resident_nodes";
inline constexpr char kGaugeCachePinnedNodes[] =
    "cache.pinned_nodes";
inline constexpr char kGaugeCachePresampleSeconds[] =
    "cache.presample_seconds";
inline constexpr char kGaugeTracerDroppedSpans[] =
    "tracer.dropped_spans";
inline constexpr char kGaugeAuditMeanAbsRelError[] =
    "audit.mean_abs_rel_error";
inline constexpr char kGaugeAuditMaxAbsRelError[] =
    "audit.max_abs_rel_error";
inline constexpr char kGaugeServeGoodputQps[] = "serve.goodput_qps";
inline constexpr char kGaugeServeShedRate[] = "serve.shed_rate";
inline constexpr char kGaugeServeMaxQueueDepth[] =
    "serve.max_queue_depth";

// --- Histograms ----------------------------------------------------
inline constexpr char kHistSchedulerEstimateRelError[] =
    "scheduler.estimate_rel_error";
inline constexpr char kHistSchedulerNumGroups[] =
    "scheduler.num_groups";
inline constexpr char kHistSchedulerScheduleSeconds[] =
    "scheduler.schedule_seconds";
inline constexpr char kHistBlockgenLayerNodes[] =
    "blockgen.layer_nodes";
inline constexpr char kHistBlockgenLayerEdges[] =
    "blockgen.layer_edges";
inline constexpr char kHistServeLatencyMs[] = "serve.latency_ms";
inline constexpr char kHistServeQueueMs[] = "serve.queue_ms";
inline constexpr char kHistServeBatchSize[] = "serve.batch_size";

// --- Histograms: queue wait/service decomposition ------------------
// Per-item time decomposition at every pipeline handoff (DESIGN.md,
// "Critical-path attribution"): `wait_ms` is how long an item sat in
// the queue before its consumer dequeued it; `service_ms` is how long
// the consumer then worked on it. Training pipeline queues
// (sampled/built/ready) and the serve tier (admit/plans/prepared)
// share the naming scheme `queue.<name>.{wait,service}_ms`.
inline constexpr char kHistQueueSampledWaitMs[] =
    "queue.sampled.wait_ms";
inline constexpr char kHistQueueSampledServiceMs[] =
    "queue.sampled.service_ms";
inline constexpr char kHistQueueBuiltWaitMs[] =
    "queue.built.wait_ms";
inline constexpr char kHistQueueBuiltServiceMs[] =
    "queue.built.service_ms";
inline constexpr char kHistQueueReadyWaitMs[] =
    "queue.ready.wait_ms";
inline constexpr char kHistQueueReadyServiceMs[] =
    "queue.ready.service_ms";
inline constexpr char kHistQueueAdmitWaitMs[] =
    "queue.admit.wait_ms";
inline constexpr char kHistQueueAdmitServiceMs[] =
    "queue.admit.service_ms";
inline constexpr char kHistQueuePlansWaitMs[] =
    "queue.plans.wait_ms";
inline constexpr char kHistQueuePlansServiceMs[] =
    "queue.plans.service_ms";
inline constexpr char kHistQueuePreparedWaitMs[] =
    "queue.prepared.wait_ms";
inline constexpr char kHistQueuePreparedServiceMs[] =
    "queue.prepared.service_ms";

// --- Gauges: critical-path attribution -----------------------------
// Published per pipelined epoch from the EpochReport's critical-path
// section (obs/critical_path.h).
inline constexpr char kGaugeCpWallSeconds[] = "cp.wall_seconds";
inline constexpr char kGaugeCpSerialSeconds[] = "cp.serial_seconds";
inline constexpr char kGaugeCpOverlapEfficiency[] =
    "cp.overlap_efficiency";
inline constexpr char kGaugeCpDominantShare[] = "cp.dominant_share";

// --- Event-log event types (`obs::eventLog().event(...)`) ----------
// JSONL run-log vocabulary (DESIGN.md, "Memory audit & bench
// regression"). Same dotted naming scheme as spans; an event type
// may intentionally share its string with the span that brackets the
// same work (e.g. scheduler.schedule).
inline constexpr char kEvRunBegin[] = "run.begin";
inline constexpr char kEvRunEnd[] = "run.end";
inline constexpr char kEvSchedulerSchedule[] = "scheduler.schedule";
inline constexpr char kEvSchedulerExplosionSplit[] =
    "scheduler.explosion_split";
inline constexpr char kEvTrainOomRetry[] = "train.oom_retry";
inline constexpr char kEvTrainEpochSummary[] = "train.epoch_summary";
inline constexpr char kEvCacheSnapshot[] = "cache.snapshot";
/** Emitted when a cache policy is built (makeCachePolicy): policy
 *  name plus the presample pass cost when one ran. */
inline constexpr char kEvCachePolicy[] = "cache.policy";
inline constexpr char kEvDeviceOom[] = "device.oom";
inline constexpr char kEvServeBatch[] = "serve.batch";
inline constexpr char kEvServeSummary[] = "serve.summary";
/** Emitted by the atexit-safe flush path (obs/flush.h) just before
 *  the run log is closed, whether the exit was clean or early. */
inline constexpr char kEvRunFlush[] = "run.flush";
/** Periodic queue-depth snapshot from the QueueDepthSampler
 *  (obs/queue_telemetry.h): {queue, depth}. */
inline constexpr char kEvQueueDepth[] = "queue.depth";
/** Per-epoch critical-path summary: wall/serial seconds, overlap
 *  efficiency, and the dominant stage with its share. */
inline constexpr char kEvCpReport[] = "cp.report";
/** Per-thread tracer ring accounting at end of run: {tid, dropped,
 *  capacity}; emitted only for threads that overwrote spans. */
inline constexpr char kEvTracerRing[] = "tracer.ring";

// --- Core CI expectations (`obs_validate --expect-* @core`) --------
// Spans any pipelined smoke epoch must record.
inline constexpr const char *kCoreSpans[] = {
    kSpanTrainEpoch,
    kSpanTrainIteration,
    kSpanPipelineSample,
};

// Metrics any pipelined smoke epoch must register. The kernel
// counters require Numeric execution (cost-model epochs never run
// numeric kernels), which the ci.sh smoke epoch uses.
inline constexpr const char *kCoreMetrics[] = {
    kCtrTrainEpochs,
    kCtrSchedulerSchedules,
    kCtrKernelsGemmCalls,
    kCtrKernelsSerialOps,
    kGaugeDevicePeakBytes,
    kGaugeTracerDroppedSpans,
};

// Event types any pipelined smoke run (`--run-log`) must emit.
inline constexpr const char *kCoreEvents[] = {
    kEvRunBegin,
    kEvSchedulerSchedule,
    kEvTrainEpochSummary,
    kEvRunEnd,
};

// --- Serve CI expectations (`obs_validate --expect-* @serve`) ------
// What any buffalo_serve smoke run must produce; kept separate from
// @core because training smokes never touch the serve path.
inline constexpr const char *kServeSpans[] = {
    kSpanServePrep,
    kSpanServeForward,
};

inline constexpr const char *kServeMetrics[] = {
    kCtrServeRequests,
    kCtrServeCompleted,
    kCtrServeBatches,
    kGaugeServeGoodputQps,
    kHistServeLatencyMs,
    kHistQueueAdmitWaitMs,
    kHistQueueAdmitServiceMs,
    kHistQueuePlansWaitMs,
    kHistQueuePlansServiceMs,
    kHistQueuePreparedWaitMs,
    kHistQueuePreparedServiceMs,
};

inline constexpr const char *kServeEvents[] = {
    kEvRunBegin,
    kEvServeSummary,
    kEvQueueDepth,
    kEvRunFlush,
    kEvRunEnd,
};

// --- Cache CI expectations (`obs_validate --expect-* @cache`) ------
// Metrics any cache-enabled run with `--cache-policy presample` must
// register — both the ci.sh smoke epoch and the serving smoke enable
// the cache with the presample policy, so they share this list.
inline constexpr const char *kCacheMetrics[] = {
    kGaugeCacheHits,
    kGaugeCacheMisses,
    kGaugeCacheHitRate,
    kGaugeCachePinnedNodes,
    kCtrCachePresampleBatches,
    kGaugeCachePresampleSeconds,
};

// Event types any cache-enabled run must log: the policy-build event
// (with the presample cost) and the end-of-run cache snapshot.
inline constexpr const char *kCacheEvents[] = {
    kEvCachePolicy,
    kEvCacheSnapshot,
};

// --- Critical-path CI expectations (`obs_validate ... @cp`) --------
// What any pipelined training smoke must additionally produce once
// critical-path attribution is on: the per-epoch cp.* gauges and the
// wait/service histograms of the three prefetch handoffs. Serve runs
// use the queue.{admit,plans,prepared}.* names in @serve instead.
inline constexpr const char *kCpMetrics[] = {
    kGaugeCpWallSeconds,
    kGaugeCpSerialSeconds,
    kGaugeCpOverlapEfficiency,
    kGaugeCpDominantShare,
    kHistQueueSampledWaitMs,
    kHistQueueSampledServiceMs,
    kHistQueueBuiltWaitMs,
    kHistQueueBuiltServiceMs,
    kHistQueueReadyWaitMs,
    kHistQueueReadyServiceMs,
};

// Event types a pipelined training smoke with `--run-log` must emit:
// the epoch critical-path report and at least one queue-depth sample.
inline constexpr const char *kCpEvents[] = {
    kEvCpReport,
    kEvQueueDepth,
};

} // namespace buffalo::obs::names
