/**
 * @file
 * buffalo_train — command-line training driver.
 *
 * Train a GNN on a built-in simulated dataset, a custom edge list, or
 * a saved dataset bundle, under a GPU memory budget, and optionally
 * checkpoint the resulting model:
 *
 *   buffalo_train --dataset arxiv --model sage --aggregator lstm \
 *                 --budget-mb 64 --epochs 4 --batch-size 256 \
 *                 --save-checkpoint model.ckpt
 *
 *   buffalo_train --edge-list graph.txt --classes 8 --feature-dim 64 \
 *                 --model gcn --budget-mb 32
 *
 * Run with --help for the full flag list.
 */
#include <cstdio>
#include <set>

#include "cli_common.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "nn/checkpoint.h"
#include "obs/audit.h"
#include "obs/event_log.h"
#include "obs/flush.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "pipeline/pipeline_trainer.h"
#include "train/evaluator.h"
#include "train/experiment.h"
#include "train/trainer.h"
#include "util/flags.h"
#include "util/format.h"
#include "util/logging.h"

using namespace buffalo;

namespace {

const char *const kUsage = R"(buffalo_train — Buffalo GNN training CLI

input (pick one):
  --dataset NAME        built-in sim: cora, pubmed, reddit, arxiv,
                        products, papers           [default: arxiv]
  --edge-list PATH      text edge list ("src dst" per line)
  --bundle PATH         dataset bundle from --save-bundle
dataset options:
  --scale X             node-count scale of the built-in sim [0.25]
  --classes N           label classes for --edge-list        [8]
  --feature-dim N       feature width for --edge-list        [64]
model:
  --model NAME          sage | gcn | gat                     [sage]
  --aggregator NAME     mean | pool | lstm | gcn (sage only) [mean]
  --layers N            aggregation depth                    [2]
  --hidden N            hidden width                         [32]
  --heads N             attention heads (gat)                [1]
  --fanouts A,B,...     per-layer fanouts, input-most first  [10,25]
training:
  --budget-mb N         simulated GPU memory budget          [64]
  --epochs N            training epochs                      [4]
  --batch-size N        seeds per batch                      [256]
  --lr X                learning rate                        [5e-3]
  --seed N              RNG seed                             [42]
  --system NAME         buffalo | whole | betty              [buffalo]
  --betty-k N           Betty micro-batch count              [4]
  --cost-model          analytic execution (no numeric math)
  --kernel-threads N    compute-kernel worker threads; 0 uses
                        hardware concurrency, 1 forces serial [0]
  --kernel-tile-n N     GEMM tile width (columns), [1,4096]  [64]
  --kernel-tile-k N     GEMM tile depth (k), [1,4096]       [128]
  --kernel-simd NAME    wide-ISA kernels: auto | off | on
                        (on fails fast without AVX2/NEON) [auto]
pipeline (requires --system buffalo):
  --pipeline            prefetch batches while training
  --prefetch-depth N    batches prepared ahead               [2]
  --feature-cache-mb X  host feature cache size (0 = off)    [0]
  --cache-policy NAME   hot-set policy: lru | degree |
                        presample                        [degree]
  --pinned-hot N        cap on policy-pinned nodes (0 = fill
                        the cache capacity)                  [0]
  --presample-batches N micro-batches the startup presample
                        pass samples (presample policy)      [8]
  --host-budget-mb X    staged host memory cap (0 = off)     [0]
observability:
  --trace-out P         write a Chrome trace-event JSON (load in
                        about://tracing or Perfetto)
  --trace-ring N        spans each thread's trace ring retains
                        before overwriting oldest            [65536]
  --metrics-json P      write the metrics registry as flat JSON
  --metrics-table       print the metrics registry as tables
  --run-log P           write structured JSONL run events (schedule
                        decisions, OOM retries, epoch summaries) to P
  --audit-json P        write predicted-vs-actual memory audit JSON
                        (Buffalo schedulers only)
output:
  --save-checkpoint P   write model parameters after training
  --load-checkpoint P   initialize model parameters from P
  --save-bundle P       write the dataset as a reloadable bundle
  --eval                report held-out accuracy after training
  --verbose             info-level logging
  --help                this text
)";

graph::Dataset
loadInput(const util::Flags &flags)
{
    if (flags.has("edge-list")) {
        graph::CsrGraph g = graph::readEdgeListFile(
            flags.getString("edge-list"));
        const int classes =
            static_cast<int>(flags.getInt("classes", 8));
        // Structure-correlated labels via id buckets (users with real
        // labels should build a bundle via the library API instead).
        std::vector<std::int32_t> labels(g.numNodes());
        for (graph::NodeId u = 0; u < g.numNodes(); ++u)
            labels[u] = static_cast<std::int32_t>(
                static_cast<std::uint64_t>(u) * classes /
                std::max<graph::NodeId>(g.numNodes(), 1));
        util::Rng rng(flags.getInt("seed", 42));
        const double coefficient =
            graph::sampledClusteringCoefficient(g, 400, rng);
        return graph::makeDataset(
            flags.getString("edge-list"), std::move(g),
            std::move(labels), classes,
            static_cast<int>(flags.getInt("feature-dim", 64)),
            coefficient,
            static_cast<std::uint64_t>(flags.getInt("seed", 42)));
    }
    if (flags.has("bundle"))
        return graph::loadDatasetBundleFile(flags.getString("bundle"));

    return graph::loadDataset(
        tools::datasetIdFromName(flags.getString("dataset", "arxiv")),
        static_cast<std::uint64_t>(flags.getInt("seed", 42)),
        flags.getDouble("scale", 0.25));
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        util::Flags flags(argc, argv);
        if (flags.has("help")) {
            std::fputs(kUsage, stdout);
            return 0;
        }
        std::set<std::string> known = {
            "dataset", "edge-list", "bundle", "scale", "classes",
            "feature-dim", "model", "aggregator", "layers", "hidden",
            "heads", "fanouts", "budget-mb", "epochs", "batch-size",
            "lr", "seed", "system", "betty-k", "cost-model",
            "pipeline", "prefetch-depth", "host-budget-mb",
            "trace-out", "trace-ring", "metrics-json",
            "metrics-table", "run-log", "audit-json",
            "save-checkpoint", "load-checkpoint", "save-bundle",
            "eval", "verbose", "help",
        };
        known.insert(tools::cacheFlagNames().begin(),
                     tools::cacheFlagNames().end());
        known.insert(tools::kernelFlagNames().begin(),
                     tools::kernelFlagNames().end());
        flags.checkKnown(known);
        if (flags.getBool("verbose"))
            util::setLogLevel(util::LogLevel::Info);

        graph::Dataset data = loadInput(flags);
        std::printf("dataset %s: %u nodes, %llu edges, %d classes\n",
                    data.name().c_str(), data.graph().numNodes(),
                    static_cast<unsigned long long>(
                        data.graph().numEdges()),
                    data.numClasses());
        if (flags.has("save-bundle")) {
            graph::saveDatasetFile(flags.getString("save-bundle"),
                                   data);
            std::printf("bundle written to %s\n",
                        flags.getString("save-bundle").c_str());
        }

        train::TrainerOptions options;
        options.model_kind =
            nn::modelArchFromName(flags.getString("model", "sage"));

        options.model.aggregator = nn::aggregatorFromName(
            flags.getString("aggregator", "mean"));
        options.model.num_layers =
            static_cast<int>(flags.getInt("layers", 2));
        options.model.feature_dim = data.featureDim();
        options.model.hidden_dim =
            static_cast<int>(flags.getInt("hidden", 32));
        options.model.num_classes = data.numClasses();
        options.model.num_heads =
            static_cast<int>(flags.getInt("heads", 1));
        options.fanouts =
            tools::parseFanouts(flags.getString("fanouts", "10,25"));
        checkArgument(options.fanouts.size() ==
                          static_cast<std::size_t>(
                              options.model.num_layers),
                      "--fanouts must list one value per layer");
        options.learning_rate = flags.getDouble("lr", 5e-3);
        options.seed =
            static_cast<std::uint64_t>(flags.getInt("seed", 42));
        options.mode = flags.getBool("cost-model")
                           ? train::ExecutionMode::CostModel
                           : train::ExecutionMode::Numeric;
        options.kernels = tools::parseKernelConfig(flags);

        options.pipeline.enabled = flags.getBool("pipeline");
        options.pipeline.prefetch_depth =
            static_cast<int>(flags.getInt("prefetch-depth", 2));
        const tools::CacheCliOptions cache =
            tools::parseCacheFlags(flags);
        options.pipeline.feature_cache_bytes = cache.capacity_bytes;
        options.pipeline.cache_policy = cache.policy;
        options.pipeline.pinned_hot_nodes = cache.pinned_hot_nodes;
        options.pipeline.presample_batches = cache.presample_batches;
        options.pipeline.host_memory_budget =
            util::mib(flags.getDouble("host-budget-mb", 0.0));

        if (flags.has("trace-ring"))
            obs::tracer().setRingCapacity(static_cast<std::size_t>(
                flags.getInt("trace-ring", 1 << 16)));
        if (flags.has("trace-out"))
            obs::tracer().enable();
        if (flags.has("audit-json"))
            obs::memoryAudit().enable(true);
        if (flags.has("run-log")) {
            obs::eventLog().open(flags.getString("run-log"));
            obs::eventLog()
                .event(obs::names::kEvRunBegin)
                .field("dataset", data.name())
                .field("system", flags.getString("system", "buffalo"))
                .field("epochs", flags.getInt("epochs", 4))
                .field("batch_size", flags.getInt("batch-size", 256))
                .field("budget_mb", flags.getInt("budget-mb", 64));
        }
        // Arm the exit flusher so --run-log / --metrics-json are
        // complete even when an error path calls std::exit early.
        if (flags.has("metrics-json"))
            obs::exitFlush().registerMetricsJson(
                flags.getString("metrics-json"));
        if (flags.has("run-log") || flags.has("metrics-json"))
            obs::exitFlush().arm();

        // The per-epoch progress lines ride the unified reporting
        // hook, so one runTraining loop serves every trainer.
        options.epoch_observer = [](int epoch,
                                    const train::EpochReport &r) {
            std::printf("epoch %d: loss %.4f acc %.3f (%s measured "
                        "wall, %s modeled device)\n",
                        epoch, r.mean_loss, r.accuracy,
                        util::formatSeconds(r.wall_seconds).c_str(),
                        util::formatSeconds(r.phases.modeledSeconds())
                            .c_str());
            if (!r.pipelined)
                return;
            std::printf("  overlap model (measured host stages, modeled "
                        "device): %s wall vs %s serial\n",
                        util::formatSeconds(r.cp.wall_us / 1e6).c_str(),
                        util::formatSeconds(r.cp.serial_us / 1e6).c_str());
            if (r.cache.capacity_bytes > 0) {
                std::printf(
                    "  cache: %.1f%% hit rate, %s transfer saved "
                    "(%llu hits / %llu misses / %llu evictions)\n",
                    r.cache.hitRate() * 100.0,
                    util::formatBytes(r.transfer_saved_bytes).c_str(),
                    static_cast<unsigned long long>(r.cache.hits),
                    static_cast<unsigned long long>(r.cache.misses),
                    static_cast<unsigned long long>(r.cache.evictions));
            }
        };

        device::Device gpu(
            "gpu:0", util::mib(static_cast<double>(
                         flags.getInt("budget-mb", 64))));

        std::unique_ptr<train::TrainerBase> trainer;
        const std::string system =
            flags.getString("system", "buffalo");
        checkArgument(!options.pipeline.enabled || system == "buffalo",
                      "--pipeline requires --system buffalo");
        if (system == "buffalo" && options.pipeline.enabled) {
            trainer = std::make_unique<pipeline::PipelineTrainer>(
                options, gpu);
        } else if (system == "buffalo") {
            trainer =
                std::make_unique<train::BuffaloTrainer>(options, gpu);
        } else if (system == "whole") {
            trainer = std::make_unique<train::WholeBatchTrainer>(
                options, gpu);
        } else if (system == "betty") {
            trainer = std::make_unique<train::BettyTrainer>(
                options, gpu,
                static_cast<int>(flags.getInt("betty-k", 4)));
        } else {
            throw InvalidArgument("unknown --system '" + system + "'");
        }

        if (flags.has("load-checkpoint")) {
            nn::loadCheckpointFile(flags.getString("load-checkpoint"),
                                   trainer->model().module());
            std::printf("checkpoint loaded from %s\n",
                        flags.getString("load-checkpoint").c_str());
        }

        util::Rng rng(options.seed ^ 0x7EA);
        const int epochs =
            static_cast<int>(flags.getInt("epochs", 4));
        const std::size_t batch_size = static_cast<std::size_t>(
            flags.getInt("batch-size", 256));
        train::runTraining(*trainer, data, epochs, batch_size, rng);
        std::printf("peak device memory: %s of %s\n",
                    util::formatBytes(gpu.allocator().peakBytes())
                        .c_str(),
                    util::formatBytes(gpu.allocator().capacity())
                        .c_str());

        if (flags.getBool("eval") &&
            options.mode == train::ExecutionMode::Numeric) {
            auto stats =
                train::evaluate(*trainer, data, data.trainNodes(), rng);
            std::printf("eval: loss %.4f accuracy %.3f over %zu nodes "
                        "(%d micro-batches)\n",
                        stats.loss, stats.accuracy, stats.nodes,
                        stats.micro_batches);
        }
        if (flags.has("save-checkpoint")) {
            nn::saveCheckpointFile(flags.getString("save-checkpoint"),
                                   trainer->model().module());
            std::printf("checkpoint written to %s\n",
                        flags.getString("save-checkpoint").c_str());
        }

        if (flags.has("run-log")) {
            // Per-thread ring accounting: one tracer.ring event per
            // thread that lost spans, so undersized rings can be
            // attributed to the thread that overflowed.
            for (const obs::ThreadDropReport &drop :
                 obs::tracer().droppedByThread()) {
                if (drop.dropped == 0)
                    continue;
                obs::eventLog()
                    .event(obs::names::kEvTracerRing)
                    .field("tid", static_cast<std::uint64_t>(drop.tid))
                    .field("dropped", drop.dropped)
                    .field("capacity",
                           static_cast<std::uint64_t>(
                               obs::tracer().ringCapacity()));
            }
            obs::eventLog()
                .event(obs::names::kEvRunEnd)
                .field("epochs_run", trainer->epochsRun())
                .field("peak_device_bytes",
                       gpu.allocator().peakBytes())
                .field("tracer_dropped_spans",
                       obs::tracer().droppedSpans());
            obs::eventLog().close();
            std::printf("run log written to %s (%llu events)\n",
                        flags.getString("run-log").c_str(),
                        static_cast<unsigned long long>(
                            obs::eventLog().eventsWritten()));
        }
        if (flags.has("audit-json")) {
            obs::memoryAudit().writeJson(
                flags.getString("audit-json"));
            std::printf("memory audit written to %s "
                        "(%zu epochs, mean |rel err| %.1f%%)\n",
                        flags.getString("audit-json").c_str(),
                        obs::memoryAudit().epochs().size(),
                        obs::memoryAudit().epochs().empty()
                            ? 0.0
                            : obs::memoryAudit()
                                      .epochs()
                                      .back()
                                      .summary.meanAbsRelError() *
                                  100.0);
        }
        // Ring-buffer overwrites surface as a gauge so obs_validate
        // (and any metrics consumer) can flag undersized rings.
        obs::metrics()
            .gauge(obs::names::kGaugeTracerDroppedSpans)
            .set(static_cast<double>(obs::tracer().droppedSpans()));
        if (flags.has("trace-out")) {
            obs::tracer().disable();
            obs::tracer().writeJson(flags.getString("trace-out"));
            std::printf("trace written to %s (%zu spans)\n",
                        flags.getString("trace-out").c_str(),
                        obs::tracer().spanCount());
        }
        if (flags.has("metrics-json")) {
            obs::metrics().writeJson(flags.getString("metrics-json"));
            std::printf("metrics written to %s\n",
                        flags.getString("metrics-json").c_str());
        }
        if (flags.getBool("metrics-table"))
            std::fputs(obs::metrics().toTable().c_str(), stdout);
        return 0;
    } catch (const Error &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
