/**
 * @file
 * buffalo_serve — batched online GNN inference server driver.
 *
 * Spins up a serve::Server over a dataset, drives it with client
 * threads at a fixed offered QPS, and reports tail latency, goodput,
 * and shed rate. Weights come from a buffalo_train checkpoint:
 *
 *   buffalo_train --dataset arxiv --model sage --epochs 2 \
 *                 --save-checkpoint model.ckpt
 *   buffalo_serve --dataset arxiv --model sage \
 *                 --checkpoint model.ckpt --qps 200 --clients 4 \
 *                 --deadline-ms 100 --duration-s 10
 *
 * Run with --help for the full flag list.
 */
#include <chrono>
#include <cstdio>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "cli_common.h"
#include "graph/io.h"
#include "obs/event_log.h"
#include "obs/flush.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "serve/serve_loop.h"
#include "util/flags.h"
#include "util/format.h"
#include "util/logging.h"
#include "util/rng.h"

using namespace buffalo;

namespace {

const char *const kUsage = R"(buffalo_serve — Buffalo online inference server

input:
  --dataset NAME        built-in sim: cora, pubmed, reddit, arxiv,
                        products, papers           [default: arxiv]
  --bundle PATH         dataset bundle from buffalo_train
  --scale X             node-count scale of the built-in sim [0.25]
model:
  --model NAME          sage | gcn | gat                     [sage]
  --aggregator NAME     mean | pool | lstm | gcn (sage only) [mean]
  --layers N            aggregation depth                    [2]
  --hidden N            hidden width                         [32]
  --heads N             attention heads (gat)                [1]
  --fanouts A,B,...     per-layer fanouts, input-most first  [10,25]
  --checkpoint P        load model weights from P (else the seed
                        initialization is served)
serving:
  --qps X               offered load, requests/second        [100]
  --clients N           client threads generating load       [2]
  --duration-s X        seconds to run                       [5]
  --requests N          stop after N requests (0 = duration) [0]
  --deadline-ms X       per-request latency SLO              [100]
  --queue-capacity N    admission queue depth                [256]
  --max-batch N         requests coalesced per micro-batch   [32]
  --byte-budget X       in-flight batch working-set cap, MiB
                        (0 = off)                            [0]
  --feature-cache-mb X  prep-path feature cache size; hits skip
                        feature fills (0 = off)              [0]
  --cache-policy NAME   hot-set policy: lru | degree |
                        presample                        [degree]
  --pinned-hot N        cap on policy-pinned nodes (0 = fill
                        the cache capacity)                  [0]
  --presample-batches N micro-batches the startup presample
                        pass samples (presample policy)      [8]
  --prep-threads N      sampling/blockgen/feature threads    [1]
  --workers N           forward-pass threads (model replicas)[1]
  --prepared-depth N    prepared batches buffered ahead      [4]
  --kernel-threads N    compute-kernel worker threads; 0 uses
                        hardware concurrency, 1 forces serial [0]
  --kernel-tile-n N     GEMM tile width (columns), [1,4096]  [64]
  --kernel-tile-k N     GEMM tile depth (k), [1,4096]       [128]
  --kernel-simd NAME    wide-ISA kernels: auto | off | on
                        (on fails fast without AVX2/NEON) [auto]
  --seed N              RNG seed (model init + sampling)     [42]
observability:
  --trace-out P         write a Chrome trace-event JSON
  --trace-ring N        spans each thread's trace ring retains
                        before overwriting oldest            [65536]
  --metrics-json P      write the metrics registry as flat JSON
  --run-log P           write structured JSONL run events
ci:
  --require-goodput     exit nonzero unless goodput > 0 and no
                        request failed
  --verbose             info-level logging
  --help                this text
)";

graph::Dataset
loadInput(const util::Flags &flags)
{
    if (flags.has("bundle"))
        return graph::loadDatasetBundleFile(
            flags.getString("bundle"));
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
            "dataset", "bundle", "scale",
            "model", "aggregator", "layers", "hidden", "heads",
            "fanouts", "checkpoint",
            "qps", "clients", "duration-s", "requests",
            "deadline-ms", "queue-capacity", "max-batch",
            "byte-budget", "prep-threads", "workers",
            "prepared-depth", "seed",
            "trace-out", "trace-ring", "metrics-json", "run-log",
            "require-goodput", "verbose", "help",
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

        serve::ServeOptions options;
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
        options.checkpoint = flags.getString("checkpoint", "");
        options.queue_capacity = static_cast<std::size_t>(
            flags.getInt("queue-capacity", 256));
        options.max_batch = static_cast<std::size_t>(
            flags.getInt("max-batch", 32));
        options.byte_budget =
            util::mib(flags.getDouble("byte-budget", 0.0));
        options.deadline_ms = flags.getDouble("deadline-ms", 100.0);
        const tools::CacheCliOptions cache =
            tools::parseCacheFlags(flags);
        options.feature_cache_bytes = cache.capacity_bytes;
        options.cache_policy = cache.policy;
        options.cache_pinned_nodes = cache.pinned_hot_nodes;
        options.presample_batches = cache.presample_batches;
        options.prep_threads = static_cast<std::size_t>(
            flags.getInt("prep-threads", 1));
        options.workers =
            static_cast<std::size_t>(flags.getInt("workers", 1));
        options.prepared_depth = static_cast<std::size_t>(
            flags.getInt("prepared-depth", 4));
        options.seed =
            static_cast<std::uint64_t>(flags.getInt("seed", 42));
        options.kernels = tools::parseKernelConfig(flags);
        tensor::kernels::setConfig(options.kernels);

        const double qps = flags.getDouble("qps", 100.0);
        const std::size_t clients = static_cast<std::size_t>(
            flags.getInt("clients", 2) < 1
                ? 1
                : flags.getInt("clients", 2));
        const double duration_s =
            flags.getDouble("duration-s", 5.0);
        const std::uint64_t max_requests = static_cast<std::uint64_t>(
            flags.getInt("requests", 0));
        checkArgument(qps > 0.0, "--qps must be > 0");

        if (flags.has("trace-ring"))
            obs::tracer().setRingCapacity(static_cast<std::size_t>(
                flags.getInt("trace-ring", 1 << 16)));
        if (flags.has("trace-out"))
            obs::tracer().enable();
        if (flags.has("run-log")) {
            obs::eventLog().open(flags.getString("run-log"));
            obs::eventLog()
                .event(obs::names::kEvRunBegin)
                .field("dataset", data.name())
                .field("model", nn::modelArchName(options.model_kind))
                .field("qps", qps)
                .field("clients",
                       static_cast<std::uint64_t>(clients))
                .field("deadline_ms", options.deadline_ms);
        }
        // Serving runs get killed mid-flight (deploys, load tests);
        // the exit flusher keeps --run-log/--metrics-json complete.
        if (flags.has("metrics-json"))
            obs::exitFlush().registerMetricsJson(
                flags.getString("metrics-json"));
        if (flags.has("run-log") || flags.has("metrics-json"))
            obs::exitFlush().arm();

        serve::Server server(options, data);

        // Fixed-rate open-loop clients: each thread owns a slice of
        // the offered QPS and keeps to its own send schedule, so a
        // slow server sheds load instead of slowing the clients.
        const auto t0 = serve::Clock::now();
        std::vector<std::thread> client_threads;
        std::vector<std::vector<std::future<serve::InferenceResponse>>>
            futures(clients);
        const std::uint64_t per_client_cap =
            max_requests > 0
                ? (max_requests + clients - 1) / clients
                : 0;
        for (std::size_t c = 0; c < clients; ++c) {
            // buffalo-lint: allow(escape-ref-capture) client threads
            // are joined below before the captured locals go away
            client_threads.emplace_back([&, c] {
                util::Rng rng(options.seed ^ (0xC11E27ull + c));
                const double interval_s =
                    static_cast<double>(clients) / qps;
                const auto interval = std::chrono::duration_cast<
                    serve::Clock::duration>(
                    std::chrono::duration<double>(interval_s));
                auto next_send = t0 + (interval * c) / clients;
                const auto end =
                    t0 + std::chrono::duration_cast<
                             serve::Clock::duration>(
                             std::chrono::duration<double>(
                                 duration_s));
                std::uint64_t sent = 0;
                while (serve::Clock::now() < end &&
                       (per_client_cap == 0 ||
                        sent < per_client_cap)) {
                    std::this_thread::sleep_until(next_send);
                    next_send += interval;
                    const auto seed_node =
                        static_cast<graph::NodeId>(rng.nextBounded(
                            data.graph().numNodes()));
                    futures[c].push_back(server.submit(seed_node));
                    ++sent;
                }
            });
        }
        for (std::thread &thread : client_threads)
            thread.join();
        // Wait out the in-flight tail, then stop the pipeline.
        std::size_t failed = 0;
        for (auto &client_futures : futures)
            for (auto &future : client_futures)
                if (future.get().status ==
                    serve::ResponseStatus::Failed)
                    ++failed;
        server.shutdown();

        const serve::ServeSnapshot snap = server.stats();
        std::printf(
            "served %llu/%llu ok (%llu shed, %llu expired, %llu "
            "errors) in %.2fs\n",
            static_cast<unsigned long long>(snap.completed),
            static_cast<unsigned long long>(snap.submitted),
            static_cast<unsigned long long>(snap.shed),
            static_cast<unsigned long long>(snap.expired),
            static_cast<unsigned long long>(snap.errors),
            snap.elapsed_seconds);
        std::printf(
            "goodput %.1f qps (offered %.1f), shed rate %.2f%%, "
            "deadline misses %llu\n",
            snap.goodput_qps, qps, snap.shed_rate * 100.0,
            static_cast<unsigned long long>(snap.deadline_misses));
        std::printf(
            "latency ms: p50 %.2f  p99 %.2f  p999 %.2f "
            "(queue p99 %.2f, mean batch %.1f, max queue depth "
            "%zu)\n",
            snap.latency_p50_ms, snap.latency_p99_ms,
            snap.latency_p999_ms, snap.queue_p99_ms,
            snap.mean_batch_size, server.maxQueueDepth());
        if (const pipeline::FeatureCache *cache =
                server.featureCache()) {
            const pipeline::FeatureCacheStats cs = cache->stats();
            std::printf(
                "cache (%s policy): %.1f%% hit rate, %llu hits / "
                "%llu misses, %llu pinned of %llu resident\n",
                cs.policy, cs.hitRate() * 100.0,
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses),
                static_cast<unsigned long long>(cs.pinned_nodes),
                static_cast<unsigned long long>(cs.resident_nodes));
        }

        if (flags.has("run-log")) {
            obs::eventLog()
                .event(obs::names::kEvServeSummary)
                .field("submitted", snap.submitted)
                .field("completed", snap.completed)
                .field("shed", snap.shed)
                .field("expired", snap.expired)
                .field("errors", snap.errors)
                .field("goodput_qps", snap.goodput_qps)
                .field("p99_ms", snap.latency_p99_ms);
            // Per-thread ring accounting: one tracer.ring event per
            // thread that lost spans.
            for (const obs::ThreadDropReport &drop :
                 obs::tracer().droppedByThread()) {
                if (drop.dropped == 0)
                    continue;
                obs::eventLog()
                    .event(obs::names::kEvTracerRing)
                    .field("tid",
                           static_cast<std::uint64_t>(drop.tid))
                    .field("dropped", drop.dropped)
                    .field("capacity",
                           static_cast<std::uint64_t>(
                               obs::tracer().ringCapacity()));
            }
            obs::eventLog()
                .event(obs::names::kEvRunEnd)
                .field("elapsed_seconds", snap.elapsed_seconds);
        }
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
        // Single flush path for clean and early exits alike: emits
        // run.flush, closes the run log, writes the metrics JSON.
        obs::exitFlush().flush();
        if (flags.has("metrics-json"))
            std::printf("metrics written to %s\n",
                        flags.getString("metrics-json").c_str());
        if (flags.has("run-log"))
            std::printf("run log written to %s\n",
                        flags.getString("run-log").c_str());

        if (flags.getBool("require-goodput")) {
            if (snap.goodput_qps <= 0.0 || snap.errors > 0 ||
                failed > 0) {
                std::fprintf(stderr,
                             "require-goodput: goodput %.1f qps, "
                             "%llu errors, %zu failed futures\n",
                             snap.goodput_qps,
                             static_cast<unsigned long long>(
                                 snap.errors),
                             failed);
                return 1;
            }
        }
        return 0;
    } catch (const Error &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
