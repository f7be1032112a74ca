/**
 * @file
 * Serving bench: closed-loop load generator sweeping offered QPS
 * against serve::Server, reporting latency percentiles, goodput and
 * shed rate per point (DESIGN.md, "Serving").
 *
 * Gated metrics are the deterministic ones: request accounting
 * (submitted/completed/shed/errors — the closed loop never overruns
 * the admission queue and the 500 ms deadline is far above the
 * sub-millisecond forward cost, so every request completes), the SLO
 * verdict (p99 under the deadline), and bitwise parity of
 * forwardInference against the training forward at 1 and 4 kernel
 * threads. Latency percentiles and goodput are wall-clock-derived,
 * so they ride along as info() for trend inspection.
 *
 * A final sequential loop (one worker, one prep thread, submit then
 * get) exercises the prep-path feature cache under each cache policy;
 * hit counts there are deterministic, so they diff exactly.
 */
#include <cstring>
#include <thread>

#include "bench_common.h"
#include "nn/gnn_model.h"
#include "sampling/block_generator.h"
#include "sampling/sampled_subgraph.h"
#include "serve/serve_loop.h"
#include "tensor/kernels.h"
#include "train/feature_loader.h"
#include "util/rng.h"

using namespace buffalo;

namespace {

/** Bitwise parity of forwardInference vs forward at @p threads. */
bool
parityAtThreads(const graph::Dataset &data, std::size_t threads)
{
    tensor::kernels::KernelConfig cfg;
    cfg.threads = threads;
    tensor::kernels::setConfig(cfg);

    nn::ModelConfig config;
    config.num_layers = 2;
    config.feature_dim = data.featureDim();
    config.hidden_dim = 32;
    config.num_classes = data.numClasses();
    nn::GnnModel model(config, /*seed=*/7);

    sampling::NeighborSampler sampler({4, 6});
    util::Rng rng(99);
    auto seeds = bench::seedBatch(data, 64);
    auto sg = sampler.sample(data.graph(), seeds, rng);
    graph::NodeList locals(seeds.size());
    for (std::size_t i = 0; i < locals.size(); ++i)
        locals[i] = static_cast<graph::NodeId>(i);
    sampling::FastBlockGenerator generator;
    auto mb = generator.generate(sg, locals);
    nn::Tensor feats = train::loadFeatures(data, mb.inputNodes());

    nn::Tensor trained = model.forward(mb, feats);
    nn::Tensor served = model.forwardInference(mb, feats);
    return trained.rows() == served.rows() &&
           trained.cols() == served.cols() &&
           std::memcmp(trained.data(), served.data(),
                       trained.size() * sizeof(float)) == 0;
}

} // namespace

int
main()
{
    graph::Dataset data = graph::loadDataset(graph::DatasetId::Cora);
    bench::banner("serve: closed-loop QPS sweep", data);
    bench::Reporter report("serve");

    // --- forward parity (the serving correctness contract) --------
    const bool parity_1 = parityAtThreads(data, 1);
    const bool parity_4 = parityAtThreads(data, 4);
    std::printf("forwardInference parity: threads=1 %s, threads=4 "
                "%s\n",
                parity_1 ? "bitwise" : "MISMATCH",
                parity_4 ? "bitwise" : "MISMATCH");
    report.metric("forward_parity_threads1", parity_1 ? 1.0 : 0.0,
                  0.0);
    report.metric("forward_parity_threads4", parity_4 ? 1.0 : 0.0,
                  0.0);

    // --- QPS sweep -------------------------------------------------
    const double kDeadlineMs = 500.0;
    const std::size_t kClients = 4;
    const std::size_t kRequestsPerClient = 32;
    util::Table table({"offered qps", "completed", "shed",
                       "goodput qps", "p50 ms", "p99 ms",
                       "mean batch"});

    for (const double qps : {64.0, 128.0, 256.0}) {
        serve::ServeOptions options;
        options.model_kind = train::ModelKind::Sage;
        options.model.num_layers = 2;
        options.model.feature_dim = data.featureDim();
        options.model.hidden_dim = 32;
        options.model.num_classes = data.numClasses();
        options.fanouts = {4, 6};
        options.max_batch = 16;
        options.byte_budget = util::mib(64);
        options.deadline_ms = kDeadlineMs;
        options.prep_threads = 2;
        options.workers = 2;
        options.seed = 7;
        tensor::kernels::setConfig(options.kernels);

        serve::Server server(options, data);
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < kClients; ++c) {
            // buffalo-lint: allow(escape-ref-capture) client threads
            // are joined below before the captured locals go away
            clients.emplace_back([&, c] {
                // Closed loop: wait for each response, pace to the
                // per-client share of the offered rate.
                const auto interval =
                    std::chrono::duration_cast<
                        serve::Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(kClients) / qps));
                util::Rng rng(0xBE7C ^ c);
                auto next = serve::Clock::now();
                for (std::size_t r = 0; r < kRequestsPerClient;
                     ++r) {
                    std::this_thread::sleep_until(next);
                    next += interval;
                    const auto seed =
                        static_cast<graph::NodeId>(rng.nextBounded(
                            data.graph().numNodes()));
                    server.submit(seed).get();
                }
            });
        }
        for (std::thread &client : clients)
            client.join();
        server.shutdown();

        const serve::ServeSnapshot snap = server.stats();
        const std::string tag =
            "qps" + std::to_string(static_cast<int>(qps));
        table.addRow({util::Table::num(qps, 0),
                   util::Table::count(
                       static_cast<long long>(snap.completed)),
                   util::Table::count(
                       static_cast<long long>(snap.shed)),
                   util::Table::num(snap.goodput_qps, 1),
                   util::Table::num(snap.latency_p50_ms, 2),
                   util::Table::num(snap.latency_p99_ms, 2),
                   util::Table::num(snap.mean_batch_size, 2)});

        // Deterministic accounting: the closed loop can never
        // overflow the queue, and nothing may error.
        report.metric(tag + "_submitted",
                      static_cast<double>(snap.submitted), 0.0);
        report.metric(tag + "_completed",
                      static_cast<double>(snap.completed), 0.0);
        report.metric(tag + "_shed",
                      static_cast<double>(snap.shed), 0.0);
        report.metric(tag + "_errors",
                      static_cast<double>(snap.errors), 0.0);
        // SLO verdict: p99 within the deadline, shed rate < 1%.
        const bool slo_ok =
            snap.latency_p99_ms <= kDeadlineMs &&
            snap.shed_rate < 0.01;
        report.metric(tag + "_slo_ok", slo_ok ? 1.0 : 0.0, 0.0);
        report.info(tag + "_goodput_qps", snap.goodput_qps);
        report.info(tag + "_p50_ms", snap.latency_p50_ms);
        report.info(tag + "_p99_ms", snap.latency_p99_ms);
        report.info(tag + "_p999_ms", snap.latency_p999_ms);
        report.info(tag + "_mean_batch", snap.mean_batch_size);
    }
    table.print();

    // --- per-policy prep-path cache hit rates ----------------------
    // Sequential submit-then-get on a single-threaded server keeps
    // the plan-id sequence (and therefore every cache access) fully
    // deterministic, so hit counts are gated exactly; rates ride
    // along for readability.
    std::printf("\ncache policies (sequential loop):\n");
    util::Table cache_table(
        {"policy", "hits", "misses", "hit rate", "pinned"});
    const std::uint64_t row_bytes =
        static_cast<std::uint64_t>(data.featureDim()) * sizeof(float);
    double lru_rate = 0.0;
    double degree_rate = 0.0;
    double presample_rate = 0.0;
    for (const train::CachePolicyKind kind :
         {train::CachePolicyKind::LruOnly,
          train::CachePolicyKind::Degree,
          train::CachePolicyKind::PresampleFrequency}) {
        serve::ServeOptions options;
        options.model_kind = train::ModelKind::Sage;
        options.model.num_layers = 2;
        options.model.feature_dim = data.featureDim();
        options.model.hidden_dim = 32;
        options.model.num_classes = data.numClasses();
        options.fanouts = {4, 6};
        options.max_batch = 8;
        options.deadline_ms = 60000.0;
        options.prep_threads = 1;
        options.workers = 1;
        options.seed = 7;
        // An eighth of the node set fits, so the pin-set choice is
        // what separates the policies.
        options.feature_cache_bytes =
            row_bytes * (data.graph().numNodes() / 8);
        options.cache_policy = kind;
        options.presample_batches = 8;
        tensor::kernels::setConfig(options.kernels);

        serve::Server server(options, data);
        util::Rng rng(0xCAFE);
        for (std::size_t r = 0; r < 192; ++r)
            server
                .submit(static_cast<graph::NodeId>(
                    rng.nextBounded(data.graph().numNodes())))
                .get();
        server.shutdown();

        const pipeline::FeatureCacheStats cs =
            server.featureCache()->stats();
        const std::string policy(cs.policy);
        if (kind == train::CachePolicyKind::LruOnly)
            lru_rate = cs.hitRate();
        else if (kind == train::CachePolicyKind::Degree)
            degree_rate = cs.hitRate();
        else
            presample_rate = cs.hitRate();
        cache_table.addRow(
            {policy,
             util::Table::count(static_cast<long long>(cs.hits)),
             util::Table::count(static_cast<long long>(cs.misses)),
             util::formatPercent(cs.hitRate()),
             util::Table::count(
                 static_cast<long long>(cs.pinned_nodes))});
        report.metric("cache_" + policy + "_hits",
                      static_cast<double>(cs.hits), 0.0);
        report.metric("cache_" + policy + "_misses",
                      static_cast<double>(cs.misses), 0.0);
        report.info("cache_" + policy + "_hit_rate", cs.hitRate());
    }
    cache_table.print();
    const bool pinned_beats_lru =
        degree_rate > lru_rate && presample_rate > lru_rate;
    std::printf("policy-pinned caches beat pure LRU: %s\n",
                pinned_beats_lru ? "PASS" : "FAIL");
    report.metric("cache_pinned_beats_lru",
                  pinned_beats_lru ? 1.0 : 0.0, 0.0);

    report.write();
    return pinned_beats_lru ? 0 : 1;
}
