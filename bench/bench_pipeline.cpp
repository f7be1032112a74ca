/**
 * @file
 * Serial vs pipelined epoch comparison (§V-G pipelining headroom).
 *
 * Part 1 (numeric): verifies the pipelined trainer reproduces the
 * serial per-epoch loss to 1e-12 while the feature cache serves hits.
 * Part 2 (cost model): sweeps prefetch depth and feature-cache size on
 * the synthetic power-law arxiv-sim graph, reporting the epoch's
 * critical-path model (measured preparation overlapped behind the
 * modeled device lane), transfer bytes, bytes saved by the cache, and
 * cache hit rate.
 * Part 3 (cost model): compares the cache policies at equal capacity —
 * pure LRU, degree ranking, and pre-sampling frequency ranking — and
 * gates that the presample policy's hit rate beats degree ranking.
 */
#include "bench_common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "pipeline/pipeline_trainer.h"

using namespace buffalo;

namespace {

std::string
fmtDouble(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    return buf;
}

/** Serial reference epoch costs via the stock trainer. */
struct SerialEpoch
{
    double loss = 0.0;
    /** Measured host wall time of the epoch. */
    double wall_seconds = 0.0;
    /** Modeled device (transfer + kernel) time of the epoch. */
    double device_seconds = 0.0;
    std::uint64_t transfer_bytes = 0;
};

std::vector<SerialEpoch>
runSerial(const graph::Dataset &data,
          const train::TrainerOptions &options, std::uint64_t budget,
          int epochs, std::size_t batch_size, std::uint64_t seed)
{
    device::Device dev("serial", budget);
    train::BuffaloTrainer trainer(options, dev);
    util::Rng rng(seed);
    std::vector<SerialEpoch> out;
    std::uint64_t last_transfer = 0;
    for (int e = 0; e < epochs; ++e) {
        const auto stats =
            train::runTraining(trainer, data, 1, batch_size, rng);
        SerialEpoch epoch;
        epoch.loss = stats.front().mean_loss;
        epoch.wall_seconds = stats.front().wall_seconds;
        epoch.device_seconds = stats.front().phases.modeledSeconds();
        epoch.transfer_bytes = dev.transferredBytes() - last_transfer;
        last_transfer = dev.transferredBytes();
        out.push_back(epoch);
    }
    return out;
}

/** Part 1: numeric loss parity + cache effectiveness. */
bool
numericParity()
{
    auto data = graph::loadDataset(graph::DatasetId::Arxiv, 42, 0.08);
    bench::banner("pipeline: numeric loss parity", data);

    train::TrainerOptions options;
    options.model.aggregator = nn::AggregatorKind::Mean;
    options.model.num_layers = 2;
    options.model.feature_dim = data.featureDim();
    options.model.hidden_dim = 16;
    options.model.num_classes = data.numClasses();
    options.fanouts = {5, 10};
    const std::uint64_t budget = util::gib(4);
    constexpr int kEpochs = 2;
    constexpr std::size_t kBatch = 64;
    constexpr std::uint64_t kSeed = 7;

    const auto serial =
        runSerial(data, options, budget, kEpochs, kBatch, kSeed);

    device::Device dev("pipelined", budget);
    train::TrainerOptions pipelined_options = options;
    pipelined_options.pipeline.prefetch_depth = 2;
    pipelined_options.pipeline.feature_cache_bytes = util::mib(8);
    pipelined_options.pipeline.pinned_hot_nodes = 64;
    pipeline::PipelineTrainer trainer(pipelined_options, dev);
    util::Rng rng(kSeed);

    util::Table table({"epoch", "serial loss", "pipelined loss",
                       "|diff|", "cache hit rate", "saved bytes"});
    bool ok = true;
    for (int e = 0; e < kEpochs; ++e) {
        const auto stats = trainer.trainEpoch(data, kBatch, rng);
        const double diff =
            std::abs(stats.mean_loss - serial[e].loss);
        ok = ok && diff <= 1e-12 && stats.cache.hits > 0 &&
             stats.transfer_saved_bytes > 0;
        table.addRow({std::to_string(e),
                      fmtDouble(serial[e].loss, 12),
                      fmtDouble(stats.mean_loss, 12),
                      fmtDouble(diff, 3),
                      util::formatPercent(stats.cache.hitRate()),
                      util::formatBytes(stats.transfer_saved_bytes)});
    }
    table.print();
    std::printf("numeric parity (<=1e-12) with cache hits: %s\n",
                ok ? "PASS" : "FAIL");
    return ok;
}

/** Part 2: cost-model sweep over depth and cache size. */
bool
costModelSweep()
{
    auto data = graph::loadDataset(graph::DatasetId::Arxiv, 42, 0.25);
    bench::banner("pipeline: overlap + cache sweep (cost model)",
                  data);

    train::TrainerOptions options = bench::paperOptions(data);
    const std::uint64_t budget = bench::scaledBudget(data, 24.0);
    constexpr std::size_t kBatch = 256;
    constexpr std::uint64_t kSeed = 11;

    const auto serial =
        runSerial(data, options, budget, 1, kBatch, kSeed);
    std::printf("serial epoch: %s measured wall, %s modeled device, "
                "transfer %s\n",
                util::formatSeconds(serial[0].wall_seconds).c_str(),
                util::formatSeconds(serial[0].device_seconds).c_str(),
                util::formatBytes(serial[0].transfer_bytes).c_str());

    // The overlap columns read the epoch's critical-path model: host
    // stages on the measured clock, the device lane on the modeled
    // one, windowed by the queue capacities.
    util::Table table({"depth", "cache", "cp wall", "vs cp serial",
                       "transfer", "saved", "hit rate"});
    bool overlap_ok = false;
    bool cache_ok = false;
    for (const int depth : {1, 2, 4}) {
        for (const double cache_mb : {0.0, 2.0, 8.0}) {
            device::Device dev("gpu", budget);
            train::TrainerOptions swept = options;
            swept.pipeline.prefetch_depth = depth;
            swept.pipeline.feature_cache_bytes = util::mib(cache_mb);
            swept.pipeline.pinned_hot_nodes = cache_mb > 0 ? 128 : 0;
            pipeline::PipelineTrainer trainer(swept, dev);
            util::Rng rng(kSeed);
            const auto stats = trainer.trainEpoch(data, kBatch, rng);

            const double wall = stats.cp.wall_us / 1e6;
            const double serial_sum = stats.cp.serial_us / 1e6;
            if (depth >= 2 && wall < serial_sum)
                overlap_ok = true;
            if (cache_mb > 0 && stats.cache.hits > 0 &&
                stats.transfer_saved_bytes > 0)
                cache_ok = true;

            table.addRow(
                {std::to_string(depth),
                 cache_mb > 0 ? util::formatBytes(util::mib(cache_mb))
                              : "off",
                 util::formatSeconds(wall),
                 util::formatPercent(
                     serial_sum > 0.0 ? 1.0 - wall / serial_sum : 0.0) +
                     " faster",
                 util::formatBytes(stats.transfer_bytes),
                 util::formatBytes(stats.transfer_saved_bytes),
                 cache_mb > 0
                     ? util::formatPercent(stats.cache.hitRate())
                     : "-"});
        }
    }
    table.print();
    std::printf("cp wall < cp serial at depth >= 2: %s\n",
                overlap_ok ? "PASS" : "FAIL");
    std::printf("cache hits reduce transfer bytes: %s\n",
                cache_ok ? "PASS" : "FAIL");
    return overlap_ok && cache_ok;
}

/**
 * Part 3: cache policies at equal capacity. The cache is small enough
 * that the pin-set choice matters, and `pinned_hot_nodes = 0` lets
 * each policy fill the whole capacity, so the hit rate isolates
 * ranking quality: degree ranking pins structurally hot nodes, the
 * presample pass pins the nodes the actual sampler visits.
 */
bool
policySweep(bench::Reporter &reporter)
{
    auto data = graph::loadDataset(graph::DatasetId::Arxiv, 42, 0.25);
    bench::banner("pipeline: cache-policy hit rates (equal capacity)",
                  data);

    train::TrainerOptions options = bench::paperOptions(data);
    // Shallow fanouts weight the per-epoch train-seed accesses (which
    // only the presample pass observes) against the hub-neighbor
    // accesses degree ranking already predicts.
    options.fanouts = {4, 4};
    const std::uint64_t budget = bench::scaledBudget(data, 24.0);
    constexpr std::size_t kBatch = 256;
    constexpr std::uint64_t kSeed = 11;

    util::Table table(
        {"policy", "hit rate", "hits", "misses", "pinned", "saved"});
    double degree_rate = 0.0;
    double presample_rate = 0.0;
    for (const train::CachePolicyKind kind :
         {train::CachePolicyKind::LruOnly,
          train::CachePolicyKind::Degree,
          train::CachePolicyKind::PresampleFrequency}) {
        device::Device dev("gpu", budget);
        train::TrainerOptions swept = options;
        swept.pipeline.prefetch_depth = 2;
        // Small enough that only ~1/8 of the nodes fit, so the hit
        // rate reflects which nodes the policy chose to pin.
        swept.pipeline.feature_cache_bytes = util::mib(0.25);
        swept.pipeline.pinned_hot_nodes = 0; // policy-chosen fill
        swept.pipeline.cache_policy = kind;
        swept.pipeline.presample_batches = 32;
        pipeline::PipelineTrainer trainer(swept, dev);
        util::Rng rng(kSeed);
        const auto stats = trainer.trainEpoch(data, kBatch, rng);

        const double rate = stats.cache.hitRate();
        if (kind == train::CachePolicyKind::Degree)
            degree_rate = rate;
        else if (kind == train::CachePolicyKind::PresampleFrequency)
            presample_rate = rate;
        // Sampling and the feature stage are seeded and
        // single-threaded under the cost model, so hit counts diff
        // exactly across runs.
        reporter.metric(std::string("policy_") + stats.cache.policy +
                            "_hit_rate",
                        rate, 0.0);
        table.addRow({stats.cache.policy,
                      util::formatPercent(rate),
                      std::to_string(stats.cache.hits),
                      std::to_string(stats.cache.misses),
                      std::to_string(stats.cache.pinned_nodes),
                      util::formatBytes(stats.transfer_saved_bytes)});
    }
    table.print();
    const bool ok = presample_rate > degree_rate;
    std::printf("presample frequency beats degree ranking: %s "
                "(%.4f vs %.4f)\n",
                ok ? "PASS" : "FAIL", presample_rate, degree_rate);
    reporter.metric("presample_beats_degree", ok ? 1.0 : 0.0, 0.0);
    return ok;
}

} // namespace

int
main()
{
    const bool parity = numericParity();
    const bool sweep = costModelSweep();
    bench::Reporter reporter("pipeline");
    const bool policies = policySweep(reporter);
    reporter.metric("numeric_parity", parity ? 1.0 : 0.0, 0.0)
        .metric("overlap_and_cache", sweep ? 1.0 : 0.0, 0.0);
    reporter.write();
    std::printf("\npaper shape: §V-G identifies preparation/transfer "
                "as the residual bottleneck once bucketization fits "
                "memory; overlapping it behind device compute and "
                "deduplicating redundant feature transfers (Eq. 1-2 "
                "redundancy) recovers that time without changing the "
                "training computation\n");
    return parity && sweep && policies ? EXIT_SUCCESS : EXIT_FAILURE;
}
