/**
 * @file
 * Building blocks of the end-to-end training benchmark
 * (perfbench/README.md): the pinned workload table, the seeded batch
 * stream, the timing statistics, and the result line.
 *
 * Everything here drives the program only through its public API
 * (graph::loadDataset, the trainers, device::Device, obs::metrics()).
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "device/device.h"
#include "graph/datasets.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace perfbench {

using namespace buffalo;
using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock readings. */
inline double
secondsBetween(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

/**
 * One benchmark workload. Every knob that changes speed without
 * changing results (kernel threads, prefetch depth, cache size) is
 * pinned here, so two runs of one workload differ only in the seed.
 */
struct Workload
{
    std::string name;
    graph::DatasetId dataset = graph::DatasetId::Arxiv;
    double scale = 1.0;
    train::ModelKind model_kind = train::ModelKind::Sage;
    nn::AggregatorKind aggregator = nn::AggregatorKind::Mean;
    std::vector<int> fanouts;
    train::ExecutionMode mode = train::ExecutionMode::Numeric;
    std::size_t batch_size = 512;
    double budget_mib = 64.0;
    double learning_rate = 5e-3;
    /** Compute-kernel threads; never 0 (= machine dependent). */
    std::size_t kernel_threads = 1;
    /** PipelineTrainer instead of the serial BuffaloTrainer. */
    bool pipelined = false;
    int prefetch_depth = 2;
    /** Presample-policy feature cache; 0 = no cache. */
    double feature_cache_mib = 0.0;
    /** Batches per trainEpoch() call (pipelined workloads). */
    std::size_t epoch_batches = 0;
    /** Untimed warm-up steps after construction (batches when serial,
     *  epochs when pipelined); they also feed the output check. */
    int warmup_steps = 1;
};

/**
 * The benchmark's workloads: those BENCHMARK.json lists, in its order,
 * then papers-pipe, which runs only by hand (perfbench/README.md).
 */
const std::vector<Workload> &workloads();

/** Looks a workload up by name; throws buffalo::NotFound. */
const Workload &workloadByName(const std::string &name);

/** Trainer options of @p w over @p dataset with model seed @p seed. */
train::TrainerOptions trainerOptions(const Workload &w,
                                     const graph::Dataset &dataset,
                                     std::uint64_t seed);

/** Seed of the batch-order / sampling stream for workload seed @p seed. */
std::uint64_t batchSeed(std::uint64_t seed);

/**
 * An endless sequence of training batches: each epoch is the
 * dataset's train nodes shuffled by train::makeBatches() on @p rng,
 * the stream buffalo_train draws, minus the epoch's short last batch
 * so that every batch holds batch_size seeds. The caller keeps @p rng
 * alive and passes it on to the trainer, as an epoch loop would.
 */
class BatchStream
{
  public:
    BatchStream(const graph::Dataset &dataset, std::size_t batch_size,
                util::Rng &rng);

    /** The next batch, reshuffling when an epoch is used up. */
    graph::NodeList next();

    /** The next @p count batches. */
    std::vector<graph::NodeList> next(std::size_t count);

  private:
    const graph::Dataset &dataset_;
    std::size_t batch_size_;
    util::Rng &rng_;
    std::vector<graph::NodeList> epoch_;
    std::size_t position_ = 0;
};

/** A trainer with the device and batch stream it trains from. */
struct TrainerInstance
{
    TrainerInstance(const Workload &w, const graph::Dataset &dataset,
                    std::uint64_t seed, bool pipelined);

    device::Device device;
    std::unique_ptr<train::TrainerBase> trainer;
    util::Rng rng;
    BatchStream stream;
};

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * Throughput robust to a burst of machine noise: the steps (in
 * order) are cut into @p windows runs of consecutive steps, each
 * window's rate is its items over its summed seconds, and the median
 * window rate is returned. With fewer steps than windows each step is
 * its own window. @p seconds and @p items are per step, same length.
 */
double medianWindowRate(const std::vector<double> &seconds,
                        const std::vector<double> &items,
                        std::size_t windows);

/** A tail percentile and the samples that lie beyond it. */
struct TailPick
{
    /** Percentile in [50, 100); 0 when there are too few samples. */
    double percentile = 0.0;
    /** Samples above the picked one. */
    std::size_t beyond = 0;
    double value = 0.0;
};

/**
 * The highest percentile of @p samples that still has @p min_beyond
 * samples beyond it: the (min_beyond + 1)-th largest sample, which is
 * percentile 100 * (n - min_beyond) / n of n samples. A tail must lie
 * at or above the median, so fewer than 2 * min_beyond samples give
 * no tail (percentile 0).
 */
TailPick tailPercentile(std::vector<double> samples,
                        std::size_t min_beyond = 10);

/** True when @p name matches [A-Za-z0-9_.-]+. */
bool validMetricName(const std::string &name);

/** Collects named metrics and prints them as the result line. */
class Report
{
  public:
    /** Adds @p name; throws on a malformed name or a duplicate. */
    void add(const std::string &name, double value,
             const std::string &unit);

    /** Human-readable "name value unit" lines. */
    std::string table() const;

    /** The one-line JSON result object. */
    std::string json(bool correct, std::uint64_t attempted,
                     std::uint64_t failed) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** Peak resident set size of this process, MiB. */
double peakRssMib();

} // namespace perfbench
