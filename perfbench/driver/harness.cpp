#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "pipeline/pipeline_trainer.h"
#include "util/errors.h"
#include "util/format.h"

namespace perfbench {

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = [] {
        std::vector<Workload> all;

        // Host planning alone: the cost model charges analytic bytes
        // and FLOPs, so sampling, scheduling and block generation are
        // the only real work. The tight budget splits every batch into
        // tens of micro-batches.
        Workload sched;
        sched.name = "products-sched";
        sched.dataset = graph::DatasetId::Products;
        sched.scale = 2.0;
        sched.aggregator = nn::AggregatorKind::Lstm;
        sched.fanouts = {10, 25};
        sched.mode = train::ExecutionMode::CostModel;
        sched.batch_size = 1024;
        sched.budget_mib = 24.0;
        sched.kernel_threads = 1;
        sched.warmup_steps = 2;
        all.push_back(sched);

        // Numeric forward/backward through the LSTM aggregator is
        // nearly all of the wall time. Fanouts 5,10 keep a batch under
        // a second so a run holds enough batches for a tail; 30 MiB gives
        // 5 micro-batches and rare OOM retries (24-28 MiB retried up
        // to 7% of micro-batches). One
        // kernel thread: with two, batches had heavy tails whenever
        // the machine was busy, and batch_tail_ms spread by 0.38 over
        // ten seeds, past its 0.25 bound.
        Workload lstm;
        lstm.name = "arxiv-lstm";
        lstm.dataset = graph::DatasetId::Arxiv;
        lstm.scale = 4.0;
        lstm.aggregator = nn::AggregatorKind::Lstm;
        lstm.fanouts = {5, 10};
        lstm.batch_size = 512;
        lstm.budget_mib = 30.0;
        lstm.kernel_threads = 1;
        lstm.warmup_steps = 1;
        all.push_back(lstm);

        // Sampling, block generation and feature staging on the
        // prefetcher's threads, concurrently with GAT compute. Not in
        // BENCHMARK.json, which keeps two workloads so that each run
        // can be longer (README "Noise findings"); run it by hand. One
        // kernel thread: with two, the kernel workers, the compute
        // thread and the three stage threads oversubscribe 4 cores and
        // runs of one seed spread by 25-30% (2% with one). Each
        // trainEpoch() call trains 11 batches of 256 (about half of
        // the 6000 train seeds): shorter epochs measure mostly the
        // pipeline's fill and thread start-up, longer ones leave too
        // few epoch samples in a run for a tail.
        Workload pipe;
        pipe.name = "papers-pipe";
        pipe.dataset = graph::DatasetId::Papers;
        pipe.scale = 1.0;
        pipe.model_kind = train::ModelKind::Gat;
        pipe.fanouts = {10, 25};
        pipe.batch_size = 256;
        pipe.budget_mib = 64.0;
        pipe.kernel_threads = 1;
        pipe.pipelined = true;
        pipe.prefetch_depth = 2;
        pipe.feature_cache_mib = 2.0;
        pipe.epoch_batches = 11;
        // At 5e-3 training drifts into denormal floats after 100-300
        // steps (seed dependent) and batches slow 3-4x, so a run's
        // speed would hinge on how many steps it reaches; 5e-4 stayed
        // clear of that for ~1000 steps, past any run's horizon.
        pipe.learning_rate = 5e-4;
        pipe.warmup_steps = 1;
        all.push_back(pipe);
        return all;
    }();
    return table;
}

const Workload &
workloadByName(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return w;
    throw NotFound("unknown workload '" + name + "'");
}

train::TrainerOptions
trainerOptions(const Workload &w, const graph::Dataset &dataset,
               std::uint64_t seed)
{
    train::TrainerOptions options;
    options.model_kind = w.model_kind;
    options.model.aggregator = w.aggregator;
    options.model.num_layers = static_cast<int>(w.fanouts.size());
    options.model.feature_dim = dataset.featureDim();
    options.model.hidden_dim = 32; // buffalo_train's default
    options.model.num_classes = dataset.numClasses();
    options.fanouts = w.fanouts;
    options.mode = w.mode;
    options.learning_rate = w.learning_rate;
    options.seed = seed;
    options.kernels.threads = w.kernel_threads;
    options.pipeline.enabled = w.pipelined;
    options.pipeline.prefetch_depth = w.prefetch_depth;
    options.pipeline.feature_cache_bytes = util::mib(w.feature_cache_mib);
    options.pipeline.cache_policy =
        train::CachePolicyKind::PresampleFrequency;
    return options;
}

std::uint64_t
batchSeed(std::uint64_t seed)
{
    return seed ^ 0x7EA;
}

BatchStream::BatchStream(const graph::Dataset &dataset,
                         std::size_t batch_size, util::Rng &rng)
    : dataset_(dataset), batch_size_(batch_size), rng_(rng)
{
}

graph::NodeList
BatchStream::next()
{
    if (position_ == epoch_.size()) {
        epoch_ = train::makeBatches(dataset_.trainNodes(), batch_size_,
                                    rng_);
        // Drop the short tail batch, so every timed sample is the
        // same amount of work.
        if (epoch_.size() > 1 && epoch_.back().size() < batch_size_)
            epoch_.pop_back();
        position_ = 0;
    }
    return epoch_[position_++];
}

std::vector<graph::NodeList>
BatchStream::next(std::size_t count)
{
    std::vector<graph::NodeList> batches;
    for (std::size_t i = 0; i < count; ++i)
        batches.push_back(next());
    return batches;
}

TrainerInstance::TrainerInstance(const Workload &w,
                                 const graph::Dataset &dataset,
                                 std::uint64_t seed, bool pipelined)
    : device("gpu:0", util::mib(w.budget_mib)), rng(batchSeed(seed)),
      stream(dataset, w.batch_size, rng)
{
    train::TrainerOptions options = trainerOptions(w, dataset, seed);
    options.pipeline.enabled = pipelined;
    if (pipelined)
        trainer =
            std::make_unique<pipeline::PipelineTrainer>(options, device);
    else
        trainer = std::make_unique<train::BuffaloTrainer>(options, device);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
medianWindowRate(const std::vector<double> &seconds,
                 const std::vector<double> &items, std::size_t windows)
{
    checkArgument(seconds.size() == items.size() && windows >= 1,
                  "medianWindowRate: one item count per step");
    const std::size_t n = seconds.size();
    windows = std::min(windows, n);
    std::vector<double> rates;
    for (std::size_t w = 0; w < windows; ++w) {
        // Window w holds steps [n*w/windows, n*(w+1)/windows).
        double wall = 0.0, done = 0.0;
        for (std::size_t i = n * w / windows; i < n * (w + 1) / windows;
             ++i) {
            wall += seconds[i];
            done += items[i];
        }
        rates.push_back(done / wall);
    }
    return median(rates);
}

TailPick
tailPercentile(std::vector<double> samples, std::size_t min_beyond)
{
    TailPick pick;
    const std::size_t n = samples.size();
    if (min_beyond == 0 || n < 2 * min_beyond)
        return pick;
    std::sort(samples.begin(), samples.end());
    pick.beyond = min_beyond;
    pick.value = samples[n - min_beyond - 1];
    pick.percentile = 100.0 * static_cast<double>(n - min_beyond) /
                      static_cast<double>(n);
    return pick;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
               (c >= '0' && c <= '9') || c == '_' || c == '.' ||
               c == '-';
    });
}

void
Report::add(const std::string &name, double value,
            const std::string &unit)
{
    checkArgument(validMetricName(name),
                  "metric name '" + name + "' is not [A-Za-z0-9_.-]+");
    checkArgument(std::none_of(entries_.begin(), entries_.end(),
                               [&](const Entry &e) { return e.name == name; }),
                  "metric '" + name + "' added twice");
    checkArgument(std::isfinite(value),
                  "metric '" + name + "' is not finite");
    entries_.push_back({name, value, unit});
}

std::string
Report::table() const
{
    std::ostringstream out;
    for (const Entry &e : entries_) {
        char line[160];
        std::snprintf(line, sizeof line, "  %-32s %16.6f %s\n",
                      e.name.c_str(), e.value, e.unit.c_str());
        out << line;
    }
    return out.str();
}

std::string
Report::json(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const
{
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        char value[40];
        std::snprintf(value, sizeof value, "%.17g", entries_[i].value);
        out << (i == 0 ? "" : ", ") << '"' << entries_[i].name
            << "\": {\"value\": " << value << ", \"unit\": \""
            << entries_[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

} // namespace perfbench
