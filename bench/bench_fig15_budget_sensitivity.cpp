/**
 * @file
 * Figure 15: bucket-group size vs. memory budget.
 *
 * GraphSAGE-LSTM (2 layers) on products-sim under 16/24/48/80 GB-
 * equivalent budgets (the paper's A100 sweep): more memory -> larger
 * bucket groups -> fewer micro-batches -> shorter end-to-end time.
 */
#include "bench_common.h"

using namespace buffalo;

int
main()
{
    auto data = graph::loadDataset(graph::DatasetId::Products, 42);
    bench::banner("Figure 15: bucket-group size vs. memory budget",
                  data);
    const auto seeds = bench::seedBatch(data, 2048);

    bench::Reporter reporter("fig15");
    util::Table table({"budget (paper-GB)", "scaled budget",
                       "#micro-batches", "avg group size (outputs)",
                       "peak memory",
                       "iteration time (measured host + modeled "
                       "device)"});
    double previous_time = -1.0;
    bool monotone = true;
    for (double paper_gb : {16.0, 24.0, 48.0, 80.0}) {
        const std::uint64_t budget =
            bench::scaledBudget(data, paper_gb);
        train::TrainerOptions options =
            bench::paperOptions(data, nn::AggregatorKind::Lstm);
        device::Device dev("gpu", budget);
        util::Rng rng(23);
        train::BuffaloTrainer trainer(options, dev);
        auto stats = trainer.trainIteration(data, seeds, rng);
        table.addRow(
            {util::Table::num(paper_gb, 0),
             util::formatBytes(budget),
             std::to_string(stats.num_micro_batches),
             util::Table::count(static_cast<long long>(
                 seeds.size() / stats.num_micro_batches)),
             util::formatBytes(stats.peak_device_bytes),
             util::formatSeconds(stats.endToEndSeconds())});
        const std::string key = "gb" + std::to_string(
                                           static_cast<int>(paper_gb));
        reporter.metric(key + ".micro_batches",
                        static_cast<double>(stats.num_micro_batches),
                        0.0);
        reporter.metric(key + ".peak_bytes",
                        static_cast<double>(stats.peak_device_bytes),
                        0.05);
        reporter.info(key + ".iteration_seconds",
                      stats.endToEndSeconds());
        if (previous_time > 0 &&
            stats.endToEndSeconds() > previous_time * 1.05) {
            monotone = false;
        }
        previous_time = stats.endToEndSeconds();
    }
    table.print();
    reporter.metric("monotone", monotone ? 1.0 : 0.0, 0.0);
    reporter.write();
    std::printf("trend %s: larger budgets -> fewer micro-batches -> "
                "shorter iterations (paper: 80 GB runs in 9.37 s using "
                "76.65 GB)\n",
                monotone ? "holds" : "VIOLATED");
    return 0;
}
