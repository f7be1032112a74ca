/**
 * @file
 * Figure 10: training time and device memory vs. number of
 * micro-batches — the compute-vs-memory Pareto frontier.
 *
 * For each dataset: DGL-like and PyG-like whole-batch baselines (one
 * point; OOM on the large datasets under the 24 GB-equivalent budget),
 * Betty at K in {2,4,8,16}, and Buffalo under a descending budget
 * ladder. Time is end-to-end per iteration (host phases measured +
 * device phases simulated).
 */
#include "bench_common.h"

#include "baselines/betty.h"

using namespace buffalo;

namespace {

void
runDataset(graph::DatasetId id, std::size_t num_seeds,
           bench::Reporter &reporter)
{
    auto data = graph::loadDataset(id, 42);
    bench::banner("Figure 10: time/memory Pareto vs. #micro-batches",
                  data);
    const auto seeds = bench::seedBatch(data, num_seeds);
    const std::uint64_t gpu24 = bench::scaledBudget(data, 24.0);
    std::printf("budget: %s (24 GB at paper scale), batch %zu seeds\n",
                util::formatBytes(gpu24).c_str(), seeds.size());

    util::Table table({"system", "#micro-batches",
                       "iteration time (measured host + modeled "
                       "device)",
                       "peak memory", "status"});

    // DGL-like and PyG-like whole batch.
    for (bool padding : {false, true}) {
        const char *name = padding ? "PyG-like (padding)"
                                   : "DGL-like (bucketing)";
        train::TrainerOptions options = bench::paperOptions(data);
        device::Device dev("gpu", gpu24);
        util::Rng rng(11);
        try {
            train::WholeBatchTrainer trainer(options, dev, padding);
            auto stats = trainer.trainIteration(data, seeds, rng);
            table.addRow({name, "1",
                          util::formatSeconds(stats.endToEndSeconds()),
                          util::formatBytes(stats.peak_device_bytes),
                          "ok"});
        } catch (const device::DeviceOom &) {
            table.addRow({name, "1", "-", "-", "OOM"});
        }
    }

    // Betty at fixed K.
    for (int k : {2, 4, 8, 16}) {
        train::TrainerOptions options = bench::paperOptions(data);
        device::Device dev("gpu", gpu24);
        util::Rng rng(11);
        try {
            train::BettyTrainer trainer(options, dev, k);
            auto stats = trainer.trainIteration(data, seeds, rng);
            const bool fits = stats.peak_device_bytes <= gpu24;
            table.addRow({"Betty", std::to_string(k),
                          util::formatSeconds(stats.endToEndSeconds()),
                          util::formatBytes(stats.peak_device_bytes),
                          fits ? "ok" : "over budget"});
        } catch (const device::DeviceOom &) {
            table.addRow({"Betty", std::to_string(k), "-", "-",
                          "OOM"});
        } catch (const baselines::BettyUnsupported &) {
            table.addRow({"Betty", std::to_string(k), "-", "-",
                          "unsupported"});
        }
    }

    // Buffalo under a descending budget ladder.
    for (double paper_gb : {24.0, 12.0, 6.0, 3.0}) {
        train::TrainerOptions options = bench::paperOptions(data);
        const std::uint64_t budget =
            bench::scaledBudget(data, paper_gb);
        device::Device dev("gpu", budget);
        util::Rng rng(11);
        try {
            train::BuffaloTrainer trainer(options, dev);
            auto stats = trainer.trainIteration(data, seeds, rng);
            const std::string key =
                data.name() + ".buffalo_gb" +
                std::to_string(static_cast<int>(paper_gb));
            reporter.metric(
                key + ".micro_batches",
                static_cast<double>(stats.num_micro_batches), 0.0);
            reporter.metric(
                key + ".peak_bytes",
                static_cast<double>(stats.peak_device_bytes), 0.05);
            reporter.info(key + ".iteration_seconds",
                          stats.endToEndSeconds());
            table.addRow(
                {"Buffalo (" + util::Table::num(paper_gb, 0) +
                     " GB-eq)",
                 std::to_string(stats.num_micro_batches),
                 util::formatSeconds(stats.endToEndSeconds()),
                 util::formatBytes(stats.peak_device_bytes), "ok"});
        } catch (const Error &e) {
            table.addRow({"Buffalo (" + util::Table::num(paper_gb, 0) +
                              " GB-eq)",
                          "-", "-", "-", "infeasible"});
        }
    }
    table.print();
}

} // namespace

int
main()
{
    bench::Reporter reporter("fig10");
    runDataset(graph::DatasetId::Cora, 512, reporter);
    runDataset(graph::DatasetId::Arxiv, 1024, reporter);
    runDataset(graph::DatasetId::Products, 2048, reporter);
    reporter.write();
    std::printf("\npaper shape: DGL/PyG OOM on the large datasets; "
                "Betty fits but pays REG+METIS time; Buffalo attains "
                "the best time at every memory point (70.9%% faster "
                "than Betty on average in the paper)\n");
    return 0;
}
