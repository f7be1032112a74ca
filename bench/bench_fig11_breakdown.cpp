/**
 * @file
 * Figure 11: end-to-end execution time breakdown, Betty vs. Buffalo,
 * across all datasets — including OGBN-papers(-sim), where Betty fails
 * on zero-in-edge nodes ("no data" in the paper's figure).
 *
 * Phases: Buffalo scheduling, REG construction, METIS partition,
 * connection check, block construction, data loading, GPU compute.
 */
#include "bench_common.h"

#include <algorithm>
#include <limits>

#include "baselines/betty.h"
#include "core/scheduler.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "util/thread_pool.h"

using namespace buffalo;

namespace {

/**
 * In-run scheduling speedup: the trainer's first batch (same seeds,
 * same Rng seed, same memory model and budget) scheduled on a 1-worker
 * pool, where pricing runs serially, and on a 4-worker pool; best of
 * several interleaved runs each. The plans must be byte-identical.
 *
 * @return The 1-worker / 4-worker time ratio, or 0 if the plans differ.
 */
double
scheduleSpeedup4t(const graph::Dataset &data,
                  const graph::NodeList &seeds,
                  train::BuffaloTrainer &trainer)
{
    const train::TrainerOptions &options = trainer.options();
    util::Rng rng(13);
    sampling::NeighborSampler sampler(options.fanouts);
    const sampling::SampledSubgraph sg =
        sampler.sample(data.graph(), seeds, rng);

    core::SchedulerOptions sched = options.scheduler;
    sched.mem_constraint = trainer.device().allocator().capacity();
    sched.reserved_bytes = trainer.staticBytes();
    const nn::MemoryModel &model = trainer.model().memoryModel();
    const double coefficient = data.spec().paper_avg_coefficient;
    util::ThreadPool one(1), four(4);
    const core::BuffaloScheduler serial(model, coefficient, sched, &one);
    const core::BuffaloScheduler parallel(model, coefficient, sched,
                                          &four);

    constexpr int kRuns = 7;
    double best_serial = std::numeric_limits<double>::infinity();
    double best_parallel = best_serial;
    bool same_plan = true;
    for (int run = 0; run < kRuns; ++run) {
        const core::ScheduleResult a = serial.schedule(sg);
        const core::ScheduleResult b = parallel.schedule(sg);
        best_serial = std::min(best_serial, a.schedule_seconds);
        best_parallel = std::min(best_parallel, b.schedule_seconds);
        same_plan = same_plan && a.num_groups == b.num_groups &&
                    a.single_group == b.single_group &&
                    a.explosion_detected == b.explosion_detected &&
                    a.groups == b.groups;
    }
    std::printf("Buffalo scheduling, 1 vs 4 pricing workers: %s vs %s "
                "(plans %s)\n",
                util::formatSeconds(best_serial).c_str(),
                util::formatSeconds(best_parallel).c_str(),
                same_plan ? "byte-identical" : "DIFFER");
    return same_plan ? best_serial / best_parallel : 0.0;
}

/**
 * A phase's cost as the paper's breakdown shows it: measured host plus
 * modeled device seconds.
 */
double
phaseSeconds(const train::IterationStats &stats, train::Phase phase)
{
    return stats.phases.measured(phase) + stats.phases.modeled(phase);
}

/**
 * Adds one row of per-phase cost to @p table.
 * @return The largest phase, the dominant stage of a serial iteration.
 */
train::Phase
printBreakdown(const std::string &system,
               const train::IterationStats &stats, util::Table &table)
{
    std::vector<std::string> row{system};
    train::Phase dominant = train::kAllPhases.front();
    for (const train::Phase phase : train::kAllPhases) {
        row.push_back(util::formatSeconds(phaseSeconds(stats, phase)));
        if (phaseSeconds(stats, phase) > phaseSeconds(stats, dominant))
            dominant = phase;
    }
    row.push_back(util::formatSeconds(stats.endToEndSeconds()));
    table.addRow(std::move(row));
    return dominant;
}

/**
 * Floor on schedule_speedup_4t written into BENCH_fig11.json. With
 * four free cores the 4-worker pool prices faster; on a host that
 * grants the process a single core the ratio falls to 0.65-1.0 (the
 * workers only add hand-offs). The floor sits below that range so a
 * busy host does not fail the gate, while parallel pricing that costs
 * twice what it saves does.
 */
constexpr double kScheduleSpeedupFloor = 0.5;

void
runDataset(graph::DatasetId id, std::size_t num_seeds, int betty_k,
           bench::Reporter &reporter)
{
    auto data = graph::loadDataset(id, 42);
    bench::banner("Figure 11: execution breakdown", data);
    const auto seeds = bench::seedBatch(data, num_seeds);

    util::Table table({"system", "sampling", "scheduling", "REG",
                       "METIS", "conn check", "block constr",
                       "data load", "GPU compute",
                       "total (measured host + modeled device)"});

    double betty_total = -1.0, buffalo_total = -1.0;

    // Betty.
    {
        train::TrainerOptions options = bench::paperOptions(data);
        device::Device dev("gpu", bench::scaledBudget(data, 24.0));
        util::Rng rng(13);
        try {
            train::BettyTrainer trainer(options, dev, betty_k);
            auto stats = trainer.trainIteration(data, seeds, rng);
            printBreakdown("Betty", stats, table);
            betty_total = stats.endToEndSeconds();
        } catch (const baselines::BettyUnsupported &e) {
            table.addRow({"Betty", "-", "-", "-", "-", "-", "-",
                          "-", "-",
                          "no data (zero-in-edge nodes)"});
        } catch (const device::DeviceOom &) {
            table.addRow({"Betty", "-", "-", "-", "-", "-", "-",
                          "-", "-", "OOM"});
        }
    }

    // Buffalo.
    {
        train::TrainerOptions options = bench::paperOptions(data);
        device::Device dev("gpu", bench::scaledBudget(data, 24.0));
        util::Rng rng(13);
        train::BuffaloTrainer trainer(options, dev);
        obs::MetricsRegistry &m = obs::metrics();
        const std::uint64_t walks_before =
            m.counter(obs::names::kCtrSchedulerConeWalks).value();
        const std::uint64_t schedules_before =
            m.counter(obs::names::kCtrSchedulerSchedules).value();
        auto stats = trainer.trainIteration(data, seeds, rng);
        if (id == graph::DatasetId::Products) {
            // Scheduler gate: cone walks are deterministic (exact);
            // the pool speedup is an in-run ratio with a floor.
            const std::uint64_t walks =
                m.counter(obs::names::kCtrSchedulerConeWalks).value() -
                walks_before;
            const std::uint64_t schedules =
                m.counter(obs::names::kCtrSchedulerSchedules).value() -
                schedules_before;
            reporter.metric(data.name() + ".cone_walks_per_schedule",
                            static_cast<double>(walks) /
                                static_cast<double>(
                                    std::max<std::uint64_t>(
                                        schedules, 1)),
                            0.0);
            reporter.atLeast(data.name() + ".schedule_speedup_4t",
                             scheduleSpeedup4t(data, seeds, trainer),
                             kScheduleSpeedupFloor);
        }
        const train::Phase dominant =
            printBreakdown("Buffalo", stats, table);
        buffalo_total = stats.endToEndSeconds();
        if (buffalo_total > 0.0) {
            const double share =
                phaseSeconds(stats, dominant) / buffalo_total;
            std::printf("Buffalo dominant stage: %s (%.1f%% of the "
                        "iteration)\n",
                        train::phaseName(dominant), 100.0 * share);
            reporter.info(data.name() + ".buffalo_dominant_share",
                          share);
        }
    }
    table.print();
    reporter.info(data.name() + ".buffalo_seconds", buffalo_total);
    if (betty_total > 0)
        reporter.info(data.name() + ".betty_seconds", betty_total);
    reporter.metric(data.name() + ".betty_ran",
                    betty_total > 0 ? 1.0 : 0.0, 0.0);
    if (betty_total > 0 && buffalo_total > 0) {
        std::printf("Buffalo end-to-end reduction vs Betty: %s "
                    "(paper average: 70.9%%)\n",
                    util::formatPercent(1.0 -
                                        buffalo_total / betty_total)
                        .c_str());
    }
}

} // namespace

int
main()
{
    bench::Reporter reporter("fig11");
    runDataset(graph::DatasetId::Cora, 512, 2, reporter);
    runDataset(graph::DatasetId::Pubmed, 512, 2, reporter);
    runDataset(graph::DatasetId::Reddit, 768, 4, reporter);
    runDataset(graph::DatasetId::Arxiv, 1024, 4, reporter);
    runDataset(graph::DatasetId::Products, 2048, 8, reporter);
    runDataset(graph::DatasetId::Papers, 2048, 8, reporter);
    reporter.write();
    std::printf("\npaper shape: Betty's REG+METIS dominates on large "
                "graphs (46.8%% of end-to-end on average); Buffalo "
                "replaces it with near-free bucket scheduling; Betty "
                "has no data on OGBN-papers\n");
    return 0;
}
