/**
 * @file
 * Table III: memory-estimation error of the redundancy-aware
 * estimator, for LSTM and mean aggregators across all datasets.
 *
 * Methodology mirrors the paper: the batch is grouped into the listed
 * number of micro-batches (cut-offs 10, 25), each group's Eq. 2
 * estimate is compared with the real measured training memory of that
 * micro-batch (numeric execution under the tracking allocator), and
 * the mean absolute error is reported.
 */
#include "bench_common.h"

#include "core/micro_batch_generator.h"
#include "core/scheduler.h"
#include "nn/loss.h"
#include "nn/gnn_model.h"
#include "train/feature_loader.h"

using namespace buffalo;

namespace {

/** Real measured peak of numerically training one micro-batch. */
std::uint64_t
measurePeak(const graph::Dataset &data, const nn::ModelConfig &config,
            const sampling::MicroBatch &mb)
{
    device::Device dev("probe", util::gib(16));
    nn::GnnModel model(config, 3, &dev.allocator());
    const std::uint64_t static_bytes = dev.allocator().bytesInUse();
    dev.allocator().resetPeak();
    nn::Tensor feats =
        train::loadFeatures(data, mb.inputNodes(), &dev.allocator());
    nn::Tensor logits =
        model.forward(mb, feats, &dev.allocator());
    auto labels = train::gatherLabels(data, mb.outputNodes());
    auto loss =
        nn::softmaxCrossEntropy(logits, labels, 0, &dev.allocator());
    model.backward(loss.grad_logits, &dev.allocator());
    return dev.allocator().peakBytes() - static_bytes;
}

double
runCase(const graph::Dataset &data, nn::AggregatorKind kind,
        int num_batches, std::size_t num_seeds)
{
    nn::ModelConfig config;
    config.aggregator = kind;
    config.num_layers = 2;
    config.feature_dim = data.featureDim();
    config.hidden_dim = 16; // scaled-down hidden for numeric probing
    config.num_classes = data.numClasses();
    nn::MemoryModel model(config);

    util::Rng rng(47);
    sampling::NeighborSampler sampler({10, 25});
    auto sg = sampler.sample(data.graph(),
                             bench::seedBatch(data, num_seeds), rng);

    core::BucketMemEstimator bucket_estimator(model, sg);
    auto infos =
        bucket_estimator.estimate(sampling::bucketizeSeeds(sg));
    core::RedundancyAwareMemEstimator estimator(
        data.spec().paper_avg_coefficient);
    auto grouping = core::memBalancedGrouping(
        infos, num_batches, util::gib(1024), estimator);
    if (!grouping.success)
        return -1.0;

    core::MicroBatchGenerator generator;
    double total_error = 0.0;
    int count = 0;
    for (const auto &group : grouping.groups) {
        auto mb = generator.generateOne(sg, group);
        const std::uint64_t measured = measurePeak(data, config, mb);
        total_error +=
            std::abs(static_cast<double>(group.est_bytes) -
                     static_cast<double>(measured)) /
            static_cast<double>(measured);
        ++count;
    }
    return count == 0 ? -1.0 : total_error / count;
}

} // namespace

int
main()
{
    bench::banner("Table III: memory-estimation error "
                  "(cut-offs 10,25)");
    bench::Reporter reporter("table3");
    util::Table table({"dataset", "#batch (lstm)", "lstm error %",
                       "#batch (mean)", "mean error %"});
    for (auto id : graph::allDatasetIds()) {
        // Numeric probing at reduced scale keeps this bench tractable
        // on one CPU core; the error metric is scale-local.
        auto data = graph::loadDataset(id, 42, 0.3);
        const int lstm_batches =
            id == graph::DatasetId::Products ||
                    id == graph::DatasetId::Papers
                ? 16
                : 4;
        const int mean_batches =
            id == graph::DatasetId::Products ||
                    id == graph::DatasetId::Papers
                ? 8
                : 4;
        const std::size_t seeds =
            data.trainNodes().size() >= 512 ? 512
                                            : data.trainNodes().size();
        const double lstm_error =
            runCase(data, nn::AggregatorKind::Lstm, lstm_batches,
                    seeds);
        const double mean_error =
            runCase(data, nn::AggregatorKind::Mean, mean_batches,
                    seeds);
        if (lstm_error >= 0)
            reporter.metric(data.name() + ".lstm_error", lstm_error,
                            0.1);
        if (mean_error >= 0)
            reporter.metric(data.name() + ".mean_error", mean_error,
                            0.1);
        table.addRow({data.name(), std::to_string(lstm_batches),
                      lstm_error < 0
                          ? "-"
                          : util::Table::num(lstm_error * 100, 1),
                      std::to_string(mean_batches),
                      mean_error < 0
                          ? "-"
                          : util::Table::num(mean_error * 100, 1)});
    }
    table.print();
    reporter.write();
    std::printf("paper: error rate below 10.02%% in all cases at full "
                "scale; at this reduced simulation scale errors are "
                "larger because per-bucket cones overlap more "
                "(smaller batches saturate less), but the estimator "
                "stays conservative\n");
    return 0;
}
