/**
 * @file
 * Fast deterministic regression smoke bench (DESIGN.md, "Memory audit
 * & bench regression").
 *
 * One cost-model Buffalo epoch over arxiv-sim with fixed seeds: every
 * gated metric (group counts, byte watermarks, audit error) is a pure
 * function of the cost model, so any drift means the scheduler,
 * estimator, allocator accounting, or trainer changed behaviour.
 * ci.sh runs this against the committed baseline in bench/baselines/
 * via tools/bench_diff; refresh the baseline (and re-justify the
 * tolerances) when a change is intentional.
 */
#include "bench_common.h"

#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

using namespace buffalo;

namespace {

/**
 * Ceiling on audit_mean_abs_rel_error written into BENCH_smoke.json.
 * The epoch reads 0.4421 on every run. An estimator that still prices
 * layer 0's input gradient, which the model no longer allocates,
 * reads 0.4856 and fails it.
 */
constexpr double kAuditErrorCeiling = 0.46;

} // namespace

int
main()
{
    auto data = graph::loadDataset(graph::DatasetId::Arxiv, 42, 0.25);
    bench::banner("Regression smoke: one deterministic cost-model "
                  "epoch",
                  data);

    train::TrainerOptions options =
        bench::paperOptions(data, nn::AggregatorKind::Lstm);
    const std::uint64_t budget = bench::scaledBudget(data, 24.0);
    device::Device dev("gpu", budget);
    train::BuffaloTrainer trainer(options, dev);

    obs::memoryAudit().enable(true);
    util::Rng rng(42);
    const auto report = trainer.trainEpoch(data, 256, rng);

    util::Table table({"metric", "value"});
    table.addRow({"batches", std::to_string(report.num_batches)});
    table.addRow({"micro-batches",
                  std::to_string(report.num_micro_batches)});
    table.addRow({"peak device",
                  util::formatBytes(report.peak_device_bytes)});
    table.addRow({"transfer",
                  util::formatBytes(report.transfer_bytes)});
    table.addRow({"audit groups",
                  std::to_string(report.mem_audit.groups)});
    table.addRow({"audit mean |rel err|",
                  util::formatPercent(
                      report.mem_audit.meanAbsRelError())});
    table.print();

    bench::Reporter reporter("smoke");
    reporter
        .metric("batches", static_cast<double>(report.num_batches),
                0.0)
        .metric("micro_batches",
                static_cast<double>(report.num_micro_batches), 0.0)
        .metric("outputs", static_cast<double>(report.outputs), 0.0)
        .metric("peak_device_bytes",
                static_cast<double>(report.peak_device_bytes), 0.02)
        .metric("transfer_bytes",
                static_cast<double>(report.transfer_bytes), 0.02)
        .metric("audit_groups",
                static_cast<double>(report.mem_audit.groups), 0.0)
        // The estimator's error is a pure function of the cost model
        // (0.442 on every run), so it is gated by a ceiling: it fails
        // when Eq. 1/2 gets less accurate.
        .atMost("audit_mean_abs_rel_error",
                report.mem_audit.meanAbsRelError(),
                kAuditErrorCeiling)
        .info("wall_seconds", report.wall_seconds);

    // The cost-model epoch never runs numeric kernels, so exercise
    // the kernel layer on a fixed shape here: byte/call counts are a
    // pure function of the shapes and gate exactly; nanos are
    // wall-clock and stay informative.
    {
        using namespace obs::names;
        auto &calls = obs::metrics().counter(kCtrKernelsGemmCalls);
        auto &bytes = obs::metrics().counter(kCtrKernelsGemmBytes);
        auto &nanos = obs::metrics().counter(kCtrKernelsGemmNanos);
        const std::uint64_t calls0 = calls.value();
        const std::uint64_t bytes0 = bytes.value();
        tensor::Tensor a = tensor::Tensor::zeros(96, 64);
        tensor::Tensor b = tensor::Tensor::zeros(64, 48);
        util::Rng krng(7);
        tensor::fillUniform(a, 1.0f, krng);
        tensor::fillUniform(b, 1.0f, krng);
        tensor::matmul(a, b);
        tensor::matmulTransposeB(a, tensor::Tensor::zeros(48, 64));
        reporter
            .metric("kernel_gemm_calls",
                    static_cast<double>(calls.value() - calls0), 0.0)
            .metric("kernel_gemm_bytes",
                    static_cast<double>(bytes.value() - bytes0), 0.0)
            .info("kernel_gemm_nanos",
                  static_cast<double>(nanos.value()));
    }
    reporter.write();
    return 0;
}
