/**
 * @file
 * Compute-kernel bench (DESIGN.md, "Compute kernels"): tiled-GEMM
 * wall-clock scalar vs SIMD at 1 and 4 kernel threads, the A * B^T
 * kernel at the LSTM backward shape, one LSTM cell step and its gate
 * pass alone, plus exactly-gated per-op instrumentation counts.
 *
 * Counts (kernel calls, bytes, FLOPs, parallel-vs-serial dispatch
 * decisions) are a pure function of the workload and the grain
 * policy, so they gate at zero tolerance via tools/bench_diff.
 * Absolute timings and the SIMD width are recorded, never gated:
 * wall-clock depends on the host and the build type. The speedups
 * are in-run ratios of interleaved best-of-N timings and gate with
 * one-sided floors (the baseline holds them), so any gain passes.
 */
#include "bench_common.h"

#include <chrono>

#include "nn/lstm.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

using namespace buffalo;
namespace kernels = buffalo::tensor::kernels;
namespace ops = buffalo::tensor;
using tensor::Tensor;

namespace {

Tensor
randomTensor(std::size_t rows, std::size_t cols, util::Rng &rng)
{
    Tensor t = Tensor::zeros(rows, cols);
    ops::fillUniform(t, 1.0f, rng);
    return t;
}

/**
 * Best-of-@p reps seconds of @p op under each of @p cfgs. Each round
 * runs every config once, in order, so a burst of host load hits all
 * of them rather than skewing the ratio between two; a warm-up call
 * per config pages in the operands and spins up the pool.
 */
template <typename Op>
std::vector<double>
bestSeconds(const std::vector<kernels::KernelConfig> &cfgs, int reps,
            Op op)
{
    std::vector<double> best(cfgs.size(), 1e30);
    for (const kernels::KernelConfig &cfg : cfgs) {
        kernels::setConfig(cfg);
        op();
    }
    for (int r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            kernels::setConfig(cfgs[i]);
            const auto start = std::chrono::steady_clock::now();
            const Tensor c = op();
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            // Keep the result alive so the compute cannot be elided.
            best[i] = std::min(
                best[i], elapsed.count() +
                             (c.data()[0] != c.data()[0] ? 1e9 : 0.0));
        }
    }
    return best;
}

/**
 * Best-of-10 milliseconds of one LstmCell forward step plus its
 * backward step under each of @p cfgs (interleaved, see
 * bestSeconds), n = 512 sequences of width 128 (the arxiv LSTM
 * aggregator's first-layer shape).
 */
std::vector<double>
timeLstmStep(const std::vector<kernels::KernelConfig> &cfgs,
             util::Rng &rng)
{
    const std::size_t n = 512, dim = 128;
    nn::LstmCell cell("bench", dim, dim, rng);
    const Tensor x = randomTensor(n, dim, rng);
    const Tensor h = randomTensor(n, dim, rng);
    const Tensor c = randomTensor(n, dim, rng);
    const Tensor dh = randomTensor(n, dim, rng);
    const Tensor dc = randomTensor(n, dim, rng);
    std::vector<double> ms = bestSeconds(cfgs, 10, [&] {
        nn::LstmCell::StepCache cache;
        cell.step(x, h, c, cache);
        return cell.stepBackward(cache, dh, dc).dx;
    });
    for (double &t : ms)
        t *= 1e3;
    return ms;
}

/**
 * Best-of-20 milliseconds of kernels::fusedLstmForward alone under
 * each of @p cfgs (interleaved, see bestSeconds), at timeLstmStep's
 * shape: the gate pass without the GEMMs that make up most of a step.
 */
std::vector<double>
timeLstmForward(const std::vector<kernels::KernelConfig> &cfgs,
                util::Rng &rng)
{
    const std::size_t n = 512, h = 128;
    const Tensor zx = randomTensor(n, 4 * h, rng);
    const Tensor zh = randomTensor(n, 4 * h, rng);
    const Tensor bias = randomTensor(1, 4 * h, rng);
    const Tensor c_prev = randomTensor(n, h, rng);
    std::vector<Tensor> out;
    for (int k = 0; k < 7; ++k)
        out.push_back(Tensor::uninitialized(n, h));
    std::vector<double> ms = bestSeconds(cfgs, 20, [&] {
        kernels::fusedLstmForward(
            zx.data(), zh.data(), bias.data(), c_prev.data(), n, h,
            out[0].data(), out[1].data(), out[2].data(), out[3].data(),
            out[4].data(), out[5].data(), out[6].data());
        return out[6]; // h_out; copies share storage
    });
    for (double &t : ms)
        t *= 1e3;
    return ms;
}

} // namespace

int
main()
{
    bench::banner("Compute kernels: tiled GEMM + instrumentation");

    util::Rng rng(42);
    kernels::KernelConfig scalar_serial;
    scalar_serial.threads = 1;
    scalar_serial.simd = kernels::SimdMode::Off;
    kernels::KernelConfig simd_serial;
    simd_serial.threads = 1;
    kernels::KernelConfig four;
    four.threads = 4; // SIMD at the build default (Auto)

    // --- Timing: tile-multiple 1024^2 GEMM, scalar vs wide --------
    // In-run comparisons: the speedups divide two measurements taken
    // in alternating rounds on the same host, so they gate
    // meaningfully even where absolute wall-clock cannot.
    const std::size_t kBig = 1024;
    const Tensor big_a = randomTensor(kBig, kBig, rng);
    const Tensor big_b = randomTensor(kBig, kBig, rng);
    const std::vector<double> big_s =
        bestSeconds({scalar_serial, simd_serial, four}, 5,
                    [&] { return ops::matmul(big_a, big_b); });
    const double serial_s = big_s[0], simd_s = big_s[1],
                 four_s = big_s[2];
    // A * B^T at the LSTM backward shape (dz 512 x 512 against W^T,
    // 128 outputs), scalar vs wide on the same operands.
    const Tensor tb_a = randomTensor(512, 512, rng);
    const Tensor tb_b = randomTensor(128, 512, rng);
    const std::vector<double> tb_s =
        bestSeconds({scalar_serial, simd_serial}, 10, [&] {
            return ops::matmulTransposeB(tb_a, tb_b);
        });
    const double tb_serial_s = tb_s[0], tb_simd_s = tb_s[1];
    const std::vector<double> lstm_step_ms =
        timeLstmStep({scalar_serial, simd_serial}, rng);
    const double lstm_scalar_ms = lstm_step_ms[0],
                 lstm_ms = lstm_step_ms[1];
    const std::vector<double> lstm_fwd_ms =
        timeLstmForward({scalar_serial, simd_serial}, rng);
    const double fwd_scalar_ms = lstm_fwd_ms[0], fwd_ms = lstm_fwd_ms[1];
    // Single-thread micro-bucket shape: must not regress from the
    // parallel machinery (the grain policy keeps it inline).
    const Tensor micro_a = randomTensor(16, 16, rng);
    const Tensor micro_b = randomTensor(16, 16, rng);
    const double micro_s = bestSeconds(
        {four}, 1, [&] { return ops::matmul(micro_a, micro_b); })[0];

    util::Table table({"case", "seconds", "gflop/s"});
    const double gflop = 2.0 * kBig * kBig * kBig / 1e9;
    table.addRow({"gemm 1024^3, 1 thread scalar",
                  util::formatSeconds(serial_s),
                  util::Table::count(
                      static_cast<std::uint64_t>(gflop / serial_s))});
    table.addRow({std::string("gemm 1024^3, 1 thread ") +
                      kernels::simdIsaName(),
                  util::formatSeconds(simd_s),
                  util::Table::count(
                      static_cast<std::uint64_t>(gflop / simd_s))});
    table.addRow({"gemm 1024^3, 4 threads",
                  util::formatSeconds(four_s),
                  util::Table::count(
                      static_cast<std::uint64_t>(gflop / four_s))});
    const double tb_gflop = 2.0 * 512 * 512 * 128 / 1e9;
    table.addRow({"gemm A*B^T 512x512->128, 1 thread scalar",
                  util::formatSeconds(tb_serial_s),
                  util::Table::count(static_cast<std::uint64_t>(
                      tb_gflop / tb_serial_s))});
    table.addRow({std::string("gemm A*B^T 512x512->128, 1 thread ") +
                      kernels::simdIsaName(),
                  util::formatSeconds(tb_simd_s),
                  util::Table::count(static_cast<std::uint64_t>(
                      tb_gflop / tb_simd_s))});
    table.addRow(
        {"gemm 16^3 (micro)", util::formatSeconds(micro_s), "-"});
    table.addRow({"lstm step fwd+bwd 512x128, 1 thread scalar",
                  util::formatSeconds(lstm_scalar_ms / 1e3), "-"});
    table.addRow({std::string("lstm step fwd+bwd 512x128, 1 thread ") +
                      kernels::simdIsaName(),
                  util::formatSeconds(lstm_ms / 1e3), "-"});
    table.addRow({"lstm gate pass fwd 512x128, 1 thread scalar",
                  util::formatSeconds(fwd_scalar_ms / 1e3), "-"});
    table.addRow({std::string("lstm gate pass fwd 512x128, 1 thread ") +
                      kernels::simdIsaName(),
                  util::formatSeconds(fwd_ms / 1e3), "-"});
    table.print();
    std::printf("simd: %s (width %zu)\n", kernels::simdIsaName(),
                kernels::simdWidth());
    std::printf("speedup %s over scalar, 1 thread: %.2fx\n",
                kernels::simdIsaName(), serial_s / simd_s);
    std::printf("speedup at 4 threads over scalar serial: %.2fx\n",
                serial_s / four_s);
    std::printf("A*B^T speedup %s over scalar, 1 thread: %.2fx\n",
                kernels::simdIsaName(), tb_serial_s / tb_simd_s);
    std::printf("LSTM step speedup %s over scalar, 1 thread: %.2fx\n",
                kernels::simdIsaName(), lstm_scalar_ms / lstm_ms);
    std::printf("LSTM gate pass speedup %s over scalar, 1 thread: "
                "%.2fx\n",
                kernels::simdIsaName(), fwd_scalar_ms / fwd_ms);

    // --- Exactly-gated instrumentation counts ---------------------
    using namespace obs::names;
    auto &gemm_calls = obs::metrics().counter(kCtrKernelsGemmCalls);
    auto &gemm_bytes = obs::metrics().counter(kCtrKernelsGemmBytes);
    auto &gemm_flops = obs::metrics().counter(kCtrKernelsGemmFlops);
    auto &ew_calls =
        obs::metrics().counter(kCtrKernelsElementwiseCalls);
    auto &gather_calls =
        obs::metrics().counter(kCtrKernelsGatherCalls);
    auto &parallel_ops =
        obs::metrics().counter(kCtrKernelsParallelOps);

    kernels::setConfig(four);
    const std::size_t m = 192, k = 256, n = 128;
    const Tensor a = randomTensor(m, k, rng);
    const Tensor b = randomTensor(k, n, rng);
    const Tensor at = randomTensor(k, m, rng);
    const Tensor bt = randomTensor(n, k, rng);

    const std::uint64_t calls0 = gemm_calls.value();
    const std::uint64_t bytes0 = gemm_bytes.value();
    const std::uint64_t flops0 = gemm_flops.value();
    const std::uint64_t ew0 = ew_calls.value();
    const std::uint64_t gather0 = gather_calls.value();
    ops::matmul(a, b);
    ops::matmulTransposeA(at, b);
    ops::matmulTransposeB(a, bt);
    const Tensor summed = ops::add(a, a);
    ops::relu(summed);
    const std::vector<std::uint32_t> idx(64, 3);
    const Tensor gathered = ops::gatherRows(a, idx);
    Tensor scatter_out = Tensor::zeros(m, k);
    ops::scatterAddRows(scatter_out, gathered, idx);

    const std::uint64_t workload_gemm_calls =
        gemm_calls.value() - calls0;
    const std::uint64_t workload_gemm_bytes =
        gemm_bytes.value() - bytes0;
    const std::uint64_t workload_gemm_flops =
        gemm_flops.value() - flops0;
    const std::uint64_t workload_ew_calls = ew_calls.value() - ew0;
    const std::uint64_t workload_gather_calls =
        gather_calls.value() - gather0;

    // Grain policy: a micro-bucket GEMM under the default
    // min_parallel_work must never dispatch in parallel.
    const Tensor ma = randomTensor(4, 8, rng);
    const Tensor mb = randomTensor(8, 4, rng);
    const std::uint64_t par0 = parallel_ops.value();
    ops::matmul(ma, mb);
    const std::uint64_t micro_parallel_dispatches =
        parallel_ops.value() - par0;

    // Absolute seconds are recorded, never gated: the tier-1
    // RelWithDebInfo build does not auto-vectorize the scalar GEMM and
    // reads 2-4x the Release seconds. The in-run speedups gate with
    // one-sided floors, set below the lowest of repeated Release runs
    // of the 8-lane build on the 4-core CI container. Losing the SIMD
    // path fails all but gemm_speedup_4t; losing the A * B^T row
    // blocking fails gemm_tb_speedup_simd (it reads ~4). The 4x2 A * B
    // tile is worth ~20% at 1024^3, inside the host's spread, so no
    // floor separates it. lstm_step_speedup_simd times a step that is
    // ~90% GEMM, so it barely sees the gate pass;
    // lstm_forward_speedup_simd times that pass alone, and scalar
    // owned-math rows under SIMD fail it (~1 against 6.9-7.8 at 8
    // lanes). simd_width records which lane a run measured (8 on AVX2
    // hosts, 16 on AVX-512 hosts); the same floors apply at either.
    bench::Reporter reporter("kernels");
    reporter.info("gemm_1024_serial_seconds", serial_s)
        .info("gemm_1024_simd_serial_seconds", simd_s)
        .info("gemm_1024_4threads_seconds", four_s)
        .info("simd_width", static_cast<double>(kernels::simdWidth()))
        .atLeast("gemm_speedup_simd", serial_s / simd_s, 3.0)
        .atLeast("gemm_speedup_4t", serial_s / four_s, 2.5)
        .atLeast("gemm_tb_speedup_simd", tb_serial_s / tb_simd_s, 5.0)
        .atLeast("lstm_step_speedup_simd", lstm_scalar_ms / lstm_ms,
                 4.3)
        .atLeast("lstm_forward_speedup_simd", fwd_scalar_ms / fwd_ms,
                 5.0)
        .info("lstm_step_fwd_bwd_ms", lstm_ms)
        .info("lstm_forward_ms", fwd_ms)
        .info("gemm_16_micro_seconds", micro_s)
        .metric("workload_gemm_calls",
                static_cast<double>(workload_gemm_calls), 0.0)
        .metric("workload_gemm_bytes",
                static_cast<double>(workload_gemm_bytes), 0.0)
        .metric("workload_gemm_flops",
                static_cast<double>(workload_gemm_flops), 0.0)
        .metric("workload_elementwise_calls",
                static_cast<double>(workload_ew_calls), 0.0)
        .metric("workload_gather_calls",
                static_cast<double>(workload_gather_calls), 0.0)
        .metric("micro_parallel_dispatches",
                static_cast<double>(micro_parallel_dispatches), 0.0);
    reporter.write();
    return 0;
}
