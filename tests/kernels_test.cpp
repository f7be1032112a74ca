/**
 * @file
 * The determinism contract of the tensor::kernels layer (DESIGN.md,
 * "Compute kernels"): parallel execution must be *bitwise identical*
 * to serial execution — for every op, shape class (empty, single,
 * odd, tile-multiple, tile+1), tile configuration, and thread count —
 * and kernels invoked from inside a pool task must stay serial.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "nn/aggregators.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "simd_lanes.h"
#include "tensor/kernels.h"
#include "tensor/kernels_wide.h"
#include "tensor/ops.h"
#include "tensor/transcendental.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace buffalo::tensor {
namespace {

namespace ops = buffalo::tensor;
namespace wide = kernels::wide;
using testing_simd::SimdLane;
using testing_simd::laneName;
using testing_simd::setConfigAt;
using testing_simd::sweepLanes;

kernels::KernelConfig
serialConfig()
{
    kernels::KernelConfig cfg;
    cfg.threads = 1;
    return cfg;
}

/** Forces parallel dispatch for even the tiniest shapes. */
kernels::KernelConfig
parallelConfig(std::size_t threads = 4)
{
    kernels::KernelConfig cfg;
    cfg.threads = threads;
    cfg.min_parallel_work = 1;
    cfg.min_rows_per_task = 1;
    return cfg;
}

Tensor
randomTensor(std::size_t rows, std::size_t cols, util::Rng &rng)
{
    Tensor t = Tensor::zeros(rows, cols);
    ops::fillUniform(t, 2.0f, rng);
    return t;
}

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    if (a.size() == 0)
        return true;
    return std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

/**
 * Naive references: each C element is the k-ascending std::fma chain
 * from +0 that the tiled kernels run in every lane.
 */
Tensor
refMatmul(const Tensor &a, const Tensor &b)
{
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    Tensor c = Tensor::zeros(m, n);
    for (std::size_t i = 0; i < m; ++i) {
        float *crow = c.data() + i * n;
        const float *arow = a.data() + i * k;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float av = arow[kk];
            const float *brow = b.data() + kk * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] = std::fma(av, brow[j], crow[j]);
        }
    }
    return c;
}

Tensor
refMatmulTransposeA(const Tensor &a, const Tensor &b)
{
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    Tensor c = Tensor::zeros(m, n);
    for (std::size_t i = 0; i < m; ++i) {
        float *crow = c.data() + i * n;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float av = a.data()[kk * m + i];
            const float *brow = b.data() + kk * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] = std::fma(av, brow[j], crow[j]);
        }
    }
    return c;
}

Tensor
refMatmulTransposeB(const Tensor &a, const Tensor &b)
{
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    Tensor c = Tensor::zeros(m, n);
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = a.data() + i * k;
        float *crow = c.data() + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            const float *brow = b.data() + j * k;
            float dot = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk)
                dot = std::fma(arow[kk], brow[kk], dot);
            crow[j] = dot;
        }
    }
    return c;
}

class KernelsTest : public ::testing::Test
{
  protected:
    void TearDown() override { testing_simd::resetDispatch(); }
};

/**
 * Shape classes: empty, single, odd, tile-multiple, tile+1. After the
 * two-vector column loop, 24 and 40 leave one vector at width 8; at
 * width 16, 48 leaves one vector and 56 one vector plus a scalar
 * tail.
 */
const std::size_t kDims[] = {0, 1, 3, 24, 40, 48, 56, 64, 65, 128};

/** Row counts: kDims plus 5, one row past a four-row block, and 13,
 *  an eight-row block, a four-row block and one row at 16 lanes. */
const std::size_t kRows[] = {0,  1,  3,  5,  13, 24,
                             40, 48, 56, 64, 65, 128};

TEST_F(KernelsTest, GemmBitwiseAcrossShapesTilesAndThreads)
{
    util::Rng rng(7);
    for (std::size_t m : kRows) {
        for (std::size_t k : kDims) {
            for (std::size_t n : kDims) {
                const Tensor a = randomTensor(m, k, rng);
                const Tensor b = randomTensor(k, n, rng);
                const Tensor at = randomTensor(k, m, rng);
                const Tensor bt = randomTensor(n, k, rng);

                // The baseline every width and thread count must
                // reproduce: serial scalar lanes.
                kernels::KernelConfig base = serialConfig();
                base.simd = kernels::SimdMode::Off;
                kernels::setConfig(base);
                const Tensor c1 = ops::matmul(a, b);
                const Tensor ta1 = ops::matmulTransposeA(at, b);
                const Tensor tb1 = ops::matmulTransposeB(a, bt);

                for (const SimdLane &lane : sweepLanes(true)) {
                    // Oddball tiles change nothing but iteration
                    // shape.
                    kernels::KernelConfig tiny = parallelConfig(3);
                    tiny.tile_n = 16;
                    tiny.tile_k = 8;
                    for (kernels::KernelConfig cfg :
                         {serialConfig(), parallelConfig(), tiny}) {
                        setConfigAt(cfg, lane);
                        EXPECT_TRUE(
                            bitwiseEqual(c1, ops::matmul(a, b)))
                            << m << "x" << k << "x" << n << " simd="
                            << laneName(lane)
                            << " threads=" << cfg.threads;
                        EXPECT_TRUE(bitwiseEqual(
                            ta1, ops::matmulTransposeA(at, b)))
                            << m << "x" << k << "x" << n << " simd="
                            << laneName(lane)
                            << " threads=" << cfg.threads;
                        EXPECT_TRUE(bitwiseEqual(
                            tb1, ops::matmulTransposeB(a, bt)))
                            << m << "x" << k << "x" << n << " simd="
                            << laneName(lane)
                            << " threads=" << cfg.threads;
                    }
                }

                // And serial matches the naive i-k-j reference.
                EXPECT_TRUE(bitwiseEqual(c1, refMatmul(a, b)));
                EXPECT_TRUE(
                    bitwiseEqual(ta1, refMatmulTransposeA(at, b)));
                EXPECT_TRUE(
                    bitwiseEqual(tb1, refMatmulTransposeB(a, bt)));
            }
        }
    }
}

TEST_F(KernelsTest, GemmChainsRoundOncePerKStep)
{
    // x*x - 1 for x = 1 + 2^-12 is 2^-11 + 2^-24 exactly; rounding the
    // product first loses the 2^-24 (a tie to even), so every C
    // element shows whether its k-step was one fused multiply-add.
    const float x = 1.0f + std::ldexp(1.0f, -12);
    const float fused = std::ldexp(1.0f, -11) + std::ldexp(1.0f, -24);
    const float product = x * x;
    ASSERT_EQ(std::fma(x, x, -1.0f), fused);
    ASSERT_NE(product + -1.0f, fused);

    // C = A * B with k = 2: step 0 takes +0 to -1 * 1 = -1, step 1 is
    // fma(x, x, -1) in every element. 13 rows give an eight-row, a
    // four-row and a single-row block at 16 lanes (three four-row
    // blocks and one row at 8); 3W + 3 columns give, at width W, a
    // two-vector block, a one-vector tail and a three-column scalar
    // tail (27 at 8 lanes, 51 at 16).
    const std::size_t m = 13, k = 2;
    for (std::size_t n : {27u, 51u}) {
        Tensor a = Tensor::zeros(m, k);  // row i: {-1, x}
        Tensor at = Tensor::zeros(k, m); // A^T
        Tensor b = Tensor::zeros(k, n);  // row 0: 1, row 1: x
        Tensor bt = Tensor::zeros(n, k); // B^T
        for (std::size_t i = 0; i < m; ++i) {
            a.data()[i * k] = at.data()[i] = -1.0f;
            a.data()[i * k + 1] = at.data()[m + i] = x;
        }
        for (std::size_t j = 0; j < n; ++j) {
            b.data()[j] = bt.data()[j * k] = 1.0f;
            b.data()[n + j] = bt.data()[j * k + 1] = x;
        }
        // tile_k = 1 stores -1 and reloads it between the two steps.
        kernels::KernelConfig split = parallelConfig();
        split.tile_k = 1;
        for (const SimdLane &lane : sweepLanes(true)) {
            for (kernels::KernelConfig cfg :
                 {serialConfig(), parallelConfig(), split}) {
                setConfigAt(cfg, lane);
                const Tensor results[] = {ops::matmul(a, b),
                                          ops::matmulTransposeA(at, b),
                                          ops::matmulTransposeB(a, bt)};
                for (const Tensor &c : results)
                    for (std::size_t e = 0; e < m * n; ++e)
                        ASSERT_EQ(c.data()[e], fused)
                            << "n=" << n << " element " << e
                            << " simd=" << laneName(lane)
                            << " threads=" << cfg.threads
                            << " tile_k=" << cfg.tile_k;
            }
        }
    }
}

TEST_F(KernelsTest, ElementwiseAndGatherBitwiseParallelVsSerial)
{
    util::Rng rng(11);
    for (std::size_t rows : {1u, 7u, 64u, 129u}) {
        const std::size_t cols = 33;
        const Tensor a = randomTensor(rows, cols, rng);
        const Tensor b = randomTensor(rows, cols, rng);
        const Tensor bias = randomTensor(1, cols, rng);
        std::vector<std::uint32_t> idx;
        for (std::size_t i = 0; i < 2 * rows; ++i)
            idx.push_back(
                static_cast<std::uint32_t>((i * 13) % rows));

        kernels::KernelConfig base = serialConfig();
        base.simd = kernels::SimdMode::Off;
        kernels::setConfig(base);
        const Tensor sums = ops::add(a, b);
        const Tensor relus = ops::relu(a);
        const Tensor sig = ops::sigmoid(a);
        const Tensor th = ops::tanh(a);
        const Tensor bc = ops::addRowBroadcast(a, bias);
        const Tensor csum = ops::columnSum(a);
        const Tensor cat = ops::concatColumns(a, b);
        const Tensor slice = ops::sliceColumns(a, 1, cols - 1);
        const Tensor gathered = ops::gatherRows(a, idx);
        Tensor scatter_serial = Tensor::zeros(rows, cols);
        ops::scatterAddRows(scatter_serial, gathered, idx);

        for (const SimdLane &lane : sweepLanes(true)) {
            for (kernels::KernelConfig cfg :
                 {serialConfig(), parallelConfig()}) {
                setConfigAt(cfg, lane);
                const std::string tag = laneName(lane);
                EXPECT_TRUE(bitwiseEqual(sums, ops::add(a, b)))
                    << tag;
                EXPECT_TRUE(bitwiseEqual(relus, ops::relu(a)))
                    << tag;
                EXPECT_TRUE(bitwiseEqual(sig, ops::sigmoid(a)))
                    << tag;
                EXPECT_TRUE(bitwiseEqual(th, ops::tanh(a))) << tag;
                EXPECT_TRUE(
                    bitwiseEqual(bc, ops::addRowBroadcast(a, bias)))
                    << tag;
                EXPECT_TRUE(bitwiseEqual(csum, ops::columnSum(a)))
                    << tag;
                EXPECT_TRUE(
                    bitwiseEqual(cat, ops::concatColumns(a, b)))
                    << tag;
                EXPECT_TRUE(bitwiseEqual(
                    slice, ops::sliceColumns(a, 1, cols - 1)))
                    << tag;
                const Tensor gathered_par = ops::gatherRows(a, idx);
                EXPECT_TRUE(bitwiseEqual(gathered, gathered_par))
                    << tag;
                // Duplicate indices: owner-partitioned scatter must
                // keep the serial input-ascending accumulation order
                // per output row.
                Tensor scatter_par = Tensor::zeros(rows, cols);
                ops::scatterAddRows(scatter_par, gathered_par, idx);
                EXPECT_TRUE(
                    bitwiseEqual(scatter_serial, scatter_par))
                    << tag;
            }
        }
    }
}

TEST_F(KernelsTest, AggregatorsBitwiseParallelVsSerial)
{
    // dim 20 is not a multiple of 8: the LSTM's fused backward and
    // its A * B^T input gradients end in a scalar tail.
    for (const std::size_t dim : {20u, 24u}) {
        for (const auto kind :
             {nn::AggregatorKind::Mean, nn::AggregatorKind::Gcn,
              nn::AggregatorKind::Pool, nn::AggregatorKind::Lstm}) {
            const std::vector<std::pair<std::size_t, std::size_t>>
                shapes = {{0, 1}, {1, 1}, {33, 3}, {130, 5}};
            for (const auto &[n, d] : shapes) {
                util::Rng data_rng(17);
                const Tensor feats =
                    randomTensor(n * d, dim, data_rng);
                const Tensor grad = randomTensor(n, dim, data_rng);

                // Identical parameter init on both sides via a fixed
                // seed; ops inside fwd/bwd follow the active config.
                kernels::KernelConfig base = serialConfig();
                base.simd = kernels::SimdMode::Off;
                kernels::setConfig(base);
                util::Rng rng_a(23);
                auto agg_a =
                    nn::makeAggregator(kind, "t", dim, rng_a);
                std::unique_ptr<nn::AggregatorCache> cache_a;
                const Tensor out_a =
                    agg_a->forward(feats, n, d, cache_a);
                const Tensor gin_a =
                    agg_a->backward(*cache_a, grad, true);
                EXPECT_EQ(out_a.rows(), n);
                EXPECT_EQ(gin_a.rows(), n * d);

                for (const SimdLane &lane : sweepLanes(true)) {
                    for (kernels::KernelConfig cfg :
                         {serialConfig(), parallelConfig()}) {
                        setConfigAt(cfg, lane);
                        util::Rng rng_b(23);
                        auto agg_b =
                            nn::makeAggregator(kind, "t", dim, rng_b);
                        std::unique_ptr<nn::AggregatorCache> cache_b;
                        const Tensor out_b =
                            agg_b->forward(feats, n, d, cache_b);
                        const Tensor gin_b =
                            agg_b->backward(*cache_b, grad, true);

                        EXPECT_TRUE(bitwiseEqual(out_a, out_b))
                            << nn::aggregatorName(kind) << " fwd n=" << n
                            << " simd=" << laneName(lane)
                            << " threads=" << cfg.threads;
                        EXPECT_TRUE(bitwiseEqual(gin_a, gin_b))
                            << nn::aggregatorName(kind) << " bwd n=" << n
                            << " simd=" << laneName(lane)
                            << " threads=" << cfg.threads;
                    }
                }
            }
        }
    }
}

TEST_F(KernelsTest, ZeroTimesInfinityPropagatesNaN)
{
    // The old serial GEMM skipped a_ik == 0 inner loops, silently
    // turning 0 * inf into 0. The dense kernel must propagate NaN.
    const Tensor a = Tensor::zeros(1, 1);
    Tensor b = Tensor::zeros(1, 1);
    b.data()[0] = std::numeric_limits<float>::infinity();
    EXPECT_TRUE(std::isnan(ops::matmul(a, b).data()[0]));
    EXPECT_TRUE(std::isnan(ops::matmulTransposeA(a, b).data()[0]));
    Tensor nan_b = Tensor::zeros(1, 1);
    nan_b.data()[0] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_TRUE(std::isnan(ops::matmul(a, nan_b).data()[0]));
}

TEST_F(KernelsTest, UninitializedOutputsAreFullyOverwritten)
{
    // All-zero inputs must give exactly-zero outputs even though the
    // result buffers start uninitialized.
    const Tensor a = Tensor::zeros(65, 33);
    const Tensor b = Tensor::zeros(33, 17);
    kernels::setConfig(parallelConfig());
    const Tensor c = ops::matmul(a, b);
    for (std::size_t i = 0; i < c.size(); ++i)
        ASSERT_EQ(c.data()[i], 0.0f);
    const Tensor s = ops::scale(a, 3.0f);
    for (std::size_t i = 0; i < s.size(); ++i)
        ASSERT_EQ(s.data()[i], 0.0f);
}

TEST_F(KernelsTest, NestedInvocationStaysSerial)
{
    kernels::setConfig(parallelConfig());
    util::Rng rng(3);
    const Tensor a = randomTensor(64, 64, rng);
    const Tensor b = randomTensor(64, 64, rng);
    auto &parallel_ops = obs::metrics().counter(
        obs::names::kCtrKernelsParallelOps);
    auto &serial_ops =
        obs::metrics().counter(obs::names::kCtrKernelsSerialOps);

    // From the main thread this shape dispatches in parallel...
    const std::uint64_t par0 = parallel_ops.value();
    ops::matmul(a, b);
    EXPECT_GT(parallel_ops.value(), par0);

    // ...but from inside any pool task it must stay serial (the
    // compute layer composes with the prefetch pipeline instead of
    // oversubscribing it).
    util::ThreadPool pool(2);
    const std::uint64_t par1 = parallel_ops.value();
    const std::uint64_t ser1 = serial_ops.value();
    util::ParallelForOptions opts;
    opts.grain = 1;
    Tensor results[2];
    pool.parallelFor(0, 2, opts, [&](std::size_t i) {
        results[i] = ops::matmul(a, b);
    });
    EXPECT_EQ(parallel_ops.value(), par1);
    EXPECT_GE(serial_ops.value(), ser1 + 2);
    EXPECT_TRUE(bitwiseEqual(results[0], results[1]));
}

TEST_F(KernelsTest, OpTimerRecordsExactCallAndByteCounts)
{
    auto &calls =
        obs::metrics().counter(obs::names::kCtrKernelsGemmCalls);
    auto &bytes =
        obs::metrics().counter(obs::names::kCtrKernelsGemmBytes);
    auto &flops =
        obs::metrics().counter(obs::names::kCtrKernelsGemmFlops);
    const std::uint64_t c0 = calls.value();
    const std::uint64_t b0 = bytes.value();
    const std::uint64_t f0 = flops.value();
    util::Rng rng(5);
    const Tensor a = randomTensor(8, 16, rng);
    const Tensor b = randomTensor(16, 4, rng);
    ops::matmul(a, b);
    EXPECT_EQ(calls.value(), c0 + 1);
    EXPECT_EQ(bytes.value(),
              b0 + (8 * 16 + 16 * 4 + 8 * 4) * sizeof(float));
    EXPECT_EQ(flops.value(), f0 + 2ull * 8 * 16 * 4);
}

TEST_F(KernelsTest, ConfigSanitizesDegenerateTiles)
{
    kernels::KernelConfig cfg;
    cfg.tile_n = 0;
    cfg.tile_k = 0;
    cfg.min_rows_per_task = 0;
    cfg.threads = 4;
    kernels::setConfig(cfg);
    EXPECT_EQ(kernels::config().tile_n, 1u);
    EXPECT_EQ(kernels::config().tile_k, 1u);
    EXPECT_EQ(kernels::config().min_rows_per_task, 1u);
    EXPECT_EQ(kernels::effectiveThreads(), 4u);
}

TEST_F(KernelsTest, GrainPolicyKeepsMicroBucketsSerial)
{
    // Default min_parallel_work (32k scalar ops) must leave a
    // micro-bucket-sized GEMM on the calling thread.
    kernels::KernelConfig cfg;
    cfg.threads = 4;
    kernels::setConfig(cfg);
    auto &parallel_ops = obs::metrics().counter(
        obs::names::kCtrKernelsParallelOps);
    util::Rng rng(9);
    const Tensor a = randomTensor(4, 8, rng);
    const Tensor b = randomTensor(8, 4, rng);
    const std::uint64_t par0 = parallel_ops.value();
    ops::matmul(a, b); // 128 scalar ops — far below the grain
    EXPECT_EQ(parallel_ops.value(), par0);
}

TEST_F(KernelsTest, SimdQueriesReflectActiveMode)
{
    kernels::KernelConfig off;
    off.simd = kernels::SimdMode::Off;
    kernels::setConfig(off);
    EXPECT_EQ(kernels::simdWidth(), 1u);

    kernels::setConfig({}); // Auto
    const std::vector<std::size_t> widths = wide::runnableWidths();
    if (kernels::simdAvailable()) {
        // Auto dispatches at the widest build the CPU runs.
        EXPECT_GT(kernels::simdWidth(), 1u);
        EXPECT_EQ(kernels::simdWidth(), widths.back());
        EXPECT_STRNE(kernels::simdIsaName(), "scalar");
        for (std::size_t width : widths) {
            wide::selectWidth(width);
            EXPECT_EQ(kernels::simdWidth(), width);
            EXPECT_STREQ(kernels::simdIsaName(),
                         wide::build(width).isa);
        }
        wide::selectWidth(0);
        EXPECT_EQ(kernels::simdWidth(), widths.back());
    } else {
        EXPECT_EQ(kernels::simdWidth(), 1u);
    }
    EXPECT_THROW(wide::build(3), InvalidArgument);

    EXPECT_EQ(kernels::simdModeFromName("auto"),
              kernels::SimdMode::Auto);
    EXPECT_EQ(kernels::simdModeFromName("off"),
              kernels::SimdMode::Off);
    EXPECT_EQ(kernels::simdModeFromName("on"),
              kernels::SimdMode::On);
    EXPECT_THROW(kernels::simdModeFromName("wide"),
                 InvalidArgument);
    EXPECT_STREQ(kernels::simdModeName(kernels::SimdMode::Off),
                 "off");
    EXPECT_STREQ(kernels::simdModeName(kernels::SimdMode::Auto),
                 "auto");
}

TEST_F(KernelsTest, FusedAggregateKernelsMatchScalarComposition)
{
    // The fused gather->reduce->scatter entry points against plain
    // scalar references written with the exact same expression
    // forms, across every SIMD lane x thread count.
    const std::size_t n = 67, d = 3, dim = 21;
    util::Rng rng(29);
    const Tensor x = randomTensor(n * d, dim, rng);
    const Tensor grad = randomTensor(n, dim, rng);
    std::vector<std::uint32_t> gather(n * d);
    std::vector<std::uint32_t> out_rows(n);
    for (std::size_t i = 0; i < n * d; ++i)
        gather[i] = static_cast<std::uint32_t>((i * 29) % (n * d));
    for (std::size_t i = 0; i < n; ++i)
        out_rows[i] = static_cast<std::uint32_t>((i * 31) % n);
    const float norm = 1.0f / static_cast<float>(d);

    // References: t-ascending accumulate, then scale (sum-scale);
    // two-rounding multiply-accumulate (scaled-add / scatter).
    Tensor ref_sum = Tensor::zeros(n, dim);
    Tensor ref_add = Tensor::zeros(n, dim);
    Tensor ref_scatter = Tensor::zeros(n * d, dim);
    for (std::size_t i = 0; i < n; ++i) {
        float *sum_row = ref_sum.data() + out_rows[i] * dim;
        float *add_row = ref_add.data() + out_rows[i] * dim;
        std::memset(sum_row, 0, dim * sizeof(float));
        for (std::size_t t = 0; t < d; ++t) {
            const float *src =
                x.data() + gather[i * d + t] * dim;
            for (std::size_t j = 0; j < dim; ++j)
                sum_row[j] += src[j];
        }
        for (std::size_t j = 0; j < dim; ++j)
            sum_row[j] *= norm;
        for (std::size_t t = 0; t < d; ++t) {
            const float *src =
                x.data() + gather[i * d + t] * dim;
            for (std::size_t j = 0; j < dim; ++j)
                add_row[j] += src[j] * norm;
        }
        const float *grow = grad.data() + out_rows[i] * dim;
        for (std::size_t t = 0; t < d; ++t) {
            float *dst =
                ref_scatter.data() + gather[i * d + t] * dim;
            for (std::size_t j = 0; j < dim; ++j) {
                const float g = grow[j] * norm;
                dst[j] += g;
            }
        }
    }
    // The scaled-add reference accumulated in out_rows order per i;
    // fusedGatherScaledAdd also walks i ascending with dst[out_rows]
    // — out_rows here is a permutation, so each output row is built
    // by exactly one i on both sides.

    for (const SimdLane &lane : sweepLanes(true)) {
        for (kernels::KernelConfig cfg :
             {serialConfig(), parallelConfig()}) {
            setConfigAt(cfg, lane);
            const std::string tag = laneName(lane);

            Tensor out_sum = Tensor::zeros(n, dim);
            kernels::fusedGatherSumScale(x.data(), gather.data(),
                                         out_rows.data(), n, d, dim,
                                         norm, out_sum.data());
            EXPECT_TRUE(bitwiseEqual(ref_sum, out_sum)) << tag;

            Tensor out_add = Tensor::zeros(n, dim);
            kernels::fusedGatherScaledAdd(x.data(), gather.data(),
                                          out_rows.data(), n, d,
                                          dim, norm,
                                          out_add.data());
            EXPECT_TRUE(bitwiseEqual(ref_add, out_add)) << tag;

            Tensor out_scatter = Tensor::zeros(n * d, dim);
            kernels::fusedScatterScaledAdd(
                grad.data(), out_rows.data(), gather.data(), n, d,
                dim, norm, out_scatter.data(), n * d);
            EXPECT_TRUE(bitwiseEqual(ref_scatter, out_scatter))
                << tag;
        }
    }
}

/** Distance from @p got to the exact @p want in float ulps at @p want
 *  (the subnormal spacing 2^-149 at the bottom). */
double
ulpError(float got, double want)
{
    int e = 0;
    std::frexp(want, &e);
    const double ulp = std::ldexp(1.0, std::max(e - 24, -149));
    return std::fabs(static_cast<double>(got) - want) / ulp;
}

TEST_F(KernelsTest, OwnedTranscendentalsAreAccurateAndWidthInvariant)
{
    namespace m = tensor::math;
    const auto linspace = [](float lo, float hi, std::size_t n) {
        std::vector<float> x(n);
        for (std::size_t k = 0; k < n; ++k)
            x[k] = lo + (hi - lo) * static_cast<float>(k) /
                            static_cast<float>(n - 1);
        return x;
    };
    const std::vector<float> gate = linspace(-20.0f, 20.0f, 400001);
    // exp's finite range: below -103.97 it rounds to 0, above 88.72 it
    // overflows.
    const std::vector<float> exp_range =
        linspace(-103.97f, 88.72f, 200001);
    const std::vector<float> tiny = [] { // tanh(x) ~ x at the bottom
        std::vector<float> x;
        for (float v = 1e-40f; v < 20.0f; v *= 1.001f) {
            x.push_back(v);
            x.push_back(-v);
        }
        return x;
    }();

    // Max-ulp bounds against double precision. sigmoid adds an add
    // and a divide after exp, so its bound is one ulp wider.
    double exp_ulp = 0, tanh_ulp = 0, sigmoid_ulp = 0;
    for (const std::vector<float> *xs : {&gate, &exp_range})
        for (float x : *xs)
            exp_ulp = std::max(
                exp_ulp, ulpError(m::exp(x), std::exp(double{x})));
    for (const std::vector<float> *xs : {&gate, &tiny})
        for (float x : *xs)
            tanh_ulp = std::max(
                tanh_ulp, ulpError(m::tanh(x), std::tanh(double{x})));
    for (float x : gate)
        sigmoid_ulp =
            std::max(sigmoid_ulp,
                     ulpError(m::sigmoid(x),
                              1.0 / (1.0 + std::exp(-double{x}))));
    EXPECT_LE(exp_ulp, 2.0);
    EXPECT_LE(tanh_ulp, 2.0);
    EXPECT_LE(sigmoid_ulp, 3.0);

    // Special values, through the scalar form and every lane of the
    // VecF form (each is followed by a finite filler so the array
    // also ends in a tail).
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const std::vector<float> specials = {nan,    inf,   -inf,    0.0f,
                                         -0.0f,  1e3f,  -1e3f,   88.8f,
                                         -104.f, 1e-45f, -1e-45f, 0.5f};
    const auto checkSpecials = [&](const char *form, auto exp_fn,
                                   auto tanh_fn, auto sigmoid_fn) {
        SCOPED_TRACE(form);
        EXPECT_TRUE(std::isnan(exp_fn(nan)));
        EXPECT_TRUE(std::isnan(tanh_fn(nan)));
        EXPECT_TRUE(std::isnan(sigmoid_fn(nan)));
        EXPECT_EQ(tanh_fn(inf), 1.0f);
        EXPECT_EQ(tanh_fn(-inf), -1.0f);
        EXPECT_EQ(tanh_fn(0.0f), 0.0f);
        EXPECT_FALSE(std::signbit(tanh_fn(0.0f)));
        EXPECT_EQ(tanh_fn(-0.0f), 0.0f);
        EXPECT_TRUE(std::signbit(tanh_fn(-0.0f)));
        EXPECT_EQ(tanh_fn(-1e-45f), -1e-45f);
        EXPECT_EQ(exp_fn(-inf), 0.0f);
        EXPECT_EQ(exp_fn(-1e3f), 0.0f);
        EXPECT_EQ(exp_fn(inf), inf);
        EXPECT_EQ(exp_fn(88.8f), inf);
        EXPECT_EQ(exp_fn(0.0f), 1.0f);
        EXPECT_EQ(exp_fn(-0.0f), 1.0f);
        EXPECT_EQ(sigmoid_fn(-inf), 0.0f);
        EXPECT_EQ(sigmoid_fn(-1e3f), 0.0f);
        EXPECT_EQ(sigmoid_fn(inf), 1.0f);
        EXPECT_EQ(sigmoid_fn(1e3f), 1.0f);
    };
    checkSpecials("scalar", m::exp, m::tanh, m::sigmoid);

    // The VecF form of every build the host can execute: 8 and 16
    // lanes on an AVX-512 host, the width-1 lane in a scalar-only
    // build.
    std::vector<float> sweep = gate;
    sweep.insert(sweep.end(), exp_range.begin(), exp_range.end());
    sweep.insert(sweep.end(), tiny.begin(), tiny.end());
    for (float x : specials) {
        sweep.push_back(x);
        sweep.push_back(0.25f);
    }
    for (std::size_t width : wide::runnableWidths()) {
        const wide::Kernels &lanes = wide::build(width);
        const std::string form = "VecF/" + std::to_string(width);
        const auto wideOne = [&](wide::Transcendental fn) {
            return [&lanes, fn](float x) {
                // x in every lane of a full group, then once in the
                // tail.
                std::vector<float> in(lanes.width + 1, x),
                    out(in.size());
                lanes.transcendentalRows(fn, in.data(), out.data(),
                                         in.size());
                return out[0];
            };
        };
        checkSpecials(form.c_str(), wideOne(wide::Transcendental::Exp),
                      wideOne(wide::Transcendental::Tanh),
                      wideOne(wide::Transcendental::Sigmoid));

        for (wide::Transcendental fn :
             {wide::Transcendental::Exp, wide::Transcendental::Tanh,
              wide::Transcendental::Sigmoid}) {
            std::vector<float> got(sweep.size());
            lanes.transcendentalRows(fn, sweep.data(), got.data(),
                                     sweep.size());
            std::size_t mismatches = 0;
            for (std::size_t k = 0; k < sweep.size(); ++k) {
                const float want = fn == wide::Transcendental::Exp
                                       ? m::exp(sweep[k])
                                   : fn == wide::Transcendental::Tanh
                                       ? m::tanh(sweep[k])
                                       : m::sigmoid(sweep[k]);
                const bool same =
                    std::isnan(want)
                        ? std::isnan(got[k])
                        : std::memcmp(&want, &got[k], sizeof want) == 0;
                mismatches += same ? 0 : 1;
            }
            EXPECT_EQ(mismatches, 0u)
                << form << " fn=" << static_cast<int>(fn);
        }
    }
}

TEST_F(KernelsTest, FusedLstmPassesMatchOpChain)
{
    // The fused LSTM cell passes against the op chain they replace
    // (slice / sigmoid / tanh / multiply / add forward; the
    // elementwise backward with its per-gate loops), across every
    // SIMD lane x thread count. h = 20 ends each row in a scalar tail
    // after two 8-wide vectors or one 16-wide one, h = 64 is whole
    // vectors only; the 4x input range saturates gates.
    for (const auto &[n, h] : std::vector<
             std::pair<std::size_t, std::size_t>>{
             {0, 3}, {1, 1}, {7, 3}, {33, 20}, {130, 24}, {9, 64}}) {
        util::Rng rng(41 + n + h);
        Tensor zx = randomTensor(n, 4 * h, rng);
        Tensor zh = randomTensor(n, 4 * h, rng);
        ops::scaleInPlace(zx, 4.0f);
        const Tensor bias = randomTensor(1, 4 * h, rng);
        const Tensor c_prev = randomTensor(n, h, rng);
        const Tensor dh = randomTensor(n, h, rng);
        const Tensor dc_in = randomTensor(n, h, rng);

        kernels::KernelConfig base = serialConfig();
        base.simd = kernels::SimdMode::Off;
        kernels::setConfig(base);
        Tensor z = ops::add(zx, zh);
        z = ops::addRowBroadcast(z, bias);
        const Tensor i = ops::sigmoid(ops::sliceColumns(z, 0, h));
        const Tensor f = ops::sigmoid(ops::sliceColumns(z, h, 2 * h));
        const Tensor g = ops::tanh(ops::sliceColumns(z, 2 * h, 3 * h));
        const Tensor o =
            ops::sigmoid(ops::sliceColumns(z, 3 * h, 4 * h));
        const Tensor c = ops::add(ops::multiply(f, c_prev),
                                  ops::multiply(i, g));
        const Tensor tanh_c = ops::tanh(c);
        const Tensor h_out = ops::multiply(o, tanh_c);

        Tensor ref_dz = Tensor::zeros(n, 4 * h);
        Tensor ref_dc_prev = Tensor::zeros(n, h);
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t j = 0; j < h; ++j) {
                const std::size_t k = r * h + j;
                const float t = tanh_c.data()[k];
                const float one_minus_t2 = 1.0f - t * t;
                const float dc =
                    dc_in.data()[k] +
                    (dh.data()[k] * o.data()[k]) * one_minus_t2;
                const float d_i = dc * g.data()[k];
                const float d_f = dc * c_prev.data()[k];
                const float d_g = dc * i.data()[k];
                const float d_o = dh.data()[k] * t;
                const float iv = i.data()[k], fv = f.data()[k];
                const float gv = g.data()[k], ov = o.data()[k];
                float *dzr = ref_dz.data() + r * 4 * h;
                dzr[j] = d_i * iv * (1.0f - iv);
                dzr[h + j] = d_f * fv * (1.0f - fv);
                dzr[2 * h + j] = d_g * (1.0f - gv * gv);
                dzr[3 * h + j] = d_o * ov * (1.0f - ov);
                ref_dc_prev.data()[k] = dc * fv;
            }
        }

        for (const SimdLane &lane : sweepLanes(true)) {
            for (kernels::KernelConfig cfg :
                 {serialConfig(), parallelConfig()}) {
                setConfigAt(cfg, lane);
                const std::string tag =
                    laneName(lane) + " n=" +
                    std::to_string(n) + " h=" + std::to_string(h) +
                    " threads=" + std::to_string(cfg.threads);
                Tensor fi = Tensor::uninitialized(n, h);
                Tensor ff = Tensor::uninitialized(n, h);
                Tensor fg = Tensor::uninitialized(n, h);
                Tensor fo = Tensor::uninitialized(n, h);
                Tensor fc = Tensor::uninitialized(n, h);
                Tensor ft = Tensor::uninitialized(n, h);
                Tensor fh = Tensor::uninitialized(n, h);
                kernels::fusedLstmForward(
                    zx.data(), zh.data(), bias.data(), c_prev.data(), n,
                    h, fi.data(), ff.data(), fg.data(), fo.data(),
                    fc.data(), ft.data(), fh.data());
                EXPECT_TRUE(bitwiseEqual(i, fi)) << tag;
                EXPECT_TRUE(bitwiseEqual(f, ff)) << tag;
                EXPECT_TRUE(bitwiseEqual(g, fg)) << tag;
                EXPECT_TRUE(bitwiseEqual(o, fo)) << tag;
                EXPECT_TRUE(bitwiseEqual(c, fc)) << tag;
                EXPECT_TRUE(bitwiseEqual(tanh_c, ft)) << tag;
                EXPECT_TRUE(bitwiseEqual(h_out, fh)) << tag;

                Tensor dz = Tensor::uninitialized(n, 4 * h);
                Tensor dc_prev = Tensor::uninitialized(n, h);
                kernels::fusedLstmBackward(
                    dh.data(), dc_in.data(), i.data(), f.data(),
                    g.data(), o.data(), c_prev.data(), tanh_c.data(), n,
                    h, dz.data(), dc_prev.data());
                EXPECT_TRUE(bitwiseEqual(ref_dz, dz)) << tag;
                EXPECT_TRUE(bitwiseEqual(ref_dc_prev, dc_prev)) << tag;
            }
        }
    }
}

} // namespace
} // namespace buffalo::tensor
