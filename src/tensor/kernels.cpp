#include "tensor/kernels.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/names.h"
#include "tensor/kernels_wide.h"
#include "tensor/transcendental.h"
#include "util/errors.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace buffalo::tensor::kernels {

namespace {

/**
 * The live configuration. Plain (unlocked) because the contract in
 * kernels.h restricts mutation to quiescent points; every dispatch
 * reads it without synchronization.
 */
KernelConfig g_config;

/**
 * Lazily (re)built dedicated pool for explicit thread counts. With
 * threads == 0 the global pool is used instead and this stays empty.
 */
class KernelPool
{
  public:
    util::ThreadPool &
    get(std::size_t threads)
    {
        util::MutexLock lock(mutex_);
        if (!pool_ || pool_threads_ != threads) {
            pool_.reset(); // join the old workers first
            pool_ = std::make_unique<util::ThreadPool>(threads);
            pool_threads_ = threads;
        }
        return *pool_;
    }

  private:
    util::Mutex mutex_;
    std::unique_ptr<util::ThreadPool> pool_ BUFFALO_GUARDED_BY(mutex_);
    std::size_t pool_threads_ BUFFALO_GUARDED_BY(mutex_) = 0;
};

KernelPool &
kernelPool()
{
    static KernelPool pool;
    return pool;
}

util::ThreadPool &
dispatchPool()
{
    if (g_config.threads == 0)
        return util::ThreadPool::global();
    return kernelPool().get(g_config.threads);
}

/** Counter handles for one op class, fetched once per process. */
struct OpCounters
{
    obs::Counter *calls;
    obs::Counter *nanos;
    obs::Counter *bytes;
};

const OpCounters &
countersFor(OpClass op_class)
{
    using namespace obs::names;
    static const OpCounters gemm{
        &obs::metrics().counter(kCtrKernelsGemmCalls),
        &obs::metrics().counter(kCtrKernelsGemmNanos),
        &obs::metrics().counter(kCtrKernelsGemmBytes)};
    static const OpCounters elementwise{
        &obs::metrics().counter(kCtrKernelsElementwiseCalls),
        &obs::metrics().counter(kCtrKernelsElementwiseNanos),
        &obs::metrics().counter(kCtrKernelsElementwiseBytes)};
    static const OpCounters gather{
        &obs::metrics().counter(kCtrKernelsGatherCalls),
        &obs::metrics().counter(kCtrKernelsGatherNanos),
        &obs::metrics().counter(kCtrKernelsGatherBytes)};
    static const OpCounters aggregate{
        &obs::metrics().counter(kCtrKernelsAggCalls),
        &obs::metrics().counter(kCtrKernelsAggNanos),
        &obs::metrics().counter(kCtrKernelsAggBytes)};
    switch (op_class) {
      case OpClass::Gemm: return gemm;
      case OpClass::Elementwise: return elementwise;
      case OpClass::Gather: return gather;
      case OpClass::Aggregate: return aggregate;
    }
    return elementwise;
}

obs::Counter &
flopsCounter()
{
    static obs::Counter &counter =
        obs::metrics().counter(obs::names::kCtrKernelsGemmFlops);
    return counter;
}

obs::Counter &
dispatchCounter(bool parallel)
{
    static obs::Counter &parallel_ops =
        obs::metrics().counter(obs::names::kCtrKernelsParallelOps);
    static obs::Counter &serial_ops =
        obs::metrics().counter(obs::names::kCtrKernelsSerialOps);
    return parallel ? parallel_ops : serial_ops;
}

/**
 * The builds of kernels_simd.cpp this CPU runs, narrowest first,
 * resolved once. On x86-64 the AVX-512F build needs avx512f (which
 * __builtin_cpu_supports reports only where the OS saves the ZMM
 * state) and the AVX2 build avx2.
 */
const std::vector<const wide::Kernels *> &
runnableBuilds()
{
    static const std::vector<const wide::Kernels *> builds = [] {
        std::vector<const wide::Kernels *> runnable;
#if defined(BUFFALO_WIDE_X86)
        if (__builtin_cpu_supports("avx2"))
            runnable.push_back(&wide::avx2::table());
        if (__builtin_cpu_supports("avx512f"))
            runnable.push_back(&wide::avx512::table());
#elif defined(BUFFALO_WIDE_NEON)
        runnable.push_back(&wide::neon::table());
#else
        runnable.push_back(&wide::scalar::table());
#endif
        return runnable;
    }();
    return builds;
}

/** The widest build the CPU runs, or null when it runs none. */
const wide::Kernels *
widestBuild()
{
    const std::vector<const wide::Kernels *> &builds = runnableBuilds();
    return builds.empty() ? nullptr : builds.back();
}

/** The build the wide path dispatches to: the widest, unless
 *  wide::selectWidth picked another. Like g_config, written only at
 *  quiescent points. */
const wide::Kernels *&
selectedBuild()
{
    static const wide::Kernels *build = widestBuild();
    return build;
}

/** The build the current config dispatches to, or null for the
 *  scalar path. */
const wide::Kernels *
wideActive()
{
    return g_config.simd != SimdMode::Off && simdAvailable()
               ? selectedBuild()
               : nullptr;
}

} // namespace

const KernelConfig &
config()
{
    return g_config;
}

void
setConfig(const KernelConfig &cfg)
{
    checkArgument(cfg.simd != SimdMode::On || simdAvailable(),
                  "KernelConfig: simd=on requires a BUFFALO_SIMD build "
                  "on a CPU with the target ISA");
    KernelConfig sanitized = cfg;
    sanitized.tile_n = std::max<std::size_t>(1, sanitized.tile_n);
    sanitized.tile_k = std::max<std::size_t>(1, sanitized.tile_k);
    sanitized.min_rows_per_task =
        std::max<std::size_t>(1, sanitized.min_rows_per_task);
    g_config = sanitized;
}

std::size_t
effectiveThreads()
{
    if (g_config.threads != 0)
        return g_config.threads;
    return util::ThreadPool::global().size();
}

bool
simdAvailable()
{
    const wide::Kernels *build = selectedBuild();
    return build != nullptr && build->width > 1;
}

std::size_t
simdWidth()
{
    const wide::Kernels *build = wideActive();
    return build != nullptr ? build->width : 1;
}

const char *
simdIsaName()
{
    const wide::Kernels *build = selectedBuild();
    return build != nullptr ? build->isa : "scalar";
}

std::vector<std::size_t>
wide::runnableWidths()
{
    std::vector<std::size_t> widths;
    for (const Kernels *build : runnableBuilds())
        widths.push_back(build->width);
    return widths;
}

const wide::Kernels &
wide::build(std::size_t width)
{
    for (const Kernels *candidate : runnableBuilds())
        if (candidate->width == width)
            return *candidate;
    throw InvalidArgument("wide::build: this CPU runs no " +
                          std::to_string(width) + "-lane build");
}

void
wide::selectWidth(std::size_t width)
{
    selectedBuild() = width == 0 ? widestBuild() : &build(width);
}

SimdMode
simdModeFromName(const std::string &name)
{
    if (name == "auto")
        return SimdMode::Auto;
    if (name == "off")
        return SimdMode::Off;
    if (name == "on")
        return SimdMode::On;
    throw InvalidArgument("simdModeFromName: unknown SIMD mode '" +
                          name + "' (want auto|off|on)");
}

const char *
simdModeName(SimdMode mode)
{
    switch (mode) {
      case SimdMode::Auto: return "auto";
      case SimdMode::Off: return "off";
      case SimdMode::On: return "on";
    }
    return "?";
}

bool
parallelRows(std::size_t rows, std::uint64_t work,
             const std::function<void(std::size_t, std::size_t)> &body)
{
    const KernelConfig &cfg = g_config;
    std::size_t tasks = std::min(effectiveThreads(), rows);
    if (tasks > 1)
        tasks = std::min(
            tasks, std::max<std::size_t>(
                       1, rows / cfg.min_rows_per_task));
    if (tasks <= 1 || work < cfg.min_parallel_work ||
        util::ThreadPool::inPoolTask()) {
        dispatchCounter(false).add();
        body(0, rows);
        return false;
    }
    dispatchCounter(true).add();
    // Balanced contiguous partition: task t owns rows
    // [t*q + min(t, r), ...) where q = rows / tasks, r = rows % tasks.
    // Each output row has exactly one owner, so the per-row (and thus
    // per-element) arithmetic is independent of the task count.
    const std::size_t q = rows / tasks;
    const std::size_t r = rows % tasks;
    util::ParallelForOptions options;
    options.grain = 1;
    options.max_chunks = tasks;
    dispatchPool().parallelFor(
        0, tasks, options, [&](std::size_t t) {
            const std::size_t r0 = t * q + std::min(t, r);
            const std::size_t r1 = r0 + q + (t < r ? 1 : 0);
            body(r0, r1);
        });
    return true;
}

void
gemmRows(const float *a, const float *b, float *c, std::size_t r0,
         std::size_t r1, std::size_t k, std::size_t n)
{
    if (const wide::Kernels *lanes = wideActive()) {
        lanes->gemmRows(a, b, c, r0, r1, k, n, g_config.tile_k,
                       g_config.tile_n);
        return;
    }
    for (std::size_t i = r0; i < r1; ++i)
        std::fill(c + i * n, c + (i + 1) * n, 0.0f);
    if (k == 0 || n == 0)
        return;
    const std::size_t tile_k = g_config.tile_k;
    const std::size_t tile_n = g_config.tile_n;
    // k-panel outer, j-tile, then all owned rows: the B sub-panel
    // (tile_k x tile_n) stays cache-resident across the row sweep.
    // Every C element accumulates k-ascending (panels ascend, kk
    // ascends within a panel) — the serial order, for any tiling.
    for (std::size_t kp = 0; kp < k; kp += tile_k) {
        const std::size_t kend = std::min(k, kp + tile_k);
        for (std::size_t jp = 0; jp < n; jp += tile_n) {
            const std::size_t jend = std::min(n, jp + tile_n);
            std::size_t i = r0;
            // 4-row micro-kernel: one B load feeds four C rows.
            for (; i + 4 <= r1; i += 4) {
                const float *a0 = a + (i + 0) * k;
                const float *a1 = a + (i + 1) * k;
                const float *a2 = a + (i + 2) * k;
                const float *a3 = a + (i + 3) * k;
                float *c0 = c + (i + 0) * n;
                float *c1 = c + (i + 1) * n;
                float *c2 = c + (i + 2) * n;
                float *c3 = c + (i + 3) * n;
                for (std::size_t kk = kp; kk < kend; ++kk) {
                    const float v0 = a0[kk];
                    const float v1 = a1[kk];
                    const float v2 = a2[kk];
                    const float v3 = a3[kk];
                    const float *brow = b + kk * n;
                    for (std::size_t j = jp; j < jend; ++j) {
                        const float bv = brow[j];
                        c0[j] += v0 * bv;
                        c1[j] += v1 * bv;
                        c2[j] += v2 * bv;
                        c3[j] += v3 * bv;
                    }
                }
            }
            for (; i < r1; ++i) {
                const float *arow = a + i * k;
                float *crow = c + i * n;
                for (std::size_t kk = kp; kk < kend; ++kk) {
                    const float av = arow[kk];
                    const float *brow = b + kk * n;
                    for (std::size_t j = jp; j < jend; ++j)
                        crow[j] += av * brow[j];
                }
            }
        }
    }
}

void
gemmTransposeARows(const float *a, const float *b, float *c,
                   std::size_t r0, std::size_t r1, std::size_t k,
                   std::size_t m, std::size_t n)
{
    if (const wide::Kernels *lanes = wideActive()) {
        lanes->gemmTransposeARows(a, b, c, r0, r1, k, m, n,
                                 g_config.tile_k, g_config.tile_n);
        return;
    }
    for (std::size_t i = r0; i < r1; ++i)
        std::fill(c + i * n, c + (i + 1) * n, 0.0f);
    if (k == 0 || n == 0)
        return;
    const std::size_t tile_k = g_config.tile_k;
    const std::size_t tile_n = g_config.tile_n;
    for (std::size_t kp = 0; kp < k; kp += tile_k) {
        const std::size_t kend = std::min(k, kp + tile_k);
        for (std::size_t jp = 0; jp < n; jp += tile_n) {
            const std::size_t jend = std::min(n, jp + tile_n);
            std::size_t i = r0;
            // Four consecutive C rows = four consecutive A columns;
            // a[kk*m + i .. i+3] is one contiguous load.
            for (; i + 4 <= r1; i += 4) {
                float *c0 = c + (i + 0) * n;
                float *c1 = c + (i + 1) * n;
                float *c2 = c + (i + 2) * n;
                float *c3 = c + (i + 3) * n;
                for (std::size_t kk = kp; kk < kend; ++kk) {
                    const float *acol = a + kk * m + i;
                    const float v0 = acol[0];
                    const float v1 = acol[1];
                    const float v2 = acol[2];
                    const float v3 = acol[3];
                    const float *brow = b + kk * n;
                    for (std::size_t j = jp; j < jend; ++j) {
                        const float bv = brow[j];
                        c0[j] += v0 * bv;
                        c1[j] += v1 * bv;
                        c2[j] += v2 * bv;
                        c3[j] += v3 * bv;
                    }
                }
            }
            for (; i < r1; ++i) {
                float *crow = c + i * n;
                for (std::size_t kk = kp; kk < kend; ++kk) {
                    const float av = a[kk * m + i];
                    const float *brow = b + kk * n;
                    for (std::size_t j = jp; j < jend; ++j)
                        crow[j] += av * brow[j];
                }
            }
        }
    }
}

void
gemmTransposeBRows(const float *a, const float *b, float *c,
                   std::size_t r0, std::size_t r1, std::size_t k,
                   std::size_t n)
{
    if (const wide::Kernels *lanes = wideActive()) {
        lanes->gemmTransposeBRows(a, b, c, r0, r1, k, n, g_config.tile_k,
                                  g_config.tile_n);
        return;
    }
    for (std::size_t i = r0; i < r1; ++i) {
        const float *arow = a + i * k;
        float *crow = c + i * n;
        std::size_t j = 0;
        // Four dot products share each arow load; every accumulator
        // still sums k-ascending, so blocking is bitwise-neutral.
        for (; j + 4 <= n; j += 4) {
            const float *b0 = b + (j + 0) * k;
            const float *b1 = b + (j + 1) * k;
            const float *b2 = b + (j + 2) * k;
            const float *b3 = b + (j + 3) * k;
            float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk) {
                const float av = arow[kk];
                d0 += av * b0[kk];
                d1 += av * b1[kk];
                d2 += av * b2[kk];
                d3 += av * b3[kk];
            }
            crow[j + 0] = d0;
            crow[j + 1] = d1;
            crow[j + 2] = d2;
            crow[j + 3] = d3;
        }
        for (; j < n; ++j) {
            const float *brow = b + j * k;
            float dot = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk)
                dot += arow[kk] * brow[kk];
            crow[j] = dot;
        }
    }
}

void
ewAdd(const float *a, const float *b, float *c, std::size_t lo,
      std::size_t hi)
{
    if (const wide::Kernels *lanes = wideActive()) {
        lanes->ewAdd(a, b, c, lo, hi);
        return;
    }
    for (std::size_t i = lo; i < hi; ++i)
        c[i] = a[i] + b[i];
}

void
ewSubtract(const float *a, const float *b, float *c, std::size_t lo,
           std::size_t hi)
{
    if (const wide::Kernels *lanes = wideActive()) {
        lanes->ewSubtract(a, b, c, lo, hi);
        return;
    }
    for (std::size_t i = lo; i < hi; ++i)
        c[i] = a[i] - b[i];
}

void
ewMultiply(const float *a, const float *b, float *c, std::size_t lo,
           std::size_t hi)
{
    if (const wide::Kernels *lanes = wideActive()) {
        lanes->ewMultiply(a, b, c, lo, hi);
        return;
    }
    for (std::size_t i = lo; i < hi; ++i)
        c[i] = a[i] * b[i];
}

void
ewScale(const float *a, float s, float *c, std::size_t lo,
        std::size_t hi)
{
    if (const wide::Kernels *lanes = wideActive()) {
        lanes->ewScale(a, s, c, lo, hi);
        return;
    }
    for (std::size_t i = lo; i < hi; ++i)
        c[i] = a[i] * s;
}

void
ewAddInPlace(float *a, const float *b, std::size_t lo, std::size_t hi)
{
    if (const wide::Kernels *lanes = wideActive()) {
        lanes->ewAddInPlace(a, b, lo, hi);
        return;
    }
    for (std::size_t i = lo; i < hi; ++i)
        a[i] += b[i];
}

void
ewScaleInPlace(float *a, float s, std::size_t lo, std::size_t hi)
{
    if (const wide::Kernels *lanes = wideActive()) {
        lanes->ewScaleInPlace(a, s, lo, hi);
        return;
    }
    for (std::size_t i = lo; i < hi; ++i)
        a[i] *= s;
}

void
ewRelu(const float *a, float *c, std::size_t lo, std::size_t hi)
{
    if (const wide::Kernels *lanes = wideActive()) {
        lanes->ewRelu(a, c, lo, hi);
        return;
    }
    for (std::size_t i = lo; i < hi; ++i)
        c[i] = std::max(0.0f, a[i]);
}

void
ewReluBackward(const float *grad, const float *pre, float *c,
               std::size_t lo, std::size_t hi)
{
    if (const wide::Kernels *lanes = wideActive()) {
        lanes->ewReluBackward(grad, pre, c, lo, hi);
        return;
    }
    for (std::size_t i = lo; i < hi; ++i)
        c[i] = pre[i] > 0.0f ? grad[i] : 0.0f;
}

void
ewAddRowBroadcast(const float *a, const float *bias, float *c,
                  std::size_t r0, std::size_t r1, std::size_t n)
{
    if (const wide::Kernels *lanes = wideActive()) {
        lanes->ewAddRowBroadcast(a, bias, c, r0, r1, n);
        return;
    }
    for (std::size_t i = r0; i < r1; ++i) {
        const float *arow = a + i * n;
        float *crow = c + i * n;
        for (std::size_t j = 0; j < n; ++j)
            crow[j] = arow[j] + bias[j];
    }
}

void
ewColumnSum(const float *a, float *c, std::size_t rows, std::size_t n,
            std::size_t c0, std::size_t c1)
{
    if (const wide::Kernels *lanes = wideActive()) {
        lanes->ewColumnSum(a, c, rows, n, c0, c1);
        return;
    }
    std::fill(c + c0, c + c1, 0.0f);
    for (std::size_t i = 0; i < rows; ++i) {
        const float *arow = a + i * n;
        for (std::size_t j = c0; j < c1; ++j)
            c[j] += arow[j];
    }
}

namespace {

/** Scalar bodies for the fused aggregator chains (see kernels.h for
 *  the contracts; the wide TU mirrors these element for element). */
void
scalarGatherSumScaleRows(const float *x, const std::uint32_t *gather,
                         const std::uint32_t *out_rows, std::size_t v0,
                         std::size_t v1, std::size_t d, std::size_t dim,
                         float norm, float *out)
{
    for (std::size_t v = v0; v < v1; ++v) {
        float *dst = out + static_cast<std::size_t>(out_rows[v]) * dim;
        std::fill(dst, dst + dim, 0.0f);
        for (std::size_t t = 0; t < d; ++t) {
            const float *src =
                x + static_cast<std::size_t>(gather[v * d + t]) * dim;
            for (std::size_t j = 0; j < dim; ++j)
                dst[j] += src[j];
        }
        for (std::size_t j = 0; j < dim; ++j)
            dst[j] *= norm;
    }
}

void
scalarGatherScaledAddRows(const float *x, const std::uint32_t *gather,
                          const std::uint32_t *out_rows, std::size_t v0,
                          std::size_t v1, std::size_t d,
                          std::size_t dim, float norm, float *out)
{
    for (std::size_t v = v0; v < v1; ++v) {
        float *dst = out + static_cast<std::size_t>(out_rows[v]) * dim;
        for (std::size_t t = 0; t < d; ++t) {
            const float *src =
                x + static_cast<std::size_t>(gather[v * d + t]) * dim;
            for (std::size_t j = 0; j < dim; ++j)
                dst[j] += src[j] * norm;
        }
    }
}

void
scalarScatterScaledAddRows(const float *grad,
                           const std::uint32_t *out_rows,
                           const std::uint32_t *gather, std::size_t n,
                           std::size_t d, std::size_t dim, float norm,
                           float *grad_x, std::size_t r0,
                           std::size_t r1)
{
    for (std::size_t i = 0; i < n; ++i) {
        const float *src =
            grad + static_cast<std::size_t>(out_rows[i]) * dim;
        for (std::size_t t = 0; t < d; ++t) {
            const std::size_t row = gather[i * d + t];
            if (row < r0 || row >= r1)
                continue;
            float *dst = grad_x + row * dim;
            for (std::size_t j = 0; j < dim; ++j) {
                const float g = src[j] * norm;
                dst[j] += g;
            }
        }
    }
}

void
scalarLstmForwardRows(const float *zx, const float *zh,
                      const float *bias, const float *c_prev,
                      std::size_t r0, std::size_t r1, std::size_t h,
                      float *i, float *f, float *g, float *o, float *c,
                      float *tanh_c, float *h_out)
{
    for (std::size_t r = r0; r < r1; ++r) {
        const float *zxr = zx + r * 4 * h;
        const float *zhr = zh + r * 4 * h;
        for (std::size_t j = 0; j < h; ++j) {
            const auto z = [&](std::size_t block) {
                const std::size_t b = block * h + j;
                return (zxr[b] + zhr[b]) + bias[b];
            };
            const std::size_t k = r * h + j;
            i[k] = math::sigmoid(z(0));
            f[k] = math::sigmoid(z(1));
            g[k] = math::tanh(z(2));
            o[k] = math::sigmoid(z(3));
            c[k] = (f[k] * c_prev[k]) + (i[k] * g[k]);
            tanh_c[k] = math::tanh(c[k]);
            h_out[k] = o[k] * tanh_c[k];
        }
    }
}

void
scalarLstmBackwardRows(const float *dh, const float *dc_in,
                       const float *i, const float *f, const float *g,
                       const float *o, const float *c_prev,
                       const float *tanh_c, std::size_t r0,
                       std::size_t r1, std::size_t h, float *dz,
                       float *dc_prev)
{
    for (std::size_t r = r0; r < r1; ++r) {
        float *dzr = dz + r * 4 * h;
        for (std::size_t j = 0; j < h; ++j) {
            const std::size_t k = r * h + j;
            const float t = tanh_c[k];
            const float dc = dc_in[k] + (dh[k] * o[k]) * (1.0f - t * t);
            dzr[j] = ((dc * g[k]) * i[k]) * (1.0f - i[k]);
            dzr[h + j] = ((dc * c_prev[k]) * f[k]) * (1.0f - f[k]);
            dzr[2 * h + j] = (dc * i[k]) * (1.0f - g[k] * g[k]);
            dzr[3 * h + j] = ((dh[k] * t) * o[k]) * (1.0f - o[k]);
            dc_prev[k] = dc * f[k];
        }
    }
}

} // namespace

void
fusedGatherSumScale(const float *x, const std::uint32_t *gather,
                    const std::uint32_t *out_rows, std::size_t n,
                    std::size_t d, std::size_t dim, float norm,
                    float *out)
{
    OpTimer timer(OpClass::Aggregate,
                  (n * d * dim + 2 * n * dim) * sizeof(float));
    const wide::Kernels *lanes = wideActive();
    parallelRows(n, n * d * dim,
                 [&](std::size_t v0, std::size_t v1) {
                     if (lanes)
                         lanes->fusedGatherSumScaleRows(
                             x, gather, out_rows, v0, v1, d, dim, norm,
                             out);
                     else
                         scalarGatherSumScaleRows(x, gather, out_rows,
                                                  v0, v1, d, dim, norm,
                                                  out);
                 });
}

void
fusedGatherScaledAdd(const float *x, const std::uint32_t *gather,
                     const std::uint32_t *out_rows, std::size_t n,
                     std::size_t d, std::size_t dim, float norm,
                     float *out)
{
    OpTimer timer(OpClass::Aggregate,
                  (n * d * dim + 2 * n * dim) * sizeof(float));
    const wide::Kernels *lanes = wideActive();
    parallelRows(n, n * d * dim,
                 [&](std::size_t v0, std::size_t v1) {
                     if (lanes)
                         lanes->fusedGatherScaledAddRows(
                             x, gather, out_rows, v0, v1, d, dim, norm,
                             out);
                     else
                         scalarGatherScaledAddRows(x, gather, out_rows,
                                                   v0, v1, d, dim,
                                                   norm, out);
                 });
}

void
fusedScatterScaledAdd(const float *grad, const std::uint32_t *out_rows,
                      const std::uint32_t *gather, std::size_t n,
                      std::size_t d, std::size_t dim, float norm,
                      float *grad_x, std::size_t grad_x_rows)
{
    OpTimer timer(OpClass::Aggregate,
                  3 * n * d * dim * sizeof(float));
    const wide::Kernels *lanes = wideActive();
    // Owner-partitioned over grad_x rows; every task scans the whole
    // gather list (like ops::scatterAddRows), so the work estimate
    // includes the scan itself.
    parallelRows(grad_x_rows, n * d * (dim + 1),
                 [&](std::size_t r0, std::size_t r1) {
                     if (lanes)
                         lanes->fusedScatterScaledAddRows(
                             grad, out_rows, gather, n, d, dim, norm,
                             grad_x, r0, r1);
                     else
                         scalarScatterScaledAddRows(grad, out_rows,
                                                    gather, n, d, dim,
                                                    norm, grad_x, r0,
                                                    r1);
                 });
}

void
fusedLstmForward(const float *zx, const float *zh, const float *bias,
                 const float *c_prev, std::size_t n, std::size_t h,
                 float *i, float *f, float *g, float *o, float *c,
                 float *tanh_c, float *h_out)
{
    // Reads zx, zh (4h each), c_prev; writes seven h-wide outputs.
    OpTimer timer(OpClass::Elementwise,
                  (16 * n * h + 4 * h) * sizeof(float));
    const wide::Kernels *lanes = wideActive();
    // Five owned transcendentals per hidden unit: in VecF lanes about
    // twice the backward pass's cost per unit.
    parallelRows(n, 40 * n * h, [&](std::size_t r0, std::size_t r1) {
        if (lanes)
            lanes->fusedLstmForwardRows(zx, zh, bias, c_prev, r0, r1, h,
                                       i, f, g, o, c, tanh_c, h_out);
        else
            scalarLstmForwardRows(zx, zh, bias, c_prev, r0, r1, h, i,
                                  f, g, o, c, tanh_c, h_out);
    });
}

void
fusedLstmBackward(const float *dh, const float *dc_in, const float *i,
                  const float *f, const float *g, const float *o,
                  const float *c_prev, const float *tanh_c,
                  std::size_t n, std::size_t h, float *dz,
                  float *dc_prev)
{
    // Reads eight h-wide inputs; writes dz (4h) and dc_prev.
    OpTimer timer(OpClass::Elementwise, 13 * n * h * sizeof(float));
    const wide::Kernels *lanes = wideActive();
    parallelRows(n, 20 * n * h, [&](std::size_t r0, std::size_t r1) {
        if (lanes)
            lanes->fusedLstmBackwardRows(dh, dc_in, i, f, g, o, c_prev,
                                        tanh_c, r0, r1, h, dz, dc_prev);
        else
            scalarLstmBackwardRows(dh, dc_in, i, f, g, o, c_prev,
                                   tanh_c, r0, r1, h, dz, dc_prev);
    });
}

OpTimer::OpTimer(OpClass op_class, std::uint64_t bytes,
                 std::uint64_t flops)
    : op_class_(op_class), start_(std::chrono::steady_clock::now())
{
    const OpCounters &counters = countersFor(op_class_);
    counters.calls->add();
    counters.bytes->add(bytes);
    if (flops != 0)
        flopsCounter().add(flops);
}

OpTimer::~OpTimer()
{
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    countersFor(op_class_).nanos->add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
}

} // namespace buffalo::tensor::kernels
