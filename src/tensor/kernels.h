/**
 * @file
 * The parallel compute-kernel layer under tensor/ops (DESIGN.md,
 * "Compute kernels"). Dense GEMM is cache-tiled (B-panel reuse, a
 * register-blocked 4-row micro-kernel) and every hot kernel fans out
 * row ranges over a thread pool.
 *
 * Determinism contract: parallel execution is **bitwise identical**
 * to the serial kernel. Work is partitioned so each output row is
 * owned by exactly one task, and every per-element floating-point
 * accumulation runs in the same order as the serial reference (k
 * ascending for GEMM, input-row ascending for scatter-adds). Tile
 * sizes and thread counts therefore never change results — only
 * wall-clock.
 *
 * Grain policy: ops whose total scalar work falls below
 * KernelConfig::min_parallel_work run serially inline, so the tiny
 * micro-buckets SplitExplosionBucket emits never pay dispatch
 * overhead. Kernels invoked from inside a thread-pool task (e.g. the
 * prefetcher's feature stage) also stay serial so compute parallelism
 * composes with the pipeline instead of oversubscribing it.
 */
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace buffalo::tensor::kernels {

/**
 * SIMD dispatch policy (KernelConfig::simd, CLI --kernel-simd).
 * Auto uses the wide path when the build carries one (BUFFALO_SIMD)
 * and the CPU supports it; Off forces the scalar kernels; On demands
 * the wide path and setConfig() rejects it when unavailable. The two
 * paths are bitwise identical, so the mode never changes numerics.
 */
enum class SimdMode { Auto, Off, On };

/** Tunables for the kernel layer (TrainerOptions::kernels, CLI
 *  --kernel-threads / --kernel-tile-n / --kernel-tile-k /
 *  --kernel-simd). Changing values never changes numerics. */
struct KernelConfig
{
    /** Worker threads for kernel fan-out; 0 = hardware concurrency
     *  (the process-global pool). 1 forces serial execution. */
    std::size_t threads = 0;
    /** GEMM B-panel width (columns per tile). */
    std::size_t tile_n = 64;
    /** GEMM k-panel depth (rows of B per tile). */
    std::size_t tile_k = 128;
    /** Scalar-op count below which an op runs serially inline. */
    std::size_t min_parallel_work = 1u << 15;
    /** Minimum output rows (or elements) per parallel task. */
    std::size_t min_rows_per_task = 8;
    /** SIMD dispatch policy (see SimdMode). */
    SimdMode simd = SimdMode::Auto;
};

/**
 * The process-wide kernel configuration. Read on every op dispatch;
 * mutate only via setConfig(), and only while no kernels are running
 * (trainer construction, test setup).
 */
const KernelConfig &config();

/** Installs @p cfg (sanitizing zero tile sizes) process-wide. */
void setConfig(const KernelConfig &cfg);

/** Threads a parallel dispatch would use under the current config. */
std::size_t effectiveThreads();

/** True when this build carries a wide ISA the host CPU supports
 *  (independent of the configured SimdMode). */
bool simdAvailable();

/** Lane-group width the current config dispatches at: the build's
 *  wide width when the SIMD path is active, 1 when it is off or
 *  unavailable. */
std::size_t simdWidth();

/** ISA of the wide build this CPU runs, the widest it supports:
 *  "avx512", "avx2", "neon", or "scalar" (BUFFALO_SIMD=OFF builds
 *  and CPUs without the ISA). */
const char *simdIsaName();

/** Parses "auto" / "off" / "on"; throws InvalidArgument otherwise. */
SimdMode simdModeFromName(const std::string &name);

/** Inverse of simdModeFromName. */
const char *simdModeName(SimdMode mode);

/**
 * Partitions [0, rows) into contiguous ranges — each row owned by
 * exactly one task — and runs body(begin, end) for every range.
 * Runs body(0, rows) serially inline when @p work (total scalar ops)
 * is below the configured grain, only one thread is available, or the
 * caller is already inside a pool task. @return true if the op was
 * dispatched in parallel. Records the kernels.parallel_ops /
 * kernels.serial_ops counters either way.
 */
bool parallelRows(std::size_t rows, std::uint64_t work,
                  const std::function<void(std::size_t, std::size_t)>
                      &body);

/**
 * C = A * B over rows [r0, r1) of C. A is m x k, B is k x n, all
 * row-major. Zero-fills the owned C rows first (outputs may come from
 * Tensor::uninitialized), then accumulates k-ascending — bitwise
 * equal to the serial i-k-j loop for any tiling or row partition.
 */
void gemmRows(const float *a, const float *b, float *c, std::size_t r0,
              std::size_t r1, std::size_t k, std::size_t n);

/**
 * C = A^T * B over rows [r0, r1) of C. A is k x m, B is k x n,
 * C is m x n. Same zero-fill + k-ascending contract as gemmRows.
 */
void gemmTransposeARows(const float *a, const float *b, float *c,
                        std::size_t r0, std::size_t r1, std::size_t k,
                        std::size_t m, std::size_t n);

/**
 * C = A * B^T over rows [r0, r1) of C. A is m x k, B is n x k,
 * C is m x n. Each element is one sequential k-ascending dot product.
 */
void gemmTransposeBRows(const float *a, const float *b, float *c,
                        std::size_t r0, std::size_t r1, std::size_t k,
                        std::size_t n);

/**
 * Elementwise range kernels over flat index ranges [lo, hi) (row
 * ranges [r0, r1) for the row-shaped ones). Callers partition the
 * range (ops.cpp does it via parallelRows); each call dispatches to
 * the scalar or SIMD body under the current config — both bitwise
 * identical, element i depends only on input element i.
 */
void ewAdd(const float *a, const float *b, float *c, std::size_t lo,
           std::size_t hi);
void ewSubtract(const float *a, const float *b, float *c,
                std::size_t lo, std::size_t hi);
void ewMultiply(const float *a, const float *b, float *c,
                std::size_t lo, std::size_t hi);
void ewScale(const float *a, float s, float *c, std::size_t lo,
             std::size_t hi);
void ewAddInPlace(float *a, const float *b, std::size_t lo,
                  std::size_t hi);
void ewScaleInPlace(float *a, float s, std::size_t lo, std::size_t hi);
void ewRelu(const float *a, float *c, std::size_t lo, std::size_t hi);
void ewReluBackward(const float *grad, const float *pre, float *c,
                    std::size_t lo, std::size_t hi);
void ewAddRowBroadcast(const float *a, const float *bias, float *c,
                       std::size_t r0, std::size_t r1, std::size_t n);
/** Column range [c0, c1) of the 1 x n column-sum of a (rows x n);
 *  each column accumulates row-ascending. */
void ewColumnSum(const float *a, float *c, std::size_t rows,
                 std::size_t n, std::size_t c0, std::size_t c1);

/**
 * Fused aggregator chains (full ops: they record Aggregate counters
 * and fan out over the kernel pool internally). All three replace a
 * materialized gatherRows round-trip with direct indexed reads, with
 * rounding sequences bit-identical to the unfused path.
 *
 * fusedGatherSumScale: for each v in [0, n),
 *   out[out_rows[v]] = (sum_t x[gather[v*d + t]]) * norm
 * — zero-fill, t-ascending sum, then scale: the MeanAggregator
 * forward order. Each v owns its output row (out_rows must be
 * duplicate-free), so work is partitioned over v.
 */
void fusedGatherSumScale(const float *x, const std::uint32_t *gather,
                         const std::uint32_t *out_rows, std::size_t n,
                         std::size_t d, std::size_t dim, float norm,
                         float *out);

/**
 * fusedGatherScaledAdd: for each v, t ascending,
 *   out[out_rows[v]] += x[gather[v*d + t]] * norm
 * (separately rounded mul then add) — the GCN inline mean order.
 * out_rows must be duplicate-free; out rows arrive pre-zeroed.
 */
void fusedGatherScaledAdd(const float *x, const std::uint32_t *gather,
                          const std::uint32_t *out_rows, std::size_t n,
                          std::size_t d, std::size_t dim, float norm,
                          float *out);

/**
 * fusedScatterScaledAdd: for each (i, t) ascending,
 *   grad_x[gather[i*d + t]] += grad[out_rows[i]] * norm
 * — the broadcast-then-scatterAddRows order (two roundings per
 * element). Owner-partitioned over grad_x rows [0, grad_x_rows):
 * duplicate gather targets accumulate input-ascending at any thread
 * count, exactly like ops::scatterAddRows.
 */
void fusedScatterScaledAdd(const float *grad,
                           const std::uint32_t *out_rows,
                           const std::uint32_t *gather, std::size_t n,
                           std::size_t d, std::size_t dim, float norm,
                           float *grad_x, std::size_t grad_x_rows);

/**
 * Fused LSTM cell passes (full ops: each records one Elementwise call
 * and fans out over rows with parallelRows). Row r of the n x 4h gate
 * tensors holds the column blocks (i, f, g, o); every other tensor is
 * n x h. Both replay, element for element, the rounding sequence of
 * the unfused add / addRowBroadcast / sigmoid / tanh / multiply
 * chain they replace.
 *
 * fusedLstmForward: given the gate GEMMs zx = x*Wx and zh = h*Wh,
 *   z = (zx + zh) + bias;  i, f, o = 1 / (1 + exp(-z));  g = tanh(z)
 *   c = (f * c_prev) + (i * g);  tanh_c = tanh(c);  h = o * tanh_c
 * with the owned exp / tanh of tensor/transcendental.h, the ones
 * ops::sigmoid / ops::tanh call. The wide path runs them in VecF
 * lanes.
 */
void fusedLstmForward(const float *zx, const float *zh,
                      const float *bias, const float *c_prev,
                      std::size_t n, std::size_t h, float *i, float *f,
                      float *g, float *o, float *c, float *tanh_c,
                      float *h_out);

/**
 * fusedLstmBackward: from the step's output gradients dh and dc_in,
 *   dc = dc_in + (dh * o) * (1 - tanh_c * tanh_c)
 *   dz_i = ((dc * g) * i) * (1 - i)
 *   dz_f = ((dc * c_prev) * f) * (1 - f)
 *   dz_g = (dc * i) * (1 - g * g)
 *   dz_o = ((dh * tanh_c) * o) * (1 - o)
 *   dc_prev = dc * f
 * writing dz (n x 4h) and dc_prev. The wide path runs it in VecF
 * lanes.
 */
void fusedLstmBackward(const float *dh, const float *dc_in,
                       const float *i, const float *f, const float *g,
                       const float *o, const float *c_prev,
                       const float *tanh_c, std::size_t n,
                       std::size_t h, float *dz, float *dc_prev);

/** Instrumented op classes (obs counters kernels.<class>_*). */
enum class OpClass { Gemm, Elementwise, Gather, Aggregate };

/**
 * RAII per-op instrumentation: records one call and @p bytes moved at
 * construction, elapsed nanoseconds at destruction, into the metrics
 * registry (names.h kernels.* counters). Cheap: four relaxed atomic
 * adds and two steady_clock reads per op.
 */
class OpTimer
{
  public:
    OpTimer(OpClass op_class, std::uint64_t bytes,
            std::uint64_t flops = 0);
    ~OpTimer();

    OpTimer(const OpTimer &) = delete;
    OpTimer &operator=(const OpTimer &) = delete;

  private:
    OpClass op_class_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace buffalo::tensor::kernels
