/**
 * @file
 * Wide-ISA implementations of the kernel layer (the Kernels table of
 * tensor/kernels_wide.h). This is the ONLY translation unit allowed
 * to include tensor/simd.h. CMake compiles it once per lane type with
 * that ISA's flags: -mavx2 -mfma and -mavx512f -mfma objects on
 * x86-64 when BUFFALO_SIMD=ON (-ffp-contract=off is global, so only
 * the explicit fused operations below fuse), one NEON object on
 * AArch64, and without BUFFALO_SIMD_ENABLED a scalar-lane object, so
 * a table always exists. Each build defines everything in its own
 * namespace, wide::<isa> (the ISA simd.h resolved), with the kernels
 * themselves at internal linkage: only wide::<isa>::table() is
 * visible to the linker.
 *
 * Bitwise contract with the scalar kernels in kernels.cpp: lanes map
 * only to independent output elements (GEMM j-columns, elementwise
 * indices, aggregator feature columns); each element's contributions
 * accumulate in the serial order (k-ascending, t-ascending). Each
 * GEMM C element is a k-ascending chain of fused multiply-adds from
 * +0, one rounding per k-step: simd.h fusedMulAdd in the vector
 * lanes, std::fma in the scalar tails and in kernels.cpp. Every other
 * multiply-accumulate (aggregators, LSTM gates, transcendentals)
 * rounds the multiply and the add separately (simd.h mulAdd), like
 * the scalar expressions under -ffp-contract=off. The LSTM forward's
 * exp, tanh and sigmoid are the VecF forms of
 * tensor/transcendental.h, the same operation sequence as the scalar
 * forms. The kernels_test.cpp memcmp sweeps compare every build the
 * CPU runs against the scalar path at every thread count.
 *
 * GEMM additionally packs the current B tile into a contiguous panel
 * (tile_k x tile_n floats, thread_local storage) so the micro-kernel
 * streams unit-stride vector loads regardless of n; packing copies
 * bits untouched, so it cannot perturb results.
 */
#include "tensor/kernels_wide.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/simd.h"

namespace buffalo::tensor::kernels::wide::BUFFALO_SIMD_ISA {

namespace {

namespace s = buffalo::tensor::simd;
namespace m = buffalo::tensor::math;

constexpr std::size_t W = s::kWidth;

/** Per-thread panel storage: parallelRows tasks never share threads'
 *  packing buffers, and serial callers reuse one allocation. */
std::vector<float> &
packBuffer()
{
    thread_local std::vector<float> buffer;
    return buffer;
}

/**
 * Packs the B tile rows [kp, kend) x columns [jp, jend) into a
 * contiguous (kend-kp) x (jend-jp) panel. B is k x n, or with
 * @p transposed stored n x k (the B of A * B^T), read column-wise.
 */
const float *
packPanel(const float *b, bool transposed, std::size_t k,
          std::size_t n, std::size_t kp, std::size_t kend,
          std::size_t jp, std::size_t jend)
{
    std::vector<float> &store = packBuffer();
    const std::size_t tw = jend - jp;
    store.resize((kend - kp) * tw);
    float *panel = store.data();
    if (transposed) {
        for (std::size_t j = jp; j < jend; ++j)
            for (std::size_t kk = kp; kk < kend; ++kk)
                panel[(kk - kp) * tw + (j - jp)] = b[j * k + kk];
    } else {
        for (std::size_t kk = kp; kk < kend; ++kk)
            std::copy(b + kk * n + jp, b + kk * n + jend,
                      panel + (kk - kp) * tw);
    }
    return panel;
}

/**
 * Rows of one register block at this lane width. An R-row x 2-vector
 * block keeps 2R independent FMA chains in flight, at least the 8
 * that cover the FMA latency on two FMA ports; each broadcast A value
 * feeds two vectors and each panel load R rows. AVX-512's 32 zmm
 * registers hold the 16 accumulators of an 8-row block with room for
 * the panel vectors and the broadcast; the 16 registers of AVX2 (and
 * NEON's 4-lane vectors) keep 4 rows, where 8 would spill.
 */
constexpr std::size_t kBlockRows = W >= 16 ? 8 : 4;

/**
 * Rows [i, i + R) of C against the packed panel: 2-vector column
 * steps (a lone row, the tail of a row range, steps one vector at a
 * time), then a 1-vector and a scalar column tail. Each C element is loaded once, advanced by one fused
 * multiply-add per kk of the panel (k-ascending), and stored — the
 * serial per-element chain, so R never changes the bytes. The r loops
 * unroll fully, which keeps the accumulator arrays in registers.
 */
template <std::size_t R, typename ARowAt>
void
rowBlock(ARowAt arow_at, const float *panel, float *c, std::size_t i,
         std::size_t n, std::size_t kp, std::size_t kd, std::size_t jp,
         std::size_t tw)
{
    float *crow[R];
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r)
        crow[r] = c + (i + r) * n + jp;
    std::size_t j = 0;
    for (; R > 1 && j + 2 * W <= tw; j += 2 * W) {
        s::VecF acc[2 * R];
#pragma GCC unroll 8
        for (std::size_t r = 0; r < R; ++r) {
            acc[r] = s::load(crow[r] + j);
            acc[R + r] = s::load(crow[r] + j + W);
        }
        for (std::size_t kk = 0; kk < kd; ++kk) {
            const s::VecF b0 = s::load(panel + kk * tw + j);
            const s::VecF b1 = s::load(panel + kk * tw + j + W);
#pragma GCC unroll 8
            for (std::size_t r = 0; r < R; ++r) {
                const s::VecF av = s::broadcast(arow_at(i + r, kp + kk));
                acc[r] = s::fusedMulAdd(av, b0, acc[r]);
                acc[R + r] = s::fusedMulAdd(av, b1, acc[R + r]);
            }
        }
#pragma GCC unroll 8
        for (std::size_t r = 0; r < R; ++r) {
            s::store(crow[r] + j, acc[r]);
            s::store(crow[r] + j + W, acc[R + r]);
        }
    }
    for (; j + W <= tw; j += W) {
        s::VecF acc[R];
#pragma GCC unroll 8
        for (std::size_t r = 0; r < R; ++r)
            acc[r] = s::load(crow[r] + j);
        for (std::size_t kk = 0; kk < kd; ++kk) {
            const s::VecF bv = s::load(panel + kk * tw + j);
#pragma GCC unroll 8
            for (std::size_t r = 0; r < R; ++r)
                acc[r] = s::fusedMulAdd(
                    s::broadcast(arow_at(i + r, kp + kk)), bv, acc[r]);
        }
#pragma GCC unroll 8
        for (std::size_t r = 0; r < R; ++r)
            s::store(crow[r] + j, acc[r]);
    }
    for (; j < tw; ++j) {
        float acc[R];
#pragma GCC unroll 8
        for (std::size_t r = 0; r < R; ++r)
            acc[r] = crow[r][j];
        for (std::size_t kk = 0; kk < kd; ++kk) {
            const float bv = panel[kk * tw + j];
#pragma GCC unroll 8
            for (std::size_t r = 0; r < R; ++r)
                acc[r] = std::fma(arow_at(i + r, kp + kk), bv, acc[r]);
        }
#pragma GCC unroll 8
        for (std::size_t r = 0; r < R; ++r)
            crow[r][j] = acc[r];
    }
}

/**
 * The shared A*B tile micro-kernel: rows [r0, r1) of C against the
 * packed panel. @p arow_at maps (row, kk) to the A element so the
 * same body serves gemmRows and gemmTransposeBRows (A row-major) and
 * gemmTransposeARows (A column-major). kBlockRows-row blocks, then
 * 4-row blocks (at most one, at 16 lanes), then single rows.
 */
template <typename ARowAt>
void
tileMicroKernel(ARowAt arow_at, const float *panel, float *c,
                std::size_t r0, std::size_t r1, std::size_t n,
                std::size_t kp, std::size_t kend, std::size_t jp,
                std::size_t jend)
{
    const std::size_t tw = jend - jp;
    const std::size_t kd = kend - kp;
    std::size_t i = r0;
    for (; i + kBlockRows <= r1; i += kBlockRows)
        rowBlock<kBlockRows>(arow_at, panel, c, i, n, kp, kd, jp, tw);
    for (; i + 4 <= r1; i += 4)
        rowBlock<4>(arow_at, panel, c, i, n, kp, kd, jp, tw);
    for (; i < r1; ++i)
        rowBlock<1>(arow_at, panel, c, i, n, kp, kd, jp, tw);
}

/**
 * The VecF forms of math::exp / tanh / sigmoid (tensor/transcendental.h):
 * the scalar operation sequence, lane by lane. tanh evaluates both of
 * its branches and selects on |x| < 0.625, which leaves each lane the
 * bits of the branch the scalar form takes.
 */
s::VecF
vexp(s::VecF x)
{
    const s::VecF magic = s::broadcast(m::kRoundMagic);
    x = s::min(s::broadcast(m::kExpHi), x);
    x = s::max(s::broadcast(m::kExpLo), x);
    const s::VecF n =
        s::sub(s::mulAdd(x, s::broadcast(m::kLog2e), magic), magic);
    const s::VecF r =
        s::sub(s::sub(x, s::mul(n, s::broadcast(m::kLn2Hi))),
               s::mul(n, s::broadcast(m::kLn2Lo)));
    s::VecF q = s::broadcast(m::kExpC6);
    q = s::mulAdd(q, r, s::broadcast(m::kExpC5));
    q = s::mulAdd(q, r, s::broadcast(m::kExpC4));
    q = s::mulAdd(q, r, s::broadcast(m::kExpC3));
    q = s::mulAdd(q, r, s::broadcast(m::kExpC2));
    const s::VecF p =
        s::add(s::mulAdd(q, s::mul(r, r), r), s::broadcast(1.0f));
    const s::VecF n1 =
        s::sub(s::mulAdd(n, s::broadcast(0.5f), magic), magic);
    return s::mul(s::mul(p, s::pow2i(n1)), s::pow2i(s::sub(n, n1)));
}

s::VecF
vtanh(s::VecF x)
{
    const s::VecF one = s::broadcast(1.0f);
    const s::VecF a = s::abs(x);
    const s::VecF z = s::mul(a, a);
    s::VecF p = s::broadcast(m::kTanhT4);
    p = s::mulAdd(p, z, s::broadcast(m::kTanhT3));
    p = s::mulAdd(p, z, s::broadcast(m::kTanhT2));
    p = s::mulAdd(p, z, s::broadcast(m::kTanhT1));
    p = s::mulAdd(p, z, s::broadcast(m::kTanhT0));
    const s::VecF small = s::mulAdd(s::mul(a, z), p, a);
    const s::VecF large = s::sub(
        one, s::div(s::broadcast(2.0f),
                    s::add(vexp(s::mul(s::broadcast(2.0f), a)), one)));
    return s::copySign(
        s::selectLt(a, s::broadcast(m::kTanhSmall), small, large), x);
}

s::VecF
vsigmoid(s::VecF z)
{
    // 0 - z differs from -z only at zero, where exp gives 1 for both.
    const s::VecF one = s::broadcast(1.0f);
    return s::div(one, s::add(one, vexp(s::sub(s::zero(), z))));
}

/**
 * Rows [r0, r1) of C = A * B (or A * B^T with @p b_transposed) over
 * tile_k x tile_n B tiles: the rows are zeroed, then every tile is
 * packed and swept by the micro-kernel, so each C element is a
 * k-ascending FMA chain from +0, the chain of the scalar loops and
 * dot products in kernels.cpp.
 */
template <typename ARowAt>
void
tiledGemmRows(ARowAt arow_at, const float *b, bool b_transposed,
              float *c, std::size_t r0, std::size_t r1, std::size_t k,
              std::size_t n, std::size_t tile_k, std::size_t tile_n)
{
    for (std::size_t i = r0; i < r1; ++i)
        std::fill(c + i * n, c + (i + 1) * n, 0.0f);
    if (k == 0 || n == 0)
        return;
    for (std::size_t kp = 0; kp < k; kp += tile_k) {
        const std::size_t kend = std::min(k, kp + tile_k);
        for (std::size_t jp = 0; jp < n; jp += tile_n) {
            const std::size_t jend = std::min(n, jp + tile_n);
            const float *panel =
                packPanel(b, b_transposed, k, n, kp, kend, jp, jend);
            tileMicroKernel(arow_at, panel, c, r0, r1, n, kp, kend, jp,
                            jend);
        }
    }
}

void
gemmRows(const float *a, const float *b, float *c, std::size_t r0,
         std::size_t r1, std::size_t k, std::size_t n,
         std::size_t tile_k, std::size_t tile_n)
{
    tiledGemmRows(
        [a, k](std::size_t row, std::size_t kk) { return a[row * k + kk]; },
        b, false, c, r0, r1, k, n, tile_k, tile_n);
}

void
gemmTransposeARows(const float *a, const float *b, float *c,
                   std::size_t r0, std::size_t r1, std::size_t k,
                   std::size_t m, std::size_t n, std::size_t tile_k,
                   std::size_t tile_n)
{
    // C row i is A column i: a[kk*m + i].
    tiledGemmRows(
        [a, m](std::size_t row, std::size_t kk) { return a[kk * m + row]; },
        b, false, c, r0, r1, k, n, tile_k, tile_n);
}

void
gemmTransposeBRows(const float *a, const float *b, float *c,
                   std::size_t r0, std::size_t r1, std::size_t k,
                   std::size_t n, std::size_t tile_k, std::size_t tile_n)
{
    // B^T packed tile by tile: the same row blocks as A * B, each
    // lane one dot product, so 2 * kBlockRows chains hide the FMA
    // latency that four chains left exposed at 16 lanes.
    tiledGemmRows(
        [a, k](std::size_t row, std::size_t kk) { return a[row * k + kk]; },
        b, true, c, r0, r1, k, n, tile_k, tile_n);
}

void
ewAdd(const float *a, const float *b, float *c, std::size_t lo,
      std::size_t hi)
{
    std::size_t i = lo;
    for (; i + W <= hi; i += W)
        s::store(c + i, s::add(s::load(a + i), s::load(b + i)));
    for (; i < hi; ++i)
        c[i] = a[i] + b[i];
}

void
ewSubtract(const float *a, const float *b, float *c, std::size_t lo,
           std::size_t hi)
{
    std::size_t i = lo;
    for (; i + W <= hi; i += W)
        s::store(c + i, s::sub(s::load(a + i), s::load(b + i)));
    for (; i < hi; ++i)
        c[i] = a[i] - b[i];
}

void
ewMultiply(const float *a, const float *b, float *c, std::size_t lo,
           std::size_t hi)
{
    std::size_t i = lo;
    for (; i + W <= hi; i += W)
        s::store(c + i, s::mul(s::load(a + i), s::load(b + i)));
    for (; i < hi; ++i)
        c[i] = a[i] * b[i];
}

void
ewScale(const float *a, float sc, float *c, std::size_t lo,
        std::size_t hi)
{
    const s::VecF sv = s::broadcast(sc);
    std::size_t i = lo;
    for (; i + W <= hi; i += W)
        s::store(c + i, s::mul(s::load(a + i), sv));
    for (; i < hi; ++i)
        c[i] = a[i] * sc;
}

void
ewAddInPlace(float *a, const float *b, std::size_t lo, std::size_t hi)
{
    std::size_t i = lo;
    for (; i + W <= hi; i += W)
        s::store(a + i, s::add(s::load(a + i), s::load(b + i)));
    for (; i < hi; ++i)
        a[i] += b[i];
}

void
ewScaleInPlace(float *a, float sc, std::size_t lo, std::size_t hi)
{
    const s::VecF sv = s::broadcast(sc);
    std::size_t i = lo;
    for (; i + W <= hi; i += W)
        s::store(a + i, s::mul(s::load(a + i), sv));
    for (; i < hi; ++i)
        a[i] *= sc;
}

void
ewRelu(const float *a, float *c, std::size_t lo, std::size_t hi)
{
    std::size_t i = lo;
    for (; i + W <= hi; i += W) {
        const s::VecF x = s::load(a + i);
        s::store(c + i, s::selectGtZero(x, x));
    }
    for (; i < hi; ++i)
        c[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

void
ewReluBackward(const float *grad, const float *pre, float *c,
               std::size_t lo, std::size_t hi)
{
    std::size_t i = lo;
    for (; i + W <= hi; i += W)
        s::store(c + i,
                 s::selectGtZero(s::load(pre + i), s::load(grad + i)));
    for (; i < hi; ++i)
        c[i] = pre[i] > 0.0f ? grad[i] : 0.0f;
}

void
ewAddRowBroadcast(const float *a, const float *bias, float *c,
                  std::size_t r0, std::size_t r1, std::size_t n)
{
    for (std::size_t i = r0; i < r1; ++i) {
        const float *arow = a + i * n;
        float *crow = c + i * n;
        std::size_t j = 0;
        for (; j + W <= n; j += W)
            s::store(crow + j,
                     s::add(s::load(arow + j), s::load(bias + j)));
        for (; j < n; ++j)
            crow[j] = arow[j] + bias[j];
    }
}

void
ewColumnSum(const float *a, float *c, std::size_t rows, std::size_t n,
            std::size_t c0, std::size_t c1)
{
    // Columns are independent; each accumulates row-ascending in its
    // own lane, like the serial i-j loop.
    std::size_t j = c0;
    for (; j + W <= c1; j += W) {
        s::VecF acc = s::zero();
        for (std::size_t i = 0; i < rows; ++i)
            acc = s::add(acc, s::load(a + i * n + j));
        s::store(c + j, acc);
    }
    for (; j < c1; ++j) {
        float sum = 0.0f;
        for (std::size_t i = 0; i < rows; ++i)
            sum += a[i * n + j];
        c[j] = sum;
    }
}

void
fusedGatherSumScaleRows(const float *x, const std::uint32_t *gather,
                        const std::uint32_t *out_rows, std::size_t v0,
                        std::size_t v1, std::size_t d, std::size_t dim,
                        float norm, float *out)
{
    const s::VecF nv = s::broadcast(norm);
    for (std::size_t v = v0; v < v1; ++v) {
        float *dst = out + static_cast<std::size_t>(out_rows[v]) * dim;
        std::fill(dst, dst + dim, 0.0f);
        for (std::size_t t = 0; t < d; ++t) {
            const float *src =
                x + static_cast<std::size_t>(gather[v * d + t]) * dim;
            std::size_t j = 0;
            for (; j + W <= dim; j += W)
                s::store(dst + j,
                         s::add(s::load(dst + j), s::load(src + j)));
            for (; j < dim; ++j)
                dst[j] += src[j];
        }
        std::size_t j = 0;
        for (; j + W <= dim; j += W)
            s::store(dst + j, s::mul(s::load(dst + j), nv));
        for (; j < dim; ++j)
            dst[j] *= norm;
    }
}

void
fusedGatherScaledAddRows(const float *x, const std::uint32_t *gather,
                         const std::uint32_t *out_rows, std::size_t v0,
                         std::size_t v1, std::size_t d, std::size_t dim,
                         float norm, float *out)
{
    const s::VecF nv = s::broadcast(norm);
    for (std::size_t v = v0; v < v1; ++v) {
        float *dst = out + static_cast<std::size_t>(out_rows[v]) * dim;
        for (std::size_t t = 0; t < d; ++t) {
            const float *src =
                x + static_cast<std::size_t>(gather[v * d + t]) * dim;
            std::size_t j = 0;
            for (; j + W <= dim; j += W)
                s::store(dst + j, s::mulAdd(s::load(src + j), nv,
                                            s::load(dst + j)));
            for (; j < dim; ++j) {
                const float g = src[j] * norm;
                dst[j] += g;
            }
        }
    }
}

void
fusedScatterScaledAddRows(const float *grad,
                          const std::uint32_t *out_rows,
                          const std::uint32_t *gather, std::size_t n,
                          std::size_t d, std::size_t dim, float norm,
                          float *grad_x, std::size_t r0, std::size_t r1)
{
    // Owner-partitioned over grad_x rows: scan every (i, t) ascending
    // and touch only owned rows, so duplicate destinations accumulate
    // input-ascending — the serial scatterAddRows order — at any
    // thread count.
    const s::VecF nv = s::broadcast(norm);
    for (std::size_t i = 0; i < n; ++i) {
        const float *src =
            grad + static_cast<std::size_t>(out_rows[i]) * dim;
        for (std::size_t t = 0; t < d; ++t) {
            const std::size_t row = gather[i * d + t];
            if (row < r0 || row >= r1)
                continue;
            float *dst = grad_x + row * dim;
            std::size_t j = 0;
            for (; j + W <= dim; j += W)
                s::store(dst + j, s::mulAdd(s::load(src + j), nv,
                                            s::load(dst + j)));
            for (; j < dim; ++j) {
                const float g = src[j] * norm;
                dst[j] += g;
            }
        }
    }
}

void
transcendentalRows(Transcendental fn, const float *x, float *y,
                   std::size_t n)
{
    std::size_t k = 0;
    for (; k + W <= n; k += W) {
        const s::VecF v = s::load(x + k);
        s::store(y + k, fn == Transcendental::Exp    ? vexp(v)
                        : fn == Transcendental::Tanh ? vtanh(v)
                                                     : vsigmoid(v));
    }
    for (; k < n; ++k)
        y[k] = fn == Transcendental::Exp    ? m::exp(x[k])
               : fn == Transcendental::Tanh ? m::tanh(x[k])
                                            : m::sigmoid(x[k]);
}

void
fusedLstmForwardRows(const float *zx, const float *zh,
                     const float *bias, const float *c_prev,
                     std::size_t r0, std::size_t r1, std::size_t h,
                     float *i, float *f, float *g, float *o, float *c,
                     float *tanh_c, float *h_out)
{
    for (std::size_t r = r0; r < r1; ++r) {
        const float *zxr = zx + r * 4 * h;
        const float *zhr = zh + r * 4 * h;
        const std::size_t e = r * h;
        // One loop per gate: consecutive lane groups are independent,
        // so their transcendental chains overlap; one loop over all
        // five would serialize each group on c = f*c_prev + i*g.
        const auto gate = [&](std::size_t block, float *out,
                              auto vector_fn, auto scalar_fn) {
            const float *x = zxr + block * h;
            const float *y = zhr + block * h;
            const float *b = bias + block * h;
            std::size_t j = 0;
            for (; j + W <= h; j += W)
                s::store(out + e + j,
                         vector_fn(s::add(s::add(s::load(x + j),
                                                 s::load(y + j)),
                                          s::load(b + j))));
            for (; j < h; ++j)
                out[e + j] = scalar_fn((x[j] + y[j]) + b[j]);
        };
        gate(0, i, vsigmoid, m::sigmoid);
        gate(1, f, vsigmoid, m::sigmoid);
        gate(2, g, vtanh, m::tanh);
        gate(3, o, vsigmoid, m::sigmoid);
        std::size_t k = e;
        for (; k + W <= e + h; k += W) {
            const s::VecF cv =
                s::add(s::mul(s::load(f + k), s::load(c_prev + k)),
                       s::mul(s::load(i + k), s::load(g + k)));
            const s::VecF tv = vtanh(cv);
            s::store(c + k, cv);
            s::store(tanh_c + k, tv);
            s::store(h_out + k, s::mul(s::load(o + k), tv));
        }
        for (; k < e + h; ++k) {
            c[k] = (f[k] * c_prev[k]) + (i[k] * g[k]);
            tanh_c[k] = m::tanh(c[k]);
            h_out[k] = o[k] * tanh_c[k];
        }
    }
}

void
fusedLstmBackwardRows(const float *dh, const float *dc_in,
                      const float *i, const float *f, const float *g,
                      const float *o, const float *c_prev,
                      const float *tanh_c, std::size_t r0,
                      std::size_t r1, std::size_t h, float *dz,
                      float *dc_prev)
{
    const s::VecF one = s::broadcast(1.0f);
    for (std::size_t r = r0; r < r1; ++r) {
        float *dzr = dz + r * 4 * h;
        const std::size_t e = r * h;
        std::size_t j = 0;
        for (; j + W <= h; j += W) {
            const std::size_t k = e + j;
            const s::VecF dhv = s::load(dh + k);
            const s::VecF iv = s::load(i + k);
            const s::VecF fv = s::load(f + k);
            const s::VecF gv = s::load(g + k);
            const s::VecF ov = s::load(o + k);
            const s::VecF t = s::load(tanh_c + k);
            const s::VecF dc =
                s::add(s::load(dc_in + k),
                       s::mul(s::mul(dhv, ov),
                              s::sub(one, s::mul(t, t))));
            s::store(dzr + j, s::mul(s::mul(s::mul(dc, gv), iv),
                                     s::sub(one, iv)));
            s::store(dzr + h + j,
                     s::mul(s::mul(s::mul(dc, s::load(c_prev + k)), fv),
                            s::sub(one, fv)));
            s::store(dzr + 2 * h + j,
                     s::mul(s::mul(dc, iv), s::sub(one, s::mul(gv, gv))));
            s::store(dzr + 3 * h + j, s::mul(s::mul(s::mul(dhv, t), ov),
                                             s::sub(one, ov)));
            s::store(dc_prev + k, s::mul(dc, fv));
        }
        for (; j < h; ++j) {
            const std::size_t k = e + j;
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

const Kernels &
table()
{
    static const Kernels kernels{
        .isa = s::isaName(),
        .width = W,
        .gemmRows = gemmRows,
        .gemmTransposeARows = gemmTransposeARows,
        .gemmTransposeBRows = gemmTransposeBRows,
        .ewAdd = ewAdd,
        .ewSubtract = ewSubtract,
        .ewMultiply = ewMultiply,
        .ewScale = ewScale,
        .ewAddInPlace = ewAddInPlace,
        .ewScaleInPlace = ewScaleInPlace,
        .ewRelu = ewRelu,
        .ewReluBackward = ewReluBackward,
        .ewAddRowBroadcast = ewAddRowBroadcast,
        .ewColumnSum = ewColumnSum,
        .fusedGatherSumScaleRows = fusedGatherSumScaleRows,
        .fusedGatherScaledAddRows = fusedGatherScaledAddRows,
        .fusedScatterScaledAddRows = fusedScatterScaledAddRows,
        .transcendentalRows = transcendentalRows,
        .fusedLstmForwardRows = fusedLstmForwardRows,
        .fusedLstmBackwardRows = fusedLstmBackwardRows,
    };
    return kernels;
}

} // namespace buffalo::tensor::kernels::wide::BUFFALO_SIMD_ISA
