/**
 * @file
 * Wide-ISA implementations of the kernel layer (declared in
 * tensor/kernels_wide.h). This is the ONLY translation unit allowed
 * to include tensor/simd.h: CMake compiles it with the target ISA
 * flags (-mavx2 -ffp-contract=off on x86-64 when BUFFALO_SIMD=ON),
 * and without BUFFALO_SIMD_ENABLED it degrades to the scalar VecF
 * lane so the symbols always exist.
 *
 * Bitwise contract with the scalar kernels in kernels.cpp: lanes map
 * only to independent output elements (GEMM j-columns, elementwise
 * indices, aggregator feature columns); each element's contributions
 * accumulate in the serial order (k-ascending, t-ascending); every
 * multiply-accumulate rounds the multiply and the add separately
 * (simd.h mulAdd — never an FMA). The LSTM forward's exp, tanh and
 * sigmoid are the VecF forms of tensor/transcendental.h, the same
 * operation sequence as the scalar forms. The kernels_test.cpp memcmp
 * sweeps compare this path against the scalar path at every width ×
 * thread count.
 *
 * GEMM additionally packs the current B tile into a contiguous panel
 * (tile_k x tile_n floats, thread_local storage) so the micro-kernel
 * streams unit-stride vector loads regardless of n; packing copies
 * bits untouched, so it cannot perturb results.
 */
#include "tensor/kernels_wide.h"

#include <algorithm>
#include <vector>

#include "tensor/simd.h"

namespace buffalo::tensor::kernels::wide {

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
 * Packs B rows [kp, kend) x columns [jp, jend) into a contiguous
 * (kend-kp) x (jend-jp) panel.
 */
float *
packPanel(const float *b, std::size_t n, std::size_t kp,
          std::size_t kend, std::size_t jp, std::size_t jend)
{
    std::vector<float> &store = packBuffer();
    const std::size_t tw = jend - jp;
    store.resize((kend - kp) * tw);
    float *panel = store.data();
    for (std::size_t kk = kp; kk < kend; ++kk)
        std::copy(b + kk * n + jp, b + kk * n + jend,
                  panel + (kk - kp) * tw);
    return panel;
}

/**
 * The shared A*B tile micro-kernel: rows [r0, r1) of C against the
 * packed panel. @p arow_of maps (row, kk) to the A element so the
 * same body serves gemmRows (A row-major) and gemmTransposeARows
 * (A column-major). A 4-row x 2-vector block keeps eight independent
 * accumulator chains in flight, enough to hide the add latency; each
 * broadcast A value feeds two vectors and each panel load four rows.
 * A 1-vector and a scalar column tail follow, then single rows. Each
 * C element is loaded once per tile, accumulated in a register over
 * the panel's kk (k-ascending), and stored — the serial per-element
 * order for any tiling.
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
    for (; i + 4 <= r1; i += 4) {
        float *c0 = c + (i + 0) * n + jp;
        float *c1 = c + (i + 1) * n + jp;
        float *c2 = c + (i + 2) * n + jp;
        float *c3 = c + (i + 3) * n + jp;
        std::size_t j = 0;
        for (; j + 2 * W <= tw; j += 2 * W) {
            s::VecF acc0 = s::load(c0 + j);
            s::VecF acc1 = s::load(c1 + j);
            s::VecF acc2 = s::load(c2 + j);
            s::VecF acc3 = s::load(c3 + j);
            s::VecF acc4 = s::load(c0 + j + W);
            s::VecF acc5 = s::load(c1 + j + W);
            s::VecF acc6 = s::load(c2 + j + W);
            s::VecF acc7 = s::load(c3 + j + W);
            for (std::size_t kk = 0; kk < kd; ++kk) {
                const s::VecF b0 = s::load(panel + kk * tw + j);
                const s::VecF b1 = s::load(panel + kk * tw + j + W);
                const s::VecF a0 = s::broadcast(arow_at(i + 0, kp + kk));
                const s::VecF a1 = s::broadcast(arow_at(i + 1, kp + kk));
                const s::VecF a2 = s::broadcast(arow_at(i + 2, kp + kk));
                const s::VecF a3 = s::broadcast(arow_at(i + 3, kp + kk));
                acc0 = s::mulAdd(a0, b0, acc0);
                acc1 = s::mulAdd(a1, b0, acc1);
                acc2 = s::mulAdd(a2, b0, acc2);
                acc3 = s::mulAdd(a3, b0, acc3);
                acc4 = s::mulAdd(a0, b1, acc4);
                acc5 = s::mulAdd(a1, b1, acc5);
                acc6 = s::mulAdd(a2, b1, acc6);
                acc7 = s::mulAdd(a3, b1, acc7);
            }
            s::store(c0 + j, acc0);
            s::store(c1 + j, acc1);
            s::store(c2 + j, acc2);
            s::store(c3 + j, acc3);
            s::store(c0 + j + W, acc4);
            s::store(c1 + j + W, acc5);
            s::store(c2 + j + W, acc6);
            s::store(c3 + j + W, acc7);
        }
        for (; j + W <= tw; j += W) {
            s::VecF acc0 = s::load(c0 + j);
            s::VecF acc1 = s::load(c1 + j);
            s::VecF acc2 = s::load(c2 + j);
            s::VecF acc3 = s::load(c3 + j);
            for (std::size_t kk = 0; kk < kd; ++kk) {
                const s::VecF bv = s::load(panel + kk * tw + j);
                acc0 = s::mulAdd(
                    s::broadcast(arow_at(i + 0, kp + kk)), bv, acc0);
                acc1 = s::mulAdd(
                    s::broadcast(arow_at(i + 1, kp + kk)), bv, acc1);
                acc2 = s::mulAdd(
                    s::broadcast(arow_at(i + 2, kp + kk)), bv, acc2);
                acc3 = s::mulAdd(
                    s::broadcast(arow_at(i + 3, kp + kk)), bv, acc3);
            }
            s::store(c0 + j, acc0);
            s::store(c1 + j, acc1);
            s::store(c2 + j, acc2);
            s::store(c3 + j, acc3);
        }
        for (; j < tw; ++j) {
            float s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];
            for (std::size_t kk = 0; kk < kd; ++kk) {
                const float bv = panel[kk * tw + j];
                s0 += arow_at(i + 0, kp + kk) * bv;
                s1 += arow_at(i + 1, kp + kk) * bv;
                s2 += arow_at(i + 2, kp + kk) * bv;
                s3 += arow_at(i + 3, kp + kk) * bv;
            }
            c0[j] = s0;
            c1[j] = s1;
            c2[j] = s2;
            c3[j] = s3;
        }
    }
    for (; i < r1; ++i) {
        float *crow = c + i * n + jp;
        std::size_t j = 0;
        for (; j + W <= tw; j += W) {
            s::VecF acc = s::load(crow + j);
            for (std::size_t kk = 0; kk < kd; ++kk)
                acc = s::mulAdd(s::broadcast(arow_at(i, kp + kk)),
                                s::load(panel + kk * tw + j), acc);
            s::store(crow + j, acc);
        }
        for (; j < tw; ++j) {
            float sum = crow[j];
            for (std::size_t kk = 0; kk < kd; ++kk)
                sum += arow_at(i, kp + kk) * panel[kk * tw + j];
            crow[j] = sum;
        }
    }
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

} // namespace

bool
available()
{
#if defined(BUFFALO_SIMD_AVX2)
    static const bool supported = __builtin_cpu_supports("avx2") != 0;
    return supported;
#elif defined(BUFFALO_SIMD_NEON)
    return true;
#else
    return false;
#endif
}

std::size_t
width()
{
    return W;
}

const char *
isaName()
{
    return s::isaName();
}

float
hsumTree(const float *lanes, std::size_t n)
{
    float scratch[64];
    std::copy(lanes, lanes + n, scratch);
    while (n > 1) {
        n /= 2;
        for (std::size_t i = 0; i < n; ++i)
            scratch[i] = scratch[i] + scratch[i + n];
    }
    return scratch[0];
}

void
gemmRows(const float *a, const float *b, float *c, std::size_t r0,
         std::size_t r1, std::size_t k, std::size_t n,
         std::size_t tile_k, std::size_t tile_n)
{
    for (std::size_t i = r0; i < r1; ++i)
        std::fill(c + i * n, c + (i + 1) * n, 0.0f);
    if (k == 0 || n == 0)
        return;
    for (std::size_t kp = 0; kp < k; kp += tile_k) {
        const std::size_t kend = std::min(k, kp + tile_k);
        for (std::size_t jp = 0; jp < n; jp += tile_n) {
            const std::size_t jend = std::min(n, jp + tile_n);
            const float *panel = packPanel(b, n, kp, kend, jp, jend);
            tileMicroKernel(
                [a, k](std::size_t row, std::size_t kk) {
                    return a[row * k + kk];
                },
                panel, c, r0, r1, n, kp, kend, jp, jend);
        }
    }
}

void
gemmTransposeARows(const float *a, const float *b, float *c,
                   std::size_t r0, std::size_t r1, std::size_t k,
                   std::size_t m, std::size_t n, std::size_t tile_k,
                   std::size_t tile_n)
{
    for (std::size_t i = r0; i < r1; ++i)
        std::fill(c + i * n, c + (i + 1) * n, 0.0f);
    if (k == 0 || n == 0)
        return;
    for (std::size_t kp = 0; kp < k; kp += tile_k) {
        const std::size_t kend = std::min(k, kp + tile_k);
        for (std::size_t jp = 0; jp < n; jp += tile_n) {
            const std::size_t jend = std::min(n, jp + tile_n);
            const float *panel = packPanel(b, n, kp, kend, jp, jend);
            // C row i is A column i: a[kk*m + i].
            tileMicroKernel(
                [a, m](std::size_t row, std::size_t kk) {
                    return a[kk * m + row];
                },
                panel, c, r0, r1, n, kp, kend, jp, jend);
        }
    }
}

void
gemmTransposeBRows(const float *a, const float *b, float *c,
                   std::size_t r0, std::size_t r1, std::size_t k,
                   std::size_t n)
{
    // W dot products run in W lanes: pack the W B rows transposed
    // (panel[kk*W + l] = b[(j+l)*k + kk]) so each kk step is one
    // unit-stride load, broadcast a[i][kk], and accumulate — every
    // lane's dot still sums k-ascending in its own register, exactly
    // like the scalar four-wide blocking. Four A rows share each
    // panel load, so four independent chains hide the add latency.
    std::vector<float> &store = packBuffer();
    const std::size_t j_wide = (W > 1) ? n - n % W : 0;
    for (std::size_t j = 0; j < j_wide; j += W) {
        store.resize(k * W);
        float *panel = store.data();
        for (std::size_t l = 0; l < W; ++l) {
            const float *brow = b + (j + l) * k;
            for (std::size_t kk = 0; kk < k; ++kk)
                panel[kk * W + l] = brow[kk];
        }
        std::size_t i = r0;
        for (; i + 4 <= r1; i += 4) {
            const float *a0 = a + (i + 0) * k;
            const float *a1 = a + (i + 1) * k;
            const float *a2 = a + (i + 2) * k;
            const float *a3 = a + (i + 3) * k;
            s::VecF acc0 = s::zero();
            s::VecF acc1 = s::zero();
            s::VecF acc2 = s::zero();
            s::VecF acc3 = s::zero();
            for (std::size_t kk = 0; kk < k; ++kk) {
                const s::VecF bv = s::load(panel + kk * W);
                acc0 = s::mulAdd(s::broadcast(a0[kk]), bv, acc0);
                acc1 = s::mulAdd(s::broadcast(a1[kk]), bv, acc1);
                acc2 = s::mulAdd(s::broadcast(a2[kk]), bv, acc2);
                acc3 = s::mulAdd(s::broadcast(a3[kk]), bv, acc3);
            }
            s::store(c + (i + 0) * n + j, acc0);
            s::store(c + (i + 1) * n + j, acc1);
            s::store(c + (i + 2) * n + j, acc2);
            s::store(c + (i + 3) * n + j, acc3);
        }
        for (; i < r1; ++i) {
            const float *arow = a + i * k;
            s::VecF acc = s::zero();
            for (std::size_t kk = 0; kk < k; ++kk)
                acc = s::mulAdd(s::broadcast(arow[kk]),
                                s::load(panel + kk * W), acc);
            s::store(c + i * n + j, acc);
        }
    }
    for (std::size_t i = r0; i < r1; ++i) {
        const float *arow = a + i * k;
        float *crow = c + i * n;
        for (std::size_t j = j_wide; j < n; ++j) {
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

} // namespace buffalo::tensor::kernels::wide
