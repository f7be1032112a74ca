/**
 * @file
 * Portable SIMD lane-group wrappers for the kernel layer (DESIGN.md,
 * "Compute kernels"). One vector type, `VecF`, backed by AVX2
 * (8 lanes), AArch64 NEON (4 lanes), or a plain scalar lane (width 1)
 * when the translation unit is built without a wide ISA. 32-bit ARM
 * NEON is left to the scalar lane: it lacks vdivq and flushes
 * subnormals to zero, so it could not match the scalar path.
 *
 * Determinism contract (the reason this wrapper exists instead of
 * compiler auto-vectorization): every lane performs exactly the
 * serial scalar operation sequence — an IEEE-754 single-precision
 * multiply followed by a separate add, never a fused multiply-add —
 * and lanes are only ever mapped to *independent* output elements.
 * Because no operation mixes lanes, results are bitwise identical at
 * any lane width, including width 1. The hot kernels (GEMM, the
 * elementwise ops, the fused aggregator chains) therefore need no
 * lane-reduction rules at all: each output element's contributions
 * accumulate k-ascending (t-ascending for aggregators) within its
 * own lane, exactly like the scalar reference.
 *
 * The one horizontal primitive, hsum(), reduces a lane group with a
 * *fixed pairwise tree* — (l0+l1)+(l2+l3)... halved repeatedly in
 * lane order — so any future kernel that does need a cross-lane
 * reduction has a single, width-documented order to standardize on.
 * No shipped kernel currently calls it on a hot path; it exists so
 * the reduction order is pinned by code (and tested) rather than
 * re-invented per call site.
 *
 * This header must only be included from translation units compiled
 * with the matching ISA flags (tensor/kernels_simd.cpp, which CMake
 * builds with -mavx2 -ffp-contract=off on x86-64 when BUFFALO_SIMD
 * is ON). Including it from differently-flagged TUs would create ODR
 * mismatches between inline definitions.
 */
#pragma once

#include <cstddef>

#if defined(BUFFALO_SIMD_ENABLED) && defined(__AVX2__)
#define BUFFALO_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(BUFFALO_SIMD_ENABLED) && defined(__ARM_NEON) &&          \
    defined(__aarch64__)
#define BUFFALO_SIMD_NEON 1
#include <arm_neon.h>
#endif

#include "tensor/transcendental.h"

namespace buffalo::tensor::simd {

#if defined(BUFFALO_SIMD_AVX2)

/** One 8-lane single-precision group (AVX2). */
struct VecF
{
    __m256 v;
    static constexpr std::size_t kWidth = 8;
};

inline const char *
isaName()
{
    return "avx2";
}

inline VecF
load(const float *p)
{
    return {_mm256_loadu_ps(p)};
}

inline void
store(float *p, VecF x)
{
    _mm256_storeu_ps(p, x.v);
}

inline VecF
broadcast(float x)
{
    return {_mm256_set1_ps(x)};
}

inline VecF
zero()
{
    return {_mm256_setzero_ps()};
}

inline VecF
add(VecF a, VecF b)
{
    return {_mm256_add_ps(a.v, b.v)};
}

inline VecF
sub(VecF a, VecF b)
{
    return {_mm256_sub_ps(a.v, b.v)};
}

inline VecF
mul(VecF a, VecF b)
{
    return {_mm256_mul_ps(a.v, b.v)};
}

inline VecF
max(VecF a, VecF b)
{
    return {_mm256_max_ps(a.v, b.v)};
}

/** Lane-wise `a < b ? a : b` (minps returns b on NaN, like the
 *  scalar ternary). */
inline VecF
min(VecF a, VecF b)
{
    return {_mm256_min_ps(a.v, b.v)};
}

/** IEEE division: correctly rounded, so every width agrees. */
inline VecF
div(VecF a, VecF b)
{
    return {_mm256_div_ps(a.v, b.v)};
}

/** Lane-wise `a < b ? x : y` (ordered: NaN selects y). */
inline VecF
selectLt(VecF a, VecF b, VecF x, VecF y)
{
    const __m256 mask = _mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ);
    return {_mm256_blendv_ps(y.v, x.v, mask)};
}

/** |x|: the sign bit cleared. */
inline VecF
abs(VecF x)
{
    const __m256 sign = _mm256_castsi256_ps(
        _mm256_set1_epi32(static_cast<int>(math::kSignBit)));
    return {_mm256_andnot_ps(sign, x.v)};
}

/** The magnitude of @p mag with the sign bit of @p sign. */
inline VecF
copySign(VecF mag, VecF sign)
{
    const __m256 bit = _mm256_castsi256_ps(
        _mm256_set1_epi32(static_cast<int>(math::kSignBit)));
    return {_mm256_or_ps(_mm256_andnot_ps(bit, mag.v),
                         _mm256_and_ps(bit, sign.v))};
}

/** 2^n for integer-valued n in [-126, 127] (see math::pow2i). */
inline VecF
pow2i(VecF n)
{
    const __m256 t = _mm256_add_ps(n.v, _mm256_set1_ps(math::kPow2Magic));
    return {_mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_castps_si256(t), 23))};
}

/**
 * acc + a*b as two separately-rounded IEEE operations (mul, then
 * add) — deliberately NOT _mm256_fmadd_ps, which rounds once and
 * would diverge from the scalar lane.
 */
inline VecF
mulAdd(VecF a, VecF b, VecF acc)
{
    return {_mm256_add_ps(acc.v, _mm256_mul_ps(a.v, b.v))};
}

/**
 * Lane-wise `c > 0 ? x : +0.0f` with exact scalar-ternary semantics:
 * an ordered compare, so NaN and -0.0 in c both select +0, matching
 * `std::max(0.0f, x)` / `pre > 0 ? g : 0` bit for bit.
 */
inline VecF
selectGtZero(VecF c, VecF x)
{
    const __m256 mask =
        _mm256_cmp_ps(c.v, _mm256_setzero_ps(), _CMP_GT_OQ);
    return {_mm256_and_ps(x.v, mask)};
}

#elif defined(BUFFALO_SIMD_NEON)

/** One 4-lane single-precision group (NEON). */
struct VecF
{
    float32x4_t v;
    static constexpr std::size_t kWidth = 4;
};

inline const char *
isaName()
{
    return "neon";
}

inline VecF
load(const float *p)
{
    return {vld1q_f32(p)};
}

inline void
store(float *p, VecF x)
{
    vst1q_f32(p, x.v);
}

inline VecF
broadcast(float x)
{
    return {vdupq_n_f32(x)};
}

inline VecF
zero()
{
    return {vdupq_n_f32(0.0f)};
}

inline VecF
add(VecF a, VecF b)
{
    return {vaddq_f32(a.v, b.v)};
}

inline VecF
sub(VecF a, VecF b)
{
    return {vsubq_f32(a.v, b.v)};
}

inline VecF
mul(VecF a, VecF b)
{
    return {vmulq_f32(a.v, b.v)};
}

inline VecF
max(VecF a, VecF b)
{
    return {vmaxq_f32(a.v, b.v)};
}

/** Lane-wise `a < b ? a : b`, by compare and select: vminq_f32
 *  would return NaN where the scalar ternary returns b. */
inline VecF
min(VecF a, VecF b)
{
    return {vbslq_f32(vcltq_f32(a.v, b.v), a.v, b.v)};
}

/** IEEE division (AArch64 vdivq): correctly rounded. */
inline VecF
div(VecF a, VecF b)
{
    return {vdivq_f32(a.v, b.v)};
}

/** Lane-wise `a < b ? x : y` (vcltq is false for NaN). */
inline VecF
selectLt(VecF a, VecF b, VecF x, VecF y)
{
    return {vbslq_f32(vcltq_f32(a.v, b.v), x.v, y.v)};
}

/** |x|: the sign bit cleared. */
inline VecF
abs(VecF x)
{
    return {vabsq_f32(x.v)};
}

/** The magnitude of @p mag with the sign bit of @p sign. */
inline VecF
copySign(VecF mag, VecF sign)
{
    return {vbslq_f32(vdupq_n_u32(math::kSignBit), sign.v, mag.v)};
}

/** 2^n for integer-valued n in [-126, 127] (see math::pow2i). */
inline VecF
pow2i(VecF n)
{
    const float32x4_t t = vaddq_f32(n.v, vdupq_n_f32(math::kPow2Magic));
    return {vreinterpretq_f32_u32(
        vshlq_n_u32(vreinterpretq_u32_f32(t), 23))};
}

/** Separate mul + add (not vfmaq): matches the scalar lane exactly. */
inline VecF
mulAdd(VecF a, VecF b, VecF acc)
{
    return {vaddq_f32(acc.v, vmulq_f32(a.v, b.v))};
}

/** Lane-wise `c > 0 ? x : +0.0f` (vcgtq is false for NaN, like the
 *  scalar ordered compare). */
inline VecF
selectGtZero(VecF c, VecF x)
{
    const uint32x4_t mask = vcgtq_f32(c.v, vdupq_n_f32(0.0f));
    return {vbslq_f32(mask, x.v, vdupq_n_f32(0.0f))};
}

#else

/** Scalar fallback lane: the wide kernels compile everywhere. */
struct VecF
{
    float v;
    static constexpr std::size_t kWidth = 1;
};

inline const char *
isaName()
{
    return "scalar";
}

inline VecF
load(const float *p)
{
    return {*p};
}

inline void
store(float *p, VecF x)
{
    *p = x.v;
}

inline VecF
broadcast(float x)
{
    return {x};
}

inline VecF
zero()
{
    return {0.0f};
}

inline VecF
add(VecF a, VecF b)
{
    return {a.v + b.v};
}

inline VecF
sub(VecF a, VecF b)
{
    return {a.v - b.v};
}

inline VecF
mul(VecF a, VecF b)
{
    return {a.v * b.v};
}

inline VecF
max(VecF a, VecF b)
{
    return {a.v > b.v ? a.v : b.v};
}

inline VecF
min(VecF a, VecF b)
{
    return {a.v < b.v ? a.v : b.v};
}

inline VecF
div(VecF a, VecF b)
{
    return {a.v / b.v};
}

inline VecF
selectLt(VecF a, VecF b, VecF x, VecF y)
{
    return {a.v < b.v ? x.v : y.v};
}

inline VecF
abs(VecF x)
{
    return {math::detail::fromBits(math::detail::bitsOf(x.v) &
                                   ~math::kSignBit)};
}

inline VecF
copySign(VecF mag, VecF sign)
{
    return {math::detail::fromBits(
        (math::detail::bitsOf(mag.v) & ~math::kSignBit) |
        (math::detail::bitsOf(sign.v) & math::kSignBit))};
}

inline VecF
pow2i(VecF n)
{
    return {math::pow2i(n.v)};
}

inline VecF
mulAdd(VecF a, VecF b, VecF acc)
{
    // Two expressions so -ffp-contract cannot fuse them into an FMA.
    const float product = a.v * b.v;
    return {acc.v + product};
}

/** `c > 0 ? x : +0.0f` — the scalar ternary itself. */
inline VecF
selectGtZero(VecF c, VecF x)
{
    return {c.v > 0.0f ? x.v : 0.0f};
}

#endif

/** Active lane-group width for this translation unit. */
inline constexpr std::size_t kWidth = VecF::kWidth;

/**
 * Horizontal sum with the pinned pairwise lane-reduction tree:
 * lanes are halved in order — (l0+l1)+(l2+l3) ... — so the result
 * is a pure function of the lane values, never of the ISA's own
 * shuffle idioms. Width 1 returns the lane unchanged.
 */
inline float
hsum(VecF x)
{
    float lanes[VecF::kWidth];
    store(lanes, x);
    std::size_t n = VecF::kWidth;
    while (n > 1) {
        n /= 2;
        for (std::size_t i = 0; i < n; ++i)
            lanes[i] = lanes[i] + lanes[i + n];
    }
    return lanes[0];
}

} // namespace buffalo::tensor::simd
