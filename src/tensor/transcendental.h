/**
 * @file
 * Repo-owned single-precision exp, tanh and sigmoid (DESIGN.md,
 * "Compute kernels"): the scalar form, in plain C++ that any
 * translation unit may include. kernels_simd.cpp holds the VecF
 * form, which runs the same operation sequence lane by lane, so the
 * two agree bit for bit on every non-NaN input at any SIMD width.
 *
 * Why not libm: glibc's expf/tanhf are neither vectorizable here nor
 * pinned to one evaluation order, so a kernel that called them could
 * not run in VecF lanes and still match the scalar path bitwise.
 * Every multiply and add below rounds on its own (the build's
 * -ffp-contract=off forbids fused multiply-adds) and the divides
 * are IEEE, hence correctly rounded.
 *
 * exp: clamp to [-104, 89] (below, the result rounds to +0; above,
 * it overflows to +inf), then Cody-Waite reduction x = n*ln2 + r with
 * n rounded by the 1.5*2^23 magic number, a degree-6 minimax
 * polynomial for e^r on |r| <= 0.36, and 2^n applied as 2^n1 * 2^n2
 * so subnormal results and overflow round once, like libm.
 * tanh: on a = |x| < 0.625, a + a^3 * P(a^2) with P a degree-4
 * minimax polynomial; above, 1 - 2/(exp(2a) + 1); the sign of x is
 * then copied on, so tanh(-0) = -0. sigmoid(z) = 1/(1 + exp(-z)).
 * Against double-precision std::exp / std::tanh the error is at most
 * 1.04 / 1.35 ulp, and 2.5 ulp for sigmoid (kernels_test.cpp gates
 * 2 / 2 / 3 ulp).
 *
 * The functions have internal linkage: kernels_simd.cpp includes this
 * header under wide-ISA flags, and an inline definition shared across
 * translation units could hand that copy to a baseline-flagged caller.
 */
#pragma once

#include <cstdint>
#include <cstring>

namespace buffalo::tensor::math {

/** Inputs clamped to [kExpLo, kExpHi] before reduction. */
inline constexpr float kExpHi = 89.0f;
inline constexpr float kExpLo = -104.0f;
inline constexpr float kLog2e = 1.44269504f;
/** ln 2 split so n * kLn2Hi is exact for |n| <= 2^14. */
inline constexpr float kLn2Hi = 0.693359375f;
inline constexpr float kLn2Lo = -2.12194440e-4f;
/** (x + 1.5*2^23) - 1.5*2^23 rounds |x| < 2^22 to an integer. */
inline constexpr float kRoundMagic = 12582912.0f;
/** n + 1.5*2^23 + 127 carries the biased exponent of 2^n in its low
 *  mantissa bits. */
inline constexpr float kPow2Magic = 12583039.0f;
/** e^r ~ (q(r) r^2 + r) + 1, q(r) = c2 + c3 r + c4 r^2 + c5 r^3 +
 *  c6 r^4 (minimax on |r| <= 0.36). */
inline constexpr float kExpC2 = 0.499999977f;
inline constexpr float kExpC3 = 0.166665658f;
inline constexpr float kExpC4 = 0.0416679856f;
inline constexpr float kExpC5 = 0.00836517289f;
inline constexpr float kExpC6 = 0.00138167327f;
/** tanh(a) ~ a + (a z) P(z), z = a^2, P(z) = t0 + t1 z + t2 z^2 +
 *  t3 z^3 + t4 z^4 (minimax on a < 0.625). */
inline constexpr float kTanhSmall = 0.625f;
inline constexpr float kTanhT0 = -0.333333291f;
inline constexpr float kTanhT1 = 0.133327749f;
inline constexpr float kTanhT2 = -0.0538510305f;
inline constexpr float kTanhT3 = 0.0209955272f;
inline constexpr float kTanhT4 = -0.00609189404f;
inline constexpr std::uint32_t kSignBit = 0x80000000u;

namespace detail {

static inline std::uint32_t
bitsOf(float x)
{
    std::uint32_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    return bits;
}

static inline float
fromBits(std::uint32_t bits)
{
    float x;
    std::memcpy(&x, &bits, sizeof x);
    return x;
}

} // namespace detail

/** 2^n for an integer-valued n in [-126, 127]: the low mantissa bits
 *  of n + kPow2Magic shifted into the exponent field. */
static inline float
pow2i(float n)
{
    return detail::fromBits(detail::bitsOf(n + kPow2Magic) << 23);
}

static inline float
exp(float x)
{
    // The bound is the first operand, so a NaN x passes through.
    x = kExpHi < x ? kExpHi : x;
    x = kExpLo > x ? kExpLo : x;
    const float n = (x * kLog2e + kRoundMagic) - kRoundMagic;
    const float r = (x - n * kLn2Hi) - n * kLn2Lo;
    float q = kExpC6;
    q = q * r + kExpC5;
    q = q * r + kExpC4;
    q = q * r + kExpC3;
    q = q * r + kExpC2;
    const float p = (q * (r * r) + r) + 1.0f;
    const float n1 = (n * 0.5f + kRoundMagic) - kRoundMagic;
    return (p * pow2i(n1)) * pow2i(n - n1);
}

static inline float
tanh(float x)
{
    const float a = detail::fromBits(detail::bitsOf(x) & ~kSignBit);
    float y;
    if (a < kTanhSmall) {
        const float z = a * a;
        float p = kTanhT4;
        p = p * z + kTanhT3;
        p = p * z + kTanhT2;
        p = p * z + kTanhT1;
        p = p * z + kTanhT0;
        y = a + (a * z) * p;
    } else {
        y = 1.0f - 2.0f / (exp(2.0f * a) + 1.0f);
    }
    return detail::fromBits((detail::bitsOf(y) & ~kSignBit) |
                            (detail::bitsOf(x) & kSignBit));
}

static inline float
sigmoid(float z)
{
    return 1.0f / (1.0f + exp(-z));
}

} // namespace buffalo::tensor::math
