/**
 * @file
 * Internal interface between the kernel dispatch layer
 * (tensor/kernels.cpp) and the wide-ISA translation unit
 * (tensor/kernels_simd.cpp). Only declarations live here: the
 * implementations are compiled with the target ISA flags (-mavx2 on
 * x86-64 when BUFFALO_SIMD is ON), so the vector types themselves
 * (tensor/simd.h) must never leak into baseline-flagged TUs — two
 * TUs including simd.h under different ISA flags would ODR-collide
 * on its inline definitions.
 *
 * Every function here is a *row-range* kernel with the same
 * semantics and bitwise-identical results as its scalar counterpart
 * in kernels.cpp: lanes map only to independent output elements,
 * multiplies and adds round separately (no FMA), and per-element
 * accumulation order is unchanged. kernels.cpp dispatches here when
 * KernelConfig::simd resolves active, and to its scalar bodies
 * otherwise; tests memcmp the two paths against each other.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace buffalo::tensor::kernels::wide {

/** True when this build carries a wide ISA the host CPU supports. */
bool available();

/** Lane-group width of the wide path (1 in scalar-only builds). */
std::size_t width();

/** "avx2", "neon", or "scalar". */
const char *isaName();

/** Fixed-tree horizontal sum over @p n floats (see simd.h hsum). */
float hsumTree(const float *lanes, std::size_t n);

void gemmRows(const float *a, const float *b, float *c,
              std::size_t r0, std::size_t r1, std::size_t k,
              std::size_t n, std::size_t tile_k, std::size_t tile_n);

void gemmTransposeARows(const float *a, const float *b, float *c,
                        std::size_t r0, std::size_t r1, std::size_t k,
                        std::size_t m, std::size_t n,
                        std::size_t tile_k, std::size_t tile_n);

void gemmTransposeBRows(const float *a, const float *b, float *c,
                        std::size_t r0, std::size_t r1, std::size_t k,
                        std::size_t n);

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
void ewColumnSum(const float *a, float *c, std::size_t rows,
                 std::size_t n, std::size_t c0, std::size_t c1);

void fusedGatherSumScaleRows(const float *x,
                             const std::uint32_t *gather,
                             const std::uint32_t *out_rows,
                             std::size_t v0, std::size_t v1,
                             std::size_t d, std::size_t dim,
                             float norm, float *out);
void fusedGatherScaledAddRows(const float *x,
                              const std::uint32_t *gather,
                              const std::uint32_t *out_rows,
                              std::size_t v0, std::size_t v1,
                              std::size_t d, std::size_t dim,
                              float norm, float *out);
void fusedScatterScaledAddRows(const float *grad,
                               const std::uint32_t *out_rows,
                               const std::uint32_t *gather,
                               std::size_t n, std::size_t d,
                               std::size_t dim, float norm,
                               float *grad_x, std::size_t r0,
                               std::size_t r1);

/** The owned transcendentals of tensor/transcendental.h. */
enum class Transcendental { Exp, Tanh, Sigmoid };

/**
 * y[k] = fn(x[k]) for k in [0, n): the VecF form over whole lane
 * groups, the scalar form on the tail. No kernel calls it; tests
 * compare it bitwise against the scalar form.
 */
void transcendentalRows(Transcendental fn, const float *x, float *y,
                        std::size_t n);

void fusedLstmForwardRows(const float *zx, const float *zh,
                          const float *bias, const float *c_prev,
                          std::size_t r0, std::size_t r1,
                          std::size_t h, float *i, float *f, float *g,
                          float *o, float *c, float *tanh_c,
                          float *h_out);

void fusedLstmBackwardRows(const float *dh, const float *dc_in,
                           const float *i, const float *f,
                           const float *g, const float *o,
                           const float *c_prev, const float *tanh_c,
                           std::size_t r0, std::size_t r1,
                           std::size_t h, float *dz, float *dc_prev);

} // namespace buffalo::tensor::kernels::wide
