/**
 * @file
 * Internal interface between the kernel dispatch layer
 * (tensor/kernels.cpp) and the wide-ISA builds of
 * tensor/kernels_simd.cpp. CMake compiles that one body once per
 * lane type: on x86-64 with BUFFALO_SIMD ON an AVX2 object (-mavx2,
 * 8 lanes) and an AVX-512F object (-mavx512f, 16 lanes); elsewhere a
 * single NEON (4 lanes) or scalar-lane (1 lane) object. Each build
 * hands kernels.cpp a table of its row kernels, and kernels.cpp
 * resolves once which build the CPU runs, the widest first. Only
 * declarations live here, so the vector types themselves
 * (tensor/simd.h) never leak into baseline-flagged TUs.
 *
 * Every kernel in a table is a *row-range* kernel with the same
 * semantics and bitwise-identical results as its scalar counterpart
 * in kernels.cpp: lanes map only to independent output elements,
 * multiplies and adds round separately (no FMA), and per-element
 * accumulation order is unchanged. kernels.cpp dispatches to the
 * resolved table when KernelConfig::simd resolves active, and to its
 * scalar bodies otherwise; tests memcmp the paths at every width the
 * CPU runs.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace buffalo::tensor::kernels::wide {

/** The owned transcendentals of tensor/transcendental.h. */
enum class Transcendental { Exp, Tanh, Sigmoid };

/** One build of kernels_simd.cpp: its lane type and row kernels. */
struct Kernels
{
    /** "avx512", "avx2", "neon", or "scalar". */
    const char *isa;
    /** Lanes per VecF: 16, 8, 4, or 1. */
    std::size_t width;

    void (*gemmRows)(const float *a, const float *b, float *c,
                     std::size_t r0, std::size_t r1, std::size_t k,
                     std::size_t n, std::size_t tile_k,
                     std::size_t tile_n);
    void (*gemmTransposeARows)(const float *a, const float *b, float *c,
                               std::size_t r0, std::size_t r1,
                               std::size_t k, std::size_t m,
                               std::size_t n, std::size_t tile_k,
                               std::size_t tile_n);
    void (*gemmTransposeBRows)(const float *a, const float *b, float *c,
                               std::size_t r0, std::size_t r1,
                               std::size_t k, std::size_t n,
                               std::size_t tile_k, std::size_t tile_n);

    void (*ewAdd)(const float *a, const float *b, float *c,
                  std::size_t lo, std::size_t hi);
    void (*ewSubtract)(const float *a, const float *b, float *c,
                       std::size_t lo, std::size_t hi);
    void (*ewMultiply)(const float *a, const float *b, float *c,
                       std::size_t lo, std::size_t hi);
    void (*ewScale)(const float *a, float s, float *c, std::size_t lo,
                    std::size_t hi);
    void (*ewAddInPlace)(float *a, const float *b, std::size_t lo,
                         std::size_t hi);
    void (*ewScaleInPlace)(float *a, float s, std::size_t lo,
                           std::size_t hi);
    void (*ewRelu)(const float *a, float *c, std::size_t lo,
                   std::size_t hi);
    void (*ewReluBackward)(const float *grad, const float *pre,
                           float *c, std::size_t lo, std::size_t hi);
    void (*ewAddRowBroadcast)(const float *a, const float *bias,
                              float *c, std::size_t r0, std::size_t r1,
                              std::size_t n);
    void (*ewColumnSum)(const float *a, float *c, std::size_t rows,
                        std::size_t n, std::size_t c0, std::size_t c1);

    void (*fusedGatherSumScaleRows)(const float *x,
                                    const std::uint32_t *gather,
                                    const std::uint32_t *out_rows,
                                    std::size_t v0, std::size_t v1,
                                    std::size_t d, std::size_t dim,
                                    float norm, float *out);
    void (*fusedGatherScaledAddRows)(const float *x,
                                     const std::uint32_t *gather,
                                     const std::uint32_t *out_rows,
                                     std::size_t v0, std::size_t v1,
                                     std::size_t d, std::size_t dim,
                                     float norm, float *out);
    void (*fusedScatterScaledAddRows)(const float *grad,
                                      const std::uint32_t *out_rows,
                                      const std::uint32_t *gather,
                                      std::size_t n, std::size_t d,
                                      std::size_t dim, float norm,
                                      float *grad_x, std::size_t r0,
                                      std::size_t r1);

    /**
     * y[k] = fn(x[k]) for k in [0, n): the VecF form over whole lane
     * groups, the scalar form on the tail. No kernel calls it; tests
     * compare it bitwise against the scalar form.
     */
    void (*transcendentalRows)(Transcendental fn, const float *x,
                               float *y, std::size_t n);

    void (*fusedLstmForwardRows)(const float *zx, const float *zh,
                                 const float *bias, const float *c_prev,
                                 std::size_t r0, std::size_t r1,
                                 std::size_t h, float *i, float *f,
                                 float *g, float *o, float *c,
                                 float *tanh_c, float *h_out);
    void (*fusedLstmBackwardRows)(const float *dh, const float *dc_in,
                                  const float *i, const float *f,
                                  const float *g, const float *o,
                                  const float *c_prev,
                                  const float *tanh_c, std::size_t r0,
                                  std::size_t r1, std::size_t h,
                                  float *dz, float *dc_prev);
};

/*
 * Each build's table, in a namespace named after its ISA (the one
 * simd.h puts the build's VecF in). Only the builds CMake compiles
 * are defined: avx512 and avx2 on x86-64 with BUFFALO_SIMD ON, neon
 * on AArch64, scalar everywhere else.
 */
namespace avx512 {
const Kernels &table();
}
namespace avx2 {
const Kernels &table();
}
namespace neon {
const Kernels &table();
}
namespace scalar {
const Kernels &table();
}

/*
 * Test-only width selector, like Kernels::transcendentalRows: no
 * option, flag or KernelConfig field reaches it, so a run always
 * dispatches to the widest build the CPU runs.
 */

/** Lane widths of the builds this CPU runs, narrowest first: {8, 16}
 *  on an AVX-512 host, {1} in a BUFFALO_SIMD=OFF build, and empty
 *  on an x86-64 CPU without AVX2. */
std::vector<std::size_t> runnableWidths();

/** The build of lane width @p width; throws InvalidArgument unless
 *  @p width is in runnableWidths(). */
const Kernels &build(std::size_t width);

/** Routes the wide path to build(@p width), or back to the widest
 *  for 0. Like kernels::setConfig, call it only while no kernels run. */
void selectWidth(std::size_t width);

} // namespace buffalo::tensor::kernels::wide
