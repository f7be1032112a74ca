#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/kernels.h"
#include "tensor/transcendental.h"
#include "util/errors.h"

namespace buffalo::tensor {

namespace {

using kernels::OpClass;
using kernels::OpTimer;

void
checkSameShape(const Tensor &a, const Tensor &b, const char *op)
{
    checkArgument(a.rows() == b.rows() && a.cols() == b.cols(),
                  std::string(op) + ": shape mismatch");
}

} // namespace

Tensor
matmul(const Tensor &a, const Tensor &b, AllocationObserver *observer)
{
    checkArgument(a.cols() == b.rows(), "matmul: inner dims must match");
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    Tensor c = Tensor::uninitialized(m, n, observer);
    OpTimer timer(OpClass::Gemm,
                  (m * k + k * n + m * n) * sizeof(float),
                  2ull * m * n * k);
    kernels::parallelRows(m, m * n * k,
                          [&](std::size_t r0, std::size_t r1) {
                              kernels::gemmRows(a.data(), b.data(),
                                                c.data(), r0, r1, k, n);
                          });
    return c;
}

Tensor
matmulTransposeA(const Tensor &a, const Tensor &b,
                 AllocationObserver *observer)
{
    checkArgument(a.rows() == b.rows(),
                  "matmulTransposeA: row counts must match");
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    Tensor c = Tensor::uninitialized(m, n, observer);
    OpTimer timer(OpClass::Gemm,
                  (m * k + k * n + m * n) * sizeof(float),
                  2ull * m * n * k);
    kernels::parallelRows(
        m, m * n * k, [&](std::size_t r0, std::size_t r1) {
            kernels::gemmTransposeARows(a.data(), b.data(), c.data(),
                                        r0, r1, k, m, n);
        });
    return c;
}

Tensor
matmulTransposeB(const Tensor &a, const Tensor &b,
                 AllocationObserver *observer)
{
    checkArgument(a.cols() == b.cols(),
                  "matmulTransposeB: col counts must match");
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    Tensor c = Tensor::uninitialized(m, n, observer);
    OpTimer timer(OpClass::Gemm,
                  (m * k + k * n + m * n) * sizeof(float),
                  2ull * m * n * k);
    kernels::parallelRows(
        m, m * n * k, [&](std::size_t r0, std::size_t r1) {
            kernels::gemmTransposeBRows(a.data(), b.data(), c.data(),
                                        r0, r1, k, n);
        });
    return c;
}

Tensor
add(const Tensor &a, const Tensor &b, AllocationObserver *observer)
{
    checkSameShape(a, b, "add");
    Tensor c = Tensor::uninitialized(a.rows(), a.cols(), observer);
    OpTimer timer(OpClass::Elementwise, 3 * a.bytes());
    const float *pa = a.data(), *pb = b.data();
    float *pc = c.data();
    kernels::parallelRows(a.size(), a.size(),
                          [&](std::size_t lo, std::size_t hi) {
                              kernels::ewAdd(pa, pb, pc, lo, hi);
                          });
    return c;
}

Tensor
subtract(const Tensor &a, const Tensor &b, AllocationObserver *observer)
{
    checkSameShape(a, b, "subtract");
    Tensor c = Tensor::uninitialized(a.rows(), a.cols(), observer);
    OpTimer timer(OpClass::Elementwise, 3 * a.bytes());
    const float *pa = a.data(), *pb = b.data();
    float *pc = c.data();
    kernels::parallelRows(a.size(), a.size(),
                          [&](std::size_t lo, std::size_t hi) {
                              kernels::ewSubtract(pa, pb, pc, lo, hi);
                          });
    return c;
}

Tensor
multiply(const Tensor &a, const Tensor &b, AllocationObserver *observer)
{
    checkSameShape(a, b, "multiply");
    Tensor c = Tensor::uninitialized(a.rows(), a.cols(), observer);
    OpTimer timer(OpClass::Elementwise, 3 * a.bytes());
    const float *pa = a.data(), *pb = b.data();
    float *pc = c.data();
    kernels::parallelRows(a.size(), a.size(),
                          [&](std::size_t lo, std::size_t hi) {
                              kernels::ewMultiply(pa, pb, pc, lo, hi);
                          });
    return c;
}

Tensor
scale(const Tensor &a, float s, AllocationObserver *observer)
{
    Tensor c = Tensor::uninitialized(a.rows(), a.cols(), observer);
    OpTimer timer(OpClass::Elementwise, 2 * a.bytes());
    const float *pa = a.data();
    float *pc = c.data();
    kernels::parallelRows(a.size(), a.size(),
                          [&](std::size_t lo, std::size_t hi) {
                              kernels::ewScale(pa, s, pc, lo, hi);
                          });
    return c;
}

void
addInPlace(Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "addInPlace");
    OpTimer timer(OpClass::Elementwise, 3 * a.bytes());
    float *pa = a.data();
    const float *pb = b.data();
    kernels::parallelRows(a.size(), a.size(),
                          [&](std::size_t lo, std::size_t hi) {
                              kernels::ewAddInPlace(pa, pb, lo, hi);
                          });
}

void
scaleInPlace(Tensor &a, float s)
{
    OpTimer timer(OpClass::Elementwise, 2 * a.bytes());
    float *pa = a.data();
    kernels::parallelRows(a.size(), a.size(),
                          [&](std::size_t lo, std::size_t hi) {
                              kernels::ewScaleInPlace(pa, s, lo, hi);
                          });
}

void
fill(Tensor &a, float value)
{
    std::fill(a.data(), a.data() + a.size(), value);
}

Tensor
addRowBroadcast(const Tensor &a, const Tensor &bias,
                AllocationObserver *observer)
{
    checkArgument(bias.rows() == 1 && bias.cols() == a.cols(),
                  "addRowBroadcast: bias must be 1 x cols");
    const std::size_t n = a.cols();
    Tensor c = Tensor::uninitialized(a.rows(), n, observer);
    OpTimer timer(OpClass::Elementwise, 2 * a.bytes() + bias.bytes());
    const float *pa = a.data(), *pbias = bias.data();
    float *pc = c.data();
    kernels::parallelRows(
        a.rows(), a.size(), [&](std::size_t r0, std::size_t r1) {
            kernels::ewAddRowBroadcast(pa, pbias, pc, r0, r1, n);
        });
    return c;
}

Tensor
columnSum(const Tensor &a, AllocationObserver *observer)
{
    const std::size_t rows = a.rows(), n = a.cols();
    Tensor c = Tensor::uninitialized(1, n, observer);
    OpTimer timer(OpClass::Elementwise, a.bytes() + c.bytes());
    const float *pa = a.data();
    float *pc = c.data();
    // Parallel over disjoint column ranges; each column accumulates
    // row-ascending exactly like the serial i-j loop.
    kernels::parallelRows(
        n, a.size(), [&](std::size_t c0, std::size_t c1) {
            kernels::ewColumnSum(pa, pc, rows, n, c0, c1);
        });
    return c;
}

Tensor
relu(const Tensor &a, AllocationObserver *observer)
{
    Tensor c = Tensor::uninitialized(a.rows(), a.cols(), observer);
    OpTimer timer(OpClass::Elementwise, 2 * a.bytes());
    const float *pa = a.data();
    float *pc = c.data();
    kernels::parallelRows(
        a.size(), a.size(), [&](std::size_t lo, std::size_t hi) {
            kernels::ewRelu(pa, pc, lo, hi);
        });
    return c;
}

Tensor
reluBackward(const Tensor &grad, const Tensor &pre_activation,
             AllocationObserver *observer)
{
    checkSameShape(grad, pre_activation, "reluBackward");
    Tensor c = Tensor::uninitialized(grad.rows(), grad.cols(), observer);
    OpTimer timer(OpClass::Elementwise, 3 * grad.bytes());
    const float *pg = grad.data(), *pp = pre_activation.data();
    float *pc = c.data();
    kernels::parallelRows(
        grad.size(), grad.size(), [&](std::size_t lo, std::size_t hi) {
            kernels::ewReluBackward(pg, pp, pc, lo, hi);
        });
    return c;
}

Tensor
sigmoid(const Tensor &a, AllocationObserver *observer)
{
    Tensor c = Tensor::uninitialized(a.rows(), a.cols(), observer);
    OpTimer timer(OpClass::Elementwise, 2 * a.bytes());
    const float *pa = a.data();
    float *pc = c.data();
    // Transcendental cost per element is ~20 flops; weight the work
    // estimate accordingly so mid-sized activations still fan out.
    kernels::parallelRows(
        a.size(), 20 * a.size(), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                pc[i] = math::sigmoid(pa[i]);
        });
    return c;
}

Tensor
tanh(const Tensor &a, AllocationObserver *observer)
{
    Tensor c = Tensor::uninitialized(a.rows(), a.cols(), observer);
    OpTimer timer(OpClass::Elementwise, 2 * a.bytes());
    const float *pa = a.data();
    float *pc = c.data();
    kernels::parallelRows(
        a.size(), 20 * a.size(), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                pc[i] = math::tanh(pa[i]);
        });
    return c;
}

Tensor
concatColumns(const Tensor &a, const Tensor &b,
              AllocationObserver *observer)
{
    checkArgument(a.rows() == b.rows(),
                  "concatColumns: row counts must match");
    Tensor c =
        Tensor::uninitialized(a.rows(), a.cols() + b.cols(), observer);
    OpTimer timer(OpClass::Gather, a.bytes() + b.bytes() + c.bytes());
    kernels::parallelRows(
        a.rows(), c.size(), [&](std::size_t r0, std::size_t r1) {
            for (std::size_t i = r0; i < r1; ++i) {
                std::memcpy(c.data() + i * c.cols(),
                            a.data() + i * a.cols(),
                            a.cols() * sizeof(float));
                std::memcpy(c.data() + i * c.cols() + a.cols(),
                            b.data() + i * b.cols(),
                            b.cols() * sizeof(float));
            }
        });
    return c;
}

Tensor
sliceColumns(const Tensor &a, std::size_t begin, std::size_t end,
             AllocationObserver *observer)
{
    checkArgument(begin <= end && end <= a.cols(),
                  "sliceColumns: invalid column range");
    Tensor c = Tensor::uninitialized(a.rows(), end - begin, observer);
    OpTimer timer(OpClass::Gather, 2 * c.bytes());
    kernels::parallelRows(
        a.rows(), c.size(), [&](std::size_t r0, std::size_t r1) {
            for (std::size_t i = r0; i < r1; ++i)
                std::memcpy(c.data() + i * c.cols(),
                            a.data() + i * a.cols() + begin,
                            c.cols() * sizeof(float));
        });
    return c;
}

Tensor
gatherRows(const Tensor &a, const std::vector<std::uint32_t> &indices,
           AllocationObserver *observer)
{
    for (std::size_t i = 0; i < indices.size(); ++i)
        checkArgument(indices[i] < a.rows(),
                      "gatherRows: index out of range");
    Tensor c = Tensor::uninitialized(indices.size(), a.cols(), observer);
    OpTimer timer(OpClass::Gather, 2 * c.bytes());
    kernels::parallelRows(
        indices.size(), c.size(), [&](std::size_t r0, std::size_t r1) {
            for (std::size_t i = r0; i < r1; ++i)
                std::memcpy(c.data() + i * c.cols(),
                            a.data() + indices[i] * a.cols(),
                            a.cols() * sizeof(float));
        });
    return c;
}

void
scatterAddRows(Tensor &out, const Tensor &a,
               const std::vector<std::uint32_t> &indices)
{
    checkArgument(indices.size() == a.rows(),
                  "scatterAddRows: need one index per input row");
    checkArgument(out.cols() == a.cols(),
                  "scatterAddRows: column counts must match");
    for (std::size_t i = 0; i < indices.size(); ++i)
        checkArgument(indices[i] < out.rows(),
                      "scatterAddRows: index out of range");
    OpTimer timer(OpClass::Gather, 3 * a.bytes());
    const std::size_t cols = a.cols();
    // Owner-partitioned over *output* rows: every task scans the whole
    // index list but only touches rows it owns, so duplicate indices
    // accumulate input-ascending exactly like the serial loop — for
    // any thread count.
    kernels::parallelRows(
        out.rows(), a.size() + indices.size(),
        [&](std::size_t r0, std::size_t r1) {
            for (std::size_t i = 0; i < indices.size(); ++i) {
                const std::size_t row = indices[i];
                if (row < r0 || row >= r1)
                    continue;
                float *dst = out.data() + row * cols;
                const float *src = a.data() + i * cols;
                for (std::size_t j = 0; j < cols; ++j)
                    dst[j] += src[j];
            }
        });
}

void
fillUniform(Tensor &a, float range, util::Rng &rng)
{
    for (std::size_t i = 0; i < a.size(); ++i)
        a.data()[i] =
            static_cast<float>((rng.nextDouble() * 2.0 - 1.0) * range);
}

void
fillXavier(Tensor &a, util::Rng &rng)
{
    const double fan_in = static_cast<double>(a.rows());
    const double fan_out = static_cast<double>(a.cols());
    const float range =
        static_cast<float>(std::sqrt(6.0 / (fan_in + fan_out)));
    fillUniform(a, range, rng);
}

double
sum(const Tensor &a)
{
    double total = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        total += a.data()[i];
    return total;
}

double
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "maxAbsDiff");
    double best = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        best = std::max(
            best, std::abs(static_cast<double>(a.data()[i]) -
                           static_cast<double>(b.data()[i])));
    return best;
}

double
frobeniusNorm(const Tensor &a)
{
    double total = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        total += static_cast<double>(a.data()[i]) *
                 static_cast<double>(a.data()[i]);
    return std::sqrt(total);
}

} // namespace buffalo::tensor
