#include "nn/lstm.h"

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/errors.h"

namespace buffalo::nn {

namespace kernels = buffalo::tensor::kernels;
namespace ops = buffalo::tensor;

LstmCell::LstmCell(std::string name, std::size_t input_dim,
                   std::size_t hidden_dim, util::Rng &rng,
                   AllocationObserver *observer)
    : wx_(name + ".wx", input_dim, 4 * hidden_dim, observer),
      wh_(name + ".wh", hidden_dim, 4 * hidden_dim, observer),
      b_(name + ".b", 1, 4 * hidden_dim, observer)
{
    ops::fillXavier(wx_.value(), rng);
    ops::fillXavier(wh_.value(), rng);
    // Forget-gate bias of 1.0 (standard trick for gradient flow).
    for (std::size_t j = hidden_dim; j < 2 * hidden_dim; ++j)
        b_.value().at(0, j) = 1.0f;
}

std::uint64_t
LstmCell::StepCache::bytes() const
{
    return x.bytes() + h_prev.bytes() + c_prev.bytes() + i.bytes() +
           f.bytes() + g.bytes() + o.bytes() + c.bytes() +
           tanh_c.bytes();
}

std::pair<Tensor, Tensor>
LstmCell::step(const Tensor &x, const Tensor &h_prev,
               const Tensor &c_prev, StepCache &cache,
               AllocationObserver *observer) const
{
    checkArgument(x.cols() == inputDim(),
                  "LstmCell::step: input width mismatch");
    const std::size_t n = x.rows();
    const std::size_t h = hiddenDim();

    // Two GEMMs, not one over [x | h_prev] * [Wx; Wh]: the gate
    // pre-activation is the sum of two separately rounded products.
    const Tensor zx = ops::matmul(x, wx_.value(), observer);
    const Tensor zh = ops::matmul(h_prev, wh_.value(), observer);

    cache.x = x;
    cache.h_prev = h_prev;
    cache.c_prev = c_prev;
    cache.i = Tensor::uninitialized(n, h, observer);
    cache.f = Tensor::uninitialized(n, h, observer);
    cache.g = Tensor::uninitialized(n, h, observer);
    cache.o = Tensor::uninitialized(n, h, observer);
    cache.c = Tensor::uninitialized(n, h, observer);
    cache.tanh_c = Tensor::uninitialized(n, h, observer);
    Tensor h_out = Tensor::uninitialized(n, h, observer);
    kernels::fusedLstmForward(zx.data(), zh.data(), b_.value().data(),
                              c_prev.data(), n, h, cache.i.data(),
                              cache.f.data(), cache.g.data(),
                              cache.o.data(), cache.c.data(),
                              cache.tanh_c.data(), h_out.data());
    return {std::move(h_out), cache.c};
}

LstmCell::StepGrads
LstmCell::stepBackward(const StepCache &cache, const Tensor &dh,
                       const Tensor &dc_in, bool want_dx,
                       bool want_dh_prev, AllocationObserver *observer)
{
    const std::size_t n = dh.rows();
    const std::size_t h = hiddenDim();

    // Gate pre-activation gradients in forward gate order (i, f, g, o).
    Tensor dz = Tensor::uninitialized(n, 4 * h, observer);
    Tensor dc_prev = Tensor::uninitialized(n, h, observer);
    kernels::fusedLstmBackward(
        dh.data(), dc_in.data(), cache.i.data(), cache.f.data(),
        cache.g.data(), cache.o.data(), cache.c_prev.data(),
        cache.tanh_c.data(), n, h, dz.data(), dc_prev.data());

    wx_.accumulateGrad(ops::matmulTransposeA(cache.x, dz, observer));
    wh_.accumulateGrad(
        ops::matmulTransposeA(cache.h_prev, dz, observer));
    b_.accumulateGrad(ops::columnSum(dz, observer));

    StepGrads grads;
    if (want_dx)
        grads.dx = ops::matmulTransposeB(dz, wx_.value(), observer);
    if (want_dh_prev)
        grads.dh_prev =
            ops::matmulTransposeB(dz, wh_.value(), observer);
    grads.dc_prev = std::move(dc_prev);
    return grads;
}

std::vector<Parameter *>
LstmCell::parameters()
{
    return {&wx_, &wh_, &b_};
}

} // namespace buffalo::nn
