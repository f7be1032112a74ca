#include "nn/linear.h"

#include "tensor/ops.h"
#include "util/errors.h"

namespace buffalo::nn {

Linear::Linear(std::string name, std::size_t in_dim, std::size_t out_dim,
               util::Rng &rng, AllocationObserver *observer)
    : weight_(name + ".weight", in_dim, out_dim, observer),
      bias_(name + ".bias", 1, out_dim, observer)
{
    tensor::fillXavier(weight_.value(), rng);
}

Tensor
Linear::forward(const Tensor &input, Cache &cache,
                AllocationObserver *observer) const
{
    checkArgument(input.cols() == inDim(),
                  "Linear::forward: input width mismatch");
    cache.input = input; // shares storage; no copy
    Tensor out = tensor::matmul(input, weight_.value(), observer);
    return tensor::addRowBroadcast(out, bias_.value(), observer);
}

Tensor
Linear::backward(const Cache &cache, const Tensor &grad_output,
                 bool input_grad, AllocationObserver *observer)
{
    checkArgument(grad_output.cols() == outDim(),
                  "Linear::backward: grad width mismatch");
    // dW = X^T * dY ; db = column-sum(dY) ; dX = dY * W^T.
    Tensor grad_w =
        tensor::matmulTransposeA(cache.input, grad_output, observer);
    weight_.accumulateGrad(grad_w);
    Tensor grad_b = tensor::columnSum(grad_output, observer);
    bias_.accumulateGrad(grad_b);
    if (!input_grad)
        return {};
    return tensor::matmulTransposeB(grad_output, weight_.value(),
                                    observer);
}

std::vector<Parameter *>
Linear::parameters()
{
    return {&weight_, &bias_};
}

} // namespace buffalo::nn
