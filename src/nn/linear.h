/**
 * @file
 * Fully-connected layer with explicit forward caches so several
 * micro-batch forward/backward pairs can be in flight before one
 * optimizer step (gradient accumulation).
 */
#pragma once

#include "nn/parameter.h"
#include "util/rng.h"

namespace buffalo::nn {

/** y = x W + b, with Xavier-initialized W. */
class Linear : public Module
{
  public:
    /**
     * @param observer Allocation observer the weights live under
     *                 (typically the device allocator).
     */
    Linear(std::string name, std::size_t in_dim, std::size_t out_dim,
           util::Rng &rng, AllocationObserver *observer = nullptr);

    /** Activations cached for the backward pass. */
    struct Cache
    {
        Tensor input; ///< the forward input (shared storage)
    };

    /**
     * Forward pass; activations go under @p observer.
     * @param input n x in_dim.
     * @return n x out_dim.
     */
    Tensor forward(const Tensor &input, Cache &cache,
                   AllocationObserver *observer = nullptr) const;

    /**
     * Backward pass: accumulates dW, db and returns dInput, or an
     * empty tensor without computing it when @p input_grad is false.
     * @param grad_output n x out_dim.
     */
    Tensor backward(const Cache &cache, const Tensor &grad_output,
                    bool input_grad,
                    AllocationObserver *observer = nullptr);

    std::size_t inDim() const { return weight_.value().rows(); }
    std::size_t outDim() const { return weight_.value().cols(); }

    Parameter &weight() { return weight_; }
    Parameter &bias() { return bias_; }

    std::vector<Parameter *> parameters() override;

  private:
    Parameter weight_; ///< in_dim x out_dim
    Parameter bias_;   ///< 1 x out_dim
};

} // namespace buffalo::nn
