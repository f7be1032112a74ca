/**
 * @file
 * A single-layer LSTM cell with explicit per-step caches for BPTT.
 *
 * The LSTM aggregator runs this cell across a node's neighbor sequence;
 * the per-step caches are what make the LSTM aggregator the most
 * memory-hungry configuration in the paper's Fig. 2.
 */
#pragma once

#include <utility>

#include "nn/parameter.h"
#include "util/rng.h"

namespace buffalo::nn {

/** LSTM cell: gates ordered (input, forget, cell, output). */
class LstmCell : public Module
{
  public:
    LstmCell(std::string name, std::size_t input_dim,
             std::size_t hidden_dim, util::Rng &rng,
             AllocationObserver *observer = nullptr);

    std::size_t inputDim() const { return wx_.value().rows(); }
    std::size_t hiddenDim() const { return wh_.value().rows(); }

    /** Everything the backward step needs, kept per timestep. */
    struct StepCache
    {
        Tensor x;      ///< step input, n x input_dim
        Tensor h_prev; ///< previous hidden, n x hidden_dim
        Tensor c_prev; ///< previous cell, n x hidden_dim
        Tensor i;      ///< input gate (post-sigmoid)
        Tensor f;      ///< forget gate (post-sigmoid)
        Tensor g;      ///< candidate (post-tanh)
        Tensor o;      ///< output gate (post-sigmoid)
        Tensor c;      ///< new cell state
        Tensor tanh_c; ///< tanh(c)

        /** Bytes of activation state this cache pins. */
        std::uint64_t bytes() const;
    };

    /** Gradients flowing out of one backward step (dx and dh_prev
     *  are empty when not asked for). */
    struct StepGrads
    {
        Tensor dx;
        Tensor dh_prev;
        Tensor dc_prev;
    };

    /**
     * One forward step over a batch of n sequences.
     * @return (h, c), both n x hidden_dim.
     */
    std::pair<Tensor, Tensor> step(const Tensor &x, const Tensor &h_prev,
                                   const Tensor &c_prev, StepCache &cache,
                                   AllocationObserver *observer =
                                       nullptr) const;

    /**
     * One backward step. @p dh and @p dc are the gradients w.r.t. this
     * step's h and c outputs (dc already includes any contribution from
     * the following step). Accumulates weight gradients; computes dx
     * only when @p want_dx and dh_prev only when @p want_dh_prev,
     * which leaves the weight gradients' bytes unchanged.
     */
    StepGrads stepBackward(const StepCache &cache, const Tensor &dh,
                           const Tensor &dc, bool want_dx,
                           bool want_dh_prev,
                           AllocationObserver *observer = nullptr);

    std::vector<Parameter *> parameters() override;

  private:
    Parameter wx_; ///< input_dim x 4*hidden
    Parameter wh_; ///< hidden x 4*hidden
    Parameter b_;  ///< 1 x 4*hidden
};

} // namespace buffalo::nn
