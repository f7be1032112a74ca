/**
 * @file
 * MicroBatchGenerator (paper Algorithm 3, line 11): materializes each
 * bucket group into an L-layer block chain using a pluggable block
 * generator — Buffalo's fast CSR-row generator by default.
 */
#pragma once

#include <memory>
#include <vector>

#include "core/grouping.h"
#include "sampling/block_generator.h"

namespace buffalo::core {

/** Builds micro-batches (block chains) from bucket groups. */
class MicroBatchGenerator
{
  public:
    /**
     * @param generator Strategy used to build blocks; null selects
     *        FastBlockGenerator.
     */
    explicit MicroBatchGenerator(
        std::unique_ptr<sampling::BlockGenerator> generator = nullptr);

    /** Generates one micro-batch per group, in group order. */
    std::vector<sampling::MicroBatch> generate(
        const SampledSubgraph &sg,
        const std::vector<BucketGroup> &groups,
        obs::PhaseTimes *times = nullptr) const;

    /** Generates the micro-batch of a single group. */
    sampling::MicroBatch generateOne(const SampledSubgraph &sg,
                                     const BucketGroup &group,
                                     obs::PhaseTimes *times =
                                         nullptr) const;

    /** The underlying block-generation strategy. */
    const sampling::BlockGenerator &blockGenerator() const
    {
        return *generator_;
    }

  private:
    std::unique_ptr<sampling::BlockGenerator> generator_;
};

} // namespace buffalo::core
