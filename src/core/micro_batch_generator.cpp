#include "core/micro_batch_generator.h"

namespace buffalo::core {

MicroBatchGenerator::MicroBatchGenerator(
    std::unique_ptr<sampling::BlockGenerator> generator)
    : generator_(std::move(generator))
{
    if (!generator_)
        generator_ = std::make_unique<sampling::FastBlockGenerator>();
}

sampling::MicroBatch
MicroBatchGenerator::generateOne(const SampledSubgraph &sg,
                                 const BucketGroup &group,
                                 obs::PhaseTimes *times) const
{
    return generator_->generate(sg, group.outputSeeds(), times);
}

std::vector<sampling::MicroBatch>
MicroBatchGenerator::generate(
    const SampledSubgraph &sg,
    const std::vector<BucketGroup> &groups,
    obs::PhaseTimes *times) const
{
    std::vector<sampling::MicroBatch> batches;
    batches.reserve(groups.size());
    for (const auto &group : groups)
        batches.push_back(generateOne(sg, group, times));
    return batches;
}

} // namespace buffalo::core
