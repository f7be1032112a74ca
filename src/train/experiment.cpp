#include "train/experiment.h"

#include <algorithm>

#include "nn/memory_model.h"
#include "util/errors.h"

namespace buffalo::train {

std::vector<EpochReport>
runTraining(TrainerBase &trainer, const graph::Dataset &dataset,
            int epochs, std::size_t batch_size, util::Rng &rng)
{
    std::vector<EpochReport> results;
    results.reserve(epochs);
    for (int epoch = 0; epoch < epochs; ++epoch)
        results.push_back(trainer.trainEpoch(dataset, batch_size, rng));
    return results;
}

MultiGpuStats
runBuffaloDataParallel(const graph::Dataset &dataset,
                       const TrainerOptions &options,
                       device::DeviceGroup &devices,
                       const NodeList &seeds, util::Rng &rng)
{
    checkArgument(options.mode == ExecutionMode::CostModel,
                  "runBuffaloDataParallel: cost-model execution only");
    MultiGpuStats result;

    // Schedule once against one device's budget (devices are uniform),
    // then deal the micro-batches round-robin.
    device::Device &lead = devices.device(0);
    BuffaloTrainer probe(options, lead);

    // Host side: sampling + scheduling + block generation run once.
    obs::PhaseTimes host_phases;
    sampling::NeighborSampler sampler(options.fanouts);
    sampling::SampledSubgraph sg = [&] {
        obs::PhaseScope scope(host_phases, Phase::Sampling);
        return sampler.sample(dataset.graph(), seeds, rng);
    }();

    core::BuffaloScheduler scheduler(
        probe.model().memoryModel(),
        dataset.spec().paper_avg_coefficient,
        probe.resolvedSchedulerOptions());
    core::ScheduleResult schedule = scheduler.schedule(sg);
    host_phases.addMeasured(Phase::Scheduling, schedule.schedule_seconds);

    core::MicroBatchGenerator generator;
    std::vector<sampling::MicroBatch> micro_batches =
        generator.generate(sg, schedule.groups, &host_phases);
    result.num_micro_batches =
        static_cast<int>(micro_batches.size());

    // Device side: per-device simulated compute + transfer.
    const nn::MemoryModel &mm = probe.model().memoryModel();
    std::vector<double> device_seconds(devices.size(), 0.0);
    for (std::size_t i = 0; i < micro_batches.size(); ++i) {
        const auto &mb = micro_batches[i];
        const int dev = static_cast<int>(i % devices.size());
        const auto &cm = devices.device(dev).costModel();
        device_seconds[dev] +=
            cm.transferSeconds(mm.transferBytes(mb)) +
            cm.kernelsSeconds(mm.microBatchFlops(mb),
                              kernelLaunchCount(mb));
    }

    result.host_seconds = host_phases.measuredSeconds();
    result.device_seconds = *std::max_element(device_seconds.begin(),
                                              device_seconds.end());
    result.allreduce_seconds =
        devices.allReduceSeconds(mm.weightBytes() / 2);
    result.iteration_seconds = result.host_seconds +
                               result.device_seconds +
                               result.allreduce_seconds;
    return result;
}

} // namespace buffalo::train
