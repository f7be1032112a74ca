/**
 * @file
 * Experiment drivers shared by the bench binaries and examples:
 * epoch-level convergence runs (Fig. 17, Table IV) and simulated
 * data-parallel multi-GPU training (paper §V-G).
 */
#pragma once

#include <functional>
#include <vector>

#include "train/trainer.h"

namespace buffalo::train {

/**
 * Trains @p trainer for @p epochs over the dataset's train nodes via
 * TrainerBase::trainEpoch (so a PipelineTrainer runs pipelined and
 * the TrainerOptions::epoch_observer fires each epoch).
 * @return per-epoch reports, in order.
 */
std::vector<EpochReport> runTraining(TrainerBase &trainer,
                                     const graph::Dataset &dataset,
                                     int epochs, std::size_t batch_size,
                                     util::Rng &rng);

/** Result of one simulated data-parallel iteration (paper §V-G). */
struct MultiGpuStats
{
    /** End-to-end seconds on both clocks: measured host phases +
     *  modeled slowest device + modeled all-reduce. */
    double iteration_seconds = 0.0;
    /** Measured host share (sampling, scheduling, block generation). */
    double host_seconds = 0.0;
    /** Modeled max over devices of their compute+transfer time. */
    double device_seconds = 0.0;
    /** Modeled gradient all-reduce seconds. */
    double allreduce_seconds = 0.0;
    int num_micro_batches = 0;
};

/**
 * One Buffalo iteration executed data-parallel across @p devices:
 * micro-batches are scheduled once against the per-device budget, dealt
 * round-robin to the devices, and gradients all-reduced once.
 * Cost-model execution only.
 */
MultiGpuStats runBuffaloDataParallel(const graph::Dataset &dataset,
                                     const TrainerOptions &options,
                                     device::DeviceGroup &devices,
                                     const NodeList &seeds,
                                     util::Rng &rng);

} // namespace buffalo::train
