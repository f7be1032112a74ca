/**
 * @file
 * Block (MFG) generation strategies.
 *
 * FastBlockGenerator implements Buffalo's data-preparation optimization
 * (paper §IV-E): it reads pre-sampled neighbor rows straight from the
 * SampledSubgraph's CSR — one contiguous row access per destination —
 * and tracks neighbors in parallel at the node level.
 *
 * BaselineBlockGenerator reproduces the slow path Betty and stock
 * pipelines use (paper §III, "data preparation time is non-negligible"):
 * for every destination it rescans the *parent graph's full* neighbor
 * list and re-checks, edge by edge, which neighbors were selected by
 * sampling. The repeated connection checks make it O(parent_degree x
 * sampled_degree) per node instead of O(sampled_degree).
 */
#pragma once

#include <memory>
#include <string>

#include "obs/phase.h"
#include "sampling/block.h"
#include "sampling/sampled_subgraph.h"
#include "util/thread_pool.h"

namespace buffalo::sampling {

/** Phases charged by block generators (paper Fig. 11):
 *  obs::Phase::ConnectionCheck and obs::Phase::BlockConstruction. */
using obs::Phase;
using obs::phaseName;

/** Strategy interface for building a MicroBatch from an output set. */
class BlockGenerator
{
  public:
    virtual ~BlockGenerator() = default;

    /**
     * Builds the L-layer block chain for @p output_locals — local ids
     * of the subgraph's seed nodes this micro-batch owns. Ids must be
     * unique seeds (i.e. < sg.numSeeds()).
     *
     * @param times Optional: receives the measured "connection check"
     *        (neighbor tracking) and "block construction" (assembly)
     *        phase split of Fig. 11.
     */
    virtual MicroBatch generate(const SampledSubgraph &sg,
                                const NodeList &output_locals,
                                obs::PhaseTimes *times = nullptr)
        const = 0;

    /** Human-readable strategy name for reports. */
    virtual std::string name() const = 0;
};

/** Buffalo's CSR-row, node-parallel generator (paper §IV-E). */
class FastBlockGenerator : public BlockGenerator
{
  public:
    /**
     * Fan-out tuning for the parallel construction path. Grain only
     * moves work between workers — the produced blocks are
     * byte-identical for every setting (the chunk-ascending stitch
     * reproduces the serial first-seen order for any chunking).
     */
    struct Grain
    {
        /** Destination count below which generation stays serial
         *  (per-node work is a few loads, so small batches lose more
         *  to dispatch than they gain). */
        std::size_t parallel_dst_threshold = 4096;
        /** Minimum destinations per construction chunk (phases A/C). */
        std::size_t min_chunk = 2048;
        /** parallelFor grain of the degree/offset fill. */
        std::size_t degree_grain = 1024;
    };

    /**
     * @param pool Thread pool for node-level parallelism; null uses the
     *             process-global pool.
     */
    explicit FastBlockGenerator(util::ThreadPool *pool = nullptr);

    /** @param grain Fan-out tuning; all fields must be >= 1. */
    FastBlockGenerator(util::ThreadPool *pool, Grain grain);

    MicroBatch generate(const SampledSubgraph &sg,
                        const NodeList &output_locals,
                        obs::PhaseTimes *times = nullptr)
        const override;

    std::string name() const override { return "buffalo-fast"; }

  private:
    util::ThreadPool *pool_;
    Grain grain_;
};

/** Betty-style generator with repeated parent-graph connection checks. */
class BaselineBlockGenerator : public BlockGenerator
{
  public:
    MicroBatch generate(const SampledSubgraph &sg,
                        const NodeList &output_locals,
                        obs::PhaseTimes *times = nullptr)
        const override;

    std::string name() const override { return "baseline-recheck"; }
};

} // namespace buffalo::sampling
