/**
 * @file
 * Betty baseline (Yang et al., ASPLOS'23) — the paper's main
 * comparison point.
 *
 * Betty partitions a batch at the output layer by (1) building a
 * redundancy-embedded graph (REG) over the output nodes, whose edge
 * weights count shared sampled neighbors, then (2) running METIS on the
 * REG so the partitioner minimizes cross-micro-batch redundancy. Both
 * steps are expensive — REG construction embeds node-dependency
 * information explicitly and METIS is multilevel — which is exactly the
 * overhead Buffalo's bucket-level scheduling removes (paper Figs. 5/11).
 *
 * Betty cannot process output nodes with zero in-edges (paper Fig. 11,
 * "no data" for OGBN-papers); partition() reproduces that by throwing
 * BettyUnsupported.
 */
#pragma once

#include <vector>

#include "obs/phase.h"
#include "partition/metis_like.h"
#include "sampling/sampled_subgraph.h"
#include "util/errors.h"

namespace buffalo::baselines {

using sampling::NodeList;
using sampling::SampledSubgraph;

/** Raised when Betty hits an input it cannot handle. */
class BettyUnsupported : public Error
{
  public:
    explicit BettyUnsupported(const std::string &what) : Error(what) {}
};

/** Betty's batch-level partitioner. */
class BettyPartitioner
{
  public:
    /**
     * @param metis_options Options for the underlying MetisLike run.
     * @param pair_cap For a sampled neighbor shared by s output nodes,
     *        at most pair_cap * s REG edges are materialized (bounds
     *        the quadratic pair enumeration on hub neighbors).
     */
    explicit BettyPartitioner(
        const partition::MetisLikeOptions &metis_options = {},
        int pair_cap = 8);

    /**
     * Splits the batch's output nodes into @p num_parts seed groups.
     * @param times Optional: receives the measured "REG construction"
     *        and "METIS partition" phases of Fig. 11.
     * @return one NodeList of subgraph-local seed ids per part (empty
     *         parts removed).
     * @throws BettyUnsupported if any seed has zero sampled in-edges.
     */
    std::vector<NodeList> partition(const SampledSubgraph &sg,
                                    int num_parts,
                                    obs::PhaseTimes *times = nullptr) const;

    /** Builds the REG (exposed for tests). */
    partition::WeightedGraph buildReg(const SampledSubgraph &sg) const;

  private:
    partition::MetisLikeOptions metis_options_;
    int pair_cap_;
};

} // namespace buffalo::baselines
