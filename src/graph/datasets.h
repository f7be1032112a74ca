/**
 * @file
 * Simulated dataset registry.
 *
 * The paper evaluates on Cora, Pubmed, Reddit, OGBN-arxiv, OGBN-products
 * and OGBN-papers (Table II). Those datasets (and the disk/GPU needed to
 * hold them) are unavailable offline, so each entry here is a synthetic
 * generator parameterised to match the published *shape*: degree
 * distribution family (power law or not), average degree, clustering
 * coefficient, and relative scale. Node counts are scaled down (the scale
 * factor is recorded and printed by every bench); feature dimensions are
 * reduced proportionally so CPU-only numeric training stays tractable.
 *
 * Labels are structure-correlated (seeded label propagation) and features
 * are drawn around per-class centroids, so models genuinely converge —
 * which the loss-parity experiments (Table IV, Fig. 17) require.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/types.h"

namespace buffalo::graph {

/** Identifiers for the six simulated datasets of Table II. */
enum class DatasetId { Cora, Pubmed, Reddit, Arxiv, Products, Papers };

/** All dataset ids in Table II order. */
const std::vector<DatasetId> &allDatasetIds();

/** Static description of a dataset: paper stats + simulation parameters. */
struct DatasetSpec
{
    DatasetId id;
    std::string name;

    // Published characteristics (Table II).
    std::uint64_t paper_nodes;
    std::uint64_t paper_edges;
    double paper_avg_degree;
    double paper_avg_coefficient;
    bool paper_power_law;
    int paper_feature_dim;

    // Simulation parameters.
    NodeId sim_nodes;
    int sim_feature_dim;
    int num_classes;
    /** Fraction of nodes left with zero in-edges (papers-sim only; this
     *  reproduces the zero-in-edge nodes that break Betty, Fig. 11). */
    double isolated_fraction;
};

/** Spec for @p id. */
const DatasetSpec &datasetSpec(DatasetId id);

/** Spec lookup by name (case-sensitive); throws NotFound if unknown. */
const DatasetSpec &datasetSpecByName(const std::string &name);

/** A fully materialized simulated dataset. */
class Dataset
{
  public:
    /** The spec this dataset was generated from. */
    const DatasetSpec &spec() const { return spec_; }

    /** Display name, e.g. "ogbn-arxiv-sim". */
    const std::string &name() const { return spec_.name; }

    /** Undirected graph in in-CSR orientation. */
    const CsrGraph &graph() const { return graph_; }

    /** Per-node class labels in [0, numClasses()). */
    const std::vector<std::int32_t> &labels() const { return labels_; }

    /** Number of node classes. */
    int numClasses() const { return spec_.num_classes; }

    /** Input feature width. */
    int featureDim() const { return spec_.sim_feature_dim; }

    /** sim_nodes / paper_nodes. */
    double scaleFactor() const;

    /**
     * Writes the features of @p node into @p out (size featureDim()).
     * Deterministic in (dataset seed, node): features are a per-class
     * centroid plus hash noise, generated on demand so no dataset-sized
     * feature matrix needs to stay resident. The centroids come from a
     * numClasses() x featureDim() table built once at construction.
     */
    void fillFeatures(NodeId node, std::span<float> out) const;

    /** Seed nodes used as training targets (a deterministic subset). */
    const NodeList &trainNodes() const { return train_nodes_; }

    /** The seed the generator ran with. */
    std::uint64_t seed() const { return seed_; }

  private:
    friend Dataset loadDataset(DatasetId, std::uint64_t, double);
    friend Dataset makeDataset(std::string, CsrGraph,
                               std::vector<std::int32_t>, int, int,
                               double, std::uint64_t);
    friend Dataset loadDatasetBundle(std::istream &);

    DatasetSpec spec_;
    CsrGraph graph_;
    std::vector<std::int32_t> labels_;
    NodeList train_nodes_;
    std::uint64_t seed_ = 0;
    /** numClasses() x featureDim() class centroids, built with the
     *  dataset and never written after (the prefetcher and the server
     *  read it from several threads). */
    std::vector<float> centroids_;
};

/**
 * Generates the simulated dataset @p id deterministically from @p seed.
 * @p scale multiplies the spec's sim node count (tests pass < 1 for
 * speed; pass > 1 to stress schedulers).
 */
Dataset loadDataset(DatasetId id, std::uint64_t seed = 42,
                    double scale = 1.0);

/**
 * Wraps a user-provided graph + labels as a Dataset so it can be fed
 * to the trainers. Features are generated deterministically around
 * per-class centroids (same scheme as the simulated datasets); train
 * nodes default to a seeded 10% sample.
 *
 * @param avg_clustering_coefficient The graph's average clustering
 *        coefficient (Buffalo's Eq. 1 parameter); pass a measured
 *        value from graph::sampledClusteringCoefficient.
 */
Dataset makeDataset(std::string name, CsrGraph graph,
                    std::vector<std::int32_t> labels, int num_classes,
                    int feature_dim,
                    double avg_clustering_coefficient,
                    std::uint64_t seed = 42);

} // namespace buffalo::graph
