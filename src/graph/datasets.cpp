#include "graph/datasets.h"

#include <algorithm>
#include <cmath>

#include "graph/coo.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "util/errors.h"
#include "util/logging.h"
#include "util/rng.h"

namespace buffalo::graph {

namespace {

const std::vector<DatasetSpec> &
specs()
{
    // Paper columns come from Table II; simulation parameters were chosen
    // so the generated graphs land near the published avg degree /
    // clustering coefficient / power-law verdicts (validated by
    // bench_table2_datasets and tests/graph/datasets_test).
    static const std::vector<DatasetSpec> table = {
        {DatasetId::Cora, "cora-sim",
         2'700, 10'000, 3.9, 0.24, false, 1433,
         /*sim_nodes=*/2'708, /*sim_feature_dim=*/128, /*classes=*/7,
         /*isolated=*/0.0},
        {DatasetId::Pubmed, "pubmed-sim",
         19'000, 88'000, 8.9, 0.06, false, 500,
         4'000, 96, 3, 0.0},
        {DatasetId::Reddit, "reddit-sim",
         200'000, 114'600'000, 492.0, 0.579, true, 602,
         8'000, 96, 41, 0.0},
        {DatasetId::Arxiv, "ogbn-arxiv-sim",
         160'000, 2'310'000, 13.7, 0.226, true, 128,
         16'000, 64, 40, 0.0},
        {DatasetId::Products, "ogbn-products-sim",
         2'450'000, 61'860'000, 50.5, 0.411, true, 100,
         24'000, 64, 47, 0.0},
        {DatasetId::Papers, "ogbn-papers-sim",
         111'100'000, 1'600'000'000, 29.1, 0.085, true, 128,
         60'000, 32, 172, 0.01},
    };
    return table;
}

/**
 * Generates the raw topology for one dataset at @p nodes nodes.
 * Generator family choices are documented per dataset in DESIGN.md.
 */
CsrGraph
generateTopology(DatasetId id, NodeId nodes, util::Rng &rng)
{
    switch (id) {
      case DatasetId::Cora:
        // Non-power-law citation core: small-world with moderate
        // clustering (paper coef 0.24, avg degree 3.9).
        return generateWattsStrogatz(nodes, 2, 0.35, rng);
      case DatasetId::Pubmed:
        // Non-power-law, low clustering (0.06): heavily rewired ring.
        return generateWattsStrogatz(nodes, 4, 0.75, rng);
      case DatasetId::Reddit:
        // Dense power-law community graph with very high clustering
        // (paper: avg deg 492 scaled to ~48, coef 0.579).
        return generateCommunityPowerLaw(nodes, 64, 0.60, 5, rng);
      case DatasetId::Arxiv:
        // Power-law citation graph, medium clustering (13.7 / 0.226).
        return generateCommunityPowerLaw(nodes, 24, 0.40, 3, rng);
      case DatasetId::Products:
        // Power-law co-purchase graph, high clustering (50.5 / 0.411).
        return generateCommunityPowerLaw(nodes, 80, 0.48, 6, rng);
      case DatasetId::Papers:
        // Billion-scale-shaped citation graph: preferential attachment
        // with sparse communities (29.1 / 0.085).
        return generateCommunityPowerLaw(nodes, 20, 0.16, 12, rng);
    }
    throw InvalidArgument("generateTopology: unknown dataset id");
}

/**
 * Appends @p isolated zero-degree nodes to @p graph. OGBN-papers contains
 * nodes with zero in-edges, which Betty cannot process (paper Fig. 11);
 * papers-sim reproduces them.
 */
CsrGraph
appendIsolatedNodes(const CsrGraph &graph, NodeId isolated)
{
    std::vector<EdgeIndex> offsets = graph.offsets();
    for (NodeId i = 0; i < isolated; ++i)
        offsets.push_back(offsets.back());
    std::vector<NodeId> targets = graph.targets();
    return CsrGraph(std::move(offsets), std::move(targets));
}

/** 64-bit mix for deterministic per-(seed, node, dim) noise. */
std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t x = a * 0x9E3779B97F4A7C15ULL + b;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/**
 * The class-centroid table: component (label, d) is deterministic in
 * (seed, label, d).
 */
std::vector<float>
centroidTable(std::uint64_t seed, int num_classes, int feature_dim)
{
    std::vector<float> table(static_cast<std::size_t>(num_classes) *
                             feature_dim);
    for (int label = 0; label < num_classes; ++label) {
        for (int d = 0; d < feature_dim; ++d) {
            const std::uint64_t ch =
                mix(seed ^ 0xC0FFEE,
                    (static_cast<std::uint64_t>(label) << 32) |
                        static_cast<std::uint64_t>(d));
            table[static_cast<std::size_t>(label) * feature_dim + d] =
                static_cast<float>(ch >> 40) / 16777216.0f - 0.5f;
        }
    }
    return table;
}

/**
 * Assigns structure-correlated labels: random seeding followed by a few
 * synchronous label-propagation rounds (majority over neighbors). This
 * yields homophilous labels like real citation/product graphs.
 */
std::vector<std::int32_t>
assignLabels(const CsrGraph &graph, int num_classes, util::Rng &rng)
{
    const NodeId n = graph.numNodes();
    std::vector<std::int32_t> labels(n);
    for (NodeId u = 0; u < n; ++u) {
        labels[u] =
            static_cast<std::int32_t>(rng.nextBounded(num_classes));
    }

    std::vector<std::int32_t> next(n);
    std::vector<std::uint32_t> votes(num_classes);
    for (int round = 0; round < 3; ++round) {
        for (NodeId u = 0; u < n; ++u) {
            auto nbrs = graph.neighbors(u);
            if (nbrs.empty()) {
                next[u] = labels[u];
                continue;
            }
            std::fill(votes.begin(), votes.end(), 0);
            for (NodeId v : nbrs)
                ++votes[labels[v]];
            // Own label gets a small incumbency bonus to damp flip-flop.
            votes[labels[u]] += 1;
            next[u] = static_cast<std::int32_t>(
                std::max_element(votes.begin(), votes.end()) -
                votes.begin());
        }
        labels.swap(next);
    }
    return labels;
}

} // namespace

const std::vector<DatasetId> &
allDatasetIds()
{
    static const std::vector<DatasetId> ids = {
        DatasetId::Cora,     DatasetId::Pubmed, DatasetId::Reddit,
        DatasetId::Arxiv,    DatasetId::Products,
        DatasetId::Papers,
    };
    return ids;
}

const DatasetSpec &
datasetSpec(DatasetId id)
{
    for (const auto &spec : specs())
        if (spec.id == id)
            return spec;
    throw NotFound("datasetSpec: unknown dataset id");
}

const DatasetSpec &
datasetSpecByName(const std::string &name)
{
    for (const auto &spec : specs())
        if (spec.name == name)
            return spec;
    throw NotFound("datasetSpecByName: no dataset named '" + name + "'");
}

double
Dataset::scaleFactor() const
{
    return static_cast<double>(graph_.numNodes()) /
           static_cast<double>(spec_.paper_nodes);
}

void
Dataset::fillFeatures(NodeId node, std::span<float> out) const
{
    checkArgument(node < graph_.numNodes(),
                  "Dataset::fillFeatures: node out of range");
    checkArgument(out.size() ==
                      static_cast<std::size_t>(spec_.sim_feature_dim),
                  "Dataset::fillFeatures: output span has wrong size");
    const float *centroid =
        centroids_.data() +
        static_cast<std::size_t>(labels_[node]) * out.size();
    for (std::size_t d = 0; d < out.size(); ++d) {
        // Node noise component: deterministic in (seed, node, dim).
        const std::uint64_t nh =
            mix(seed_ ^ 0xBADF00D,
                (static_cast<std::uint64_t>(node) << 24) ^ d);
        const float noise =
            static_cast<float>(nh >> 40) / 16777216.0f - 0.5f;
        out[d] = centroid[d] + 0.3f * noise;
    }
}

Dataset
loadDataset(DatasetId id, std::uint64_t seed, double scale)
{
    checkArgument(scale > 0.0, "loadDataset: scale must be positive");
    const DatasetSpec &spec = datasetSpec(id);

    Dataset dataset;
    dataset.spec_ = spec;
    dataset.seed_ = seed;

    util::Rng rng(seed ^ (static_cast<std::uint64_t>(id) << 48));
    const NodeId total = std::max<NodeId>(
        64, static_cast<NodeId>(spec.sim_nodes * scale));
    const NodeId isolated =
        static_cast<NodeId>(total * spec.isolated_fraction);
    const NodeId connected = total - isolated;

    CsrGraph graph = generateTopology(id, connected, rng);
    if (isolated > 0)
        graph = appendIsolatedNodes(graph, isolated);
    dataset.graph_ = std::move(graph);
    dataset.labels_ =
        assignLabels(dataset.graph_, spec.num_classes, rng);
    dataset.centroids_ =
        centroidTable(seed, spec.num_classes, spec.sim_feature_dim);

    // Training seeds: a deterministic 10% sample (at least 64 nodes).
    const NodeId n = dataset.graph_.numNodes();
    const NodeId train_count =
        std::min<NodeId>(n, std::max<NodeId>(64, n / 10));
    auto picks = rng.sampleWithoutReplacement(n, train_count);
    dataset.train_nodes_.assign(picks.begin(), picks.end());
    std::sort(dataset.train_nodes_.begin(), dataset.train_nodes_.end());

    BUFFALO_LOG_INFO("datasets")
        << "loaded " << spec.name << ": " << n << " nodes, "
        << dataset.graph_.numEdges() << " edges (scale factor "
        << dataset.scaleFactor() << ")";
    return dataset;
}

Dataset
makeDataset(std::string name, CsrGraph graph,
            std::vector<std::int32_t> labels, int num_classes,
            int feature_dim, double avg_clustering_coefficient,
            std::uint64_t seed)
{
    checkArgument(labels.size() == graph.numNodes(),
                  "makeDataset: one label per node required");
    checkArgument(num_classes >= 2, "makeDataset: need >= 2 classes");
    checkArgument(feature_dim >= 1,
                  "makeDataset: need >= 1 feature dim");
    for (auto label : labels)
        checkArgument(label >= 0 && label < num_classes,
                      "makeDataset: label out of range");

    Dataset dataset;
    dataset.spec_.id = static_cast<DatasetId>(-1);
    dataset.spec_.name = std::move(name);
    dataset.spec_.paper_nodes = graph.numNodes();
    dataset.spec_.paper_edges = graph.numEdges();
    dataset.spec_.paper_avg_degree = averageDegree(graph);
    dataset.spec_.paper_avg_coefficient =
        avg_clustering_coefficient;
    dataset.spec_.paper_power_law = false;
    dataset.spec_.paper_feature_dim = feature_dim;
    dataset.spec_.sim_nodes = graph.numNodes();
    dataset.spec_.sim_feature_dim = feature_dim;
    dataset.spec_.num_classes = num_classes;
    dataset.spec_.isolated_fraction = 0.0;
    dataset.seed_ = seed;
    dataset.graph_ = std::move(graph);
    dataset.labels_ = std::move(labels);
    dataset.centroids_ = centroidTable(seed, num_classes, feature_dim);

    util::Rng rng(seed ^ 0xCAFEBABE);
    const NodeId n = dataset.graph_.numNodes();
    const NodeId train_count =
        std::min<NodeId>(n, std::max<NodeId>(64, n / 10));
    auto picks = rng.sampleWithoutReplacement(n, train_count);
    dataset.train_nodes_.assign(picks.begin(), picks.end());
    std::sort(dataset.train_nodes_.begin(),
              dataset.train_nodes_.end());
    return dataset;
}

} // namespace buffalo::graph
