#include "graph/io.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "graph/coo.h"
#include "util/errors.h"

namespace buffalo::graph {

namespace {

constexpr char kMagic[4] = {'B', 'U', 'F', 'D'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void
writePod(std::ostream &out, const T &value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
T
readPod(std::istream &in)
{
    T value{};
    in.read(reinterpret_cast<char *>(&value), sizeof(T));
    checkArgument(static_cast<bool>(in),
                  "dataset bundle: truncated stream");
    return value;
}

void
writeString(std::ostream &out, const std::string &value)
{
    writePod<std::uint64_t>(out, value.size());
    out.write(value.data(), static_cast<std::streamsize>(value.size()));
}

std::string
readString(std::istream &in)
{
    const auto size = readPod<std::uint64_t>(in);
    checkArgument(size < (1u << 20),
                  "dataset bundle: implausible string length");
    std::string value(size, '\0');
    in.read(value.data(), static_cast<std::streamsize>(size));
    checkArgument(static_cast<bool>(in),
                  "dataset bundle: truncated string");
    return value;
}

template <typename T>
void
writeVector(std::ostream &out, const std::vector<T> &values)
{
    writePod<std::uint64_t>(out, values.size());
    out.write(reinterpret_cast<const char *>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(T)));
}

template <typename T>
std::vector<T>
readVector(std::istream &in)
{
    const auto size = readPod<std::uint64_t>(in);
    checkArgument(size < (1ull << 32),
                  "dataset bundle: implausible vector length");
    std::vector<T> values(size);
    in.read(reinterpret_cast<char *>(values.data()),
            static_cast<std::streamsize>(size * sizeof(T)));
    checkArgument(static_cast<bool>(in),
                  "dataset bundle: truncated vector");
    return values;
}

} // namespace

CsrGraph
readEdgeList(std::istream &in, bool symmetrize, NodeId num_nodes)
{
    std::vector<Edge> edges;
    NodeId max_id = 0;
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(in, line)) {
        ++line_number;
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        std::istringstream fields(line);
        long long src = -1, dst = -1;
        fields >> src >> dst;
        checkArgument(src >= 0 && dst >= 0 && fields,
                      "readEdgeList: malformed line " +
                          std::to_string(line_number) + ": '" + line +
                          "'");
        max_id = std::max({max_id, static_cast<NodeId>(src),
                           static_cast<NodeId>(dst)});
        edges.push_back({static_cast<NodeId>(src),
                         static_cast<NodeId>(dst)});
    }
    const NodeId n =
        num_nodes > 0 ? num_nodes : (edges.empty() ? 0 : max_id + 1);
    checkArgument(num_nodes == 0 || max_id < num_nodes,
                  "readEdgeList: edge id exceeds num_nodes");

    CooBuilder builder(n);
    builder.reserve(edges.size() * (symmetrize ? 2 : 1));
    for (const Edge &edge : edges) {
        if (symmetrize)
            builder.addUndirectedEdge(edge.src, edge.dst);
        else
            builder.addEdge(edge.src, edge.dst);
    }
    return builder.toCsr();
}

CsrGraph
readEdgeListFile(const std::string &path, bool symmetrize,
                 NodeId num_nodes)
{
    std::ifstream in(path);
    if (!in)
        throw NotFound("readEdgeListFile: cannot open '" + path + "'");
    return readEdgeList(in, symmetrize, num_nodes);
}

void
writeEdgeList(std::ostream &out, const CsrGraph &graph)
{
    out << "# buffalo edge list: " << graph.numNodes() << " nodes, "
        << graph.numEdges() << " directed edges\n";
    for (NodeId dst = 0; dst < graph.numNodes(); ++dst)
        for (NodeId src : graph.neighbors(dst))
            out << src << ' ' << dst << '\n';
}

void
writeEdgeListFile(const std::string &path, const CsrGraph &graph)
{
    std::ofstream out(path);
    if (!out)
        throw Error("writeEdgeListFile: cannot open '" + path + "'");
    writeEdgeList(out, graph);
}

void
saveDataset(std::ostream &out, const Dataset &dataset)
{
    out.write(kMagic, sizeof(kMagic));
    writePod(out, kVersion);

    const DatasetSpec &spec = dataset.spec();
    writePod<std::int32_t>(out, static_cast<std::int32_t>(spec.id));
    writeString(out, spec.name);
    writePod(out, spec.paper_nodes);
    writePod(out, spec.paper_edges);
    writePod(out, spec.paper_avg_degree);
    writePod(out, spec.paper_avg_coefficient);
    writePod<std::uint8_t>(out, spec.paper_power_law ? 1 : 0);
    writePod<std::int32_t>(out, spec.paper_feature_dim);
    writePod(out, spec.sim_nodes);
    writePod<std::int32_t>(out, spec.sim_feature_dim);
    writePod<std::int32_t>(out, spec.num_classes);
    writePod(out, spec.isolated_fraction);
    writePod(out, dataset.seed());

    writeVector(out, dataset.graph().offsets());
    writeVector(out, dataset.graph().targets());
    writeVector(out, dataset.labels());
    writeVector(out, dataset.trainNodes());
    checkArgument(static_cast<bool>(out),
                  "saveDataset: stream write failed");
}

void
saveDatasetFile(const std::string &path, const Dataset &dataset)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw Error("saveDatasetFile: cannot open '" + path + "'");
    saveDataset(out, dataset);
}

Dataset
loadDatasetBundle(std::istream &in)
{
    char magic[4];
    in.read(magic, sizeof(magic));
    checkArgument(static_cast<bool>(in) &&
                      std::equal(magic, magic + 4, kMagic),
                  "dataset bundle: bad magic");
    const auto version = readPod<std::uint32_t>(in);
    checkArgument(version == kVersion,
                  "dataset bundle: unsupported version");

    DatasetSpec spec;
    spec.id = static_cast<DatasetId>(readPod<std::int32_t>(in));
    spec.name = readString(in);
    spec.paper_nodes = readPod<std::uint64_t>(in);
    spec.paper_edges = readPod<std::uint64_t>(in);
    spec.paper_avg_degree = readPod<double>(in);
    spec.paper_avg_coefficient = readPod<double>(in);
    spec.paper_power_law = readPod<std::uint8_t>(in) != 0;
    spec.paper_feature_dim = readPod<std::int32_t>(in);
    spec.sim_nodes = readPod<NodeId>(in);
    spec.sim_feature_dim = readPod<std::int32_t>(in);
    spec.num_classes = readPod<std::int32_t>(in);
    spec.isolated_fraction = readPod<double>(in);
    const auto seed = readPod<std::uint64_t>(in);

    auto offsets = readVector<EdgeIndex>(in);
    auto targets = readVector<NodeId>(in);
    auto labels = readVector<std::int32_t>(in);
    auto train_nodes = readVector<NodeId>(in);

    CsrGraph graph(std::move(offsets), std::move(targets));
    Dataset dataset =
        makeDataset(spec.name, std::move(graph), std::move(labels),
                    spec.num_classes, spec.sim_feature_dim,
                    spec.paper_avg_coefficient, seed);
    // Restore the exact spec and train split (makeDataset derives
    // fresh defaults for both). The centroid table makeDataset built
    // depends only on the seed, classes and feature width, which the
    // restored spec keeps.
    dataset.spec_ = spec;
    dataset.seed_ = seed;
    dataset.train_nodes_ = std::move(train_nodes);
    return dataset;
}

Dataset
loadDatasetBundleFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw NotFound("loadDatasetBundleFile: cannot open '" + path +
                       "'");
    return loadDatasetBundle(in);
}

} // namespace buffalo::graph
