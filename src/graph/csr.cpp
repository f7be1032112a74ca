#include "graph/csr.h"

#include <algorithm>

#include "util/errors.h"

namespace buffalo::graph {

CsrGraph::CsrGraph() : offsets_{0} {}

CsrGraph::CsrGraph(std::vector<EdgeIndex> offsets,
                   std::vector<NodeId> targets)
    : offsets_(std::move(offsets)), targets_(std::move(targets))
{
    checkArgument(!offsets_.empty() && offsets_.front() == 0,
                  "CsrGraph: offsets must start at 0");
    checkArgument(offsets_.back() == targets_.size(),
                  "CsrGraph: last offset must equal number of targets");
    // Branch-free reductions over every offset and edge (they
    // vectorize), then one check each.
    bool non_decreasing = true;
    for (std::size_t i = 1; i < offsets_.size(); ++i)
        non_decreasing &= offsets_[i - 1] <= offsets_[i];
    checkArgument(non_decreasing,
                  "CsrGraph: offsets must be non-decreasing");
    NodeId max_target = 0;
    for (NodeId target : targets_)
        max_target = std::max(max_target, target);
    checkArgument(targets_.empty() || max_target < numNodes(),
                  "CsrGraph: target id out of range");
    const NodeId *t = targets_.data();
    for (std::size_t row = 0; row + 1 < offsets_.size(); ++row) {
        bool sorted = true;
        for (EdgeIndex e = offsets_[row] + 1; e < offsets_[row + 1]; ++e)
            sorted &= t[e - 1] <= t[e];
        rows_sorted_ &= sorted;
    }
}

bool
CsrGraph::hasEdge(NodeId dst, NodeId src) const
{
    auto row = neighbors(dst);
    if (rows_sorted_)
        return std::binary_search(row.begin(), row.end(), src);
    return std::find(row.begin(), row.end(), src) != row.end();
}

CsrGraph
CsrGraph::reversed() const
{
    const NodeId n = numNodes();
    std::vector<EdgeIndex> rev_offsets(n + 1, 0);
    for (NodeId neighbor : targets_)
        ++rev_offsets[neighbor + 1];
    for (NodeId u = 0; u < n; ++u)
        rev_offsets[u + 1] += rev_offsets[u];

    std::vector<NodeId> rev_targets(targets_.size());
    std::vector<EdgeIndex> cursor(rev_offsets.begin(),
                                  rev_offsets.end() - 1);
    for (NodeId u = 0; u < n; ++u) {
        for (NodeId v : neighbors(u))
            rev_targets[cursor[v]++] = u;
    }
    return CsrGraph(std::move(rev_offsets), std::move(rev_targets));
}

std::vector<EdgeIndex>
CsrGraph::degreeVector() const
{
    const NodeId n = numNodes();
    std::vector<EdgeIndex> degrees(n);
    for (NodeId u = 0; u < n; ++u)
        degrees[u] = degree(u);
    return degrees;
}

EdgeIndex
CsrGraph::maxDegree() const
{
    EdgeIndex best = 0;
    const NodeId n = numNodes();
    for (NodeId u = 0; u < n; ++u)
        best = std::max(best, degree(u));
    return best;
}

NodeId
CsrGraph::countZeroDegreeNodes() const
{
    NodeId count = 0;
    const NodeId n = numNodes();
    for (NodeId u = 0; u < n; ++u)
        if (degree(u) == 0)
            ++count;
    return count;
}

std::uint64_t
CsrGraph::memoryBytes() const
{
    return offsets_.size() * sizeof(EdgeIndex) +
           targets_.size() * sizeof(NodeId);
}

} // namespace buffalo::graph
