/**
 * @file
 * FNV-1a digests of sampler and scheduler outputs.
 *
 * Golden-value tests hash every byte a later stage can observe — the
 * sampled node list and per-layer CSR, or a schedule's groups, member
 * lists and estimates — so that a performance change which must keep
 * its output byte-identical is checked against the digest the
 * unchanged code produced. Wall-clock fields are left out.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "core/scheduler.h"
#include "sampling/sampled_subgraph.h"

namespace buffalo::testing_digest {

/** Incremental 64-bit FNV-1a. */
class Fnv
{
  public:
    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001B3ULL;
        }
    }

    /** Hashes the object representation of a trivially copyable value. */
    template <typename T>
    void
    pod(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes(&value, sizeof(T));
    }

    /** Hashes the length, then the elements, of @p values. */
    template <typename T>
    void
    vec(const std::vector<T> &values)
    {
        pod(static_cast<std::uint64_t>(values.size()));
        if (!values.empty())
            bytes(values.data(), values.size() * sizeof(T));
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/** Node list, per-layer CSR offsets and targets, localId round trip. */
inline std::uint64_t
digest(const sampling::SampledSubgraph &sg)
{
    Fnv h;
    h.pod(sg.numSeeds());
    h.vec(sg.fanouts());
    h.vec(sg.nodes());
    for (int layer = 0; layer < sg.numLayers(); ++layer) {
        h.vec(sg.layerAdjacency(layer).offsets());
        h.vec(sg.layerAdjacency(layer).targets());
    }
    for (sampling::NodeId global : sg.nodes()) {
        h.pod(sg.localId(global));
        h.pod(sg.tryLocalId(global));
    }
    return h.value();
}

/** Groups, member buckets, Eq. 1 inputs and estimates; not the time. */
inline std::uint64_t
digest(const core::ScheduleResult &result)
{
    Fnv h;
    h.pod(result.num_groups);
    h.pod(result.single_group);
    h.pod(result.explosion_detected);
    h.pod(static_cast<std::uint64_t>(result.groups.size()));
    for (const core::BucketGroup &group : result.groups) {
        h.pod(group.est_bytes);
        h.pod(group.mean_grouping_ratio);
        h.pod(static_cast<std::uint64_t>(group.buckets.size()));
        for (const core::BucketMemInfo &info : group.buckets) {
            h.pod(info.bucket.degree);
            h.vec(info.bucket.members);
            h.pod(info.inputs);
            h.pod(info.outputs);
            h.pod(info.degree);
            h.pod(info.est_bytes);
        }
    }
    return h.value();
}

} // namespace buffalo::testing_digest
