#include "pipeline/feature_cache.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/names.h"
#include "train/feature_loader.h"
#include "util/errors.h"

namespace buffalo::pipeline {

FeatureCache::FeatureCache(const FeatureCacheOptions &options)
    : options_(options)
{
    checkArgument(options_.feature_dim >= 0,
                  "FeatureCache: feature_dim must be >= 0");
    row_bytes_ = static_cast<std::uint64_t>(options_.feature_dim) *
                 sizeof(float);
    enabled_ = options_.capacity_bytes > 0 && row_bytes_ > 0 &&
               row_bytes_ <= options_.capacity_bytes;
    util::MutexLock lock(mutex_);
    policy_ = options_.policy != nullptr
                  ? options_.policy
                  : std::make_shared<DegreePolicy>();
}

std::shared_ptr<const CachePolicy>
FeatureCache::policy() const
{
    util::MutexLock lock(mutex_);
    return policy_;
}

void
FeatureCache::setPolicy(std::shared_ptr<const CachePolicy> policy)
{
    checkArgument(policy != nullptr,
                  "FeatureCache::setPolicy: policy must be non-null");
    util::MutexLock lock(mutex_);
    policy_ = std::move(policy);
}

std::uint64_t
FeatureCache::capacityRows() const
{
    return enabled_ ? options_.capacity_bytes / row_bytes_ : 0;
}

void
FeatureCache::pinHotSet(const graph::Dataset &dataset,
                        std::size_t max_pinned)
{
    if (!enabled_)
        return;
    // Resolve the pin budget: an explicit cap wins, otherwise the
    // policy may fill the whole capacity. The ranking itself runs
    // outside the lock — policies are immutable and may walk the
    // whole graph.
    const std::size_t budget = std::min<std::size_t>(
        max_pinned == 0 ? static_cast<std::size_t>(capacityRows())
                        : max_pinned,
        static_cast<std::size_t>(capacityRows()));
    if (budget == 0)
        return;
    const graph::NodeList order = policy()->pinSet(dataset, budget);

    std::vector<float> row;
    if (options_.store_payload)
        row.resize(static_cast<std::size_t>(options_.feature_dim));

    util::MutexLock lock(mutex_);
    for (const graph::NodeId node : order) {
        if (entries_.count(node) > 0)
            continue;
        evictUntilFitsLocked(row_bytes_);
        if (bytes_in_use_ + row_bytes_ > options_.capacity_bytes)
            break; // everything left is pinned
        Entry entry;
        entry.pinned = true;
        if (options_.store_payload) {
            dataset.fillFeatures(node, row);
            entry.row = row;
        }
        entries_.emplace(node, std::move(entry));
        bytes_in_use_ += row_bytes_;
        ++pinned_count_;
    }
}

bool
FeatureCache::lookup(graph::NodeId node, std::span<float> out)
{
    if (!enabled_)
        return false;
    util::MutexLock lock(mutex_);
    auto it = entries_.find(node);
    if (it == entries_.end()) {
        ++misses_;
        return false;
    }
    ++hits_;
    if (!it->second.pinned) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        it->second.lru_pos = lru_.begin();
    }
    if (options_.store_payload && !out.empty()) {
        checkArgument(out.size() == it->second.row.size(),
                      "FeatureCache::lookup: row width mismatch");
        std::copy(it->second.row.begin(), it->second.row.end(),
                  out.begin());
    }
    return true;
}

void
FeatureCache::insert(graph::NodeId node, std::span<const float> row)
{
    if (!enabled_)
        return;
    util::MutexLock lock(mutex_);
    if (entries_.count(node) > 0)
        return;
    evictUntilFitsLocked(row_bytes_);
    if (bytes_in_use_ + row_bytes_ > options_.capacity_bytes)
        return; // capacity fully pinned
    Entry entry;
    if (options_.store_payload) {
        checkArgument(row.size() ==
                          static_cast<std::size_t>(options_.feature_dim),
                      "FeatureCache::insert: row width mismatch");
        entry.row.assign(row.begin(), row.end());
    }
    lru_.push_front(node);
    entry.lru_pos = lru_.begin();
    entries_.emplace(node, std::move(entry));
    bytes_in_use_ += row_bytes_;
    ++insertions_;
}

void
FeatureCache::evictUntilFitsLocked(std::uint64_t needed_bytes)
{
    while (bytes_in_use_ + needed_bytes > options_.capacity_bytes &&
           !lru_.empty()) {
        const graph::NodeId victim = lru_.back();
        lru_.pop_back();
        entries_.erase(victim);
        bytes_in_use_ -= row_bytes_;
        ++evictions_;
    }
}

FeatureCacheStats
FeatureCache::stats() const
{
    util::MutexLock lock(mutex_);
    FeatureCacheStats s;
    s.policy = enabled_ ? policy_->name() : "";
    s.hits = hits_;
    s.misses = misses_;
    s.insertions = insertions_;
    s.evictions = evictions_;
    s.pinned_nodes = pinned_count_;
    s.resident_nodes = entries_.size();
    s.bytes_in_use = bytes_in_use_;
    s.capacity_bytes = options_.capacity_bytes;
    return s;
}

std::uint64_t
stageThroughCache(FeatureCache *cache, const graph::Dataset &dataset,
                  const graph::NodeList &nodes, tensor::Tensor *features)
{
    if (cache == nullptr) {
        if (features != nullptr)
            *features = train::loadFeatures(dataset, nodes);
        return 0;
    }
    if (features != nullptr)
        *features = tensor::Tensor::zeros(nodes.size(),
                                          dataset.featureDim(), nullptr);
    std::uint64_t served = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const std::span<float> row =
            features != nullptr ? features->row(i) : std::span<float>{};
        if (cache->lookup(nodes[i], row)) {
            ++served;
            continue;
        }
        if (features != nullptr)
            dataset.fillFeatures(nodes[i], row);
        cache->insert(nodes[i], row);
    }
    return served;
}

void
publishCacheGauges(const FeatureCacheStats &stats)
{
    obs::MetricsRegistry &m = obs::metrics();
    m.gauge(obs::names::kGaugeCacheHits)
        .set(static_cast<double>(stats.hits));
    m.gauge(obs::names::kGaugeCacheMisses)
        .set(static_cast<double>(stats.misses));
    m.gauge(obs::names::kGaugeCacheHitRate).set(stats.hitRate());
    m.gauge(obs::names::kGaugeCacheBytesInUse)
        .set(static_cast<double>(stats.bytes_in_use));
    m.gauge(obs::names::kGaugeCacheResidentNodes)
        .set(static_cast<double>(stats.resident_nodes));
    m.gauge(obs::names::kGaugeCachePinnedNodes)
        .set(static_cast<double>(stats.pinned_nodes));
}

} // namespace buffalo::pipeline
