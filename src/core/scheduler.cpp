#include "core/scheduler.h"

#include <algorithm>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/names.h"
#include "util/errors.h"
#include "util/logging.h"
#include "util/timer.h"

namespace buffalo::core {

namespace {

/** Rounds of the generalized split before pieces are kept as is. */
constexpr int kMaxSplitRounds = 8;

/**
 * Generalized split (extension beyond Algorithm 3, see DESIGN.md): any
 * item whose standalone estimate exceeds @p budget is atomic and would
 * make every K fail, so it is split into just enough micro-buckets to
 * fit, re-split for up to kMaxSplitRounds rounds, and its pieces take
 * its place in the item list. This matters at small scales/budgets
 * where non-cut-off buckets can individually outgrow the device.
 *
 * Each round prices the pieces of every oversized item in one
 * @p price call. Pieces are tagged with their owner and kept in owner
 * order, so every owner's accepted pieces come out in exactly the
 * order an item-at-a-time loop would give — memBalancedGrouping's
 * unstable sort then sees the same input. Round 0 reuses the owners'
 * own estimates instead of pricing them again.
 */
template <typename Price>
std::vector<BucketMemInfo>
splitOversized(std::vector<BucketMemInfo> infos, std::uint64_t budget,
               Price &price)
{
    auto fits = [budget](const BucketMemInfo &info) {
        return info.est_bytes <= budget || info.bucket.volume() <= 1;
    };
    std::vector<BucketMemInfo> priced;
    std::vector<std::size_t> owners;
    for (std::size_t i = 0; i < infos.size(); ++i) {
        if (!fits(infos[i])) {
            owners.push_back(i);
            priced.push_back(std::move(infos[i]));
        }
    }
    if (owners.empty())
        return infos;

    // pieces[i] stays empty for items that fit; an oversized item
    // always ends with at least one piece.
    std::vector<std::vector<BucketMemInfo>> pieces(infos.size());
    for (int round = 0; !priced.empty(); ++round) {
        BucketList next;
        std::vector<std::size_t> next_owners;
        for (std::size_t j = 0; j < priced.size(); ++j) {
            BucketMemInfo &piece = priced[j];
            if (round == kMaxSplitRounds || fits(piece)) {
                pieces[owners[j]].push_back(std::move(piece));
                continue;
            }
            const int count = std::min<std::uint64_t>(
                piece.bucket.volume(),
                piece.est_bytes /
                        std::max<std::uint64_t>(budget / 2, 1) +
                    2);
            for (DegreeBucket &micro :
                 splitExplosionBucket(piece.bucket, count)) {
                next.push_back(std::move(micro));
                next_owners.push_back(owners[j]);
            }
        }
        priced = price(std::move(next));
        owners = std::move(next_owners);
    }

    std::vector<BucketMemInfo> expanded;
    expanded.reserve(infos.size());
    for (std::size_t i = 0; i < infos.size(); ++i) {
        if (pieces[i].empty()) {
            expanded.push_back(std::move(infos[i]));
            continue;
        }
        for (BucketMemInfo &piece : pieces[i])
            expanded.push_back(std::move(piece));
    }
    return expanded;
}

} // namespace

BuffaloScheduler::BuffaloScheduler(const nn::MemoryModel &model,
                                   double clustering_coefficient,
                                   const SchedulerOptions &options,
                                   util::ThreadPool *pool)
    : model_(model), redundancy_estimator_(clustering_coefficient),
      // A vanishing C drives every grouping ratio to 1, i.e. plain
      // linear summation (the ablation baseline).
      linear_estimator_(0.0), options_(options), pool_(pool)
{
    checkArgument(options_.mem_constraint > 0,
                  "BuffaloScheduler: mem_constraint must be set");
    checkArgument(options_.max_groups >= 1,
                  "BuffaloScheduler: max_groups must be >= 1");
    checkArgument(options_.safety_factor > 0.0 &&
                      options_.safety_factor <= 1.0,
                  "BuffaloScheduler: safety_factor must be in (0, 1]");
}

ScheduleResult
BuffaloScheduler::schedule(const SampledSubgraph &sg) const
{
    obs::Span span(obs::names::kSpanSchedulerSchedule);
    util::StopWatch watch;
    const RedundancyAwareMemEstimator &estimator =
        options_.redundancy_aware ? redundancy_estimator_
                                  : linear_estimator_;

    // Every bucket list is priced in one parallel call; the cone walks
    // are counted here and published once per schedule.
    BucketMemEstimator bucket_estimator(model_, sg, pool_);
    std::uint64_t cone_walks = 0;
    auto price = [&](BucketList pieces) {
        cone_walks += pieces.size();
        return bucket_estimator.estimate(std::move(pieces));
    };

    // Line 1: degree-bucket the output layer.
    BucketList buckets = sampling::bucketizeSeeds(sg);
    std::vector<BucketMemInfo> base_infos = price(buckets);

    // Explosion detection happens once on the un-split bucket list.
    int explosion_index = sampling::findExplosionBucket(
        buckets, options_.explosion_threshold);
    if (explosion_index < 0 && options_.enable_split) {
        // Memory-driven fallback: when the heaviest bucket alone
        // cannot fit the budget, it must be split regardless of the
        // volume distribution (e.g. when the graph's average degree
        // exceeds the fanout, *all* seeds collapse into the single
        // cut-off bucket).
        std::size_t heaviest = 0;
        for (std::size_t b = 1; b < base_infos.size(); ++b)
            if (base_infos[b].est_bytes >
                base_infos[heaviest].est_bytes)
                heaviest = b;
        if (!base_infos.empty() &&
            base_infos[heaviest].est_bytes + options_.reserved_bytes >
                options_.mem_constraint) {
            explosion_index = static_cast<int>(heaviest);
        }
    }

    ScheduleResult result;
    result.explosion_detected =
        options_.enable_split && explosion_index >= 0;

    // The scheduler packs against a slightly reduced budget so
    // estimation error and allocator transients cannot push execution
    // over the real capacity.
    const std::uint64_t activation_budget =
        options_.mem_constraint > options_.reserved_bytes
            ? static_cast<std::uint64_t>(
                  (options_.mem_constraint - options_.reserved_bytes) *
                  options_.safety_factor)
            : 0;

    // Algorithm 3 increments K by one per failed attempt. Re-pricing
    // the split micro-buckets costs a cone walk per attempt, so we
    // jump-start at a lower bound no feasible plan can beat: the sum
    // of redundancy-discounted bucket estimates divided by the
    // activation budget (perfect packing of discounted items). The
    // loop then proceeds K, K+1, ... exactly as in the paper.
    int k_start = 1;
    if (activation_budget > 0) {
        double discounted_total = 0.0;
        for (const auto &info : base_infos) {
            discounted_total += static_cast<double>(info.est_bytes) *
                                estimator.groupingRatio(info);
        }
        // Clamp in double before the cast: a tiny budget can push the
        // quotient past INT_MAX, where the conversion is undefined.
        // Any bound above max_groups means no K can succeed.
        const double bound = std::min(
            discounted_total / static_cast<double>(activation_budget),
            static_cast<double>(options_.max_groups) + 1.0);
        k_start = std::max(1, static_cast<int>(bound));
    }

    int attempts = 0;
    obs::MetricsRegistry &m = obs::metrics();
    auto publish_work = [&] {
        m.counter(obs::names::kCtrSchedulerKAttempts)
            .add(static_cast<std::uint64_t>(attempts));
        m.counter(obs::names::kCtrSchedulerConeWalks).add(cone_walks);
    };

    for (int k = k_start; k <= options_.max_groups; ++k) {
        ++attempts;
        // Lines 4-5: split the explosion bucket into K micro-buckets.
        std::vector<BucketMemInfo> infos;
        if (result.explosion_detected && k > 1) {
            infos.reserve(base_infos.size() + k - 1);
            for (std::size_t b = 0; b < base_infos.size(); ++b) {
                if (static_cast<int>(b) == explosion_index)
                    continue;
                infos.push_back(base_infos[b]);
            }
            for (BucketMemInfo &micro : price(splitExplosionBucket(
                     buckets[explosion_index], k)))
                infos.push_back(std::move(micro));
        } else {
            infos = base_infos;
        }

        if (options_.enable_split && activation_budget > 0)
            infos = splitOversized(std::move(infos), activation_budget,
                                   price);

        // Line 6: memory-balanced grouping.
        GroupingResult grouping = memBalancedGrouping(
            infos, k, options_.reserved_bytes + activation_budget,
            estimator, options_.reserved_bytes, options_.policy);
        if (grouping.success) {
            result.num_groups =
                static_cast<int>(grouping.groups.size());
            result.groups = std::move(grouping.groups);
            result.single_group = k == 1;
            result.schedule_seconds = watch.seconds();

            publish_work();
            m.counter(obs::names::kCtrSchedulerSchedules).add();
            if (result.explosion_detected)
                m.counter(obs::names::kCtrSchedulerExplosionSplits).add();
            m.histogram(obs::names::kHistSchedulerNumGroups)
                .add(static_cast<double>(result.num_groups));
            m.histogram(obs::names::kHistSchedulerScheduleSeconds)
                .add(result.schedule_seconds);

            if (obs::eventLog().enabled()) {
                std::uint64_t max_est = 0;
                for (const BucketGroup &group : result.groups)
                    max_est = std::max(max_est, group.est_bytes);
                obs::eventLog()
                    .event(obs::names::kEvSchedulerSchedule)
                    .field("k", result.num_groups)
                    .field("k_attempts", attempts)
                    .field("buckets",
                           std::uint64_t(base_infos.size()))
                    .field("explosion", result.explosion_detected)
                    .field("activation_budget", activation_budget)
                    .field("max_group_est_bytes", max_est)
                    .field("seconds", result.schedule_seconds);
                if (result.explosion_detected) {
                    obs::eventLog()
                        .event(
                            obs::names::kEvSchedulerExplosionSplit)
                        .field("bucket_index", explosion_index)
                        .field("pieces", std::max(k, 1))
                        .field(
                            "volume",
                            std::uint64_t(
                                buckets[static_cast<std::size_t>(
                                            explosion_index)]
                                    .members.size()));
                }
            }

            BUFFALO_LOG_INFO("scheduler")
                << "K=" << result.num_groups << " groups (explosion="
                << result.explosion_detected << ") in "
                << result.schedule_seconds << "s";
            return result;
        }
    }
    publish_work();
    throw InvalidArgument(
        "BuffaloScheduler: batch cannot satisfy the memory constraint "
        "even with max_groups micro-batches");
}

} // namespace buffalo::core
