#include "obs/critical_path.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "obs/json.h"
#include "obs/names.h"

namespace buffalo::obs {

namespace {

/**
 * Infers pipeline order by each stage's mean position within its
 * item's start-sorted chain — upstream stages run earlier for every
 * item, so their mean rank is lower. Ties break on mean start time.
 */
std::vector<std::string>
inferStageOrder(const std::vector<CpSpan> &spans,
                const std::map<std::uint64_t, std::vector<std::size_t>>
                    &by_item)
{
    struct Rank
    {
        double rank_sum = 0.0;
        double start_sum = 0.0;
        std::size_t count = 0;
    };
    std::map<std::string, Rank> ranks;
    for (const auto &[item, chain] : by_item) {
        (void)item;
        for (std::size_t p = 0; p < chain.size(); ++p) {
            Rank &r = ranks[spans[chain[p]].stage];
            r.rank_sum += static_cast<double>(p);
            r.start_sum += spans[chain[p]].start_us;
            ++r.count;
        }
    }
    std::vector<std::string> order;
    order.reserve(ranks.size());
    for (const auto &[stage, r] : ranks) {
        (void)r;
        order.push_back(stage);
    }
    std::sort(order.begin(), order.end(),
              [&](const std::string &a, const std::string &b) {
                  const Rank &ra = ranks[a];
                  const Rank &rb = ranks[b];
                  const double ma = ra.rank_sum / ra.count;
                  const double mb = rb.rank_sum / rb.count;
                  if (ma != mb)
                      return ma < mb;
                  return ra.start_sum / ra.count <
                         rb.start_sum / rb.count;
              });
    return order;
}

void
addWhatIfs(CriticalPathReport *report,
           const std::vector<std::string> &stage_order,
           const std::vector<std::vector<double>> &durations,
           const CpOptions &options)
{
    const std::size_t num_stages = stage_order.size();
    if (num_stages == 0 || durations.empty())
        return;
    auto stageIndex = [&](const std::string &name) {
        const auto it = std::find(stage_order.begin(),
                                  stage_order.end(), name);
        return it == stage_order.end()
                   ? num_stages
                   : static_cast<std::size_t>(
                         it - stage_order.begin());
    };
    auto add = [&](const std::string &name,
                   const std::vector<double> &scales) {
        std::vector<std::vector<double>> scaled = durations;
        for (std::vector<double> &item : scaled)
            for (std::size_t s = 0; s < item.size(); ++s)
                item[s] *= scales[s];
        CpWhatIf whatif;
        whatif.name = name;
        whatif.wall_us = pipelineTimeline(scaled, num_stages).wall();
        whatif.speedup = whatif.wall_us > 0.0
                             ? report->wall_us / whatif.wall_us
                             : 0.0;
        report->whatifs.push_back(std::move(whatif));
    };

    const std::vector<double> ones(num_stages, 1.0);
    add("perfect_overlap", ones);

    const std::size_t feature = stageIndex(options.feature_stage);
    if (feature < num_stages && options.cache_hit_rate >= 0.0) {
        std::vector<double> scales = ones;
        scales[feature] = zeroCacheMissScale(options.cache_hit_rate);
        add("zero_cache_miss", scales);
    }
    const std::size_t build = stageIndex(options.build_stage);
    if (build < num_stages) {
        std::vector<double> scales = ones;
        scales[build] = 0.5;
        add("blockgen_2x", scales);
        scales[build] = 0.25;
        add("blockgen_4x", scales);
    }
}

} // namespace

PipelineTimeline
pipelineTimeline(const std::vector<std::vector<double>> &durations,
                 std::size_t num_stages, std::size_t window)
{
    PipelineTimeline timeline;
    timeline.start.resize(durations.size() * num_stages);
    timeline.end.resize(durations.size() * num_stages);
    for (std::size_t i = 0; i < durations.size(); ++i) {
        const std::vector<double> &item = durations[i];
        const std::size_t row = i * num_stages;
        for (std::size_t s = 0; s < num_stages; ++s) {
            const double d = s < item.size() ? item[s] : 0.0;
            const double same_stage =
                i > 0 ? timeline.end[row - num_stages + s] : 0.0;
            double upstream = 0.0;
            if (s > 0)
                upstream = timeline.end[row + s - 1];
            else if (window > 0 && i >= window)
                upstream = timeline.end[(i - window + 1) * num_stages - 1];
            timeline.start[row + s] = std::max(same_stage, upstream);
            timeline.end[row + s] = timeline.start[row + s] + d;
        }
    }
    return timeline;
}

double
overlapEfficiency(double serial, double wall)
{
    if (serial <= 0.0 || wall <= 0.0)
        return 0.0;
    return std::min(1.0, serial / wall);
}

double
zeroCacheMissScale(double hit_rate, double kappa)
{
    const double h = std::clamp(hit_rate, 0.0, 1.0);
    const double current = (1.0 - h) + h * kappa;
    return current > 0.0 ? kappa / current : 1.0;
}

CriticalPathReport
analyzeCriticalPath(std::vector<CpSpan> spans,
                    const CpOptions &options)
{
    CriticalPathReport report;
    spans.erase(std::remove_if(spans.begin(), spans.end(),
                               [](const CpSpan &s) {
                                   return s.item == 0 ||
                                          s.end_us < s.start_us;
                               }),
                spans.end());
    if (spans.empty())
        return report;
    std::sort(spans.begin(), spans.end(),
              [](const CpSpan &a, const CpSpan &b) {
                  if (a.start_us != b.start_us)
                      return a.start_us < b.start_us;
                  return a.end_us < b.end_us;
              });

    // Chains: per-item and per-stage span lists, both in start order.
    std::map<std::uint64_t, std::vector<std::size_t>> by_item;
    std::map<std::string, std::vector<std::size_t>> by_stage;
    std::vector<std::size_t> pos_in_item(spans.size());
    std::vector<std::size_t> pos_in_stage(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &item_chain = by_item[spans[i].item];
        auto &stage_chain = by_stage[spans[i].stage];
        pos_in_item[i] = item_chain.size();
        pos_in_stage[i] = stage_chain.size();
        item_chain.push_back(i);
        stage_chain.push_back(i);
    }

    report.spans = spans.size();
    report.items = by_item.size();
    for (const auto &[item, chain] : by_item) {
        (void)item;
        std::set<std::string> seen;
        for (const std::size_t i : chain)
            seen.insert(spans[i].stage);
        if (seen.size() != by_stage.size())
            ++report.incomplete_items;
    }

    // Stage order: configured names that actually occur, then any
    // stages the configuration missed, then inferred when empty.
    std::vector<std::string> order;
    for (const std::string &stage : options.stage_order)
        if (by_stage.count(stage) != 0)
            order.push_back(stage);
    if (order.empty()) {
        order = inferStageOrder(spans, by_item);
    } else {
        for (const auto &[stage, chain] : by_stage) {
            (void)chain;
            if (std::find(order.begin(), order.end(), stage) ==
                order.end())
                order.push_back(stage);
        }
    }

    double t0 = spans.front().start_us;
    std::size_t last = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        t0 = std::min(t0, spans[i].start_us);
        if (spans[i].end_us > spans[last].end_us)
            last = i;
        report.serial_us += spans[i].end_us - spans[i].start_us;
    }
    report.wall_us = spans[last].end_us - t0;

    // Backward walk from the last-ending span: at each step the
    // binding predecessor is the later-ending of the same-item
    // previous span and the same-stage previous-item span (ties go
    // to the same-stage edge, keeping the chain inside a saturated
    // stage). Everything between the predecessor's end and the
    // cursor is the current span's self time; any gap before the
    // span's own start is critical-path idle (queue wait/startup).
    std::map<std::string, double> self;
    std::size_t cur = last;
    double cursor = spans[last].end_us;
    for (std::size_t steps = 0; steps <= spans.size(); ++steps) {
        std::ptrdiff_t pred = -1;
        const auto &item_chain = by_item[spans[cur].item];
        const auto &stage_chain = by_stage[spans[cur].stage];
        if (pos_in_item[cur] > 0)
            pred = static_cast<std::ptrdiff_t>(
                item_chain[pos_in_item[cur] - 1]);
        if (pos_in_stage[cur] > 0) {
            const std::size_t same_stage =
                stage_chain[pos_in_stage[cur] - 1];
            if (pred < 0 ||
                spans[same_stage].end_us >=
                    spans[static_cast<std::size_t>(pred)].end_us)
                pred = static_cast<std::ptrdiff_t>(same_stage);
        }
        const double begin = spans[cur].start_us;
        const double pred_end =
            pred >= 0 ? spans[static_cast<std::size_t>(pred)].end_us
                      : t0;
        const double handoff =
            std::min(cursor, std::max(begin, pred_end));
        self[spans[cur].stage] += cursor - handoff;
        const double next_cursor = std::min(cursor, pred_end);
        report.idle_us += std::max(0.0, handoff - next_cursor);
        cursor = next_cursor;
        if (pred < 0)
            break;
        cur = static_cast<std::size_t>(pred);
    }

    for (const std::string &stage : order) {
        CpStageReport sr;
        sr.stage = stage;
        for (const std::size_t i : by_stage[stage]) {
            ++sr.spans;
            sr.busy_us += spans[i].end_us - spans[i].start_us;
        }
        sr.cp_self_us = self[stage];
        sr.cp_share =
            report.wall_us > 0.0 ? sr.cp_self_us / report.wall_us
                                 : 0.0;
        if (sr.cp_self_us >
            report.dominant_share * report.wall_us) {
            report.dominant_stage = sr.stage;
            report.dominant_share = sr.cp_share;
        }
        report.stages.push_back(std::move(sr));
    }
    report.overlap_efficiency =
        overlapEfficiency(report.serial_us, report.wall_us);
    report.avg_concurrency =
        report.wall_us > 0.0 ? report.serial_us / report.wall_us
                             : 0.0;

    // Per-item stage durations (items in id order = submission
    // order) feed the what-if recurrence.
    std::vector<std::vector<double>> durations;
    durations.reserve(by_item.size());
    std::map<std::string, std::size_t> stage_index;
    for (std::size_t s = 0; s < order.size(); ++s)
        stage_index[order[s]] = s;
    for (const auto &[item, chain] : by_item) {
        (void)item;
        std::vector<double> d(order.size(), 0.0);
        for (const std::size_t i : chain)
            d[stage_index[spans[i].stage]] +=
                spans[i].end_us - spans[i].start_us;
        durations.push_back(std::move(d));
    }
    addWhatIfs(&report, order, durations, options);
    return report;
}

CriticalPathReport
analyzeModeledPipeline(
    const std::vector<std::string> &stage_order,
    const std::vector<std::vector<double>> &item_stage_seconds,
    const CpOptions &options, std::size_t window)
{
    // Synthesize each item's spans at the times the unscaled, windowed
    // recurrence admits them, then run the real analyzer: the CP
    // decomposition of the model and of a recorded trace share one
    // code path.
    const std::size_t num_stages = stage_order.size();
    const PipelineTimeline timeline =
        pipelineTimeline(item_stage_seconds, num_stages, window);
    std::vector<CpSpan> spans;
    for (std::size_t i = 0; i < item_stage_seconds.size(); ++i) {
        for (std::size_t s = 0; s < num_stages; ++s) {
            CpSpan span;
            span.stage = stage_order[s];
            span.item = static_cast<std::uint64_t>(i) + 1;
            span.start_us = timeline.start[i * num_stages + s] * 1e6;
            span.end_us = timeline.end[i * num_stages + s] * 1e6;
            span.tid = static_cast<std::uint32_t>(s);
            spans.push_back(std::move(span));
        }
    }
    CpOptions resolved = options;
    resolved.stage_order = stage_order;
    return analyzeCriticalPath(std::move(spans), resolved);
}

std::vector<CpSpan>
loadTraceSpans(const std::string &path)
{
    const JsonValue doc = JsonValue::parse(readFileText(path));
    std::vector<CpSpan> spans;
    if (!doc.isArray())
        return spans;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        const JsonValue &event = doc.at(i);
        if (!event.isObject() || !event.has("args") ||
            !event.at("args").isObject() ||
            !event.at("args").has("item"))
            continue;
        const JsonValue &item = event.at("args").at("item");
        if (!item.isNumber() || item.asNumber() <= 0.0)
            continue;
        CpSpan span;
        span.stage = event.at("name").asString();
        span.item = static_cast<std::uint64_t>(item.asNumber());
        span.start_us = event.at("ts").asNumber();
        span.end_us = span.start_us + event.at("dur").asNumber();
        span.tid =
            static_cast<std::uint32_t>(event.at("tid").asNumber());
        spans.push_back(std::move(span));
    }
    return spans;
}

double
cacheHitRateFromRunLog(const std::string &path)
{
    const std::string text = readFileText(path);
    std::stringstream stream(text);
    std::string line;
    double hit_rate = -1.0;
    while (std::getline(stream, line)) {
        if (line.empty())
            continue;
        JsonValue event;
        try {
            event = JsonValue::parse(line);
        } catch (const std::exception &) {
            continue; // obs_validate owns schema enforcement
        }
        if (!event.isObject() || !event.has("ev") ||
            !event.at("ev").isString())
            continue;
        if (event.at("ev").asString() != names::kEvCacheSnapshot)
            continue;
        if (event.has("hit_rate") &&
            event.at("hit_rate").isNumber())
            hit_rate = event.at("hit_rate").asNumber();
    }
    return hit_rate;
}

} // namespace buffalo::obs
