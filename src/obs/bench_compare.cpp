#include "obs/bench_compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "obs/json.h"
#include "util/errors.h"

namespace buffalo::obs {

namespace {

constexpr double kRelDiffFloor = 1e-12;

/** Validates the outer shape and returns the "metrics" object. */
const JsonValue &
metricsOf(const JsonValue &report, const char *which)
{
    checkArgument(report.isObject(),
                  std::string(which) + " bench report is not an object");
    checkArgument(report.has("bench") && report.at("bench").isString(),
                  std::string(which) +
                      " bench report lacks a string \"bench\" field");
    checkArgument(report.has("metrics") && report.at("metrics").isObject(),
                  std::string(which) +
                      " bench report lacks a \"metrics\" object");
    return report.at("metrics");
}

/** Validates one metric entry and pulls out a numeric field. */
double
numberField(const JsonValue &metric, const std::string &name,
            const char *field)
{
    checkArgument(metric.isObject(),
                  "bench metric \"" + name + "\" is not an object");
    checkArgument(metric.has(field) && metric.at(field).isNumber(),
                  "bench metric \"" + name + "\" lacks a numeric \"" +
                      field + "\" field");
    return metric.at(field).asNumber();
}

/** "%.6g" of a bound, or "-" when the side is open. */
std::string
boundText(const std::optional<double> &bound)
{
    if (!bound)
        return "-";
    char text[32];
    std::snprintf(text, sizeof(text), "%.6g", *bound);
    return text;
}

} // namespace

BenchCompareResult
compareBenchReports(const JsonValue &baseline, const JsonValue &candidate)
{
    const JsonValue &base_metrics = metricsOf(baseline, "baseline");
    const JsonValue &cand_metrics = metricsOf(candidate, "candidate");

    BenchCompareResult result;
    result.bench = baseline.at("bench").asString();

    for (const std::string &name : base_metrics.keys()) {
        const JsonValue &base_metric = base_metrics.at(name);
        BenchMetricDiff diff;
        diff.name = name;
        diff.baseline = numberField(base_metric, name, "value");
        if (base_metric.has("min"))
            diff.min = numberField(base_metric, name, "min");
        if (base_metric.has("max"))
            diff.max = numberField(base_metric, name, "max");
        if (diff.bounded()) {
            checkArgument(!base_metric.has("tolerance"),
                          "bench metric \"" + name +
                              "\" gives both a tolerance and bounds");
            checkArgument(!diff.min || !diff.max || *diff.min <= *diff.max,
                          "bench metric \"" + name +
                              "\" has min > max");
        } else {
            diff.tolerance =
                numberField(base_metric, name, "tolerance");
            checkArgument(diff.tolerance >= 0.0,
                          "bench metric \"" + name +
                              "\" has a negative tolerance");
        }
        if (!cand_metrics.has(name)) {
            diff.missing = true;
            result.diffs.push_back(diff);
            continue;
        }
        diff.candidate =
            numberField(cand_metrics.at(name), name, "value");
        diff.rel_diff =
            std::abs(diff.candidate - diff.baseline) /
            std::max(std::abs(diff.baseline), kRelDiffFloor);
        result.diffs.push_back(diff);
    }

    const std::set<std::string> base_names(base_metrics.keys().begin(),
                                           base_metrics.keys().end());
    for (const std::string &name : cand_metrics.keys())
        if (base_names.count(name) == 0)
            result.extra_metrics.push_back(name);

    return result;
}

BenchCompareResult
compareBenchFiles(const std::string &baseline_path,
                  const std::string &candidate_path)
{
    const JsonValue baseline =
        JsonValue::parse(readFileText(baseline_path));
    const JsonValue candidate =
        JsonValue::parse(readFileText(candidate_path));
    return compareBenchReports(baseline, candidate);
}

std::string
formatBenchCompare(const BenchCompareResult &result)
{
    std::string out = "bench_diff: " + result.bench + "\n";
    char line[256];
    for (const BenchMetricDiff &diff : result.diffs) {
        if (diff.missing) {
            std::snprintf(line, sizeof(line),
                          "  FAIL %-32s missing from candidate "
                          "(baseline %.6g)\n",
                          diff.name.c_str(), diff.baseline);
        } else if (diff.bounded()) {
            std::snprintf(line, sizeof(line),
                          "  %s %-32s base %.6g  cand %.6g  "
                          "bounds [%s, %s]\n",
                          diff.ok() ? "ok  " : "FAIL",
                          diff.name.c_str(), diff.baseline,
                          diff.candidate, boundText(diff.min).c_str(),
                          boundText(diff.max).c_str());
        } else {
            std::snprintf(line, sizeof(line),
                          "  %s %-32s base %.6g  cand %.6g  "
                          "drift %.2f%% (tol %.2f%%)\n",
                          diff.ok() ? "ok  " : "FAIL",
                          diff.name.c_str(), diff.baseline,
                          diff.candidate, diff.rel_diff * 100.0,
                          diff.tolerance * 100.0);
        }
        out += line;
    }
    for (const std::string &name : result.extra_metrics)
        out += "  note " + name + " only in candidate (ignored)\n";
    out += result.ok() ? "bench_diff: PASS\n" : "bench_diff: FAIL\n";
    return out;
}

} // namespace buffalo::obs
