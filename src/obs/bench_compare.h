/**
 * @file
 * Comparison logic behind `tools/bench_diff` (DESIGN.md, "Memory
 * audit & bench regression"). A bench report is the JSON document a
 * `bench::Reporter` emits next to its ASCII table:
 *
 *   {"bench": "<name>",
 *    "metrics": {"<metric>": {"value": 12.5, "tolerance": 0.10},
 *                "<ratio>":  {"value": 3.1, "min": 2.0}, ...}}
 *
 * compareBenchReports() walks the *baseline's* metrics: each must be
 * present in the candidate and pass the baseline's own gate. A metric
 * gates either symmetrically, with a relative tolerance
 * |cand - base| / max(|base|, eps) <= tolerance, or one-sidedly, with
 * an absolute floor "min" and/or ceiling "max" on the candidate value
 * (a speedup floor, say, which no gain can fail). A metric gives
 * either "tolerance" or at least one bound, never both. Embedding the
 * gate in the baseline keeps the policy versioned next to the numbers
 * it governs — refreshing a baseline re-states both. Metrics only the
 * candidate has are reported but never fail the comparison (new
 * metrics must not break older baselines).
 *
 * Lives in src/obs (not in the tool) so the unit tests link the
 * exact logic CI gates on.
 */
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace buffalo::obs {

class JsonValue;

/** One metric's baseline-vs-candidate comparison. */
struct BenchMetricDiff
{
    std::string name;
    double baseline = 0.0;
    double candidate = 0.0;
    /** |candidate - baseline| / max(|baseline|, 1e-12). */
    double rel_diff = 0.0;
    /** Allowed relative drift (from the baseline document). */
    double tolerance = 0.0;
    /** One-sided bounds on the candidate value; when either is set the
     *  tolerance is not used. */
    std::optional<double> min;
    std::optional<double> max;
    /** Metric absent from the candidate (always a failure). */
    bool missing = false;

    bool bounded() const { return min || max; }

    bool
    ok() const
    {
        if (missing)
            return false;
        if (!bounded())
            return rel_diff <= tolerance;
        return (!min || candidate >= *min) &&
               (!max || candidate <= *max);
    }
};

/** Full result of comparing a candidate report against a baseline. */
struct BenchCompareResult
{
    /** The baseline's bench name. */
    std::string bench;
    /** One entry per baseline metric, in baseline document order. */
    std::vector<BenchMetricDiff> diffs;
    /** Candidate metrics with no baseline counterpart (informative). */
    std::vector<std::string> extra_metrics;

    bool
    ok() const
    {
        for (const BenchMetricDiff &diff : diffs)
            if (!diff.ok())
                return false;
        return true;
    }
};

/**
 * Compares parsed bench reports.
 * @throws InvalidArgument when either document does not follow the
 *         bench-report schema above.
 */
BenchCompareResult compareBenchReports(const JsonValue &baseline,
                                       const JsonValue &candidate);

/**
 * Reads, parses, and compares two bench-report files.
 * @throws Error when a file cannot be read, InvalidArgument when one
 *         is malformed.
 */
BenchCompareResult compareBenchFiles(const std::string &baseline_path,
                                     const std::string &candidate_path);

/** Human-readable per-metric report (one line per metric). */
std::string formatBenchCompare(const BenchCompareResult &result);

} // namespace buffalo::obs
