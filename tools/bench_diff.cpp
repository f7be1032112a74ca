/**
 * @file
 * CLI front-end of obs::compareBenchFiles (DESIGN.md, "Memory audit &
 * bench regression"):
 *
 *   bench_diff <baseline.json> <candidate.json>
 *
 * Compares a candidate BENCH_*.json against a committed baseline;
 * every baseline metric must be present in the candidate and pass the
 * baseline's per-metric gate: a symmetric relative "tolerance", or
 * one-sided "min"/"max" bounds on the candidate value. Exit codes:
 * 0 = every metric passes, 1 = regression (drift, a bound crossed, or
 * a missing metric), 2 = usage / unreadable / malformed input. ci.sh
 * gates the bench reports with this tool.
 */
#include <cstdio>

#include "obs/bench_compare.h"
#include "util/errors.h"

int
main(int argc, char **argv)
{
    using namespace buffalo;

    if (argc != 3) {
        std::fprintf(stderr,
                     "usage: bench_diff <baseline.json> "
                     "<candidate.json>\n");
        return 2;
    }
    try {
        const obs::BenchCompareResult result =
            obs::compareBenchFiles(argv[1], argv[2]);
        std::fputs(obs::formatBenchCompare(result).c_str(), stdout);
        return result.ok() ? 0 : 1;
    } catch (const Error &e) {
        std::fprintf(stderr, "bench_diff: %s\n", e.what());
        return 2;
    }
}
