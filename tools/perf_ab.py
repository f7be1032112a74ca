#!/usr/bin/env python3
"""A/B the benchmark of this tree against a parent commit.

    python3 tools/perf_ab.py --parent HEAD~1 --workload arxiv-lstm \
        --pairs 10 --seconds 50

Extracts <parent> with `git archive <ref> | tar -x` into a work
directory (no worktree, nothing written under .git), then runs
perfbench/run.py of both trees in alternating order, seeds 1..N:
odd seeds run the parent first, even seeds the change first. Each tree
builds its own benchmark driver from its own sources. The working tree
is the "change" side, uncommitted edits included.

For every metric that BENCHMARK.json names and the runs print, the
report gives both medians, the parent's and the change's interquartile
range, the median change in percent and the pairs the change won. An
end-to-end metric whose parent IQR exceeds its `bound` times the parent
median is marked "unresolved": its parent runs spread too widely for
that bound to tell a change from noise.

    python3 tools/perf_ab.py --self-test

checks the statistics on fixed samples and exits non-zero on a
mismatch; tools/ci.sh runs it.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(q1, median, q3), linear interpolation between closest ranks."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def run_order(pairs):
    """[(seed, first, second)]: odd seeds run the parent first."""
    return [(seed, "parent", "change") if seed % 2 else
            (seed, "change", "parent") for seed in range(1, pairs + 1)]


def last_json_line(stdout):
    """The result object: the last non-empty stdout line, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def summarize(spec, parent, change):
    """One row per metric present on both sides.

    spec: {name: {"better": "higher"|"lower", "bound": float|None}}.
    parent, change: lists of {metric: value}, one per pair (None for a
    failed run; a pair with a failed side counts for neither).
    """
    rows = []
    for name, meta in spec.items():
        pairs = [(p[name], c[name]) for p, c in zip(parent, change)
                 if p is not None and c is not None and name in p and
                 name in c]
        if not pairs:
            continue
        pv = [p for p, _ in pairs]
        cv = [c for _, c in pairs]
        p_q1, p_med, p_q3 = quartiles(pv)
        c_q1, c_med, c_q3 = quartiles(cv)
        higher = meta["better"] == "higher"
        wins = sum(1 for p, c in pairs if (c > p if higher else c < p))
        delta = (c_med - p_med) / p_med * 100.0 if p_med else 0.0
        bound = meta.get("bound")
        unresolved = bound is not None and (p_q3 - p_q1) > bound * abs(p_med)
        rows.append({
            "metric": name, "parent_median": p_med, "parent_iqr": p_q3 - p_q1,
            "change_median": c_med, "change_iqr": c_q3 - c_q1,
            "delta_pct": delta, "wins": wins, "pairs": len(pairs),
            "unresolved": unresolved,
        })
    return rows


def format_rows(rows):
    lines = [f"{'metric':34} {'parent':>12} {'iqr':>10} {'change':>12} "
             f"{'iqr':>10} {'delta':>8} {'wins':>7}"]
    for r in rows:
        verdict = "  unresolved" if r["unresolved"] else ""
        lines.append(
            f"{r['metric']:34} {r['parent_median']:12.6g} "
            f"{r['parent_iqr']:10.4g} {r['change_median']:12.6g} "
            f"{r['change_iqr']:10.4g} {r['delta_pct']:+7.1f}% "
            f"{r['wins']:>3}/{r['pairs']:<3}{verdict}")
    return "\n".join(lines)


def metric_spec(benchmark):
    """{name: {better, bound}}: end-to-end first, then per-layer."""
    spec = {}
    for entry in benchmark.get("end_to_end", []):
        spec[entry["name"]] = {"better": entry["better"],
                               "bound": entry.get("bound")}
    for entry in benchmark.get("per_layer", []):
        spec.setdefault(entry["name"], {"better": entry["better"],
                                        "bound": None})
    return spec


def extract_parent(ref, work_dir):
    """Extracts <ref> into work_dir/parent once per resolved commit."""
    commit = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", ref + "^{commit}"],
        check=True, capture_output=True, text=True).stdout.strip()
    tree = os.path.join(work_dir, "parent")
    stamp = os.path.join(work_dir, "parent.commit")
    if os.path.isfile(stamp) and open(stamp).read().strip() == commit:
        return tree, commit
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"could not extract {ref} into {tree}")
    with open(stamp, "w") as f:
        f.write(commit + "\n")
    return tree, commit


def run_bench(tree, workload, seed, seconds, trace):
    """One perfbench run in @p tree; its metric values, or None."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    parsed = last_json_line(result.stdout)
    if result.returncode != 0 or parsed is None or not parsed.get("correct"):
        return None
    return {name: m["value"] for name, m in parsed["metrics"].items()}


def self_test():
    failures = []

    def check(what, got, want):
        if got != want:
            failures.append(f"{what}: got {got!r}, want {want!r}")

    check("quartiles odd", quartiles([5, 1, 3, 2, 4]), (2.0, 3, 4.0))
    check("quartiles even", quartiles([1, 2, 3, 4]), (1.75, 2.5, 3.25))
    check("quartiles single", quartiles([7.0]), (7.0, 7.0, 7.0))
    check("order", run_order(3), [(1, "parent", "change"),
                                  (2, "change", "parent"),
                                  (3, "parent", "change")])
    check("json last line", last_json_line('noise\n{"a": 1}\n\n'), {"a": 1})
    check("json missing", last_json_line("build log only\n"), None)

    spec = metric_spec({
        "end_to_end": [
            {"name": "rate", "better": "higher", "bound": 0.25},
            {"name": "ms", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "calls", "better": "lower"}]})
    parent = [{"rate": 100, "ms": 10, "calls": 5},
              {"rate": 104, "ms": 30, "calls": 5},
              {"rate": 96, "ms": 2, "calls": 5},
              None,
              {"rate": 100, "ms": 10, "calls": 5}]
    change = [{"rate": 110, "ms": 9, "calls": 4},
              {"rate": 103, "ms": 9, "calls": 4},
              {"rate": 120, "ms": 9, "calls": 4},
              {"rate": 500, "ms": 1, "calls": 1},
              {"rate": 100, "ms": 11, "calls": 4}]
    rows = {r["metric"]: r for r in summarize(spec, parent, change)}
    check("pairs exclude a failed side", rows["rate"]["pairs"], 4)
    check("rate medians", (rows["rate"]["parent_median"],
                           rows["rate"]["change_median"]), (100.0, 106.5))
    check("rate wins (ties lose)", rows["rate"]["wins"], 2)
    check("rate resolved", rows["rate"]["unresolved"], False)
    # Parent ms quartiles 8, 10, 15: IQR 7 > 0.25 * 10.
    check("ms iqr", rows["ms"]["parent_iqr"], 7.0)
    check("ms unresolved", rows["ms"]["unresolved"], True)
    check("ms wins (lower is better)", rows["ms"]["wins"], 2)
    check("per-layer has no bound", rows["calls"]["unresolved"], False)
    check("per-layer delta", rows["calls"]["delta_pct"], -20.0)
    check("format marks unresolved",
          "unresolved" in format_rows([rows["ms"]]), True)

    for failure in failures:
        print("perf_ab self-test: " + failure, file=sys.stderr)
    print(f"perf_ab self-test: {'FAIL' if failures else 'ok'}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", help="git ref of the baseline tree")
    parser.add_argument("--workload", help="a BENCHMARK.json workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--work-dir", default=os.path.join(ROOT, ".bench_build", "perf_ab"),
        help="where the parent tree is extracted (default: %(default)s)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.workload or args.pairs < 1:
        parser.error("--parent, --workload and --pairs >= 1 are required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = metric_spec(json.load(f))
    parent_tree, commit = extract_parent(args.parent,
                                         os.path.abspath(args.work_dir))
    trees = {"parent": parent_tree, "change": ROOT}
    print(f"perf_ab: parent {args.parent} ({commit[:12]}) vs working tree, "
          f"{args.workload}, {args.pairs} pairs of {args.seconds} s, "
          f"trace {args.trace}", flush=True)

    results = {"parent": [], "change": []}
    for seed, first, second in run_order(args.pairs):
        for side in (first, second):
            values = run_bench(trees[side], args.workload, seed,
                               args.seconds, args.trace)
            results[side].append(values)
            status = "failed" if values is None else "ok"
            print(f"perf_ab: seed {seed} {side} {status}", flush=True)

    failed = {side: sum(v is None for v in runs)
              for side, runs in results.items()}
    print(f"perf_ab: failed runs: parent {failed['parent']}, "
          f"change {failed['change']}")
    print(format_rows(summarize(spec, results["parent"],
                                results["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
