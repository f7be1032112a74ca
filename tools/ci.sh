#!/usr/bin/env bash
# CI driver — the full static-analysis and sanitizer matrix
# (DESIGN.md, "Static analysis & sanitizer matrix"):
#
#   1. Release build + full test suite + a check that neither wide-ISA
#      kernel object (AVX2, AVX-512F) holds an FMA instruction + lint
#      leg (buffalo_lint over src/ and the ci.sh expectation lists) +
#      observability smoke epoch gated by obs_validate (trace,
#      metrics, JSONL run log, memory-audit error bound) + one-epoch
#      GCN and GAT smokes gated on the `@core` run-log events +
#      serving smoke (short fixed-QPS buffalo_serve run asserting
#      nonzero goodput and zero errors, gated by obs_validate
#      `@serve`) + buffalo_profile critical-path gates over the
#      observability and serving smokes' artifacts (all stages
#      present, dominant stage identified, overlap efficiency in
#      (0, 1]) + bench-smoke, bench-kernels (its log names the SIMD
#      lane the host resolved), bench-fig12, bench-fig11, bench-serve
#      and bench-pipeline regression legs gated by bench_diff against
#      the committed baselines. The observability and serving smokes
#      enable the feature cache with the presample policy and expect
#      the `@cache` observability names.
#   2. Scalar build + tests with -DBUFFALO_SIMD=OFF: the wide-ISA
#      kernel path is compiled out, so the dispatch must fall back to
#      scalar lanes and every bitwise-determinism sweep must still
#      hold (the SIMD and scalar paths promise identical bytes).
#   3. ThreadSanitizer build + tests (cheap races in
#      StageQueue/Prefetcher show up here long before they show up in
#      production runs).
#   4. AddressSanitizer+UBSan build + tests (lifetime and
#      undefined-behavior bugs in the tensor/graph kernels).
#
# Sanitizer legs build at the widest SIMD the target has (the
# BUFFALO_SIMD=ON default) so lane loads/stores and the pack-buffer
# indexing run under both tools, and exclude the `perf` CTest label:
# those tests compare measured wall-clock between runs, which
# sanitizer interception slows too unevenly to keep meaningful. The
# scalar leg also skips `perf` — its bench baselines were recorded
# with SIMD on.
#
# Usage: tools/ci.sh [build-dir-prefix]
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-ci}"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "=== Release build + tests ==="
cmake -B "${prefix}-release" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${prefix}-release" -j "${jobs}"
ctest --test-dir "${prefix}-release" --output-on-failure -j "${jobs}"

echo "=== No FMA in the wide-ISA objects ==="
# The determinism contract forbids fused multiply-adds: every lane
# rounds its multiply and its add separately, like the scalar path.
# Neither -mavx2 nor -mavx512f implies -mfma in GCC 12, but AVX-512F
# carries its own zmm FMAs, so a stray intrinsic or a contraction
# would not fail the build. On x86-64 both per-ISA objects must exist
# and hold no vfmadd/vfmsub/vfnmadd/vfnmsub instruction.
if [[ "$(uname -m)" == "x86_64" ]]; then
    objs_dir="${prefix}-release/src/tensor/CMakeFiles"
    wide_objs=("${objs_dir}"/buffalo_wide_*.dir/kernels_simd.cpp.o)
    if [[ ${#wide_objs[@]} -ne 2 || ! -f "${wide_objs[0]}" ]]; then
        echo "expected the avx2 and avx512f kernel objects," \
            "found: ${wide_objs[*]}"
        exit 1
    fi
    for obj in "${wide_objs[@]}"; do
        fma_count="$(objdump -d --no-show-raw-insn "${obj}" |
            grep -cE 'vfn?m(add|sub)' || true)"
        echo "${obj}: ${fma_count} FMA instructions"
        if [[ "${fma_count}" -ne 0 ]]; then
            exit 1
        fi
    done
fi

echo "=== Project lint ==="
# The linter scans src/, tools/, bench/, and tests/ and writes the
# machine-readable report (rule, file:line, severity, waiver status)
# next to the build artifacts. It exits non-zero on any non-waived
# finding, so this line is the gate; the report is the archive. The
# waiver count is printed so reviewers can watch it — it may only go
# down.
"${prefix}-release/tools/buffalo_lint" --root . \
    --json-out "${prefix}-release/lint_report.json"
python3 - "${prefix}-release/lint_report.json" <<'PY'
import json, sys
counts = json.load(open(sys.argv[1]))["counts"]
print(f"lint report: {counts['total']} findings "
      f"({counts['active']} active, {counts['waived']} waived)")
PY

echo "=== Observability smoke epoch ==="
obs_dir="${prefix}-release/obs-smoke"
mkdir -p "${obs_dir}"
"${prefix}-release/tools/buffalo_train" \
    --dataset arxiv --scale 0.1 --epochs 1 --batch-size 16 \
    --aggregator lstm --hidden 32 --budget-mb 8 \
    --pipeline --feature-cache-mb 8 \
    --cache-policy presample --presample-batches 4 \
    --kernel-threads 2 \
    --trace-out "${obs_dir}/trace.json" \
    --metrics-json "${obs_dir}/metrics.json" \
    --run-log "${obs_dir}/run.jsonl" \
    --audit-json "${obs_dir}/audit.json"
# `@core` / `@cache` expand inside obs_validate to the central
# expectation lists in src/obs/names.h, so renames cannot drift past
# CI (`@cache` because the smoke enables the presample cache policy).
# The audit bound needs the LSTM aggregator (the cost model the
# Eq. 1-2 estimator is calibrated against) and a budget tight enough
# to split batches — mean-aggregator runs at tiny scale under-saturate
# Eq. 1 and over-predict well past 25%; see EXPERIMENTS.md ("Known
# scale artifacts"). Batches of 16 give 10 batches, one more than the
# pipeline's 9-batch queue window at prefetch depth 2, so the overlap
# model and the critical path see a real pipeline, not one batch.
"${prefix}-release/tools/obs_validate" \
    --trace "${obs_dir}/trace.json" \
    --expect-spans "@core" \
    --metrics "${obs_dir}/metrics.json" \
    --expect-metrics "@core,@cache,@cp" \
    --run-log "${obs_dir}/run.jsonl" \
    --expect-events "@core,@cache,@cp" \
    --audit "${obs_dir}/audit.json" \
    --max-audit-error 0.25
# Critical-path gate: reassemble the smoke epoch's causal span
# chains and require a sane bottleneck report — every pipeline
# stage present, a dominant stage identified, overlap efficiency
# in (0, 1] (DESIGN.md, "Critical-path attribution").
"${prefix}-release/tools/buffalo_profile" \
    --trace "${obs_dir}/trace.json" \
    --run-log "${obs_dir}/run.jsonl" \
    --metrics "${obs_dir}/metrics.json" \
    --json-out "${obs_dir}/profile.json" \
    --check --expect-stages \
    "pipeline.sample,pipeline.build,pipeline.feature,train.iteration"

echo "=== GCN and GAT smoke epochs ==="
# The smoke above trains GraphSAGE only; one serial epoch of each other
# architecture drives the same layer-stack model and scheduled-batch
# runner through every layer op, gated on the core run-log events.
for model in gcn gat; do
    "${prefix}-release/tools/buffalo_train" \
        --dataset arxiv --scale 0.1 --epochs 1 --batch-size 256 \
        --model "${model}" --hidden 32 --budget-mb 16 \
        --kernel-threads 2 \
        --run-log "${obs_dir}/run-${model}.jsonl"
    "${prefix}-release/tools/obs_validate" \
        --run-log "${obs_dir}/run-${model}.jsonl" \
        --expect-events "@core"
done

echo "=== Serving smoke ==="
serve_dir="${prefix}-release/serve-smoke"
mkdir -p "${serve_dir}"
# Short fixed-QPS run: --require-goodput makes buffalo_serve exit
# non-zero unless goodput > 0 with zero errors/failed requests, so
# this leg asserts the whole admission -> batch -> blockgen ->
# forwardInference path works under concurrency. `@serve` expands to
# the serve expectation lists in src/obs/names.h.
"${prefix}-release/tools/buffalo_serve" \
    --dataset cora --scale 0.5 --qps 200 --clients 2 \
    --duration-s 2 --deadline-ms 200 \
    --workers 2 --prep-threads 2 --kernel-threads 2 \
    --feature-cache-mb 4 \
    --cache-policy presample --presample-batches 4 \
    --trace-out "${serve_dir}/trace.json" \
    --metrics-json "${serve_dir}/metrics.json" \
    --run-log "${serve_dir}/run.jsonl" \
    --require-goodput
"${prefix}-release/tools/obs_validate" \
    --trace "${serve_dir}/trace.json" \
    --expect-spans "@serve" \
    --metrics "${serve_dir}/metrics.json" \
    --expect-metrics "@serve,@cache" \
    --run-log "${serve_dir}/run.jsonl" \
    --expect-events "@serve,@cache"
# Critical-path gate over the serve smoke: per-plan prep -> forward
# chains must reassemble into a sane bottleneck report.
"${prefix}-release/tools/buffalo_profile" \
    --trace "${serve_dir}/trace.json" \
    --run-log "${serve_dir}/run.jsonl" \
    --metrics "${serve_dir}/metrics.json" \
    --json-out "${serve_dir}/profile.json" \
    --check --expect-stages "serve.prep,serve.forward"

echo "=== Bench-smoke regression gate ==="
bench_dir="${prefix}-release/bench-smoke"
mkdir -p "${bench_dir}"
BUFFALO_BENCH_DIR="${bench_dir}" "${prefix}-release/bench/bench_smoke"
"${prefix}-release/tools/bench_diff" \
    bench/baselines/BENCH_smoke.json \
    "${bench_dir}/BENCH_smoke.json"
BUFFALO_BENCH_DIR="${bench_dir}" \
    "${prefix}-release/bench/bench_kernels" |
    tee "${bench_dir}/bench_kernels.log"
# The lane the kernel floors were measured on: the widest this host
# runs (simdIsaName(), "avx512" or "avx2" on x86-64).
simd_lane="$(grep '^simd:' "${bench_dir}/bench_kernels.log")"
echo "bench-kernels SIMD lane: ${simd_lane#simd: }"
"${prefix}-release/tools/bench_diff" \
    bench/baselines/BENCH_kernels.json \
    "${bench_dir}/BENCH_kernels.json"
BUFFALO_BENCH_DIR="${bench_dir}" \
    "${prefix}-release/bench/bench_serve"
"${prefix}-release/tools/bench_diff" \
    bench/baselines/BENCH_serve.json \
    "${bench_dir}/BENCH_serve.json"
BUFFALO_BENCH_DIR="${bench_dir}" \
    "${prefix}-release/bench/bench_pipeline"
"${prefix}-release/tools/bench_diff" \
    bench/baselines/BENCH_pipeline.json \
    "${bench_dir}/BENCH_pipeline.json"
# Block-generation gate: the in-run parallel-construction speedup
# (flat-table generator on a 4-worker pool vs the pre-rewrite
# hash-map reference) plus the Figure-12 summary. The empty filter
# skips the google-benchmark loops; the gated numbers come from the
# direct measurements.
BUFFALO_BENCH_DIR="${bench_dir}" \
    "${prefix}-release/bench/bench_fig12_blockgen" \
    --benchmark_filter='^$'
"${prefix}-release/tools/bench_diff" \
    bench/baselines/BENCH_fig12.json \
    "${bench_dir}/BENCH_fig12.json"
# Scheduler gate: cone walks per products-sim schedule (exact) and the
# in-run 4-worker vs 1-worker scheduling speedup (one-sided floor,
# plans checked byte-identical) from the Figure-11 breakdown.
BUFFALO_BENCH_DIR="${bench_dir}" \
    "${prefix}-release/bench/bench_fig11_breakdown"
"${prefix}-release/tools/bench_diff" \
    bench/baselines/BENCH_fig11.json \
    "${bench_dir}/BENCH_fig11.json"

echo "=== Scalar (BUFFALO_SIMD=OFF) build + tests ==="
# The same tree with the wide-ISA TU compiled as scalar lanes: the
# dispatch layer must route every kernel to the scalar path and the
# full determinism suite must pass untouched. --kernel-simd on is
# rejected in this configuration (covered by the unit tests, which
# key off kernels::simdAvailable()).
cmake -B "${prefix}-scalar" -S . -DCMAKE_BUILD_TYPE=Release \
    -DBUFFALO_SIMD=OFF
cmake --build "${prefix}-scalar" -j "${jobs}"
ctest --test-dir "${prefix}-scalar" --output-on-failure \
    -j "${jobs}" -LE perf

echo "=== ThreadSanitizer build + tests ==="
cmake -B "${prefix}-tsan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBUFFALO_SANITIZE=thread -DBUFFALO_SIMD=ON
cmake --build "${prefix}-tsan" -j "${jobs}"
ctest --test-dir "${prefix}-tsan" --output-on-failure -j "${jobs}" \
    -LE perf

echo "=== AddressSanitizer+UBSan build + tests ==="
cmake -B "${prefix}-asan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBUFFALO_SANITIZE=address,undefined -DBUFFALO_SIMD=ON
cmake --build "${prefix}-asan" -j "${jobs}"
ctest --test-dir "${prefix}-asan" --output-on-failure -j "${jobs}" \
    -LE perf

echo "=== ci.sh: all green ==="
