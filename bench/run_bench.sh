#!/usr/bin/env bash
# Runs the benchmark suite with fixed seeds and writes two merged
# google-benchmark JSON files, so successive PRs leave a comparable perf
# trajectory:
#
#   BENCH_solver.json   the solver/backends trajectory: the PR 1 hardness
#                       series, PR 2 search strategies (CBJ / dom-wdeg /
#                       restarts), PR 3 work-stealing parallel scaling, PR 4
#                       front-door routing (kAuto vs raw uniform, plus the
#                       governed arm whose delta is the governance
#                       overhead), PR 5 polynomial backends (task-by-task
#                       Yannakakis, hash-indexed treewidth DP).
#   BENCH_serving.json  the PR 7 serving-layer series: cache-mode and
#                       distribution sweeps (uniform / zipfian / self-
#                       similar) over read-heavy and update-heavy mixes,
#                       with p50/p95/p99 latency, throughput, and cache hit
#                       rates as counters; plus the PR 8 durable arm, the
#                       same update-heavy mix WAL-backed under
#                       fsync=always / interval / never; plus the
#                       concurrent-clients arm, 1/2/4/8 client threads on
#                       the result-hit path at zipfian 0.5 and 0.99.
#
# Each merged file's .context.host records the hardware and build the
# numbers came from — nproc, compiler, build type, git sha — because the
# parallel and serving series are only comparable across machines with that
# context attached.
#
# Usage: bench/run_bench.sh [--quick] [build-dir] [solver-output.json]
#   --quick   reduced series + minimal min_time, for CI smoke use: checks
#             that every bench binary still runs and emits valid JSON
#             without burning minutes on statistics.
#
# Requires a configured build with CQCS_BUILD_BENCHMARKS=ON (needs the
# google-benchmark package; the CMake config skips bench/ without it).
#
# Any bench binary crashing (or emitting unparsable JSON) aborts the script
# with a non-zero exit: a partial output would silently poison the perf
# trajectory.

set -euo pipefail

QUICK=0
ARGS=()
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) ARGS+=("$arg") ;;
  esac
done

BUILD_DIR="${ARGS[0]:-build}"
SOLVER_OUT="${ARGS[1]:-BENCH_solver.json}"
SERVING_OUT="BENCH_serving.json"

SOLVER_BINS=(bench_hardness bench_uniform_boolean bench_acyclic bench_treewidth bench_rel)
SOLVER_FILTER='BM_CliqueIntoRandomGraph|BM_PlantedCliqueRecovery|BM_SparseRefutationFc|BM_Backtracking_NodeThroughput|BM_Horn_Backtracking|BM_CliqueRefutationParallel|BM_PlantedCliqueParallel|BM_EngineAutoVsUniform|BM_YannakakisTask|BM_TreewidthDpIndexed|BM_TreewidthAutoRoute|BM_Decomposition_MinFill|BM_ProbeBatch'
SERVING_BINS=(bench_serving)
SERVING_FILTER='BM_ServingReadHeavy|BM_ServingUpdateHeavy|BM_ServingDurableUpdateHeavy|BM_ServingHitPathClients'
MIN_TIME="${BENCH_MIN_TIME:-0.2}"
if [[ "$QUICK" == 1 ]]; then
  # Smoke series: one cheap entry per binary plus the parallel scaling
  # series (its correctness under load is exactly what CI should smoke),
  # and for serving the disabled-vs-full-cache pair at zipfian 0.99 (the
  # pair the headline speedup claim compares) plus the 4-client hit path.
  SOLVER_FILTER='BM_CliqueIntoRandomGraph/3|BM_Backtracking_NodeThroughput/|BM_CliqueRefutationParallel|BM_YannakakisTask_Witness/0/64|BM_YannakakisTask_CountThreads/2/4096|BM_TreewidthDpIndexed_SourceSweep/128|BM_ProbeBatch_Batched/1024'
  SERVING_FILTER='BM_ServingReadHeavy/0/2|BM_ServingReadHeavy/2/2|BM_ServingHitPathClients/99/real_time/threads:4'
  MIN_TIME="${BENCH_MIN_TIME:-0.01}"
fi

cd "$(dirname "$0")/.."

# Hardware/build provenance for cross-machine comparability. Everything is
# best-effort ("unknown") except nproc, which the parallel series cannot be
# interpreted without.
NPROC="$(nproc 2>/dev/null || echo 1)"
COMPILER="$(grep -m1 '^CMAKE_CXX_COMPILER:' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null |
            cut -d= -f2 || true)"
COMPILER_VERSION="$("${COMPILER:-c++}" --version 2>/dev/null | head -1 || echo unknown)"
BUILD_TYPE="$(grep -m1 '^CMAKE_BUILD_TYPE:' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null |
              cut -d= -f2 || echo unknown)"
GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# run_group <output.json> <filter> <bin>...: runs each binary with the
# filter, validates its JSON, then merges all of them (first file's context
# + the host block + concatenated benchmark entries) into the output.
run_group() {
  local out="$1" filter="$2"
  shift 2
  local bins=("$@")
  for bin in "${bins[@]}"; do
    if [[ ! -x "$BUILD_DIR/bench/$bin" ]]; then
      echo "error: $BUILD_DIR/bench/$bin not built (configure with" \
           "CQCS_BUILD_BENCHMARKS=ON and google-benchmark installed)" >&2
      exit 1
    fi
  done
  local jsons=()
  for bin in "${bins[@]}"; do
    if ! "$BUILD_DIR/bench/$bin" \
        --benchmark_filter="$filter" \
        --benchmark_min_time="$MIN_TIME" \
        --benchmark_out="$tmpdir/$bin.json" \
        --benchmark_out_format=json \
        --benchmark_repetitions=1; then
      echo "error: $bin exited non-zero; refusing to write a partial $out" >&2
      exit 1
    fi
    # A crash after the JSON header leaves a truncated file that would merge
    # "successfully" — validate before trusting it.
    if ! jq -e '.benchmarks | length > 0' "$tmpdir/$bin.json" >/dev/null; then
      echo "error: $bin produced invalid or empty benchmark JSON" >&2
      exit 1
    fi
    jsons+=("$tmpdir/$bin.json")
  done
  jq -s --arg nproc "$NPROC" \
        --arg compiler "${COMPILER_VERSION:-unknown}" \
        --arg build_type "${BUILD_TYPE:-unknown}" \
        --arg git_sha "$GIT_SHA" \
        --argjson quick "$QUICK" \
    '{context: (.[0].context + {host: {
          nproc: ($nproc | tonumber),
          compiler: $compiler,
          build_type: $build_type,
          git_sha: $git_sha,
          quick: ($quick == 1)}}),
      benchmarks: (map(.benchmarks) | add)}' \
    "${jsons[@]}" > "$out"
  echo "wrote $out ($(jq '.benchmarks | length' "$out") entries," \
       "nproc=$NPROC, quick=$QUICK)"
}

run_group "$SOLVER_OUT" "$SOLVER_FILTER" "${SOLVER_BINS[@]}"
run_group "$SERVING_OUT" "$SERVING_FILTER" "${SERVING_BINS[@]}"
