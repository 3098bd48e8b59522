#!/usr/bin/env bash
# Runs the benchmark suite with fixed seeds and writes three merged
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
#                       the result-hit path at zipfian 0.5 and 0.99; plus
#                       the durable reads-during-updates arm, three readers'
#                       hit latencies while one writer logs G(512, deg 6)
#                       upserts; plus the WAL encode row, one such upsert
#                       record encoded and framed with no file write; plus
#                       the hit-copy rows, one result-cache hit whose
#                       cached project answer has 1, 64 or 4096 rows.
#   BENCH_paper.json    the paper-claim series E1-E12 (the header of each
#                       bench file names its theorem; docs/architecture.md
#                       maps binaries to results): Schaefer recognition,
#                       defining formulas, the formula vs direct uniform
#                       algorithms, Booleanization, Saraiya containment,
#                       Examples 3.7/3.8, the pebble game, Datalog, the
#                       binary encoding, the hardness slices, plus the
#                       solver and elimination-order ablations.
#
# A binary may sit in two groups with disjoint filters. Before running
# anything (in --quick mode too) the script checks that every
# bench/bench_*.cc binary belongs to a group and that the full filters of
# its groups select each benchmark it registers exactly once: a benchmark
# that no BENCH file records is recorded or deleted, not left to rot.
#
# Each merged file's .context.host records the hardware and build the
# numbers came from — nproc, compiler, build type, git sha, and git_dirty
# (tracked files differed from that sha) — because the
# parallel and serving series are only comparable across machines with that
# context attached.
#
# Usage: bench/run_bench.sh [--quick] [build-dir] [solver-output.json]
#                           [serving-output.json] [paper-output.json]
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
GROUP_NAMES=(solver serving paper)
declare -A OUT=([solver]="${ARGS[1]:-BENCH_solver.json}"
                [serving]="${ARGS[2]:-BENCH_serving.json}"
                [paper]="${ARGS[3]:-BENCH_paper.json}")
declare -A BINS FILTER QUICK_FILTER
BINS[solver]="bench_hardness bench_uniform_boolean bench_acyclic bench_treewidth bench_rel"
FILTER[solver]='BM_CliqueIntoRandomGraph|BM_PlantedCliqueRecovery|BM_SparseRefutationFc|BM_CyclicQueryIntoSparseGraph|BM_Backtracking_NodeThroughput|BM_Horn_Backtracking|BM_CliqueRefutationParallel|BM_PlantedCliqueParallel|BM_EngineAutoVsUniform|BM_YannakakisTask|BM_TreewidthDpIndexed|BM_TreewidthAutoRoute|BM_Decomposition_MinFill|BM_ProbeBatch'
BINS[serving]="bench_serving"
FILTER[serving]='BM_ServingReadHeavy|BM_ServingUpdateHeavy|BM_ServingDurableUpdateHeavy|BM_ServingHitPathClients|BM_ServingHitProjectRows|BM_ServingDurableReadsDuringUpdates|BM_WalEncodeUpsert'
BINS[paper]="bench_recognition bench_formula_build bench_uniform_boolean bench_booleanize bench_saraiya bench_examples_2col bench_pebble bench_datalog bench_binary_encoding bench_treewidth bench_acyclic bench_hardness bench_ablation"
FILTER[paper]='BM_Classify|BM_Build|BM_Horn_Formula|BM_Horn_Direct|BM_Bijunctive_|BM_Affine_Equations|BM_Arity|BM_Booleanize|BM_SaraiyaContainment|BM_GenericContainment|BM_TwoColor_|BM_CspC4_|BM_PebbleGame|BM_Non2ColProgram|BM_RhoB_Evaluation|BM_BinaryEncode|BM_TreewidthDp_WidthSweep|BM_YannakakisEvaluation|BM_CliqueFixedK_GraphSweep|BM_ChainContainment|BM_RandomContainment|BM_Solver_|BM_TwoSat_Scc|BM_Order_'
# Smoke series: one cheap entry per binary plus the parallel scaling
# series (its correctness under load is exactly what CI should smoke),
# the churn-shaped decide and project rows (the semijoin passes' presence
# skip), and for serving the disabled-vs-full-cache pair at zipfian 0.99 (the
# pair the headline speedup claim compares) plus the 4-client hit path and
# the hit-copy rows.
QUICK_FILTER[solver]='BM_CliqueIntoRandomGraph/3|BM_Backtracking_NodeThroughput/|BM_CliqueRefutationParallel|BM_YannakakisTask_Witness/0/64|BM_YannakakisTask_Decide|BM_YannakakisTask_Project|BM_YannakakisTask_CountThreads/2/4096|BM_TreewidthDpIndexed_SourceSweep/128|BM_ProbeBatch_Batched/1024'
QUICK_FILTER[serving]='BM_ServingReadHeavy/0/2|BM_ServingReadHeavy/1/2|BM_ServingReadHeavy/2/2|BM_ServingHitPathClients/99/real_time/threads:4|BM_ServingHitProjectRows|BM_ServingDurableReadsDuringUpdates|BM_WalEncodeUpsert'
QUICK_FILTER[paper]='BM_ClassifyStructure/4$|BM_BuildBijunctive/4$|BM_ArityDirect/4$|BM_Booleanize/4$|BM_SaraiyaContainment/2$|BM_TwoColor_Bfs/65$|BM_PebbleGame_TargetSweep/2$|BM_Non2ColProgram/9$|BM_BinaryEncode/8$|BM_TreewidthDp_WidthSweep/1$|BM_YannakakisEvaluation/32$|BM_ChainContainment/4$|BM_TwoSat_Scc/256$'
MIN_TIME="${BENCH_MIN_TIME:-0.2}"
if [[ "$QUICK" == 1 ]]; then
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
# git_sha stays a plain revision; git_dirty says whether tracked files
# differed from it when the numbers were taken (untracked files ignored).
GIT_DIRTY=false
if [[ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]]; then
  GIT_DIRTY=true
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

require_built() {
  if [[ ! -x "$BUILD_DIR/bench/$1" ]]; then
    echo "error: $BUILD_DIR/bench/$1 not built (configure with" \
         "CQCS_BUILD_BENCHMARKS=ON and google-benchmark installed)" >&2
    exit 1
  fi
}

# run_group <output.json> <filter> <bin>...: runs each binary with the
# filter, validates its JSON, then merges all of them (first file's context
# + the host block + concatenated benchmark entries) into the output.
run_group() {
  local out="$1" filter="$2"
  shift 2
  local bins=("$@")
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
        --argjson git_dirty "$GIT_DIRTY" \
        --argjson quick "$QUICK" \
    '{context: (.[0].context + {host: {
          nproc: ($nproc | tonumber),
          compiler: $compiler,
          build_type: $build_type,
          git_sha: $git_sha,
          git_dirty: $git_dirty,
          quick: ($quick == 1)}}),
      benchmarks: (map(.benchmarks) | add)}' \
    "${jsons[@]}" > "$out"
  echo "wrote $out ($(jq '.benchmarks | length' "$out") entries," \
       "nproc=$NPROC, quick=$QUICK)"
}

# check_groups: every bench/bench_*.cc binary is in a group, and the full
# filters of its groups select each benchmark it registers exactly once
# (google-benchmark's own filter matching, via --benchmark_list_tests).
check_groups() {
  local bad=0 src bin group all selected missing twice
  for src in bench/bench_*.cc; do
    bin="$(basename "$src" .cc)"
    require_built "$bin"
    selected=""
    for group in "${GROUP_NAMES[@]}"; do
      if [[ " ${BINS[$group]} " == *" $bin "* ]]; then
        selected+="$("$BUILD_DIR/bench/$bin" --benchmark_list_tests \
                       --benchmark_filter="${FILTER[$group]}" 2>/dev/null)"$'\n'
      fi
    done
    if [[ -z "$selected" ]]; then
      echo "error: $bin belongs to no group in bench/run_bench.sh" >&2
      bad=1
      continue
    fi
    all="$("$BUILD_DIR/bench/$bin" --benchmark_list_tests | sort)"
    selected="$(sed '/^$/d' <<< "$selected" | sort)"
    missing="$(comm -23 <(echo "$all") <(uniq <<< "$selected"))"
    twice="$(uniq -d <<< "$selected")"
    if [[ -n "$missing" ]]; then
      echo "error: no group's full filter selects these $bin benchmarks" \
           "(record or delete them):" $missing >&2
      bad=1
    fi
    if [[ -n "$twice" ]]; then
      echo "error: two groups record these $bin benchmarks:" $twice >&2
      bad=1
    fi
  done
  return "$bad"
}

check_groups
for group in "${GROUP_NAMES[@]}"; do
  filter="${FILTER[$group]}"
  [[ "$QUICK" == 1 ]] && filter="${QUICK_FILTER[$group]}"
  # shellcheck disable=SC2086  # BINS holds a space-separated list
  run_group "${OUT[$group]}" "$filter" ${BINS[$group]}
done
