#!/usr/bin/env bash
# One-command verification gate. Runs, in order:
#
#   1. plain build      Release, library -Werror (the nodiscard sweep and
#                       warning set are enforced here), full tier-1 ctest
#   2. lint             ctest -L lint in the same tree (rule unit tests +
#                       the cqcs_lint sweep over src/ + tools/)
#      bench smoke      bench/run_bench.sh --quick over the same tree, into
#                       a temp dir (the committed BENCH files stay as
#                       they are): runs every bench binary once and checks
#                       that each benchmark is in a recorded group; skipped
#                       when the bench binaries were not built (no
#                       google-benchmark package)
#   3. sanitizers       the ROADMAP.md sanitizer map: -L serve, -L poly,
#                       -L solver-parallel and -L robust under TSan,
#                       -L durable, -L poly, -L engine and -L solver under
#                       UBSan (the engine route reaches the treewidth
#                       count's saturating arithmetic), -L durable,
#                       -L robust, -L poly, -L engine, -L solver and
#                       -L serve under ASan (the bag joins and the solver's
#                       support walk are index arithmetic, and atom tables
#                       borrow the storage of databases the serving layer
#                       shares and replaces)
#
# `--quick` stops after step 2 — the sanitizer builds triple the wall time
# and exist to gate merges, not edit-compile loops.
#
# Build trees are kept (build-check, build-check-tsan, ...) so re-runs are
# incremental. Exit nonzero at the first failing step.

set -u

cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "usage: scripts/check.sh [--quick]" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 2)"
FAILED=0

step() {
  echo
  echo "==== $* ===="
}

run() {
  "$@"
  local rc=$?
  if [ $rc -ne 0 ]; then
    echo "FAILED (exit $rc): $*" >&2
    FAILED=1
  fi
  return $rc
}

# ---- 1. plain build + tier-1 tests ----------------------------------------
step "build (Release, -Werror library)"
run cmake -B build-check -S . -DCMAKE_BUILD_TYPE=Release || exit 1
run cmake --build build-check -j "$JOBS" || exit 1

step "tier-1 ctest"
run ctest --test-dir build-check --output-on-failure -j "$JOBS" || exit 1

# ---- 2. lint ---------------------------------------------------------------
step "lint (ctest -L lint)"
run ctest --test-dir build-check --output-on-failure -L lint || exit 1

step "bench smoke (run_bench.sh --quick)"
if [ -x build-check/bench/bench_serving ]; then
  bench_tmp="$(mktemp -d)"
  run bench/run_bench.sh --quick build-check "$bench_tmp/solver.json" \
      "$bench_tmp/serving.json" "$bench_tmp/paper.json"
  bench_rc=$?
  rm -rf "$bench_tmp"
  [ $bench_rc -eq 0 ] || exit 1
else
  echo "skipped: build-check/bench not built (needs google-benchmark)"
fi

if [ "$QUICK" -eq 1 ]; then
  echo
  echo "OK (quick: sanitizer suites skipped)"
  exit 0
fi

# ---- 3. sanitizer map (ROADMAP.md) ----------------------------------------
# label-regex pairs per sanitizer; serve and solver-parallel are the
# thread-heavy nets, robust trips governed searches whose workers run on the
# shared pool, durable parses arbitrarily corrupt bytes, poly does
# saturating count arithmetic and hash-chain index arithmetic, solver's
# support walk indexes residue and scratch words by computed offsets, and
# serve under ASan catches an atom-table view that outlives the database
# version it borrows from (ServingEngine shares a database across clients
# and replaces it on update).
#
# Extra arguments go to ctest. The solver-parallel row runs each test up to
# three times (stopping at the first failure): the worker/pool handshake is
# timing-dependent, and one clean pass under TSan can miss an interleaving.
sanitize_step() {
  local sanitizer="$1" labels="$2"
  shift 2
  local dir="build-check-$sanitizer"
  step "sanitizer: $sanitizer (labels: $labels${*:+; $*})"
  run cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCQCS_SANITIZE="$sanitizer" || return 1
  run cmake --build "$dir" -j "$JOBS" || return 1
  run ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -L "$labels" "$@"
}

sanitize_step thread "serve|poly|robust"
sanitize_step thread "solver-parallel" --repeat until-fail:3
sanitize_step address "durable|robust|poly|engine|solver|serve"
sanitize_step undefined "durable|poly|engine|solver"

echo
if [ "$FAILED" -ne 0 ]; then
  echo "FAILED: at least one step above failed"
  exit 1
fi
echo "OK (all gates passed)"
