#!/usr/bin/env bash
# One-command verification gate. Runs, in order:
#
#   1. plain build      Release, library -Werror (the nodiscard sweep and
#                       warning set are enforced here), full tier-1 ctest
#   2. lint             ctest -L lint in the same tree (rule unit tests +
#                       the cqcs_lint sweep over src/ + tools/)
#   3. sanitizers       the ROADMAP.md sanitizer map: -L serve, -L poly,
#                       -L solver-parallel and -L robust under TSan,
#                       -L durable under ASan and UBSan, -L robust, -L poly
#                       and -L engine under ASan (the treewidth DP is index
#                       arithmetic)
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

if [ "$QUICK" -eq 1 ]; then
  echo
  echo "OK (quick: sanitizer suites skipped)"
  exit 0
fi

# ---- 3. sanitizer map (ROADMAP.md) ----------------------------------------
# label-regex pairs per sanitizer; serve and solver-parallel are the
# thread-heavy nets, robust trips governed searches whose workers run on the
# shared pool, durable parses arbitrarily corrupt bytes, and poly does
# saturating count arithmetic and hash-chain index arithmetic.
sanitize_step() {
  local sanitizer="$1" labels="$2"
  local dir="build-check-$sanitizer"
  step "sanitizer: $sanitizer (labels: $labels)"
  run cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCQCS_SANITIZE="$sanitizer" || return 1
  run cmake --build "$dir" -j "$JOBS" || return 1
  run ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -L "$labels"
}

sanitize_step thread "serve|solver-parallel|poly|robust"
sanitize_step address "durable|robust|poly|engine"
sanitize_step undefined "durable|poly"

echo
if [ "$FAILED" -ne 0 ]; then
  echo "FAILED: at least one step above failed"
  exit 1
fi
echo "OK (all gates passed)"
