#!/usr/bin/env bash
# Regression net for the hom_tool exit-code contract (the header comment of
# examples/hom_tool.cpp):
#
#   0  "yes" / an answer was produced (incl. count=0, empty enumeration)
#   1  a definite "no" (decide/witness), or a usage problem (unknown
#      subcommand, unknown or malformed flag)
#   2  an error: unreadable file, parse failure, engine refusal (an
#      explicitly requested backend that cannot serve the instance or task)
#   3  a resource budget exhausted before an answer
#
# The matrix below runs every --task x --backend combination, ungoverned
# and governed (a never-tripping budget must not change any code), over
# four instances chosen to hit every semantic cell:
#
#   yes      acyclic source, non-Boolean target, homomorphism exists
#   no       CYCLIC source (acyclic backend must refuse with 2),
#            non-Boolean target, no homomorphism
#   boolyes  acyclic source, Boolean target, homomorphism exists
#   boolno   acyclic source, Boolean target, no homomorphism
#
# plus dedicated arms for budget exhaustion (3), bad flags (1), unreadable
# files (2), and usage (1). Every matrix and budget cell runs once more with
# --explain, and the JSON record it prints must parse (jq -e .), as must the
# `stats` reply of a serve session; without jq those parse checks are
# skipped with a note.
#
# Usage: hom_tool_exit_codes.sh <path-to-hom_tool>

set -u

HOM_TOOL="${1:?usage: hom_tool_exit_codes.sh <path-to-hom_tool>}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# yes: directed path (acyclic) into a directed triangle.
printf 'universe 4\nE/2: 0 1, 1 2, 2 3\n' > "$tmp/path.struct"
printf 'universe 3\nE/2: 0 1, 1 2, 2 0\n' > "$tmp/tri.struct"
# boolyes: a Boolean edge into the full Boolean relation.
printf 'universe 2\nE/2: 0 1\n' > "$tmp/bsrc.struct"
printf 'universe 2\nE/2: 0 0, 0 1, 1 0, 1 1\n' > "$tmp/bfull.struct"
# boolno: a loop needs (x, x) in the target, which only has (0, 1).
printf 'universe 1\nE/2: 0 0\n' > "$tmp/bloop.struct"
printf 'universe 2\nE/2: 0 1\n' > "$tmp/bedge.struct"
# Budget-trip instance: a 6-edge path query against a 4000-node graph with
# 40k edges — the acyclic backend's governed tables blow a 1 MiB budget
# deterministically (six 40k-row atom tables alone hold ~1.9 MiB).
printf 'universe 7\nE/2: 0 1, 1 2, 2 3, 3 4, 4 5, 5 6\n' > "$tmp/p6.struct"
awk 'BEGIN {
  printf "universe 4000\nE/2:"; sep = "";
  split("1 3 7 11 13 17 19 23 29 31", d, " ");
  for (i = 0; i < 4000; i++)
    for (k = 1; k <= 10; k++) {
      printf "%s %d %d", sep, i, (i + d[k]) % 4000; sep = ",";
    }
  printf "\n"
}' > "$tmp/big.struct"

fail=0
expect() {
  local desc="$1" want="$2"
  shift 2
  "$@" >/dev/null 2>&1
  local got=$?
  if [[ "$got" != "$want" ]]; then
    echo "FAIL [$desc]: expected exit $want, got $got: $*" >&2
    fail=1
  fi
}

HAVE_JQ=0
if command -v jq >/dev/null 2>&1; then
  HAVE_JQ=1
else
  echo "skipped: jq not found; the --explain and stats JSON is not parsed"
fi

# Like expect, with --explain appended: every answer (exit 0, 1 or 3) also
# prints one JSON record. The records are collected (one jq run parses them
# all at the end; a jq start per cell would cost seconds).
expect_json() {
  local desc="$1" want="$2"
  shift 2
  local out got record
  out="$("$@" --explain 2>/dev/null)"
  got=$?
  record="$(grep '^{' <<< "$out")"
  if [[ "$got" != "$want" ]]; then
    echo "FAIL [$desc/explain]: expected exit $want, got $got: $*" >&2
    fail=1
  elif [[ "$want" == 2 ]]; then
    return
  elif [[ -z "$record" || "$record" == *$'\n'* ]]; then
    echo "FAIL [$desc/explain]: expected one JSON record: $*" >&2
    fail=1
  else
    echo "$record" >> "$tmp/explain.jsonl"
    echo "$desc" >> "$tmp/explain.cells"
  fi
}

# The contract cell for (task, backend, instance), mirroring the engine's
# documented refusals:
#   - acyclic refuses cyclic sources (2);
#   - schaefer refuses non-Boolean targets (2) and only decides/witnesses;
#   - otherwise: decide/witness answer yes->0 / no->1; count/enumerate
#     always produce an answer (possibly 0 rows) -> 0.
expected_code() {
  local task="$1" backend="$2" inst="$3"
  local cyclic_source=0 boolean_target=0 answer_yes=0
  case "$inst" in
    yes)     answer_yes=1 ;;
    no)      cyclic_source=1 ;;
    boolyes) boolean_target=1; answer_yes=1 ;;
    boolno)  boolean_target=1 ;;
  esac
  if [[ "$backend" == acyclic && "$cyclic_source" == 1 ]]; then echo 2; return; fi
  if [[ "$backend" == schaefer && "$boolean_target" == 0 ]]; then echo 2; return; fi
  case "$task" in
    count|enumerate)
      if [[ "$backend" == schaefer ]]; then
        echo 2
      else
        echo 0
      fi
      return ;;
  esac
  if [[ "$answer_yes" == 1 ]]; then echo 0; else echo 1; fi
}

declare -A sources=([yes]=path [no]=tri [boolyes]=bsrc [boolno]=bloop)
declare -A targets=([yes]=tri [no]=path [boolyes]=bfull [boolno]=bedge)

for task in decide witness count enumerate; do
  for backend in auto uniform acyclic schaefer treewidth; do
    for inst in yes no boolyes boolno; do
      want="$(expected_code "$task" "$backend" "$inst")"
      a="$tmp/${sources[$inst]}.struct"
      b="$tmp/${targets[$inst]}.struct"
      expect "$task/$backend/$inst" "$want" \
        "$HOM_TOOL" solve "$a" "$b" "--task=$task" "--backend=$backend"
      # A never-tripping budget must leave every code unchanged: governance
      # is observability, not semantics.
      expect "$task/$backend/$inst/governed" "$want" \
        "$HOM_TOOL" solve "$a" "$b" "--task=$task" "--backend=$backend" \
        --memory-budget-mb=512 --deadline-ms=60000
      expect_json "$task/$backend/$inst" "$want" \
        "$HOM_TOOL" solve "$a" "$b" "--task=$task" "--backend=$backend"
      expect_json "$task/$backend/$inst/governed" "$want" \
        "$HOM_TOOL" solve "$a" "$b" "--task=$task" "--backend=$backend" \
        --memory-budget-mb=512 --deadline-ms=60000
    done
  done
done

# Budget exhaustion: every task exits 3, governed or not by other flags.
for task in decide witness count enumerate; do
  expect "trip/$task" 3 "$HOM_TOOL" solve "$tmp/p6.struct" "$tmp/big.struct" \
    "--task=$task" --backend=acyclic --memory-budget-mb=1
  expect_json "trip/$task" 3 "$HOM_TOOL" solve "$tmp/p6.struct" \
    "$tmp/big.struct" "--task=$task" --backend=acyclic --memory-budget-mb=1
done

# Usage problems -> 1.
expect "bad-flag" 1 "$HOM_TOOL" solve "$tmp/path.struct" "$tmp/tri.struct" --bogus
expect "bad-backend" 1 "$HOM_TOOL" solve "$tmp/path.struct" "$tmp/tri.struct" --backend=magic
expect "bad-task" 1 "$HOM_TOOL" solve "$tmp/path.struct" "$tmp/tri.struct" --task=dream
expect "unknown-subcommand" 1 "$HOM_TOOL" frobnicate
expect "serve-bad-flag" 1 "$HOM_TOOL" serve --max-inflight-mb=many

# Errors -> 2.
expect "missing-file" 2 "$HOM_TOOL" solve "$tmp/nope.struct" "$tmp/tri.struct"
expect "parse-error" 2 "$HOM_TOOL" contains "Q(X :- E(X." "Q(X) :- E(X, Y)."
expect "classify-non-boolean" 2 "$HOM_TOOL" classify "$tmp/tri.struct"

# Answers -> 0.
expect "contains" 0 "$HOM_TOOL" contains "Q(X) :- E(X, Y), E(Y, Z)." "Q(X) :- E(X, Y)."
expect "minimize" 0 "$HOM_TOOL" minimize "Q(X) :- E(X, Y), E(X, Z)."
expect "evaluate" 0 "$HOM_TOOL" evaluate "Q(X) :- E(X, Y)." "$tmp/tri.struct"
expect "classify-boolean" 0 "$HOM_TOOL" classify "$tmp/bfull.struct"

# Serve mode exits 0 on quit/EOF, including after per-request errors.
if ! printf 'db g universe 3; E/2: 0 1, 1 2, 2 0\nquery q Q() :- E(X, Y).\nrun decide q g\nrun decide q missing\nquit\n' \
    | "$HOM_TOOL" serve >/dev/null 2>&1; then
  echo "FAIL [serve-session]: expected exit 0" >&2
  fail=1
fi

# Every collected --explain record parses; on a failure, name the cells.
if [[ "$HAVE_JQ" == 1 ]] && ! jq -e . "$tmp/explain.jsonl" >/dev/null 2>&1; then
  paste -d '\t' "$tmp/explain.cells" "$tmp/explain.jsonl" |
    while IFS=$'\t' read -r desc record; do
      jq -e . <<< "$record" >/dev/null 2>&1 ||
        echo "FAIL [$desc/explain]: unparsable JSON: $record" >&2
    done
  fail=1
fi

# The stats reply is one JSON record.
if [[ "$HAVE_JQ" == 1 ]]; then
  out="$(printf 'db g universe 3; E/2: 0 1, 1 2, 2 0\nquery q Q() :- E(X, Y).\nrun decide q g\nrun decide q g\nrun decide q missing\nstats\nquit\n' \
          | "$HOM_TOOL" serve 2>/dev/null)"
  if ! grep '^{' <<< "$out" | jq -e '.requests == 3' >/dev/null; then
    echo "FAIL [serve-stats-json]: out: $out" >&2
    fail=1
  fi
fi

# New serve flags reject malformed values with a usage error (1).
expect "serve-bad-fsync" 1 "$HOM_TOOL" serve --fsync=sometimes
expect "serve-bad-fsync-interval" 1 "$HOM_TOOL" serve --fsync-interval-ms=soon
expect "serve-bad-snapshot-every" 1 "$HOM_TOOL" serve --snapshot-every=often
expect "serve-bad-poison-strikes" 1 "$HOM_TOOL" serve --poison-strikes=-3

# ------------------------------------------------ serve protocol edge cases ---
# Degenerate input lines must each get a clean protocol error (or a clean
# parse of what was actually sent) and leave the session serving; none may
# crash, hang, or silently alter the line.

# An oversized (> 1 MiB) line is refused with a protocol error, and the
# session resynchronizes on the next line.
out="$( { printf 'db big universe 3; E/2:'
          awk 'BEGIN { for (i = 0; i < 220000; i++) printf " 0 1,"; print " 1 2" }'
          printf 'db ok universe 2; E/2: 0 1\nquit\n'; } \
        | "$HOM_TOOL" serve 2>/dev/null )"
code=$?
if [[ "$code" != 0 ]] \
    || ! grep -q '^error: protocol line exceeds' <<< "$out" \
    || ! grep -q '^ok db ok' <<< "$out"; then
  echo "FAIL [serve-oversized-line]: exit $code, out: $out" >&2
  fail=1
fi

# An embedded NUL byte cannot truncate the line into a different command;
# it is refused outright and the session continues.
out="$(printf 'db evil universe 2; E/2: 0 1\0trailing-garbage\ndb ok universe 2; E/2: 0 1\nquit\n' \
        | "$HOM_TOOL" serve 2>/dev/null)"
code=$?
if [[ "$code" != 0 ]] \
    || ! grep -q '^error: protocol line contains an embedded NUL' <<< "$out" \
    || ! grep -q '^ok db ok' <<< "$out"; then
  echo "FAIL [serve-embedded-nul]: exit $code, out: $out" >&2
  fail=1
fi

# CRLF line endings parse as if the \r were not there.
out="$(printf 'db w universe 2; E/2: 0 1\r\ndump w\r\nquit\r\n' \
        | "$HOM_TOOL" serve 2>/dev/null)"
code=$?
if [[ "$code" != 0 ]] || ! grep -q '^ok dump w universe 2;E/2: 0 1;$' <<< "$out"; then
  echo "FAIL [serve-crlf]: exit $code, out: $out" >&2
  fail=1
fi

# EOF mid-line: the partial final line is still a command (the sender
# died after writing it), and the session then exits 0.
out="$(printf 'db p universe 2; E/2: 0 1\ndump p' | "$HOM_TOOL" serve 2>/dev/null)"
code=$?
if [[ "$code" != 0 ]] || ! grep -q '^ok dump p' <<< "$out"; then
  echo "FAIL [serve-eof-mid-line]: exit $code, out: $out" >&2
  fail=1
fi

if [[ "$fail" == 0 ]]; then
  echo "hom_tool exit-code contract: all cells PASS"
else
  exit 1
fi
