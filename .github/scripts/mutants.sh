#!/usr/bin/env bash
# Runs the checked-in mutant corpus, `tests/mutants/*.patch`.
#
#   .github/scripts/mutants.sh [--census] [PATCH...]
#
# Each patch is a minimal diff against HEAD that plants one bug. Its header,
# the lines before the first `diff --git` (which `git apply` skips), says
# what the bug is and which tests must kill it:
#
#   Mutant: what the patch breaks, in one line
#   Backs:  the change whose claim it backs
#   Kill:   CARGO-TEST-ARGS TEST-NAME      e.g. `--test spec spec_name`,
#                                          `-p coord --lib abd::tests::name`
#   Witness: FILE.sched                    a schedule beside the patch: under
#                                          the patch, `scfs-check explore` of
#                                          its scenario and seed at the smoke
#                                          budget must find a violation (exit
#                                          1) and shrink it to exactly this
#                                          file, which must then replay
#
# The patches are applied one at a time to one scratch `git worktree` of
# HEAD, `$TMPDIR/scfs-mutants`, built into `$TMPDIR/scfs-mutants-target` (or
# `$CARGO_TARGET_DIR`, if set). Both stay for the next run, which checks the
# worktree out at the new HEAD and rebuilds only what changed;
# `git worktree remove --force "$TMPDIR/scfs-mutants"` drops the worktree.
# By default each patch runs only its own killers, each as
# `cargo test ARGS -- --exact NAME` in the debug profile. The run fails when
# a patch no longer applies or no longer builds, when a `Kill:` line names
# no test, when a killer passes (the mutant survives it), or when a witness
# is not found, not shrunk to itself or does not replay.
#
# `--census` runs all of tier-1 (`cargo test --no-fail-fast`) against each
# patch instead, prints the tests that fail under it, and ends with, for
# every test that fails under some patch, the mutants only that test kills.
# A census fails only on a patch that does not apply or build, or that
# nothing kills.
set -uo pipefail

repo="$(git rev-parse --show-toplevel)"
wt="${TMPDIR:-/tmp}/scfs-mutants"
target="${CARGO_TARGET_DIR:-${TMPDIR:-/tmp}/scfs-mutants-target}"
export CARGO_TARGET_DIR="$target"
census=0
patches=()
for arg in "$@"; do
  case "$arg" in
    --census) census=1 ;;
    -*) echo "usage: $0 [--census] [PATCH...]" >&2; exit 2 ;;
    *) patches+=("$(realpath "$arg")") ;;
  esac
done
if [ "${#patches[@]}" -eq 0 ]; then
  patches=("$repo"/tests/mutants/*.patch)
fi

if git -C "$wt" rev-parse --git-dir >/dev/null 2>&1; then
  git -C "$wt" checkout -q -f --detach "$(git -C "$repo" rev-parse HEAD)"
else
  rm -rf "$wt"
  git -C "$repo" worktree prune
  git -C "$repo" worktree add -q --detach "$wt" HEAD || exit 2
fi

# Runs one `Kill:` line against the patched tree; prints why it did not
# kill, if it did not. Returns 0 when it killed.
kill_with() {
  local line="$1" log name="${1##* }" args="${1% *}"
  log="$(mktemp)"
  # shellcheck disable=SC2086
  cargo test -q --no-run $args >"$log" 2>&1 || { echo "does not build: $(grep -m3 '^error' "$log")"; rm -f "$log"; return 1; }
  # shellcheck disable=SC2086
  timeout 900 cargo test -q $args -- --exact "$name" >"$log" 2>&1
  local rc=$?
  if grep -q 'test result: .* 0 passed; 0 failed' "$log"; then
    echo "\`Kill: $line\` names no test"; rm -f "$log"; return 1
  fi
  rm -f "$log"
  [ "$rc" -ne 0 ] || { echo "survives \`$line\`"; return 1; }
}

# Checks one `Witness:` schedule against the patched tree: exploring its
# scenario and seed finds a violation and shrinks it to this very file, and
# the file replays. Prints why not, if not; returns 0 when all hold.
witness() {
  local sched="$1" base out rc why=""
  base="$(basename "$sched")"
  cargo build -q -p check 2>/dev/null || { echo "scfs-check does not build"; return 1; }
  out="$(mktemp)"
  timeout 900 "$target/debug/scfs-check" explore --budget smoke \
    --scenario "$(sed -n 's/^scenario: *//p' "$sched")" \
    --seed "$(sed -n 's/^seed: *//p' "$sched")" \
    --emit-schedule "$out" >/dev/null 2>&1
  rc=$?
  if [ "$rc" -ne 1 ]; then
    why="explore for witness $base exits $rc, not 1 (a violation)"
  elif ! cmp -s "$out" "$sched"; then
    why="explore shrinks to another schedule than witness $base: $(diff "$sched" "$out" | grep '^[<>]' | tr '\n' ' ')"
  elif ! "$target/debug/scfs-check" replay "$sched" >/dev/null 2>&1; then
    why="witness $base does not replay"
  fi
  rm -f "$out"
  [ -z "$why" ] || { echo "$why"; return 1; }
}

status=0
census_out="$(mktemp)"
started=$SECONDS
cd "$wt" || exit 2
for patch in "${patches[@]}"; do
  name="$(basename "$patch" .patch)"
  git reset -q --hard HEAD
  if ! git apply "$patch" 2>/dev/null; then
    echo "mutants: $name: DOES NOT APPLY"
    status=1
    continue
  fi
  t0=$SECONDS
  if [ "$census" -eq 1 ]; then
    if ! cargo test -q --no-run >/dev/null 2>&1; then
      echo "mutants: $name: DOES NOT BUILD"
      status=1
      continue
    fi
    # Name each test by its binary (`spec`, `coord`, …) and its path.
    timeout 1800 cargo test --no-fail-fast 2>&1 | awk -v m="$name" '
      /^ *Running / { bin = $NF; gsub(/^.*\/|-[0-9a-f]+\)$/, "", bin) }
      /^ *Doc-tests / { bin = "doc:" $2 }
      /^test .* \.\.\. FAILED$/ { print m "\t" bin "::" $2 }' >>"$census_out"
    killers="$(awk -F'\t' -v m="$name" '$1 == m { print $2 }' "$census_out")"
    echo "mutants: $name: $(printf '%s' "$killers" | grep -c .) killers ($((SECONDS - t0)) s): $(printf '%s' "$killers" | tr '\n' ' ')"
    [ -n "$killers" ] || status=1
    continue
  fi
  why=""
  kills=0
  while IFS= read -r line; do
    kills=$((kills + 1))
    if ! reason="$(kill_with "$line")"; then why="$why; $reason"; fi
  done < <(sed -n '/^diff --git/q; s/^Kill: *//p' "$patch")
  while IFS= read -r sched; do
    if ! reason="$(witness "$(dirname "$patch")/$sched")"; then why="$why; $reason"; fi
  done < <(sed -n '/^diff --git/q; s/^Witness: *//p' "$patch")
  [ "$kills" -gt 0 ] || why="$why; no Kill: line"
  if [ -n "$why" ]; then
    echo "mutants: $name: SURVIVED or BROKEN ($((SECONDS - t0)) s)${why}"
    status=1
  else
    echo "mutants: $name: killed by $kills ($((SECONDS - t0)) s)"
  fi
done
git reset -q --hard HEAD

if [ "$census" -eq 1 ]; then
  echo "mutants: census, per test: the mutants only it kills"
  awk -F'\t' '{ n[$1]++; by[$2] = by[$2] " " $1; tests[$2] = 1 }
    END {
      for (t in tests) {
        split(by[t], ms, " "); only = ""
        for (i in ms) if (ms[i] != "" && n[ms[i]] == 1) only = only " " ms[i]
        print "  " t ":" (only == "" ? " (none unique)" : only)
      }
    }' "$census_out" | sort
fi
rm -f "$census_out"
echo "mutants: ${#patches[@]} patches in $((SECONDS - started)) s"
exit "$status"
