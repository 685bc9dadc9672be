#!/usr/bin/env bash
# The SCFS benchmark's one command. Builds once in release (offline), then:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload: the contract of BENCHMARK.json. The last
#       line of standard output is the JSON result object.
#
#   benchmark/run.sh [--seed N] [--trace] [--smoke] [--keep DIR]
#       the whole suite: every workload in its own process, every metric
#       printed by name with its unit, outputs checked; exits non-zero if any
#       workload reports a mismatch. --trace adds the traced pass of each
#       workload, --smoke runs 1/20 of the operation counts, --keep saves
#       each run's output as DIR/<workload>.<trace>.txt for `compare`.
#
#   benchmark/run.sh compare A B
#       the determinism guard over two saved outputs of one workload.
#
#   benchmark/run.sh contract        prints BENCHMARK.json from the tables
#   benchmark/run.sh test            runs the package's unit tests
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
# The driver points CARGO_TARGET_DIR at a directory inside its checkout;
# without it the build lands next to the sources (git-ignored).
target="${CARGO_TARGET_DIR:-$here/target}"
bin="$target/release/scfs-benchmark"
export SCFS_BENCH_OUT="$here/out"

build() {
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
        --manifest-path "$manifest" >&2
}

case "${1:-}" in
test)
    CARGO_TARGET_DIR="$target" cargo test --release --offline --quiet \
        --manifest-path "$manifest"
    exit
    ;;
compare | contract | list)
    build
    exec "$bin" "$@"
    ;;
esac

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        build
        exec "$bin" "$@"
    fi
done

# Suite mode.
seed=20140614
trace=0
smoke=()
keep=""
while [ $# -gt 0 ]; do
    case "$1" in
    --seed)
        seed="$2"
        shift
        ;;
    --trace) trace=1 ;;
    --smoke) smoke=(--smoke) ;;
    --keep)
        keep="$2"
        mkdir -p "$keep"
        shift
        ;;
    *)
        echo "run.sh: unknown argument $1" >&2
        exit 2
        ;;
    esac
    shift
done

build
status=0
modes=(0)
[ "$trace" = 1 ] && modes=(0 1)
for workload in $("$bin" list); do
    for mode in "${modes[@]}"; do
        echo "=== $workload (trace $mode) ==="
        out="$("$bin" --workload "$workload" --seed "$seed" --seconds 20 \
            --trace "$mode" ${smoke[@]+"${smoke[@]}"})" || status=1
        # Everything but the JSON line, which is for machines.
        printf '%s\n' "$out" | grep -v '^{"correct"'
        [ -n "$keep" ] && printf '%s\n' "$out" >"$keep/$workload.$mode.txt"
        if ! printf '%s\n' "$out" | tail -n 1 | grep -q '^{"correct": true, '; then
            echo "FAIL: $workload (trace $mode) reported incorrect outputs" >&2
            status=1
        fi
    done
done
[ "$status" = 0 ] && echo "all workloads correct"
exit "$status"
