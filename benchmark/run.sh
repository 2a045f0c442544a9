#!/usr/bin/env bash
# The repository's benchmark, one command. Run from the repository root.
#
#   benchmark/run.sh                      all four workloads: tracing-off pass, then traced/replay pass
#   benchmark/run.sh --smoke              the same on a tiny model, one round each (seconds, for CI)
#   benchmark/run.sh --set DIR [SEED...]  a result set: every workload, both passes, once per seed
#   benchmark/run.sh --compare A B        two result sets against the bounds in BENCHMARK.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one run; the last line of stdout is its result as JSON
#
# Builds the harness first (offline; the repo's .cargo/config.toml applies
# because cargo is started from the repository root). Results land in
# benchmark/out/.
set -euo pipefail

here="$(dirname "$0")"
workloads="prefill_long decode_batch chat_shared_prefix late_arrival"

# Share the root workspace's target directory unless the caller chose one.
target="${CARGO_TARGET_DIR:-target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 1>&2
bin="$target/release/llmnpu-benchmark"

# Every workload in its own process, tracing off first, then traced.
run_all() { # OUT_DIR SUFFIX ARGS...
    local out="$1" suffix="$2" w trace kind
    shift 2
    mkdir -p "$out"
    for w in $workloads; do
        for trace in 0 1; do
            "$bin" --workload "$w" --trace "$trace" --out "$out" "$@" | grep -v '^{'
            if [ -n "$suffix" ]; then
                kind=$([ "$trace" = 0 ] && echo e2e || echo layers)
                mv "$out/$w.$kind.json" "$out/$w.$suffix.$kind.json"
            fi
        done
    done
}

case "${1:-}" in
    --workload | --seed | --seconds | --trace)
        exec "$bin" "$@" --out "$here/out"
        ;;
    --compare)
        exec "$bin" compare "$2" "$3"
        ;;
    --set)
        out="$2"
        shift 2
        for seed in "${@:-29}"; do
            run_all "$out" "seed$seed" --seed "$seed"
        done
        ;;
    --smoke)
        run_all "$here/out" "" --smoke --seconds 1
        "$bin" validate "$here/out"
        ;;
    "")
        run_all "$here/out" ""
        {
            echo "rustc: $(rustc --version)"
            echo "commit: $(git rev-parse HEAD 2>/dev/null || echo unknown)"
            echo "nproc: $(nproc)"
        } >"$here/out/host.txt"
        "$bin" validate "$here/out"
        ;;
    *)
        sed -n '2,13p' "$0" >&2
        exit 2
        ;;
esac
