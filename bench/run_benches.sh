#!/usr/bin/env bash
# Runs the perf benches and writes machine-readable results so the perf
# trajectory is tracked across PRs. Usage:
#   bench/run_benches.sh [build_dir] [out_dir] [extra bench args...]
# Defaults: build/ and the repo root; pass --quick (default) or longer
# windows via extra args. Produces:
#   $OUT_DIR/BENCH_lockmgr.json    (micro_grant_path: grant-path latency)
#   $OUT_DIR/BENCH_btree.json      (micro_btree: OLC probe + churn scaling)
#   $OUT_DIR/BENCH_workloads.json  (macro_workloads: log append + TPC-B/TM1)
#   $OUT_DIR/BENCH_recovery.json   (micro_recovery: log scan + redo replay)
#   $OUT_DIR/BENCH_contention.json (macro_contention: SLI policy x skew matrix)
#   $OUT_DIR/BENCH_overload.json   (macro_overload: open-loop load x governor)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"
shift $(( $# > 2 ? 2 : $# )) || true
EXTRA_ARGS=("${@:-"--quick"}")

for bench in micro_grant_path micro_btree macro_workloads micro_recovery macro_contention macro_overload; do
  if [[ ! -x "$BUILD_DIR/$bench" ]]; then
    echo "error: $BUILD_DIR/$bench not built (run: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
    exit 1
  fi
done

"$BUILD_DIR/micro_grant_path" "${EXTRA_ARGS[@]}" --json="$OUT_DIR/BENCH_lockmgr.json"
"$BUILD_DIR/micro_btree" "${EXTRA_ARGS[@]}" --json="$OUT_DIR/BENCH_btree.json"
"$BUILD_DIR/macro_workloads" "${EXTRA_ARGS[@]}" --json="$OUT_DIR/BENCH_workloads.json"
"$BUILD_DIR/micro_recovery" "${EXTRA_ARGS[@]}" --json="$OUT_DIR/BENCH_recovery.json"
"$BUILD_DIR/macro_contention" "${EXTRA_ARGS[@]}" --json="$OUT_DIR/BENCH_contention.json"
"$BUILD_DIR/macro_overload" "${EXTRA_ARGS[@]}" --json="$OUT_DIR/BENCH_overload.json"
echo "bench results written to $OUT_DIR/BENCH_lockmgr.json, $OUT_DIR/BENCH_btree.json, $OUT_DIR/BENCH_workloads.json, $OUT_DIR/BENCH_recovery.json, $OUT_DIR/BENCH_contention.json and $OUT_DIR/BENCH_overload.json"
