#!/usr/bin/env bash
# Runs every bench binary, logging each one's output and wall-clock time.
# Usage:
#   bench/run_all.sh [build-dir]          (default: ./build)
# Environment:
#   XRBENCH_THREADS  worker count for the SweepEngine benches
#                    (0 = serial baseline; unset = hardware concurrency)
# Repeatable performance numbers come from perfbench/run.py, not from here.
set -euo pipefail

BUILD_DIR="${1:-build}"
if [[ ! -d "$BUILD_DIR" ]]; then
  echo "build dir '$BUILD_DIR' not found; run: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

cd "$BUILD_DIR"
mkdir -p bench_output
shopt -s nullglob
benches=(bench_*)
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "no bench_* binaries in $BUILD_DIR" >&2
  exit 1
fi

failed=0
for b in "${benches[@]}"; do
  [[ -x $b && ! -d $b ]] || continue
  echo "== $b"
  start_ns=$(date +%s%N)
  if ! ./"$b" > "bench_output/${b}.log" 2>&1; then
    echo "($b failed, see bench_output/${b}.log)" >&2
    failed=1
    continue
  fi
  end_ns=$(date +%s%N)
  echo "   $(( (end_ns - start_ns) / 1000000 )) ms  (log: bench_output/${b}.log)"
done
exit "$failed"
