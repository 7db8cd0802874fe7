#!/usr/bin/env bash
# Kernel-telemetry overhead record: runs micro_engine's paper-model pair,
# BM_SimulatedSecond (no sink) and BM_SimulatedSecondKernelStats (an
# obs::KernelStats sink attached), and writes google-benchmark's JSON.
# scripts/compare-bench.py turns the record into the <=5% budget gate.
#
#   scripts/run-bench.sh [--allow-debug] [BUILD_DIR] [OUT]
#
# BUILD_DIR defaults to ./build, OUT to ./BENCH_engine.json. Exits non-zero
# if the bench fails or the record is empty or malformed.
#
# The pair is a same-process ratio, so it gets a long, repeated, randomly
# interleaved measurement: compare-bench.py takes the best of the
# repetitions, which keeps the budget robust to a couple of preempted reps
# (scheduler noise is strictly additive). A non-Release build is refused
# unless --allow-debug is given: debug timings say nothing about the budget.
set -euo pipefail

ALLOW_DEBUG=0
if [[ "${1:-}" == "--allow-debug" ]]; then
  ALLOW_DEBUG=1
  shift
fi

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_engine.json}"

CACHE="${BUILD_DIR}/CMakeCache.txt"
if [[ ! -f "$CACHE" ]]; then
  echo "run-bench.sh: no CMakeCache.txt in $BUILD_DIR (configure first)" >&2
  exit 1
fi
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$CACHE")"
BUILD_TYPE="${BUILD_TYPE:-unspecified}"
if [[ "$BUILD_TYPE" != "Release" && "$ALLOW_DEBUG" -ne 1 ]]; then
  echo "run-bench.sh: $BUILD_DIR is a '$BUILD_TYPE' build; benchmark numbers" >&2
  echo "from non-Release builds are not comparable. Rebuild with" >&2
  echo "-DCMAKE_BUILD_TYPE=Release or pass --allow-debug to record anyway." >&2
  exit 1
fi

MICRO="${BUILD_DIR}/bench/micro_engine"
if [[ ! -x "$MICRO" ]]; then
  echo "run-bench.sh: missing benchmark binary $MICRO (build first)" >&2
  exit 1
fi

echo "== micro_engine (kernel-telemetry overhead pair, interleaved) ==" >&2
"$MICRO" --benchmark_min_time=0.5 --benchmark_repetitions=5 \
         --benchmark_enable_random_interleaving=true \
         --benchmark_filter='BM_SimulatedSecond' \
         --benchmark_format=json >"$OUT"

python3 -m json.tool "$OUT" >/dev/null || {
  echo "run-bench.sh: $OUT is not valid JSON" >&2
  exit 1
}
grep -q '"BM_SimulatedSecondKernelStats"' "$OUT" || {
  echo "run-bench.sh: $OUT lacks the kernel-telemetry pair" >&2
  exit 1
}

echo "wrote $OUT" >&2
