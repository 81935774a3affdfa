#!/usr/bin/env bash
# Build and run the perf-acceptance benchmarks, leaving BENCH_*.json at
# the repo root:
#   - bench_ga_e2e       — GA wall time of the fixed-replicate baseline
#     at the scalar dispatch level vs the default configuration (2x,
#     hard floor 1.5x) and of early-stop at the scalar level vs the
#     native level (floor 1x), including the gate that re-scores every
#     reported best bit-for-bit on a fresh evaluator;
#   - bench_simd_kernels — per-dispatch-level kernel timings with
#     inline equivalence checks (4x dosage_pair/planes floor on vector
#     hosts).
# Every JSON carries the machine context (bench/bench_context.hpp); the
# CI bench job refuses ratio comparisons when the committed baseline
# was measured on a different ISA.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${BUILD_DIR:-$root/build}"

cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build" --target bench_ga_e2e --target bench_simd_kernels \
  -j "$(nproc)"

cd "$root"
"$build/bench/bench_simd_kernels"
echo "BENCH_simd_kernels.json written to $root"
"$build/bench/bench_ga_e2e"
echo "BENCH_ga_e2e.json written to $root"
