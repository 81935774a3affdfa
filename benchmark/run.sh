#!/usr/bin/env bash
# Builds the benchmark and runs it: the one command behind BENCHMARK.json.
#
#   benchmark/run.sh --workload NAME|all [--seed N] [--seconds S]
#                    [--trace 0|1] [--reps R] [--out DIR]
#   benchmark/run.sh --smoke
#
# Prints `workload metric value unit` lines and, last, one JSON result
# line per workload; writes results (with machine context) and Chrome
# traces under DIR (default benchmark/out). --smoke runs every workload
# once at about a tenth of its size, traced and untraced, and checks that
# each result parses, names every metric BENCHMARK.json lists, and passed
# its correctness gates, and that the results and trace files parse.
# Build output goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
workloads=(region_t1_sync region_t1_async region_mc_sync genome_scan)

workload=""
seed=1
seconds=20
trace=0
reps=2
out="$here/out"
smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --reps) reps="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ $smoke -eq 0 && -z "$workload" ]]; then
  echo "run.sh: --workload NAME|all or --smoke is required" >&2
  exit 2
fi

build="$out/build"
if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
jobs="$(nproc 2> /dev/null || echo 2)"
cmake --build "$build" --parallel "$(( jobs < 4 ? jobs : 4 ))" >&2
binary="$build/ldga_benchmark"

if [[ $smoke -eq 1 ]]; then
  for name in "${workloads[@]}"; do
    for traced in 0 1; do
      result="$("$binary" --workload "$name" --seed "$seed" --seconds 0 \
        --reps 1 --trace "$traced" --smoke --out "$out" | tail -n 1)"
      files=("$out/results/$name-seed$seed-smoke-trace$traced.json")
      if [[ $traced -eq 1 ]]; then
        files+=("$out/traces/$name-seed$seed-smoke.json")
      fi
      python3 - "$root/BENCHMARK.json" "$traced" "$result" "${files[@]}" \
        << 'EOF'
import json, math, sys
spec = json.load(open(sys.argv[1]))
traced = sys.argv[2] == "1"
result = json.loads(sys.argv[3])
for path in sys.argv[4:]:
    json.load(open(path))
assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
assert result["correct"] is True, "correctness gates failed"
assert isinstance(result["attempted"], int) and result["attempted"] >= 1
assert isinstance(result["failed"], int) and result["failed"] >= 0
declared = spec["per_layer" if traced else "end_to_end"]
expected = {m["name"]: m["unit"] for m in declared}
got = {k: v["unit"] for k, v in result["metrics"].items()}
assert got == expected, f"metric names/units differ: {set(got) ^ set(expected)}"
for name, metric in result["metrics"].items():
    assert math.isfinite(metric["value"]), name
EOF
      echo "smoke: $name trace=$traced ok"
    done
  done
  exit 0
fi

if [[ "$workload" == "all" ]]; then
  selected=("${workloads[@]}")
else
  selected=("$workload")
fi
for name in "${selected[@]}"; do
  "$binary" --workload "$name" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --reps "$reps" --out "$out"
done
