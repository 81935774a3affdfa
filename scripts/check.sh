#!/usr/bin/env bash
# Full local verification: configure, build and test — optionally under a
# sanitizer.
#
#   scripts/check.sh                # plain Release build + ctest
#   scripts/check.sh address        # ASan + UBSan build + ctest
#   scripts/check.sh thread         # TSan build + ctest (parallel tests)
#   scripts/check.sh all            # plain, then address, then thread
#
# Add --soak (any position) to soak the master/slave farm and the
# asynchronous island engine instead of the whole suite: the
# farm/chaos/island tests run with LDGA_CHAOS_SOAK=1, which multiplies
# the chaos-GA repetitions so respawn, requeue, and straggler-chaos
# convergence to the planted haplotype get exercised hard.
#
#   scripts/check.sh --soak          # plain chaos soak
#   scripts/check.sh thread --soak   # chaos soak under TSan
#
# Each mode uses its own build directory (build/, build-asan/, build-tsan/)
# so the presets can coexist.
#
# Every test runs under a deadline, so a hung test fails the run instead
# of stalling it. On a 4-core host under ctest -j4 the slowest single
# test took 9.6 s (plain), 5.3 s (address), 5.6 s (thread) and 9.3 s
# (soak under TSan); the deadline is over 12x the slowest.
set -euo pipefail

TEST_TIMEOUT=120

cd "$(dirname "$0")/.."

SOAK=""
MODE=""
for arg in "$@"; do
  case "${arg}" in
    --soak) SOAK=1 ;;
    *) MODE="${arg}" ;;
  esac
done
MODE="${MODE:-plain}"

run_mode() {
  local mode="$1" dir sanitize
  case "${mode}" in
    plain)   dir=build       sanitize="" ;;
    address) dir=build-asan  sanitize=address ;;
    thread)  dir=build-tsan  sanitize=thread ;;
    *) echo "unknown mode '${mode}' (expected plain|address|thread|all)" >&2
       exit 2 ;;
  esac
  echo "== ${mode}: configuring ${dir}"
  cmake -B "${dir}" -S . -DLDGA_SANITIZE="${sanitize}" \
    -DLDGA_WARNINGS_AS_ERRORS=ON > /dev/null
  echo "== ${mode}: building"
  cmake --build "${dir}" -j "$(nproc)"
  if [[ -n "${SOAK}" ]]; then
    echo "== ${mode}: chaos-soaking the farm and the island engine"
    LDGA_CHAOS_SOAK=1 ctest --test-dir "${dir}" --output-on-failure \
      -j "$(nproc)" --timeout "${TEST_TIMEOUT}" \
      -R 'Chaos|MasterSlave|FarmFaultTolerance|BackendConformance|Mailbox|MigrationRouter|Island|EvaluationStream|Straggler'
  else
    echo "== ${mode}: testing"
    ctest --test-dir "${dir}" --output-on-failure -j "$(nproc)" \
      --timeout "${TEST_TIMEOUT}"
  fi
}

case "${MODE}" in
  all)
    run_mode plain
    run_mode address
    run_mode thread
    ;;
  *)
    run_mode "${MODE}"
    ;;
esac
echo "== all checks passed"
