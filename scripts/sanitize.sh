#!/usr/bin/env sh
# Run the concurrency-sensitive test labels (faults + perf + recovery)
# under the sanitizers. ASan+UBSan catches lifetime/UB bugs in the
# engine's caches and the SIMD kernels (simd_test under the perf label
# covers the packed loads); TSan catches data races in the thread pool,
# RunCache, LuCache, and the persistent store's recovery/eviction paths
# (the chaos test in recovery_test corrupts and re-opens the store
# under load).
#
# Usage: scripts/sanitize.sh [ADDRESS|THREAD|all]
#
# Abbreviated runs keep sanitized executions fast; override by exporting
# HYDRA_RUN_INSTRUCTIONS / HYDRA_WARMUP_INSTRUCTIONS yourself.
set -eu

cd "$(dirname "$0")/.."

: "${HYDRA_RUN_INSTRUCTIONS:=60000}"
: "${HYDRA_WARMUP_INSTRUCTIONS:=20000}"
export HYDRA_RUN_INSTRUCTIONS HYDRA_WARMUP_INSTRUCTIONS

run_one() {
  mode="$1"
  builddir="build-sanitize-$(echo "$mode" | tr '[:upper:]' '[:lower:]')"
  echo "== HYDRA_SANITIZE=$mode -> $builddir =="
  cmake -B "$builddir" -S . -DHYDRA_SANITIZE="$mode" >/dev/null
  cmake --build "$builddir" -j "$(nproc)"
  # Exercise the pool with more workers than cores so TSan sees real
  # interleavings even on small CI machines.
  # Sanitized binaries run 5-20x slower; the nightly CI leg raises
  # HYDRA_CTEST_TIMEOUT because its production-size workloads would
  # blow through the default per-test budget.
  HYDRA_THREADS="${HYDRA_THREADS:-8}" \
    ctest --test-dir "$builddir" -L 'faults|perf|recovery' \
      --output-on-failure --timeout "${HYDRA_CTEST_TIMEOUT:-600}"
}

case "${1:-all}" in
  ADDRESS|THREAD) run_one "$1" ;;
  all)
    run_one ADDRESS
    run_one THREAD
    ;;
  *)
    echo "usage: $0 [ADDRESS|THREAD|all]" >&2
    exit 2
    ;;
esac
