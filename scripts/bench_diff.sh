#!/usr/bin/env sh
# Check that this tree's bench output is byte-identical to a base ref's.
#
# Checks <base-ref> out in a git worktree at build-diff/base, builds it
# and this working tree (uncommitted changes included) in Release under
# build-diff/, runs each named bench in both and diffs the two outputs
# after dropping the `engine:` banner line, which names the worker
# count. Prints "identical" or the diff per bench; exits 1 on any
# difference.
#
# Usage: scripts/bench_diff.sh <base-ref> [bench...]
#   benches default to fig4_policy_comparison and abl_fidelity.
#
# Run lengths are HYDRA_RUN_INSTRUCTIONS / HYDRA_WARMUP_INSTRUCTIONS,
# 1000000 / 700000 unless exported. The worktree stays for incremental
# rebuilds; `git worktree remove --force build-diff/base` drops it.
set -eu

cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
  echo "usage: $0 <base-ref> [bench...]" >&2
  exit 2
fi
sha="$(git rev-parse --verify "$1^{commit}")"
shift
[ $# -gt 0 ] || set -- fig4_policy_comparison abl_fidelity

: "${HYDRA_RUN_INSTRUCTIONS:=1000000}"
: "${HYDRA_WARMUP_INSTRUCTIONS:=700000}"
export HYDRA_RUN_INSTRUCTIONS HYDRA_WARMUP_INSTRUCTIONS

out="$(pwd)/build-diff"
mkdir -p "$out"
if [ -d "$out/base" ]; then
  git -C "$out/base" checkout -q --detach "$sha"
else
  git worktree add -q --detach "$out/base" "$sha"
fi

for tree in base head; do
  src="$out/base"
  [ "$tree" = head ] && src="$(pwd)"
  echo "== building $tree -> build-diff/$tree-build =="
  cmake -B "$out/$tree-build" -S "$src" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$out/$tree-build" -j "$(nproc)" --target "$@"
done

status=0
for bench in "$@"; do
  for tree in base head; do
    "$out/$tree-build/bench/$bench" >"$out/$bench.$tree.raw"
    sed '/^engine:/d' "$out/$bench.$tree.raw" >"$out/$bench.$tree.txt"
  done
  if diff -u "$out/$bench.base.txt" "$out/$bench.head.txt"; then
    echo "$bench: identical ($(wc -l <"$out/$bench.head.txt") lines)"
  else
    echo "$bench: DIFFERS from ${sha}" >&2
    status=1
  fi
done
exit "$status"
