#!/usr/bin/env bash
# Paired benchmark comparison of the working tree against a base revision.
#
#   scripts/bench-compare.sh <base-rev>
#
# Checks the base out into .bench_build/parent (a git worktree, removed on
# exit), builds each side's `benchmark` into its own target directory under
# .bench_build/, then runs every workload that BENCHMARK.json lists for
# seeds 1-10 on both sides, with `--seconds <run_seconds> --trace 0`, each
# side from its own tree's root, alternating which side goes first. The
# result lines go to .bench_build/{parent,change}.jsonl in the form the
# benchmark README describes, and the exit status is `benchmark compare`'s:
# non-zero when any end-to-end metric regressed past its bound. Needs git,
# cargo and jq.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --verify "$1^{commit}")
out=$root/.bench_build
parent=$out/parent
manifest=crates/bench/src/bin/benchmark/Cargo.toml

mkdir -p "$out"
git worktree remove --force "$parent" 2>/dev/null || true
git worktree prune
git worktree add --detach "$parent" "$base" >/dev/null
trap 'git worktree remove --force "$parent"' EXIT

for side in parent change; do
  tree=$root
  [ "$side" = parent ] && tree=$parent
  cargo build --release --quiet --offline --manifest-path "$tree/$manifest" \
    --target-dir "$out/target-$side"
done

seconds=$(jq -r .run_seconds BENCHMARK.json)
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
: > "$out/parent.jsonl"
: > "$out/change.jsonl"

run() { # <side> <workload> <seed>
  local tree=$root line
  [ "$1" = parent ] && tree=$parent
  line=$(cd "$tree" && "$out/target-$1/release/benchmark" run --workload "$2" \
    --seed "$3" --seconds "$seconds" --trace 0 | tail -1) || {
    echo "benchmark failed: $1 side, $2, seed $3" >&2
    exit 1
  }
  echo "{\"workload\": \"$2\", \"seed\": $3, \"result\": $line}" >> "$out/$1.jsonl"
}

for seed in 1 2 3 4 5 6 7 8 9 10; do
  for workload in $workloads; do
    if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
      run "$side" "$workload" "$seed"
    done
  done
done
"$out/target-change/release/benchmark" compare "$out/parent.jsonl" "$out/change.jsonl"
