#!/usr/bin/env bash
# Output-identity check for refactors: runs the deterministic benches and
# the CI torex_verify sweeps from two build trees and diffs their stdout.
#
#   tools/output_identity.sh BASE_BUILD CHANGED_BUILD
#
# Each argument is a CMake build directory (e.g. a Release build of the
# parent commit and one of the change). Exits non-zero and prints the
# first lines of each differing output when anything differs.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BASE_BUILD CHANGED_BUILD" >&2
  exit 2
fi
base=$1
changed=$2

benches=(table1 table2 virtual direct_vs_combining ablation scaling crossover switching
         wormhole faults lower_bounds fixed_destinations figure1 figure3)
sweeps=("--max-nodes=400 --layout --static-nodes=2000"
        "--max-nodes=200 --faults=2"
        "--max-nodes=4 --chaos=150 --seed=7")

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run_all() {  # build-dir tag
  local b
  for b in "${benches[@]}"; do
    "$1/bench/bench_$b" > "$out/$2.bench_$b" 2>/dev/null
  done
  local i=0 s
  for s in "${sweeps[@]}"; do
    # shellcheck disable=SC2086  # the flags are meant to split
    "$1/tools/torex_verify" $s > "$out/$2.verify_$i" 2>/dev/null
    i=$((i + 1))
  done
}

run_all "$base" base
run_all "$changed" changed

status=0
for f in "$out"/base.*; do
  name=${f#"$out"/base.}
  if cmp -s "$f" "$out/changed.$name"; then
    echo "same     $name ($(md5sum < "$f" | cut -c1-12))"
  else
    echo "DIFFERS  $name"
    diff "$f" "$out/changed.$name" | head -20 || true
    status=1
  fi
done
exit $status
