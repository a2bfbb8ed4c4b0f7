#!/usr/bin/env bash
# Paired perfbench runs: a base revision against this checkout.
#
#   .github/scripts/perf-pairs.sh BASE_SHA
#
# Builds perfbench/main.exe in a git worktree of BASE_SHA and in the
# checkout, then runs five alternating pairs of
#   perfbench benchmark --workload W --seed i --out FILE
# on compile-search, compile-root, serve-edit (whose edits are mostly
# model construction) and chip-sim (the simulator: chip, cluster and
# event engine).  The base runs first in odd pairs
# and the checkout in even ones, so a drift in the host's speed lands on
# both sides alike.  Each side's runs are merged into
# _artifacts/perf-pairs/{base,change}.json, and `perfbench compare`,
# run in the checkout so that it reads this BENCHMARK.json, gives the
# verdicts.  The script exits with compare's status: 1 if a metric is
# worse beyond its bound.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BASE_SHA" >&2
  exit 2
fi

root=$(git rev-parse --show-toplevel)
out=$root/_artifacts/perf-pairs
base=$(mktemp -d)
trap 'git -C "$root" worktree remove --force "$base"' EXIT

git -C "$root" worktree add --detach "$base" "$1"
rm -rf "$out"
mkdir -p "$out"
for dir in "$base" "$root"; do
  (cd "$dir" && dune build --root . perfbench/main.exe)
done

# run SIDE DIR PAIR: the workloads of one side of a pair
workloads="compile-search compile-root serve-edit chip-sim"
run() {
  for w in $workloads; do
    echo "== pair $3: $1 $w"
    (cd "$2" && ./_build/default/perfbench/main.exe benchmark --workload "$w" \
      --seed "$3" --out "$out/$1-$w-$3.json")
  done
}

for i in 1 2 3 4 5; do
  if [ $((i % 2)) -eq 1 ]; then
    run base "$base" "$i"
    run change "$root" "$i"
  else
    run change "$root" "$i"
    run base "$base" "$i"
  fi
done

for side in base change; do
  files=()
  for w in $workloads; do
    files+=("$out/$side-$w"-*.json)
  done
  jq -s '{runs: [.[].runs[]]}' "${files[@]}" >"$out/$side.json"
done
cd "$root"
./_build/default/perfbench/main.exe compare "$out/base.json" "$out/change.json"
