#!/usr/bin/env bash
# Builds the end-to-end benchmark (Release, into build-e2e/) and runs it.
#
#   bench/e2e/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1|DIR]
#                    [--out results.json] [--smoke]
#   bench/e2e/run.sh --print-digests
#
# With --workload, runs that one workload and its last output line is the JSON result.
# Without, runs every workload, one process each (so peak_rss_mb never mixes workloads),
# prints `<workload> <metric> <value> <unit>` lines plus the churn-stream breakdown, and
# writes --out if given. --seconds defaults to BENCHMARK.json's run_seconds, the length
# BENCHMARK.json's command is run with; results of different lengths do not compare.
# --trace 1 (or --trace DIR) adds the traced passes and writes DIR/<workload>.trace.json
# (DIR defaults to build-e2e/trace). Exits nonzero if any run fails a check.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: the dpack sources are not at $root (CMakeLists.txt and src/ missing)" >&2
  exit 2
fi

workloads=(engine_backlog engine_churn fleet_churn remote_churn)
build=build-e2e
workload=""
seed=11
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
trace=0
out=""
extra=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke|--print-digests) extra+=("$1"); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

build_once() {
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "$build" -j"$(nproc)" >&2
}
mkdir -p "$build"
if command -v flock >/dev/null; then
  # One build at a time per checkout; concurrent runs wait for it.
  (flock 9 && build_once) 9>"$build/.lock"
else
  build_once
fi

if [[ " ${extra[*]} " == *" --print-digests "* ]]; then
  exec "$build/dpack_e2e" --print-digests
fi
bin=("$build/dpack_e2e" --seed "$seed" --seconds "$seconds" --trace "$trace" "${extra[@]}")
if [[ -n "$workload" ]]; then
  exec "${bin[@]}" --workload "$workload"
fi

mkdir -p "$build/run"
lines="$build/run/lines.$$"
: >"$lines"
status=0
for w in "${workloads[@]}"; do
  rc=0
  "${bin[@]}" --workload "$w" >"$lines.one" || rc=$?
  grep -v '^{' "$lines.one" || true
  cat "$lines.one" >>"$lines"
  if [[ $rc != 0 ]]; then
    echo "run.sh: $w failed (exit $rc)" >&2
    status=1
  fi
done
python3 bench/e2e/results.py "$lines" --seed "$seed" --seconds "$seconds" \
  ${out:+--out "$out"} || status=1
rm -f "$lines" "$lines.one"
exit "$status"
