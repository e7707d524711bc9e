#!/usr/bin/env bash
# Regenerates bench/baseline.json — the steady-state engine-counter baseline that CI's
# bench-artifacts job gates against (scripts/check_bench_regression.py).
#
# Run from the repository root after an intentional change to the engines' work counters:
#   ./scripts/update_bench_baseline.sh [build-dir]
#
# The baseline stores only deterministic work counters (reuse/rescore/refresh per cycle),
# never wall time, so it can be generated on any machine. CI runs the same commands
# (micro_scheduler filtered to the Steady benchmarks, fig5 at --quick scale); keep those in
# sync with .github/workflows/ci.yml if you change them here.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="bench/baseline.json"
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT

cmake --build "${BUILD_DIR}" \
  --target bench_micro_scheduler bench_fig5_scalability bench_fig10_scenarios \
  bench_fig11_block_scale bench_fig12_service -j"$(nproc)"

"./${BUILD_DIR}/bench_micro_scheduler" \
  --benchmark_filter=Steady \
  --benchmark_format=json \
  --benchmark_out="${TMP_DIR}/micro_scheduler.json" \
  --benchmark_out_format=json > /dev/null

"./${BUILD_DIR}/bench_fig5_scalability" --quick --json "${TMP_DIR}/fig5_counters.json" \
  > /dev/null

"./${BUILD_DIR}/bench_fig10_scenarios" --json "${TMP_DIR}/fig10_counters.json" > /dev/null

# fig11 exits non-zero if its counters are not flat across the population sweep — a
# baseline must never be regenerated over a broken O(changed) invariant.
"./${BUILD_DIR}/bench_fig11_block_scale" --json "${TMP_DIR}/fig11_counters.json" \
  > /dev/null

# fig12 exits non-zero unless every socket leg's grant trace matches the in-process engine
# — a baseline must never be regenerated over a diverging service.
"./${BUILD_DIR}/bench_fig12_service" --json "${TMP_DIR}/fig12_counters.json" > /dev/null

python3 - "${TMP_DIR}/micro_scheduler.json" "${TMP_DIR}/fig5_counters.json" \
  "${TMP_DIR}/fig10_counters.json" "${TMP_DIR}/fig11_counters.json" \
  "${TMP_DIR}/fig12_counters.json" "${OUT}" <<'EOF'
import json
import sys

merged = []
for path in sys.argv[1:-1]:
    with open(path) as fh:
        data = json.load(fh)
    for entry in data.get("benchmarks", []):
        # Keep only the identity and the deterministic counters; drop timing fields so the
        # checked-in baseline never churns from machine noise.
        kept = {"name": entry["name"]}
        for key, value in entry.items():
            if isinstance(value, (int, float)) and (
                    "per_cycle" in key or key in ("full_recomputes", "merge_allocs")):
                kept[key] = value
        if len(kept) > 1:
            merged.append(kept)

with open(sys.argv[-1], "w") as fh:
    json.dump({"benchmarks": merged}, fh, indent=2, sort_keys=True)
    fh.write("\n")
print(f"wrote {len(merged)} benchmark baselines to {sys.argv[-1]}")
EOF
