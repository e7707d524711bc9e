#!/usr/bin/env python3
"""Gate CI on the steady-state engine counters of the bench artifacts.

Usage: check_bench_regression.py BASELINE.json CURRENT.json [CURRENT2.json ...]

Every file holds a {"benchmarks": [...]} array, google-benchmark's JSON shape, which the
fig5, fig10, fig11 and fig12 --json dumps write. Benchmarks are matched by "name". Only the *work counters* are compared (fields named *_per_cycle plus
full_recomputes and merge_allocs): they are exact functions of the fixed workload and the
engine's reuse/rescore logic, so they are stable across machines. Wall/CPU time fields are
ignored — they are noise on shared runners.

A counter regresses when it drifts more than TOLERANCE (25%) from the baseline in either
direction: more work per cycle means the incremental engine lost reuse; much less usually
means a benchmark stopped exercising what it claims to. Zero-valued baseline counters
(merge_allocs, full_recomputes in steady state) use an absolute tolerance instead — a
relative tolerance on zero is either meaningless or an exact-match trap for float dumps. A
baseline benchmark missing from the current run also fails (coverage loss; sweep points
like .../blocks:N get an explicit message, since a silently shrunken sweep would otherwise
look like a pass), and so does any current counter with no entry in the baseline ("missing
baseline key"): an untracked counter is a gate with a hole in it, so new
benchmarks/counters must land together with a regenerated baseline
(scripts/update_bench_baseline.sh).
"""

import json
import sys

TOLERANCE = 0.25
# Counters whose baseline is exactly zero (e.g. merge_allocs: steady-state cycles must not
# allocate) are compared absolutely: anything beyond this is real work appearing on a path
# proven to do none.
ZERO_TOLERANCE = 1e-6
COUNTER_FIELDS = ("_per_cycle", "full_recomputes", "merge_allocs")
# Never gate on time: wall/CPU time is what the tolerance exists to avoid.
TIME_FIELDS = ("time", "wall", "_ms")


def counters(entry):
    out = {}
    for key, value in entry.items():
        if not isinstance(value, (int, float)):
            continue
        if any(f in key for f in TIME_FIELDS):
            continue
        if any(key.endswith(f) or f in key for f in COUNTER_FIELDS):
            out[key] = float(value)
    return out


def load_benchmarks(path):
    with open(path) as fh:
        data = json.load(fh)
    return {entry["name"]: entry for entry in data.get("benchmarks", [])}


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    baseline = load_benchmarks(argv[1])
    current = {}
    for path in argv[2:]:
        current.update(load_benchmarks(path))

    failures = []
    compared = 0
    for name, base_entry in sorted(baseline.items()):
        base_counters = counters(base_entry)
        if not base_counters:
            continue
        cur_entry = current.get(name)
        if cur_entry is None:
            if "/blocks:" in name:
                failures.append(
                    f"{name}: sweep point missing from the current run — the bench did "
                    f"not emit this population scale (shrunken sweep or aborted run), so "
                    f"the flatness gate has no data for it")
            else:
                failures.append(
                    f"{name}: present in baseline but missing from the current run")
            continue
        cur_counters = counters(cur_entry)
        for key in sorted(set(cur_counters) - set(base_counters)):
            failures.append(
                f"{name}: missing baseline key {key} (counter exists in the current run "
                f"but not in the baseline; run scripts/update_bench_baseline.sh)")
        for key, base_value in sorted(base_counters.items()):
            if key not in cur_counters:
                failures.append(f"{name}: counter {key} missing from the current run")
                continue
            cur_value = cur_counters[key]
            compared += 1
            if base_value == 0.0:
                drift = abs(cur_value)
                ok = drift <= ZERO_TOLERANCE
            else:
                drift = abs(cur_value - base_value) / abs(base_value)
                ok = drift <= TOLERANCE
            status = "ok" if ok else "REGRESSION"
            print(f"{status:>10}  {name} {key}: baseline={base_value:g} "
                  f"current={cur_value:g} drift={drift:.1%}")
            if not ok:
                failures.append(
                    f"{name}: {key} drifted {drift:.1%} (baseline {base_value:g}, "
                    f"current {cur_value:g}, tolerance {TOLERANCE:.0%})")

    for name in sorted(set(current) - set(baseline)):
        if counters(current[name]):
            failures.append(
                f"{name}: missing baseline key (benchmark has counters but no baseline "
                f"entry; run scripts/update_bench_baseline.sh)")
            print(f"   MISSING  {name} (counters present but no baseline entry)")

    print(f"\n{compared} counters compared against {argv[1]}")
    if failures:
        print(f"{len(failures)} failure(s):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("no counter regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
