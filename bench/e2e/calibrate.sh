#!/usr/bin/env bash
# Measures how much the benchmark's end-to-end metrics move on this host, derives the bound
# each metric needs, and writes bench/e2e/calibration.json. Takes about 40 minutes.
#
#   bench/e2e/calibrate.sh
#
# Whole-benchmark runs (run.sh over every workload), back to back:
#   same_seed_a, same_seed_b  5 runs each at the default seed: how far runs of one commit
#                             scatter, and whether two sets of them agree;
#   seed_sweep                one run at each of seeds 1 to 10: the spread a set of runs
#                             over different seeds shows;
#   traced                    2 runs with --trace 1 at the default seed: the per-layer
#                             counters (units tasks, count, bytes) must agree exactly.
# For every (workload, end-to-end metric) and set, calibration.json holds the median, min,
# max, the largest deviation from the median and the interquartile spread (both shares of
# the median), and the gap between the two same-seed medians. The bound a metric needs is
# the largest, over the workloads, of 1.5x the largest deviation over the 10 same-seed
# runs, 3x their interquartile spread, 3x the seed sweep's and 1.5x the gap; the summary
# prints it next to the bound in BENCHMARK.json. It also holds, per workload and timing,
# the elasticity of the measured timing to the host-speed reference, which sets the
# exponents in main.cc's kWorkloads.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
dir=build-e2e/calibration
rm -rf "$dir"
mkdir -p "$dir"

run() {  # run NAME ARGS...
  echo "calibrate.sh: $1" >&2
  local name="$1"
  shift
  bench/e2e/run.sh "$@" --out "$dir/$name.json" >"$dir/$name.log"
}
for i in 1 2 3 4 5; do run "same_seed_a.$i"; done
for i in 1 2 3 4 5; do run "same_seed_b.$i"; done
for seed in 1 2 3 4 5 6 7 8 9 10; do run "seed_sweep.$seed" --seed "$seed"; done
for i in 1 2; do run "traced.$i" --trace 1; done

python3 - "$dir" <<'EOF'
import glob, json, math, statistics, sys

dir = sys.argv[1]
with open("BENCHMARK.json") as f:
    bench = json.load(f)
workloads = [w["name"] for w in bench["workloads"]]
bounds = {m["name"]: m for m in bench["end_to_end"]}


def load(set_name):
    paths = sorted(glob.glob(f"{dir}/{set_name}.*.json"), key=lambda p: int(p.split(".")[-2]))
    return [json.load(open(p)) for p in paths]


def stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "min": min(values), "max": max(values),
            "max_dev_share": max(abs(v - med) for v in values) / med,
            "iqr_share": (q3 - q1) / med, "values": values}


sets = {name: load(name) for name in ("same_seed_a", "same_seed_b", "seed_sweep")}
metrics, needed = {}, {}
print(f"{'metric':<16} {'workload':<16} {'dev10':>7} {'iqr10':>7} {'iqr_seeds':>9} "
      f"{'gap':>7} {'needs':>7}")
for workload in workloads:
    metrics[workload] = {}
    for name in bounds:
        value = lambda r: r["workloads"][workload][name]["value"]
        entry = {s: stats([value(r) for r in runs]) for s, runs in sets.items()}
        same = stats(entry["same_seed_a"]["values"] + entry["same_seed_b"]["values"])
        a, b = entry["same_seed_a"]["median"], entry["same_seed_b"]["median"]
        entry["same_seed"] = same
        entry["set_gap_share"] = abs(a - b) / min(a, b)
        entry["needs"] = max(1.5 * same["max_dev_share"], 3 * same["iqr_share"],
                             3 * entry["seed_sweep"]["iqr_share"], 1.5 * entry["set_gap_share"])
        metrics[workload][name] = entry
        if entry["needs"] >= needed.get(name, (0.0, ""))[0]:
            needed[name] = (entry["needs"], workload)
        print(f"{name:<16} {workload:<16} {same['max_dev_share']:7.3f} {same['iqr_share']:7.3f} "
              f"{entry['seed_sweep']['iqr_share']:9.3f} {entry['set_gap_share']:7.3f} "
              f"{entry['needs']:7.3f}")

# How far each timing follows the host's speed: the slope of log(measured timing) against
# log(median reference slice) over the 20 untraced runs. main.cc's kWorkloads holds the
# exponents the runs scale by; compare them with these.
runs = sets["same_seed_a"] + sets["same_seed_b"] + sets["seed_sweep"]
sensitivity = {}
print(f"\n{'workload':<16} {'timing':<16} {'elasticity':>10} {'corr':>6}")
for workload in workloads:
    sensitivity[workload] = {}
    for name, m in bounds.items():
        if m["unit"] not in ("us", "s", "tasks/s"):
            continue
        try:
            x = [math.log(r["workloads"][workload]["host.reference_slice_us"]["value"])
                 for r in runs]
            y = [math.log(r["workloads"][workload]["wall." + name]["value"]) for r in runs]
        except (KeyError, ValueError):
            continue
        mx, my = statistics.mean(x), statistics.mean(y)
        sxx = sum((a - mx) ** 2 for a in x)
        syy = sum((b - my) ** 2 for b in y)
        sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
        slope = sxy / sxx if sxx > 0 else 0.0
        corr = sxy / math.sqrt(sxx * syy) if sxx > 0 and syy > 0 else 0.0
        if m["unit"] == "tasks/s":
            slope = -slope  # A rate falls as the time per task rises.
        sensitivity[workload][name] = {"elasticity": slope, "corr": corr}
        print(f"{workload:<16} {name:<16} {slope:10.2f} {corr:6.2f}")

# Traced runs: every grant and counter metric must read the same in both.
traced = load("traced")
counters, differ = 0, []
for m in bench["per_layer"]:
    if m["unit"] not in ("tasks", "count", "bytes"):
        continue
    for workload in workloads:
        values = {r["workloads"][workload][m["name"]]["value"] for r in traced}
        counters += 1
        if len(values) != 1:
            differ.append(f"{workload} {m['name']}")

print(f"\n{'metric':<16} {'bound':>6} {'needs':>6}  worst workload")
summary = {}
for name, m in bounds.items():
    need, workload = needed[name]
    summary[name] = {"bound": m["bound"], "needs": need, "worst_workload": workload}
    flag = "" if need <= m["bound"] else "  NARROWER THAN MEASURED"
    print(f"{name:<16} {m['bound']:6.3f} {need:6.3f}  {workload}{flag}")
print(f"traced counters: {counters - len(differ)} of {counters} agree exactly"
      + ("; differ: " + ", ".join(differ) if differ else ""))

runs = sets["same_seed_a"]
json.dump({"host": runs[0]["host"], "seconds": runs[0]["seconds"],
           "seeds": {s: [r["seed"] for r in rs] for s, rs in sets.items()},
           "bounds": summary, "metrics": metrics, "sensitivity": sensitivity,
           "traced_counters": {"compared": counters, "differ": differ}},
          open("bench/e2e/calibration.json", "w"), indent=1, sort_keys=True)
print("wrote bench/e2e/calibration.json")
EOF
