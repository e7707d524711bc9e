#!/usr/bin/env python3
"""Compares benchmark results of a parent commit and a change, pair by pair.

    compare.py PARENT_1.json ... PARENT_N.json -- CHANGE_1.json ... CHANGE_N.json

Each file is a `run.sh --out` result. PARENT_i and CHANGE_i form pair i: run them one after
the other, alternating which side goes first, on the same seed. Every file must have the
same run length. For every (workload, metric) in BENCHMARK.json the tool prints each side's
median and quartiles, the share of pairs the change won (ties count for neither side) and a
verdict.

A grant or counter metric (unit tasks, count or bytes) that reads the same on every parent
run of a seed is exact: grants and counters are deterministic for a seed. An exact metric is worse if the change is worse on any
pair, improved if it is better on some pair and worse on none, and unchanged if every
pair ties. Any other metric is measured, and judged by these rules:

  improved    the change won at least 9 pairs in 10 and the medians differ by more than
              the parent's interquartile distance;
  worse       end-to-end: the change's median is worse than the parent's by more than the
              metric's bound; per-layer (no bound): the parent won 9 pairs in 10 by more
              than its interquartile distance;
  unresolved  fewer than 10 pairs, or the parent's own interquartile spread is wider than
              the bound and not every change run beats every parent run;
  unchanged   otherwise.

Exits 1 if any end-to-end metric is worse on any workload.
"""

import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9
# Units of grants and counters, the metrics that can be exact. Times, rates, fractions and
# memory vary from run to run even when they repeat on a few.
EXACT_UNITS = {"tasks", "count", "bytes"}


def load_benchmark():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                        "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    metrics = {}
    for entry in spec["end_to_end"]:
        metrics[entry["name"]] = (entry["better"], entry["bound"], entry["unit"])
    for entry in spec["per_layer"]:
        metrics[entry["name"]] = (entry["better"], None, entry["unit"])
    return [w["name"] for w in spec["workloads"]], metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def is_exact(parent, seeds, unit):
    """True for a grant or counter metric whose parent runs agree exactly on every seed
    that has two or more of them."""
    by_seed = {}
    for value, seed in zip(parent, seeds):
        by_seed.setdefault(seed, []).append(value)
    repeated = [values for values in by_seed.values() if len(values) > 1]
    return (unit in EXACT_UNITS and bool(repeated) and
            all(len(set(values)) == 1 for values in repeated))


def verdict(parent, change, better, bound, unit, seeds):
    sign = -1.0 if better == "lower" else 1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    share = wins / len(pairs)
    if is_exact(parent, seeds, unit):
        if losses:
            return "worse", share
        return ("improved" if wins else "unchanged"), share
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    gain = sign * (cm - pm)  # Positive: the change is better.
    if len(pairs) < MIN_PAIRS:
        return "unresolved", share
    if share >= WIN_SHARE and gain > spread:
        return "improved", share
    if bound is None:
        worse = losses / len(pairs) >= WIN_SHARE and -gain > spread
        return ("worse" if worse else "unchanged"), share
    if pm != 0 and -gain / abs(pm) > bound:
        return "worse", share
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pm != 0 and spread / abs(pm) > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    parent_files, change_files = argv[:split], argv[split + 1:]
    if not parent_files or len(parent_files) != len(change_files):
        print("compare.py: give as many CHANGE files as PARENT files", file=sys.stderr)
        return 2
    if len(parent_files) < MIN_PAIRS:
        print(f"compare.py: {len(parent_files)} pairs; every verdict needs {MIN_PAIRS}",
              file=sys.stderr)

    def load(path):
        with open(path) as f:
            return json.load(f)

    parent_runs = [load(p) for p in parent_files]
    change_runs = [load(c) for c in change_files]
    if len({r["seconds"] for r in parent_runs + change_runs}) != 1:
        print("compare.py: the runs differ in length (--seconds)", file=sys.stderr)
        return 2
    seeds = [r["seed"] for r in parent_runs]
    if seeds != [r["seed"] for r in change_runs]:
        print("compare.py: PARENT_i and CHANGE_i must run the same seed", file=sys.stderr)
        return 2
    parents = [r["workloads"] for r in parent_runs]
    changes = [r["workloads"] for r in change_runs]
    workloads, metrics = load_benchmark()
    any_worse = False
    print(f"{'workload':<16} {'metric':<40} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>5}  verdict")
    for workload in workloads:
        for name, (better, bound, unit) in metrics.items():
            try:
                p = [r[workload][name]["value"] for r in parents]
                c = [r[workload][name]["value"] for r in changes]
            except KeyError:
                continue
            result, share = verdict(p, c, better, bound, unit, seeds)
            any_worse = any_worse or (result == "worse" and bound is not None)
            pq = "/".join(f"{v:.4g}" for v in quartiles(p))
            cq = "/".join(f"{v:.4g}" for v in quartiles(c))
            print(f"{workload:<16} {name:<40} {pq:>32} {cq:>32} {share:5.0%}  {result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
