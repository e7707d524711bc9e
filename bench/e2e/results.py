#!/usr/bin/env python3
"""Collects the `<workload> <metric> <value> <unit>` lines of a bench/e2e/run.sh run into
one results file, and prints the churn-stream breakdown of cycle_p50_us.

    results.py LINES --seconds S [--seed N] [--out results.json]

The churn stream is replayed by three workloads that differ by one layer each, so
subtracting their cycle_p50_us as measured isolates the layer: engine_churn is the
in-process core, fleet_churn minus engine_churn is the daemon-to-worker hop, and
remote_churn minus fleet_churn is the socket edge.
"""

import argparse
import json
import os
import subprocess
import sys


def parse_lines(path):
    results = {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) != 4 or parts[1] == "digest":
                continue
            workload, metric, value, unit = parts
            try:
                number = float(value)
            except ValueError:
                continue
            results.setdefault(workload, {})[metric] = {"value": number, "unit": unit}
    return results


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": model, "commit": commit}


def wall_cycle_p50(results, workload):
    """cycle_p50_us as measured: a workload reported at the reference speed also prints
    its measured figure, as wall.cycle_p50_us."""
    metrics = results[workload]
    return metrics.get("wall.cycle_p50_us", metrics["cycle_p50_us"])["value"]


def breakdown(results):
    try:
        core = wall_cycle_p50(results, "engine_churn")
        fleet = wall_cycle_p50(results, "fleet_churn")
        remote = wall_cycle_p50(results, "remote_churn")
    except KeyError:
        return []
    return [
        ("core", core, "engine_churn"),
        ("service hop", fleet - core, "fleet_churn - engine_churn"),
        ("edge", remote - fleet, "remote_churn - fleet_churn"),
    ]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("lines")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    results = parse_lines(args.lines)
    if not results:
        print("results.py: no metric lines in " + args.lines, file=sys.stderr)
        return 1
    rows = breakdown(results)
    if rows:
        print("churn-stream breakdown of cycle_p50_us")
        for layer, micros, how in rows:
            print(f"  {layer:<12} {micros:10.1f} us   {how}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "seconds": args.seconds, "host": host(),
                       "workloads": results}, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
