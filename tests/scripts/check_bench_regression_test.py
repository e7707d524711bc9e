#!/usr/bin/env python3
"""Tests for scripts/check_bench_regression.py — the counter gate behind every perf claim.

Covers the three behaviors PRs 4/6 added (and everything a gate must not get wrong):
zero-baseline counters compared with an absolute tolerance, missing-baseline-key failures
in both directions, and the shrunken-sweep diagnostic for missing .../blocks:N points."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SCRIPT = os.path.join(REPO_ROOT, "scripts", "check_bench_regression.py")


def bench(name, **fields):
    entry = {"name": name}
    entry.update(fields)
    return entry


class GateHarness(unittest.TestCase):
    def run_gate(self, baseline_entries, *current_entry_lists):
        """Writes baseline + N current files, runs the gate, returns (rc, stdout)."""
        paths = []
        try:
            for entries in (baseline_entries,) + current_entry_lists:
                fh = tempfile.NamedTemporaryFile(
                    "w", suffix=".json", delete=False)
                json.dump({"benchmarks": entries}, fh)
                fh.close()
                paths.append(fh.name)
            proc = subprocess.run(
                [sys.executable, SCRIPT] + paths, capture_output=True, text=True)
            return proc.returncode, proc.stdout
        finally:
            for path in paths:
                os.unlink(path)


class PassAndDrift(GateHarness):
    def test_identical_counters_pass(self):
        entries = [bench("BM_Steady/shards:4", tasks_rescored_per_cycle=64.0)]
        rc, out = self.run_gate(entries, entries)
        self.assertEqual(rc, 0, out)
        self.assertIn("no counter regressions", out)

    def test_drift_within_tolerance_passes(self):
        rc, out = self.run_gate(
            [bench("BM_Steady", blocks_refreshed_per_cycle=100.0)],
            [bench("BM_Steady", blocks_refreshed_per_cycle=120.0)])  # 20% < 25%
        self.assertEqual(rc, 0, out)

    def test_drift_beyond_tolerance_fails_both_directions(self):
        for current in (131.0, 74.0):  # +31% and -26%
            with self.subTest(current=current):
                rc, out = self.run_gate(
                    [bench("BM_Steady", blocks_refreshed_per_cycle=100.0)],
                    [bench("BM_Steady", blocks_refreshed_per_cycle=current)])
                self.assertEqual(rc, 1, out)
                self.assertIn("REGRESSION", out)

    def test_time_fields_are_never_gated(self):
        rc, out = self.run_gate(
            [bench("BM_Steady", real_time=1.0, cpu_time=1.0, wall_ms=5.0,
                   tasks_rescored_per_cycle=10.0)],
            [bench("BM_Steady", real_time=900.0, cpu_time=900.0, wall_ms=900.0,
                   tasks_rescored_per_cycle=10.0)])
        self.assertEqual(rc, 0, out)


class ZeroBaselineAbsoluteTolerance(GateHarness):
    def test_zero_baseline_accepts_float_dust(self):
        # A relative tolerance on zero is an exact-match trap; the gate must accept
        # counter values within the absolute 1e-6 window (e.g. float-dump artifacts).
        rc, out = self.run_gate(
            [bench("BM_Steady", merge_allocs=0.0)],
            [bench("BM_Steady", merge_allocs=5e-7)])
        self.assertEqual(rc, 0, out)

    def test_zero_baseline_rejects_real_work(self):
        rc, out = self.run_gate(
            [bench("BM_Steady", merge_allocs=0.0)],
            [bench("BM_Steady", merge_allocs=1.0)])
        self.assertEqual(rc, 1, out)
        self.assertIn("REGRESSION", out)

    def test_zero_baseline_rejects_just_past_the_window(self):
        rc, out = self.run_gate(
            [bench("BM_Steady", full_recomputes=0.0)],
            [bench("BM_Steady", full_recomputes=2e-6)])
        self.assertEqual(rc, 1, out)

    def test_only_work_counters_are_gated(self):
        # The gate compares *_per_cycle, full_recomputes and merge_allocs; any other numeric
        # field (a gauge, a label-like count) is not a work counter and never fails it.
        rc, out = self.run_gate(
            [bench("BM_Steady", merge_allocs=0.0, threads=4.0)],
            [bench("BM_Steady", merge_allocs=0.0, threads=8.0)])
        self.assertEqual(rc, 0, out)
        self.assertNotIn("threads", out)


class MissingKeys(GateHarness):
    def test_current_counter_absent_from_baseline_fails(self):
        # An untracked counter is a gate with a hole in it.
        rc, out = self.run_gate(
            [bench("BM_Steady", tasks_rescored_per_cycle=10.0)],
            [bench("BM_Steady", tasks_rescored_per_cycle=10.0,
                   blocks_refreshed_per_cycle=3.0)])
        self.assertEqual(rc, 1, out)
        self.assertIn("missing baseline key", out)

    def test_new_benchmark_with_counters_but_no_baseline_entry_fails(self):
        rc, out = self.run_gate(
            [bench("BM_Steady", tasks_rescored_per_cycle=10.0)],
            [bench("BM_Steady", tasks_rescored_per_cycle=10.0),
             bench("BM_Brand_New", tasks_rescored_per_cycle=1.0)])
        self.assertEqual(rc, 1, out)
        self.assertIn("missing baseline key", out)

    def test_baseline_counter_absent_from_current_fails(self):
        rc, out = self.run_gate(
            [bench("BM_Steady", tasks_rescored_per_cycle=10.0,
                   blocks_refreshed_per_cycle=5.0)],
            [bench("BM_Steady", tasks_rescored_per_cycle=10.0)])
        self.assertEqual(rc, 1, out)
        self.assertIn("missing from the current run", out)


class ShrunkenSweep(GateHarness):
    def test_missing_sweep_point_gets_explicit_diagnostic(self):
        rc, out = self.run_gate(
            [bench("BM_Scale/blocks:10000", blocks_refreshed_per_cycle=32.0),
             bench("BM_Scale/blocks:1000000", blocks_refreshed_per_cycle=32.0)],
            [bench("BM_Scale/blocks:10000", blocks_refreshed_per_cycle=32.0)])
        self.assertEqual(rc, 1, out)
        self.assertIn("sweep point missing", out)
        self.assertIn("blocks:1000000", out)

    def test_missing_non_sweep_benchmark_gets_plain_message(self):
        rc, out = self.run_gate(
            [bench("BM_Gone", blocks_refreshed_per_cycle=1.0)],
            [bench("BM_Other", blocks_refreshed_per_cycle=1.0)])
        self.assertEqual(rc, 1, out)
        self.assertIn("present in baseline but missing", out)
        self.assertNotIn("sweep point missing", out)


class MultipleCurrentFiles(GateHarness):
    def test_current_files_merge_like_the_ci_invocation(self):
        # CI passes micro_scheduler.json + fig5/10/11 counter dumps in one call.
        rc, out = self.run_gate(
            [bench("BM_A", tasks_rescored_per_cycle=1.0),
             bench("BM_B", tasks_rescored_per_cycle=2.0)],
            [bench("BM_A", tasks_rescored_per_cycle=1.0)],
            [bench("BM_B", tasks_rescored_per_cycle=2.0)])
        self.assertEqual(rc, 0, out)

    def test_usage_error_without_enough_arguments(self):
        proc = subprocess.run([sys.executable, SCRIPT, "only_one.json"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()
