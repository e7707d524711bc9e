#!/usr/bin/env python3
"""Self-test for scripts/dpack_lint.py: every rule must fire on its seeded fixture
violation and stay quiet on the near-miss fixture and the real tree. This is what keeps
the lint gate honest — a rule that silently stops matching fails here, not in review."""

import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
LINT = os.path.join(REPO_ROOT, "scripts", "dpack_lint.py")
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

# fixture file -> (lint-as repo path, rules that must fire)
VIOLATIONS = {
    "raw_mutex_violation.cc": ("src/common/queue.cc", {"raw-mutex"}),
    "raw_sleep_violation.cc": ("src/service/poll.cc", {"raw-sleep"}),
    "unordered_iteration_violation.cc": ("src/core/order.cc", {"unordered-iteration"}),
    "unordered_member_violation.cc": ("src/core/tracker.cc", {"unordered-member"}),
    "nondeterministic_source_violation.cc": ("src/core/jitter.cc",
                                             {"nondeterministic-source"}),
    "pointer_keyed_order_violation.cc": ("src/block/scores.cc", {"pointer-keyed-order"}),
    "float_equality_violation.cc": ("src/block/budget.cc", {"float-equality"}),
}


def run_lint(*args):
    return subprocess.run([sys.executable, LINT, "--root", REPO_ROOT, *args],
                          capture_output=True, text=True)


class FixtureViolations(unittest.TestCase):
    def test_every_rule_fires_on_its_seeded_violation(self):
        for fixture, (as_path, rules) in VIOLATIONS.items():
            with self.subTest(fixture=fixture):
                proc = run_lint("--fixture", os.path.join(FIXTURES, fixture),
                                "--as", as_path)
                self.assertEqual(proc.returncode, 1,
                                 f"{fixture} should be rejected:\n{proc.stdout}")
                for rule in rules:
                    self.assertIn(f"[{rule}]", proc.stdout,
                                  f"{fixture} should trip {rule}:\n{proc.stdout}")

    def test_violations_fire_regardless_of_header_or_source_suffix(self):
        proc = run_lint("--fixture",
                        os.path.join(FIXTURES, "unordered_member_violation.cc"),
                        "--as", "src/core/tracker.h")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("[unordered-member]", proc.stdout)

    def test_grant_ordering_rules_scoped_to_grant_dirs(self):
        # The same unordered iteration outside src/core|src/block|src/service is not in
        # scope (the raw-mutex rule is the only tree-wide one).
        proc = run_lint("--fixture",
                        os.path.join(FIXTURES, "unordered_iteration_violation.cc"),
                        "--as", "src/workload/order.cc")
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_float_equality_reaches_src_workload(self):
        # Trace readers reparse budget doubles from text, where a bare == against a grid
        # value is the same representation trap as in the engines — so float-equality's
        # scope extends to src/workload while the other grant-ordering rules stay out
        # (test_grant_ordering_rules_scoped_to_grant_dirs above proves the non-widening).
        proc = run_lint("--fixture",
                        os.path.join(FIXTURES, "float_equality_violation.cc"),
                        "--as", "src/workload/trace_cmp.cc")
        self.assertEqual(proc.returncode, 1,
                         f"float-equality must fire in src/workload:\n{proc.stdout}")
        self.assertIn("[float-equality]", proc.stdout)

    def test_grant_ordering_rules_cover_the_service(self):
        # The multi-process service is grant-ordering code: the daemon merges scores and
        # the workers replicate scoring, so hash-order and wall-clock leaks there are as
        # fatal as in src/core. Every scoped rule must fire on src/service paths.
        service_scope = {
            "unordered_iteration_violation.cc": ("src/service/merge.cc",
                                                 "unordered-iteration"),
            "unordered_member_violation.cc": ("src/service/replica.h",
                                              "unordered-member"),
            "nondeterministic_source_violation.cc": ("src/service/deadline.cc",
                                                     "nondeterministic-source"),
            "pointer_keyed_order_violation.cc": ("src/service/routing.cc",
                                                 "pointer-keyed-order"),
            "float_equality_violation.cc": ("src/service/admission.cc",
                                            "float-equality"),
            "raw_mutex_violation.cc": ("src/service/transport_patch.cc", "raw-mutex"),
        }
        for fixture, (as_path, rule) in service_scope.items():
            with self.subTest(fixture=fixture, as_path=as_path):
                proc = run_lint("--fixture", os.path.join(FIXTURES, fixture),
                                "--as", as_path)
                self.assertEqual(proc.returncode, 1,
                                 f"{fixture} at {as_path} should be rejected:\n"
                                 f"{proc.stdout}")
                self.assertIn(f"[{rule}]", proc.stdout,
                              f"{fixture} at {as_path} should trip {rule}:\n"
                              f"{proc.stdout}")


    def test_raw_sleep_fires_on_every_sleep_and_only_in_src(self):
        fixture = os.path.join(FIXTURES, "raw_sleep_violation.cc")
        proc = run_lint("--fixture", fixture, "--as", "src/common/queue.cc")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertEqual(proc.stdout.count("[raw-sleep]"), 3, proc.stdout)
        # Tests and benches may sleep (they pace peers, not the service).
        proc = run_lint("--fixture", fixture, "--as", "tests/service/poll_test.cc")
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_raw_sleep_homes_are_the_only_exemptions(self):
        # The exemption is exactly the two bounded-wait files: the same sleeps linted as
        # either home are clean, and sleep.cc's own content linted anywhere else fires.
        fixture = os.path.join(FIXTURES, "raw_sleep_violation.cc")
        for home in ("src/common/sleep.cc", "src/common/doorbell.cc"):
            with self.subTest(home=home):
                proc = run_lint("--fixture", fixture, "--as", home)
                self.assertEqual(proc.returncode, 0, proc.stdout)
        sleep_cc = os.path.join(REPO_ROOT, "src", "common", "sleep.cc")
        proc = run_lint("--fixture", sleep_cc, "--as", "src/common/other_sleep.cc")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("[raw-sleep]", proc.stdout)


class NearMisses(unittest.TestCase):
    def test_clean_fixture_produces_zero_findings(self):
        proc = run_lint("--fixture", os.path.join(FIXTURES, "clean.cc"),
                        "--as", "src/core/clean.cc")
        self.assertEqual(proc.returncode, 0,
                         f"near-miss fixture must be clean:\n{proc.stdout}")

    def test_allow_annotation_requires_a_reason(self):
        # An allow without a reason is not an allow: the annotation is a reviewed claim.
        with tempfile.NamedTemporaryFile("w", suffix=".cc", delete=False) as fh:
            fh.write("#include <unordered_map>\n"
                     "// dpack-lint: allow(unordered-member):\n"
                     "std::unordered_map<int, int> m;\n")
            path = fh.name
        try:
            proc = run_lint("--fixture", path, "--as", "src/core/m.cc")
            self.assertEqual(proc.returncode, 1, proc.stdout)
            self.assertIn("[unordered-member]", proc.stdout)
        finally:
            os.unlink(path)

    def test_allow_for_the_wrong_rule_does_not_suppress(self):
        with tempfile.NamedTemporaryFile("w", suffix=".cc", delete=False) as fh:
            fh.write("#include <unordered_map>\n"
                     "// dpack-lint: allow(float-equality): wrong rule name.\n"
                     "std::unordered_map<int, int> m;\n")
            path = fh.name
        try:
            proc = run_lint("--fixture", path, "--as", "src/core/m.cc")
            self.assertEqual(proc.returncode, 1, proc.stdout)
        finally:
            os.unlink(path)


class RealTree(unittest.TestCase):
    def test_tree_is_clean(self):
        proc = run_lint()
        self.assertEqual(proc.returncode, 0,
                         f"the real tree must lint clean:\n{proc.stdout}{proc.stderr}")

    def test_thread_annotations_header_is_the_only_raw_mutex_site(self):
        # The exemption is exactly one file; linting the header's own content as any other
        # path must fire, proving the exemption cannot widen silently.
        header = os.path.join(REPO_ROOT, "src", "common", "thread_annotations.h")
        proc = run_lint("--fixture", header, "--as", "src/common/other_header.h")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("[raw-mutex]", proc.stdout)


if __name__ == "__main__":
    unittest.main()
