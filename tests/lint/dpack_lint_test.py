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
    "threads_violation.cc": ("src/common/queue.cc", {"threads"}),
    "raw_sleep_violation.cc": ("src/service/poll.cc", {"raw-sleep"}),
    "raw_yield_violation.cc": ("src/service/spin.cc", {"raw-yield"}),
    "unordered_iteration_violation.cc": ("src/core/order.cc", {"unordered-iteration"}),
    "unordered_member_violation.cc": ("src/core/tracker.cc", {"unordered-member"}),
    "nondeterministic_source_violation.cc": ("src/core/jitter.cc",
                                             {"nondeterministic-source"}),
    "pointer_keyed_order_violation.cc": ("src/block/scores.cc", {"pointer-keyed-order"}),
    "float_equality_violation.cc": ("src/block/budget.cc", {"float-equality"}),
    "admission_slack_violation.cc": ("src/orchestrator/snapshot_check.cc",
                                     {"admission-slack"}),
    "doc_link_violation.cc": ("src/core/notes.cc", {"doc-link"}),
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
        # The same unordered iteration outside src/core|src/block|src/service|src/sim is not in
        # scope (threads and raw-yield are the tree-wide rules).
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

    def test_grant_ordering_rules_cover_the_sim_driver(self):
        # The sim driver's schedule walk orders every driver's arrivals and cycles, which
        # decides admission and most-recent-block resolution, so every scoped rule must fire
        # on src/sim paths too.
        sim_scope = {
            "unordered_iteration_violation.cc": ("src/sim/walk.cc", "unordered-iteration"),
            "unordered_member_violation.cc": ("src/sim/walk_state.h", "unordered-member"),
            "nondeterministic_source_violation.cc": ("src/sim/clock.cc",
                                                     "nondeterministic-source"),
            "pointer_keyed_order_violation.cc": ("src/sim/order.cc", "pointer-keyed-order"),
            "float_equality_violation.cc": ("src/sim/resume.cc", "float-equality"),
        }
        for fixture, (as_path, rule) in sim_scope.items():
            with self.subTest(fixture=fixture, as_path=as_path):
                proc = run_lint("--fixture", os.path.join(FIXTURES, fixture),
                                "--as", as_path)
                self.assertEqual(proc.returncode, 1,
                                 f"{fixture} at {as_path} should be rejected:\n"
                                 f"{proc.stdout}")
                self.assertIn(f"[{rule}]", proc.stdout,
                              f"{fixture} at {as_path} should trip {rule}:\n"
                              f"{proc.stdout}")

    def test_grant_ordering_rules_cover_the_service(self):
        # The service is grant-ordering code: its admission and socket edge decide what
        # reaches the engine and when, so hash-order and wall-clock leaks there are as
        # fatal as in src/core. Every scoped rule must fire on src/service paths.
        service_scope = {
            "unordered_iteration_violation.cc": ("src/service/front.cc",
                                                 "unordered-iteration"),
            "unordered_member_violation.cc": ("src/service/edge_state.h",
                                              "unordered-member"),
            "nondeterministic_source_violation.cc": ("src/service/deadline.cc",
                                                     "nondeterministic-source"),
            "pointer_keyed_order_violation.cc": ("src/service/routing.cc",
                                                 "pointer-keyed-order"),
            "float_equality_violation.cc": ("src/service/admission.cc",
                                            "float-equality"),
            "threads_violation.cc": ("src/service/front_patch.cc", "threads"),
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
        # The exemption is exactly the bounded-wait file: the same sleeps linted as it are
        # clean, linted as any other common file (the deleted futex doorbell's old home
        # included) they fire, and sleep.cc's own content linted anywhere else fires.
        fixture = os.path.join(FIXTURES, "raw_sleep_violation.cc")
        proc = run_lint("--fixture", fixture, "--as", "src/common/sleep.cc")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        proc = run_lint("--fixture", fixture, "--as", "src/common/doorbell.cc")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertEqual(proc.stdout.count("[raw-sleep]"), 3, proc.stdout)
        sleep_cc = os.path.join(REPO_ROOT, "src", "common", "sleep.cc")
        proc = run_lint("--fixture", sleep_cc, "--as", "src/common/other_sleep.cc")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("[raw-sleep]", proc.stdout)

    def test_raw_yield_fires_everywhere_but_sleep_cc(self):
        # Both yields fire in the library and in tests, benches and examples alike; only
        # the spin-then-block wait's own file may yield, and its content linted as any
        # other file fires.
        fixture = os.path.join(FIXTURES, "raw_yield_violation.cc")
        for as_path in ("src/common/queue.cc", "tests/service/spin_test.cc",
                        "bench/e2e/spin.cc", "examples/spin.cpp"):
            with self.subTest(as_path=as_path):
                proc = run_lint("--fixture", fixture, "--as", as_path)
                self.assertEqual(proc.returncode, 1, proc.stdout)
                self.assertEqual(proc.stdout.count("[raw-yield]"), 2, proc.stdout)
        proc = run_lint("--fixture", fixture, "--as", "src/common/sleep.cc")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        sleep_cc = os.path.join(REPO_ROOT, "src", "common", "sleep.cc")
        proc = run_lint("--fixture", sleep_cc, "--as", "src/common/other_sleep.cc")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("[raw-yield]", proc.stdout)

    def test_admission_slack_fires_in_src_outside_its_home(self):
        # Both spellings fire anywhere in the library, grant-ordering or not; only the
        # admission rule's header may spell the slack, and its content linted as any other
        # library file fires. Tests and benches may carry their own copy.
        fixture = os.path.join(FIXTURES, "admission_slack_violation.cc")
        for as_path in ("src/block/privacy_block.cc", "src/orchestrator/checkpoint.cc",
                        "src/knapsack/privacy_knapsack.cc", "src/rdp/filter.h"):
            with self.subTest(as_path=as_path):
                proc = run_lint("--fixture", fixture, "--as", as_path)
                self.assertEqual(proc.returncode, 1, proc.stdout)
                self.assertEqual(proc.stdout.count("[admission-slack]"), 2, proc.stdout)
        for as_path in ("src/block/privacy_block.h", "tests/block/privacy_block_test.cc",
                        "bench/e2e/streams.cc"):
            with self.subTest(as_path=as_path):
                proc = run_lint("--fixture", fixture, "--as", as_path)
                self.assertEqual(proc.returncode, 0, proc.stdout)
        header = os.path.join(REPO_ROOT, "src", "block", "privacy_block.h")
        proc = run_lint("--fixture", header, "--as", "src/block/other_block.h")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("[admission-slack]", proc.stdout)

    def test_doc_link_resolves_from_the_root_or_the_files_directory(self):
        # Exactly the two dead pointers fire wherever the fixture sits, the URL, the glob,
        # the string literal and the root-relative src/README.md included.
        fixture = os.path.join(FIXTURES, "doc_link_violation.cc")
        for as_path in ("src/core/notes.cc", "tests/lint/notes_test.cc", "bench/notes.cc",
                        "examples/notes.cpp"):
            with self.subTest(as_path=as_path):
                proc = run_lint("--fixture", fixture, "--as", as_path)
                self.assertEqual(proc.returncode, 1, proc.stdout)
                self.assertEqual(proc.stdout.count("[doc-link]"), 2, proc.stdout)
        # A bare file name resolves beside the file: bench/e2e has a README, src/core and
        # the repo root have none. Python and shell comments are checked too, under
        # scripts/ as well; a Python string is not a comment.
        cases = (
            (".cc", "// See README.md for the workloads.\n", "bench/e2e/notes.cc", 0),
            (".cc", "// See README.md for the workloads.\n", "src/core/notes.cc", 1),
            (".py", "# See DESIGN.md.\nx = '# MISSING.md'\n", "scripts/tool.py", 1),
            (".sh", "# See src/README.md.\necho $# # EXPERIMENTS.md\n", "scripts/run.sh", 1),
        )
        for suffix, text, as_path, expected in cases:
            with self.subTest(as_path=as_path, text=text):
                with tempfile.NamedTemporaryFile("w", suffix=suffix, delete=False) as fh:
                    fh.write(text)
                    path = fh.name
                try:
                    proc = run_lint("--fixture", path, "--as", as_path)
                finally:
                    os.unlink(path)
                self.assertEqual(proc.returncode, 1 if expected else 0, proc.stdout)
                self.assertEqual(proc.stdout.count("[doc-link]"), expected, proc.stdout)

    def test_digit_separators_are_not_char_literals(self):
        # 60'000 is a number: the quote must not open a char literal that hides the rest of
        # the file from every rule.
        with tempfile.NamedTemporaryFile("w", suffix=".cc", delete=False) as fh:
            fh.write("constexpr int kTasks = 60'000;\n"
                     "// See DESIGN.md.\n"
                     "int x = rand();\n")
            path = fh.name
        try:
            proc = run_lint("--fixture", path, "--as", "src/core/count.cc")
        finally:
            os.unlink(path)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("count.cc:2: [doc-link]", proc.stdout)
        self.assertIn("count.cc:3: [nondeterministic-source]", proc.stdout)


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

    def test_threads_fires_everywhere_with_no_exempt_file(self):
        # Every use in the seeded fixture fires in the library, tests, benches and examples
        # alike, and so does a lone thread in a test or a lone mutex in any common header:
        # no file may start a thread or take a lock.
        fixture = os.path.join(FIXTURES, "threads_violation.cc")
        for as_path in ("src/common/queue.cc", "tests/service/worker_test.cc",
                        "bench/e2e/worker.cc", "examples/worker.cpp"):
            with self.subTest(as_path=as_path):
                proc = run_lint("--fixture", fixture, "--as", as_path)
                self.assertEqual(proc.returncode, 1, proc.stdout)
                self.assertEqual(proc.stdout.count("[threads]"), 7, proc.stdout)
        cases = (
            ("#include <thread>\nstd::thread worker([] {});\n", "tests/core/worker_test.cc"),
            ("#include <mutex>\ninline std::mutex mu;\n", "src/common/subprocess.h"),
            ("#include <mutex>\ninline std::mutex mu;\n", "src/common/sleep.h"),
        )
        for text, as_path in cases:
            with self.subTest(as_path=as_path, text=text):
                with tempfile.NamedTemporaryFile("w", suffix=".cc", delete=False) as fh:
                    fh.write(text)
                    path = fh.name
                try:
                    proc = run_lint("--fixture", path, "--as", as_path)
                finally:
                    os.unlink(path)
                self.assertEqual(proc.returncode, 1, proc.stdout)
                self.assertIn(f"{as_path}:2: [threads]", proc.stdout)


if __name__ == "__main__":
    unittest.main()
