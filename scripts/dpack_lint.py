#!/usr/bin/env python3
"""dpack-lint: static determinism & concurrency rules the differential suites can only sample.

The engine-matrix tests prove byte-identical grants for the interleavings and hash orders a
run happens to explore; these rules reject the *sources* of nondeterminism at review time,
on every line of the scheduling paths. Rules (scoped to the grant-ordering directories
src/core, src/block, and src/service unless noted):

  raw-mutex                (all of src/, tests/, bench/, examples/) std::mutex,
                           std::condition_variable, std::lock_guard, std::unique_lock &
                           friends are banned everywhere except
                           src/common/thread_annotations.h — every lock must go through the
                           annotated Mutex/MutexLock/CondVar wrappers so clang's
                           -Wthread-safety analysis sees it.
  raw-sleep                (all of src/) usleep, nanosleep, clock_nanosleep, sleep_for and
                           sleep_until are banned except in src/common/sleep.cc and
                           src/common/doorbell.cc. A wait on the service's critical path
                           must end when its event arrives (a Doorbell on shm rings,
                           WaitForFds on sockets); the few sleeps with nothing to wait on go
                           through SleepFullMicros, which EINTR cannot shorten.
  unordered-iteration      Iterating an unordered container on a grant-ordering path:
                           iteration order is hash-seed/pointer dependent, so any grant
                           decision derived from it differs run to run. Lookups are fine;
                           iteration is not.
  unordered-member         Any unordered_map/unordered_set declaration in scope must carry
                           an explicit justification:
                             // dpack-lint: allow(unordered-member): lookup-only — <why>
                           which is the reviewed proof that no iteration order escapes.
  nondeterministic-source  rand()/srand/std::random_device (unseeded randomness),
                           time()/clock()/*_clock::now() (wall clock) in engine code. The
                           blessed randomness source is src/common/rng.h (seeded, logged);
                           wall-clock reads are allowed only for metrics with an allow
                           annotation.
  pointer-keyed-order      Containers ordered or hashed by pointer keys (std::map<T*, ...>,
                           std::set<T*>, std::hash<T*>): address-dependent order leaks ASLR
                           into grant decisions.
  float-equality           (grant-ordering dirs + src/workload) Bare ==/!= on budget
                           quantities (demand/budget/consumed/unlocked/capacity/eps).
                           Budget feasibility must go through the blessed tolerance helpers
                           (PrivacyBlock::CanAccept/CanCharge and their 1e-9*(1+cap)
                           slack); exact float equality is a representation-dependent trap.
                           src/workload is in scope because trace readers compare reparsed
                           doubles against grid values — those must compare bit patterns
                           (BitsOfDouble), not float ==, or a text roundtrip silently
                           accepts a neighboring grid. Ordering comparators on scores
                           use </> tie-breaks and are out of scope by construction.

Suppression: `// dpack-lint: allow(<rule>): <reason>` on the offending line or the line
above. The reason is mandatory — an allow is a reviewed claim, not an escape hatch.

Exit status: 0 clean, 1 findings, 2 usage/tool error.

Usage:
  dpack_lint.py --root REPO                 lint the tree (the CI gate)
  dpack_lint.py --root REPO --fixture F --as src/core/f.cc
                                            lint one file as if at the given repo path
                                            (the tests/lint fixture self-test)
  dpack_lint.py --root REPO --clang-query -p BUILD_DIR
                                            additionally run the clang-query AST matchers
                                            (needs clang-query + compile_commands.json)
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

# Directories whose code decides or orders grants: hash-order and clock nondeterminism
# here changes the grant sequence, which the whole reproduction pins byte-for-byte.
# src/service is in scope because the daemon's merge and the workers' scoring replicas are
# grant-ordering code too — a hash-order or wall-clock leak there breaks the multi-process
# grant-equivalence proof the same way it would in-process (deadlines in the service are
# iteration budgets, not clocks, precisely so this rule can hold there).
GRANT_ORDERING_DIRS = ("src/core", "src/block", "src/service")
# float-equality reaches further: trace I/O reparses budget doubles from text, where a bare
# == against a grid value is the same representation trap (the other grant-ordering rules
# stay scoped — workload generation may iterate its own maps without ordering grants).
FLOAT_EQ_DIRS = GRANT_ORDERING_DIRS + ("src/workload",)
# raw-mutex applies everywhere C++ lives; the annotations header is the one sanctioned home.
ALL_CODE_DIRS = ("src", "tests", "bench", "examples")
THREAD_ANNOTATIONS_HEADER = "src/common/thread_annotations.h"
# raw-sleep applies to the library; these are the sanctioned homes of a bounded wait.
RAW_SLEEP_DIRS = ("src",)
RAW_SLEEP_HOMES = ("src/common/sleep.cc", "src/common/doorbell.cc")

ALLOW_RE = re.compile(r"//\s*dpack-lint:\s*allow\(([a-z-]+)\)\s*:\s*\S")

RAW_MUTEX_RE = re.compile(
    r"std::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|shared_mutex|"
    r"shared_timed_mutex|condition_variable|condition_variable_any|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock)\b")
RAW_SLEEP_RE = re.compile(
    r"(?<![\w])(usleep|nanosleep|clock_nanosleep)\s*\(|\b(sleep_for|sleep_until)\s*\(")
UNORDERED_DECL_RE = re.compile(
    r"\bstd::(unordered_map|unordered_set|unordered_multimap|unordered_multiset)\s*<")
# A (member) declaration we can harvest a variable name from:
#   std::unordered_map<K, V> name_;   std::unordered_set<T> name;
UNORDERED_NAME_RE = re.compile(
    r"\bstd::unordered_(?:multi)?(?:map|set)\s*<[^;{]*>\s+(\w+)\s*[;={]")
NONDET_RES = (
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand() (use src/common/rng.h)"),
    (re.compile(r"\bstd::rand\b|\bstd::srand\b"), "std::rand/std::srand (use src/common/rng.h)"),
    (re.compile(r"\brandom_device\b"), "std::random_device (unseeded entropy)"),
    (re.compile(r"\b\w*_clock::now\b"), "wall-clock read"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(nullptr|0|NULL)\s*\)"), "time()"),
    (re.compile(r"(?<![\w:])clock\s*\(\s*\)"), "clock()"),
)
POINTER_KEY_RES = (
    (re.compile(r"\bstd::(map|set|multimap|multiset)\s*<[^,>]*\*"), "pointer-ordered container"),
    (re.compile(r"\bstd::hash\s*<[^>]*\*"), "pointer hash"),
    (re.compile(r"\bstd::unordered_(?:multi)?(?:map|set)\s*<[^,>]*\*"),
     "pointer-keyed unordered container"),
)
# Budget quantities whose comparisons must go through the tolerance helpers.
BUDGET_TOKEN = r"(?:demand|budget|consumed|unlocked|capacity|eps_g|epsilon|remaining)"
FLOAT_EQ_RE = re.compile(
    r"(?:[\w.\]\)]*" + BUDGET_TOKEN + r"[\w.\[\(\]\)]*\s*(?:==|!=)\s*[^=;]"
    r"|[^=!<>;]\s*(?:==|!=)\s*[\w.\(]*" + BUDGET_TOKEN + r")")
# Comparison shapes float-equality must ignore: iterator/lookup results, null checks,
# size_t bookkeeping through .size()/.capacity()/.count(), and scoped-enum dispatch against
# a Type::kConstant (e.g. spec.demand == DemandDistribution::kZipfEpsMin) — none of them
# are budget doubles.
FLOAT_EQ_BLANK_RES = (
    re.compile(r"[\w.\->]*(?:\.|->)c?(?:end|begin|find|count|size|capacity)\s*\([^)]*\)"),
    re.compile(r"(?:==|!=)\s*nullptr|nullptr\s*(?:==|!=)"),
    re.compile(r"(?:==|!=)\s*\w+(?:::\w+)*::k\w+|\w+(?:::\w+)*::k\w+\s*(?:==|!=)"),
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*([^)]+)\)")
# Iterator walks need a begin(); a bare end() is the find()-sentinel lookup idiom.
ITER_BEGIN_RE = re.compile(r"(\w+)\s*(?:\.|->)\s*c?r?begin\s*\(")

# clang-query AST matchers: the precise, type-resolved versions of the source rules. Run
# opportunistically (--clang-query) over compile_commands.json; the source rules above are
# the deterministic gate, these catch what text-level matching cannot (typedefs, auto).
CLANG_QUERY_MATCHERS = [
    ("unordered-iteration",
     'match cxxForRangeStmt(hasRangeInit(expr(hasType(qualType(hasDeclaration(namedDecl('
     'matchesName("unordered_(map|set)"))))))))'),
    ("raw-mutex",
     'match varDecl(hasType(qualType(hasDeclaration(namedDecl(hasAnyName('
     '"std::mutex", "std::condition_variable"))))))'),
]


def strip_code(text):
    """Blanks comments and string/char literal bodies, preserving line structure."""
    out = []
    i = 0
    n = len(text)
    state = None  # None | 'line' | 'block' | 'str' | 'chr' | 'raw'
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
            elif c == "R" and nxt == '"':
                close = text.find("(", i + 2)
                if close == -1:
                    out.append(c)
                    i += 1
                    continue
                raw_delim = ")" + text[i + 2:close] + '"'
                state = "raw"
                out.append(" " * (close + 1 - i))
                i = close + 1
            elif c == '"':
                state = "str"
                out.append(c)
                i += 1
            elif c == "'":
                state = "chr"
                out.append(c)
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = None
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = None
                out.append(c)
                i += 1
            else:
                out.append(" ")
                i += 1
    return "".join(out)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def allowed(raw_lines, lineno, rule):
    """True when line `lineno` (1-based) or the line above carries an allow for `rule`."""
    for ln in (lineno, lineno - 1):
        if 1 <= ln <= len(raw_lines):
            m = ALLOW_RE.search(raw_lines[ln - 1])
            if m and m.group(1) == rule:
                return True
    return False


def in_scope(rel, dirs):
    rel = rel.replace(os.sep, "/")
    return any(rel == d or rel.startswith(d + "/") for d in dirs)


def lint_file(rel, text):
    findings = []
    raw_lines = text.splitlines()
    stripped = strip_code(text)
    lines = stripped.splitlines()
    rel_posix = rel.replace(os.sep, "/")

    def add(lineno, rule, message):
        if not allowed(raw_lines, lineno, rule):
            findings.append(Finding(rel_posix, lineno, rule, message))

    # raw-mutex: everywhere except the annotations header itself.
    if in_scope(rel_posix, ALL_CODE_DIRS) and rel_posix != THREAD_ANNOTATIONS_HEADER:
        for idx, line in enumerate(lines, 1):
            m = RAW_MUTEX_RE.search(line)
            if m:
                add(idx, "raw-mutex",
                    f"std::{m.group(1)} outside {THREAD_ANNOTATIONS_HEADER}; use the "
                    f"annotated Mutex/MutexLock/CondVar wrappers so -Wthread-safety "
                    f"checks the lock discipline")

    # raw-sleep: the library, except the two files that implement bounded waits.
    if in_scope(rel_posix, RAW_SLEEP_DIRS) and rel_posix not in RAW_SLEEP_HOMES:
        for idx, line in enumerate(lines, 1):
            m = RAW_SLEEP_RE.search(line)
            if m:
                add(idx, "raw-sleep",
                    f"{m.group(1) or m.group(2)}() outside {' / '.join(RAW_SLEEP_HOMES)}; "
                    f"wait on the event (Doorbell, WaitForFds) or, with nothing to wait "
                    f"on, call SleepFullMicros")

    in_grant_scope = in_scope(rel_posix, GRANT_ORDERING_DIRS)
    in_float_eq_scope = in_scope(rel_posix, FLOAT_EQ_DIRS)
    if not in_grant_scope and not in_float_eq_scope:
        return findings

    if in_grant_scope:
        # Harvest unordered-declared names for the iteration rule, and enforce the
        # justification annotation on every unordered declaration.
        unordered_names = set()
        for idx, line in enumerate(lines, 1):
            m = UNORDERED_NAME_RE.search(line)
            if m:
                unordered_names.add(m.group(1))
            if UNORDERED_DECL_RE.search(line):
                if not allowed(raw_lines, idx, "unordered-member"):
                    findings.append(Finding(
                        rel_posix, idx, "unordered-member",
                        "unordered container in grant-ordering code needs a reviewed "
                        "justification: '// dpack-lint: allow(unordered-member): "
                        "lookup-only — <why no iteration order escapes>'"))

        # unordered-iteration: range-for or begin()/end() over a name declared unordered in
        # this file (declaration-local heuristic; the clang-query matcher is the
        # type-resolved version).
        for idx, line in enumerate(lines, 1):
            m = RANGE_FOR_RE.search(line)
            if m:
                range_expr = m.group(1)
                for name in unordered_names:
                    if re.search(r"\b" + re.escape(name) + r"\b", range_expr):
                        add(idx, "unordered-iteration",
                            f"iteration over unordered container '{name}' on a "
                            f"grant-ordering path: hash order is seed/pointer dependent "
                            f"and would leak into the grant sequence")
            m = ITER_BEGIN_RE.search(line)
            if m and m.group(1) in unordered_names:
                add(idx, "unordered-iteration",
                    f"iterator walk over unordered container '{m.group(1)}' on a "
                    f"grant-ordering path")

    for idx, line in enumerate(lines, 1):
        if in_grant_scope:
            for pattern, what in NONDET_RES:
                if pattern.search(line):
                    add(idx, "nondeterministic-source",
                        f"{what} in engine code; grant paths must be pure functions of "
                        f"(workload, seed, block state)")
            for pattern, what in POINTER_KEY_RES:
                if pattern.search(line):
                    add(idx, "pointer-keyed-order",
                        f"{what}: address-dependent order leaks ASLR into grant decisions")
        if in_float_eq_scope:
            eq_line = line
            for blank in FLOAT_EQ_BLANK_RES:
                eq_line = blank.sub(" ", eq_line)
            if FLOAT_EQ_RE.search(eq_line):
                add(idx, "float-equality",
                    "bare ==/!= on a budget quantity; use the blessed tolerance helpers "
                    "(PrivacyBlock::CanAccept/CanCharge, 1e-9*(1+cap) slack), bit-pattern "
                    "comparison (BitsOfDouble) for exact-roundtrip checks, or an ordered "
                    "</> comparison")

    return findings


def iter_tree(root):
    for base in ALL_CODE_DIRS:
        top = os.path.join(root, base)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "fixtures")
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".cpp", ".hpp")):
                    yield os.path.join(dirpath, name)


def run_clang_query(root, build_dir):
    """Runs the AST matchers over every translation unit in compile_commands.json."""
    binary = shutil.which("clang-query")
    if binary is None:
        print("dpack-lint: clang-query not on PATH", file=sys.stderr)
        return None
    sources = [p for p in iter_tree(root)
               if p.endswith(".cc") and in_scope(os.path.relpath(p, root), ("src",))]
    with tempfile.NamedTemporaryFile("w", suffix=".cq", delete=False) as fh:
        fh.write("set bind-root true\n")
        for _, matcher in CLANG_QUERY_MATCHERS:
            fh.write(matcher + "\n")
        script = fh.name
    try:
        proc = subprocess.run(
            [binary, "-p", build_dir, "-f", script] + sources,
            capture_output=True, text=True)
    finally:
        os.unlink(script)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    hits = []
    for line in proc.stdout.splitlines():
        # Matches print as "<path>:<line>:<col>: note: "root" binds here".
        m = re.match(r"(.+?):(\d+):\d+: note:", line)
        if m and THREAD_ANNOTATIONS_HEADER not in m.group(1):
            hits.append(Finding(os.path.relpath(m.group(1), root), int(m.group(2)),
                                "clang-query", "AST matcher hit (see rule list)"))
    return hits


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", required=True, help="repository root")
    parser.add_argument("--fixture", help="lint a single file instead of the tree")
    parser.add_argument("--as", dest="treat_as",
                        help="repo-relative path the fixture is linted as")
    parser.add_argument("--clang-query", action="store_true",
                        help="additionally run the clang-query AST matchers")
    parser.add_argument("-p", dest="build_dir", default="build",
                        help="compile_commands.json directory for --clang-query")
    args = parser.parse_args(argv[1:])

    findings = []
    if args.fixture:
        if not args.treat_as:
            parser.error("--fixture requires --as")
        with open(args.fixture) as fh:
            findings.extend(lint_file(args.treat_as, fh.read()))
    else:
        for path in iter_tree(args.root):
            rel = os.path.relpath(path, args.root)
            with open(path) as fh:
                findings.extend(lint_file(rel, fh.read()))
        if args.clang_query:
            hits = run_clang_query(args.root, args.build_dir)
            if hits is None:
                return 2
            findings.extend(hits)

    for finding in findings:
        print(finding)
    if findings:
        print(f"dpack-lint: {len(findings)} finding(s)")
        return 1
    print("dpack-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
