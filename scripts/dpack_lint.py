#!/usr/bin/env python3
"""dpack-lint: static determinism rules the differential suites can only sample.

The engine-matrix tests prove byte-identical grants for the interleavings and hash orders a
run happens to explore; these rules reject the *sources* of nondeterminism at review time,
on every line of the scheduling paths. Rules (scoped to the grant-ordering directories
src/core, src/block, src/service and src/sim unless noted):

  threads                  (all of src/, tests/, bench/, examples/) std::thread,
                           std::jthread, std::async, pthread_create and every mutex,
                           condition and lock type (std::mutex, std::condition_variable,
                           std::lock_guard, std::unique_lock & friends), with no exempt
                           file. Every process is one thread: SpawnChild forks without
                           exec, which is only safe from a single-threaded process
                           (src/common/subprocess.h), and with one thread there is nothing
                           for a lock to guard.
  raw-sleep                (all of src/) usleep, nanosleep, clock_nanosleep, sleep_for and
                           sleep_until are banned except in src/common/sleep.cc. A wait on
                           the service's critical path must end when its event arrives
                           (WaitForFds on sockets); the few sleeps with nothing to wait on
                           go through SleepFullMicros, which EINTR cannot shorten.
  raw-yield                (all of src/, tests/, bench/, examples/) sched_yield and
                           pthread_yield are banned except in src/common/sleep.cc. A yield
                           is the working part of a spin; every spin lives in
                           WaitForFds's spin-then-block wait, whose window is a fixed count
                           and whose yield keeps a one-core host from starving the peer.
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
                           Budget feasibility must go through the one blessed helper,
                           WithinCapacity (src/block/privacy_block.h); exact float equality
                           is a representation-dependent trap.
                           src/workload is in scope because trace readers compare reparsed
                           doubles against grid values — those must compare bit patterns
                           (BitsOfDouble), not float ==, or a text roundtrip silently
                           accepts a neighboring grid. Ordering comparators on scores
                           use </> tie-breaks and are out of scope by construction.
  admission-slack          (all of src/) The admission slack 1e-9 * (1.0 + cap) spelled
                           anywhere but src/block/privacy_block.h. The admission rule is
                           the budget guarantee itself (§3.4, Property 6); its one home is
                           AdmissionSlack / WithinCapacity / OrderExhausted there, so a
                           second spelling cannot drift from it.
  doc-link                 (src/, bench/, tests/, examples/, scripts/; C++, Python and
                           shell comments) A comment that names a Markdown file must name
                           one that exists, relative to the repo root or to the file's own
                           directory. A pointer to a deleted or never-written document
                           sends the reader nowhere.

Suppression: `// dpack-lint: allow(<rule>): <reason>` on the offending line or the line
above. The reason is mandatory — an allow is a reviewed claim, not an escape hatch.

Exit status: 0 clean, 1 findings, 2 usage error.

Usage:
  dpack_lint.py --root REPO                 lint the tree (the CI gate)
  dpack_lint.py --root REPO --fixture F --as src/core/f.cc
                                            lint one file as if at the given repo path
                                            (the tests/lint fixture self-test)
"""

import argparse
import os
import re
import sys

# Directories whose code decides or orders grants: hash-order and clock nondeterminism
# here changes the grant sequence, which the whole reproduction pins byte-for-byte.
# src/service is in scope because the daemon's admission and socket edge decide what reaches
# the engine and at which virtual instant — a hash-order or wall-clock leak there breaks the
# remote grant-equivalence proof the same way it would in-process (deadlines in the service
# are iteration budgets, not clocks, precisely so this rule can hold there). src/sim is in
# scope because its schedule walk orders every driver's arrivals and cycles, and that order
# decides admission and most-recent-block resolution.
GRANT_ORDERING_DIRS = ("src/core", "src/block", "src/service", "src/sim")
# float-equality reaches further: trace I/O reparses budget doubles from text, where a bare
# == against a grid value is the same representation trap (the other grant-ordering rules
# stay scoped — workload generation may iterate its own maps without ordering grants).
FLOAT_EQ_DIRS = GRANT_ORDERING_DIRS + ("src/workload",)
# threads applies everywhere C++ lives, with no exempt file.
ALL_CODE_DIRS = ("src", "tests", "bench", "examples")
# raw-sleep applies to the library; these are the sanctioned homes of a bounded wait.
RAW_SLEEP_DIRS = ("src",)
RAW_SLEEP_HOMES = ("src/common/sleep.cc",)
# raw-yield applies everywhere C++ lives; a spin has the one audited home.
RAW_YIELD_HOME = "src/common/sleep.cc"
# admission-slack applies to the library; the admission rule has the one home.
ADMISSION_SLACK_DIRS = ("src",)
ADMISSION_RULE_HOME = "src/block/privacy_block.h"

# doc-link applies to every directory that holds code or scripts, in these languages.
DOC_LINK_DIRS = ("src", "bench", "tests", "examples", "scripts")
CPP_SUFFIXES = (".cc", ".h", ".cpp", ".hpp")
HASH_COMMENT_SUFFIXES = (".py", ".sh")
# A Markdown file name: path characters ending in <name>.md, not part of a URL.
DOC_NAME_RE = re.compile(r"(?<![\w./:-])[\w./-]*[\w-]\.md\b")

ALLOW_RE = re.compile(r"//\s*dpack-lint:\s*allow\(([a-z-]+)\)\s*:\s*\S")

THREADS_RE = re.compile(
    r"\bstd::(thread|jthread|async|mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable|condition_variable_any|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock)\b|(?<![\w])(pthread_create)\s*\(")
RAW_SLEEP_RE = re.compile(
    r"(?<![\w])(usleep|nanosleep|clock_nanosleep)\s*\(|\b(sleep_for|sleep_until)\s*\(")
RAW_YIELD_RE = re.compile(r"(?<![\w])(sched_yield|pthread_yield)\s*\(")
# 1e-9 * (1.0 + ...), with the literals spelled 1e-9 or 1E-09 and 1, 1. or 1.0.
ADMISSION_SLACK_RE = re.compile(r"(?<![\w.])1[eE]-0?9\s*\*\s*\(\s*1(?:\.0*)?\s*\+")
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

def digit_separator(text, i):
    """True when the quote at text[i] separates digits (60'000, 0xFF'FF), not a char literal."""
    start = i
    while start > 0 and (text[start - 1].isalnum() or text[start - 1] in "_."):
        start -= 1
    return start < i and text[start].isdigit()


def split_comments(text):
    """Splits C++ source into (code, comments), each preserving line structure.

    `code` blanks comments and string/char literal bodies; `comments` keeps only the comment
    bodies and blanks everything else."""
    code = []
    comments = []
    i = 0
    n = len(text)
    state = None  # None | 'line' | 'block' | 'str' | 'chr' | 'raw'
    raw_delim = ""

    def blank(chunk):
        return "".join(ch if ch == "\n" else " " for ch in chunk)

    def emit_code(chunk, as_code=None):
        code.append(chunk if as_code is None else as_code)
        comments.append(blank(chunk))

    def emit_comment(chunk):
        code.append(blank(chunk))
        comments.append(chunk)

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                emit_code(c + nxt, "  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block"
                emit_code(c + nxt, "  ")
                i += 2
            elif c == "R" and nxt == '"':
                close = text.find("(", i + 2)
                if close == -1:
                    emit_code(c)
                    i += 1
                    continue
                raw_delim = ")" + text[i + 2:close] + '"'
                state = "raw"
                emit_code(text[i:close + 1], " " * (close + 1 - i))
                i = close + 1
            elif c == '"':
                state = "str"
                emit_code(c)
                i += 1
            elif c == "'" and not digit_separator(text, i):
                state = "chr"
                emit_code(c)
                i += 1
            else:
                emit_code(c)
                i += 1
        elif state == "line":
            if c == "\n":
                state = None
            emit_comment(c)
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                emit_code(c + nxt, "  ")
                i += 2
            else:
                emit_comment(c)
                i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = None
                emit_code(raw_delim, " " * len(raw_delim))
                i += len(raw_delim)
            else:
                emit_code(c, blank(c))
                i += 1
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                emit_code(text[i:i + 2], blank(text[i:i + 2]))
                i += 2
            elif c == quote:
                state = None
                emit_code(c)
                i += 1
            else:
                emit_code(c, blank(c))
                i += 1
    return "".join(code), "".join(comments)


def strip_code(text):
    """Blanks comments and string/char literal bodies, preserving line structure."""
    return split_comments(text)[0]


def hash_comments(text):
    """The `#` comments of a Python or shell file, one entry per line (quotes respected; a
    comment's `#` starts the line or follows whitespace)."""
    out = []
    for line in text.splitlines():
        quote = None
        comment = ""
        for pos, ch in enumerate(line):
            if quote is not None:
                if ch == quote:
                    quote = None
            elif ch in "\"'":
                quote = ch
            elif ch == "#" and (pos == 0 or line[pos - 1].isspace()):  # Not shell's $#.
                comment = line[pos:]
                break
        out.append(comment)
    return out


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


def doc_link_findings(root, rel_posix, comment_lines, add):
    """Flags every Markdown file a comment names that exists neither under `root` nor
    beside the file."""
    here = os.path.dirname(rel_posix)
    for idx, line in enumerate(comment_lines, 1):
        for m in DOC_NAME_RE.finditer(line):
            name = m.group(0)
            if not any(os.path.isfile(os.path.join(root, base, name)) for base in ("", here)):
                add(idx, "doc-link",
                    f"{name} names no file, relative to the repo root or to {here or '.'}; "
                    f"point the comment at a document that exists")


def lint_file(rel, text, root):
    findings = []
    raw_lines = text.splitlines()
    rel_posix = rel.replace(os.sep, "/")

    def add(lineno, rule, message):
        if not allowed(raw_lines, lineno, rule):
            findings.append(Finding(rel_posix, lineno, rule, message))

    if rel_posix.endswith(HASH_COMMENT_SUFFIXES):
        if in_scope(rel_posix, DOC_LINK_DIRS):
            doc_link_findings(root, rel_posix, hash_comments(text), add)
        return findings

    stripped, comments = split_comments(text)
    lines = stripped.splitlines()

    if in_scope(rel_posix, DOC_LINK_DIRS):
        doc_link_findings(root, rel_posix, comments.splitlines(), add)

    # threads: everywhere, no exemption.
    if in_scope(rel_posix, ALL_CODE_DIRS):
        for idx, line in enumerate(lines, 1):
            m = THREADS_RE.search(line)
            if m:
                what = f"std::{m.group(1)}" if m.group(1) else f"{m.group(2)}()"
                add(idx, "threads",
                    f"{what}: every dpack process is one thread with no locks, and "
                    f"SpawnChild's fork without exec is only safe from such a process")

    # raw-sleep: the library, except the file that implements bounded waits.
    if in_scope(rel_posix, RAW_SLEEP_DIRS) and rel_posix not in RAW_SLEEP_HOMES:
        for idx, line in enumerate(lines, 1):
            m = RAW_SLEEP_RE.search(line)
            if m:
                add(idx, "raw-sleep",
                    f"{m.group(1) or m.group(2)}() outside {' / '.join(RAW_SLEEP_HOMES)}; "
                    f"wait on the event (WaitForFds) or, with nothing to wait "
                    f"on, call SleepFullMicros")

    # raw-yield: everywhere, except the file whose wait spins.
    if in_scope(rel_posix, ALL_CODE_DIRS) and rel_posix != RAW_YIELD_HOME:
        for idx, line in enumerate(lines, 1):
            m = RAW_YIELD_RE.search(line)
            if m:
                add(idx, "raw-yield",
                    f"{m.group(1)}() outside {RAW_YIELD_HOME}; a spin belongs in "
                    f"WaitForFds(..., spin=true), the one bounded spin-then-block wait")

    # admission-slack: the library, except the admission rule's home.
    if in_scope(rel_posix, ADMISSION_SLACK_DIRS) and rel_posix != ADMISSION_RULE_HOME:
        for idx, line in enumerate(lines, 1):
            if ADMISSION_SLACK_RE.search(line):
                add(idx, "admission-slack",
                    f"admission slack spelled outside {ADMISSION_RULE_HOME}; call "
                    f"WithinCapacity / OrderExhausted (or AdmissionSlack) so the budget "
                    f"check has one home")

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
        # this file (a declaration-local heuristic).
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
                    "bare ==/!= on a budget quantity; use the blessed helper "
                    "WithinCapacity (src/block/privacy_block.h), bit-pattern comparison "
                    "(BitsOfDouble) for exact-roundtrip checks, or an ordered </> "
                    "comparison")

    return findings


def iter_tree(root):
    for base in DOC_LINK_DIRS:
        top = os.path.join(root, base)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "fixtures")
            for name in sorted(filenames):
                if name.endswith(CPP_SUFFIXES + HASH_COMMENT_SUFFIXES):
                    yield os.path.join(dirpath, name)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", required=True, help="repository root")
    parser.add_argument("--fixture", help="lint a single file instead of the tree")
    parser.add_argument("--as", dest="treat_as",
                        help="repo-relative path the fixture is linted as")
    args = parser.parse_args(argv[1:])

    findings = []
    if args.fixture:
        if not args.treat_as:
            parser.error("--fixture requires --as")
        with open(args.fixture) as fh:
            findings.extend(lint_file(args.treat_as, fh.read(), args.root))
    else:
        for path in iter_tree(args.root):
            rel = os.path.relpath(path, args.root)
            with open(path) as fh:
                findings.extend(lint_file(rel, fh.read(), args.root))

    for finding in findings:
        print(finding)
    if findings:
        print(f"dpack-lint: {len(findings)} finding(s)")
        return 1
    print("dpack-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
